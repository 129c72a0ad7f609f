"""Minimal NPY reader/writer for (21, 3) keypoint files.

Supported subset: format versions 1.0 and 2.0, little-endian float32 or
float64, C order, shape (21, 3). float32 payloads are promoted to float64
after reading. The writer emits version 1.0 float64 files with the same
header layout numpy uses, so write(load(p)) round-trips byte-identically
for float64 C-order inputs.

A file is written with one ``os.write`` (a constant preamble plus the
payload) and read unbuffered with ``os.read``, at most ``READ_LIMIT``
bytes: a v2.0 preamble, numpy's own 10,000-byte header limit
(``MAX_HEADER_BYTES``) and a float64 payload. So a large file costs no
more than a valid one before it is refused; a longer header is refused as
field ``header``, as numpy's reader refuses it. If the bytes start with
one of the two canonical preambles (magic, v1.0 and the header numpy
writes for a (21, 3) ``<f8`` or ``<f4`` array), the header is known
without parsing; any other file goes through the general header parser.
Both routes end in the same payload length check, decode and finiteness
check. Bytes after the payload are ignored.
"""

from __future__ import annotations

import ast
import os

import numpy as np

from .errors import FormatError
from .geometry import NUM_KEYPOINTS, validate_keypoints

_MAGIC = b"\x93NUMPY"
_SUPPORTED_DESCR = {"<f4": np.float32, "<f8": np.float64}
_EXPECTED_SHAPE = (NUM_KEYPOINTS, 3)
_EXPECTED_VALUES = NUM_KEYPOINTS * 3
MAX_HEADER_BYTES = 10_000  # numpy's default max_header_size
READ_LIMIT = 12 + MAX_HEADER_BYTES + _EXPECTED_VALUES * 8


def _read_header(data: bytes, path) -> tuple[dict, int]:
    """The header dict of an NPY file's bytes, and the offset of its payload."""
    if data[:6] != _MAGIC:
        raise FormatError("magic", f"{path}: not an NPY file (got {data[:6]!r})")
    if len(data) < 8:
        raise FormatError("version", f"{path}: truncated version field")
    major, minor = data[6], data[7]
    if (major, minor) not in ((1, 0), (2, 0)):
        raise FormatError("version", f"{path}: unsupported NPY version {major}.{minor}")
    start = 10 if major == 1 else 12  # a 2-byte (v1.0) or 4-byte (v2.0) little-endian header length
    if len(data) < start:
        raise FormatError("header", f"{path}: truncated header length")
    length = int.from_bytes(data[8:start], "little")
    if length > MAX_HEADER_BYTES:
        raise FormatError("header", f"{path}: header of {length} bytes is longer than {MAX_HEADER_BYTES}")
    end = start + length
    if len(data) < end:
        raise FormatError("header", f"{path}: truncated header")
    try:
        header = ast.literal_eval(data[start:end].decode("latin1").strip())
    except (ValueError, SyntaxError, TypeError, MemoryError, RecursionError) as e:
        raise FormatError("header", f"{path}: unparsable header ({e})") from e
    if not isinstance(header, dict):
        raise FormatError("header", f"{path}: header is not a dict")
    return header, end


def _parse_header(data: bytes, path) -> tuple[np.dtype, int]:
    """The general route: parse and check the header; returns the payload dtype and offset."""
    header, offset = _read_header(data, path)
    descr = header.get("descr")
    if not isinstance(descr, str) or descr not in _SUPPORTED_DESCR:
        raise FormatError("dtype", f"{path}: unsupported descr {descr!r}")
    if header.get("fortran_order") is not False:
        raise FormatError("order", f"{path}: fortran_order must be False")
    shape = header.get("shape")
    if not isinstance(shape, (tuple, list)) or tuple(shape) != _EXPECTED_SHAPE:
        raise FormatError("shape", f"{path}: expected (21, 3), got {shape}")
    return np.dtype(_SUPPORTED_DESCR[descr]).newbyteorder("<"), offset


def load_keypoints(path) -> np.ndarray:
    """Read one keypoint file; returns a float64 array of shape (21, 3)."""
    chunks, left = [], READ_LIMIT
    fd = os.open(path, os.O_RDONLY)
    try:
        while left and (chunk := os.read(fd, left)):
            chunks.append(chunk)
            left -= len(chunk)
    finally:
        os.close(fd)
    data = b"".join(chunks)
    dtype = _CANONICAL.get(data[:_CANONICAL_LEN])
    if dtype is None:
        dtype, offset = _parse_header(data, path)
    else:
        offset = _CANONICAL_LEN
    nbytes = _EXPECTED_VALUES * dtype.itemsize
    if len(data) - offset < nbytes:
        raise FormatError("payload", f"{path}: expected {nbytes} data bytes")
    arr = np.frombuffer(data, dtype=dtype, count=_EXPECTED_VALUES, offset=offset)
    return validate_keypoints(arr.reshape(_EXPECTED_SHAPE))


def _preamble(descr: str) -> bytes:
    # Mirrors numpy's v1.0 layout: magic, version, header length, then a dict
    # literal space-padded so the preamble is a multiple of 64 bytes, and "\n".
    header = "{'descr': '%s', 'fortran_order': False, 'shape': %s, }" % (descr, _EXPECTED_SHAPE)
    header += " " * (-(len(_MAGIC) + 4 + len(header) + 1) % 64) + "\n"
    return _MAGIC + bytes([1, 0]) + len(header).to_bytes(2, "little") + header.encode("latin1")


# The leading bytes that np.save and write_keypoints give a C-order (21, 3)
# float64 or float32 array. A file starting with one of them needs no header
# parsing. Both descrs have the same length, so both preambles are 128 bytes.
_PREAMBLE = _preamble("<f8")
_CANONICAL = {_preamble(descr): np.dtype(descr) for descr in _SUPPORTED_DESCR}
_CANONICAL_LEN = len(_PREAMBLE)


def write_keypoints(path, points: np.ndarray) -> None:
    """Write keypoints as a version 1.0 little-endian float64 NPY file, in one write call."""
    data = _PREAMBLE + np.ascontiguousarray(validate_keypoints(points), dtype="<f8").tobytes()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
    finally:
        os.close(fd)
