"""Minimal NPY reader/writer for (21, 3) keypoint files.

Supported subset: format versions 1.0 and 2.0, little-endian float32 or
float64, C order, shape (21, 3). float32 payloads are promoted to float64
after reading. The writer emits version 1.0 float64 files with the same
header layout numpy uses, so write(load(p)) round-trips byte-identically
for float64 C-order inputs.

The reader takes a file in one read. If the bytes start with one of the
two canonical preambles (magic, v1.0 and the header numpy writes for a
(21, 3) ``<f8`` or ``<f4`` array), the header is known without parsing;
any other file goes through the general header parser. Both routes end in
the same payload length check, decode and finiteness check. Bytes after
the payload are ignored.
"""

from __future__ import annotations

import ast
import io
import struct

import numpy as np

from .errors import FormatError
from .geometry import NUM_KEYPOINTS, validate_keypoints

_MAGIC = b"\x93NUMPY"
_SUPPORTED_DESCR = {"<f4": np.float32, "<f8": np.float64}
_EXPECTED_SHAPE = (NUM_KEYPOINTS, 3)
_EXPECTED_VALUES = NUM_KEYPOINTS * 3


def _read_header(f, path) -> dict:
    magic = f.read(6)
    if magic != _MAGIC:
        raise FormatError("magic", f"{path}: not an NPY file (got {magic!r})")
    version = f.read(2)
    if len(version) != 2:
        raise FormatError("version", f"{path}: truncated version field")
    major, minor = version[0], version[1]
    if (major, minor) not in ((1, 0), (2, 0)):
        raise FormatError("version", f"{path}: unsupported NPY version {major}.{minor}")
    if major == 1:
        raw = f.read(2)
        if len(raw) != 2:
            raise FormatError("header", f"{path}: truncated header length")
        (hlen,) = struct.unpack("<H", raw)
    else:
        raw = f.read(4)
        if len(raw) != 4:
            raise FormatError("header", f"{path}: truncated header length")
        (hlen,) = struct.unpack("<I", raw)
    header_bytes = f.read(hlen)
    if len(header_bytes) != hlen:
        raise FormatError("header", f"{path}: truncated header")
    try:
        header = ast.literal_eval(header_bytes.decode("latin1").strip())
    except (ValueError, SyntaxError, TypeError, MemoryError, RecursionError) as e:
        raise FormatError("header", f"{path}: unparsable header ({e})") from e
    if not isinstance(header, dict):
        raise FormatError("header", f"{path}: header is not a dict")
    return header


def _parse_header(data: bytes, path) -> tuple[np.dtype, int]:
    """The general route: parse and check the header; returns the payload dtype and offset."""
    f = io.BytesIO(data)
    header = _read_header(f, path)
    descr = header.get("descr")
    if not isinstance(descr, str) or descr not in _SUPPORTED_DESCR:
        raise FormatError("dtype", f"{path}: unsupported descr {descr!r}")
    if header.get("fortran_order") is not False:
        raise FormatError("order", f"{path}: fortran_order must be False")
    shape = header.get("shape")
    if not isinstance(shape, (tuple, list)) or tuple(shape) != _EXPECTED_SHAPE:
        raise FormatError("shape", f"{path}: expected (21, 3), got {shape}")
    return np.dtype(_SUPPORTED_DESCR[descr]).newbyteorder("<"), f.tell()


def load_keypoints(path) -> np.ndarray:
    """Read one keypoint file; returns a float64 array of shape (21, 3)."""
    with open(path, "rb") as f:
        data = f.read()
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


def _build_header(descr: str, shape: tuple[int, ...]) -> bytes:
    # Mirrors numpy's v1.0 header layout: dict literal, space-padded so the
    # full preamble is a multiple of 64 bytes, newline-terminated.
    dict_str = (
        "{'descr': '%s', 'fortran_order': False, 'shape': %s, }"
        % (descr, "(%s)" % ", ".join(str(d) for d in shape))
    )
    preamble = len(_MAGIC) + 2 + 2
    total = preamble + len(dict_str) + 1
    pad = (64 - total % 64) % 64
    return dict_str.encode("latin1") + b" " * pad + b"\n"


def _preamble(descr: str) -> bytes:
    header = _build_header(descr, _EXPECTED_SHAPE)
    return _MAGIC + bytes([1, 0]) + struct.pack("<H", len(header)) + header


# The leading bytes that np.save and write_keypoints give a C-order (21, 3)
# float64 or float32 array. A file starting with one of them needs no header
# parsing. Both descrs have the same length, so both preambles are 128 bytes.
_CANONICAL = {_preamble(descr): np.dtype(descr) for descr in _SUPPORTED_DESCR}
_CANONICAL_LEN = len(_preamble("<f8"))


def write_keypoints(path, points: np.ndarray) -> None:
    """Write keypoints as a version 1.0 little-endian float64 NPY file."""
    arr = validate_keypoints(points)
    with open(path, "wb") as f:
        f.write(_preamble("<f8"))
        f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
