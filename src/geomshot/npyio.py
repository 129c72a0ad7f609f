"""Minimal NPY reader/writer for (21, 3) keypoint files.

Supported subset: format versions 1.0 and 2.0, little-endian float32 or
float64, C order, shape (21, 3). float32 payloads are promoted to float64
after reading. The writer emits version 1.0 float64 files with the same
header layout numpy uses, so write(load(p)) round-trips byte-identically
for float64 C-order inputs.
"""

from __future__ import annotations

import ast
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError
from .geometry import NUM_KEYPOINTS, validate_keypoints

_MAGIC = b"\x93NUMPY"
_SUPPORTED_DESCR = {"<f4": np.float32, "<f8": np.float64}
_EXPECTED_SHAPE = (NUM_KEYPOINTS, 3)


def _read_header(f, path: Path) -> dict:
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


def load_keypoints(path) -> np.ndarray:
    """Read one keypoint file; returns a float64 array of shape (21, 3)."""
    path = Path(path)
    with open(path, "rb") as f:
        header = _read_header(f, path)
        descr = header.get("descr")
        if not isinstance(descr, str) or descr not in _SUPPORTED_DESCR:
            raise FormatError("dtype", f"{path}: unsupported descr {descr!r}")
        if header.get("fortran_order") is not False:
            raise FormatError("order", f"{path}: fortran_order must be False")
        shape = header.get("shape")
        if not isinstance(shape, (tuple, list)) or tuple(shape) != _EXPECTED_SHAPE:
            raise FormatError("shape", f"{path}: expected (21, 3), got {shape}")
        dtype = np.dtype(_SUPPORTED_DESCR[descr]).newbyteorder("<")
        nbytes = int(np.prod(_EXPECTED_SHAPE)) * dtype.itemsize
        payload = f.read(nbytes)
        if len(payload) != nbytes:
            raise FormatError("payload", f"{path}: expected {nbytes} data bytes")
        arr = np.frombuffer(payload, dtype=dtype).reshape(_EXPECTED_SHAPE)
    return validate_keypoints(arr)


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


def write_keypoints(path, points: np.ndarray) -> None:
    """Write keypoints as a version 1.0 little-endian float64 NPY file."""
    arr = validate_keypoints(points)
    header = _build_header("<f8", arr.shape)
    path = Path(path)
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(bytes([1, 0]))
        f.write(struct.pack("<H", len(header)))
        f.write(header)
        f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
