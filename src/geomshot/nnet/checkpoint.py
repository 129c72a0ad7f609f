"""Checkpoint container: one JSON header line + little-endian float64 blobs.

Layout: the first line of the file is a compact JSON document
``{"format": "geomshot-checkpoint", "version": 1, "meta": {...},
"tensors": [{"name", "dtype", "shape", "byte_offset"}, ...]}``
terminated by a newline; the rest of the file is the concatenation of the
tensors' raw little-endian float64 bytes at the stated offsets. Loading
reproduces values bit-exactly.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from ..errors import CorruptCheckpoint

FORMAT_NAME = "geomshot-checkpoint"
FORMAT_VERSION = 1


def save_checkpoint(path, tensors: list[tuple[str, np.ndarray]], meta: dict) -> None:
    entries = []
    blobs = []
    offset = 0
    for name, arr in tensors:
        arr = np.ascontiguousarray(arr, dtype="<f8")
        entries.append(
            {"name": name, "dtype": "<f8", "shape": list(arr.shape), "byte_offset": offset}
        )
        blob = arr.tobytes()
        blobs.append(blob)
        offset += len(blob)
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "meta": meta,
        "tensors": entries,
    }
    with open(Path(path), "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        for blob in blobs:
            f.write(blob)


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Returns (meta, {name: array}); raises CorruptCheckpoint on mismatch."""
    path = Path(path)
    with open(path, "rb") as f:
        header_line = f.readline()
        blob = f.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CorruptCheckpoint(f"{path}: bad header ({e})") from e
    if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
        raise CorruptCheckpoint(f"{path}: not a {FORMAT_NAME} file")
    if header.get("version") != FORMAT_VERSION:
        raise CorruptCheckpoint(f"{path}: unsupported version {header.get('version')}")
    meta = header.get("meta", {})
    entries = header.get("tensors", [])
    if not isinstance(meta, dict) or not isinstance(entries, list):
        raise CorruptCheckpoint(f"{path}: meta must be an object and tensors a list")
    tensors: dict[str, np.ndarray] = {}
    expected_end = 0
    for entry in entries:
        try:
            name, dtype = entry["name"], entry["dtype"]
            shape = tuple(int(d) for d in entry["shape"])
            start = int(entry["byte_offset"])
        except (KeyError, TypeError, ValueError) as e:
            raise CorruptCheckpoint(f"{path}: malformed tensor entry ({e!r})") from e
        if dtype != "<f8":
            raise CorruptCheckpoint(f"{path}: tensor {name} has dtype {dtype}")
        if start < 0 or any(d < 0 for d in shape):
            raise CorruptCheckpoint(f"{path}: tensor {name} has a negative offset or shape")
        end = start + math.prod(shape) * 8
        if end > len(blob):
            raise CorruptCheckpoint(
                f"{path}: tensor {name} needs bytes [{start}, {end}) "
                f"but payload has {len(blob)}"
            )
        tensors[name] = np.frombuffer(blob[start:end], dtype="<f8").reshape(shape).copy()
        expected_end = max(expected_end, end)
    if expected_end != len(blob):
        raise CorruptCheckpoint(
            f"{path}: payload has {len(blob)} bytes, header accounts for {expected_end}"
        )
    return meta, tensors
