"""Checkpoint container: one JSON header line + little-endian float64 blobs.

Layout: the first line of the file is a compact JSON document
``{"format": "geomshot-checkpoint", "version": 1, "meta": {...},
"tensors": [{"name", "dtype", "shape", "byte_offset"}, ...]}``
terminated by a newline; the rest of the file is the concatenation of the
tensors' raw little-endian float64 bytes in header order, each at its
stated offset; an encoder's are in ``EncoderConfig`` order, so its payload is
the encoder's state array. Loading reproduces values bit-exactly;
``config.read_document`` parses the header line (at most 1 MiB), and every
fault is a ``CorruptCheckpoint``.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from pathlib import Path

import numpy as np

from ..config import read_document
from ..errors import CorruptCheckpoint

FORMAT_NAME = "geomshot-checkpoint"
FORMAT_VERSION = 1
MAX_HEADER_BYTES = 1 << 20  # a default encoder's header, with a full train_config, is under 2 KB


def save_checkpoint(path, tensors: list[tuple[str, np.ndarray]], meta: dict) -> None:
    arrays = [np.ascontiguousarray(arr, dtype="<f8") for _, arr in tensors]
    offsets = itertools.accumulate((a.nbytes for a in arrays), initial=0)
    entries = [
        {"name": name, "dtype": "<f8", "shape": list(a.shape), "byte_offset": offset}
        for (name, _), a, offset in zip(tensors, arrays, offsets)
    ]
    header = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "meta": meta, "tensors": entries}
    with open(Path(path), "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        f.writelines(arrays)  # each array's own buffer: no bytes copy


def payload_views(flat: np.ndarray, shapes: list[tuple[str, list[int] | tuple[int, ...]]]) -> dict[str, np.ndarray]:
    """{name: view} for ``(name, shape)`` pairs: reshaped views of ``flat``, one after another."""
    ends = np.cumsum([math.prod(shape) for _, shape in shapes], dtype=np.int64)
    return {name: view.reshape(shape) for (name, shape), view in zip(shapes, np.split(flat, ends))}


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Returns (meta, {name: array}); raises CorruptCheckpoint on mismatch.

    The payload is read once, into the one array its tensors are views of.
    """
    path = Path(path)
    with open(path, "rb") as f:
        line = f.readline(MAX_HEADER_BYTES + 1)
        if len(line) > MAX_HEADER_BYTES:
            raise CorruptCheckpoint(f"{path}: header line longer than {MAX_HEADER_BYTES} bytes")
        header = read_document(path, CorruptCheckpoint, line)
        if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
            raise CorruptCheckpoint(f"{path}: not a {FORMAT_NAME} file")
        if header.get("version") != FORMAT_VERSION:
            raise CorruptCheckpoint(f"{path}: unsupported version {header.get('version')}")
        meta = header.get("meta", {})
        entries = header.get("tensors", [])
        if not isinstance(meta, dict) or not isinstance(entries, list):
            raise CorruptCheckpoint(f"{path}: meta must be an object and tensors a list")
        # The tensors must tile the payload: each starts where the previous one ends.
        shapes: dict[str, list[int]] = {}
        offset = 0
        for entry in entries:
            try:
                name, dtype, shape, start = (entry[k] for k in ("name", "dtype", "shape", "byte_offset"))
            except (KeyError, TypeError) as e:
                raise CorruptCheckpoint(f"{path}: malformed tensor entry ({e!r})") from e
            if not isinstance(name, str) or name in shapes:
                raise CorruptCheckpoint(f"{path}: tensor name {name!r} is not a new string")
            dims_ok = isinstance(shape, list) and all(type(d) is int and d >= 0 for d in shape)
            if dtype != "<f8" or not dims_ok or type(start) is not int or start != offset:
                raise CorruptCheckpoint(f"{path}: tensor {name} needs dtype <f8, int dims and offset {offset}")
            shapes[name] = shape
            offset += math.prod(shape) * 8
        payload = os.fstat(f.fileno()).st_size - f.tell()
        if offset != payload:
            raise CorruptCheckpoint(f"{path}: payload has {payload} bytes, header accounts for {offset}")
        flat = np.empty(offset // 8, dtype="<f8")
        got = f.readinto(flat)
        if got != offset:  # the file changed since its size was taken
            raise CorruptCheckpoint(f"{path}: payload has {got} bytes, header accounts for {offset}")
    return meta, payload_views(flat, list(shapes.items()))
