"""The encoder checkpoint: one JSON header line, then the encoder's state array.

Layout: the first line of the file is a compact JSON document
``{"format": "geomshot-checkpoint", "version": 1, "meta": {..., "encoder":
{EncoderConfig fields}}, "tensors": tensor_table(config)}`` terminated by a
newline; the rest of the file is the state array's little-endian float64
bytes: every trainable tensor layer by layer, then every BatchNorm's running
statistics, each at its table entry's byte offset. ``tensor_table`` is the
encoder's own state layout, so the header and the encoder's views agree.
``config.read_document`` parses the header line (at most 1 MiB). The loader
builds the ``EncoderConfig`` from ``meta.encoder`` before it reads the table,
refuses the first entry that is not the config's own (compared as JSON text,
so ``false`` is not ``0`` and ``20.0`` is not ``20``), and reads the payload
once, into the array the loaded encoder keeps as its state; that encoder
holds no gradient. Loading reproduces every bit, and every fault is one
``CorruptCheckpoint`` line.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from ..config import read_document
from ..errors import CorruptCheckpoint
from .encoder import EncoderConfig, MLPEncoder, tensor_table

FORMAT_NAME = "geomshot-checkpoint"
FORMAT_VERSION = 1
MAX_HEADER_BYTES = 1 << 20  # a default encoder's header, with a full train_config, is under 2 KB


def save_checkpoint(path, config: EncoderConfig, state: np.ndarray, meta: dict) -> None:
    header = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "meta": meta | {"encoder": asdict(config)},
              "tensors": tensor_table(config)}
    with open(Path(path), "wb") as f:
        f.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        f.write(np.ascontiguousarray(state, dtype="<f8"))  # the array's own buffer: no bytes copy


def load_checkpoint(path) -> tuple[MLPEncoder, dict]:
    """Returns (the encoder, meta); raises CorruptCheckpoint on any fault."""
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
        if not isinstance(meta.get("encoder"), dict):
            raise CorruptCheckpoint(f"{path}: missing encoder config in meta")
        try:
            cfg = EncoderConfig(**{f.name: meta["encoder"][f.name] for f in fields(EncoderConfig)})
        except (KeyError, TypeError, ValueError, OverflowError) as e:
            raise CorruptCheckpoint(f"{path}: bad encoder config in meta ({e!r})") from e
        if len(entries) != 6 * cfg.num_hidden + 2:  # before tensor_table() lists num_hidden layers
            raise CorruptCheckpoint(
                f"{path}: {len(entries)} tensors for num_hidden {cfg.num_hidden} "
                f"(expected {6 * cfg.num_hidden + 2})"
            )
        for i, (entry, want) in enumerate(zip(entries, tensor_table(cfg))):
            entry, want = json.dumps(entry, sort_keys=True), json.dumps(want, sort_keys=True)
            if entry != want:
                raise CorruptCheckpoint(f"{path}: tensor {i} is {entry} where the encoder config has {want}")
        size = 8 * cfg.state_size()
        payload = os.fstat(f.fileno()).st_size - f.tell()
        if payload != size:
            raise CorruptCheckpoint(f"{path}: payload has {payload} bytes, header accounts for {size}")
        state = np.empty(cfg.state_size(), dtype="<f8")
        read = f.readinto(state)
        if read != size:  # the file changed since its size was taken
            raise CorruptCheckpoint(f"{path}: payload has {read} bytes, header accounts for {size}")
    return MLPEncoder.from_state(cfg, state), meta
