"""Strict YAML configuration loading for the CLI, and the one reader of text documents.

``read_document`` parses every text input: configs (YAML), splits, reports
and checkpoint header lines (JSON). Text that is not UTF-8, does not parse,
repeats a key within one mapping or nests too deeply is one line of the
caller's error class naming the path, and the line and column where the
parser gives them. A YAML config is read only up to ``MAX_CONFIG_BYTES``,
and a longer one is refused. A YAML text with more than ``MAX_FLOW_DEPTH``
``[``/``{`` openers, quotes ignored, is refused as nested too deeply before
PyYAML's scanner runs, because that scanner's work grows with the square
of the depth of a flow nest written on one line, and no nest is deeper
than its openers. ``write_document`` writes every JSON document the
package produces (manifests, reports, splits, corpus metadata), indented
with sorted keys, through ``write_atomic``.

Every config document carries ``schema_version: 1``; unknown keys at any
level are errors so typos in experiment grids fail loudly instead of
silently falling back to defaults. A section's known keys are the fields
of its dataclass, and so are the top-level keys that are not sections
(``TopLevelConfig``); the dataclass checks each value's type and range
(``schema.check_fields``): integers must be YAML integers, reals take an
integer or a finite float, booleans must be YAML booleans, paths must be
non-empty strings (``checkpoint`` and ``source`` may also be absent), and
a list (``seeds``, ``ablate.k_values``) holds distinct integers. Every
breach is ``InvalidConfig: <section>.<field> must be …, got <repr>`` (a
top-level key is named alone), raised before any run directory exists. PyYAML
reads YAML 1.1, where a float needs a dot, so ``1e3`` is the string
``"1e3"``: write ``1000``.
"""

from __future__ import annotations

import io
import itertools
import json
import os
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Callable

import yaml

from .errors import GeomshotError, InvalidConfig
from .geometry import REPRESENTATIONS
from .schema import check_fields, setting

SCHEMA_VERSION = 1
MAX_FLOW_DEPTH = 100  # flow openers a config may hold: PyYAML scans a one-line nest this deep in about 7 ms
MAX_CONFIG_BYTES = 1 << 20  # a config is a few hundred bytes; splits and reports, which list rows, have no cap
_CONFIG_READS = MAX_CONFIG_BYTES // io.DEFAULT_BUFFER_SIZE + 1  # one 1 MiB read per config raised peak RSS 0.06 MB


class _StrictLoader(yaml.SafeLoader):
    """Refuses a scalar key written twice in one mapping; a key may still override a ``<<`` merge."""

    def compose_mapping_node(self, anchor):
        node = super().compose_mapping_node(anchor)
        written = set()
        for key, _ in node.value:
            if isinstance(key, yaml.ScalarNode) and key.tag != "tag:yaml.org,2002:merge":
                if (key.tag, key.value) in written:
                    raise yaml.MarkedYAMLError(None, None, f"found duplicate key {key.value!r}", key.start_mark)
                written.add((key.tag, key.value))
        return node


def _unique_keys(pairs: list) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"found duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return doc


_JSON = json.JSONDecoder(object_pairs_hook=_unique_keys)  # json.loads(hook=...) builds a decoder per call


def read_document(path, error: type[GeomshotError], data: bytes | None = None, *, yaml_syntax: bool = False):
    """Parse ``data``, else the file at ``path``, as UTF-8 YAML or JSON; each fault is one ``error`` line.

    A path that cannot be read raises its own ``OSError``, which names it.
    """
    try:
        if data is None and yaml_syntax:  # in buffer-sized reads, as read(n) allocates n bytes before it reads
            with open(path, "rb") as f:
                data = b"".join(itertools.islice(iter(lambda: f.read(io.DEFAULT_BUFFER_SIZE), b""), _CONFIG_READS))
            if len(data) > MAX_CONFIG_BYTES:
                raise ValueError(f"longer than {MAX_CONFIG_BYTES} bytes")
        text = (Path(path).read_bytes() if data is None else data).decode("utf-8")
        if yaml_syntax and text.count("[") + text.count("{") > MAX_FLOW_DEPTH:
            raise RecursionError  # refused as the parser's own recursion limit refuses a deeper nest
        return yaml.load(text, Loader=_StrictLoader) if yaml_syntax else _JSON.decode(text)
    except UnicodeDecodeError as e:
        problem = f"not UTF-8 ({e.reason} at byte {e.start})"
    except json.JSONDecodeError as e:
        problem = f"line {e.lineno}, column {e.colno}: {e.msg}"
    except yaml.MarkedYAMLError as e:
        mark = e.problem_mark or e.context_mark
        problem = ", ".join(filter(None, (e.context, e.problem)))
        if mark:
            problem = f"line {mark.line + 1}, column {mark.column + 1}: {problem}"
    except yaml.reader.ReaderError as e:  # its own message names "<unicode string>", not the file
        problem = f"character {e.position}: {e.reason}"
    except (ValueError, yaml.YAMLError) as e:  # a repeated JSON key, an integer too long to convert
        problem = str(e)
    except RecursionError:
        problem = "nested too deeply"
    raise error(f"{path}: {' '.join(problem.split())}")


def write_atomic(path, write: Callable[[Path], object]) -> None:
    """Write ``path`` whole or not at all.

    ``write(tmp)`` fills a temp file beside ``path``, which then replaces
    it; if ``write`` raises, the temp file is removed and ``path`` is left
    as it was. Missing parent directories are made.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_document(path, doc) -> None:
    """Write ``doc`` to ``path`` as indented JSON with sorted keys, whole or not at all."""
    write_atomic(path, lambda tmp: tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n"))


def _check_keys(section, allowed: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise InvalidConfig(f"{where} must be a mapping")
    unknown = set(section) - allowed
    if unknown:  # YAML keys may be of any type, so sort by repr
        raise InvalidConfig(f"unknown keys in {where}: {sorted(unknown, key=repr)}")


def load_config(path, top_keys: set[str]) -> dict:
    doc = read_document(path, InvalidConfig, yaml_syntax=True)
    _check_keys(doc, top_keys | {"schema_version"}, str(path))
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise InvalidConfig(f"{path}: schema_version must be {SCHEMA_VERSION}, got {version!r}")
    return doc


@dataclass
class DataConfig:
    data_root: str = setting()
    split: str = setting()
    representation: str = setting(choices=REPRESENTATIONS)
    normalize: bool = setting(True)

    def __post_init__(self):
        check_fields(self, "data")


@dataclass
class AblateConfig:
    k_values: tuple[int, ...] = setting((1, 3, 5), ge=1)

    def __post_init__(self):
        check_fields(self, "ablate")


@dataclass
class TopLevelConfig:
    checkpoint: str | None = setting(None)
    source: str | None = setting(None)
    seeds: tuple[int, ...] = setting((42, 1337, 2024), ge=0)

    def __post_init__(self):
        check_fields(self, "")


def parse_section(doc: dict, name: str, cls, required: bool = False, **fixed):
    """Build ``cls`` from ``doc[name]``; ``fixed`` fields come from the caller, not the file."""
    section = doc.get(name)
    if section is None:
        if required:
            raise InvalidConfig(f"missing required section {name!r}")
        section = {}
    keys = [f for f in fields(cls) if f.name not in fixed]
    _check_keys(section, {f.name for f in keys}, name)
    for f in keys:
        if f.default is MISSING and f.name not in section:
            raise InvalidConfig(f"{name}.{f.name} is required")
    return cls(**section, **fixed)
