"""Dataset catalogs, deterministic stratified splits, class eligibility.

On-disk layout: ``<root>/<class_name>/<sample>.npy`` with one (21, 3)
keypoint file per sample. Class ids are the indices of the sorted class
directory names; sample paths are stored relative to the root in posix
form so split files are portable. A catalog is built from one ``scandir``
listing of the root and of each class directory, and one read per file.

Split files are JSON documents
``{"seed": int, "fraction": float, "train": [paths], "test": [paths]}``
with both path lists sorted. Loading a split requires those types (a
non-negative seed, a fraction in (0, 1), lists of path strings) and
re-validates zero train/test overlap and full catalog coverage.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal
from operator import attrgetter
from pathlib import Path

import numpy as np

from .errors import FormatError, InsufficientClasses, InvalidKeypoints, InvalidSplit
from .npyio import load_keypoints
from .rng import STREAM_SPLIT, check_seed, is_seed, make_rng

logger = logging.getLogger(__name__)


@dataclass
class Sample:
    """One keypoint file: relative path, class id, cached keypoints."""

    path: str
    class_id: int
    keypoints: np.ndarray | None = None

    def load(self, root: Path) -> np.ndarray:
        if self.keypoints is None:
            self.keypoints = load_keypoints(Path(root) / self.path)
        return self.keypoints


@dataclass
class DatasetCatalog:
    name: str
    root: Path
    classes: list[str]
    samples: list[Sample]

    def class_counts(self) -> dict[int, int]:
        counts: dict[int, int] = {c: 0 for c in range(len(self.classes))}
        for s in self.samples:
            counts[s.class_id] += 1
        return counts

    def by_class(self) -> dict[int, list[Sample]]:
        pools: dict[int, list[Sample]] = {c: [] for c in range(len(self.classes))}
        for s in self.samples:
            pools[s.class_id].append(s)
        return pools


def build_catalog(root, name: str | None = None, keep_keypoints: bool = True) -> DatasetCatalog:
    """Scan a dataset root and load every decodable sample.

    Each class directory is listed once; its ``*.npy`` entries (the names
    ``glob("*.npy")`` matches, hidden ones included) are read in name
    order, one read per file. Undecodable files, and ``*.npy`` entries that
    are not regular files, are skipped; the skipped count is logged. Empty
    class directories are excluded (with a warning) so every class in the
    catalog has at least one sample.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"dataset root {root} does not exist")
    classes: list[str] = []
    samples: list[Sample] = []
    skipped = 0
    with os.scandir(root) as it:
        class_dirs = sorted((e for e in it if e.is_dir()), key=attrgetter("name"))
    for d in class_dirs:
        with os.scandir(d.path) as it:
            files = sorted((e for e in it if e.name.endswith(".npy")), key=attrgetter("name"))
        loaded: list[Sample] = []
        for f in files:
            if not f.is_file():
                skipped += 1
                logger.debug("skipping %s: not a regular file", f.path)
                continue
            try:
                kp = load_keypoints(f.path)
            except (FormatError, InvalidKeypoints) as e:
                skipped += 1
                logger.debug("skipping %s: %s", f.path, e)
                continue
            loaded.append(Sample(f"{d.name}/{f.name}", -1, kp if keep_keypoints else None))
        if not loaded:
            logger.warning("class directory %s has no decodable samples; excluded", d.name)
            continue
        class_id = len(classes)
        classes.append(d.name)
        for s in loaded:
            s.class_id = class_id
        samples.extend(loaded)
    if skipped:
        logger.warning("skipped %d undecodable files under %s", skipped, root)
    return DatasetCatalog(name or root.name, root, classes, samples)


@dataclass
class SplitFile:
    seed: int
    fraction: float
    train: list[str]
    test: list[str]

    def to_json(self) -> str:
        doc = {
            "seed": self.seed,
            "fraction": self.fraction,
            "train": self.train,
            "test": self.test,
        }
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _train_count(fraction: float, n: int) -> int:
    # Decimal keeps 0.7 * 5 == 3.5 exactly; ties round half-to-even.
    exact = Decimal(str(fraction)) * n
    k = int(exact.quantize(Decimal("1"), rounding=ROUND_HALF_EVEN))
    if n >= 2:
        k = min(max(k, 1), n - 1)
    return k


def stratified_split(catalog: DatasetCatalog, train_fraction: float, seed: int) -> SplitFile:
    """Deterministic per-class split.

    Each class's samples are shuffled by a PCG64 stream seeded with
    (STREAM_SPLIT, seed, class_id); the first
    round(train_fraction * n_c) go to train (round half-to-even on the
    decimal value, clamped so both sides get at least one sample when
    n_c >= 2). Single-sample classes go entirely to train with a warning.
    """
    check_seed("split seed", seed)
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must be in (0, 1)")
    train: list[str] = []
    test: list[str] = []
    for class_id, pool in sorted(catalog.by_class().items()):
        paths = [s.path for s in pool]
        n = len(paths)
        if n == 1:
            logger.warning(
                "class %s has a single sample; assigning it to train",
                catalog.classes[class_id],
            )
            train.extend(paths)
            continue
        rng = make_rng(STREAM_SPLIT, seed, class_id)
        order = rng.permutation(n)
        k = _train_count(train_fraction, n)
        train.extend(paths[i] for i in order[:k])
        test.extend(paths[i] for i in order[k:])
    return SplitFile(seed, train_fraction, sorted(train), sorted(test))


def save_split(split: SplitFile, path) -> None:
    Path(path).write_text(split.to_json())


def _strings(value) -> bool:
    return type(value) is list and all(type(v) is str for v in value)


# Each split-file field and the rule its value must meet; bool is refused where a number belongs.
_SPLIT_FIELDS = {
    "seed": ("a non-negative integer", is_seed),
    "fraction": ("a number in (0, 1)", lambda v: type(v) is float and 0.0 < v < 1.0),
    "train": ("a list of strings", _strings),
    "test": ("a list of strings", _strings),
}


def load_split(path, catalog: DatasetCatalog | None = None) -> SplitFile:
    """Read a split file; if a catalog is given, validate it against it."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise InvalidSplit(f"{path}: a split file must hold a JSON object")
    for name, (rule, valid) in _SPLIT_FIELDS.items():
        if name not in doc:
            raise InvalidSplit(f"{path}: missing field {name!r}")
        if not valid(doc[name]):
            raise InvalidSplit(f"{path}: {name} must be {rule}, got {doc[name]!r:.60}")
    split = SplitFile(doc["seed"], doc["fraction"], doc["train"], doc["test"])
    train_set, test_set = set(split.train), set(split.test)
    overlap = train_set & test_set
    if overlap:
        raise InvalidSplit(f"{path}: train/test overlap on {sorted(overlap)[:3]} ...")
    if catalog is not None:
        catalog_paths = {s.path for s in catalog.samples}
        covered = train_set | test_set
        missing = catalog_paths - covered
        extra = covered - catalog_paths
        if missing or extra:
            raise InvalidSplit(
                f"{path}: split does not cover the catalog "
                f"({len(missing)} missing, {len(extra)} unknown)"
            )
    return split


def split_pool(catalog: DatasetCatalog, split: SplitFile, side: str) -> dict[int, list[Sample]]:
    """Per-class sample lists for one side of a split, in catalog order."""
    if side not in ("train", "test"):
        raise ValueError("side must be 'train' or 'test'")
    wanted = set(split.train if side == "train" else split.test)
    pools: dict[int, list[Sample]] = {}
    for s in catalog.samples:
        if s.path in wanted:
            pools.setdefault(s.class_id, []).append(s)
    return pools


def eligible_classes(pool: dict[int, list], k_shot: int, q_query: int) -> list[int]:
    """Class ids with at least K+Q samples, ascending."""
    if k_shot < 1 or q_query < 1:
        raise ValueError("k_shot and q_query must be >= 1")
    need = k_shot + q_query
    return sorted(c for c, samples in pool.items() if len(samples) >= need)


def eligible_pool(pool: dict[int, list], k_shot: int, q_query: int, n_way: int) -> dict[int, list]:
    """The classes of ``pool`` with at least K+Q samples; raises if fewer than ``n_way``."""
    eligible = eligible_classes(pool, k_shot, q_query)
    if len(eligible) < n_way:
        raise InsufficientClasses(
            f"{len(eligible)} classes have >= {k_shot + q_query} samples, need {n_way}"
        )
    return {c: pool[c] for c in eligible}
