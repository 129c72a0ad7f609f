"""Dataset catalogs, deterministic stratified splits, class eligibility.

On-disk layout: ``<root>/<class_name>/<sample>.npy`` with one (21, 3)
keypoint file per sample. A catalog holds a dataset's usable files as
arrays in class-major name order: ``paths (N,)`` relative to the root in
posix form (so split files are portable), ``labels (N,)`` (indices into
the sorted class directory names ``classes``) and ``keypoints (N, 21,
3)``. Every other ``*.npy`` entry is in ``skipped`` with its reason:
``not_a_file``, ``format`` (an NPY file the reader refuses), ``keypoints``
(NaN, or past ``MAX_COORDINATE`` from the wrist) or ``degenerate`` (a hand
that ``featurize`` cannot scale-normalize), so every representation sees
the same rows. A catalog is built from one ``scandir`` listing of the root
and of each class directory, and one read per file. ``split_pool`` takes
one side's rows as a catalog of the same classes, and ``eligible_pool`` is
where labels become the per-class row lists the episode sampler draws from.

Split files are JSON documents
``{"seed": int, "fraction": float, "train": [paths], "test": [paths]}``
with both path lists sorted, written by ``config.write_document`` (whole
or absent) and read by ``config.read_document`` (its faults are
``InvalidSplit``). Loading a split requires those types (a
non-negative seed, a fraction in (0, 1), lists of distinct path strings)
and re-validates zero train/test overlap and full catalog coverage; a
listed path that the catalog skipped is named with its skip reason.
"""

from __future__ import annotations

import logging
import os
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from decimal import ROUND_HALF_EVEN, Decimal
from operator import attrgetter
from pathlib import Path

import numpy as np

from .config import read_document, write_document
from .errors import FormatError, InsufficientClasses, InvalidKeypoints, InvalidSplit
from .geometry import NUM_KEYPOINTS, degenerate_hands
from .npyio import load_keypoints
from .rng import STREAM_SPLIT, check_seed, is_seed, make_rng

logger = logging.getLogger(__name__)


@dataclass
class DatasetCatalog:
    """A dataset's usable files as row arrays; see the module docstring."""

    name: str
    root: Path
    classes: list[str]
    paths: np.ndarray
    labels: np.ndarray
    keypoints: np.ndarray
    skipped: list[tuple[str, str]] = field(default_factory=list)


def build_catalog(root) -> DatasetCatalog:
    """Scan a dataset root and load every usable sample.

    Each class directory is listed once; its ``*.npy`` entries (the names
    ``glob("*.npy")`` matches, hidden ones included) are read in name
    order, one ``load_keypoints`` call per regular file. Entries that give
    no row are skipped with their reason, and the skips are logged. Class
    directories left without rows are excluded (with a warning), so every
    class in the catalog has at least one row.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"dataset root {root} does not exist")
    with os.scandir(root) as it:
        class_dirs = sorted(e.name for e in it if e.is_dir())
    entries: list[tuple[int, os.DirEntry]] = []
    for index, d in enumerate(class_dirs):
        with os.scandir(root / d) as it:
            files = sorted((e for e in it if e.name.endswith(".npy")), key=attrgetter("name"))
        entries += [(index, f) for f in files]
    keypoints = np.empty((len(entries), NUM_KEYPOINTS, 3))  # filled in place, so no per-file arrays pile up
    paths: list[str] = []
    dirs: list[int] = []
    skipped: list[tuple[str, str]] = []
    for index, f in entries:
        path = f"{class_dirs[index]}/{f.name}"
        if not f.is_file():
            skipped.append((path, "not_a_file"))
            continue
        try:
            keypoints[len(paths)] = load_keypoints(f.path)
        except (FormatError, InvalidKeypoints) as e:
            skipped.append((path, "format" if isinstance(e, FormatError) else "keypoints"))
            logger.debug("skipping %s: %s", path, e)
            continue
        paths.append(path)
        dirs.append(index)
    keypoints = keypoints[: len(paths)]
    degenerate = degenerate_hands(keypoints)
    skipped += [(paths[i], "degenerate") for i in np.flatnonzero(degenerate).tolist()]
    keep = ~degenerate if degenerate.any() else slice(None)  # a slice copies nothing
    dir_rows = np.array(dirs, dtype=np.int64)[keep]
    rows_per_dir = np.bincount(dir_rows, minlength=len(class_dirs))
    used = np.flatnonzero(rows_per_dir)
    for i in np.flatnonzero(rows_per_dir == 0).tolist():
        logger.warning("class directory %s has no usable samples; excluded", class_dirs[i])
    if skipped:
        counts = ", ".join(f"{n} {reason}" for reason, n in sorted(Counter(r for _, r in skipped).items()))
        logger.warning("skipped %d of %d files under %s (%s)", len(skipped), len(entries), root, counts)
    return DatasetCatalog(root.name, root, [class_dirs[i] for i in used.tolist()],
                          np.array(paths, dtype=str)[keep], np.searchsorted(used, dir_rows), keypoints[keep],
                          skipped)


@dataclass
class SplitFile:
    seed: int
    fraction: float
    train: list[str]
    test: list[str]


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
    for class_id, class_name in enumerate(catalog.classes):
        paths = catalog.paths[catalog.labels == class_id].tolist()
        n = len(paths)
        if n == 1:
            logger.warning("class %s has a single sample; assigning it to train", class_name)
            train.extend(paths)
            continue
        rng = make_rng(STREAM_SPLIT, seed, class_id)
        order = rng.permutation(n)
        k = _train_count(train_fraction, n)
        train.extend(paths[i] for i in order[:k])
        test.extend(paths[i] for i in order[k:])
    return SplitFile(seed, train_fraction, sorted(train), sorted(test))


def save_split(split: SplitFile, path) -> None:
    write_document(path, asdict(split))


def _strings(value) -> bool:
    return type(value) is list and all(type(v) is str for v in value)


# Each split-file field and the rule its value must meet; bool is refused where a number belongs.
_SPLIT_FIELDS = {
    "seed": ("a non-negative integer", is_seed),
    "fraction": ("a number in (0, 1)", lambda v: type(v) is float and 0.0 < v < 1.0),
    "train": ("a list of strings", _strings),
    "test": ("a list of strings", _strings),
}


def load_split(path, catalog: DatasetCatalog) -> SplitFile:
    """Read a split file and validate it against the catalog."""
    doc = read_document(path, InvalidSplit)
    if not isinstance(doc, dict):
        raise InvalidSplit(f"{path}: a split file must hold a JSON object")
    for name, (rule, valid) in _SPLIT_FIELDS.items():
        if name not in doc:
            raise InvalidSplit(f"{path}: missing field {name!r}")
        if not valid(doc[name]):
            raise InvalidSplit(f"{path}: {name} must be {rule}, got {doc[name]!r:.60}")
    for side in ("train", "test"):
        repeated = [p for p, n in Counter(doc[side]).items() if n > 1]
        if repeated:
            raise InvalidSplit(f"{path}: {side} lists {repeated[0]} more than once")
    split = SplitFile(doc["seed"], doc["fraction"], doc["train"], doc["test"])
    train_set, test_set = set(split.train), set(split.test)
    overlap = train_set & test_set
    if overlap:
        raise InvalidSplit(f"{path}: train/test overlap on {sorted(overlap)[:3]} ...")
    catalog_paths = set(catalog.paths.tolist())
    covered = train_set | test_set
    missing = catalog_paths - covered
    extra = covered - catalog_paths
    stale = sorted((p, reason) for p, reason in catalog.skipped if p in extra)
    if stale:
        raise InvalidSplit(f"{path}: split lists {stale[0][0]}, which the catalog skipped ({stale[0][1]})")
    if missing or extra:
        raise InvalidSplit(
            f"{path}: split does not cover the catalog "
            f"({len(missing)} missing, {len(extra)} unknown)"
        )
    return split


def split_pool(catalog: DatasetCatalog, split: SplitFile, side: str) -> DatasetCatalog:
    """The rows of one side of a split, in catalog order, as a catalog of the same classes."""
    if side not in ("train", "test"):
        raise ValueError("side must be 'train' or 'test'")
    wanted = set(split.train if side == "train" else split.test)
    rows = [i for i, path in enumerate(catalog.paths.tolist()) if path in wanted]
    return replace(catalog, paths=catalog.paths[rows], labels=catalog.labels[rows], keypoints=catalog.keypoints[rows])


def eligible_pool(labels: np.ndarray, k_shot: int, q_query: int, n_way: int) -> dict[int, list[int]]:
    """Row lists, in row order, of the classes with at least K+Q rows; raises if fewer than ``n_way``."""
    if k_shot < 1 or q_query < 1:
        raise ValueError("k_shot and q_query must be >= 1")
    labels = np.asarray(labels)
    eligible = np.flatnonzero(np.bincount(labels) >= k_shot + q_query).tolist()
    if len(eligible) < n_way:
        raise InsufficientClasses(
            f"{len(eligible)} classes have >= {k_shot + q_query} samples, need {n_way}"
        )
    return {c: np.flatnonzero(labels == c).tolist() for c in eligible}
