"""Bridges dataset pools to dense feature matrices for episodes."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataio import Sample
from .errors import DegenerateHand
from .geometry import NUM_KEYPOINTS, featurize


@dataclass
class FeaturePool:
    """Feature matrix plus per-class row indices.

    Row order is deterministic: ascending class id, catalog sample order
    within each class, so episode composition depends only on the catalog
    and the episode seed.
    """

    X: np.ndarray
    pool: dict[int, list[int]]
    paths: list[str]
    representation: str
    normalize: bool
    class_names: dict[int, str] | None = None

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def build_feature_pool(
    sample_pool: dict[int, list[Sample]],
    root,
    representation: str,
    normalize: bool = True,
    class_names: dict[int, str] | None = None,
) -> FeaturePool:
    """Load every sample of the pool and featurize them in one stacked call.

    A hand that cannot be scale-normalized (``raw``/``raw_angle`` with
    ``normalize``) raises ``DegenerateHand`` naming its sample path; a
    degenerate angle triplet gives 0 for that angle, as in ``featurize``.
    """
    root = Path(root)
    hands: list[np.ndarray] = []
    paths: list[str] = []
    index_pool: dict[int, list[int]] = {}
    for class_id in sorted(sample_pool):
        start = len(hands)
        for sample in sample_pool[class_id]:
            hands.append(sample.load(root))
            paths.append(sample.path)
        index_pool[class_id] = list(range(start, len(hands)))
    stack = np.array(hands) if hands else np.empty((0, NUM_KEYPOINTS, 3))
    try:
        X, _ = featurize(stack, representation, normalize=normalize)
    except DegenerateHand as e:
        raise DegenerateHand(f"{paths[e.rows[0]]}: {e}", rows=e.rows) from None
    return FeaturePool(X, index_pool, paths, representation, normalize, class_names)
