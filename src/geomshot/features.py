"""Bridges catalog rows to dense feature matrices for episodes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import DatasetCatalog
from .errors import DegenerateHand
from .geometry import featurize


@dataclass
class FeaturePool:
    """Feature matrix with the class label of each row.

    Rows keep the catalog's order (class-major), so episode composition
    depends only on the labels and the episode seed.
    ``degenerate_angle_rows`` counts the rows with a degenerate angle
    triplet, whose angles are 0.
    """

    X: np.ndarray
    labels: np.ndarray
    representation: str
    normalize: bool
    degenerate_angle_rows: int = 0

    @property
    def dim(self) -> int:
        return self.X.shape[1]


def build_feature_pool(part: DatasetCatalog, root, representation: str, normalize: bool = True) -> FeaturePool:
    """Featurize every row of a catalog (or one side of it) in one call.

    The keypoints are already in ``part``; ``root`` is not read. A hand
    that cannot be scale-normalized (``raw``/``raw_angle`` with
    ``normalize``) raises ``DegenerateHand`` naming its path; a catalog
    built from files has skipped those hands already.
    """
    try:
        X, degenerate = featurize(part.keypoints, representation, normalize=normalize)
    except DegenerateHand as e:
        raise DegenerateHand(f"{part.paths[e.rows[0]]}: {e}", rows=e.rows) from None
    return FeaturePool(X, part.labels, representation, normalize, int(degenerate.sum()))
