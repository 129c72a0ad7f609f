"""Hand-keypoint geometry: normalization, inter-joint angles, transforms.

A hand is a float64 array of shape (21, 3); row 0 is the wrist, and the
five fingers form four-joint chains Thumb 1-4, Index 5-8, Middle 9-12,
Ring 13-16, Pinky 17-20.

Three feature representations are derived from a hand:

* ``raw`` (63-D): wrist-centred, scale-normalized keypoints flattened in
  row-major order. Invariant to translation and isotropic scale, but NOT
  to rotation.
* ``angle`` (20-D): inter-joint angles over a fixed table of anatomical
  (parent, pivot, child) triplets, computed from the *original* keypoints.
  Invariant to any similarity transform (rotation + scale + translation).
* ``raw_angle`` (83-D): concatenation [raw; angle].

The triplet table has 20 entries: 15 flexion triplets (every chain joint
with both a parent and a child) plus 5 wrist-pivoted abduction triplets
over cyclically adjacent chain bases, which add finger-spread information
while preserving the similarity invariance (any angle of displacement
differences is invariant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateHand, InvalidKeypoints, ShapeError
from .rng import make_rng

NUM_KEYPOINTS = 21
WRIST = 0

# Chain bases in anatomical order (thumb..pinky); each chain is base..base+3.
CHAIN_BASES = (1, 5, 9, 13, 17)
FINGERTIPS = (4, 8, 12, 16, 20)

REPRESENTATIONS = ("raw", "angle", "raw_angle")
FEATURE_DIMS = {"raw": 63, "angle": 20, "raw_angle": 83}

# Below this displacement norm a triplet is treated as degenerate.
DEGENERATE_NORM = 1e-9
# Below this max pairwise distance a hand cannot be scale-normalized.
DEGENERATE_DISTANCE = 1e-12


@dataclass(frozen=True)
class AngleTriplet:
    """One (parent, pivot, child) keypoint triplet defining an angle."""

    parent: int
    pivot: int
    child: int


def _build_triplet_table() -> tuple[AngleTriplet, ...]:
    triplets = []
    # 15 flexion triplets: each chain joint that has both a parent and a
    # child in the kinematic tree (the chain base's parent is the wrist).
    for base in CHAIN_BASES:
        chain = (WRIST, base, base + 1, base + 2, base + 3)
        for i in range(1, 4):
            triplets.append(AngleTriplet(chain[i - 1], chain[i], chain[i + 1]))
    # 5 abduction triplets: wrist-pivoted angles between cyclically
    # adjacent chain bases (finger spread).
    ring = (17, 1, 5, 9, 13, 17)
    for i in range(5):
        triplets.append(AngleTriplet(ring[i], WRIST, ring[i + 1]))
    return tuple(triplets)


_TRIPLETS = _build_triplet_table()
_TRIPLET_PARENT = np.array([t.parent for t in _TRIPLETS])
_TRIPLET_PIVOT = np.array([t.pivot for t in _TRIPLETS])
_TRIPLET_CHILD = np.array([t.child for t in _TRIPLETS])


def triplet_table() -> tuple[AngleTriplet, ...]:
    """The fixed 20-entry angle triplet table, flexion first then abduction."""
    return _TRIPLETS


@dataclass
class FeatureVector:
    """A feature vector with its representation tag.

    ``degenerate`` is set when any angle triplet had a (near-)zero
    displacement; the affected angles are reported as 0 instead of
    failing, since landmark exports occasionally contain duplicated
    points.
    """

    kind: str
    values: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        if self.kind not in FEATURE_DIMS:
            raise ShapeError(f"unknown feature kind {self.kind!r}")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (FEATURE_DIMS[self.kind],):
            raise ShapeError(
                f"{self.kind} features must have length {FEATURE_DIMS[self.kind]}, "
                f"got shape {self.values.shape}"
            )


@dataclass
class SimilarityTransform:
    """p -> scale * rotation @ p + translation."""

    rotation: np.ndarray
    scale: float
    translation: np.ndarray

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64)
        self.translation = np.asarray(self.translation, dtype=np.float64)
        if self.rotation.shape != (3, 3) or self.translation.shape != (3,):
            raise ShapeError("rotation must be 3x3 and translation length 3")
        if not np.all(np.isfinite(self.rotation)) or not np.isfinite(self.scale):
            raise ShapeError("transform entries must be finite")
        if self.scale <= 0:
            raise ShapeError("scale must be positive")
        err = np.abs(self.rotation.T @ self.rotation - np.eye(3)).max()
        if err > 1e-10:
            raise ShapeError(f"rotation is not orthogonal (max error {err:.2e})")
        if abs(np.linalg.det(self.rotation) - 1.0) > 1e-10:
            raise ShapeError("rotation must have determinant +1")

    def compose(self, other: "SimilarityTransform") -> "SimilarityTransform":
        """Transform equivalent to applying ``other`` first, then ``self``."""
        return SimilarityTransform(
            rotation=self.rotation @ other.rotation,
            scale=self.scale * other.scale,
            translation=self.scale * self.rotation @ other.translation + self.translation,
        )


def validate_keypoints(points: np.ndarray) -> np.ndarray:
    """Check shape (21, 3) and finiteness; return a float64 copy."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.shape != (NUM_KEYPOINTS, 3):
        raise InvalidKeypoints(f"expected shape (21, 3), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidKeypoints("keypoints contain non-finite values")
    return arr.copy()


def wrist_center(points: np.ndarray) -> np.ndarray:
    """Subtract the wrist (row 0) from every keypoint."""
    h = validate_keypoints(points)
    return h - h[WRIST]


def max_pairwise_distance(points: np.ndarray) -> float:
    # Exhaustive scan over all 210 pairs; no cleverness warranted.
    diffs = points[:, None, :] - points[None, :, :]
    return float(np.sqrt((diffs**2).sum(axis=2)).max())


def scale_normalize(points: np.ndarray) -> np.ndarray:
    """Divide all keypoints by the maximum pairwise distance."""
    h = validate_keypoints(points)
    extent = max_pairwise_distance(h)
    if extent < DEGENERATE_DISTANCE:
        raise DegenerateHand(
            f"max pairwise distance {extent:.3e} below {DEGENERATE_DISTANCE:.0e}"
        )
    return h / extent


def raw_features(points: np.ndarray, normalize: bool = True) -> FeatureVector:
    """Flatten keypoints to a 63-vector, row-major.

    With ``normalize`` (default) the keypoints are wrist-centred and
    scale-normalized first. ``normalize=False`` flattens the original
    coordinates and exists for the normalization ablation.
    """
    h = validate_keypoints(points)
    if normalize:
        h = scale_normalize(wrist_center(h))
    return FeatureVector("raw", h.reshape(-1))


def joint_angles(points: np.ndarray) -> FeatureVector:
    """The 20 inter-joint angles, in triplet-table order, in radians.

    Computed from the original (unnormalized) keypoints; the result is
    identical whether or not wrist-centring / scale normalization was
    applied first. Each angle is
    arccos(clamp(u.v / (|u||v|), -1, 1)) with u, v the displacements
    from the pivot to its parent and child. Triplets with a displacement
    norm < 1e-9 yield angle 0 and set the ``degenerate`` flag.
    """
    h = validate_keypoints(points)
    u = h[_TRIPLET_PARENT] - h[_TRIPLET_PIVOT]
    v = h[_TRIPLET_CHILD] - h[_TRIPLET_PIVOT]
    nu = np.linalg.norm(u, axis=1)
    nv = np.linalg.norm(v, axis=1)
    bad = (nu < DEGENERATE_NORM) | (nv < DEGENERATE_NORM)
    denom = np.where(bad, 1.0, nu * nv)
    cos = np.clip((u * v).sum(axis=1) / denom, -1.0, 1.0)
    angles = np.arccos(cos)
    angles[bad] = 0.0
    return FeatureVector("angle", angles, degenerate=bool(bad.any()))


def raw_angle_features(points: np.ndarray, normalize: bool = True) -> FeatureVector:
    """Concatenation [raw (0..62); angle (63..82)]."""
    raw = raw_features(points, normalize=normalize)
    ang = joint_angles(points)
    return FeatureVector(
        "raw_angle",
        np.concatenate([raw.values, ang.values]),
        degenerate=ang.degenerate,
    )


def featurize(points: np.ndarray, kind: str, normalize: bool = True) -> FeatureVector:
    """Dispatch to one of the three representations."""
    if kind == "raw":
        return raw_features(points, normalize=normalize)
    if kind == "angle":
        return joint_angles(points)
    if kind == "raw_angle":
        return raw_angle_features(points, normalize=normalize)
    raise ShapeError(f"unknown representation {kind!r}")


def apply_transform(points: np.ndarray, transform: SimilarityTransform) -> np.ndarray:
    """Map every keypoint p to scale * R @ p + t."""
    h = validate_keypoints(points)
    return transform.scale * h @ transform.rotation.T + transform.translation


def rotation_from_quaternion(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def sample_similarity(
    rng: np.random.Generator,
    scale_range: tuple[float, float] = (0.1, 10.0),
    translate_max: float = 10.0,
) -> SimilarityTransform:
    """Random similarity transform drawn from ``rng``.

    Rotation is uniform over SO(3) (normalized quaternion from 4 standard
    normals), scale is log-uniform over ``scale_range`` and translation is
    uniform in the cube [-translate_max, translate_max]^3. Draw order is
    fixed: quaternion, scale, translation.
    """
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    lo, hi = scale_range
    scale = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    translation = rng.uniform(-translate_max, translate_max, size=3)
    return SimilarityTransform(rotation_from_quaternion(q), scale, translation)


def random_transform(
    rng_seed: int,
    scale_range: tuple[float, float] = (0.1, 10.0),
    translate_max: float = 10.0,
) -> SimilarityTransform:
    """Deterministic ``sample_similarity`` for a given seed."""
    return sample_similarity(make_rng(rng_seed), scale_range, translate_max)
