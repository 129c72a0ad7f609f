"""Hand-keypoint geometry: normalization, inter-joint angles, transforms.

A hand is a float64 array of shape (21, 3); row 0 is the wrist, and the
five fingers form four-joint chains Thumb 1-4, Index 5-8, Middle 9-12,
Ring 13-16, Pinky 17-20. The math works on stacks: ``featurize`` maps
(N, 21, 3) to an (N, D) matrix plus an (N,) degenerate mask, and
``apply_transforms`` gives each hand of a stack its own similarity
transform from rotation, scale and translation arrays. The one-hand
functions (``joint_angles``, ``apply_transform``, ``SimilarityTransform``)
are one-row calls into them, so a hand gets the same bits alone or in a
stack.

Three feature representations are derived from a hand:

* ``raw`` (63-D): wrist-centred, scale-normalized keypoints flattened in
  row-major order. Invariant to translation and isotropic scale, but NOT
  to rotation.
* ``angle`` (20-D): inter-joint angles over 20 fixed anatomical
  (parent, pivot, child) triplets, computed from the *original* keypoints.
  Invariant to any similarity transform (rotation + scale + translation).
* ``raw_angle`` (83-D): concatenation [raw; angle].

The triplets are 15 flexion triplets (every chain joint with both a parent
and a child) plus 5 wrist-pivoted abduction triplets over cyclically
adjacent chain bases, which add finger-spread information while preserving
the similarity invariance (any angle of displacement differences is
invariant). They are kept as three index arrays, ``TRIPLET_PARENT``,
``TRIPLET_PIVOT`` and ``TRIPLET_CHILD``.
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

REPRESENTATIONS = ("raw", "angle", "raw_angle")
FEATURE_DIMS = {"raw": 63, "angle": 20, "raw_angle": 83}

# A triplet whose shorter displacement is at most this fraction of its longer one is degenerate, at any scale.
DEGENERATE_NORM = 1e-9
# Below this max pairwise distance a hand cannot be scale-normalized.
DEGENERATE_DISTANCE = 1e-12
MAX_COORDINATE = 1e153  # the largest |offset| from the wrist: a squared displacement, <= 12 * its square, is finite
# random_transform's scale range and translation bound, and the synthetic corpus defaults.
SCALE_RANGE = (0.1, 10.0)
TRANSLATE_MAX = 10.0


# The 20 angle triplets: 15 flexion, chain by chain (a base's parent is the wrist), then 5 abduction.
_CHAINS = np.array([(WRIST, base, base + 1, base + 2, base + 3) for base in CHAIN_BASES])
TRIPLET_PARENT = np.concatenate([_CHAINS[:, 0:3].ravel(), np.roll(CHAIN_BASES, 1)])
TRIPLET_PIVOT = np.concatenate([_CHAINS[:, 1:4].ravel(), np.full(len(CHAIN_BASES), WRIST)])
TRIPLET_CHILD = np.concatenate([_CHAINS[:, 2:5].ravel(), CHAIN_BASES])


@dataclass
class FeatureVector:
    """The angle features of one hand.

    ``degenerate`` is set when any angle triplet had a (near-)zero
    displacement; the affected angles are reported as 0 instead of
    failing, since landmark exports occasionally contain duplicated
    points.
    """

    values: np.ndarray
    degenerate: bool = False


@dataclass(frozen=True)
class SimilarityTransform:
    """p -> scale * rotation @ p + translation; checked once, and stored as read-only float64 copies."""

    rotation: np.ndarray
    scale: float
    translation: np.ndarray

    def __post_init__(self):
        rotation, scale, translation = check_similarities(self.rotation, self.scale, self.translation)
        for name, value in (("rotation", rotation.copy()), ("translation", translation.copy())):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "scale", float(scale))


def check_similarities(rotation, scale, translation) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check (..., 3, 3) rotations, (...) scales and (..., 3) translations; return them as float64.

    Every entry must be finite and every scale positive; each rotation orthogonal with determinant +1, within 1e-10.
    """
    rotation, scale, translation = (np.asarray(a, dtype=np.float64) for a in (rotation, scale, translation))
    if rotation.shape != scale.shape + (3, 3) or translation.shape != scale.shape + (3,):
        raise ShapeError("rotation must be 3x3 and translation length 3")
    if not all(np.isfinite(a).all() for a in (rotation, scale, translation)):
        raise ShapeError("transform entries must be finite")
    if scale.min(initial=np.inf) <= 0:
        raise ShapeError("scale must be positive")
    orthogonality = np.abs(rotation.swapaxes(-1, -2) @ rotation - np.eye(3)).max(initial=0.0)
    determinant = np.abs(np.linalg.det(rotation) - 1.0).max(initial=0.0)
    if orthogonality > 1e-10:
        raise ShapeError(f"rotation is not orthogonal (max error {orthogonality:.2e})")
    if determinant > 1e-10:
        raise ShapeError("rotation must have determinant +1")
    return rotation, scale, translation


_EXPECTED_SHAPE = {None: "(..., 21, 3)", 2: "(21, 3)", 3: "(N, 21, 3)"}


def _check_hands(points, ndim: int | None = None) -> np.ndarray:
    """Hands as float64 of shape (..., 21, 3), with exactly ``ndim`` axes if given."""
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim < 2 or arr.shape[-2:] != (NUM_KEYPOINTS, 3) or ndim not in (None, arr.ndim):
        raise InvalidKeypoints(f"expected shape {_EXPECTED_SHAPE[ndim]}, got {arr.shape}")
    if not np.abs(arr).max(initial=0.0) <= MAX_COORDINATE / 2:  # within half the bound every offset is within it
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf (NaN) and an overflow (inf) fail the test
            if not np.abs(arr - arr[..., WRIST : WRIST + 1, :]).max() <= MAX_COORDINATE:
                raise InvalidKeypoints(f"keypoints must be finite and within {MAX_COORDINATE:g} of the wrist")
    return arr


def validate_keypoints(points: np.ndarray) -> np.ndarray:
    """Check shape (21, 3) and that every offset from the wrist is at most MAX_COORDINATE; return a float64 copy."""
    return _check_hands(points, ndim=2).copy()


def wrist_center(points: np.ndarray) -> np.ndarray:
    """Subtract the wrist (row 0) from every keypoint of each (..., 21, 3) hand."""
    h = _check_hands(points)
    return h - h[..., WRIST : WRIST + 1, :]


def max_pairwise_distance(points: np.ndarray) -> np.ndarray:
    """Largest keypoint-to-keypoint distance of each hand: (..., 21, 3) -> (...).

    Scans one keypoint against all 21 at a time, so the temporaries stay
    the size of the input. The square root is taken after the maximum,
    which gives the same value since the rounded sqrt is monotone.
    """
    points = np.asarray(points, dtype=np.float64)
    squared = np.zeros(points.shape[:-2])
    for i in range(NUM_KEYPOINTS):
        diffs = points - points[..., i : i + 1, :]
        squared = np.maximum(squared, (diffs**2).sum(axis=-1).max(axis=-1))
    return np.sqrt(squared)


def scale_normalize(points: np.ndarray) -> np.ndarray:
    """Divide the keypoints of each (..., 21, 3) hand by its max pairwise distance.

    Raises ``DegenerateHand`` if any hand's extent is below
    ``DEGENERATE_DISTANCE``; its ``rows`` lists the offending hands as
    indices into the flattened leading dimensions.
    """
    h = _check_hands(points)
    extent = max_pairwise_distance(h)
    bad = np.flatnonzero(extent < DEGENERATE_DISTANCE)
    if bad.size:
        raise DegenerateHand(
            f"max pairwise distance {np.ravel(extent)[bad[0]]:.3e} below {DEGENERATE_DISTANCE:.0e}",
            rows=bad.tolist(),
        )
    return h / extent[..., None, None]


def degenerate_hands(points: np.ndarray) -> np.ndarray:
    """(N,) mask of the hands of an (N, 21, 3) stack that ``featurize`` cannot scale-normalize.

    Two keypoints ``2 * DEGENERATE_DISTANCE`` apart on one axis stay more
    than ``DEGENERATE_DISTANCE`` apart after wrist-centring rounds, so only
    the hands with a smaller coordinate range on every axis take
    ``scale_normalize``'s exact test.
    """
    h = _check_hands(points, ndim=3)
    near = np.flatnonzero((h.max(axis=1) - h.min(axis=1)).max(axis=1) < 2 * DEGENERATE_DISTANCE)
    mask = np.zeros(len(h), dtype=bool)
    mask[near] = max_pairwise_distance(wrist_center(h[near])) < DEGENERATE_DISTANCE
    return mask


def _angle_rows(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    u = h[:, TRIPLET_PARENT] - h[:, TRIPLET_PIVOT]
    v = h[:, TRIPLET_CHILD] - h[:, TRIPLET_PIVOT]
    nu = np.linalg.norm(u, axis=2)
    nv = np.linalg.norm(v, axis=2)
    bad = np.minimum(nu, nv) <= DEGENERATE_NORM * np.maximum(nu, nv)
    denom = np.where(bad, 1.0, nu * nv)
    cos = np.clip((u * v).sum(axis=2) / denom, -1.0, 1.0)
    angles = np.arccos(cos)
    angles[bad] = 0.0
    return angles, bad.any(axis=1)


def featurize(points: np.ndarray, kind: str, normalize: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Features of a stack of hands: (N, 21, 3) -> (N, D) matrix and (N,) degenerate mask.

    ``kind`` is one of ``REPRESENTATIONS``; ``normalize`` applies to the
    raw part only. The mask marks hands with a degenerate angle triplet,
    whose angles are reported as 0; it is all False for ``raw``. A hand
    that cannot be scale-normalized raises ``DegenerateHand`` whose
    ``rows`` are the offending row indices.
    """
    if kind not in FEATURE_DIMS:
        raise ShapeError(f"unknown representation {kind!r}")
    h = _check_hands(points, ndim=3)
    parts = []
    degenerate = np.zeros(len(h), dtype=bool)
    if kind != "angle":
        raw = scale_normalize(wrist_center(h)) if normalize else h
        parts.append(raw.reshape(len(h), 3 * NUM_KEYPOINTS))
    if kind != "raw":
        angles, degenerate = _angle_rows(h)
        parts.append(angles)
    return np.concatenate(parts, axis=1) if len(parts) > 1 else parts[0], degenerate


def joint_angles(points: np.ndarray) -> FeatureVector:
    """The 20 inter-joint angles, in triplet order, in radians.

    Computed from the original (unnormalized) keypoints; the result is
    identical whether or not wrist-centring / scale normalization was
    applied first. Each angle is arccos(clamp(u.v / (|u||v|), -1, 1))
    with u, v the displacements from the pivot to its parent and child.
    A triplet whose shorter displacement is at most ``DEGENERATE_NORM``
    times its longer one yields angle 0 and sets the ``degenerate`` flag.
    """
    X, degenerate = featurize(validate_keypoints(points)[None], "angle")
    return FeatureVector(X[0], degenerate=bool(degenerate[0]))


def apply_transforms(points: np.ndarray, rotation, scale, translation) -> np.ndarray:
    """Map the keypoints p of hand i to scale[i] * rotation[i] @ p + translation[i]: (N, 21, 3) -> (N, 21, 3).

    The (N, 3, 3), (N,) and (N, 3) transform arrays pass ``check_similarities``.
    """
    h = _check_hands(points, ndim=3)
    rotation, scale, translation = check_similarities(rotation, scale, translation)
    if scale.shape != (len(h),):
        raise ShapeError(f"{scale.shape} transforms for {len(h)} hands")
    return _map_similarities(h, rotation, scale, translation)


def apply_transform(points: np.ndarray, transform: SimilarityTransform) -> np.ndarray:
    """Map every keypoint p to scale * R @ p + t."""
    t = transform  # checked when it was constructed
    return _map_similarities(validate_keypoints(points)[None], t.rotation[None], np.array([t.scale]),
                             t.translation[None])[0]


def _map_similarities(h: np.ndarray, rotation: np.ndarray, scale: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """``scale[i] * h[i] @ rotation[i]ᵀ + translation[i]`` for checked (N, 21, 3), (N, 3, 3), (N,), (N, 3) arrays."""
    return scale[:, None, None] * h @ rotation.swapaxes(1, 2) + translation[:, None, :]


def rotation_from_quaternion(q: np.ndarray) -> np.ndarray:
    """Rotation matrices of unit quaternions (w, x, y, z): (..., 4) -> (..., 3, 3)."""
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = q.T
    return np.array([
        1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y),
        2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
        2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y),
    ]).T.reshape(q.shape[:-1] + (3, 3))


def draw_similarity(rng: np.random.Generator, log_scale_range: tuple[float, float], translate_max: float):
    """Draw from ``rng``, in this order, a unit quaternion (4,), a scale and a translation (3,)."""
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    scale = float(np.exp(rng.uniform(*log_scale_range)))
    return q, scale, rng.uniform(-translate_max, translate_max, size=3)


def random_transform(rng_seed: int) -> SimilarityTransform:
    """Random similarity transform drawn by ``draw_similarity`` from the generator of ``rng_seed``.

    Rotation is uniform over SO(3) (normalized quaternion from 4 standard
    normals), scale is log-uniform over ``SCALE_RANGE`` and translation is
    uniform in the cube [-TRANSLATE_MAX, TRANSLATE_MAX]^3.
    """
    log_scale_range = [np.log(bound) for bound in SCALE_RANGE]
    q, scale, translation = draw_similarity(make_rng(rng_seed), log_scale_range, TRANSLATE_MAX)
    return SimilarityTransform(rotation_from_quaternion(q), scale, translation)
