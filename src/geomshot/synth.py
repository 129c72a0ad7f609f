"""Synthetic hand corpora built by forward kinematics.

Each class owns a canonical parameter set: 15 flexion angles (one per
chain joint with a parent and child) and 4 abduction gaps between
adjacent finger base directions. A hand is realized by placing the five
chain bases in the xy-plane at cumulative gap angles and unrolling each
chain in its own bending plane, so the measured inter-joint angles of a
noise-free sample equal the canonical targets up to rounding. Samples add
Gaussian angular noise and, optionally, a per-sample random similarity
transform.

All draws are deterministic functions of (seed, class, sample index), so
a corpus tree regenerated with the same parameters is byte-identical.
Each sample draws from its own stream (noise, quaternion, log-scale,
translation), but the kinematics, rotations and transforms run once per
class on (per_class, ...) stacks, with the same elementwise operations
as for one hand, so the bytes do not depend on how many hands are built
together.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .config import write_document
from .errors import InvalidConfig
from .geometry import (NUM_KEYPOINTS, SCALE_RANGE, TRANSLATE_MAX, apply_transforms, draw_similarity,
                       rotation_from_quaternion)
from .npyio import write_keypoints
from .rng import STREAM_SYNTH_DICT, STREAM_SYNTH_SAMPLE, make_rng
from .schema import check_fields, setting

# Link lengths: wrist->base, then the three phalanges.
LINK_LENGTHS = (1.0, 0.65, 0.45, 0.3)

FLEXION_RANGE = (0.35 * np.pi, 0.95 * np.pi)
GAP_RANGE = (0.15, 0.55)
_Z = np.array([0.0, 0.0, 1.0])


@dataclass
class SynthSpec:
    n_classes: int = setting(10, ge=2)
    per_class: int = setting(200, ge=1)
    noise: float = setting(0.05, ge=0)
    transforms: bool = setting(True)
    seed: int = setting(7, ge=0)
    scale_range: tuple[float, float] = setting(SCALE_RANGE, gt=0)
    translate_max: float = setting(TRANSLATE_MAX, ge=0)
    name: str = setting("synth")

    def __post_init__(self):
        check_fields(self, "synth")
        if self.scale_range[0] > self.scale_range[1]:
            raise InvalidConfig(f"synth.scale_range must have min <= max, got {self.scale_range!r}")


def class_dictionary(spec: SynthSpec) -> np.ndarray:
    """(n_classes, 19) canonical parameters: 15 flexions then 4 gaps."""
    rng = make_rng(STREAM_SYNTH_DICT, spec.seed)
    flexion = rng.uniform(*FLEXION_RANGE, size=(spec.n_classes, 15))
    gaps = rng.uniform(*GAP_RANGE, size=(spec.n_classes, 4))
    return np.hstack([flexion, gaps])


def canonical_angles(params: np.ndarray) -> np.ndarray:
    """The 20 angle targets (triplet-table order) realized by the params."""
    flexion, gaps = params[:15], params[15:]
    return np.concatenate([flexion, [gaps.sum()], gaps])


def build_hand(params: np.ndarray) -> np.ndarray:
    """Forward kinematics: realize (..., 19) parameters as (..., 21, 3) keypoints.

    The five chains unroll together with the same elementwise operations,
    so each row of a stack equals its own one-hand call bit for bit.
    """
    params = np.asarray(params, dtype=np.float64)
    lead = params.shape[:-1]
    flexion, gaps = params[..., :15].reshape(lead + (5, 3)), params[..., 15:]
    base_angles = np.concatenate([np.zeros_like(gaps[..., :1]), np.cumsum(gaps, axis=-1)], axis=-1)
    d = np.stack([np.cos(base_angles), np.sin(base_angles), np.zeros_like(base_angles)], axis=-1)
    plane_normal = np.cross(d, _Z)
    prev = d
    pos = LINK_LENGTHS[0] * d
    chains = [pos]
    for j in range(3):
        theta = flexion[..., j, None]
        out = -np.cos(theta) * prev + np.sin(theta) * np.cross(plane_normal, prev)
        pos = pos + LINK_LENGTHS[j + 1] * out
        chains.append(pos)
        prev = out
    points = np.zeros(lead + (NUM_KEYPOINTS, 3))  # wrist at the origin; chain f fills rows 1+4f..4+4f
    points[..., 1:, :] = np.stack(chains, axis=-2).reshape(lead + (NUM_KEYPOINTS - 1, 3))
    return points


def sample_hand(spec: SynthSpec, params: np.ndarray, class_id: int) -> np.ndarray:
    """All ``spec.per_class`` noisy (optionally transformed) realizations of a class.

    Returns (per_class, 21, 3). Sample j draws from its own stream
    ``make_rng(STREAM_SYNTH_SAMPLE, seed, class_id, j)``: the angular
    noise, then ``draw_similarity``'s quaternion, log-scale and translation.
    Only the draws run per sample; the kinematics, rotations, their checks
    and the transforms run once on the whole class.
    """
    n = spec.per_class
    noisy = np.tile(np.asarray(params, dtype=np.float64), (n, 1))
    q, scale, translation = np.empty((n, 4)), np.empty(n), np.empty((n, 3))
    log_scale_range = [np.log(bound) for bound in spec.scale_range]
    for j in range(n):
        rng = make_rng(STREAM_SYNTH_SAMPLE, spec.seed, class_id, j)
        if spec.noise > 0:
            noisy[j] += rng.normal(0.0, spec.noise, size=noisy.shape[1])
        if spec.transforms:
            q[j], scale[j], translation[j] = draw_similarity(rng, log_scale_range, spec.translate_max)
    noisy[:, :15] = np.clip(noisy[:, :15], 0.05, np.pi)
    noisy[:, 15:] = np.clip(noisy[:, 15:], 0.02, 0.7)
    hands = build_hand(noisy)
    return apply_transforms(hands, rotation_from_quaternion(q), scale, translation) if spec.transforms else hands


def generate_corpus(spec: SynthSpec, out_root) -> dict:
    """Write the corpus tree <out>/<class_XX>/sNNNN.npy plus corpus_meta.json (whole or absent)."""
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    dictionary = class_dictionary(spec)
    for c in range(spec.n_classes):
        class_dir = out_root / f"class_{c:02d}"
        class_dir.mkdir(exist_ok=True)
        for j, hand in enumerate(sample_hand(spec, dictionary[c], c)):
            write_keypoints(f"{class_dir}/s{j:04d}.npy", hand)
    meta = {
        "schema_version": 1,
        "spec": asdict(spec),
        "class_names": [f"class_{c:02d}" for c in range(spec.n_classes)],
        "canonical_params": dictionary.tolist(),
        "canonical_angles": [canonical_angles(dictionary[c]).tolist() for c in range(spec.n_classes)],
    }
    write_document(out_root / "corpus_meta.json", meta)
    return meta
