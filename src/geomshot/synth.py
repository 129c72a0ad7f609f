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
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .geometry import CHAIN_BASES, NUM_KEYPOINTS, apply_transform, sample_similarity
from .npyio import write_keypoints
from .rng import STREAM_SYNTH_DICT, STREAM_SYNTH_SAMPLE, make_rng

# Link lengths: wrist->base, then the three phalanges.
LINK_LENGTHS = (1.0, 0.65, 0.45, 0.3)

FLEXION_RANGE = (0.35 * np.pi, 0.95 * np.pi)
GAP_RANGE = (0.15, 0.55)
_Z = np.array([0.0, 0.0, 1.0])


@dataclass
class SynthSpec:
    n_classes: int = 10
    per_class: int = 200
    noise: float = 0.05
    transforms: bool = True
    seed: int = 7
    scale_range: tuple[float, float] = (0.1, 10.0)
    translate_max: float = 10.0
    name: str = "synth"

    def __post_init__(self):
        if self.n_classes < 2 or self.per_class < 1:
            raise ValueError("need at least 2 classes and 1 sample per class")
        if self.noise < 0:
            raise ValueError("noise must be >= 0")


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


def build_hand(params: np.ndarray, lengths: tuple[float, ...] = LINK_LENGTHS) -> np.ndarray:
    """Forward kinematics: realize the parameters as (21, 3) keypoints."""
    flexion, gaps = params[:15], params[15:]
    base_angles = np.concatenate([[0.0], np.cumsum(gaps)])
    points = np.zeros((NUM_KEYPOINTS, 3))
    for f, base in enumerate(CHAIN_BASES):
        phi = base_angles[f]
        d = np.array([np.cos(phi), np.sin(phi), 0.0])
        plane_normal = np.cross(d, _Z)
        prev = d
        pos = lengths[0] * d
        points[base] = pos
        for j in range(3):
            theta = flexion[3 * f + j]
            out = -np.cos(theta) * prev + np.sin(theta) * np.cross(plane_normal, prev)
            pos = pos + lengths[j + 1] * out
            points[base + 1 + j] = pos
            prev = out
    return points


def sample_hand(spec: SynthSpec, params: np.ndarray, class_id: int, sample_idx: int) -> np.ndarray:
    """One noisy (optionally transformed) realization of a class."""
    rng = make_rng(STREAM_SYNTH_SAMPLE, spec.seed, class_id, sample_idx)
    noisy = params + rng.normal(0.0, spec.noise, size=params.shape) if spec.noise > 0 else params.copy()
    noisy = noisy.copy()
    noisy[:15] = np.clip(noisy[:15], 0.05, np.pi)
    noisy[15:] = np.clip(noisy[15:], 0.02, 0.7)
    hand = build_hand(noisy)
    if spec.transforms:
        hand = apply_transform(hand, sample_similarity(rng, spec.scale_range, spec.translate_max))
    return hand


def generate_corpus(spec: SynthSpec, out_root) -> dict:
    """Write the corpus tree <out>/<class_XX>/sNNNN.npy plus corpus_meta.json."""
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    dictionary = class_dictionary(spec)
    for c in range(spec.n_classes):
        class_dir = out_root / f"class_{c:02d}"
        class_dir.mkdir(exist_ok=True)
        for j in range(spec.per_class):
            write_keypoints(class_dir / f"s{j:04d}.npy", sample_hand(spec, dictionary[c], c, j))
    meta = {
        "schema_version": 1,
        "spec": asdict(spec),
        "class_names": [f"class_{c:02d}" for c in range(spec.n_classes)],
        "canonical_params": dictionary.tolist(),
        "canonical_angles": [canonical_angles(dictionary[c]).tolist() for c in range(spec.n_classes)],
    }
    (out_root / "corpus_meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return meta
