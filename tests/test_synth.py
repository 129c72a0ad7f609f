import hashlib
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from conftest import write_half_then_fail
from geomshot import synth
from geomshot.geometry import CHAIN_BASES, draw_similarity, joint_angles, rotation_from_quaternion
from geomshot.npyio import load_keypoints
from geomshot.rng import STREAM_SYNTH_SAMPLE, make_rng
from geomshot.synth import (
    LINK_LENGTHS,
    SynthSpec,
    build_hand,
    canonical_angles,
    class_dictionary,
    generate_corpus,
    sample_hand,
)


def reference_build_hand(params, lengths=LINK_LENGTHS):
    """The one-hand forward-kinematics loop the stacked ``build_hand`` replaced."""
    z = np.array([0.0, 0.0, 1.0])
    flexion, gaps = params[:15], params[15:]
    base_angles = np.concatenate([[0.0], np.cumsum(gaps)])
    points = np.zeros((21, 3))
    for f, base in enumerate(CHAIN_BASES):
        phi = base_angles[f]
        d = np.array([np.cos(phi), np.sin(phi), 0.0])
        plane_normal = np.cross(d, z)
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


def reference_sample(spec, params, class_id, sample_idx):
    """One sample drawn and built on its own, as the per-sample generator did."""
    rng = make_rng(STREAM_SYNTH_SAMPLE, spec.seed, class_id, sample_idx)
    noisy = params + rng.normal(0.0, spec.noise, size=params.shape) if spec.noise > 0 else params.copy()
    noisy[:15] = np.clip(noisy[:15], 0.05, np.pi)
    noisy[15:] = np.clip(noisy[15:], 0.02, 0.7)
    hand = reference_build_hand(noisy)
    if spec.transforms:
        q, scale, translation = draw_similarity(rng, [np.log(b) for b in spec.scale_range], spec.translate_max)
        hand = scale * hand @ rotation_from_quaternion(q).T + translation
    return hand


def tree_hash(root):
    digest = hashlib.sha256()
    for p in sorted(root.rglob("*.npy")):
        digest.update(p.relative_to(root).as_posix().encode())
        digest.update(p.read_bytes())
    return digest.hexdigest()


def test_generated_files_decode(tmp_path):
    spec = SynthSpec(n_classes=3, per_class=4, seed=1)
    generate_corpus(spec, tmp_path)
    files = sorted(tmp_path.rglob("*.npy"))
    assert len(files) == 12
    for f in files:
        assert load_keypoints(f).shape == (21, 3)


def test_same_seed_identical_tree(tmp_path):
    spec = SynthSpec(n_classes=3, per_class=5, seed=2)
    a, b = tmp_path / "a", tmp_path / "b"
    generate_corpus(spec, a)
    generate_corpus(spec, b)
    assert tree_hash(a) == tree_hash(b)
    assert (a / "corpus_meta.json").read_bytes() == (b / "corpus_meta.json").read_bytes()


def test_a_failed_metadata_write_leaves_the_old_metadata_whole(tmp_path, monkeypatch):
    spec = SynthSpec(n_classes=2, per_class=3, seed=2)
    generate_corpus(spec, tmp_path)
    old = (tmp_path / "corpus_meta.json").read_bytes()
    monkeypatch.setattr(Path, "write_text", write_half_then_fail)
    with pytest.raises(OSError, match="No space left on device"):
        generate_corpus(spec, tmp_path)
    assert (tmp_path / "corpus_meta.json").read_bytes() == old
    assert list(tmp_path.glob("*.tmp")) == []


def test_different_seed_different_tree(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    generate_corpus(SynthSpec(n_classes=3, per_class=5, seed=2), a)
    generate_corpus(SynthSpec(n_classes=3, per_class=5, seed=3), b)
    assert tree_hash(a) != tree_hash(b)


def test_noise_free_samples_realize_canonical_angles():
    # oracle: the forward-kinematics construction itself
    spec = SynthSpec(n_classes=5, per_class=1, noise=0.0, transforms=False, seed=4)
    dictionary = class_dictionary(spec)
    for c in range(5):
        hand = sample_hand(spec, dictionary[c], c)[0]
        measured = joint_angles(hand).values
        targets = canonical_angles(dictionary[c])
        assert np.abs(measured[:15] - targets[:15]).max() <= 1e-6
        assert np.abs(measured[15:] - targets[15:]).max() <= 1e-6


def test_transformed_samples_keep_angles():
    spec = SynthSpec(n_classes=4, per_class=1, noise=0.0, transforms=True, seed=5)
    dictionary = class_dictionary(spec)
    for c in range(4):
        hand = sample_hand(spec, dictionary[c], c)[0]
        assert np.abs(joint_angles(hand).values - canonical_angles(dictionary[c])).max() <= 1e-9


def test_noise_perturbs_angles_moderately():
    spec = SynthSpec(n_classes=2, per_class=1, noise=0.05, transforms=False, seed=6)
    dictionary = class_dictionary(spec)
    hand = sample_hand(spec, dictionary[0], 0)[0]
    dev = np.abs(joint_angles(hand).values[:15] - canonical_angles(dictionary[0])[:15])
    assert dev.max() > 0.0
    assert dev.max() < 0.5  # a few sigma

    # abduction entries include the summed spread: allow wider but bounded deviation
    dev_ab = np.abs(joint_angles(hand).values[15:] - canonical_angles(dictionary[0])[15:])
    assert dev_ab.max() < 1.0


def test_dictionaries_disjoint_across_seeds():
    a = class_dictionary(SynthSpec(seed=100))
    b = class_dictionary(SynthSpec(seed=200))
    assert not np.allclose(a, b)


def test_hand_keypoints_distinct():
    spec = SynthSpec(seed=7)
    hand = build_hand(class_dictionary(spec)[0])
    diffs = hand[:, None, :] - hand[None, :, :]
    dist = np.sqrt((diffs**2).sum(axis=2))
    np.fill_diagonal(dist, np.inf)
    assert dist.min() > 1e-3


def test_stacked_build_hand_matches_one_hand_loop_bitwise():
    rng = np.random.default_rng(0)
    params = np.hstack([rng.uniform(0.05, np.pi, size=(64, 15)), rng.uniform(0.02, 0.7, size=(64, 4))])
    params[3, 15:] = 0.0  # coincident chain bases
    params[7, :15] = np.pi  # every phalanx folded back
    stacked = build_hand(params)
    assert stacked.shape == (64, 21, 3)
    expected = np.array([reference_build_hand(p) for p in params])
    assert np.array_equal(stacked, expected)
    assert np.array_equal(build_hand(params[5]), expected[5])
    assert build_hand(params.reshape(8, 8, 19)).shape == (8, 8, 21, 3)


@pytest.mark.parametrize("transforms", [True, False])
@pytest.mark.parametrize("noise", [0.0, 0.4])
def test_class_batch_matches_per_sample_draws_bitwise(transforms, noise):
    spec = SynthSpec(n_classes=2, per_class=9, noise=noise, transforms=transforms, seed=31)
    params = class_dictionary(spec)[1]
    batch = sample_hand(spec, params, 1)
    assert batch.shape == (9, 21, 3)
    assert np.array_equal(batch, np.array([reference_sample(spec, params, 1, j) for j in range(9)]))


# sha256 over every file (relative path, then bytes) of three small trees,
# as written by the per-sample generator this batched one replaced.
PINNED_TREES = [
    (SynthSpec(n_classes=3, per_class=4, noise=0.3, transforms=True, seed=21),
     "a7bb7fb17b0e57518d833cbb24992f8b6e4b9b7e6c4a13677161c7194c67f04a"),
    (SynthSpec(n_classes=3, per_class=4, noise=0.3, transforms=False, seed=22),
     "4b9088b48bcb1e2dfc80446526bfd2deaf49dbba8cc3f4378d70d8bed58de8db"),
    (SynthSpec(n_classes=3, per_class=4, noise=0.0, transforms=True, seed=23),
     "e3600d0a21822f88911bdadba23ba96608ba06e54c776bf1596c172ba902b485"),
]


@pytest.mark.parametrize("spec, digest", PINNED_TREES, ids=["transforms-on", "transforms-off", "noise-zero"])
def test_tree_bytes_are_pinned(tmp_path, spec, digest):
    generate_corpus(spec, tmp_path)
    h = hashlib.sha256()
    for p in sorted(tmp_path.rglob("*")):
        if p.is_file():
            h.update(p.relative_to(tmp_path).as_posix().encode())
            h.update(p.read_bytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize(
    "field, value",
    [("noise", float("nan")), ("noise", float("inf")), ("noise", -0.1),
     ("scale_range", (0.0, 1.0)), ("scale_range", (-1.0, 1.0)), ("scale_range", (2.0, 1.0)),
     ("scale_range", (0.1, float("inf"))), ("scale_range", (float("nan"), 1.0)),
     ("translate_max", float("nan")), ("translate_max", float("inf")), ("translate_max", -1.0),
     ("per_class", 2.5), ("n_classes", 3.0), ("per_class", True)],
)
def test_spec_rejects_bad_parameters(tmp_path, field, value):
    with pytest.raises(ValueError, match=rf"^synth\.{field} must "):
        generate_corpus(SynthSpec(**{field: value}), tmp_path / "corpus")
    assert not (tmp_path / "corpus").exists()  # refused before generate_corpus ran


def test_generate_corpus_calls_sample_hand_per_class_and_write_keypoints_per_file(tmp_path, monkeypatch):
    # The traced ingest benchmark names both functions as spans it must see.
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("sample_hand", "write_keypoints"):
        monkeypatch.setattr(synth, name, counting(name, getattr(synth, name)))
    generate_corpus(SynthSpec(n_classes=3, per_class=5, seed=1), tmp_path)
    assert calls == {"sample_hand": 3, "write_keypoints": 15}


@pytest.mark.parametrize("seed", [-1, -(2**64) + 5, 1.5, True, "7", None])
def test_spec_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    with pytest.raises(ValueError, match=r"synth\.seed must be a non-negative integer"):
        SynthSpec(seed=seed)


def test_negative_seed_parts_are_refused_and_large_seeds_do_not_alias(tmp_path):
    for parts in ((STREAM_SYNTH_SAMPLE, -1), (1.5,), (True,), (STREAM_SYNTH_SAMPLE, 2.0), ()):
        with pytest.raises(ValueError, match="non-negative"):
            make_rng(*parts)  # a float part was once truncated: make_rng(1.5) drew make_rng(1)'s stream
    assert make_rng(np.int64(3)).integers(2**62) == make_rng(3).integers(2**62)
    top = 2**64 - 1
    # seeds below 2**64 keep their streams: SeedSequence of the same words
    expected = np.random.Generator(np.random.PCG64(np.random.SeedSequence([STREAM_SYNTH_SAMPLE, top])))
    assert make_rng(STREAM_SYNTH_SAMPLE, top).integers(2**62) == expected.integers(2**62)
    assert make_rng(2**64).integers(2**62) != make_rng(0).integers(2**62)
    generate_corpus(SynthSpec(n_classes=2, per_class=2, seed=top), tmp_path)
    assert len(list(tmp_path.rglob("*.npy"))) == 4
