import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geomshot.errors import DegenerateHand, InvalidKeypoints, ShapeError
from geomshot.geometry import (
    DEGENERATE_DISTANCE,
    DEGENERATE_NORM,
    FEATURE_DIMS,
    FINGERTIPS,
    REPRESENTATIONS,
    SimilarityTransform,
    TRIPLET_CHILD,
    TRIPLET_PARENT,
    TRIPLET_PIVOT,
    apply_transform,
    apply_transforms,
    check_similarities,
    degenerate_hands,
    draw_similarity,
    featurize,
    joint_angles,
    max_pairwise_distance,
    random_transform,
    rotation_errors,
    rotation_from_quaternion,
    scale_normalize,
    wrist_center,
)
from geomshot.synth import SynthSpec, build_hand, class_dictionary
from conftest import random_hand

_PIVOT_SIX = int(np.flatnonzero(TRIPLET_PIVOT == 6)[0])


def one_hand(h, kind, normalize=True):
    """``featurize`` of a one-row stack: (the hand's feature row, its degenerate flag)."""
    X, degenerate = featurize(np.asarray(h)[None], kind, normalize)
    return X[0], bool(degenerate[0])


def raw_row(h, normalize=True):
    return one_hand(h, "raw", normalize)[0]


def reference_features(h, kind, normalize=True):
    """The one-hand featurization the stacked ``featurize`` replaced: (values, degenerate)."""
    values, degenerate = [], False
    if kind != "angle":
        raw = h
        if normalize:
            centred = h - h[0]
            diffs = centred[:, None, :] - centred[None, :, :]
            extent = float(np.sqrt((diffs**2).sum(axis=2)).max())
            if extent < DEGENERATE_DISTANCE:
                raise DegenerateHand("reference")
            raw = centred / extent
        values.append(raw.reshape(-1))
    if kind != "raw":
        u = h[TRIPLET_PARENT] - h[TRIPLET_PIVOT]
        v = h[TRIPLET_CHILD] - h[TRIPLET_PIVOT]
        nu = np.linalg.norm(u, axis=1)
        nv = np.linalg.norm(v, axis=1)
        bad = np.minimum(nu, nv) <= DEGENERATE_NORM * np.maximum(nu, nv)
        denom = np.where(bad, 1.0, nu * nv)
        angles = np.arccos(np.clip((u * v).sum(axis=1) / denom, -1.0, 1.0))
        angles[bad] = 0.0
        values.append(angles)
        degenerate = bool(bad.any())
    return np.concatenate(values), degenerate


def hand_stack(n, seed):
    """Random hands at mixed scales and offsets, rows 3 and 10 with a collapsed triplet."""
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.1, 10, size=(n, 1, 1))
    h = rng.normal(size=(n, 21, 3)) * scale + rng.uniform(-10, 10, size=(n, 1, 3))
    h[3, 7] = h[3, 6]
    h[10, 1] = h[10, 0]
    return h


def stacked(transforms):
    """The (N, 3, 3) rotations, (N,) scales and (N, 3) translations of a list of transforms."""
    return (np.array([t.rotation for t in transforms]), np.array([t.scale for t in transforms]),
            np.array([t.translation for t in transforms]))


def scalar_raw_oracle(points):
    """Independent pure-Python re-implementation of the raw features."""
    centred = [[points[i][k] - points[0][k] for k in range(3)] for i in range(21)]
    best = 0.0
    for j in range(21):
        for k in range(21):
            d = math.sqrt(sum((centred[j][a] - centred[k][a]) ** 2 for a in range(3)))
            best = max(best, d)
    flat = []
    for i in range(21):
        for k in range(3):
            flat.append(centred[i][k] / best)
    return flat


class TestWristCenter:
    def test_constant_hand_maps_to_zero(self):
        h = np.full((21, 3), (3.0, 4.0, 5.0))
        assert np.array_equal(wrist_center(h), np.zeros((21, 3)))

    def test_direct_subtraction(self):
        h = np.zeros((21, 3))
        h[0] = (1, 1, 1)
        h[5] = (2, 3, 4)
        out = wrist_center(h)
        assert np.array_equal(out[5], (1, 2, 3))
        assert np.array_equal(out[0], (0, 0, 0))

    def test_idempotent(self):
        h = random_hand(np.random.default_rng(0))
        once = wrist_center(h)
        assert np.array_equal(wrist_center(once), once)

    def test_non_finite_rejected(self):
        h = np.zeros((21, 3))
        h[3, 1] = np.nan
        with pytest.raises(InvalidKeypoints):
            wrist_center(h)

    def test_wrong_shape_rejected(self):
        with pytest.raises(InvalidKeypoints):
            wrist_center(np.zeros((20, 3)))


class TestScaleNormalize:
    def test_divides_by_max_distance(self):
        h = np.zeros((21, 3))
        h[1] = (4.0, 0.0, 0.0)  # two clusters at distance 4
        h[2:] = (2.0, 0.0, 0.0)  # interior
        out = scale_normalize(h)
        assert np.allclose(out, h / 4.0)

    def test_output_extent_is_one(self):
        h = wrist_center(random_hand(np.random.default_rng(1)))
        assert abs(max_pairwise_distance(scale_normalize(h)) - 1.0) <= 1e-12

    def test_scale_cancels(self):
        h = wrist_center(random_hand(np.random.default_rng(2)))
        for s in (0.001, 3.0, 1e4):
            assert np.allclose(scale_normalize(s * h), scale_normalize(h), atol=1e-12)

    def test_coincident_points_degenerate(self):
        with pytest.raises(DegenerateHand):
            scale_normalize(np.zeros((21, 3)))


class TestRawFeatures:
    def test_wrist_block_is_zero(self):
        vec = raw_row(random_hand(np.random.default_rng(3)))
        assert np.array_equal(vec[:3], (0, 0, 0))

    def test_matches_scalar_oracle_on_segment_hand(self):
        # keypoints spread along a unit segment
        h = np.zeros((21, 3))
        h[:, 0] = np.linspace(0.3, 1.3, 21)
        h[:, 1] = 0.25
        vec = raw_row(h)
        assert np.allclose(vec, scalar_raw_oracle(h.tolist()), atol=1e-12)

    def test_matches_scalar_oracle_on_random_hand(self):
        h = random_hand(np.random.default_rng(4))
        assert np.allclose(raw_row(h), scalar_raw_oracle(h.tolist()), atol=1e-12)

    def test_not_rotation_invariant(self):
        h = random_hand(np.random.default_rng(5))
        t = random_transform(123)
        rotated = SimilarityTransform(t.rotation, 1.0, np.zeros(3))
        diff = np.abs(raw_row(apply_transform(h, rotated)) - raw_row(h))
        assert diff.max() > 1e-6

    def test_translation_and_scale_invariant(self):
        h = random_hand(np.random.default_rng(6))
        shifted = h + np.array([4.0, -2.0, 9.0])
        assert np.allclose(raw_row(shifted), raw_row(h), atol=1e-12)
        assert np.allclose(raw_row(7.5 * h), raw_row(h), atol=1e-12)

    def test_unnormalized_variant(self):
        h = random_hand(np.random.default_rng(7))
        assert np.array_equal(raw_row(h, normalize=False), h.reshape(-1))


class TestTripletTable:
    def test_length_is_twenty(self):
        assert TRIPLET_PARENT.shape == TRIPLET_PIVOT.shape == TRIPLET_CHILD.shape == (20,)

    def test_pivot_six_entry(self):
        (i,) = np.flatnonzero(TRIPLET_PIVOT == 6)
        assert (TRIPLET_PARENT[i], TRIPLET_PIVOT[i], TRIPLET_CHILD[i]) == (5, 6, 7)

    def test_no_fingertip_pivots(self):
        assert not np.isin(TRIPLET_PIVOT, FINGERTIPS).any()

    def test_indices_valid_and_distinct(self):
        for ids in zip(TRIPLET_PARENT, TRIPLET_PIVOT, TRIPLET_CHILD):
            assert all(0 <= i <= 20 for i in ids)
            assert len(set(ids)) == 3

    def test_flexion_then_abduction_order(self):
        assert (TRIPLET_PIVOT[:15] != 0).all()
        assert (TRIPLET_PIVOT[15:] == 0).all()
        # oracle: each finger's joints from base to tip, then the spread between adjacent bases, thumb first
        chains = [(0, base, base + 1, base + 2, base + 3) for base in (1, 5, 9, 13, 17)]
        flexion = [(chain[i - 1], chain[i], chain[i + 1]) for chain in chains for i in (1, 2, 3)]
        abduction = [(17, 0, 1), (1, 0, 5), (5, 0, 9), (9, 0, 13), (13, 0, 17)]
        assert list(zip(TRIPLET_PARENT.tolist(), TRIPLET_PIVOT.tolist(), TRIPLET_CHILD.tolist())) == flexion + abduction


class TestJointAngles:
    def test_collinear_pivot_between(self):
        h = np.random.default_rng(8).normal(size=(21, 3))
        h[5] = (0.0, 0.0, 0.0)
        h[6] = (1.0, 0.0, 0.0)
        h[7] = (2.0, 0.0, 0.0)
        assert joint_angles(h).values[_PIVOT_SIX] == pytest.approx(np.pi, abs=1e-12)

    def test_orthogonal_is_half_pi(self):
        h = np.random.default_rng(9).normal(size=(21, 3))
        h[5] = (1.0, 0.0, 0.0)
        h[6] = (0.0, 0.0, 0.0)
        h[7] = (0.0, 1.0, 0.0)
        assert joint_angles(h).values[_PIVOT_SIX] == pytest.approx(np.pi / 2, abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_similarity_invariance(self, seed):
        rng = np.random.default_rng(seed)
        h = random_hand(rng)
        for t_seed in range(10):
            t = random_transform(seed * 1000 + t_seed)
            dev = np.abs(joint_angles(apply_transform(h, t)).values - joint_angles(h).values)
            assert dev.max() <= 1e-9

    def test_range_is_zero_to_pi(self):
        for seed in range(20):
            vals = joint_angles(random_hand(np.random.default_rng(seed))).values
            assert vals.min() >= 0.0 and vals.max() <= np.pi

    def test_unaffected_by_normalization(self):
        h = random_hand(np.random.default_rng(10))
        normalized = scale_normalize(wrist_center(h))
        assert np.allclose(joint_angles(h).values, joint_angles(normalized).values, atol=1e-12)

    def test_degenerate_triplet_flagged_as_zero(self):
        h = random_hand(np.random.default_rng(11))
        h[7] = h[6]  # child collapses onto pivot
        fv = joint_angles(h)
        assert fv.degenerate
        assert fv.values[_PIVOT_SIX] == 0.0

    def test_near_parallel_clamped_no_nan(self):
        h = np.random.default_rng(12).normal(size=(21, 3))
        h[6] = (0.0, 0.0, 0.0)
        h[5] = (1.0, 0.0, 0.0)
        h[7] = (1.0, 1e-9, 0.0)  # nearly parallel displacements
        assert np.all(np.isfinite(joint_angles(h).values))


class TestRawAngle:
    def test_layout(self):
        h = random_hand(np.random.default_rng(13))
        values, _ = one_hand(h, "raw_angle")
        assert values.shape == (83,)
        assert np.array_equal(values[:63], raw_row(h))
        assert np.array_equal(values[63:], joint_angles(h).values)


class TestApplyTransform:
    def test_identity(self):
        h = random_hand(np.random.default_rng(14))
        ident = SimilarityTransform(np.eye(3), 1.0, np.zeros(3))
        assert np.array_equal(apply_transform(h, ident), h)

    def test_pure_scaling(self):
        h = random_hand(np.random.default_rng(15))
        t = SimilarityTransform(np.eye(3), 2.0, np.zeros(3))
        assert np.allclose(apply_transform(h, t), 2.0 * h)

    def test_composition_matches_matrix_algebra(self):
        h = random_hand(np.random.default_rng(16))
        t1 = random_transform(21)
        t2 = random_transform(22)
        sequential = apply_transform(apply_transform(h, t1), t2)
        # independent oracle: explicit matrix algebra per point
        expected = (t2.scale * (t1.scale * h @ t1.rotation.T + t1.translation) @ t2.rotation.T
                    + t2.translation)
        assert np.allclose(sequential, expected, atol=1e-12)

    def test_checked_fields_cannot_change(self):
        rotation, translation = np.eye(3), np.zeros(3)
        t = SimilarityTransform(rotation, 2.0, translation)
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.rotation = np.diag([1.0, 1.0, -1.0])  # a reflection the constructor would refuse
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.scale = -1.0
        with pytest.raises(ValueError, match="read-only"):
            t.translation[0] = np.nan
        rotation[2, 2] = -1.0  # the caller's own array stays the caller's
        assert np.array_equal(t.rotation, np.eye(3))


class TestRandomTransform:
    def test_deterministic(self):
        a, b = random_transform(77), random_transform(77)
        assert np.array_equal(a.rotation, b.rotation)
        assert a.scale == b.scale
        assert np.array_equal(a.translation, b.translation)

    def test_rotation_orthogonal(self):
        for seed in range(50):
            r = random_transform(seed).rotation
            assert np.abs(r.T @ r - np.eye(3)).max() <= 1e-10
            assert abs(np.linalg.det(r) - 1.0) <= 1e-10

    def test_scale_range_over_many_seeds(self):
        scales = [random_transform(s).scale for s in range(1000)]
        assert min(scales) >= 0.1 and max(scales) <= 10.0

    def test_translation_range(self):
        for seed in range(100):
            t = random_transform(seed).translation
            assert np.all(np.abs(t) <= 10.0)


class TestStackedFeaturize:
    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("kind", REPRESENTATIONS)
    def test_matches_one_hand_reference_bitwise(self, kind, normalize):
        h = hand_stack(50, 0)
        X, degenerate = featurize(h, kind, normalize)
        assert X.shape == (50, FEATURE_DIMS[kind]) and degenerate.shape == (50,)
        reference = [reference_features(row, kind, normalize) for row in h]
        assert np.array_equal(X, np.array([values for values, _ in reference]))
        assert np.array_equal(degenerate, [flag for _, flag in reference])
        assert degenerate.sum() == (0 if kind == "raw" else 2)

    @pytest.mark.parametrize("kind", REPRESENTATIONS)
    def test_one_hand_calls_are_rows_of_the_stack(self, kind):
        h = hand_stack(12, 1)
        X, degenerate = featurize(h, kind)
        for i, row in enumerate(h):
            values, flag = one_hand(row, kind)
            assert np.array_equal(values, X[i]) and flag == degenerate[i]
            if kind == "angle":
                fv = joint_angles(row)
                assert np.array_equal(fv.values, X[i]) and fv.degenerate == degenerate[i]

    def test_coincident_hand_is_zero_angle_row(self):
        h = hand_stack(12, 2)
        h[4] = 2.5
        X, degenerate = featurize(h, "angle")
        assert np.array_equal(X[4], np.zeros(20)) and degenerate[4]

    @pytest.mark.parametrize("kind", ["raw", "raw_angle"])
    def test_coincident_hand_raises_with_its_rows(self, kind):
        h = hand_stack(12, 3)
        h[2] = 1.0
        h[6] = -4.0
        with pytest.raises(DegenerateHand) as info:
            featurize(h, kind)
        assert info.value.rows == [2, 6]
        X, _ = featurize(h, kind, normalize=False)
        assert np.array_equal(X[2, :63], np.ones(63))

    def test_empty_stack(self):
        for kind in REPRESENTATIONS:
            X, degenerate = featurize(np.empty((0, 21, 3)), kind)
            assert X.shape == (0, FEATURE_DIMS[kind]) and degenerate.shape == (0,)

    @pytest.mark.parametrize("shape", [(21, 3), (4, 20, 3), (2, 2, 21, 3)])
    def test_stack_shape_required(self, shape):
        with pytest.raises(InvalidKeypoints):
            featurize(np.ones(shape), "angle")

    def test_non_finite_rejected(self):
        h = hand_stack(12, 4)
        h[1, 5, 2] = np.inf
        with pytest.raises(InvalidKeypoints):
            featurize(h, "raw")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ShapeError):
            featurize(hand_stack(12, 5), "angles")

    def test_max_pairwise_distance_matches_all_pairs(self):
        h = hand_stack(30, 6)
        diffs = h[:, :, None, :] - h[:, None, :, :]
        expected = np.sqrt((diffs**2).sum(axis=3)).max(axis=(1, 2))
        assert np.array_equal(max_pairwise_distance(h), expected)
        assert max_pairwise_distance(h[7]) == expected[7]


class TestStackedTransforms:
    def test_rows_match_one_hand_calls_bitwise(self):
        h = hand_stack(12, 7)
        transforms = [random_transform(s) for s in range(12)]
        out = apply_transforms(h, *stacked(transforms))
        for i, t in enumerate(transforms):
            # the one-hand expression apply_transform used before stacks
            assert np.array_equal(out[i], t.scale * h[i] @ t.rotation.T + t.translation)
            assert np.array_equal(out[i], apply_transform(h[i], t))

    def test_count_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            apply_transforms(hand_stack(12, 8), *stacked([random_transform(0)]))


@given(
    seed=st.integers(0, 2**32 - 1),
    scale_lo=st.floats(0.1, 1.0),
    scale_hi=st.floats(1.0, 10.0),
    translate_max=st.floats(0.0, 100.0),
)
def test_stacked_angles_invariant_under_random_similarities(seed, scale_lo, scale_hi, translate_max):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(16, 21, 3))
    draws = [draw_similarity(rng, (np.log(scale_lo), np.log(scale_hi)), translate_max) for _ in range(16)]
    q, scale, translation = (np.array(column) for column in zip(*draws))
    before, flags_before = featurize(h, "angle")
    after, flags_after = featurize(apply_transforms(h, rotation_from_quaternion(q), scale, translation), "angle")
    # near-collinear triplets turn a 1e-13 cosine error into ~1e-7 radians
    assert np.abs(after - before).max() <= 1e-6
    assert np.array_equal(flags_before, flags_after)


def angle_tolerance(hand, offset, angles):
    """A bound on the rounding error of a hand's angles after a similarity transform with ``offset`` (in hand units).

    A cosine error of 16 ulps of the largest coordinate, translation included, relative to each
    triplet's shorter displacement, carried through arccos: its slope is 1 / sin, and near 0 and pi
    the error grows as the square root of the cosine error. A collapsed triplet is 0 on both sides.
    """
    u, v = (hand[ends] - hand[TRIPLET_PIVOT] for ends in (TRIPLET_PARENT, TRIPLET_CHILD))
    shorter = np.maximum(np.minimum(np.linalg.norm(u, axis=1), np.linalg.norm(v, axis=1)), np.finfo(float).tiny)
    cos_error = 16 * np.finfo(float).eps * (np.abs(hand).max() + np.abs(offset).max()) / shorter
    return cos_error / np.maximum(np.sin(angles), np.sqrt(cos_error))


@example(hand_seed=3, synth=True, collapse=False, quaternion=(1.0, 0.5, 0.0, 0.0), log_scale=-9.0,
         offset=(1.0, -2.0, 3.0))
@given(hand_seed=st.integers(0, 2**32 - 1), synth=st.booleans(), collapse=st.booleans(),
       quaternion=st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(lambda q: np.linalg.norm(q) > 0.1),
       log_scale=st.floats(-100.0, 100.0), offset=st.tuples(*[st.floats(-10.0, 10.0)] * 3))
def test_features_are_invariant_at_any_scale(hand_seed, synth, collapse, quaternion, log_scale, offset):
    # The triplet rule is relative, so the angles and the mask hold from 1e-100 to 1e100; the raw
    # part's extent rule stays absolute, so below DEGENERATE_DISTANCE a raw pool refuses the hand.
    if synth:
        hand = build_hand(class_dictionary(SynthSpec(n_classes=2, seed=hand_seed))[0])
    else:
        hand = np.random.default_rng(hand_seed).normal(size=(21, 3))
    if collapse:
        hand[7] = hand[6]
    rotation = rotation_from_quaternion(np.array(quaternion) / np.linalg.norm(quaternion))[None]
    scale = 10.0**log_scale
    moved = apply_transforms(hand[None], rotation, np.array([scale]), scale * np.array([offset]))
    angles, mask = featurize(hand[None], "angle")
    moved_angles, moved_mask = featurize(moved, "angle")
    assert np.array_equal(moved_mask, mask) and mask[0] == collapse
    assert (np.abs(moved_angles - angles) <= angle_tolerance(hand, offset, angles)).all()
    rotated = apply_transforms(hand[None], rotation, np.ones(1), np.zeros((1, 3)))
    for kind in ("raw", "raw_angle"):
        if max_pairwise_distance(wrist_center(moved))[0] < DEGENERATE_DISTANCE:
            with pytest.raises(DegenerateHand):
                featurize(moved, kind)
            continue
        X, X_mask = featurize(moved, kind)
        assert np.abs(X[:, :63] - featurize(rotated, kind)[0][:, :63]).max() <= 1e-12
        if kind == "raw_angle":
            assert np.array_equal(X[:, 63:], moved_angles) and np.array_equal(X_mask, mask)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
def test_stacked_rotations_and_their_checks_match_per_quaternion_calls_bitwise(seed, n):
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    rotation = rotation_from_quaternion(q)
    assert rotation.shape == (n, 3, 3)
    assert np.array_equal(rotation, np.array([rotation_from_quaternion(row) for row in q]))
    orthogonality, determinant = rotation_errors(rotation)
    assert orthogonality.shape == (n, 3, 3) and determinant.shape == (n,)
    one_by_one = [rotation_errors(r) for r in rotation]
    assert np.array_equal(orthogonality, [o for o, _ in one_by_one])
    assert np.array_equal(determinant, [d for _, d in one_by_one])
    check_similarities(rotation, np.ones(n), np.zeros((n, 3)))
    assert np.array_equal(rotation_from_quaternion(q.reshape(n, 1, 4)), rotation[:, None])


@pytest.mark.parametrize("damage, message", [("reflect", "determinant"), ("skew", "not orthogonal"),
                                             ("inf translation", "finite"), ("nan translation", "finite")])
def test_a_stack_with_one_bad_transform_is_refused(damage, message):
    rng = np.random.default_rng(9)
    q = rng.standard_normal((12, 4))
    rotation = rotation_from_quaternion(q / np.linalg.norm(q, axis=1, keepdims=True))
    translation = np.zeros((12, 3))
    if damage == "reflect":
        rotation[5, 2] *= -1.0
    elif damage == "skew":
        rotation[5, 0, 1] += 1e-6
    else:
        translation[5] = [np.inf, 0.0, np.nan] if damage == "inf translation" else [0.0, np.nan, 0.0]
    with pytest.raises(ShapeError, match=message):
        check_similarities(rotation, np.ones(12), translation)
    with pytest.raises(ShapeError, match=message):
        apply_transforms(hand_stack(12, 10), rotation, np.ones(12), translation)
    with pytest.raises(ShapeError, match=message):
        SimilarityTransform(rotation[5], 1.0, translation[5])
    check_similarities(np.delete(rotation, 5, axis=0), np.ones(11), np.delete(translation, 5, axis=0))


@settings(max_examples=300)
@given(offset=st.floats(-1e6, 1e6), spread=st.floats(1e-15, 1e-11), flat_axes=st.integers(0, 2),
       seed=st.integers(0, 2**32 - 1))
def test_degenerate_screen_agrees_with_the_exact_test(offset, spread, flat_axes, seed):
    # Hands spread about the threshold along 3 - flat_axes axes, at large and small offsets.
    hands = offset + spread * np.random.default_rng(seed).normal(size=(8, 21, 3))
    hands[..., :flat_axes] = offset
    exact = max_pairwise_distance(wrist_center(hands)) < DEGENERATE_DISTANCE
    assert np.array_equal(degenerate_hands(hands), exact)
    for hand, degenerate in zip(hands, exact):
        if degenerate:
            with pytest.raises(DegenerateHand):
                scale_normalize(wrist_center(hand))
        else:
            scale_normalize(wrist_center(hand))
