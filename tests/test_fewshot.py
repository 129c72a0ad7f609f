import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geomshot.errors import NoPositivesError, ShapeError
from geomshot.fewshot import (
    classify,
    compute_prototypes,
    proto_log_probs,
    protonet_loss_and_grads,
    protonet_nll,
    supcon_loss,
    supcon_loss_and_grad,
)


def loop_prototypes(emb, labels, n_way):
    """Oracle: per-class mean via explicit summation."""
    out = []
    for c in range(n_way):
        total = None
        count = 0
        for e, l in zip(emb, labels):
            if l == c:
                total = e.copy() if total is None else total + e
                count += 1
        out.append(total / count)
    return np.array(out)


def mask_loop_prototypes(support_emb, labels, n_way):
    """Reference: one boolean mask and mean per class."""
    protos = np.empty((n_way, support_emb.shape[1]))
    for c in range(n_way):
        protos[c] = support_emb[labels == c].mean(axis=0)
    return protos


def mask_loop_protonet(support_emb, support_labels, query_emb, query_labels, n_way):
    """Reference: the protonet loss and gradients with per-class mask loops."""
    protos = mask_loop_prototypes(support_emb, support_labels, n_way)
    log_p = proto_log_probs(query_emb, protos)
    loss = protonet_nll(log_p, query_labels)
    m = query_emb.shape[0]
    g = np.exp(log_p)
    g[np.arange(m), query_labels] -= 1.0
    g /= m
    d_dist = -g
    row_sum = d_dist.sum(axis=1, keepdims=True)
    d_query = 2.0 * (query_emb * row_sum - d_dist @ protos)
    col_sum = d_dist.sum(axis=0)[:, None]
    d_protos = 2.0 * (protos * col_sum - d_dist.T @ query_emb)
    d_support = np.zeros_like(support_emb)
    for c in range(n_way):
        mask = support_labels == c
        d_support[mask] = d_protos[c] / mask.sum()
    return loss, d_support, d_query


def balanced_support(rng, n_way, k, dim):
    """K rows per class in the sampler's class-major layout, values across many magnitudes."""
    labels = np.repeat(np.arange(n_way), k)
    emb = rng.normal(size=(n_way * k, dim)) * 10.0 ** rng.uniform(-3, 3, size=(n_way * k, 1))
    return emb, labels


def naive_log_probs(queries, protos):
    """Oracle: direct softmax without the logsumexp trick."""
    out = np.empty((len(queries), len(protos)))
    for m, q in enumerate(queries):
        logits = [-float(((q - c) ** 2).sum()) for c in protos]
        denom = sum(math.exp(v) for v in logits)
        for n, v in enumerate(logits):
            out[m, n] = math.log(math.exp(v) / denom)
    return out


def scalar_supcon(emb, labels, tau):
    """Oracle: fully expanded scalar evaluation of the contrastive loss."""
    z = []
    for e in emb:
        norm = math.sqrt(sum(v * v for v in e))
        z.append([v / norm for v in e])
    b = len(z)
    dot = lambda a, c: sum(x * y for x, y in zip(a, c))
    anchor_losses = []
    for i in range(b):
        positives = [p for p in range(b) if p != i and labels[p] == labels[i]]
        if not positives:
            continue
        denom = sum(math.exp(dot(z[i], z[a]) / tau) for a in range(b) if a != i)
        inner = 0.0
        for p in positives:
            inner += math.log(math.exp(dot(z[i], z[p]) / tau) / denom)
        anchor_losses.append(-inner / len(positives))
    return sum(anchor_losses) / len(anchor_losses)


class TestPrototypes:
    def test_one_shot_equals_embedding(self):
        emb = np.random.default_rng(0).normal(size=(3, 8))
        protos = compute_prototypes(emb, np.array([0, 1, 2]), 3)
        assert np.array_equal(protos, emb)

    def test_two_point_mean(self):
        emb = np.vstack([np.zeros(5), np.full(5, 2.0)])
        protos = compute_prototypes(emb, np.array([0, 0]), 1)
        assert np.array_equal(protos[0], np.ones(5))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(1)
        emb = rng.normal(size=(15, 16))
        labels = np.repeat(np.arange(3), 5)
        assert np.allclose(compute_prototypes(emb, labels, 3), loop_prototypes(emb, labels, 3), atol=1e-12)

    def test_missing_class_raises(self):
        emb = np.random.default_rng(2).normal(size=(4, 8))
        with pytest.raises(ShapeError):
            compute_prototypes(emb, np.array([0, 0, 1, 1]), 3)

    @given(
        n_way=st.integers(1, 8),
        k=st.integers(1, 12),
        dim=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reshape_mean_equals_mask_loop_bitwise(self, n_way, k, dim, seed):
        emb, labels = balanced_support(np.random.default_rng(seed), n_way, k, dim)
        assert np.array_equal(compute_prototypes(emb, labels, n_way), mask_loop_prototypes(emb, labels, n_way))

    @pytest.mark.parametrize(
        "labels, n_way",
        [
            ([0, 0, 1, 1, 1, 2], 3),  # unequal counts
            ([0, 1, 2, 0, 1, 1], 3),  # unequal counts, shuffled
            ([0, 1, 0, 1], 2),  # balanced but interleaved: not the class-major layout
            ([0, 0, 1, 1, 3, 3], 3),  # label n_way (the mask loop dropped these rows)
            ([0, 1, 2, 3], 3),  # an extra class beyond n_way
            ([-1, 0, 1, 2], 3),  # negative label
            ([], 3),  # empty support
        ],
    )
    def test_unbalanced_or_out_of_range_labels_raise(self, labels, n_way):
        emb = np.random.default_rng(3).normal(size=(len(labels), 4))
        with pytest.raises(ShapeError):
            compute_prototypes(emb, np.array(labels, dtype=int), n_way)
        query = np.random.default_rng(4).normal(size=(3, 4))
        with pytest.raises(ShapeError):
            protonet_loss_and_grads(emb, np.array(labels, dtype=int), query, np.array([0, 1, 2]), n_way)


    @given(
        lead=st.lists(st.integers(1, 4), min_size=1, max_size=2),
        n_way=st.integers(1, 6),
        k=st.integers(1, 12),
        dim=st.integers(1, 20),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_leading_dims_equal_separate_calls_bitwise(self, lead, n_way, k, dim, seed):
        rng = np.random.default_rng(seed)
        _, labels = balanced_support(rng, n_way, k, dim)
        emb = rng.normal(size=(*lead, n_way * k, dim)) * 10.0 ** rng.uniform(-3, 3, size=(*lead, n_way * k, 1))
        stacked = compute_prototypes(emb, labels, n_way)
        assert stacked.shape == (*lead, n_way, dim)
        for index in np.ndindex(*lead):
            assert np.array_equal(stacked[index], mask_loop_prototypes(emb[index], labels, n_way))


class TestProtoLogProbs:
    def test_query_at_prototype_wins(self):
        protos = np.zeros((3, 4))
        protos[1] = 50.0
        protos[2] = -50.0
        q = np.zeros((1, 4))
        assert proto_log_probs(q, protos).argmax(axis=1)[0] == 0

    def test_equidistant_is_uniform(self):
        protos = np.array([[1.0, 0.0], [-1.0, 0.0]])
        q = np.array([[0.0, 0.3]])
        probs = np.exp(proto_log_probs(q, protos))
        assert np.allclose(probs, [[0.5, 0.5]], atol=1e-12)

    def test_matches_naive_softmax_oracle(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(4, 6))
        protos = rng.normal(size=(3, 6))
        assert np.allclose(proto_log_probs(q, protos), naive_log_probs(q, protos), atol=1e-12)

    def test_rows_are_log_distributions(self):
        rng = np.random.default_rng(4)
        lp = proto_log_probs(rng.normal(size=(10, 8)), rng.normal(size=(5, 8)))
        lse = np.log(np.exp(lp).sum(axis=1))
        assert np.abs(lse).max() <= 1e-10


class TestProtonetNLL:
    def test_confident_correct_goes_to_zero(self):
        protos = np.array([[0.0, 0.0], [100.0, 0.0]])
        q = np.array([[0.0, 0.0], [100.0, 0.0]])
        loss = protonet_nll(proto_log_probs(q, protos), np.array([0, 1]))
        assert loss == pytest.approx(0.0, abs=1e-12)

    def test_uniform_is_log_n(self):
        lp = np.full((7, 5), math.log(1 / 5))
        assert protonet_nll(lp, np.zeros(7, dtype=int)) == pytest.approx(math.log(5))

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(5)
        lp = proto_log_probs(rng.normal(size=(6, 4)), rng.normal(size=(3, 4)))
        labels = rng.integers(0, 3, size=6)
        oracle = -sum(lp[m, labels[m]] for m in range(6)) / 6
        assert protonet_nll(lp, labels) == pytest.approx(oracle, abs=1e-12)


class TestClassify:
    def test_agrees_with_log_prob_argmax(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            q = rng.normal(size=(8, 5))
            protos = rng.normal(size=(4, 5))
            assert np.array_equal(classify(q, protos), proto_log_probs(q, protos).argmax(axis=1))

    def test_single_prototype(self):
        q = np.random.default_rng(7).normal(size=(5, 3))
        assert np.array_equal(classify(q, np.zeros((1, 3))), np.zeros(5, dtype=int))

    def test_hundred_episodes_match_brute_force(self):
        # oracle: exhaustive distance loop
        rng = np.random.default_rng(8)
        for _ in range(100):
            n, m, d = rng.integers(2, 6), rng.integers(1, 10), rng.integers(2, 10)
            protos = rng.normal(size=(n, d))
            q = rng.normal(size=(m, d))
            pred = classify(q, protos)
            for i in range(m):
                dists = [((q[i] - c) ** 2).sum() for c in protos]
                assert pred[i] == int(np.argmin(dists))


def difference_form_classify(q, protos):
    """Reference: argmin over ``((q - p)**2).sum()``, the rule the Gram screen must reproduce."""
    return (((q[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2)).argmin(axis=1)


def gram_form_classify(q, protos):
    """The screen alone: argmin of ``|q|² + |p|² - 2 q·p``, without the exact re-decision."""
    return ((q * q).sum(axis=1)[:, None] + (protos * protos).sum(axis=1)[None, :] - 2.0 * q @ protos.T).argmin(axis=1)


@st.composite
def near_tie_problems(draw):
    """Queries and prototypes far from the origin, with prototypes and queries close together."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n, d = draw(st.integers(1, 12)), draw(st.integers(1, 6)), draw(st.integers(1, 40))
    offset = 10.0 ** draw(st.integers(-3, 6)) * rng.normal(size=d)
    spread = 10.0 ** draw(st.integers(-12, 0)) * max(1.0, float(np.abs(offset).max()))
    protos = offset + spread * rng.normal(size=(n, d))
    if n > 1 and draw(st.booleans()):
        protos[rng.integers(1, n)] = protos[0]  # a duplicate prototype
    queries = protos[rng.integers(0, n, size=m)] + spread * 10.0 ** draw(st.integers(-6, 1)) * rng.normal(size=(m, d))
    return queries, protos


class TestScreenedClassify:
    def test_exact_ties_go_to_the_lowest_class(self):
        protos = np.array([[3.0, 0.0, 1.0], [-3.0, 0.0, 1.0], [3.0, 0.0, 1.0]])
        queries = np.array([[0.0, y, 1.0] for y in (-2.0, 0.0, 0.5, 7.0)])  # equidistant from all three
        assert classify(queries, protos).tolist() == [0, 0, 0, 0]
        assert classify(protos[2:] + 1e-3, protos).tolist() == [0]  # duplicate of class 0

    def test_near_ties_at_1e6_follow_the_difference_form(self):
        rng = np.random.default_rng(12)
        base = 1e6 * rng.normal(size=16)
        protos = base + 1e-4 * rng.normal(size=(5, 16))
        queries = base + 1e-4 * rng.normal(size=(400, 16))
        expected = difference_form_classify(queries, protos)
        assert np.array_equal(classify(queries, protos), expected)
        # the Gram form alone gets some of these wrong: the exact re-decision is doing work
        assert (gram_form_classify(queries, protos) != expected).any()

    def test_non_finite_values_follow_the_difference_form(self):
        protos = np.array([[0.0, 1.0], [np.inf, 0.0], [1.0, 1.0]])
        queries = np.array([[0.0, 0.9], [np.nan, 0.0], [np.inf, 0.0], [2.0, 2.0], [1e200, 1e200]])
        with np.errstate(invalid="ignore", over="ignore"):
            assert np.array_equal(classify(queries, protos), difference_form_classify(queries, protos))

    @given(problem=near_tie_problems())
    def test_matches_the_difference_form(self, problem):
        queries, protos = problem
        assert np.array_equal(classify(queries, protos), difference_form_classify(queries, protos))

    def test_leading_dims(self):
        rng = np.random.default_rng(13)
        queries = rng.normal(size=(3, 4, 7, 5))
        protos = rng.normal(size=(3, 4, 6, 5))
        protos[1, 2, 3] = protos[1, 2, 0]
        queries[2, 1, :3] = protos[2, 1, :3] + 1e-15
        pred = classify(queries, protos)
        assert pred.shape == (3, 4, 7)
        for index in np.ndindex(3, 4):
            assert np.array_equal(pred[index], difference_form_classify(queries[index], protos[index]))
        shared = classify(queries, protos[0, 0])  # prototypes broadcast over the leading dims
        for index in np.ndindex(3, 4):
            assert np.array_equal(shared[index], difference_form_classify(queries[index], protos[0, 0]))


class TestSupCon:
    def test_two_identical_same_class_is_zero(self):
        emb = np.vstack([np.ones(4), np.ones(4)])
        assert supcon_loss(emb, np.array([0, 0]), 0.07) == pytest.approx(0.0, abs=1e-12)

    def test_matches_scalar_expansion_on_four_points(self):
        # hand-chosen unit embeddings, two classes
        emb = np.array(
            [
                [1.0, 0.0, 0.0],
                [0.8, 0.6, 0.0],
                [0.0, 1.0, 0.0],
                [0.0, 0.6, 0.8],
            ]
        )
        labels = np.array([0, 0, 1, 1])
        oracle = scalar_supcon(emb.tolist(), labels.tolist(), 0.07)
        assert supcon_loss(emb, labels, 0.07) == pytest.approx(oracle, abs=1e-10)

    def test_matches_scalar_expansion_random(self):
        rng = np.random.default_rng(9)
        emb = rng.normal(size=(8, 6))
        labels = np.array([0, 0, 0, 1, 1, 2, 2, 2])
        oracle = scalar_supcon(emb.tolist(), labels.tolist(), 0.07)
        assert supcon_loss(emb, labels, 0.07) == pytest.approx(oracle, abs=1e-10)

    def test_rotation_invariant(self):
        from geomshot.geometry import random_transform

        rng = np.random.default_rng(10)
        emb = rng.normal(size=(6, 3))
        labels = np.array([0, 0, 1, 1, 2, 2])
        rot = random_transform(5).rotation
        assert supcon_loss(emb @ rot.T, labels, 0.07) == pytest.approx(supcon_loss(emb, labels, 0.07), abs=1e-10)

    def test_no_positives_raises(self):
        emb = np.random.default_rng(11).normal(size=(3, 4))
        with pytest.raises(NoPositivesError):
            supcon_loss(emb, np.array([0, 1, 2]), 0.07)

    def test_anchor_without_positive_skipped(self):
        rng = np.random.default_rng(12)
        emb = rng.normal(size=(5, 4))
        labels = np.array([0, 0, 1, 1, 2])  # the lone class-2 anchor is skipped
        oracle = scalar_supcon(emb.tolist(), labels.tolist(), 0.07)
        assert supcon_loss(emb, labels, 0.07) == pytest.approx(oracle, abs=1e-10)

    def test_pulling_same_class_closer_reduces_loss(self):
        base = np.array(
            [
                [1.0, 0.0],
                [0.0, 1.0],
                [-1.0, 0.0],
                [0.0, -1.0],
            ]
        )
        labels = np.array([0, 0, 1, 1])
        tight = np.array(
            [
                [1.0, 0.1],
                [1.0, -0.1],
                [-1.0, 0.1],
                [-1.0, -0.1],
            ]
        )
        assert supcon_loss(tight, labels, 0.07) < supcon_loss(base, labels, 0.07)


class TestGradients:
    def test_protonet_grads_match_finite_differences(self):
        rng = np.random.default_rng(13)
        s = rng.normal(size=(6, 5))
        q = rng.normal(size=(9, 5))
        sl = np.repeat(np.arange(3), 2)
        ql = np.tile(np.arange(3), 3)
        _, ds, dq = protonet_loss_and_grads(s, sl, q, ql, 3)

        def loss(sv, qv):
            return protonet_nll(proto_log_probs(qv, compute_prototypes(sv, sl, 3)), ql)

        h = 1e-6
        for arr, grad, other_first in ((s, ds, True), (q, dq, False)):
            flat = arr.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                up = loss(s, q)
                flat[i] = orig - h
                down = loss(s, q)
                flat[i] = orig
                assert grad.reshape(-1)[i] == pytest.approx((up - down) / (2 * h), abs=1e-7)

    @pytest.mark.parametrize("n_way, k", [(1, 3), (3, 1), (5, 5), (4, 7)])
    def test_protonet_equals_mask_loop_bitwise(self, n_way, k):
        rng = np.random.default_rng(100 + 10 * n_way + k)
        s, sl = balanced_support(rng, n_way, k, 16)
        q = rng.normal(size=(3 * n_way, 16))
        ql = rng.permutation(np.repeat(np.arange(n_way), 3))
        got = protonet_loss_and_grads(s, sl, q, ql, n_way)
        want = mask_loop_protonet(s, sl, q, ql, n_way)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])

    def test_supcon_grad_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        emb = rng.normal(size=(6, 4))
        labels = np.array([0, 0, 1, 1, 2, 2])
        _, grad = supcon_loss_and_grad(emb, labels, 0.07)
        h = 1e-6
        flat = emb.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = supcon_loss(emb, labels, 0.07)
            flat[i] = orig - h
            down = supcon_loss(emb, labels, 0.07)
            flat[i] = orig
            assert grad.reshape(-1)[i] == pytest.approx((up - down) / (2 * h), abs=1e-6)
