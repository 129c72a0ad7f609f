import math
import tracemalloc

import numpy as np
import pytest

from conftest import packed

from geomshot.errors import NonFiniteGradient
from geomshot.nnet import (
    AdamW,
    EncoderConfig,
    MLPEncoder,
    ParamTensor,
    clip_global_norm,
    cosine_lr,
    global_grad_norm,
)
from geomshot.nnet.optim import _BLOCK


def scalar_param(value=0.0, grad=0.0):
    p = ParamTensor("w", np.array([value]))
    p.grad[...] = grad
    return p


class TestAdamW:
    def test_zero_grad_zero_decay_is_identity(self):
        p = scalar_param(value=0.37)
        opt = AdamW(packed(p), lr=1e-4, weight_decay=0.0, clip_norm=1.0)
        opt.step()
        assert p.values[0] == 0.37

    def test_single_step_matches_hand_recurrence(self):
        # oracle: one step of the AdamW recurrence evaluated by hand.
        # w=0, g=1, zero moments: m_hat = v_hat = 1, decay does nothing at 0,
        # so w1 = -lr * 1 / (sqrt(1) + eps)
        p = scalar_param(value=0.0, grad=1.0)
        opt = AdamW(packed(p), lr=1e-4, weight_decay=1e-4, clip_norm=1.0)
        opt.step()
        expected = -1e-4 / (1.0 + 1e-8)
        assert p.values[0] == pytest.approx(expected, rel=1e-15)

    def test_decay_term_applies_to_nonzero_weight(self):
        p = scalar_param(value=1.0, grad=0.0)
        opt = AdamW(packed(p), lr=1e-3, weight_decay=0.1, clip_norm=None)
        opt.step()
        assert p.values[0] == pytest.approx(1.0 * (1 - 1e-3 * 0.1))

    def test_nonfinite_gradient_aborts_without_mutation(self):
        p = scalar_param(value=0.5, grad=np.nan)
        opt = AdamW(packed(p), lr=1e-4, weight_decay=1e-4, clip_norm=1.0)
        with pytest.raises(NonFiniteGradient):
            opt.step()
        assert p.values[0] == 0.5
        assert opt.step_count == 0

    def test_parameters_stay_finite_over_many_steps(self):
        rng = np.random.default_rng(0)
        p = ParamTensor("w", rng.normal(size=(8, 8)))
        opt = AdamW(packed(p), lr=1e-2, weight_decay=1e-4, clip_norm=1.0)
        for _ in range(200):
            p.grad[...] = rng.normal(size=(8, 8)) * 100
            opt.step()
            assert np.all(np.isfinite(p.values))


def per_tensor_adamw_step(params, m, v, t, lr, weight_decay, clip_norm, betas=(0.9, 0.999), eps=1e-8):
    """Reference: the per-tensor AdamW loop, with name-keyed moments, that the flat buffer replaced."""
    norm = math.sqrt(sum(float((p.grad**2).sum()) for p in params))
    if norm > clip_norm and norm != 0.0:
        factor = clip_norm / norm
        for p in params:
            p.grad *= factor
    bc1 = 1.0 - betas[0] ** t
    bc2 = 1.0 - betas[1] ** t
    for p in params:
        p.values *= 1.0 - lr * weight_decay
        mp, vp = m[p.name], v[p.name]
        mp *= betas[0]
        mp += (1.0 - betas[0]) * p.grad
        vp *= betas[1]
        vp += (1.0 - betas[1]) * p.grad**2
        p.values -= lr * (mp / bc1) / (np.sqrt(vp / bc2) + eps)
    return norm


@pytest.mark.parametrize("weight_decay", [1e-2, 0.0])
def test_flat_step_matches_per_tensor_loop_bit_for_bit(weight_decay):
    encoder = MLPEncoder(EncoderConfig(input_dim=20), seed=0)
    ref = [ParamTensor(p.name, p.values.copy()) for p in encoder.parameters()]
    m = {p.name: np.zeros_like(p.values) for p in ref}
    v = {p.name: np.zeros_like(p.values) for p in ref}
    opt = AdamW(encoder.flat, lr=1e-3, weight_decay=weight_decay, clip_norm=1.0)
    assert len(opt.params) == 10
    rng = np.random.default_rng(0)
    clipped = 0
    for t in range(1, 51):
        # ~105k entries: a scale up to 0.006 puts the global norm on both sides of 1
        scale = rng.uniform(0.0, 0.006)
        for p, r in zip(encoder.parameters(), ref):
            r.grad[...] = p.grad[...] = rng.normal(size=p.values.shape) * scale
        norm = opt.step()
        assert norm == per_tensor_adamw_step(ref, m, v, t, 1e-3, weight_decay, 1.0)
        clipped += norm > 1.0
        for p, r in zip(encoder.parameters(), ref):
            assert np.array_equal(p.values, r.values), (t, p.name)
            assert np.array_equal(p.grad, r.grad), (t, p.name)
    assert 0 < clipped < 50


def test_head_slice_step_matches_per_tensor_loop_bit_for_bit():
    encoder = MLPEncoder(EncoderConfig(input_dim=20), seed=0)
    head = encoder.head_parameters()
    assert head.values.size == 32_896 and head.values.size % _BLOCK  # two full blocks and a partial one
    backbone = encoder.flat.values[: -head.values.size].copy()
    ref = [ParamTensor(p.name, p.values.copy()) for p in head.params]
    m = {p.name: np.zeros_like(p.values) for p in ref}
    v = {p.name: np.zeros_like(p.values) for p in ref}
    opt = AdamW(head, lr=1e-3, weight_decay=1e-2, clip_norm=1.0)
    rng = np.random.default_rng(1)
    clipped = 0
    for t in range(1, 21):
        # ~33k entries: a scale up to 0.011 puts the global norm on both sides of 1
        scale = rng.uniform(0.0, 0.011)
        for p, r in zip(head.params, ref):
            r.grad[...] = p.grad[...] = rng.normal(size=p.values.shape) * scale
        norm = opt.step()
        assert norm == per_tensor_adamw_step(ref, m, v, t, 1e-3, 1e-2, 1.0)
        clipped += norm > 1.0
        for p, r in zip(head.params, ref):
            assert np.array_equal(p.values, r.values), (t, p.name)
    assert 0 < clipped < 20
    assert np.array_equal(encoder.flat.values[: -head.values.size], backbone)


def test_nonfinite_gradient_in_the_last_block_aborts_without_mutation():
    encoder = MLPEncoder(EncoderConfig(input_dim=20), seed=0)
    flat = encoder.flat
    opt = AdamW(flat, lr=1e-3, weight_decay=1e-2, clip_norm=1.0)
    assert flat.grad.size % _BLOCK  # the last block is partial
    rng = np.random.default_rng(2)
    flat.grad[...] = rng.normal(size=flat.grad.size) * 1e-3
    opt.step()
    flat.grad[...] = rng.normal(size=flat.grad.size) * 1e-3
    flat.grad[-1] = np.nan
    before = [a.copy() for a in (flat.values, opt._m, opt._v)]
    with pytest.raises(NonFiniteGradient):
        opt.step()
    for a, b in zip((flat.values, opt._m, opt._v), before):
        assert np.array_equal(a, b)
    assert opt.step_count == 1


def test_optimizer_memory_is_two_buffers_plus_two_blocks():
    encoder = MLPEncoder(EncoderConfig(input_dim=20), seed=0)
    flat = encoder.flat
    nbytes = flat.values.nbytes  # 105,088 values
    flat.bind_grad()[...] = np.random.default_rng(3).normal(size=flat.values.size) * 1e-3
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        opt = AdamW(flat, lr=1e-4, weight_decay=1e-4, clip_norm=1.0)
        kept = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        before_step = tracemalloc.get_traced_memory()[0]
        opt.step()
        transient = tracemalloc.get_traced_memory()[1] - before_step
    finally:
        tracemalloc.stop()
    assert kept <= 2 * nbytes + 2 * _BLOCK * 8 + 4096  # the moments, two scratch blocks, object headers
    assert transient < nbytes  # no buffer-sized temporary


class TestClipping:
    def test_norm_ten_scaled_by_point_one(self):
        p = ParamTensor("w", np.zeros(4))
        p.grad[...] = [10.0, 0.0, 0.0, 0.0]
        clip_global_norm(packed(p), 1.0, 10.0)
        assert np.allclose(p.grad, [1.0, 0.0, 0.0, 0.0])

    def test_global_norm_across_tensors(self):
        a = ParamTensor("a", np.zeros(1))
        b = ParamTensor("b", np.zeros(1))
        a.grad[...] = 3.0
        b.grad[...] = 4.0
        buffer = packed(a, b)
        assert global_grad_norm(buffer) == 5.0
        clip_global_norm(buffer, 1.0, 5.0)
        assert a.grad[0] == pytest.approx(0.6)
        assert b.grad[0] == pytest.approx(0.8)

    def test_below_threshold_untouched(self):
        p = ParamTensor("w", np.zeros(2))
        p.grad[...] = [0.3, 0.4]
        clip_global_norm(packed(p), 1.0, 0.5)
        assert np.array_equal(p.grad, [0.3, 0.4])


class TestCosineLR:
    def test_epoch_zero_is_base(self):
        assert cosine_lr(1e-4, 0, 100) == pytest.approx(1e-4)

    def test_final_epoch_is_zero(self):
        assert cosine_lr(1e-4, 100, 100) == pytest.approx(0.0, abs=1e-20)

    def test_midpoint_is_half(self):
        assert cosine_lr(1e-4, 50, 100) == pytest.approx(5e-5)

    def test_analytic_formula(self):
        for epoch in range(0, 101, 7):
            expected = 1e-4 * 0.5 * (1 + math.cos(math.pi * epoch / 100))
            assert cosine_lr(1e-4, epoch, 100) == pytest.approx(expected)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            cosine_lr(1e-4, 101, 100)
