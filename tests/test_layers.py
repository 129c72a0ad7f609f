import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomshot.errors import BatchTooSmall, CacheError
from geomshot.nnet import (
    BatchNorm1d,
    Dropout,
    EncoderConfig,
    Linear,
    MLPEncoder,
    ParamBuffer,
    ParamTensor,
    ReLU,
    finite_difference_check,
)
from geomshot.nnet.layers import Layer
from geomshot.rng import make_rng


def layer_loss(layer, x, train=True, rng_seed=5):
    """Mean of squared outputs; O(1) so finite differences stay clean."""
    y = layer.forward(x, train, make_rng(rng_seed))
    return float((y**2).mean())


def check_layer_gradients(layer, x, tol=1e-4, rng_seed=5):
    y = layer.forward(x, train=True, rng=make_rng(rng_seed))
    upstream = 2.0 * y / y.size
    for p in layer.parameters():
        p.zero_grad()
    layer.backward(upstream)
    report = finite_difference_check(
        layer.parameters(), lambda: layer_loss(layer, x, rng_seed=rng_seed), tolerance=tol
    )
    assert report.passed, report.per_param
    return report


class TestLinear:
    def test_weight_gradient_textbook_identity(self):
        rng = make_rng(0)
        lin = Linear(4, 3, "fc", rng)
        x = np.random.default_rng(1).normal(size=(5, 4))
        lin.forward(x, train=True)
        upstream = np.random.default_rng(2).normal(size=(5, 3))
        lin.weight.zero_grad()
        lin.bias.zero_grad()
        dx = lin.backward(upstream)
        assert np.allclose(lin.weight.grad, x.T @ upstream)
        assert np.allclose(lin.bias.grad, upstream.sum(axis=0))
        assert np.allclose(dx, upstream @ lin.weight.values.T)

    def test_finite_differences(self):
        lin = Linear(6, 4, "fc", make_rng(3))
        x = np.random.default_rng(4).normal(size=(5, 6))
        check_layer_gradients(lin, x)

    def test_quadratic_loss_tight_tolerance(self):
        # ||W x||^2 is quadratic in W: central differences are exact up to rounding
        lin = Linear(4, 4, "fc", make_rng(6))
        lin.weight.values[...] = np.abs(lin.weight.values) + 0.5
        x = np.abs(np.random.default_rng(7).normal(size=(3, 4))) + 0.5
        y = lin.forward(x, train=True)
        lin.weight.zero_grad()
        lin.bias.zero_grad()
        lin.backward(2.0 * y / y.size)
        report = finite_difference_check(
            lin.parameters(), lambda: layer_loss(lin, x), tolerance=1e-8
        )
        assert report.passed, report.per_param

    def test_backward_without_forward_raises(self):
        lin = Linear(3, 3, "fc", make_rng(8))
        with pytest.raises(CacheError):
            lin.backward(np.zeros((2, 3)))

    def test_double_backward_raises(self):
        lin = Linear(3, 3, "fc", make_rng(9))
        lin.forward(np.zeros((2, 3)), train=True)
        lin.backward(np.zeros((2, 3)))
        with pytest.raises(CacheError):
            lin.backward(np.zeros((2, 3)))


# Constructor arguments per layer class; a class not listed is built with none.
LAYER_ARGS = {Linear: [(4, 4, "fc", None)], BatchNorm1d: [(4, "bn")], Dropout: [(0.3,), (0.0,)]}


@pytest.mark.parametrize("cls,args", [
    pytest.param(cls, args, id="-".join([cls.__name__, *map(str, args)]))
    for cls in Layer.__subclasses__() for args in LAYER_ARGS.get(cls, [()])])
def test_backward_after_an_eval_forward_raises(cls, args):
    layer = cls(*args)
    x = np.random.default_rng(0).normal(size=(5, 4))
    layer.forward(x, train=True, rng=make_rng(1))
    layer.forward(x, train=False)
    with pytest.raises(CacheError, match=f"^{cls.__name__}.backward without train-mode forward$"):
        layer.backward(np.ones_like(x))


class TestReLU:
    def test_forward_and_mask(self):
        relu = ReLU()
        x = np.array([[-1.0, 2.0], [3.0, -4.0]])
        assert np.array_equal(relu.forward(x, train=True), [[0, 2], [3, 0]])
        dx = relu.backward(np.ones_like(x))
        assert np.array_equal(dx, [[0, 1], [1, 0]])


class TestDropout:
    def test_eval_mode_identity(self):
        drop = Dropout(0.5)
        x = np.random.default_rng(10).normal(size=(4, 6))
        assert np.array_equal(drop.forward(x, train=False), x)

    def test_inverted_scaling(self):
        drop = Dropout(0.5)
        x = np.ones((200, 50))
        y = drop.forward(x, train=True, rng=make_rng(11))
        kept = y != 0
        assert np.allclose(y[kept], 2.0)  # 1 / (1 - 0.5)
        assert 0.4 < kept.mean() < 0.6

    def test_backward_mask_matches_forward(self):
        drop = Dropout(0.3)
        x = np.random.default_rng(12).normal(size=(6, 8))
        y = drop.forward(x, train=True, rng=make_rng(13))
        dx = drop.backward(np.ones_like(x))
        assert np.array_equal(dx != 0, y != 0)

    def test_same_rng_replays_mask(self):
        drop = Dropout(0.3)
        x = np.random.default_rng(14).normal(size=(6, 8))
        y1 = drop.forward(x, train=True, rng=make_rng(15))
        y2 = drop.forward(x, train=True, rng=make_rng(15))
        assert np.array_equal(y1, y2)

    def test_train_without_rng_raises(self):
        with pytest.raises(ValueError):
            Dropout(0.3).forward(np.zeros((2, 2)), train=True)


class TestBatchNorm:
    def test_train_output_standardized(self):
        bn = BatchNorm1d(4, "bn")
        x = np.random.default_rng(16).normal(loc=3.0, scale=2.0, size=(64, 4))
        y = bn.forward(x, train=True)
        assert np.allclose(y.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(y.var(axis=0), 1.0, atol=1e-4)

    def test_batch_of_one_rejected(self):
        bn = BatchNorm1d(4, "bn")
        with pytest.raises(BatchTooSmall):
            bn.forward(np.zeros((1, 4)), train=True)

    def test_eval_does_not_mutate_running_stats(self):
        bn = BatchNorm1d(4, "bn")
        x = np.random.default_rng(17).normal(size=(8, 4))
        bn.forward(x, train=True)
        mean_before = bn.running_mean.copy()
        var_before = bn.running_var.copy()
        bn.forward(x, train=False)
        assert np.array_equal(bn.running_mean, mean_before)
        assert np.array_equal(bn.running_var, var_before)

    def test_running_stats_update_rule(self):
        bn = BatchNorm1d(2, "bn")
        x = np.random.default_rng(18).normal(size=(10, 2))
        bn.forward(x, train=True)
        assert np.allclose(bn.running_mean, 0.1 * x.mean(axis=0))
        assert np.allclose(bn.running_var, 0.9 + 0.1 * x.var(axis=0, ddof=1))

    def test_finite_differences_batch_coupled(self):
        bn = BatchNorm1d(5, "bn")
        bn.gamma.values[...] = np.random.default_rng(19).uniform(0.5, 1.5, 5)
        x = np.random.default_rng(20).normal(size=(6, 5))
        check_layer_gradients(bn, x)


class TestParamBuffer:
    def test_tensors_and_buffer_share_memory_both_ways(self):
        values = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 8.0])
        a = ParamTensor("a", values[:6].reshape(2, 3), grad=False)
        b = ParamTensor("b", values[6:], grad=False)
        buf = ParamBuffer(values, [a, b])
        assert buf.grad is None and a.grad is None and b.grad is None
        a.values[1, 2] = -1.0
        assert buf.values[5] == -1.0
        buf.values[6] = 9.0
        assert b.values[0] == 9.0
        grad = buf.bind_grad()
        assert buf.bind_grad() is grad and buf.grad is grad and np.array_equal(grad, np.zeros(8))
        assert a.grad.shape == (2, 3) and b.grad.shape == (2,)
        b.grad += 2.0
        assert np.array_equal(buf.grad, [0.0] * 6 + [2.0, 2.0])
        buf.grad[0] = 3.0
        assert a.grad[0, 0] == 3.0

    def test_head_slice_is_a_view_of_the_last_tensors_and_binds_only_their_gradient(self):
        enc = MLPEncoder(EncoderConfig(input_dim=3, hidden_dim=4, embed_dim=2), seed=0)
        head = enc.head_parameters()
        assert head.params == [enc.head.weight, enc.head.bias] and head.values.size == 10
        head.values[:] = np.arange(1.0, 11.0)
        assert np.array_equal(enc.flat.values[-10:], np.arange(1.0, 11.0))
        assert np.array_equal(enc.head.weight.values, np.arange(1.0, 9.0).reshape(4, 2))
        assert np.array_equal(enc.head.bias.values, [9.0, 10.0])
        head.bind_grad().fill(4.0)
        assert np.array_equal(enc.head.weight.grad, np.full((4, 2), 4.0)) and enc.head.bias.grad.size == 2
        assert enc.flat.grad is None and all(p.grad is None for p in enc.parameters()[:-2])


@settings(max_examples=60)
@given(seed=st.integers(0, 2**64 - 1), bound=st.floats(1e-300, 1e300),
       dims=st.lists(st.tuples(st.integers(1, 300), st.integers(1, 40)), min_size=1, max_size=4))
def test_drawing_into_a_view_gives_the_bits_of_uniform(seed, bound, dims):
    # The encoder's init is byte-identical to per-layer rng.uniform draws because of this.
    sizes = [i * o for i, o in dims]
    flat = np.empty(sum(sizes))
    views = [v.reshape(d) for v, d in zip(np.split(flat, np.cumsum(sizes)[:-1]), dims)]
    drawn, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    for view in views:
        drawn.random(out=view)
        view *= 2.0 * bound
        view -= bound
        assert view.tobytes() == reference.uniform(-bound, bound, view.shape).tobytes()
    for (i, o), view in zip(dims, views):  # a Linear layer over the same views, at its own bound
        Linear(i, o, "fc", drawn, (view, np.empty(o)))
        assert view.tobytes() == reference.uniform(-np.sqrt(6.0 / i), np.sqrt(6.0 / i), (i, o)).tobytes()


# -- bit-for-bit against the expressions the layers used before they computed in place --------


def ref_linear(x, weight, bias, grad_out):
    """(output, weight gradient, bias gradient, input gradient)."""
    return x @ weight + bias, x.T @ grad_out, grad_out.sum(axis=0), grad_out @ weight.T


def ref_relu(x, grad_out):
    return np.maximum(x, 0.0), grad_out * (x > 0)


def ref_dropout(x, mask, p, grad_out):
    return x * mask / (1.0 - p), grad_out * mask / (1.0 - p)


def ref_batchnorm_train(x, gamma, beta, grad_out, eps=1e-5, momentum=0.1):
    """(output, gamma gradient, beta gradient, input gradient, running mean, running var) from fresh stats."""
    n = x.shape[0]
    mean = x.mean(axis=0)
    var = x.var(axis=0)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv_std
    y = gamma * xhat + beta
    dxhat = grad_out * gamma
    dx = (inv_std / n) * (n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
    running_mean, running_var = np.zeros(x.shape[1]), np.ones(x.shape[1])
    running_mean *= 1.0 - momentum
    running_mean += momentum * mean
    running_var *= 1.0 - momentum
    running_var += momentum * var * n / (n - 1)
    return y, (grad_out * xhat).sum(axis=0), grad_out.sum(axis=0), dx, running_mean, running_var


def ref_batchnorm_eval(x, gamma, beta, running_mean, running_var, eps=1e-5):
    inv_std = 1.0 / np.sqrt(running_var + eps)
    return gamma * (x - running_mean) * inv_std + beta


def assert_same_bits(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def run_unchanged(fn, *arrays):
    """fn(*arrays), asserting that it leaves every argument as it was."""
    before = [a.copy() for a in arrays]
    out = fn(*arrays)
    for a, b in zip(arrays, before):
        assert_same_bits(a, b)
    return out


SHAPES = [(b, w) for b in (2, 7, 100) for w in (1, 20, 256)]


@pytest.mark.parametrize("batch,width", SHAPES)
def test_linear_matches_reference_bitwise(batch, width):
    rng = np.random.default_rng(batch * 1000 + width)
    lin = Linear(width, width, "fc", make_rng(1))
    lin.bias.values[...] = rng.normal(size=width)
    x, g = rng.normal(size=(batch, width)), rng.normal(size=(batch, width))
    y_ref, dw_ref, db_ref, dx_ref = ref_linear(x, lin.weight.values, lin.bias.values, g)
    assert_same_bits(run_unchanged(lambda a: lin.forward(a, train=False), x), y_ref)
    assert_same_bits(run_unchanged(lambda a: lin.forward(a, train=True), x), y_ref)
    lin.weight.grad.fill(np.nan)
    lin.bias.grad.fill(np.nan)
    assert_same_bits(run_unchanged(lin.backward, g), dx_ref)
    assert_same_bits(lin.weight.grad, dw_ref)
    assert_same_bits(lin.bias.grad, db_ref)


@pytest.mark.parametrize("batch,width", SHAPES)
def test_relu_matches_reference_bitwise(batch, width):
    rng = np.random.default_rng(batch * 1000 + width + 1)
    x, g = rng.normal(size=(batch, width)), rng.normal(size=(batch, width))
    y_ref, dx_ref = ref_relu(x, g)
    relu = ReLU()
    assert_same_bits(run_unchanged(lambda a: relu.forward(a, train=False), x), y_ref)
    assert_same_bits(run_unchanged(lambda a: relu.forward(a, train=True), x), y_ref)
    assert_same_bits(run_unchanged(relu.backward, g), dx_ref)


@pytest.mark.parametrize("p", [0.0, 0.3])
@pytest.mark.parametrize("batch,width", SHAPES)
def test_dropout_matches_reference_bitwise(batch, width, p):
    rng = np.random.default_rng(batch * 1000 + width + 2)
    x, g = rng.normal(size=(batch, width)), rng.normal(size=(batch, width))
    mask = make_rng(9).random(x.shape) >= p if p else np.ones(x.shape, dtype=bool)
    y_ref, dx_ref = ref_dropout(x, mask, p, g)
    drop = Dropout(p)
    assert_same_bits(run_unchanged(lambda a: drop.forward(a, train=False), x), x)
    assert_same_bits(run_unchanged(lambda a: drop.forward(a, train=True, rng=make_rng(9)), x), y_ref)
    assert_same_bits(run_unchanged(drop.backward, g), dx_ref)


@pytest.mark.parametrize("batch,width", SHAPES)
def test_batchnorm_matches_reference_bitwise(batch, width):
    rng = np.random.default_rng(batch * 1000 + width + 3)
    x = rng.normal(loc=2.0, scale=3.0, size=(batch, width))
    g = rng.normal(size=(batch, width))
    bn = BatchNorm1d(width, "bn")
    bn.gamma.values[...] = rng.uniform(0.5, 1.5, width)
    bn.beta.values[...] = rng.normal(size=width)
    y_ref, dgamma_ref, dbeta_ref, dx_ref, mean_ref, var_ref = ref_batchnorm_train(
        x, bn.gamma.values, bn.beta.values, g)
    assert_same_bits(run_unchanged(lambda a: bn.forward(a, train=True), x), y_ref)
    assert_same_bits(bn.running_mean, mean_ref)
    assert_same_bits(bn.running_var, var_ref)
    bn.gamma.grad.fill(np.nan)
    bn.beta.grad.fill(np.nan)
    assert_same_bits(run_unchanged(bn.backward, g), dx_ref)
    assert_same_bits(bn.gamma.grad, dgamma_ref)
    assert_same_bits(bn.beta.grad, dbeta_ref)
    eval_ref = ref_batchnorm_eval(x, bn.gamma.values, bn.beta.values, bn.running_mean, bn.running_var)
    assert_same_bits(run_unchanged(lambda a: bn.forward(a, train=False), x), eval_ref)
