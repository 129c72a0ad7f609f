"""Dense layers with explicit forward/backward passes, float64 throughout.

Layers cache activations only on train-mode forwards; eval-mode forwards
are pure. backward() consumes the cache, so calling it twice, or after an
eval forward, raises CacheError.

A layer never writes into an array its caller passed in: forward and
backward compute in place only in arrays they allocated in the same call
(dropout at p = 0, or in eval mode, passes its argument through as is).
backward() writes (does not add) each parameter gradient straight into
that tensor's ``grad``, so one backward sets every gradient of the layers
it runs and no zeroing is needed between steps.
"""

from __future__ import annotations

import numpy as np

from ..errors import BatchTooSmall, CacheError

F64 = np.float64
BN_EPS = 1e-5
BN_MOMENTUM = 0.1


class ParamTensor:
    """Named trainable array with a same-shaped gradient that backward writes."""

    __slots__ = ("name", "values", "grad")

    def __init__(self, name: str, values: np.ndarray):
        self.name = name
        self.values = np.asarray(values, dtype=F64)
        self.grad = np.zeros_like(self.values)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"ParamTensor({self.name!r}, shape={self.values.shape})"


class ParamBuffer:
    """Tensors whose ``values``/``grad`` are reshaped views, in order, of one flat
    ``values`` and one flat ``grad`` array: an encoder adds each layer's as it is built."""

    def __init__(self, values: np.ndarray, grad: np.ndarray):
        self.values, self.grad = values, grad
        self.params: list[ParamTensor] = []

    def add(self, params: list[ParamTensor], keep_values: bool = False) -> None:
        """Moves each tensor into the next views: its gradient is copied in, and
        its values too, unless ``keep_values`` keeps those the array holds."""
        for p in params:
            start, shape = sum(q.values.size for q in self.params), p.values.shape
            values, grad = (a[start:start + p.values.size].reshape(shape) for a in (self.values, self.grad))
            if not keep_values:
                values[...] = p.values
            grad[...] = p.grad
            p.values, p.grad = values, grad
            self.params.append(p)

    def tail(self, n: int) -> "ParamBuffer":
        """The last ``n`` tensors, as a buffer over the same memory."""
        params = self.params[len(self.params) - n:]
        start = self.values.size - sum(p.values.size for p in params)
        tail = ParamBuffer(self.values[start:], self.grad[start:])
        tail.params = params
        return tail


class Layer:
    def parameters(self) -> list[ParamTensor]:
        return []

    def forward(self, x: np.ndarray, train: bool, rng=None) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _take_cache(self):
        cache = getattr(self, "_cache", None)
        if cache is None:
            raise CacheError(f"{type(self).__name__}.backward without train-mode forward")
        self._cache = None
        return cache


class Linear(Layer):
    """y = x @ W + b with Kaiming-uniform weight init and zero biases.

    Weights are drawn from U(-sqrt(6/fan_in), +sqrt(6/fan_in)) (ReLU gain);
    without an ``rng`` none are drawn and the weight is left unset.
    """

    def __init__(self, in_dim: int, out_dim: int, name: str, rng: np.random.Generator | None):
        bound = np.sqrt(6.0 / in_dim)
        init = np.empty((in_dim, out_dim)) if rng is None else rng.uniform(-bound, bound, (in_dim, out_dim))
        self.weight = ParamTensor(f"{name}.weight", init)
        self.bias = ParamTensor(f"{name}.bias", np.zeros(out_dim))
        self._cache = None

    def parameters(self):
        return [self.weight, self.bias]

    def forward(self, x, train, rng=None):
        self._cache = x if train else None
        y = x @ self.weight.values
        y += self.bias.values
        return y

    def backward(self, grad_out, input_grad: bool = True):
        """Write the parameter gradients; return the input gradient, or None
        without ``input_grad`` (the first trained layer's has no reader)."""
        x = self._take_cache()
        np.matmul(x.T, grad_out, out=self.weight.grad)
        np.sum(grad_out, axis=0, out=self.bias.grad)
        return grad_out @ self.weight.values.T if input_grad else None


class ReLU(Layer):
    def __init__(self):
        self._cache = None

    def forward(self, x, train, rng=None):
        if train:
            self._cache = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_out):
        mask = self._take_cache()
        return grad_out * mask


class Dropout(Layer):
    """Inverted dropout: train-mode activations scale by 1/(1-p)."""

    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise ValueError("dropout p must be in [0, 1)")
        self.p = p
        self._cache = None
        self.last_mask: np.ndarray | None = None

    def forward(self, x, train, rng=None):
        if not train or self.p == 0.0:
            if train:
                self._cache = np.ones_like(x, dtype=bool)
                self.last_mask = self._cache
            return x
        if rng is None:
            raise ValueError("train-mode dropout needs an rng")
        y = rng.random(x.shape)
        mask = y >= self.p
        self._cache = mask
        self.last_mask = mask
        np.multiply(x, mask, out=y)  # the uniform draws are spent: y holds the output
        y /= 1.0 - self.p
        return y

    def backward(self, grad_out):
        mask = self._take_cache()
        if self.p == 0.0:
            return grad_out
        g = grad_out * mask
        g /= 1.0 - self.p
        return g


class BatchNorm1d(Layer):
    """Per-feature batch normalization with affine parameters.

    Train mode normalizes by biased batch statistics and updates running
    statistics (momentum 0.1, unbiased variance, as mainstream frameworks
    do); eval mode uses the running statistics and never mutates state.
    """

    def __init__(self, dim: int, name: str):
        self.gamma = ParamTensor(f"{name}.gamma", np.ones(dim))
        self.beta = ParamTensor(f"{name}.beta", np.zeros(dim))
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self._cache = None

    def parameters(self):
        return [self.gamma, self.beta]

    def forward(self, x, train, rng=None):
        if not train:
            inv_std = 1.0 / np.sqrt(self.running_var + BN_EPS)
            y = x - self.running_mean
            np.multiply(self.gamma.values, y, out=y)
            y *= inv_std
            y += self.beta.values
            return y
        n = x.shape[0]
        if n < 2:
            raise BatchTooSmall("batch normalization needs a batch of >= 2 in train mode")
        mean = x.mean(axis=0)
        xhat = x - mean  # x - mean once, for the variance and for xhat: the bits of x.var()
        y = np.square(xhat)
        var = y.sum(axis=0) / n
        inv_std = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= inv_std
        m = BN_MOMENTUM
        self.running_mean *= 1.0 - m
        self.running_mean += m * mean
        self.running_var *= 1.0 - m
        self.running_var += m * var * n / (n - 1)
        self._cache = (xhat, inv_std, n)
        np.multiply(self.gamma.values, xhat, out=y)
        y += self.beta.values
        return y

    def backward(self, grad_out):
        xhat, inv_std, n = self._take_cache()
        work = grad_out * xhat
        np.sum(work, axis=0, out=self.gamma.grad)
        np.sum(grad_out, axis=0, out=self.beta.grad)
        dx = grad_out * self.gamma.values  # dxhat, turned into the input gradient in place
        dxhat_sum = dx.sum(axis=0)
        proj = np.multiply(dx, xhat, out=work).sum(axis=0)
        np.multiply(xhat, proj, out=work)
        # Batch-coupled backward, as (inv_std / n) * (n * dxhat - dxhat_sum - xhat * proj):
        # both mean and variance depend on every row.
        dx *= n
        dx -= dxhat_sum
        dx -= work
        dx *= inv_std / n
        return dx
