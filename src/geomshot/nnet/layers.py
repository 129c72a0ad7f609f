"""Dense layers with explicit forward/backward passes, float64 throughout.

Layers cache activations only on train-mode forwards; an eval-mode forward
drops the cache. backward() consumes it, so calling it twice, or after an
eval forward, raises CacheError.

A layer built on its own allocates its arrays and zero gradients; one built
over ``arrays`` (views of an encoder's state) has no gradient until a
``ParamBuffer`` binds one, and a backward before that raises CacheError.

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
    """Named trainable array; its same-shaped ``grad``, which backward writes, is a new zero array or None."""

    __slots__ = ("name", "values", "grad")

    def __init__(self, name: str, values: np.ndarray, grad: bool = True):
        self.name = name
        self.values = np.asarray(values, dtype=F64)
        self.grad = np.zeros_like(self.values) if grad else None

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:
        return f"ParamTensor({self.name!r}, shape={self.values.shape})"


class ParamBuffer:
    """Tensors whose ``values`` (and, once bound, ``grad``) are reshaped views, in order, of one flat array."""

    def __init__(self, values: np.ndarray, params: list[ParamTensor]):
        self.values, self.params = values, params
        self.grad: np.ndarray | None = None

    def bind_grad(self) -> np.ndarray:
        """The flat gradient; the first call binds a zero one, a view per tensor, and refuses a tensor that has one."""
        if self.grad is None:
            if owned := [p.name for p in self.params if p.grad is not None]:
                raise CacheError(f"gradient already bound to {', '.join(owned)}")
            self.grad, start = np.zeros_like(self.values), 0
            for p in self.params:
                p.grad = self.grad[start:start + p.values.size].reshape(p.values.shape)
                start += p.values.size
        return self.grad


class Layer:
    """What every layer shares; each defines ``forward(x, train, rng=None)`` and ``backward(grad_out)``."""

    _cache = None  # what a train-mode forward leaves for backward

    def parameters(self) -> list[ParamTensor]:
        return []

    def check_grad(self) -> None:
        """Raises CacheError unless every parameter has a gradient for backward to write."""
        if any(p.grad is None for p in self.parameters()):
            raise CacheError(f"{type(self).__name__}.backward with no gradient bound to its parameters")

    def _take_cache(self):
        self.check_grad()
        cache = self._cache
        if cache is None:
            raise CacheError(f"{type(self).__name__}.backward without train-mode forward")
        self._cache = None
        return cache


class Linear(Layer):
    """y = x @ W + b with Kaiming-uniform weight init and zero biases.

    Built over ``arrays`` (weight, bias), or new zeros. With an ``rng`` the weight is drawn from
    U(-sqrt(6/fan_in), +sqrt(6/fan_in)) (ReLU gain) in place and the bias zeroed; without one both are kept.
    """

    def __init__(self, in_dim: int, out_dim: int, name: str, rng: np.random.Generator | None,
                 arrays: tuple[np.ndarray, np.ndarray] | None = None):
        weight, bias = arrays or (np.zeros((in_dim, out_dim)), np.zeros(out_dim))
        if rng is not None:
            bound = np.sqrt(6.0 / in_dim)
            rng.random(out=weight)  # in place, the bits of rng.uniform(-bound, bound, weight.shape)
            weight *= 2.0 * bound
            weight -= bound
            bias.fill(0.0)
        self.weight = ParamTensor(f"{name}.weight", weight, arrays is None)
        self.bias = ParamTensor(f"{name}.bias", bias, arrays is None)

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
    def forward(self, x, train, rng=None):
        self._cache = x > 0 if train else None
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

    def forward(self, x, train, rng=None):
        if not train or self.p == 0.0:
            self._cache = np.ones_like(x, dtype=bool) if train else None
            return x
        if rng is None:
            raise ValueError("train-mode dropout needs an rng")
        y = rng.random(x.shape)
        mask = self._cache = y >= self.p
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
    do); eval mode uses the running statistics and never mutates them.
    Built over ``arrays`` (gamma, beta, running mean and variance) as they are, or new ones set by ``reset``.
    """

    def __init__(self, dim: int, name: str, arrays: tuple[np.ndarray, ...] | None = None):
        gamma, beta, self.running_mean, self.running_var = arrays or (np.empty(dim) for _ in range(4))
        self.gamma = ParamTensor(f"{name}.gamma", gamma, arrays is None)
        self.beta = ParamTensor(f"{name}.beta", beta, arrays is None)
        if arrays is None:
            self.reset()

    def reset(self) -> None:
        """Sets the identity: unit scale and variance, zero shift and mean."""
        for a, value in zip((self.gamma.values, self.beta.values, self.running_mean, self.running_var), (1, 0, 0, 1)):
            a.fill(value)

    def parameters(self):
        return [self.gamma, self.beta]

    def forward(self, x, train, rng=None):
        if not train:
            self._cache = None
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
