"""MLP encoder: [Linear -> BatchNorm1d -> ReLU -> Dropout] blocks + projection.

The default configuration (two 256-unit hidden blocks, 128-D output,
dropout 0.3) has 105,088 / 116,096 / 121,216 trainable parameters for
input dimensions 20 / 63 / 83. The count covers Linear weights+biases and
BatchNorm scale+shift, not the BatchNorm running statistics (pinned by
test_encoder). The whole state is one float64 array of ``state_size()``
values laid out by ``tensor_table`` (the checkpoint's layout too). Each
layer is built over its views of it: a new encoder draws its init into
them, a loaded one keeps them. Only what trains gets a gradient, bound by
AdamW or ``zero_grad``; forward and backward never bind one, and backward
checks that every layer has one before it writes any.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ..errors import ShapeError
from ..rng import STREAM_INIT, make_rng
from ..schema import check_fields, setting
from .layers import BatchNorm1d, Dropout, Linear, ParamBuffer, ParamTensor, ReLU


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int = setting(ge=1)
    hidden_dim: int = setting(256, ge=1)
    num_hidden: int = setting(2, ge=1)
    embed_dim: int = setting(128, ge=1)
    dropout_p: float = setting(0.3, ge=0, lt=1)

    def __post_init__(self):
        check_fields(self, "encoder")

    def param_count(self) -> int:
        h = self.hidden_dim
        return (self.input_dim + 3) * h + (self.num_hidden - 1) * (h + 3) * h + (h + 1) * self.embed_dim

    def state_size(self) -> int:
        """The state array's length: the trainable parameters, then each BatchNorm's running mean and variance."""
        return self.param_count() + 2 * self.num_hidden * self.hidden_dim


def tensor_table(config: EncoderConfig) -> list[dict]:
    """Each state tensor's name, dtype, shape and byte offset in the state array, in payload order."""
    h, layers, shapes = config.hidden_dim, range(1, config.num_hidden + 1), []
    for i in layers:
        shapes += [(f"fc{i}.weight", [h if i > 1 else config.input_dim, h]), (f"fc{i}.bias", [h])]
        shapes += [(f"bn{i}.gamma", [h]), (f"bn{i}.beta", [h])]
    shapes += [("head.weight", [h, config.embed_dim]), ("head.bias", [config.embed_dim])]
    shapes += [(f"bn{i}.{stat}", [h]) for i in layers for stat in ("running_mean", "running_var")]
    offsets = itertools.accumulate((8 * math.prod(shape) for _, shape in shapes), initial=0)
    return [{"name": name, "dtype": "<f8", "shape": shape, "byte_offset": offset}
            for (name, shape), offset in zip(shapes, offsets)]


class MLPEncoder:
    """Maps (B, input_dim) batches to (B, embed_dim) embeddings.

    Weight initialization draws from the stream
    make_rng(STREAM_INIT, seed) in layer order, so an
    (EncoderConfig, seed) pair fully determines the initial parameters.
    """

    def __init__(self, config: EncoderConfig, seed: int):
        self._build(config, np.empty(config.state_size()), make_rng(STREAM_INIT, seed))

    @classmethod
    def from_state(cls, config: EncoderConfig, state_array: np.ndarray) -> "MLPEncoder":
        """An encoder over ``state_array`` as is (a checkpoint's payload); no init is drawn."""
        encoder = cls.__new__(cls)
        encoder._build(config, state_array, None)
        return encoder

    def _build(self, config: EncoderConfig, state_array: np.ndarray, rng: np.random.Generator | None) -> None:
        """Builds the layers over views of ``state_array``, drawing each init into them (none without rng)."""
        self.config, self.state_array = config, state_array
        views = {e["name"]: np.ndarray(e["shape"], buffer=state_array, offset=e["byte_offset"])
                 for e in tensor_table(config)}
        self.layers = []
        for i in range(1, config.num_hidden + 1):
            fc = Linear(config.hidden_dim if i > 1 else config.input_dim, config.hidden_dim, f"fc{i}", rng,
                        (views[f"fc{i}.weight"], views[f"fc{i}.bias"]))
            bn = BatchNorm1d(config.hidden_dim, f"bn{i}",
                             tuple(views[f"bn{i}.{t}"] for t in ("gamma", "beta", "running_mean", "running_var")))
            if rng is not None:
                bn.reset()
            self.layers += [fc, bn, ReLU(), Dropout(config.dropout_p)]
        self.head = Linear(config.hidden_dim, config.embed_dim, "head", rng, (views["head.weight"], views["head.bias"]))
        self.layers.append(self.head)
        params = [p for layer in self.layers for p in layer.parameters()]  # in table order: the head comes last
        self.flat = ParamBuffer(state_array[:config.param_count()], params)

    # -- state access -----------------------------------------------------

    def parameters(self) -> list[ParamTensor]:
        return list(self.flat.params)

    def head_parameters(self) -> ParamBuffer:
        """The head's tensors, as a buffer over the last values of ``flat``."""
        params = self.head.parameters()
        return ParamBuffer(self.flat.values[-sum(p.values.size for p in params):], params)

    def param_count(self) -> int:
        return self.flat.values.size

    def zero_grad(self) -> None:
        self.flat.bind_grad().fill(0.0)

    def state(self) -> np.ndarray:
        return self.state_array.copy()

    def set_state(self, state: np.ndarray) -> None:
        if np.shape(state) != self.state_array.shape:
            raise ShapeError(f"state shape {np.shape(state)} != {self.state_array.shape}")
        self.state_array[...] = state

    # -- forward / backward ------------------------------------------------

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.config.input_dim:
            raise ShapeError(f"expected (B, {self.config.input_dim}) input, got {x.shape}")
        if x.shape[0] < 1:
            raise ShapeError("empty batch")
        return x

    def forward(self, x: np.ndarray, train: bool, rng: np.random.Generator | None = None) -> np.ndarray:
        """Full forward pass. Train mode needs B >= 2 and an rng for dropout."""
        x = self._check_input(x)
        if train and self.config.dropout_p > 0.0 and rng is None:
            raise ValueError("train-mode forward needs an rng for dropout")
        for layer in self.layers:
            x = layer.forward(x, train, rng)
        return x

    def backward(self, grad_embeddings: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Write the bound parameter gradients; return the input gradient, or None without ``input_grad``
        (fc1's input-gradient product skipped). A layer with no gradient bound, or an eval forward (found
        at the head), raises CacheError before any gradient is written."""
        for layer in self.layers:
            layer.check_grad()
        g = np.asarray(grad_embeddings, dtype=np.float64)
        for layer in reversed(self.layers[1:]):
            g = layer.backward(g)
        return self.layers[0].backward(g, input_grad)

    def backbone_forward(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode features right before the final projection."""
        x = self._check_input(x)
        for layer in self.layers[:-1]:
            x = layer.forward(x, train=False)
        self.head._cache = None  # so a backward now is refused at the head, before it writes a gradient
        return x
