"""MLP encoder: [Linear -> BatchNorm1d -> ReLU -> Dropout] blocks + projection.

The default configuration (two 256-unit hidden blocks, 128-D output,
dropout 0.3) has 105,088 / 116,096 / 121,216 trainable parameters for
input dimensions 20 / 63 / 83. The count covers Linear weights+biases and
BatchNorm scale+shift; BatchNorm running statistics are buffers and are
not counted (this accounting is pinned by test_encoder).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import CacheError, ShapeError
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

    def tensor_names(self) -> list[str]:
        """Every checkpointed tensor: trainable params plus running stats."""
        names = []
        for i in range(1, self.num_hidden + 1):
            names += [f"fc{i}.weight", f"fc{i}.bias", f"bn{i}.gamma", f"bn{i}.beta"]
        names += ["head.weight", "head.bias"]
        for i in range(1, self.num_hidden + 1):
            names += [f"bn{i}.running_mean", f"bn{i}.running_var"]
        return names


class MLPEncoder:
    """Maps (B, input_dim) batches to (B, embed_dim) embeddings.

    Weight initialization draws from the stream
    make_rng(STREAM_INIT, seed) in layer order, so an
    (EncoderConfig, seed) pair fully determines the initial parameters.
    """

    def __init__(self, config: EncoderConfig, seed: int):
        self.config = config
        rng = make_rng(STREAM_INIT, seed)
        self.layers = []
        in_dim = config.input_dim
        for i in range(1, config.num_hidden + 1):
            self.layers.append(Linear(in_dim, config.hidden_dim, f"fc{i}", rng))
            self.layers.append(BatchNorm1d(config.hidden_dim, f"bn{i}"))
            self.layers.append(ReLU())
            self.layers.append(Dropout(config.dropout_p))
            in_dim = config.hidden_dim
        self.head = Linear(in_dim, config.embed_dim, "head", rng)
        self.layers.append(self.head)
        # Packed after every layer has drawn its init, in layer order, so the
        # head's tensors come last and head-only training is a tail slice.
        self.flat = ParamBuffer([p for layer in self.layers for p in layer.parameters()])
        self._train_forward = False

    # -- parameter access -------------------------------------------------

    def parameters(self) -> list[ParamTensor]:
        return list(self.flat.params)

    def buffers(self) -> list[tuple[str, np.ndarray]]:
        return [buf for layer in self.layers for buf in layer.buffers()]

    def head_parameters(self) -> ParamBuffer:
        return self.flat.tail(2)

    def param_count(self) -> int:
        return self.flat.values.size

    def zero_grad(self) -> None:
        self.flat.grad.fill(0.0)

    def state(self) -> dict[str, np.ndarray]:
        out = dict(zip([p.name for p in self.flat.params], self.flat.split(self.flat.values.copy())))
        out.update({name: buf.copy() for name, buf in self.buffers()})
        return out

    def set_state(self, state: dict[str, np.ndarray]) -> None:
        for name, dst in [(p.name, p.values) for p in self.flat.params] + self.buffers():
            if name not in state:
                raise ShapeError(f"state is missing tensor {name}")
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != dst.shape:
                raise ShapeError(f"{name}: shape {arr.shape} != {dst.shape}")
            dst[...] = arr

    # -- forward / backward ------------------------------------------------

    def _check_input(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.config.input_dim:
            raise ShapeError(
                f"expected (B, {self.config.input_dim}) input, got {x.shape}"
            )
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
        self._train_forward = train
        return x

    def backward(self, grad_embeddings: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Accumulate parameter gradients; return the input gradient, or None
        without ``input_grad``, which skips fc1's input-gradient product."""
        if not self._train_forward:
            raise CacheError("backward requires a preceding train-mode forward")
        self._train_forward = False
        g = np.asarray(grad_embeddings, dtype=np.float64)
        for layer in reversed(self.layers[1:]):
            g = layer.backward(g)
        return self.layers[0].backward(g, input_grad)

    def backbone_forward(self, x: np.ndarray) -> np.ndarray:
        """Eval-mode features right before the final projection."""
        x = self._check_input(x)
        for layer in self.layers[:-1]:
            x = layer.forward(x, train=False)
        return x
