import errno
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from geomshot.dataio import build_catalog, save_split, stratified_split
from geomshot.nnet import EncoderConfig, MLPEncoder, ParamBuffer, ParamTensor
from geomshot.synth import SynthSpec, generate_corpus

# Every property test draws the same examples on every run and machine, with
# no time limit per example and no example database written to disk.
settings.register_profile("geomshot", deadline=None, database=None, derandomize=True)
settings.load_profile("geomshot")


def traced_peak(fn):
    """``(fn(), peak)``: the peak, in bytes, of the memory allocated while ``fn`` ran and traced by tracemalloc."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_WRITE_TEXT = Path.write_text


def write_half_then_fail(path: Path, text: str, *args, **kwargs):
    """A ``Path.write_text`` stand-in that writes half of ``text`` and then fails, as a full disk would."""
    _WRITE_TEXT(path, text[: len(text) // 2], *args, **kwargs)
    raise OSError(errno.ENOSPC, "No space left on device")


def packed(*params: ParamTensor) -> ParamBuffer:
    """A buffer over a new flat array with ``params`` moved in: their values, and their gradients into its own."""
    values, grads = (np.concatenate([getattr(p, a).ravel() for p in params]) for a in ("values", "grad"))
    for p, start in zip(params, np.cumsum([0] + [p.values.size for p in params])):
        p.values = values[start:start + p.values.size].reshape(p.values.shape)
    buffer = ParamBuffer(values, list(params))
    buffer.bind_grad()[...] = grads
    return buffer


def named_state_arrays(enc: MLPEncoder) -> dict[str, np.ndarray]:
    """Each parameter's values and each BatchNorm's running statistics, as the layers hold them."""
    arrays = {p.name: p.values for p in enc.parameters()}
    for i, bn in enumerate(enc.layers[1::4], start=1):
        arrays[f"bn{i}.running_mean"], arrays[f"bn{i}.running_var"] = bn.running_mean, bn.running_var
    return arrays


def named_state(config: EncoderConfig, state: np.ndarray) -> dict[str, np.ndarray]:
    """``named_state_arrays`` of an encoder over ``state``."""
    return named_state_arrays(MLPEncoder.from_state(config, state))


def random_hand(rng: np.random.Generator) -> np.ndarray:
    """A generic random hand; generically non-degenerate."""
    return rng.normal(scale=1.0, size=(21, 3))


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """6-class synthetic tree with a 70/30 split, shared across tests."""
    root = tmp_path_factory.mktemp("corpus")
    spec = SynthSpec(n_classes=6, per_class=40, noise=0.03, transforms=True, seed=11)
    generate_corpus(spec, root)
    catalog = build_catalog(root)
    split = stratified_split(catalog, 0.7, 42)
    split_path = root / "split.json"
    save_split(split, split_path)
    return {"root": root, "spec": spec, "catalog": catalog, "split_path": split_path}
