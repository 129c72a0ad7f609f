"""Deterministic random-number streams.

All randomness in the package flows through one named, platform-independent
generator: numpy's PCG64, seeded through ``SeedSequence``. Two seeding
recipes are used and documented here:

* ``make_rng(*parts)`` -- general streams (split shuffles, weight init,
  dropout masks, synthetic data). The integer parts are fed to
  ``SeedSequence([part0, part1, ...])``, so distinct part tuples give
  independent streams. Negative parts are refused, not wrapped to 64 bits.
* ``episode_rng(base_seed, episode_index)`` -- episode sampling uses the
  literal sum ``base_seed + episode_index`` as the PCG64 seed, so episode
  composition is reproducible from those two integers alone.

Fixed stream tags keep unrelated consumers of ``make_rng`` disjoint.
"""

from __future__ import annotations

import numpy as np

# Stream tags for make_rng; values are arbitrary but frozen.
STREAM_SPLIT = 1
STREAM_INIT = 2
STREAM_DROPOUT = 3
STREAM_MONITOR = 4
STREAM_SYNTH_DICT = 5
STREAM_SYNTH_SAMPLE = 6


def check_seed(name: str, value) -> None:
    """Require a non-negative integer seed, as PCG64 does; bools are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


def make_rng(*parts: int) -> np.random.Generator:
    """Return a PCG64 generator for the given non-negative integer seed components."""
    if not parts:
        raise ValueError("make_rng needs at least one seed component")
    entropy = [int(p) for p in parts]
    if min(entropy) < 0:
        raise ValueError(f"make_rng seed components must be non-negative, got {entropy}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def episode_rng(base_seed: int, episode_index: int) -> np.random.Generator:
    """Generator for one episode: PCG64 seeded with base_seed + episode_index."""
    return np.random.Generator(np.random.PCG64(int(base_seed) + int(episode_index)))
