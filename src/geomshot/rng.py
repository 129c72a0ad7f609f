"""Deterministic random-number streams.

All randomness in the package flows through one named, platform-independent
generator: numpy's PCG64, seeded through ``SeedSequence``. Two seeding
recipes are used and documented here:

* ``make_rng(*parts)`` -- general streams (split shuffles, weight init,
  dropout masks, synthetic data). The integer parts are fed to
  ``SeedSequence([part0, part1, ...])``, so distinct part tuples give
  independent streams. Parts that are negative, fractional or bool are refused,
  not wrapped to 64 bits or truncated.
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


def is_seed(value) -> bool:
    """A non-negative integer, numpy's included; bools are not seeds."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer)) and value >= 0


def check_seed(name: str, value) -> None:
    """Require a non-negative integer seed, as PCG64 does; bools are refused."""
    if not is_seed(value):
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


def make_rng(*parts: int) -> np.random.Generator:
    """Return a PCG64 generator for the given non-negative integer seed components."""
    if not parts or not all(map(is_seed, parts)):
        raise ValueError(f"make_rng needs non-negative integer seed components, got {parts!r}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(p) for p in parts])))


def episode_rng(base_seed: int, episode_index: int) -> np.random.Generator:
    """Generator for one episode: PCG64 seeded with base_seed + episode_index."""
    return np.random.Generator(np.random.PCG64(int(base_seed) + int(episode_index)))
