"""Deterministic N-way K-shot episode sampling.

Each episode owns a PCG64 generator seeded with the literal integer sum
``base_seed + episode_index``; composition is a pure function of the pool
content/order and those two integers. The stream is pinned to numpy's
``Generator.choice(…, replace=False)``: the classes are
``choice(C, N)`` over the sorted class ids, then each drawn class, in draw
order, gives ``choice(n_c, K+Q)`` over its items, the first K forming the
support set. Episode class labels are relabelled to 0..N-1 in class draw
order.

Those choices are made without calling ``choice``. For a population of
at most 10,000, or a sample of at most ``pop // 50``, numpy's ``choice``
is Floyd's algorithm over bounded draws ``0..j`` for
``j = pop-size … pop-1``, then a shuffle over bounds ``size-1 … 1``;
otherwise it is a tail shuffle of ``arange(pop)`` over bounds
``pop-1 … max(pop-size, 1)``. Every bound is known before its stage
draws, and a bound of 0 draws nothing, so an episode makes one
``integers(0, bounds, endpoint=True)`` call for its class stage and one
for all N item stages (each class's bounds zero-padded to one width).
Those draws are then turned into choices for every episode of a batch at
once. ``tests/test_episodes.py`` keeps the per-episode ``choice`` loop as
the reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import InsufficientClasses, InsufficientSamples
from .rng import episode_rng

# numpy's Generator.choice(pop, size, replace=False) runs Floyd's algorithm
# unless pop exceeds this and size exceeds pop // 50.
_FLOYD_MAX_POP = 10_000


@dataclass(frozen=True)
class EpisodeSpec:
    n_way: int
    k_shot: int
    q_query: int
    base_seed: int
    episode_index: int

    def __post_init__(self):
        if self.n_way < 2 or self.k_shot < 1 or self.q_query < 1:
            raise ValueError("need n_way >= 2, k_shot >= 1, q_query >= 1")


@dataclass
class Episode:
    """Support/query items with relabelled classes.

    ``class_map`` maps original class ids to relabelled ids 0..N-1;
    items are whatever the pool lists contain (samples, indices, ...).
    """

    class_map: dict[Any, int]
    support_items: list
    support_labels: np.ndarray
    query_items: list
    query_labels: np.ndarray

    @property
    def original_classes(self) -> list:
        inv = {v: k for k, v in self.class_map.items()}
        return [inv[i] for i in range(len(inv))]


@dataclass
class Episodes:
    """E consecutive episodes of one spec as arrays; row e is episode ``episode_index + e``.

    ``classes (E, N)`` holds the original class ids in draw order, so
    relabelled class j of row e is ``classes[e, j]``. ``support (E, N*K)``
    and ``query (E, N*Q)`` hold pool items, class-major as in ``Episode``.
    Every row shares ``support_labels (N*K,)`` and ``query_labels (N*Q,)``.
    """

    classes: np.ndarray
    support: np.ndarray
    query: np.ndarray
    support_labels: np.ndarray
    query_labels: np.ndarray

    def __len__(self) -> int:
        return len(self.classes)


def _tail_shuffled(pops: np.ndarray, size: int) -> np.ndarray:
    return (pops > _FLOYD_MAX_POP) & (size > pops // 50)


def _choice_bounds(pops: np.ndarray, size: int) -> np.ndarray:
    """Row r: the bounds of the draws ``choice(pops[r], size, replace=False)`` makes, zero-padded."""
    rows = [
        np.arange(pop - 1, max(pop - size, 1) - 1, -1)
        if tail
        else np.concatenate([np.arange(pop - size, pop), np.arange(size - 1, 0, -1)])
        for pop, tail in zip(pops.tolist(), _tail_shuffled(pops, size).tolist())
    ]
    table = np.zeros((len(rows), max(map(len, rows))), dtype=np.int64)
    for row, bounds in zip(table, rows):
        row[: len(bounds)] = bounds
    return table


def _choose(draws: np.ndarray, pops: np.ndarray, size: int) -> np.ndarray:
    """Row r of ``choice(pops[r], size, replace=False)``, from that call's bounded draws ``draws[r]``."""
    picks = np.empty((len(pops), size), dtype=np.int64)
    floyd = ~_tail_shuffled(pops, size)
    if floyd.any():
        d, first = draws[floyd], pops[floyd] - size
        chosen = np.empty((len(d), size), dtype=np.int64)
        for t in range(size):
            # Floyd: keep the draw unless the row already holds it, else take pop - size + t.
            seen = (chosen[:, :t] == d[:, t, None]).any(axis=1)
            chosen[:, t] = np.where(seen, first + t, d[:, t])
        rows = np.arange(len(d))
        for t, i in enumerate(range(size - 1, 0, -1)):
            j = d[:, size + t]
            chosen[:, i], chosen[rows, j] = chosen[rows, j], chosen[:, i].copy()
        picks[floyd] = chosen
    for r in np.flatnonzero(~floyd):
        pop = int(pops[r])
        moved: dict[int, int] = {}  # the entries of arange(pop) that the shuffle swapped
        for i, j in zip(range(pop - 1, max(pop - size, 1) - 1, -1), draws[r].tolist()):
            moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
        picks[r] = [moved.get(k, k) for k in range(pop - size, pop)]
    return picks


def _draw(class_ids: list, sizes: np.ndarray, spec: EpisodeSpec, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Class positions ``(count, N)`` and item positions ``(count, N, K+Q)`` of ``count`` episodes."""
    n, need = spec.n_way, spec.k_shot + spec.q_query
    rngs = [episode_rng(spec.base_seed, spec.episode_index + e) for e in range(count)]
    class_bounds = _choice_bounds(np.array([len(sizes)]), n)[0]
    class_draws = np.stack([rng.integers(0, class_bounds, endpoint=True) for rng in rngs])
    classes = _choose(class_draws, np.full(count, len(sizes)), n)
    short = sizes[classes].ravel() < need
    if short.any():
        c = int(classes.ravel()[short.argmax()])
        raise InsufficientSamples(f"class {class_ids[c]!r} has {sizes[c]} samples, episode needs {need}")
    item_bounds = _choice_bounds(sizes, need)  # a short class's row is never drawn: that raised above
    item_draws = np.stack([rng.integers(0, item_bounds[row].ravel(), endpoint=True) for rng, row in zip(rngs, classes)])
    picks = _choose(item_draws.reshape(count * n, -1), sizes[classes].ravel(), need)
    return classes, picks.reshape(count, n, need)


def sample_episode(pool: Mapping[Any, Sequence], spec: EpisodeSpec, count: int | None = None) -> Episode | Episodes:
    """Draw episode ``spec.episode_index`` from per-class item lists, or ``count`` episodes from it on.

    As numpy's ``size=None``: without ``count`` the result is one
    ``Episode`` of the pool's own items; with ``count=E`` it is an
    ``Episodes`` batch whose row e equals the ``Episode`` at index
    ``spec.episode_index + e``.
    """
    class_ids = sorted(pool.keys())
    if len(class_ids) < spec.n_way:
        raise InsufficientClasses(
            f"need {spec.n_way} classes, pool has {len(class_ids)}"
        )
    if count is not None and count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    items = [pool[c] for c in class_ids]
    sizes = np.array([len(x) for x in items], dtype=np.int64)
    classes, picks = _draw(class_ids, sizes, spec, 1 if count is None else count)
    k = spec.k_shot
    support_labels = np.repeat(np.arange(spec.n_way), k)
    query_labels = np.repeat(np.arange(spec.n_way), spec.q_query)
    if count is None:
        drawn, picked = classes[0].tolist(), picks[0].tolist()
        return Episode(
            class_map={class_ids[c]: j for j, c in enumerate(drawn)},
            support_items=[items[c][p] for c, row in zip(drawn, picked) for p in row[:k]],
            support_labels=support_labels,
            query_items=[items[c][p] for c, row in zip(drawn, picked) for p in row[k:]],
            query_labels=query_labels,
        )
    flat = np.array([item for x in items for item in x])
    rows = flat[(np.cumsum(sizes) - sizes)[classes][..., None] + picks]
    return Episodes(
        classes=np.asarray(class_ids)[classes],
        support=rows[..., :k].reshape(count, -1),
        query=rows[..., k:].reshape(count, -1),
        support_labels=support_labels,
        query_labels=query_labels,
    )
