"""Deterministic N-way K-shot episode sampling.

Each episode owns a PCG64 generator seeded with the literal integer sum
``base_seed + episode_index``; composition is a pure function of the pool
content/order and those two integers. The classes are
``Generator.choice(C, N, replace=False)`` over the sorted class ids, then
each drawn class, in draw order, gives ``choice(n_c, K+Q, replace=False)``
over its items, the first K forming the support set. Episode class labels
are relabelled to 0..N-1 in class draw order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from .errors import InsufficientClasses, InsufficientSamples
from .rng import episode_rng

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

    ``class_map`` maps original class ids, in draw order, to relabelled
    ids 0..N-1, so ``list(class_map)`` is the drawn classes; items are
    whatever the pool lists contain (samples, indices, ...).
    """

    class_map: dict[Any, int]
    support_items: list
    support_labels: np.ndarray
    query_items: list
    query_labels: np.ndarray


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


def _draw(class_ids: list, sizes: np.ndarray, spec: EpisodeSpec, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Class positions ``(count, N)`` and item positions ``(count, N, K+Q)`` of ``count`` episodes."""
    n, need = spec.n_way, spec.k_shot + spec.q_query
    classes = np.empty((count, n), dtype=np.int64)
    picks = np.empty((count, n, need), dtype=np.int64)
    for e in range(count):
        rng = episode_rng(spec.base_seed, spec.episode_index + e)
        classes[e] = rng.choice(len(sizes), n, replace=False)
        for j, c in enumerate(classes[e].tolist()):
            if sizes[c] < need:
                raise InsufficientSamples(f"class {class_ids[c]!r} has {sizes[c]} samples, episode needs {need}")
            picks[e, j] = rng.choice(sizes[c], need, replace=False)
    return classes, picks


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
