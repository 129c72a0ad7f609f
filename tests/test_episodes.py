import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomshot.episodes import EpisodeSpec, sample_episode
from geomshot.errors import InsufficientClasses, InsufficientSamples
from geomshot.features import FeaturePool


def toy_pool(n_classes=10, per_class=25):
    return {c: [f"c{c}s{i}" for i in range(per_class)] for c in range(n_classes)}


def test_same_spec_identical_episode():
    pool = toy_pool()
    spec = EpisodeSpec(5, 5, 15, 42, 3)
    a, b = sample_episode(pool, spec), sample_episode(pool, spec)
    assert a.support_items == b.support_items
    assert a.query_items == b.query_items
    assert a.class_map == b.class_map


def test_adjacent_indices_differ():
    # oracle: direct comparison over 100 indices, expect >= 99 distinct
    pool = toy_pool()
    seen = set()
    for idx in range(100):
        ep = sample_episode(pool, EpisodeSpec(5, 5, 15, 42, idx))
        seen.add(tuple(ep.support_items + ep.query_items))
    assert len(seen) >= 99


def test_sizes_five_way_five_shot():
    ep = sample_episode(toy_pool(), EpisodeSpec(5, 5, 15, 42, 0))
    assert len(ep.support_items) == 25
    assert len(ep.query_items) == 75


def test_support_query_disjoint():
    for idx in range(20):
        ep = sample_episode(toy_pool(), EpisodeSpec(5, 5, 15, 7, idx))
        assert not set(ep.support_items) & set(ep.query_items)


def test_label_coverage():
    ep = sample_episode(toy_pool(), EpisodeSpec(5, 3, 4, 0, 0))
    assert sorted(ep.support_labels.tolist()) == sorted([c for c in range(5) for _ in range(3)])
    assert sorted(ep.query_labels.tolist()) == sorted([c for c in range(5) for _ in range(4)])
    assert set(ep.class_map.values()) == set(range(5))


def test_relabels_in_draw_order():
    ep = sample_episode(toy_pool(), EpisodeSpec(5, 2, 2, 42, 0))
    # the first drawn class labels the first K support items
    first_item_class = int(ep.support_items[0][1])  # "c<id>s<idx>"
    assert ep.class_map[first_item_class] == 0
    assert ep.original_classes[0] == first_item_class


def test_insufficient_classes():
    with pytest.raises(InsufficientClasses):
        sample_episode(toy_pool(n_classes=4), EpisodeSpec(5, 1, 1, 0, 0))


def test_insufficient_samples():
    pool = toy_pool(n_classes=5, per_class=3)
    with pytest.raises(InsufficientSamples):
        sample_episode(pool, EpisodeSpec(5, 3, 3, 0, 0))


def test_frozen_composition_seed42_index0():
    # pins cross-platform stability of the episode stream
    ep = sample_episode(toy_pool(), EpisodeSpec(5, 2, 3, 42, 0))
    assert ep.class_map == {5: 0, 3: 1, 7: 2, 0: 3, 4: 4}
    assert ep.support_items == [
        "c5s22", "c5s1", "c3s11", "c3s17", "c7s11",
        "c7s5", "c0s4", "c0s18", "c4s22", "c4s19",
    ]
    assert ep.query_items == [
        "c5s11", "c5s19", "c5s17", "c3s9", "c3s8", "c3s4", "c7s23",
        "c7s10", "c7s17", "c0s21", "c0s6", "c0s15", "c4s9", "c4s20", "c4s16",
    ]


@st.composite
def pools_and_specs(draw):
    """A pool of row indices over arbitrary class ids, and an episode spec it can serve."""
    k, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    class_ids = sorted(draw(st.sets(st.integers(0, 60), min_size=2, max_size=8)))
    pool, start = {}, 0
    for c in class_ids:
        n = draw(st.integers(k + q, k + q + 6))
        pool[c] = list(range(start, start + n))
        start += n
    n_way = draw(st.integers(2, len(class_ids)))
    spec = EpisodeSpec(n_way, k, q, draw(st.integers(0, 2**40)), draw(st.integers(0, 10**6)))
    return pool, spec


@settings(max_examples=300)
@given(case=pools_and_specs(), dims=st.tuples(st.integers(1, 5), st.integers(1, 5)))
def test_episode_draws_disjoint_rows_labelled_in_draw_order(case, dims):
    pool, spec = case
    n_rows = sum(len(rows) for rows in pool.values())
    rng = np.random.default_rng(0)
    fp_a = FeaturePool(rng.normal(size=(n_rows, dims[0])), pool, [""] * n_rows, "raw", True)
    fp_b = FeaturePool(rng.normal(size=(n_rows, dims[1])), copy.deepcopy(pool), [""] * n_rows, "angle", False)
    ep = sample_episode(fp_a.pool, spec)
    n, k, q = spec.n_way, spec.k_shot, spec.q_query

    assert len(set(ep.support_items)) == n * k and len(set(ep.query_items)) == n * q
    assert not set(ep.support_items) & set(ep.query_items)
    assert list(ep.class_map.values()) == list(range(n))
    assert ep.original_classes == list(ep.class_map)
    assert ep.support_labels.tolist() == [j for j in range(n) for _ in range(k)]
    assert ep.query_labels.tolist() == [j for j in range(n) for _ in range(q)]
    for j, c in enumerate(ep.original_classes):
        assert set(ep.support_items[j * k : (j + 1) * k]) <= set(pool[c])
        assert set(ep.query_items[j * q : (j + 1) * q]) <= set(pool[c])

    again = sample_episode(fp_b.pool, spec)  # same pool index, other feature matrix
    assert again.class_map == ep.class_map
    assert again.support_items == ep.support_items and again.query_items == ep.query_items
    assert np.array_equal(again.support_labels, ep.support_labels)
    assert np.array_equal(again.query_labels, ep.query_labels)
