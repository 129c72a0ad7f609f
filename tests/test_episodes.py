import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomshot.episodes import Episodes, EpisodeSpec, eligible_pool, sample_episode
from geomshot.errors import InsufficientClasses, InsufficientSamples
from geomshot.features import FeaturePool
from geomshot.rng import episode_rng


def reference_episode(pool, spec):
    """The per-episode ``rng.choice`` loop that pins the episode stream (the reference)."""
    class_ids = sorted(pool)
    rng = episode_rng(spec.base_seed, spec.episode_index)
    drawn = rng.choice(len(class_ids), size=spec.n_way, replace=False)
    classes, support, query = [], [], []
    for ci in drawn:
        items = pool[class_ids[int(ci)]]
        picks = rng.choice(len(items), size=spec.k_shot + spec.q_query, replace=False)
        classes.append(class_ids[int(ci)])
        support += [items[int(j)] for j in picks[: spec.k_shot]]
        query += [items[int(j)] for j in picks[spec.k_shot :]]
    return classes, support, query


def assert_matches_reference(pool, spec, count):
    """Batch row e, the single episode at index e, and the reference all agree."""
    batch = sample_episode(pool, spec, count=count)
    n, k, q = spec.n_way, spec.k_shot, spec.q_query
    assert isinstance(batch, Episodes) and len(batch) == count
    assert batch.classes.shape == (count, n)
    assert batch.support.shape == (count, n * k) and batch.query.shape == (count, n * q)
    assert batch.support_labels.tolist() == [j for j in range(n) for _ in range(k)]
    assert batch.query_labels.tolist() == [j for j in range(n) for _ in range(q)]
    for e in range(count):
        at = EpisodeSpec(n, k, q, spec.base_seed, spec.episode_index + e)
        classes, support, query = reference_episode(pool, at)
        one = sample_episode(pool, at)
        assert list(one.class_map) == classes and one.support_items == support and one.query_items == query
        assert batch.classes[e].tolist() == classes
        assert batch.support[e].tolist() == support and batch.query[e].tolist() == query


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
    assert list(ep.class_map)[0] == first_item_class


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
    labels = np.concatenate([np.full(len(rows), c) for c, rows in pool.items()])
    n_rows = len(labels)
    rng = np.random.default_rng(0)
    fp_a = FeaturePool(rng.normal(size=(n_rows, dims[0])), labels, "raw", True)
    fp_b = FeaturePool(rng.normal(size=(n_rows, dims[1])), labels.copy(), "angle", False)
    shape = (spec.k_shot, spec.q_query, spec.n_way)
    assert eligible_pool(fp_a.labels, *shape) == pool  # every class of the case serves the spec
    ep = sample_episode(eligible_pool(fp_a.labels, *shape), spec)
    n, k, q = spec.n_way, spec.k_shot, spec.q_query

    assert len(set(ep.support_items)) == n * k and len(set(ep.query_items)) == n * q
    assert not set(ep.support_items) & set(ep.query_items)
    assert list(ep.class_map.values()) == list(range(n))
    assert ep.support_labels.tolist() == [j for j in range(n) for _ in range(k)]
    assert ep.query_labels.tolist() == [j for j in range(n) for _ in range(q)]
    for j, c in enumerate(ep.class_map):
        assert set(ep.support_items[j * k : (j + 1) * k]) <= set(pool[c])
        assert set(ep.query_items[j * q : (j + 1) * q]) <= set(pool[c])

    again = sample_episode(eligible_pool(fp_b.labels, *shape), spec)  # same labels, other feature matrix
    assert again.class_map == ep.class_map
    assert again.support_items == ep.support_items and again.query_items == ep.query_items
    assert np.array_equal(again.support_labels, ep.support_labels)
    assert np.array_equal(again.query_labels, ep.query_labels)


@st.composite
def sampler_cases(draw):
    """Unequal class sizes, C == N, K+Q == a class's size, and both of numpy's choice regimes.

    ``Generator.choice(pop, size, replace=False)`` runs Floyd's algorithm
    unless pop > 10,000 and size > pop // 50, when it tail-shuffles. A
    "large" case needs K+Q >= 201, so a class of 10,001 to 50·(K+Q) - 1
    items takes the tail shuffle while smaller classes take Floyd's.
    """
    large = draw(st.booleans())
    k = draw(st.integers(1, 4))
    q = draw(st.integers(201 - k, 260 - k)) if large else draw(st.integers(1, 6))
    need = k + q
    n_classes = draw(st.integers(2, 4 if large else 8))
    class_ids = draw(st.lists(st.integers(0, 10**6), min_size=n_classes, max_size=n_classes, unique=True))
    pool, start = {}, 0
    for c in class_ids:
        tail = large and draw(st.booleans())
        size = draw(st.integers(10_001, 50 * need - 1)) if tail else need + draw(st.integers(0, 30))
        pool[c] = list(range(start, start + size))
        start += size
    n_way = draw(st.integers(2, n_classes))
    spec = EpisodeSpec(n_way, k, q, draw(st.integers(0, 2**40)), draw(st.integers(0, 10**6)))
    return pool, spec, draw(st.integers(1, 4))


@settings(max_examples=150)
@given(case=sampler_cases())
def test_batched_draws_equal_the_per_episode_choice_loop(case):
    assert_matches_reference(*case)


@pytest.mark.parametrize(
    "pop, need",
    [(10_000, 201), (10_001, 200), (10_001, 201), (10_049, 201), (10_050, 201), (10_300, 10_300)],
)
def test_item_stage_regime_boundaries(pop, need):
    # pop > 10,000 and need > pop // 50 tail-shuffles; the others run Floyd's algorithm
    pool = {0: list(range(pop)), 7: list(range(pop, 2 * pop)), 9: list(range(2 * pop, 2 * pop + need))}
    assert_matches_reference(pool, EpisodeSpec(2, 1, need - 1, 2**40, 5), 3)


def test_class_stage_tail_shuffle():
    # 10,001 classes and N = 201 > 10,001 // 50: the class draw itself tail-shuffles
    pool = {c: [2 * c, 2 * c + 1] for c in range(10_001)}
    assert_matches_reference(pool, EpisodeSpec(201, 1, 1, 3, 0), 2)


def test_string_items_in_a_batch():
    batch = sample_episode(toy_pool(), EpisodeSpec(5, 2, 3, 42, 0), count=2)
    assert batch.classes[0].tolist() == [5, 3, 7, 0, 4]
    assert batch.support[0, :2].tolist() == ["c5s22", "c5s1"]
    assert_matches_reference(toy_pool(), EpisodeSpec(5, 2, 3, 42, 0), 4)


def test_batch_errors():
    with pytest.raises(ValueError, match="count"):
        sample_episode(toy_pool(), EpisodeSpec(5, 2, 3, 42, 0), count=0)
    with pytest.raises(InsufficientClasses):
        sample_episode(toy_pool(n_classes=4), EpisodeSpec(5, 1, 1, 0, 0), count=3)
    pool = toy_pool(n_classes=6)
    pool[2] = pool[2][:3]  # too small for K+Q = 4; some episode of the batch draws it
    with pytest.raises(InsufficientSamples, match="class 2 has 3 samples"):
        sample_episode(pool, EpisodeSpec(5, 2, 2, 0, 0), count=20)
