import json

import numpy as np
import pytest

from geomshot.dataio import (
    build_catalog,
    eligible_classes,
    load_split,
    save_split,
    split_pool,
    stratified_split,
)
from geomshot.errors import InvalidSplit
from geomshot.npyio import write_keypoints


def make_tree(root, class_sizes, seed=0):
    rng = np.random.default_rng(seed)
    for name, n in class_sizes.items():
        d = root / name
        d.mkdir()
        for i in range(n):
            write_keypoints(d / f"s{i:03d}.npy", rng.normal(size=(21, 3)))


def test_catalog_classes_sorted_and_counted(tmp_path):
    make_tree(tmp_path, {"b": 3, "a": 5, "c": 2})
    cat = build_catalog(tmp_path)
    assert cat.classes == ["a", "b", "c"]
    assert cat.class_counts() == {0: 5, 1: 3, 2: 2}


def test_catalog_skips_undecodable(tmp_path, caplog):
    make_tree(tmp_path, {"a": 4})
    (tmp_path / "a" / "bad.npy").write_bytes(b"garbage")
    with caplog.at_level("WARNING"):
        cat = build_catalog(tmp_path)
    assert cat.class_counts() == {0: 4}
    assert "skipped 1" in caplog.text


def test_catalog_selects_what_glob_selects_in_name_order(tmp_path):
    make_tree(tmp_path, {"a": 3})
    d = tmp_path / "a"
    for name in (".hidden.npy", ".npy", "B.npy", "upper.NPY", "s001.npy.bak", "notes.txt"):
        write_keypoints(d / name, np.random.default_rng(1).normal(size=(21, 3)))
    cat = build_catalog(tmp_path)
    expected = [p.relative_to(tmp_path).as_posix() for p in sorted(d.glob("*.npy"))]
    assert [s.path for s in cat.samples] == expected
    assert expected == ["a/.hidden.npy", "a/.npy", "a/B.npy", "a/s000.npy", "a/s001.npy", "a/s002.npy"]


def test_catalog_skips_and_counts_a_directory_named_like_a_sample(tmp_path, caplog):
    make_tree(tmp_path, {"a": 3, "b": 2})
    (tmp_path / "a" / "s001.npy.d").mkdir()
    (tmp_path / "b" / "zz.npy").mkdir()
    with caplog.at_level("WARNING"):
        cat = build_catalog(tmp_path)
    assert cat.class_counts() == {0: 3, 1: 2}
    assert "skipped 1 undecodable files" in caplog.text


def test_catalog_excludes_empty_class_dir(tmp_path, caplog):
    make_tree(tmp_path, {"a": 3})
    (tmp_path / "empty").mkdir()
    with caplog.at_level("WARNING"):
        cat = build_catalog(tmp_path)
    assert cat.classes == ["a"]
    assert "empty" in caplog.text


class TestStratifiedSplit:
    def test_seventy_thirty_on_ten(self, tmp_path):
        make_tree(tmp_path, {"a": 10})
        split = stratified_split(build_catalog(tmp_path), 0.7, 42)
        assert len(split.train) == 7 and len(split.test) == 3

    def test_counts_match_hand_arithmetic(self, tmp_path):
        # oracle: round-half-to-even on decimal 0.7 * n_c -> {4, 3, 2}
        make_tree(tmp_path, {"a": 5, "b": 4, "c": 3})
        cat = build_catalog(tmp_path)
        split = stratified_split(cat, 0.7, 1)
        pools = split_pool(cat, split, "train")
        assert {c: len(v) for c, v in pools.items()} == {0: 4, 1: 3, 2: 2}

    def test_deterministic_bytes(self, tmp_path):
        make_tree(tmp_path, {"a": 9, "b": 6})
        cat = build_catalog(tmp_path)
        one = stratified_split(cat, 0.7, 42).to_json()
        two = stratified_split(cat, 0.7, 42).to_json()
        assert one == two

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_seed_must_be_a_non_negative_integer(self, tmp_path, seed):
        make_tree(tmp_path, {"a": 4, "b": 4})
        with pytest.raises(ValueError, match="split seed must be a non-negative integer"):
            stratified_split(build_catalog(tmp_path), 0.7, seed)

    def test_different_seed_changes_membership(self, tmp_path):
        make_tree(tmp_path, {"a": 30})
        cat = build_catalog(tmp_path)
        assert stratified_split(cat, 0.7, 1).train != stratified_split(cat, 0.7, 2).train

    def test_single_sample_class_goes_to_train(self, tmp_path, caplog):
        make_tree(tmp_path, {"a": 1, "b": 4})
        with caplog.at_level("WARNING"):
            split = stratified_split(build_catalog(tmp_path), 0.7, 42)
        assert any(p.startswith("a/") for p in split.train)
        assert not any(p.startswith("a/") for p in split.test)
        assert "single sample" in caplog.text

    def test_min_one_per_side(self, tmp_path):
        make_tree(tmp_path, {"a": 2})
        split = stratified_split(build_catalog(tmp_path), 0.95, 42)
        assert len(split.train) == 1 and len(split.test) == 1

    def test_disjoint_and_covering(self, tmp_path):
        make_tree(tmp_path, {"a": 11, "b": 7, "c": 5})
        cat = build_catalog(tmp_path)
        split = stratified_split(cat, 0.7, 3)
        assert not set(split.train) & set(split.test)
        assert set(split.train) | set(split.test) == {s.path for s in cat.samples}


class TestSplitFileIO:
    def test_roundtrip_and_validation(self, tmp_path):
        make_tree(tmp_path, {"a": 8, "b": 8})
        cat = build_catalog(tmp_path)
        split = stratified_split(cat, 0.7, 42)
        path = tmp_path / "split.json"
        save_split(split, path)
        loaded = load_split(path, cat)
        assert loaded.train == split.train and loaded.test == split.test

    def test_rerun_byte_identical(self, tmp_path):
        make_tree(tmp_path, {"a": 8, "b": 8})
        cat = build_catalog(tmp_path)
        p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
        save_split(stratified_split(cat, 0.7, 42), p1)
        save_split(stratified_split(cat, 0.7, 42), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_overlap_rejected(self, tmp_path):
        make_tree(tmp_path, {"a": 4})
        cat = build_catalog(tmp_path)
        doc = {"seed": 1, "fraction": 0.7,
               "train": ["a/s000.npy", "a/s001.npy"],
               "test": ["a/s001.npy", "a/s002.npy", "a/s003.npy"]}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(InvalidSplit):
            load_split(p, cat)

    def test_incomplete_coverage_rejected(self, tmp_path):
        make_tree(tmp_path, {"a": 4})
        cat = build_catalog(tmp_path)
        doc = {"seed": 1, "fraction": 0.7,
               "train": ["a/s000.npy"], "test": ["a/s001.npy"]}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(InvalidSplit):
            load_split(p, cat)

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 1.5), ("seed", True), ("seed", -1), ("seed", "1"), ("seed", None),
         ("fraction", "0.5"), ("fraction", True), ("fraction", 1), ("fraction", 0.0), ("fraction", 1.0),
         ("fraction", -0.5), ("train", [["a/s000.npy"]]), ("train", "a/s000.npy"), ("train", [1]),
         ("test", {"a/s001.npy": 1}), ("test", None), ("seed", "missing"), ("test", "missing")],
    )
    def test_wrong_typed_field_is_refused_naming_it(self, tmp_path, field, value):
        doc = {"seed": 1, "fraction": 0.5, "train": ["a/s000.npy"], "test": ["a/s001.npy"]}
        if value == "missing":
            del doc[field]
        else:
            doc[field] = value
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(InvalidSplit, match=f"{p}: (missing field '{field}'|{field} must be )"):
            load_split(p)

    def test_split_that_is_not_an_object_is_refused(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("[1, 0.5]")
        with pytest.raises(InvalidSplit, match="JSON object"):
            load_split(p)


class TestEligibleClasses:
    def test_threshold_semantics(self):
        pool = {0: list(range(20)), 1: list(range(19)), 2: list(range(25)), 3: list(range(5))}
        assert eligible_classes(pool, 5, 15) == [0, 2]

    def test_boundary_two_samples(self):
        assert eligible_classes({7: [1, 2]}, 1, 1) == [7]

    def test_nineteen_excluded_at_twenty(self):
        assert eligible_classes({0: list(range(19))}, 5, 15) == []
