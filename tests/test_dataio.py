import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_half_then_fail

from geomshot.dataio import (
    build_catalog,
    eligible_classes,
    eligible_pool,
    load_split,
    save_split,
    split_pool,
    stratified_split,
)
from geomshot.errors import InsufficientClasses, InvalidSplit
from geomshot.features import build_feature_pool
from geomshot.geometry import REPRESENTATIONS
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
    assert np.bincount(cat.labels).tolist() == [5, 3, 2]
    assert cat.keypoints.shape == (10, 21, 3) and cat.skipped == []


def test_catalog_skips_undecodable(tmp_path, caplog):
    make_tree(tmp_path, {"a": 4})
    (tmp_path / "a" / "bad.npy").write_bytes(b"garbage")
    with caplog.at_level("WARNING"):
        cat = build_catalog(tmp_path)
    assert np.bincount(cat.labels).tolist() == [4]
    assert cat.skipped == [("a/bad.npy", "format")]
    assert "skipped 1" in caplog.text


def test_catalog_selects_what_glob_selects_in_name_order(tmp_path):
    make_tree(tmp_path, {"a": 3})
    d = tmp_path / "a"
    for name in (".hidden.npy", ".npy", "B.npy", "upper.NPY", "s001.npy.bak", "notes.txt"):
        write_keypoints(d / name, np.random.default_rng(1).normal(size=(21, 3)))
    cat = build_catalog(tmp_path)
    expected = [p.relative_to(tmp_path).as_posix() for p in sorted(d.glob("*.npy"))]
    assert cat.paths.tolist() == expected
    assert expected == ["a/.hidden.npy", "a/.npy", "a/B.npy", "a/s000.npy", "a/s001.npy", "a/s002.npy"]


def test_catalog_skips_and_counts_a_directory_named_like_a_sample(tmp_path, caplog):
    make_tree(tmp_path, {"a": 3, "b": 2})
    (tmp_path / "a" / "s001.npy.d").mkdir()
    (tmp_path / "b" / "zz.npy").mkdir()
    with caplog.at_level("WARNING"):
        cat = build_catalog(tmp_path)
    assert np.bincount(cat.labels).tolist() == [3, 2]
    assert cat.skipped == [("b/zz.npy", "not_a_file")]
    assert "skipped 1 of 6 files" in caplog.text


def test_catalog_excludes_empty_class_dir(tmp_path, caplog):
    make_tree(tmp_path, {"a": 3})
    (tmp_path / "empty").mkdir()
    with caplog.at_level("WARNING"):
        cat = build_catalog(tmp_path)
    assert cat.classes == ["a"]
    assert "empty" in caplog.text


def test_coincident_and_tiny_hands_are_counted_degenerate_skips(tmp_path):
    make_tree(tmp_path, {"a": 3, "b": 3, "c": 1})
    write_keypoints(tmp_path / "b" / "s001.npy", np.full((21, 3), 0.5))
    tiny = 1e-14 * np.random.default_rng(2).normal(size=(21, 3)) + 4.0
    write_keypoints(tmp_path / "c" / "s000.npy", tiny)
    cat = build_catalog(tmp_path)
    assert cat.skipped == [("b/s001.npy", "degenerate"), ("c/s000.npy", "degenerate")]
    assert cat.classes == ["a", "b"]  # c has no row left
    assert np.bincount(cat.labels).tolist() == [3, 2]
    assert "b/s001.npy" not in cat.paths.tolist()


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
        assert np.bincount(pools.labels).tolist() == [4, 3, 2]

    def test_deterministic_bytes(self, tmp_path):
        make_tree(tmp_path, {"a": 9, "b": 6})
        cat = build_catalog(tmp_path)
        one, two = tmp_path / "one.json", tmp_path / "two.json"
        save_split(stratified_split(cat, 0.7, 42), one)
        save_split(stratified_split(cat, 0.7, 42), two)
        assert one.read_bytes() == two.read_bytes()

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
        assert set(split.train) | set(split.test) == set(cat.paths.tolist())


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

    def test_a_failed_write_leaves_the_old_split_whole(self, tmp_path, monkeypatch):
        make_tree(tmp_path, {"a": 8, "b": 8})
        cat = build_catalog(tmp_path)
        path = tmp_path / "split.json"
        save_split(stratified_split(cat, 0.7, 42), path)
        old = path.read_bytes()
        monkeypatch.setattr(Path, "write_text", write_half_then_fail)
        with pytest.raises(OSError, match="No space left on device"):
            save_split(stratified_split(cat, 0.5, 7), path)
        assert path.read_bytes() == old
        assert list(tmp_path.glob("*.tmp")) == []

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

    def test_path_listed_twice_rejected(self, tmp_path):
        doc = {"seed": 1, "fraction": 0.5, "train": ["a/s000.npy", "a/s001.npy", "a/s000.npy"],
               "test": ["a/s002.npy"]}
        p = tmp_path / "twice.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(InvalidSplit, match=f"^{p}: train lists a/s000.npy more than once$"):
            load_split(p, build_catalog(tmp_path))
        doc["train"], doc["test"] = doc["test"], doc["train"]
        p.write_text(json.dumps(doc))
        with pytest.raises(InvalidSplit, match="test lists a/s000.npy more than once"):
            load_split(p, build_catalog(tmp_path))

    @pytest.mark.parametrize("bad, reason", [("garbage", "format"), ("coincident", "degenerate")])
    def test_stale_split_names_the_skipped_path_and_reason(self, tmp_path, bad, reason):
        make_tree(tmp_path, {"a": 4, "b": 4})
        path = tmp_path / "split.json"
        save_split(stratified_split(build_catalog(tmp_path), 0.5, 1), path)
        if bad == "garbage":
            (tmp_path / "b" / "s002.npy").write_bytes(b"garbage")
        else:
            write_keypoints(tmp_path / "b" / "s002.npy", np.full((21, 3), -1.0))
        with pytest.raises(InvalidSplit, match=f"split lists b/s002.npy, which the catalog skipped \\({reason}\\)"):
            load_split(path, build_catalog(tmp_path))

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
            load_split(p, build_catalog(tmp_path))

    def test_split_that_is_not_an_object_is_refused(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("[1, 0.5]")
        with pytest.raises(InvalidSplit, match="JSON object"):
            load_split(p, build_catalog(tmp_path))


class TestEligibleClasses:
    def test_threshold_semantics(self):
        labels = np.repeat([0, 1, 2, 3], [20, 19, 25, 5])
        assert eligible_classes(labels, 5, 15) == [0, 2]

    def test_boundary_two_samples(self):
        assert eligible_classes(np.array([7, 7]), 1, 1) == [7]

    def test_nineteen_excluded_at_twenty(self):
        assert eligible_classes(np.zeros(19, dtype=np.int64), 5, 15) == []

    def test_pool_lists_each_eligible_class_rows_in_row_order(self):
        labels = np.array([1, 0, 1, 0, 2, 1])
        assert eligible_pool(labels, 1, 1, 2) == {0: [1, 3], 1: [0, 2, 5]}
        with pytest.raises(InsufficientClasses, match="2 classes have >= 2 samples, need 3"):
            eligible_pool(labels, 1, 1, 3)


# How each kind of *.npy entry is written, and the skip reason the catalog gives it (None: a row).
ENTRY_KINDS = {
    "good": None,
    "garbage": "format",
    "nan": "keypoints",
    "directory": "not_a_file",
    "coincident": "degenerate",
    "tiny": "degenerate",
}


def write_entry(path, kind, rng):
    if kind == "good":
        write_keypoints(path, rng.normal(size=(21, 3)) * rng.uniform(1e-3, 1e3))
    elif kind == "garbage":
        path.write_bytes(rng.bytes(int(rng.integers(0, 300))))
    elif kind == "nan":
        hand = rng.normal(size=(21, 3))
        hand[rng.integers(21), rng.integers(3)] = np.nan
        np.save(path, hand)
    elif kind == "directory":
        path.mkdir()
    elif kind == "coincident":
        write_keypoints(path, np.full((21, 3), rng.uniform(-1e3, 1e3)))
    else:  # every pairwise distance below DEGENERATE_DISTANCE
        write_keypoints(path, rng.uniform(-1e3, 1e3) + 1e-14 * rng.normal(size=(21, 3)))


@settings(max_examples=40)
@given(tree=st.lists(st.lists(st.sampled_from(sorted(ENTRY_KINDS)), max_size=7), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_catalog_rows_and_skips_account_for_every_entry(tree, seed):
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        expected_rows, expected_skips = [], []
        for c, kinds in enumerate(tree):
            (root / f"c{c}").mkdir()
            for i, kind in enumerate(kinds):
                name = f"c{c}/s{i}.npy"
                write_entry(root / name, kind, rng)
                (expected_rows if ENTRY_KINDS[kind] is None else expected_skips).append((name, ENTRY_KINDS[kind]))
            (root / f"c{c}" / "notes.txt").write_text("not an entry")
        cat = build_catalog(root)

        assert cat.paths.tolist() == [name for name, _ in expected_rows]
        assert sorted(cat.skipped) == sorted(expected_skips)
        counts = np.bincount(cat.labels, minlength=len(cat.classes))
        assert counts.sum() + len(cat.skipped) == sum(map(len, tree))
        assert cat.classes == [f"c{c}" for c, kinds in enumerate(tree) if "good" in kinds]
        assert counts.min(initial=1) >= 1 and cat.keypoints.shape == (len(cat.paths), 21, 3)

        split = stratified_split(cat, 0.5, seed)
        save_split(split, root / "split.json")
        load_split(root / "split.json", cat)
        position = {p: i for i, p in enumerate(cat.paths.tolist())}
        sides = [split_pool(cat, split, side) for side in ("train", "test")]
        rows = [np.array([position[p] for p in side.paths.tolist()], dtype=np.int64) for side in sides]
        assert np.array_equal(np.sort(np.concatenate(rows)), np.arange(len(cat.paths)))
        for side, side_rows in zip(sides, rows):
            assert np.all(np.diff(side_rows) > 0)  # catalog order
            assert np.array_equal(side.labels, cat.labels[side_rows])
            assert np.array_equal(side.keypoints, cat.keypoints[side_rows])
            pools = [build_feature_pool(side, root, kind) for kind in REPRESENTATIONS]
            for fp in pools:
                assert np.array_equal(fp.labels, side.labels)
                assert fp.X.shape[0] == len(side.paths)
