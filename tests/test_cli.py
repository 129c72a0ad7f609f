import argparse
import json
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from support import traced_peak

from geomshot import cli
from geomshot.cli import RUNS, build_parser, main
from geomshot.config import MAX_CONFIG_BYTES, MAX_FLOW_DEPTH, DataConfig, TopLevelConfig, read_document
from geomshot.errors import CorruptCheckpoint, InsufficientClasses, InvalidConfig
from geomshot.evaluation import EvalSpec
from geomshot.geometry import REPRESENTATIONS
from geomshot.nnet import EncoderConfig, load_checkpoint, save_checkpoint
from geomshot.nnet.encoder import tensor_table
from geomshot.pipeline import AdaptConfig, TrainConfig
from geomshot.synth import SynthSpec


def write_yaml(path, doc):
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def base_data(corpus):
    return {
        "data_root": str(corpus["root"]),
        "split": str(corpus["split_path"]),
        "representation": "angle",
        "normalize": True,
    }


def tiny_train_doc(corpus):
    return {
        "schema_version": 1,
        "data": base_data(corpus),
        "encoder": {"hidden_dim": 32, "embed_dim": 16},
        "train": {
            "n_way": 3,
            "k_shot": 2,
            "q_query": 3,
            "episodes_per_epoch": 10,
            "max_epochs": 2,
            "monitor_episodes": 10,
            "base_seed": 42,
        },
    }


def eval_doc(corpus, episodes=30, checkpoint=None, k_shot=2):
    doc = {
        "schema_version": 1,
        "data": base_data(corpus),
        "eval": {"n_way": 3, "k_shot": k_shot, "q_query": 3, "episodes": episodes, "base_seed": 42},
    }
    if checkpoint:
        doc["checkpoint"] = str(checkpoint)
    return doc


def command_doc(corpus, command):
    """A valid config for the run command ``command``: a train config for the three training commands,
    with ``adapt`` and a ``checkpoint`` for adapt, and an eval config for the others."""
    if command in ("train", "pretrain"):
        return tiny_train_doc(corpus)
    if command == "adapt":
        doc = tiny_train_doc(corpus)
        del doc["encoder"]
        return doc | {"adapt": {"mode": "frozen"}, "checkpoint": "encoder.ckpt"}
    return eval_doc(corpus, episodes=3)


EVAL_COMMANDS = ("eval", "baseline --kind input_space", "ablate", "multiseed")
TRAIN_COMMANDS = ("train", "pretrain", "adapt")
RUN_COMMANDS = EVAL_COMMANDS + ("baseline --kind full_data",) + TRAIN_COMMANDS


def test_split_command_deterministic(small_corpus, tmp_path):
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    for out in (out1, out2):
        rc = main(["split", "--data-root", str(small_corpus["root"]),
                   "--out", str(out), "--fraction", "0.7", "--seed", "42"])
        assert rc == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert set(doc) == {"seed", "fraction", "train", "test"}
    assert (tmp_path / "s1.json.manifest.json").exists()


def test_eval_command_byte_identical_reports(small_corpus, tmp_path):
    cfg = write_yaml(tmp_path / "eval.yaml", eval_doc(small_corpus))
    for run_id in ("r1", "r2"):
        rc = main(["eval", "--config", cfg, "--out", str(tmp_path), "--run-id", run_id])
        assert rc == 0
    a = (tmp_path / "r1" / "report.json").read_bytes()
    b = (tmp_path / "r2" / "report.json").read_bytes()
    assert a == b
    doc = json.loads(a)
    assert doc["episodes"] == 30
    assert len(doc["episode_accuracies"]) == 30
    assert (tmp_path / "r1" / "manifest.json").exists()
    assert (tmp_path / "r1" / "tables" / "summary.csv").exists()


def test_train_then_eval_then_adapt(small_corpus, tmp_path):
    train_cfg = write_yaml(tmp_path / "train.yaml", tiny_train_doc(small_corpus))
    assert main(["train", "--config", train_cfg, "--out", str(tmp_path), "--run-id", "t1"]) == 0
    ckpt = tmp_path / "t1" / "checkpoints" / "encoder.ckpt"
    assert ckpt.exists()
    log_lines = (tmp_path / "t1" / "train_log.jsonl").read_text().strip().split("\n")
    records = [json.loads(line) for line in log_lines]
    assert all(set(r) == {"epoch", "lr", "mean_loss", "monitor_acc", "mean_nll", "mean_supcon",
                          "mean_grad_norm", "clipped_steps"} for r in records)

    # evaluate with the trained checkpoint
    cfg = write_yaml(tmp_path / "eval.yaml", eval_doc(small_corpus, checkpoint=ckpt))
    assert main(["eval", "--config", cfg, "--out", str(tmp_path), "--run-id", "e1"]) == 0
    report = json.loads((tmp_path / "e1" / "report.json").read_text())
    assert report["config"]["encoder"] == "mlp"

    # frozen adaptation: parameters bit-identical to the input checkpoint
    adapt_doc = {
        "schema_version": 1,
        "data": base_data(small_corpus),
        "checkpoint": str(ckpt),
        "adapt": {"mode": "frozen"},
        "train": tiny_train_doc(small_corpus)["train"],
    }
    adapt_cfg = write_yaml(tmp_path / "adapt.yaml", adapt_doc)
    assert main(["adapt", "--config", adapt_cfg, "--out", str(tmp_path), "--run-id", "a1"]) == 0
    orig, _ = load_checkpoint(ckpt)
    adapted, _ = load_checkpoint(tmp_path / "a1" / "checkpoints" / "encoder.ckpt")
    assert adapted.config == orig.config
    assert np.array_equal(adapted.state_array, orig.state_array)


def test_pretrain_records_source(small_corpus, tmp_path):
    doc = tiny_train_doc(small_corpus)
    doc["source"] = "langA"
    cfg = write_yaml(tmp_path / "pre.yaml", doc)
    assert main(["pretrain", "--config", cfg, "--out", str(tmp_path), "--run-id", "p1"]) == 0
    _, meta = load_checkpoint(tmp_path / "p1" / "checkpoints" / "encoder.ckpt")
    assert meta["source"] == "langA"


def test_representation_mismatch_fails(small_corpus, tmp_path):
    train_cfg = write_yaml(tmp_path / "train.yaml", tiny_train_doc(small_corpus))
    assert main(["train", "--config", train_cfg, "--out", str(tmp_path), "--run-id", "t2"]) == 0
    ckpt = tmp_path / "t2" / "checkpoints" / "encoder.ckpt"
    doc = eval_doc(small_corpus, checkpoint=ckpt)
    doc["data"]["representation"] = "raw"  # 63-D data vs 20-D checkpoint
    cfg = write_yaml(tmp_path / "eval.yaml", doc)
    assert main(["eval", "--config", cfg, "--out", str(tmp_path), "--run-id", "e2"]) == 1


def test_baseline_commands(small_corpus, tmp_path):
    cfg = write_yaml(tmp_path / "eval.yaml", eval_doc(small_corpus, episodes=20))
    assert main(["baseline", "--kind", "input_space", "--config", cfg,
                 "--out", str(tmp_path), "--run-id", "b1"]) == 0
    report = json.loads((tmp_path / "b1" / "report.json").read_text())
    assert report["config"]["baseline"] == "input_space"

    assert main(["baseline", "--kind", "full_data", "--config", cfg,
                 "--out", str(tmp_path), "--run-id", "b2"]) == 0
    report = json.loads((tmp_path / "b2" / "report.json").read_text())
    assert 0.0 <= report["accuracy"] <= 1.0
    assert report["dataset"] == small_corpus["root"].name

    train_cfg = write_yaml(tmp_path / "train.yaml", tiny_train_doc(small_corpus))
    assert main(["train", "--config", train_cfg, "--out", str(tmp_path), "--run-id", "t3"]) == 0
    ckpt = tmp_path / "t3" / "checkpoints" / "encoder.ckpt"
    cfg_lin = write_yaml(tmp_path / "lin.yaml", eval_doc(small_corpus, episodes=10, checkpoint=ckpt))
    assert main(["baseline", "--kind", "episode_linear", "--config", cfg_lin,
                 "--out", str(tmp_path), "--run-id", "b3"]) == 0


def test_ablate_emits_three_by_three(small_corpus, tmp_path):
    doc = {
        "schema_version": 1,
        "data": base_data(small_corpus),
        "eval": {"n_way": 3, "q_query": 3, "episodes": 15, "base_seed": 42},
        "ablate": {"k_values": [1, 3, 5]},
    }
    cfg = write_yaml(tmp_path / "ab.yaml", doc)
    assert main(["ablate", "--config", cfg, "--out", str(tmp_path), "--run-id", "ab1"]) == 0
    report = json.loads((tmp_path / "ab1" / "report.json").read_text())
    assert report["dataset"] == small_corpus["root"].name
    rows = report["rows"]
    assert len(rows) == 9
    labels = {r["label"] for r in rows}
    assert labels == {"No normalisation", "+ Wrist-centring & scale", "+ Geometry-aware (angle)"}
    csv_text = (tmp_path / "ab1" / "tables" / "ablation.csv").read_text()
    assert csv_text.startswith("setting,label,representation,normalize,K,mean,ci95")


def test_multiseed_command(small_corpus, tmp_path):
    doc = eval_doc(small_corpus, episodes=15)
    doc["seeds"] = [42, 1337]
    cfg = write_yaml(tmp_path / "ms.yaml", doc)
    assert main(["multiseed", "--config", cfg, "--out", str(tmp_path), "--run-id", "m1"]) == 0
    report = json.loads((tmp_path / "m1" / "report.json").read_text())
    assert set(report["per_seed_mean"]) == {"42", "1337"}


def test_export_csv(small_corpus, tmp_path):
    cfg = write_yaml(tmp_path / "eval.yaml", eval_doc(small_corpus, episodes=10))
    assert main(["eval", "--config", cfg, "--out", str(tmp_path), "--run-id", "e3"]) == 0
    out_csv = tmp_path / "table.csv"
    assert main(["export", "--report", str(tmp_path / "e3" / "report.json"),
                 "--out", str(out_csv)]) == 0
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "dataset,repr,encoder,mode,K,mean,ci95"
    assert len(lines) == 2


@pytest.mark.parametrize("command", ["eval", "train"])
def test_unknown_config_key_rejected(small_corpus, tmp_path, caplog, command):
    if command == "eval":
        doc = eval_doc(small_corpus)
        doc["eval"]["typo_key"] = 3
    else:  # pretrain reads source; train would drop it
        doc = tiny_train_doc(small_corpus)
        doc["source"] = "langA"
    cfg = write_yaml(tmp_path / "bad.yaml", doc)
    assert main([command, "--config", cfg, "--out", str(tmp_path), "--run-id", "r"]) == 1
    assert one_error(caplog).startswith("InvalidConfig: unknown keys in ")
    assert not (tmp_path / "r").exists()


def test_unknown_ablate_key_rejected(small_corpus, tmp_path):
    doc = eval_doc(small_corpus)
    for section in ({"k_value": [1]}, [], 0):  # a section that is not a mapping once fell back to the default Ks
        doc["ablate"] = section
        cfg = write_yaml(tmp_path / "bad.yaml", doc)
        assert main(["ablate", "--config", cfg, "--out", str(tmp_path), "--run-id", "ab"]) == 1
        assert not (tmp_path / "ab").exists()


@pytest.mark.parametrize("seeds", [[], [1, 1], [True, 2], [1.5], "42", None])
def test_bad_multiseed_seeds_are_one_line_error_and_create_no_run_dir(small_corpus, tmp_path, caplog, seeds):
    doc = eval_doc(small_corpus, episodes=3)
    doc["seeds"] = seeds
    cfg = write_yaml(tmp_path / "ms.yaml", doc)
    assert main(["multiseed", "--config", cfg, "--out", str(tmp_path), "--run-id", "ms"]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert errors[0].startswith("InvalidConfig: seeds must be ")
    assert not (tmp_path / "ms").exists()


@pytest.mark.parametrize(
    "command, section, key, value, message",
    [
        ("eval", "eval", "base_seed", -5, "InvalidConfig: eval.base_seed must be a non-negative integer, got -5"),
        ("train", "train", "base_seed", -1, "InvalidConfig: train.base_seed must be a non-negative integer, got -1"),
        ("eval", "eval", "base_seed", "7", "InvalidConfig: eval.base_seed must be a non-negative integer, got '7'"),
        ("eval", "eval", "base_seed", 1.5, "InvalidConfig: eval.base_seed must be a non-negative integer, got 1.5"),
        ("multiseed", None, "seeds", [-1, 2],
         "InvalidConfig: seeds must be a non-empty list of distinct integers >= 0, got [-1, 2]"),
        *[(c, "eval", "base_seed", True, "InvalidConfig: eval.base_seed must be a non-negative integer, got True")
          for c in EVAL_COMMANDS[1:]],
        *[(c, "train", "base_seed", -1, "InvalidConfig: train.base_seed must be a non-negative integer, got -1")
          for c in TRAIN_COMMANDS[1:]],
        *[(c, None, "checkpoint", 7, "InvalidConfig: checkpoint must be a non-empty string, got 7")
          for c in ("eval", "baseline --kind input_space", "baseline --kind episode_linear", "multiseed", "adapt")],
        ("adapt", None, "checkpoint", None, "InvalidConfig: checkpoint must be a non-empty string, got None"),
        ("pretrain", None, "source", ["a"], "InvalidConfig: source must be a non-empty string, got ['a']"),
    ],
)
def test_bad_seed_is_one_line_error_and_creates_no_run_dir(
    small_corpus, tmp_path, caplog, command, section, key, value, message
):
    doc = command_doc(small_corpus, command)
    (doc[section] if section else doc)[key] = value
    cfg = write_yaml(tmp_path / "neg.yaml", doc)
    assert main([*command.split(), "--config", cfg, "--out", str(tmp_path), "--run-id", "neg"]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert errors[0].startswith(message)
    assert not (tmp_path / "neg").exists()


@pytest.mark.parametrize(
    "command, section, key, value, message",
    [
        ("train", "train", "k_shot", 0, "InvalidConfig: train.k_shot must be an integer >= 1, got 0"),
        ("train", "train", "q_query", 0, "InvalidConfig: train.q_query must be an integer >= 1, got 0"),
        ("train", "train", "n_way", 1, "InvalidConfig: train.n_way must be an integer >= 2, got 1"),
        ("eval", "eval", "n_way", 1, "InvalidConfig: eval.n_way must be an integer >= 2, got 1"),
        # A float or bool where a count belongs, and YAML 1.1's 1e3, which is the string '1e3'.
        *[(c, "eval", key, value, f"InvalidConfig: eval.{key} must be an integer >= {low}, got {value!r}")
          for c in EVAL_COMMANDS
          for key, value, low in (("k_shot", 2.5, 1), ("n_way", 3.0, 2), ("episodes", 2.5, 1),
                                  ("episodes", True, 1), ("episodes", "1e3", 1))],
        *[(c, "train", key, value, f"InvalidConfig: train.{key} must be an integer >= 1, got {value!r}")
          for c in TRAIN_COMMANDS for key, value in (("max_epochs", 1.5), ("patience", True))],
        *[(c, "encoder", key, value, f"InvalidConfig: encoder.{key} must be {rule}, got {value!r}")
          for c in TRAIN_COMMANDS[:2]
          for key, value, rule in (("hidden_dim", 16.5, "an integer >= 1"),
                                   ("dropout_p", "0.3", "a finite number in [0, 1)"))],
        ("adapt", "adapt", "max_epochs", 2.5, "InvalidConfig: adapt.max_epochs must be an integer >= 1, got 2.5"),
        *[(c, "data", "data_root", 5, "InvalidConfig: data.data_root must be a non-empty string, got 5")
          for c in RUN_COMMANDS],
        # An empty path would scan, or open, the working directory.
        *[(c, "data", key, "", f"InvalidConfig: data.{key} must be a non-empty string, got ''")
          for c in RUN_COMMANDS for key in ("data_root", "split")],
    ],
)
def test_bad_episode_shape_is_one_line_error_and_creates_no_run_dir(
    small_corpus, tmp_path, caplog, command, section, key, value, message
):
    doc = command_doc(small_corpus, command)
    doc[section][key] = value
    cfg = write_yaml(tmp_path / "shape.yaml", doc)
    assert main([*command.split(), "--config", cfg, "--out", str(tmp_path), "--run-id", "shape"]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert errors[0].startswith(message)
    assert not (tmp_path / "shape").exists()


def test_multiseed_warns_once_when_seeds_share_episodes(small_corpus, tmp_path, caplog):
    reports = {}
    for run_id, seeds in (("near", [3, 4, 5]), ("far", [3, 13, 23])):
        doc = eval_doc(small_corpus, episodes=10)
        doc["seeds"] = seeds
        cfg = write_yaml(tmp_path / f"{run_id}.yaml", doc)
        caplog.clear()
        assert main(["multiseed", "--config", cfg, "--out", str(tmp_path), "--run-id", run_id]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        reports[run_id] = json.loads((tmp_path / run_id / "report.json").read_text())
        if run_id == "near":
            # seeds 3, 4, 5 x 10 episodes draw 12 distinct episodes: 18 of 30 repeat
            assert len(warnings) == 1
            assert "18 of their 30 episodes" in warnings[0]
        else:
            assert warnings == []
    assert set(reports["near"]) == set(reports["far"])
    assert reports["near"]["seeds"] == [3, 4, 5]


@pytest.mark.parametrize("k_values", [[], [0], [1, -1], [True], [2.0], 3, None])
def test_bad_ablate_k_values_are_one_line_error_and_create_no_run_dir(small_corpus, tmp_path, caplog, k_values):
    doc = eval_doc(small_corpus, episodes=3)
    doc["ablate"] = {"k_values": k_values}
    cfg = write_yaml(tmp_path / "ab.yaml", doc)
    assert main(["ablate", "--config", cfg, "--out", str(tmp_path), "--run-id", "ab"]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert errors[0].startswith("InvalidConfig: ablate.k_values must be ")
    assert not (tmp_path / "ab").exists()


def _distinct_ints_from(low):
    return lambda v: (type(v) is list and len(v) > 0 and all(type(x) is int and x >= low for x in v)
                      and len(set(v)) == len(v))


def _absent_or_non_empty_string(v):
    return v is None or (type(v) is str and v != "")


# Each list or string key, the run that reads it (one that never loads the checkpoint), and its rule,
# written out here apart from schema.py.
LIST_AND_STRING_KEYS = {
    "seeds": ("multiseed", _distinct_ints_from(0)),
    "ablate.k_values": ("ablate", _distinct_ints_from(1)),
    "checkpoint": ("baseline-input_space", _absent_or_non_empty_string),
    "source": ("pretrain", _absent_or_non_empty_string),
}
_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-2, 6), st.floats(), st.text("ab ", max_size=2))
ANY_VALUE = st.one_of(_SCALARS, st.lists(st.integers(-1, 6), max_size=4),
                      st.lists(st.one_of(_SCALARS, st.lists(st.integers(0, 3), max_size=1)), max_size=3))


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(key=st.sampled_from(sorted(LIST_AND_STRING_KEYS)), value=ANY_VALUE)
def test_a_list_or_string_key_is_accepted_exactly_when_it_meets_its_rule(
    small_corpus, tmp_path_factory, caplog, key, value
):
    name, admits = LIST_AND_STRING_KEYS[key]
    doc = command_doc(small_corpus, name)
    section, _, field = key.rpartition(".")
    (doc.setdefault(section, {}) if section else doc)[field] = value
    work = tmp_path_factory.mktemp("key")
    cfg = write_yaml(work / "c.yaml", doc)
    if admits(value):
        p = cli._prepare(name, cfg)
        assert getattr(getattr(p, section) if section else p, field) == value
    else:
        caplog.clear()
        assert main([*name.replace("-", " --kind ").split(), "--config", cfg, "--out", str(work / "runs")]) == 1
        assert one_error(caplog).startswith(f"InvalidConfig: {key} must be ")
        assert not (work / "runs").exists()


def test_every_run_key_is_a_section_or_a_top_level_field():
    top = {f.name for f in fields(TopLevelConfig)}
    for run in RUNS.values():
        assert all((key in cli._SECTIONS) != (key in top) for key in run.keys), run.keys


def test_split_skips_a_directory_named_like_a_sample(tmp_path):
    root, split = tmp_path / "corpus", tmp_path / "split.json"
    assert main(["synth", "--out", str(root), "--classes", "3", "--per-class", "4", "--seed", "9"]) == 0
    (root / "class_00" / "zz.npy").mkdir()
    assert main(["split", "--data-root", str(root), "--out", str(split)]) == 0
    doc = json.loads(split.read_text())
    assert len(doc["train"]) + len(doc["test"]) == 12
    assert "class_00/zz.npy" not in doc["train"] + doc["test"]


def test_synth_command_deterministic(tmp_path):
    args = ["synth", "--classes", "3", "--per-class", "4", "--seed", "5", "--noise", "0.02"]
    assert main(args + ["--out", str(tmp_path / "c1")]) == 0
    assert main(args + ["--out", str(tmp_path / "c2")]) == 0
    from test_synth import tree_hash

    assert tree_hash(tmp_path / "c1") == tree_hash(tmp_path / "c2")
    assert (tmp_path / "c1" / "corpus_meta.json.manifest.json").exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--noise", "nan"), ("--noise", "inf"), ("--noise", "-0.1"), ("--scale-min", "0"),
     ("--scale-min", "-1"), ("--scale-min", "20"), ("--scale-max", "inf"), ("--translate-max", "nan"),
     ("--translate-max", "-2"), ("--name", "")],
)
def test_synth_bad_parameter_is_one_line_error_and_writes_nothing(tmp_path, caplog, flag, value):
    out = tmp_path / "corpus"
    argv = ["synth", "--out", str(out), "--classes", "2", "--per-class", "2", flag, value]
    assert main(argv) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert errors[0].startswith("InvalidConfig: synth.")
    assert not out.exists()


def test_synth_refuses_a_directory_holding_another_corpus_and_rewrites_its_own(tmp_path, caplog):
    from test_synth import tree_hash

    root = tmp_path / "corpus"
    first = ["synth", "--out", str(root), "--classes", "4", "--per-class", "5", "--seed", "1"]
    assert main(first) == 0
    before = tree_hash(root), (root / "corpus_meta.json").read_bytes()
    # Fewer samples per class: class_00/s0003.npy would survive into the smaller corpus.
    assert main(["synth", "--out", str(root), "--classes", "2", "--per-class", "3", "--seed", "2"]) == 1
    # Fewer classes only: class_02 and class_03 would survive.
    assert main(["synth", "--out", str(root), "--classes", "2", "--per-class", "5", "--seed", "1"]) == 1
    (root / "notes").mkdir()  # any other subdirectory would be read as a class
    assert main(first) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 3 and not any("\n" in e for e in errors)
    for error, entry in zip(errors, ("class_00/s0003.npy", "class_02", "notes")):
        assert error.startswith(f"FileExistsError: {root / entry} is not part of this corpus")
    assert (tree_hash(root), (root / "corpus_meta.json").read_bytes()) == before
    (root / "notes").rmdir()
    for f in root.rglob("*.npy"):  # as the benchmark empties a corpus before it writes it again
        f.write_bytes(b"")
    assert main(first) == 0
    assert (tree_hash(root), (root / "corpus_meta.json").read_bytes()) == before


@pytest.mark.parametrize("run_id", ["../x", "absolute", "a/b", ".", ".."])
def test_run_id_that_is_not_one_plain_name_is_one_line_error_and_creates_nothing(
    small_corpus, tmp_path, caplog, run_id
):
    out = tmp_path / "out"
    out.mkdir()
    if run_id == "absolute":
        run_id = str(tmp_path / "abs_escape")
    cfg = write_yaml(tmp_path / "eval.yaml", eval_doc(small_corpus, episodes=3))
    before = sorted(tmp_path.rglob("*"))
    assert main(["eval", "--config", cfg, "--out", str(out), "--run-id", run_id]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert errors[0].startswith("ValueError: --run-id must be one plain name")
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("seed", ["-1", "-18446744073709551615"])
def test_negative_synth_or_split_seed_is_one_line_error_and_writes_nothing(tmp_path, caplog, seed):
    out = tmp_path / "corpus"
    assert main(["synth", "--out", str(out), "--classes", "2", "--per-class", "2", "--seed", seed]) == 1
    assert not out.exists()
    root, split = tmp_path / "good", tmp_path / "splits" / "split.json"
    assert main(["synth", "--out", str(root), "--classes", "2", "--per-class", "3", "--seed", "1"]) == 0
    assert main(["split", "--data-root", str(root), "--out", str(split), "--seed", seed]) == 1
    assert not split.parent.exists()
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 2 and not any("\n" in e for e in errors)
    assert errors[0].startswith("InvalidConfig: synth.seed must be a non-negative integer")
    assert errors[1].startswith("ValueError: split seed must be a non-negative integer")


@pytest.mark.parametrize("value", ["no", "yes", 0, 1, None])
def test_non_boolean_normalize_is_one_line_error_and_creates_no_run_dir(small_corpus, tmp_path, caplog, value):
    doc = eval_doc(small_corpus, episodes=3)
    doc["data"]["normalize"] = value
    cfg = write_yaml(tmp_path / "norm.yaml", doc)
    assert main(["eval", "--config", cfg, "--out", str(tmp_path), "--run-id", "norm"]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"InvalidConfig: data.normalize must be a boolean, got {value!r}"]
    assert not (tmp_path / "norm").exists()


@pytest.mark.parametrize("version", [True, 1.0, "1", 2, None])
def test_schema_version_must_be_the_integer_one(small_corpus, tmp_path, caplog, version):
    cfg = write_yaml(tmp_path / "v.yaml", eval_doc(small_corpus, episodes=3) | {"schema_version": version})
    assert main(["eval", "--config", cfg, "--out", str(tmp_path), "--run-id", "v"]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"InvalidConfig: {cfg}: schema_version must be 1, got {version!r}"]
    assert not (tmp_path / "v").exists()


SECTIONS = {"data": DataConfig, "train": TrainConfig, "encoder": EncoderConfig, "eval": EvalSpec,
            "adapt": AdaptConfig, "synth": SynthSpec}
REQUIRED = {"data": {"data_root": "d", "split": "s.json", "representation": "angle"}, "encoder": {"input_dim": 20}}
# The Python types each annotation admits; bool is an int subclass, so type() and not isinstance.
ADMITS = {"int": {int}, "float": {int, float}, "float | None": {int, float, type(None)}, "bool": {bool},
          "str": {str}, "tuple[float, float]": {tuple}}
VALUES = {type(None): st.none(), bool: st.booleans(), int: st.integers(), float: st.floats(),
          str: st.text(max_size=4), list: st.lists(st.integers(), max_size=2), tuple: st.tuples(st.floats(), st.floats()),
          dict: st.dictionaries(st.text(max_size=2), st.integers(), max_size=1)}


@pytest.mark.parametrize(
    "section, name, kind", [(s, f.name, f.type) for s, cls in SECTIONS.items() for f in fields(cls)]
)
@settings(max_examples=30)
@given(data=st.data())
def test_a_wrong_typed_value_for_any_field_is_refused_naming_the_field(section, name, kind, data):
    value = data.draw(st.one_of([values for t, values in VALUES.items() if t not in ADMITS[kind]]))
    with pytest.raises(InvalidConfig) as refused:
        SECTIONS[section](**REQUIRED.get(section, {}) | {name: value})
    assert str(refused.value).startswith(f"{section}.{name} ")


def test_degenerate_hand_in_raw_pool_is_one_line_error_naming_the_file(tmp_path, caplog):
    # Written after the split, the hand is skipped by the catalog, so the split is stale for every representation.
    corpus = corpus_with_coincident_test_hand(tmp_path)
    doc = eval_doc(corpus, episodes=3, k_shot=1)
    for representation in REPRESENTATIONS:
        caplog.clear()
        doc["data"]["representation"] = representation
        cfg = write_yaml(tmp_path / "eval.yaml", doc)
        assert main(["eval", "--config", cfg, "--out", str(tmp_path / "runs"), "--run-id", representation]) == 1
        assert one_error(caplog) == (f"InvalidSplit: {corpus['split_path']}: split lists {corpus['bad']}, "
                                     "which the catalog skipped (degenerate)")
    assert not (tmp_path / "runs").exists()


def _drop_byte_offset(header):
    del header["tensors"][0]["byte_offset"]
    return header


def _drop_hidden_dim(header):
    del header["meta"]["encoder"]["hidden_dim"]
    return header


def _negative_byte_offset(header):
    header["tensors"][1]["byte_offset"] = -8
    return header


def _swap_fc1_bias_and_bn1_gamma(header):
    # Both are (hidden_dim,): every name and shape is right, but not in the encoder's order.
    first, second = header["tensors"][1], header["tensors"][2]
    first["name"], second["name"] = second["name"], first["name"]
    return header


def _pad_header_past_one_mib(header):
    header["meta"]["pad"] = "x" * (1 << 20)
    return header


def _set_tensor_field(index, field, value):
    def mutate(header):
        header["tensors"][index][field] = value
        return header
    return mutate


def _set_encoder_field(field, value):
    def mutate(header):
        header["meta"]["encoder"][field] = value
        return header
    return mutate


def save_random_encoder(ckpt):
    """An untrained angle-representation encoder checkpoint at ``ckpt``."""
    from geomshot.nnet import MLPEncoder, save_checkpoint

    encoder = MLPEncoder(EncoderConfig(input_dim=20, hidden_dim=32, embed_dim=16), seed=0)
    save_checkpoint(ckpt, encoder.config, encoder.state(), {"representation": "angle"})


@pytest.mark.parametrize(
    "mutate",
    [_drop_byte_offset, _drop_hidden_dim, lambda header: [1, 2], _negative_byte_offset,
     _set_encoder_field("num_hidden", 10**12), _set_tensor_field(2, "byte_offset", 0),
     _set_tensor_field(0, "byte_offset", True), _set_tensor_field(0, "name", ["fc1.weight"]),
     _set_tensor_field(0, "shape", [20.7, 32]), _set_tensor_field(0, "shape", [32, 20]),
     _set_encoder_field("hidden_dim", 10**9), _set_encoder_field("hidden_dim", 32.5),
     _set_encoder_field("num_hidden", 2.0), _set_encoder_field("num_hidden", True),
     _set_encoder_field("embed_dim", "16"), _set_encoder_field("dropout_p", "0.3"),
     _swap_fc1_bias_and_bn1_gamma, _pad_header_past_one_mib, _set_tensor_field(0, "byte_offset", False),
     _set_tensor_field(0, "shape", [20.0, 32]), _set_tensor_field(0, "dtype", "<f4"),
     _set_tensor_field(3, "note", "extra")],
    ids=["tensor-without-byte-offset", "encoder-without-hidden-dim", "header-not-an-object",
         "negative-byte-offset", "huge-num-hidden", "overlapping-byte-offset", "bool-byte-offset",
         "list-name", "float-shape", "transposed-shape", "huge-hidden-dim", "float-hidden-dim",
         "float-num-hidden", "bool-num-hidden", "string-embed-dim", "string-dropout-p",
         "same-shape-names-swapped", "header-over-1-mib", "false-byte-offset", "integral-float-shape",
         "f4-dtype", "entry-with-extra-key"],
)
def test_malformed_checkpoint_is_one_line_error(small_corpus, tmp_path, caplog, mutate):
    ckpt = tmp_path / "encoder.ckpt"
    save_random_encoder(ckpt)
    header_line, payload = ckpt.read_bytes().split(b"\n", 1)
    header = mutate(json.loads(header_line))
    ckpt.write_bytes(json.dumps(header).encode() + b"\n" + payload)

    cfg = write_yaml(tmp_path / "eval.yaml", eval_doc(small_corpus, checkpoint=ckpt))
    assert main(["eval", "--config", cfg, "--out", str(tmp_path), "--run-id", "bad"]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert errors[0].startswith("CorruptCheckpoint: ")


@pytest.mark.parametrize("tensor, value, fault", [
    ("fc1.weight", np.nan, "payload holds a non-finite value"),
    ("head.bias", np.inf, "payload holds a non-finite value"),
    ("bn1.running_mean", -np.inf, "payload holds a non-finite value"),
    ("bn2.running_var", -5.0, "a BatchNorm running variance is negative"),
], ids=["nan", "inf", "minus-inf", "negative-variance"])
def test_checkpoint_that_gives_no_meaningful_embedding_is_refused(small_corpus, tmp_path, caplog, tensor, value,
                                                                  fault):
    ckpt = tmp_path / "encoder.ckpt"
    save_random_encoder(ckpt)
    loaded, meta = load_checkpoint(ckpt)
    entry = next(e for e in tensor_table(loaded.config) if e["name"] == tensor)
    loaded.state_array[entry["byte_offset"] // 8 + 3] = value
    save_checkpoint(ckpt, loaded.config, loaded.state_array, meta)
    with pytest.raises(CorruptCheckpoint, match=f"^{ckpt}: {fault}$"):
        load_checkpoint(ckpt)
    cfg = write_yaml(tmp_path / "eval.yaml", eval_doc(small_corpus, checkpoint=ckpt))
    assert main(["eval", "--config", cfg, "--out", str(tmp_path / "runs"), "--run-id", "bad"]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == [f"CorruptCheckpoint: {ckpt}: {fault}"]
    assert not (tmp_path / "runs" / "bad").exists()


def test_zero_eval_episodes_is_one_line_error(small_corpus, tmp_path, caplog):
    cfg = write_yaml(tmp_path / "eval.yaml", eval_doc(small_corpus, episodes=0))
    assert main(["eval", "--config", cfg, "--out", str(tmp_path), "--run-id", "zero"]) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert errors == ["InvalidConfig: eval.episodes must be an integer >= 1, got 0"]
    assert not (tmp_path / "zero").exists()


def test_reused_run_id_is_refused(small_corpus, tmp_path):
    cfg = write_yaml(tmp_path / "eval.yaml", eval_doc(small_corpus, episodes=5))
    argv = ["eval", "--config", cfg, "--out", str(tmp_path), "--run-id", "same"]
    assert main(argv) == 0
    report = (tmp_path / "same" / "report.json").read_bytes()
    cfg = write_yaml(tmp_path / "eval.yaml", eval_doc(small_corpus, episodes=7))
    assert main(argv) == 1
    assert (tmp_path / "same" / "report.json").read_bytes() == report


def test_input_error_leaves_no_run_dir_and_the_run_id_stays_free(small_corpus, tmp_path):
    ckpt = tmp_path / "encoder.ckpt"
    cfg = write_yaml(tmp_path / "lin.yaml", eval_doc(small_corpus, episodes=5, checkpoint=ckpt))
    argv = ["baseline", "--kind", "episode_linear", "--config", cfg, "--out", str(tmp_path / "runs"),
            "--run-id", "b1"]
    assert main(argv) == 1  # the checkpoint does not exist yet
    assert not (tmp_path / "runs" / "b1").exists()
    save_random_encoder(ckpt)
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "runs" / "b1" / "manifest.json").read_text())
    assert manifest["status"] == "ok" and "error" not in manifest


@pytest.mark.parametrize("error", [InsufficientClasses("raised by the run body"),
                                   MemoryError("Unable to allocate 37.3 TiB for an array")])
def test_run_that_fails_after_start_writes_a_failed_manifest(small_corpus, tmp_path, monkeypatch, caplog, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr("geomshot.cli.evaluate", fail)
    cfg = write_yaml(tmp_path / "eval.yaml", eval_doc(small_corpus, episodes=5))
    assert main(["eval", "--config", cfg, "--out", str(tmp_path), "--run-id", "f1"]) == 1
    assert one_error(caplog) == f"{type(error).__name__}: {error}"
    manifest = json.loads((tmp_path / "f1" / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == f"{type(error).__name__}: {error}"
    assert not (tmp_path / "f1" / "report.json").exists()


def test_ctrl_c_is_one_line_and_status_130_and_leaves_a_failed_manifest(small_corpus, tmp_path, monkeypatch, caplog):
    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "train_encoder", interrupt)
    cfg = write_yaml(tmp_path / "train.yaml", tiny_train_doc(small_corpus))
    assert main(["train", "--config", cfg, "--out", str(tmp_path), "--run-id", "i"]) == 130
    assert one_error(caplog) == "interrupted"
    manifest = json.loads((tmp_path / "i" / "manifest.json").read_text())
    assert manifest["status"] == "failed" and manifest["error"] == "KeyboardInterrupt: "


def test_back_to_back_default_run_ids_do_not_collide(small_corpus, tmp_path):
    cfg = write_yaml(tmp_path / "eval.yaml", eval_doc(small_corpus, episodes=3))
    out = tmp_path / "runs"
    assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
    assert main(["eval", "--config", cfg, "--out", str(out)]) == 0
    runs = sorted(out.iterdir())
    assert len(runs) == 2
    for run in runs:
        assert run.name.startswith("eval-")
        assert json.loads((run / "manifest.json").read_text())["status"] == "ok"


def one_error(caplog) -> str:
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]
    return errors[0]


def corpus_with_coincident_test_hand(tmp_path):
    """A 3-class corpus whose test side holds one hand, ``bad``, with all 21 keypoints at one point."""
    from geomshot.npyio import write_keypoints

    root, split = tmp_path / "corpus", tmp_path / "split.json"
    assert main(["synth", "--out", str(root), "--classes", "3", "--per-class", "8", "--seed", "9"]) == 0
    assert main(["split", "--data-root", str(root), "--out", str(split), "--fraction", "0.5"]) == 0
    bad = json.loads(split.read_text())["test"][4]
    write_keypoints(root / bad, np.full((21, 3), 0.5))
    return {"root": root, "split_path": split, "bad": bad}


@pytest.mark.parametrize("command", [*EVAL_COMMANDS, "baseline --kind episode_linear", *TRAIN_COMMANDS])
def test_input_errors_found_only_in_the_data_create_no_run_dir(small_corpus, tmp_path, caplog, command):
    ckpt = tmp_path / "encoder.ckpt"
    save_random_encoder(ckpt)
    doc = command_doc(small_corpus, command)
    if command in ("eval", "multiseed", "baseline --kind episode_linear", "adapt"):
        doc["checkpoint"] = str(ckpt)
    doc["train" if command in TRAIN_COMMANDS else "eval"]["n_way"] = 7  # the corpus has 6 classes
    argv = [*command.split(), "--config", str(tmp_path / "c.yaml"), "--out", str(tmp_path), "--run-id"]
    if command == "adapt":  # frozen adaptation draws no episodes, so it needs no eligible classes
        write_yaml(tmp_path / "c.yaml", doc)
        assert main([*argv, "frozen"]) == 0
        doc["adapt"]["mode"] = "target_supervised"
    write_yaml(tmp_path / "c.yaml", doc)
    assert main([*argv, "run"]) == 1
    assert one_error(caplog).startswith("InsufficientClasses: 6 classes have >= ")
    assert not (tmp_path / "run").exists()


def test_ablate_with_a_coincident_test_hand_creates_no_run_dir(tmp_path, caplog):
    corpus = corpus_with_coincident_test_hand(tmp_path)
    doc = eval_doc(corpus, episodes=3, k_shot=1)
    doc["ablate"] = {"k_values": [1]}
    cfg = write_yaml(tmp_path / "ab.yaml", doc)
    assert main(["ablate", "--config", cfg, "--out", str(tmp_path / "runs"), "--run-id", "ab"]) == 1
    assert one_error(caplog) == (f"InvalidSplit: {corpus['split_path']}: split lists {corpus['bad']}, "
                                 "which the catalog skipped (degenerate)")
    assert not (tmp_path / "runs").exists()


def test_coincident_hand_split_after_it_is_a_counted_skip_for_every_representation(tmp_path):
    from geomshot.npyio import write_keypoints

    root, split, runs = tmp_path / "corpus", tmp_path / "split.json", tmp_path / "runs"
    assert main(["synth", "--out", str(root), "--classes", "3", "--per-class", "10", "--seed", "9"]) == 0
    write_keypoints(root / "class_01" / "s0000.npy", np.full((21, 3), 0.5))
    assert main(["split", "--data-root", str(root), "--out", str(split), "--fraction", "0.5"]) == 0
    doc = json.loads(split.read_text())
    assert len(doc["train"]) + len(doc["test"]) == 29 and "class_01/s0000.npy" not in doc["train"] + doc["test"]
    skipped = {"degenerate": {"count": 1, "first": ["class_01/s0000.npy"]}}
    data = json.loads(split.with_name("split.json.manifest.json").read_text())["data"]
    assert data == {"files_seen": 30, "rows": 29, "classes": 3, "skipped": skipped}

    config = eval_doc({"root": root, "split_path": split}, episodes=3, k_shot=1)
    test_side = {"rows": len(doc["test"]), "classes": 3, "degenerate_angle_rows": 0}
    for representation in REPRESENTATIONS:
        config["data"]["representation"] = representation
        cfg = write_yaml(tmp_path / "eval.yaml", config)
        assert main(["eval", "--config", cfg, "--out", str(runs), "--run-id", representation]) == 0
        manifest = json.loads((runs / representation / "manifest.json").read_text())
        assert manifest["data"] == {"files_seen": 30, "rows": 29, "classes": 3, "skipped": skipped,
                                    "pools": {"test": test_side}}
        assert "data" not in json.loads((runs / representation / "report.json").read_text())
    config["ablate"] = {"k_values": [1]}
    cfg = write_yaml(tmp_path / "ab.yaml", config)
    assert main(["ablate", "--config", cfg, "--out", str(runs), "--run-id", "ab"]) == 0
    pools = json.loads((runs / "ab" / "manifest.json").read_text())["data"]["pools"]
    assert pools == {"test/raw/normalize=false": test_side, "test/raw/normalize=true": test_side,
                     "test/angle/normalize=true": test_side}


def test_failed_checkpoint_write_leaves_no_partial_file_and_a_failed_manifest(small_corpus, tmp_path, monkeypatch):
    def save_part(path, config, state, meta):
        Path(path).write_bytes(b"partial")
        raise OSError("No space left on device")

    monkeypatch.setattr("geomshot.cli.save_checkpoint", save_part)
    cfg = write_yaml(tmp_path / "train.yaml", tiny_train_doc(small_corpus))
    assert main(["train", "--config", cfg, "--out", str(tmp_path / "runs"), "--run-id", "t"]) == 1
    run = tmp_path / "runs" / "t"
    assert not (run / "checkpoints" / "encoder.ckpt").exists()
    assert list(run.rglob("*.tmp")) == []
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["status"] == "failed" and manifest["error"] == "OSError: No space left on device"


def test_encoder_typo_is_refused_before_the_data_loads(tmp_path, caplog):
    doc = tiny_train_doc({"root": tmp_path / "absent", "split_path": tmp_path / "absent.json"})
    doc["encoder"]["hidden_dims"] = 32
    cfg = write_yaml(tmp_path / "train.yaml", doc)
    assert main(["train", "--config", cfg, "--out", str(tmp_path), "--run-id", "t"]) == 1
    assert one_error(caplog) == "InvalidConfig: unknown keys in encoder: ['hidden_dims']"
    assert not (tmp_path / "t").exists()


@pytest.mark.parametrize("command", ["ablate", "multiseed", "baseline --kind full_data", "a JSON list"])
def test_export_of_a_report_without_episodes_is_one_line_error(small_corpus, tmp_path, caplog, command):
    report = tmp_path / "r" / "report.json"
    if command == "a JSON list":
        report.parent.mkdir()
        report.write_text("[1, 2]")
    else:
        cfg = write_yaml(tmp_path / "c.yaml", eval_doc(small_corpus, episodes=3))
        assert main([*command.split(), "--config", cfg, "--out", str(tmp_path), "--run-id", "r"]) == 0
    caplog.clear()
    out = tmp_path / "tables" / "row.csv"
    assert main(["export", "--report", str(report), "--out", str(out)]) == 1
    assert one_error(caplog).startswith(f"GeomshotError: {report}: not an episode report (")
    assert not out.parent.exists()


_RUN_OPTIONS = {"--config": (None, True, None, None), "--out": (None, True, None, None),
                "--run-id": (None, False, None, None)}
# subcommand ("" for the top level) -> option strings -> (default, required, choices, type)
CLI_SURFACE = {
    "": {"-v, --verbose": (False, False, None, None)},
    "synth": {"--out": (None, True, None, None), "--classes": (10, False, None, "int"),
              "--per-class": (200, False, None, "int"), "--noise": (0.05, False, None, "float"),
              "--transforms, --no-transforms": (True, False, None, None), "--seed": (7, False, None, "int"),
              "--scale-min": (0.1, False, None, "float"), "--scale-max": (10.0, False, None, "float"),
              "--translate-max": (10.0, False, None, "float"), "--name": ("synth", False, None, None)},
    "split": {"--data-root": (None, True, None, None), "--out": (None, True, None, None),
              "--fraction": (0.7, False, None, "float"), "--seed": (42, False, None, "int")},
    **{command: _RUN_OPTIONS for command in ("train", "pretrain", "adapt", "eval", "ablate", "multiseed")},
    "baseline": {"--kind": (None, True, ["input_space", "episode_linear", "full_data"], None), **_RUN_OPTIONS},
    "export": {"--report": (None, True, None, None), "--out": (None, True, None, None),
               "--mode": ("within", False, None, None)},
}


def test_cli_surface_is_unchanged():
    def options(parser):
        return [(", ".join(a.option_strings), (a.default, a.required, a.choices, a.type and a.type.__name__))
                for a in parser._actions if a.option_strings and a.dest != "help"]

    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    surface = [("", options(parser))] + [(name, options(p)) for name, p in commands.items()]
    assert surface == [(name, list(opts.items())) for name, opts in CLI_SURFACE.items()]


def test_the_parser_is_built_once_per_process():
    # main runs many commands in one process; a parser per call leaves cyclic garbage behind each one
    assert build_parser() is build_parser()


def test_full_data_baseline_on_one_class_creates_no_run_dir(tmp_path, caplog):
    root, split = tmp_path / "corpus", tmp_path / "split.json"
    assert main(["synth", "--out", str(root), "--classes", "2", "--per-class", "6", "--seed", "9"]) == 0
    shutil.rmtree(root / "class_01")
    assert main(["split", "--data-root", str(root), "--out", str(split)]) == 0
    cfg = write_yaml(tmp_path / "full.yaml", eval_doc({"root": root, "split_path": split}, episodes=3))
    assert main(["baseline", "--kind", "full_data", "--config", cfg, "--out", str(tmp_path), "--run-id", "f"]) == 1
    assert one_error(caplog) == "DegenerateProblem: need at least two classes for a linear classifier"
    assert not (tmp_path / "f").exists()


def test_full_data_baseline_with_an_empty_test_split_creates_no_run_dir(tmp_path, caplog):
    root, split = tmp_path / "corpus", tmp_path / "split.json"
    assert main(["synth", "--out", str(root), "--classes", "2", "--per-class", "1", "--seed", "9"]) == 0
    assert main(["split", "--data-root", str(root), "--out", str(split)]) == 0  # one-sample classes go to train
    cfg = write_yaml(tmp_path / "full.yaml", eval_doc({"root": root, "split_path": split}, episodes=3))
    assert main(["baseline", "--kind", "full_data", "--config", cfg, "--out", str(tmp_path), "--run-id", "f"]) == 1
    assert one_error(caplog) == "DegenerateProblem: the test split has no rows to score"
    assert not (tmp_path / "f").exists()


@pytest.mark.parametrize("argv, flag", [
    (["synth", "--out", "", "--classes", "2", "--per-class", "2"], "--out"),
    (["split", "--data-root", "", "--out", "split.json"], "--data-root"),
    (["split", "--data-root", "corpus", "--out", ""], "--out"),
    (["eval", "--config", "", "--out", "runs"], "--config"),
    (["eval", "--config", "c.yaml", "--out", ""], "--out"),
    (["export", "--report", "", "--out", "row.csv"], "--report"),
    (["export", "--report", "report.json", "--out", ""], "--out"),
])
def test_an_empty_path_flag_is_one_line_error_and_writes_nothing(tmp_path, monkeypatch, caplog, argv, flag):
    monkeypatch.chdir(tmp_path)  # Path("") is the working directory
    assert main(argv) == 1
    assert one_error(caplog) == f"ValueError: {flag} must be a non-empty path"
    assert list(tmp_path.iterdir()) == []


def test_sidecar_manifests_record_when_the_command_started(small_corpus, tmp_path, monkeypatch):
    cfg = write_yaml(tmp_path / "eval.yaml", eval_doc(small_corpus, episodes=3))
    assert main(["eval", "--config", cfg, "--out", str(tmp_path), "--run-id", "e"]) == 0
    work_done = []
    # The clock reads "before" until each command's main work has run.
    monkeypatch.setattr(cli, "_now", lambda: "after" if work_done else "before")
    for work in ("generate_corpus", "stratified_split", "write_csv_table"):
        def mark_done(*args, _real=getattr(cli, work), **kwargs):
            work_done.append(True)
            return _real(*args, **kwargs)
        monkeypatch.setattr(cli, work, mark_done)
    corpus, split, row = tmp_path / "corpus", tmp_path / "split.json", tmp_path / "row.csv"
    for argv, out in [(["synth", "--out", str(corpus), "--classes", "2", "--per-class", "3"],
                       corpus / "corpus_meta.json"),
                      (["split", "--data-root", str(corpus), "--out", str(split)], split),
                      (["export", "--report", str(tmp_path / "e" / "report.json"), "--out", str(row)], row)]:
        work_done.clear()
        assert main(argv) == 0
        manifest = json.loads(out.with_name(out.name + ".manifest.json").read_text())
        assert (manifest["started_at"], manifest["finished_at"]) == ("before", "after"), argv[0]


def test_unknown_keys_of_mixed_types_are_one_line_error(small_corpus, tmp_path, caplog):
    doc = eval_doc(small_corpus, episodes=3)
    doc["data"] |= {1: 2, "foo": 3}
    cfg = write_yaml(tmp_path / "mixed.yaml", doc)
    assert main(["eval", "--config", cfg, "--out", str(tmp_path), "--run-id", "m"]) == 1
    assert one_error(caplog) == "InvalidConfig: unknown keys in data: ['foo', 1]"


def test_a_config_key_written_twice_is_refused_naming_its_line(small_corpus, tmp_path, caplog):
    cfg = tmp_path / "twice.yaml"
    text = yaml.safe_dump(eval_doc(small_corpus, episodes=3), default_flow_style=None, width=1000)
    cfg.write_text(text.replace("k_shot: 2,", "k_shot: 1, k_shot: 4,"))
    line = next(i for i, row in enumerate(cfg.read_text().splitlines(), 1) if "k_shot: 4" in row)
    assert main(["eval", "--config", str(cfg), "--out", str(tmp_path), "--run-id", "t"]) == 1
    assert one_error(caplog).startswith(f"InvalidConfig: {cfg}: line {line}, column ")
    assert one_error(caplog).endswith(": found duplicate key 'k_shot'")
    assert not (tmp_path / "t").exists()


def test_a_split_side_listed_twice_is_refused(small_corpus, tmp_path, caplog):
    split = tmp_path / "split.json"
    text = small_corpus["split_path"].read_text()
    split.write_text(text.replace('"test": [', '"train": [], "test": ['))
    cfg = write_yaml(tmp_path / "eval.yaml", eval_doc({"root": small_corpus["root"], "split_path": split}))
    assert main(["eval", "--config", cfg, "--out", str(tmp_path), "--run-id", "t"]) == 1
    assert one_error(caplog) == f"InvalidSplit: {split}: found duplicate key 'train'"


def test_an_explicit_key_may_override_a_yaml_merge(tmp_path):
    path = tmp_path / "merge.yaml"
    path.write_text("c: &c {a: 0, z: 0}\nb: &b {<<: *c, a: 1}\nx: {<<: *b, a: 3}\ny: {<<: [*b, *c], q: 1}\n")
    doc = read_document(path, InvalidConfig, yaml_syntax=True)
    assert doc["x"] == {"a": 3, "z": 0} and doc["y"] == {"a": 1, "z": 0, "q": 1}


@pytest.mark.parametrize("fault", ["deep-yaml-one-line", "closers-before-nest", "quoted-closers"])
def test_a_one_line_flow_nest_is_refused_before_the_yaml_scanner_runs(tmp_path, monkeypatch, fault):
    path = tmp_path / "deep.yaml"
    path.write_bytes(FAULTS[fault])

    def scanner(*args, **kwargs):
        raise AssertionError("yaml.load ran")

    monkeypatch.setattr(yaml, "load", scanner)
    with pytest.raises(InvalidConfig) as info:
        read_document(path, InvalidConfig, yaml_syntax=True)
    assert str(info.value) == f"{path}: nested too deeply"


@pytest.mark.parametrize("text, refused", [
    ("[" * MAX_FLOW_DEPTH + "]" * MAX_FLOW_DEPTH, False),
    ("{a: " * MAX_FLOW_DEPTH + "1" + "}" * MAX_FLOW_DEPTH, False),
    ("[" * (MAX_FLOW_DEPTH + 1) + "]" * (MAX_FLOW_DEPTH + 1), True),
    ("[" + "{a: " * MAX_FLOW_DEPTH + "1" + "}" * MAX_FLOW_DEPTH + "]", True),
    ("- " * 2_000 + "1", True),  # block nesting has no brackets: the parser's recursion limit refuses it
], ids=["flow-at-limit", "mapping-at-limit", "flow-over-limit", "mixed-over-limit", "deep-block"])
def test_yaml_nesting_limit(tmp_path, text, refused):
    path = tmp_path / "nest.yaml"
    path.write_text(text)
    if refused:
        with pytest.raises(InvalidConfig, match="nested too deeply$"):
            read_document(path, InvalidConfig, yaml_syntax=True)
    else:
        read_document(path, InvalidConfig, yaml_syntax=True)


def test_a_config_over_the_size_cap_is_refused_after_reading_about_the_cap(tmp_path):
    path = tmp_path / "big.yaml"
    path.write_bytes(b"#" * (8 << 20))

    def refuse():
        with pytest.raises(InvalidConfig, match=rf"big\.yaml: longer than {MAX_CONFIG_BYTES} bytes$"):
            read_document(path, InvalidConfig, yaml_syntax=True)

    _, peak = traced_peak(refuse)
    assert peak < 3 << 20  # 2.04 MiB measured (the reads, then their join); the whole file would be 8 MiB
    path.write_bytes(b"#" * MAX_CONFIG_BYTES)  # a comment: at the cap, the file parses
    assert read_document(path, InvalidConfig, yaml_syntax=True) is None


@pytest.fixture(scope="module")
def fault_corpus(tmp_path_factory):
    """A 4-class synth corpus with its split and an untrained angle checkpoint, read by the fault tests."""
    directory = tmp_path_factory.mktemp("faults")
    root, split, ckpt = directory / "corpus", directory / "split.json", directory / "encoder.ckpt"
    assert main(["synth", "--out", str(root), "--classes", "4", "--per-class", "10", "--seed", "3"]) == 0
    assert main(["split", "--data-root", str(root), "--out", str(split), "--fraction", "0.5"]) == 0
    save_random_encoder(ckpt)
    return {"root": root, "split_path": split, "checkpoint": ckpt}


# The bytes of each text-input fault; a directory and a missing file have none.
FAULTS = {
    "not-utf8": b"\xff\xfe",
    "bad-json": b"{not json",
    "open-flow-node": b"data: {data_root: [",
    "tab-in-flow-mapping": b"data: {a: 1,\tb: 2}",
    "deep-json": b"[" * 100_000 + b"]" * 100_000,
    "deep-yaml": b"[\n" * 5_000 + b"]\n" * 5_000,
    # PyYAML's scanner takes 0.6-2 s on each of these three; the flow-opener count refuses them first.
    "deep-yaml-one-line": b"[" * 5_000 + b"]" * 5_000,
    "closers-before-nest": b"a: b" + b"]" * 2_000 + b"\nc: " + b"[" * 2_000 + b"]" * 2_000,
    "quoted-closers": b'["]",' * 2_000 + b"]" * 2_000,
    "oversized": b"#" * MAX_CONFIG_BYTES + b"\n",
    "top-level-list": b"[1, 2]",
    "directory": None,
    "missing": None,
}
YAML_FAULTS = [fault for fault in FAULTS if fault != "deep-json"]
JSON_FAULTS = ["not-utf8", "bad-json", "deep-json", "top-level-list", "directory", "missing"]
RUN_ARGVS = [name.replace("baseline-", "baseline --kind ") for name in RUNS]
CHECKPOINT_COMMANDS = ("eval", "multiseed", "adapt", "baseline --kind episode_linear")
FAULT_CELLS = ([("config", command, fault) for command in RUN_ARGVS for fault in YAML_FAULTS]
               + [("split", command, fault) for command in RUN_ARGVS for fault in JSON_FAULTS]
               + [("report", "export", fault) for fault in JSON_FAULTS]
               + [("checkpoint", command, fault) for command in CHECKPOINT_COMMANDS for fault in JSON_FAULTS])
INPUT_FILES = {"config": "c.yaml", "split": "split.json", "report": "report.json", "checkpoint": "encoder.ckpt"}


def text_input_argv(corpus, tmp_path, kind, command, bad) -> list[str]:
    """The argv of ``command`` reading ``bad`` as its ``kind`` input and valid files for every other input."""
    if kind == "report":
        return ["export", "--report", str(bad), "--out", str(tmp_path / "tables" / "row.csv")]
    doc = command_doc(corpus, command)
    if kind == "split":
        doc["data"]["split"] = str(bad)
    if command in CHECKPOINT_COMMANDS:
        doc["checkpoint"] = str(bad if kind == "checkpoint" else corpus["checkpoint"])
    cfg = bad if kind == "config" else write_yaml(tmp_path / "c.yaml", doc)
    return [*command.split(), "--config", str(cfg), "--out", str(tmp_path / "runs"), "--run-id", "r"]


@pytest.mark.parametrize("kind, command, fault", FAULT_CELLS, ids=["-".join(cell) for cell in FAULT_CELLS])
def test_a_bad_text_input_is_one_line_naming_the_file(fault_corpus, tmp_path, caplog, kind, command, fault):
    bad = tmp_path / INPUT_FILES[kind]
    if fault == "directory":
        bad.mkdir()
    elif fault != "missing":
        bad.write_bytes(FAULTS[fault])
    assert main(text_input_argv(fault_corpus, tmp_path, kind, command, bad)) == 1
    assert str(bad) in one_error(caplog)
    assert not (tmp_path / "runs").exists() and not (tmp_path / "tables").exists()
    assert list(tmp_path.rglob("*.tmp")) == []


MIXED_KEYS = st.text(max_size=3) | st.integers(-2, 2) | st.booleans() | st.none()
DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(MIXED_KEYS, inner, max_size=3),
    max_leaves=8,
)
TEXT_INPUTS = st.one_of(
    st.binary(max_size=40),
    DOCUMENTS.map(lambda doc: yaml.safe_dump(doc, sort_keys=False).encode()),
    DOCUMENTS.map(lambda doc: json.dumps(doc).encode()),  # mixed keys may repeat once made strings
    # a config whose sections are drawn, so the check reaches past the top level
    st.fixed_dictionaries({"data": DOCUMENTS, "eval": DOCUMENTS}).map(
        lambda doc: yaml.safe_dump({"schema_version": 1, **doc}, sort_keys=False).encode()),
)


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(INPUT_FILES)), text=TEXT_INPUTS)
def test_any_text_input_ends_in_at_most_one_error_line(fault_corpus, tmp_path_factory, caplog, kind, text):
    caplog.clear()
    work = tmp_path_factory.mktemp("text")
    bad = work / INPUT_FILES[kind]
    bad.write_bytes(text + b"\n" + bytes(16) if kind == "checkpoint" else text)  # a header line, then a payload
    assert main(text_input_argv(fault_corpus, work, kind, "eval", bad)) in (0, 1)
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) <= 1 and not any("\n" in e for e in errors)
