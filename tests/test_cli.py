import argparse
import json
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from geomshot.cli import build_parser, main
from geomshot.config import DataConfig
from geomshot.errors import InsufficientClasses, InvalidConfig
from geomshot.evaluation import EvalSpec
from geomshot.nnet import EncoderConfig, load_checkpoint
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
    _, orig = load_checkpoint(ckpt)
    _, adapted = load_checkpoint(tmp_path / "a1" / "checkpoints" / "encoder.ckpt")
    assert set(orig) == set(adapted)
    for name in orig:
        assert np.array_equal(orig[name], adapted[name]), name


def test_pretrain_records_source(small_corpus, tmp_path):
    doc = tiny_train_doc(small_corpus)
    doc["source"] = "langA"
    cfg = write_yaml(tmp_path / "pre.yaml", doc)
    assert main(["pretrain", "--config", cfg, "--out", str(tmp_path), "--run-id", "p1"]) == 0
    meta, _ = load_checkpoint(tmp_path / "p1" / "checkpoints" / "encoder.ckpt")
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


def test_unknown_config_key_rejected(small_corpus, tmp_path):
    doc = eval_doc(small_corpus)
    doc["eval"]["typo_key"] = 3
    cfg = write_yaml(tmp_path / "bad.yaml", doc)
    assert main(["eval", "--config", cfg, "--out", str(tmp_path)]) == 1


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
        ("multiseed", None, "seeds", [-1, 2], "InvalidConfig: seeds must be distinct and non-negative"),
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
        *[(c, "data", "data_root", 5, "InvalidConfig: data.data_root must be a string, got 5") for c in RUN_COMMANDS],
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
     ("--translate-max", "-2")],
)
def test_synth_bad_parameter_is_one_line_error_and_writes_nothing(tmp_path, caplog, flag, value):
    out = tmp_path / "corpus"
    argv = ["synth", "--out", str(out), "--classes", "2", "--per-class", "2", flag, value]
    assert main(argv) == 1
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert errors[0].startswith("InvalidConfig: synth.")
    assert not out.exists()


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
    from geomshot.npyio import write_keypoints

    root, split = tmp_path / "corpus", tmp_path / "split.json"
    assert main(["synth", "--out", str(root), "--classes", "3", "--per-class", "8", "--seed", "9"]) == 0
    assert main(["split", "--data-root", str(root), "--out", str(split), "--fraction", "0.5"]) == 0
    bad = json.loads(split.read_text())["test"][4]
    write_keypoints(root / bad, np.full((21, 3), 0.5))
    doc = eval_doc({"root": root, "split_path": split}, episodes=3, k_shot=1)
    for representation, code in (("raw", 1), ("angle", 0)):
        doc["data"]["representation"] = representation
        cfg = write_yaml(tmp_path / "eval.yaml", doc)
        assert main(["eval", "--config", cfg, "--out", str(tmp_path), "--run-id", representation]) == code
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "\n" not in errors[0]
    assert errors[0].startswith(f"DegenerateHand: {bad}: max pairwise distance ")


def _drop_byte_offset(header):
    del header["tensors"][0]["byte_offset"]
    return header


def _drop_hidden_dim(header):
    del header["meta"]["encoder"]["hidden_dim"]
    return header


def _negative_byte_offset(header):
    header["tensors"][1]["byte_offset"] = -8
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
    from geomshot.nnet import EncoderConfig, MLPEncoder
    from geomshot.pipeline import TrainResult, save_encoder

    encoder = MLPEncoder(EncoderConfig(input_dim=20, hidden_dim=32, embed_dim=16), seed=0)
    save_encoder(ckpt, TrainResult(encoder.state(), encoder.config, [], -1, 0.0,
                                   {"representation": "angle"}))


@pytest.mark.parametrize(
    "mutate",
    [_drop_byte_offset, _drop_hidden_dim, lambda header: [1, 2], _negative_byte_offset,
     _set_encoder_field("num_hidden", 10**12), _set_tensor_field(2, "byte_offset", 0),
     _set_tensor_field(0, "byte_offset", True), _set_tensor_field(0, "name", ["fc1.weight"]),
     _set_tensor_field(0, "shape", [20.7, 32]), _set_tensor_field(0, "shape", [32, 20]),
     _set_encoder_field("hidden_dim", 10**9), _set_encoder_field("hidden_dim", 32.5),
     _set_encoder_field("num_hidden", 2.0), _set_encoder_field("num_hidden", True),
     _set_encoder_field("embed_dim", "16"), _set_encoder_field("dropout_p", "0.3")],
    ids=["tensor-without-byte-offset", "encoder-without-hidden-dim", "header-not-an-object",
         "negative-byte-offset", "huge-num-hidden", "overlapping-byte-offset", "bool-byte-offset",
         "list-name", "float-shape", "transposed-shape", "huge-hidden-dim", "float-hidden-dim",
         "float-num-hidden", "bool-num-hidden", "string-embed-dim", "string-dropout-p"],
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


def test_run_that_fails_after_start_writes_a_failed_manifest(small_corpus, tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise InsufficientClasses("raised by the run body")

    monkeypatch.setattr("geomshot.cli.evaluate", fail)
    cfg = write_yaml(tmp_path / "eval.yaml", eval_doc(small_corpus, episodes=5))
    assert main(["eval", "--config", cfg, "--out", str(tmp_path), "--run-id", "f1"]) == 1
    manifest = json.loads((tmp_path / "f1" / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"].startswith("InsufficientClasses: ")
    assert not (tmp_path / "f1" / "report.json").exists()


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
    """A 3-class corpus whose test side holds one hand with all 21 keypoints at one point."""
    from geomshot.npyio import write_keypoints

    root, split = tmp_path / "corpus", tmp_path / "split.json"
    assert main(["synth", "--out", str(root), "--classes", "3", "--per-class", "8", "--seed", "9"]) == 0
    assert main(["split", "--data-root", str(root), "--out", str(split), "--fraction", "0.5"]) == 0
    write_keypoints(root / json.loads(split.read_text())["test"][4], np.full((21, 3), 0.5))
    return {"root": root, "split_path": split}


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
    doc = eval_doc(corpus_with_coincident_test_hand(tmp_path), episodes=3, k_shot=1)
    doc["ablate"] = {"k_values": [1]}
    cfg = write_yaml(tmp_path / "ab.yaml", doc)
    assert main(["ablate", "--config", cfg, "--out", str(tmp_path / "runs"), "--run-id", "ab"]) == 1
    assert one_error(caplog).startswith("DegenerateHand: ")
    assert not (tmp_path / "runs").exists()


def test_failed_checkpoint_write_leaves_no_partial_file_and_a_failed_manifest(small_corpus, tmp_path, monkeypatch):
    def save_part(path, result):
        Path(path).write_bytes(b"partial")
        raise OSError("No space left on device")

    monkeypatch.setattr("geomshot.cli.save_encoder", save_part)
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


def test_full_data_baseline_on_one_class_creates_no_run_dir(tmp_path, caplog):
    root, split = tmp_path / "corpus", tmp_path / "split.json"
    assert main(["synth", "--out", str(root), "--classes", "2", "--per-class", "6", "--seed", "9"]) == 0
    shutil.rmtree(root / "class_01")
    assert main(["split", "--data-root", str(root), "--out", str(split)]) == 0
    cfg = write_yaml(tmp_path / "full.yaml", eval_doc({"root": root, "split_path": split}, episodes=3))
    assert main(["baseline", "--kind", "full_data", "--config", cfg, "--out", str(tmp_path), "--run-id", "f"]) == 1
    assert one_error(caplog) == "DegenerateProblem: need at least two classes for a linear classifier"
    assert not (tmp_path / "f").exists()
