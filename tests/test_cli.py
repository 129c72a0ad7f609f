import json

import numpy as np
import pytest
import yaml

from geomshot.cli import main
from geomshot.nnet import load_checkpoint


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
    assert all(set(r) == {"epoch", "lr", "mean_loss", "monitor_acc"} for r in records)

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
    rows = json.loads((tmp_path / "ab1" / "report.json").read_text())["rows"]
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
    doc["ablate"] = {"k_value": [1]}
    cfg = write_yaml(tmp_path / "bad.yaml", doc)
    assert main(["ablate", "--config", cfg, "--out", str(tmp_path), "--run-id", "ab"]) == 1
    assert not (tmp_path / "ab").exists()


def test_synth_command_deterministic(tmp_path):
    args = ["synth", "--classes", "3", "--per-class", "4", "--seed", "5", "--noise", "0.02"]
    assert main(args + ["--out", str(tmp_path / "c1")]) == 0
    assert main(args + ["--out", str(tmp_path / "c2")]) == 0
    from test_synth import tree_hash

    assert tree_hash(tmp_path / "c1") == tree_hash(tmp_path / "c2")
    assert (tmp_path / "c1" / "corpus_meta.json.manifest.json").exists()


def _drop_byte_offset(header):
    del header["tensors"][0]["byte_offset"]
    return header


def _drop_hidden_dim(header):
    del header["meta"]["encoder"]["hidden_dim"]
    return header


def _negative_byte_offset(header):
    header["tensors"][1]["byte_offset"] = -8
    return header


def _huge_num_hidden(header):
    header["meta"]["encoder"]["num_hidden"] = 10**12
    return header


def save_random_encoder(ckpt):
    """An untrained angle-representation encoder checkpoint at ``ckpt``."""
    from geomshot.nnet import EncoderConfig, MLPEncoder
    from geomshot.pipeline import TrainResult, save_encoder

    encoder = MLPEncoder(EncoderConfig(input_dim=20, hidden_dim=32, embed_dim=16), seed=0)
    save_encoder(ckpt, TrainResult(encoder.state(), encoder.config, [], -1, 0.0,
                                   {"representation": "angle"}))


@pytest.mark.parametrize(
    "mutate",
    [_drop_byte_offset, _drop_hidden_dim, lambda header: [1, 2], _negative_byte_offset, _huge_num_hidden],
    ids=["tensor-without-byte-offset", "encoder-without-hidden-dim", "header-not-an-object",
         "negative-byte-offset", "huge-num-hidden"],
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


def test_run_that_fails_after_start_writes_a_failed_manifest(small_corpus, tmp_path):
    doc = eval_doc(small_corpus, episodes=5)
    doc["eval"]["n_way"] = 7  # the corpus has 6 classes
    cfg = write_yaml(tmp_path / "eval.yaml", doc)
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
