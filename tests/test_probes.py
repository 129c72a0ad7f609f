"""The benchmark's traced pass wraps geomshot by name: every name it wraps must exist."""

from pathlib import Path

import geomshot.cli
from geomshot.cli import main
from geomshot.nnet import checkpoint
from test_cli import eval_doc, tiny_train_doc, write_yaml

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_probes_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from probes import install
    from tracing import Tracer

    save, load = checkpoint.save_checkpoint, checkpoint.load_checkpoint
    tracer = Tracer("geomshot")
    try:
        install(tracer)  # a renamed function fails here, in getattr
        # The CLI calls the checkpoint functions through the names the traced pass wraps.
        assert geomshot.cli.save_checkpoint is not save and geomshot.cli.load_checkpoint is not load
    finally:
        tracer.restore()
    assert geomshot.cli.save_checkpoint is save and geomshot.cli.load_checkpoint is load


def test_perfbench_argument_readers_see_what_the_commands_pass(small_corpus, tmp_path, monkeypatch):
    # The readers take arguments by position or keyword; a moved argument would read the wrong value.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from probes import install
    from tracing import Tracer

    train = tiny_train_doc(small_corpus)
    train["train"] |= {"episodes_per_epoch": 3, "max_epochs": 1, "monitor_episodes": 3}
    ckpt = tmp_path / "train" / "checkpoints" / "encoder.ckpt"
    adapt = {key: train[key] for key in ("schema_version", "data", "train")}
    adapt |= {"adapt": {"mode": "target_supervised", "max_epochs": 1}, "checkpoint": str(ckpt)}
    evaluated = eval_doc(small_corpus, episodes=3, checkpoint=ckpt)
    ablate = eval_doc(small_corpus, episodes=3) | {"ablate": {"k_values": [1, 2]}}
    runs = [("train", ["train"], train), ("adapt", ["adapt"], adapt), ("eval", ["eval"], evaluated),
            ("episode_linear", ["baseline", "--kind", "episode_linear"], evaluated), ("ablate", ["ablate"], ablate)]
    save = checkpoint.save_checkpoint
    tracer = Tracer("geomshot")
    install(tracer)
    try:
        for run_id, command, doc in runs:
            cfg = write_yaml(tmp_path / f"{run_id}.yaml", doc)
            argv = command + ["--config", cfg, "--out", str(tmp_path), "--run-id", run_id]
            assert tracer.call("cli", main, argv) == 0, run_id
    finally:
        tracer.restore()
    assert geomshot.cli.save_checkpoint is save

    by_id = {s.id: s for s in tracer.spans}

    def ancestors(span):
        while span.parent is not None:
            span = by_id[span.parent]
            yield span

    def named(name):
        return [s for s in tracer.spans if s.name == name]

    commands = [s for s in tracer.spans if s.name == "cli"]
    assert len(commands) == len(runs)
    run_of = {cli.id: run_id for cli, (run_id, _, _) in zip(commands, runs)}

    def run(span):
        return next(run_of[a.id] for a in ancestors(span) if a.name == "cli")

    forward_train, forward_eval = named("nnet.encoder.forward_train"), named("nnet.encoder.forward_eval")
    assert forward_train and forward_eval
    assert all(s.attrs["rows"] > 0 for s in forward_train + forward_eval)
    encoder_protocols = {a.id: a for s in forward_eval for a in ancestors(s) if a.name == "evaluation.protocol"}
    assert {run(s) for s in encoder_protocols.values()} == {"eval", "episode_linear"}
    assert all(s.attrs["pool_rows"] > 0 for s in encoder_protocols.values())
    decodes = named("npyio.load_keypoints")
    assert decodes and all(s.attrs["path"].endswith(".npy") for s in decodes)
    tensors = {}
    for step in named("nnet.optim.step"):
        tensors.setdefault(run(step), set()).add(step.attrs["tensors"])
    assert tensors == {"train": {10}, "adapt": {2}}
