"""The benchmark's workloads as sequences of geomshot CLI commands.

Each workload has a set-up (commands that prepare its inputs) and a timed
section. Both are rebuilt per repetition ``rep`` so every run-style
command gets its own ``--run-id``; every path lives under the work
directory. Corpora come from ``geomshot synth`` seeded with the benchmark
seed, so the same seed gives the same inputs.

A corpus keeps its files from one repetition to the next: before each
``synth`` they are emptied, untimed, and ``synth`` writes every byte
again. Deleting and re-creating them would time the file system's inode
allocation, which on a shared virtual disk slowed by nearly 2x within
minutes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from pathlib import Path

import yaml

WORKLOADS = ("train-angle", "transfer-raw_angle", "ingest-ablate")  # why each: BENCHMARK.json

# Spans the traced section must record at least once, per workload.
_READ = ("cli", "npyio.load_keypoints", "dataio.build_catalog", "dataio.load_split",
         "features.build_feature_pool", "episodes.sample_episode", "fewshot.compute_prototypes",
         "fewshot.classify", "evaluation.protocol")
_TRAIN = ("pipeline.train", "nnet.linear.forward", "nnet.linear.backward", "nnet.batchnorm.forward",
          "nnet.relu.forward", "nnet.dropout.forward", "nnet.optim.step", "nnet.encoder.forward_eval",
          "nnet.checkpoint.save", "nnet.checkpoint.load", "fewshot.protonet_loss_and_grads",
          "fewshot.supcon_loss_and_grad")
MUST_CALL = {
    "train-angle": _READ + _TRAIN + (
        "geometry.featurize.angle", "nnet.batchnorm.backward", "nnet.relu.backward",
        "nnet.dropout.backward"),
    "transfer-raw_angle": _READ + _TRAIN + (
        "geometry.featurize.raw_angle", "nnet.encoder.backbone_forward",
        "evaluation.fit_softmax_regression"),
    "ingest-ablate": _READ + (
        "synth.sample_hand", "npyio.write_keypoints", "dataio.stratified_split",
        "geometry.featurize.raw", "geometry.featurize.angle", "geometry.featurize.raw_angle",
        "evaluation.fit_softmax_regression"),
}
# Per-layer metric prefixes that must read 0: no encoder runs while ingesting.
MUST_NOT_CALL = {"ingest-ablate": ("nnet.",)}

NOISE = 0.5  # synth angular noise at which accuracy stays below 1.0


@dataclass(frozen=True)
class Size:
    """Corpus sizes and episode counts; ``tiny`` exists for the tests."""

    classes: int
    target_classes: int
    per_class: int
    n_way: int
    k_shot: int
    q_query: int
    episodes_per_epoch: int
    max_epochs: int
    monitor_episodes: int
    eval_episodes: int
    linear_episodes: int
    multiseed_episodes: int
    ablate_episodes: int
    ingest_classes: int
    ingest_per_class: int


FULL = Size(
    classes=10, target_classes=12, per_class=40, n_way=5, k_shot=5, q_query=15,
    episodes_per_epoch=40, max_epochs=2, monitor_episodes=20, eval_episodes=200,
    linear_episodes=40, multiseed_episodes=100, ablate_episodes=100,
    ingest_classes=12, ingest_per_class=50,
)
SIZES = {
    "full": FULL,
    "tiny": replace(
        FULL, classes=6, target_classes=5, per_class=24, k_shot=2, q_query=3,
        episodes_per_epoch=3, max_epochs=1, monitor_episodes=2, eval_episodes=6,
        linear_episodes=3, multiseed_episodes=3, ablate_episodes=3,
        ingest_classes=6, ingest_per_class=24,
    ),
}


def split_path(root: Path) -> Path:
    return root.with_name(root.name + ".split.json")


def empty_files(path: Path) -> None:
    """Truncate ``path``, or every file under it, to 0 bytes, so a rewrite must write them all."""
    for f in path.rglob("*") if path.is_dir() else [path]:
        if f.is_file():
            os.truncate(f, 0)


@dataclass
class Step:
    """One CLI invocation.

    ``kind`` buckets its wall time for the rate metrics; ``work`` is the
    number of files or episodes it handles. ``outputs`` must be
    byte-identical from one repetition to the next; the ``report.json``
    among them hold the accuracy fields of the fingerprint.
    """

    kind: str
    argv: list[str]
    work: int
    outputs: list[Path]
    epochs: int = 0  # expected train_log.jsonl lines, when it trains


class Workload:
    def __init__(self, name: str, size: Size, seed: int, work: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        self.name = name
        self.size = size
        self.seed = seed
        self.data = work / "data"
        self.runs = work / "runs"
        self.configs = work / "configs"

    # -- one CLI command each ------------------------------------------------

    def _synth(self, out: Path, classes: int, per_class: int, seed: int, extra=()) -> Step:
        empty_files(out)
        argv = ["synth", "--out", str(out), "--classes", str(classes), "--per-class", str(per_class),
                "--noise", str(NOISE), "--seed", str(seed), "--name", out.name, *extra]
        return Step("synth", argv, classes * per_class, [out])

    def _split(self, root: Path, files: int) -> Step:
        out = split_path(root)
        empty_files(out)
        argv = ["split", "--data-root", str(root), "--out", str(out), "--fraction", "0.5",
                "--seed", str(self.seed)]
        return Step("split", argv, files, [out])

    def _config(self, name: str, rep: int, doc: dict) -> Path:
        path = self.configs / f"{name}-r{rep}.yaml"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(yaml.safe_dump({"schema_version": 1, **doc}, sort_keys=True))
        return path

    def _data(self, root: Path, representation: str) -> dict:
        return {"data_root": str(root), "split": str(split_path(root)), "representation": representation}

    def _train_section(self) -> dict:
        """Fixed work: patience equals max_epochs, so early stopping never cuts a run short."""
        s = self.size
        return {"n_way": s.n_way, "k_shot": s.k_shot, "q_query": s.q_query,
                "episodes_per_epoch": s.episodes_per_epoch, "max_epochs": s.max_epochs,
                "patience": s.max_epochs, "base_seed": self.seed, "monitor_episodes": s.monitor_episodes}

    def _eval_section(self, episodes: int) -> dict:
        s = self.size
        return {"n_way": s.n_way, "k_shot": s.k_shot, "q_query": s.q_query,
                "episodes": episodes, "base_seed": self.seed}

    def _run(self, command: str, config: Path, rep: int, kind: str, work: int,
             outputs=("report.json",), epochs=0, extra=()) -> Step:
        run_id = f"{command}-{extra[1]}-r{rep}" if extra else f"{command}-r{rep}"
        run_dir = self.runs / run_id
        argv = [command, *extra, "--config", str(config), "--out", str(self.runs), "--run-id", run_id]
        return Step(kind, argv, work, [run_dir / o for o in outputs], epochs)

    def _trainer(self, command: str, config: Path, rep: int, kind: str) -> Step:
        s = self.size
        return self._run(command, config, rep, kind, s.max_epochs * s.episodes_per_epoch,
                         outputs=("checkpoints/encoder.ckpt", "train_log.jsonl"), epochs=s.max_epochs)

    # -- set-up and timed section ---------------------------------------------

    def setup(self, rep: int) -> list[Step]:
        """Commands that prepare the inputs."""
        s = self.size
        if self.name == "train-angle":
            root = self.data / "angle"
            return [self._synth(root, s.classes, s.per_class, self.seed),
                    self._split(root, s.classes * s.per_class)]
        if self.name == "transfer-raw_angle":
            source, target = self.data / "source", self.data / "target"
            n_target = s.target_classes
            pretrain = self._config("pretrain", rep, {
                "data": self._data(source, "raw_angle"),
                "train": self._train_section(),
            })
            return [
                self._synth(source, s.classes, s.per_class, self.seed),
                self._synth(target, n_target, s.per_class, self.seed + 1,
                            ("--scale-min", "0.5", "--scale-max", "2.0", "--translate-max", "2.0")),
                self._split(source, s.classes * s.per_class),
                self._split(target, n_target * s.per_class),
                self._trainer("pretrain", pretrain, rep, "pretrain"),
            ]
        return []

    def _checkpoint(self, command: str, rep: int) -> str:
        return str(self.runs / f"{command}-r{rep}" / "checkpoints" / "encoder.ckpt")

    def section(self, rep: int, setup_rep: int) -> list[Step]:
        """The timed commands of one repetition; configs are written here, untimed."""
        s = self.size
        if self.name == "train-angle":
            data = self._data(self.data / "angle", "angle")
            train = self._config("train", rep, {"data": data, "train": self._train_section()})
            evaluation = self._config("eval", rep, {
                "data": data, "checkpoint": self._checkpoint("train", rep),
                "eval": self._eval_section(s.eval_episodes),
            })
            return [
                self._trainer("train", train, rep, "train"),
                self._run("eval", evaluation, rep, "eval", s.eval_episodes),
                self._run("baseline", evaluation, rep, "eval", s.eval_episodes,
                          extra=("--kind", "input_space")),
            ]
        if self.name == "transfer-raw_angle":
            data = self._data(self.data / "target", "raw_angle")
            adapt = self._config("adapt", rep, {
                "data": data, "checkpoint": self._checkpoint("pretrain", setup_rep),
                "adapt": {"mode": "target_supervised", "max_epochs": s.max_epochs,
                          "learning_rate": 1.0e-3, "patience": s.max_epochs},
                "train": self._train_section(),
            })
            adapted = self._checkpoint("adapt", rep)
            evaluation = self._config("eval", rep, {
                "data": data, "checkpoint": adapted, "eval": self._eval_section(s.eval_episodes)})
            linear = self._config("linear", rep, {
                "data": data, "checkpoint": adapted, "eval": self._eval_section(s.linear_episodes)})
            seeds = [self.seed, self.seed + 1, self.seed + 2]
            multiseed = self._config("multiseed", rep, {
                "data": data, "checkpoint": adapted, "seeds": seeds,
                "eval": self._eval_section(s.multiseed_episodes)})
            return [
                self._trainer("adapt", adapt, rep, "train"),
                self._run("eval", evaluation, rep, "eval", s.eval_episodes),
                self._run("baseline", linear, rep, "episode_linear", s.linear_episodes,
                          extra=("--kind", "episode_linear")),
                self._run("multiseed", multiseed, rep, "eval", len(seeds) * s.multiseed_episodes),
            ]
        root = self.data / "corpus"
        files = s.ingest_classes * s.ingest_per_class
        ks = [1, s.k_shot]
        ablate = self._config("ablate", rep, {
            "data": self._data(root, "angle"), "eval": self._eval_section(s.ablate_episodes),
            "ablate": {"k_values": ks}})
        full = self._config("full", rep, {
            "data": self._data(root, "raw_angle"), "eval": self._eval_section(s.ablate_episodes)})
        return [
            self._synth(root, s.ingest_classes, s.ingest_per_class, self.seed),
            self._split(root, files),
            self._run("ablate", ablate, rep, "ablate", 3 * len(ks) * s.ablate_episodes),
            self._run("baseline", full, rep, "full_data", files, extra=("--kind", "full_data")),
        ]
