"""Command-line entry point.

The run commands are the rows of ``RUNS``, keyed by run name; ``baseline``
has one row per ``--kind``, named ``baseline-<kind>``. A row gives the
config keys the command reads, the pools it featurizes, whether it
ignores, takes or needs a checkpoint, and its body. ``_prepare`` parses
every section, builds every pool, loads and checks the checkpoint, and
runs every check that depends only on the inputs, all before the run
directory exists, so an input error leaves nothing behind. ``_run`` then
makes ``<out>/<run-id>/``, calls the body, and writes ``manifest.json``
however the body ends: ``status`` "ok", or "failed" plus the ``error``.
Bodies call library functions by their module-global names, never
through the table, so a tool that rebinds those globals (the benchmark's
tracer) sees every call.

A run directory holds ``manifest.json`` plus ``report.json`` /
``tables/*.csv`` / ``checkpoints/*.ckpt`` / ``train_log.jsonl`` as
applicable. ``split`` and ``export`` write one file with a
``<file>.manifest.json`` sidecar; ``synth`` writes a dataset tree with the
manifest at its root. Every manifest embeds the resolved configuration,
so a run is replayable from it alone. All of these files are written
through ``config.write_atomic``, so each is whole or absent. Ctrl-C ends
a command as one ``interrupted`` line and exit status 130; a run it stops
leaves a manifest with ``status`` "failed".
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np

from . import config as cfgmod
from .config import write_atomic, write_document
from .dataio import build_catalog, eligible_pool, load_split, save_split, split_pool, stratified_split
from .errors import ConfigMismatch, GeomshotError, InvalidConfig
from .evaluation import (ABLATION_SETTINGS, EvalReport, EvalSpec, ablation_normalization, episode_linear_baseline,
                         evaluate, full_data_linear, input_space_baseline, linear_classes, multi_seed, shared_episodes,
                         write_csv_table)
from .features import build_feature_pool
from .nnet import EncoderConfig, load_checkpoint, save_checkpoint
from .pipeline import AdaptConfig, TrainConfig, pretrain_source, train_encoder
from .pipeline import adapt as run_adapt
from .synth import SynthSpec, generate_corpus

logger = logging.getLogger("geomshot")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _sidecar_manifest(path: Path, command: str, config: dict, started_at: str, seed=None, **extra) -> None:
    doc = {"schema_version": 1, "command": command, "config": config, "output": str(path), "seed": seed,
           "started_at": started_at, "finished_at": _now(), **extra}
    write_document(path.with_name(path.name + ".manifest.json"), doc)


def _data_section(catalog, pools: dict | None = None) -> dict:
    """The manifest's ``data``: files seen, skips by reason (count and first paths), rows and classes per pool."""
    skipped: dict[str, list[str]] = {}
    for path, reason in catalog.skipped:
        skipped.setdefault(reason, []).append(path)
    doc = {"files_seen": len(catalog.paths) + len(catalog.skipped), "rows": len(catalog.paths),
           "classes": len(catalog.classes),
           "skipped": {reason: {"count": len(paths), "first": paths[:5]} for reason, paths in sorted(skipped.items())}}
    if pools is not None:
        doc["pools"] = {side if isinstance(side, str) else f"test/{side[0]}/normalize={str(side[1]).lower()}":
                        {"rows": len(fp.labels), "classes": int(np.count_nonzero(np.bincount(fp.labels))),
                         "degenerate_angle_rows": fp.degenerate_angle_rows} for side, fp in pools.items()}
    return doc


def _report_csv_row(report, dataset: str, mode: str) -> dict:
    config = report.config
    return {"dataset": dataset, "repr": config.get("representation"), "encoder": config.get("encoder"),
            "mode": mode, "K": config.get("k_shot"), "mean": report.mean_accuracy, "ci95": report.ci95_halfwidth}


# -- run commands -------------------------------------------------------------


@dataclass(frozen=True)
class Run:
    """One run command.

    ``keys``: the top-level config keys it reads, in parse order; any other is refused. ``sides``: the
    pools it featurizes, each a split side or a ``(representation, normalize)`` setting of the test
    side; episodes come from the first. ``checkpoint``: "ignored" (checked as a string, never
    loaded), "optional" or "required". ``body(inputs, run_dir, manifest)`` does the run's work.
    """

    keys: tuple[str, ...]
    sides: tuple
    checkpoint: str
    body: Callable


# How each config section is read; every other key is a field of TopLevelConfig. The encoder
# gets a placeholder input_dim, so a typo in it is refused before any data loads; the pool's
# dimension replaces it.
_SECTIONS = {
    "data": lambda doc: cfgmod.parse_section(doc, "data", cfgmod.DataConfig, required=True),
    "encoder": lambda doc: cfgmod.parse_section(doc, "encoder", EncoderConfig, input_dim=1),
    "train": lambda doc: cfgmod.parse_section(doc, "train", TrainConfig),
    "adapt": lambda doc: cfgmod.parse_section(doc, "adapt", AdaptConfig, required=True),
    "eval": lambda doc: cfgmod.parse_section(doc, "eval", EvalSpec),
    "ablate": lambda doc: cfgmod.parse_section(doc, "ablate", cfgmod.AblateConfig),
}


def _prepare(name: str, config_path) -> SimpleNamespace:
    """Read and check every input of run ``name``; nothing is written."""
    run = RUNS[name]
    doc = cfgmod.load_config(config_path, set(run.keys))
    top = cfgmod.TopLevelConfig(**{key: doc[key] for key in run.keys if key in doc and key not in _SECTIONS})
    p = SimpleNamespace(doc=doc, model=None, meta=None, **vars(top))
    for key in run.keys:
        if key in _SECTIONS:
            setattr(p, key, _SECTIONS[key](doc))
    if p.checkpoint is None and run.checkpoint == "required":
        raise InvalidConfig("checkpoint must be a non-empty string, got None")
    data = p.data
    catalog = build_catalog(data.data_root)
    split = load_split(data.split, catalog)
    p.pools = {}
    for side in run.sides:
        half, *setting = ("test", *side) if isinstance(side, tuple) else (side, data.representation, data.normalize)
        p.pools[side] = build_feature_pool(split_pool(catalog, split, half), catalog.root, *setting)
    # The pools hold the features; the run keeps the catalog's name and manifest record, not its keypoints.
    p.name, p.data_record = catalog.name, _data_section(catalog, p.pools)
    fp = p.pools[run.sides[0]]
    if "encoder" in run.keys:
        p.encoder = replace(p.encoder, input_dim=fp.dim)
    if p.checkpoint and run.checkpoint != "ignored":
        p.model, p.meta = load_checkpoint(p.checkpoint)
        if p.meta.get("representation") != data.representation:
            raise ConfigMismatch(f"checkpoint representation {p.meta.get('representation')!r} != "
                                 f"configured {data.representation!r}")
        if p.model.config.input_dim != fp.dim:
            raise ConfigMismatch(f"checkpoint input_dim {p.model.config.input_dim} != feature dim {fp.dim}")
    shape = p.train if "train" in run.keys else p.eval
    p.seed = p.seeds[0] if "seeds" in run.keys else shape.base_seed
    if name == "baseline-full_data":
        linear_classes(p.pools["train"], p.pools["test"])
    elif not ("adapt" in run.keys and p.adapt.mode == "frozen"):  # frozen adapt draws no episodes
        k_shot = max(p.ablate.k_values) if "ablate" in run.keys else shape.k_shot
        eligible_pool(fp.labels, k_shot, shape.q_query, shape.n_way)
    return p


def _run(name: str, args, p: SimpleNamespace) -> None:
    """Make the run directory, call the body, and write the manifest however it ends."""
    run_id = args.run_id or f"{name}-{datetime.now():%Y%m%d-%H%M%S-%f}-{os.getpid()}"
    run_dir = Path(args.out) / run_id
    run_dir.mkdir(parents=True)
    manifest = {"schema_version": 1, "command": name, "config_path": str(args.config), "config": p.doc,
                "output_dir": str(run_dir), "run_id": run_id, "seed": p.seed, "started_at": _now(),
                "data": p.data_record, "status": "failed"}
    try:
        RUNS[name].body(p, run_dir, manifest)
        manifest["status"] = "ok"
    except BaseException as e:
        manifest["error"] = f"{type(e).__name__}: {e}"
        raise
    finally:
        manifest["finished_at"] = _now()
        write_document(run_dir / "manifest.json", manifest)


def cmd_run(args) -> int:
    name = f"baseline-{args.kind}" if args.command == "baseline" else args.command
    _run(name, args, _prepare(name, args.config))
    return 0


def _save_training(result, run_dir: Path, manifest: dict) -> None:
    ckpt = run_dir / "checkpoints" / "encoder.ckpt"
    write_atomic(ckpt, lambda tmp: save_checkpoint(tmp, result.encoder_config, result.state, result.meta))
    manifest["checkpoint"] = str(ckpt)
    if result.log:  # frozen adapt trains no epochs
        lines = "".join(json.dumps(record, sort_keys=True) + "\n" for record in result.log)
        write_atomic(run_dir / "train_log.jsonl", lambda tmp: tmp.write_text(lines))
        manifest["best_epoch"] = result.best_epoch
        manifest["best_monitor_acc"] = result.best_monitor_acc
        logger.info("best monitor accuracy %.4f (epoch %d)", result.best_monitor_acc, result.best_epoch)


def _train(p, run_dir: Path, manifest: dict) -> None:
    result = train_encoder(p.pools["train"], p.train, p.encoder, tag={"dataset": p.name})
    _save_training(result, run_dir, manifest)


def _pretrain(p, run_dir: Path, manifest: dict) -> None:
    result = pretrain_source(p.pools["train"], p.train, p.encoder, p.source or p.name)
    _save_training(result, run_dir, manifest)


def _adapt(p, run_dir: Path, manifest: dict) -> None:
    result = run_adapt(p.model, p.pools["train"], p.adapt, p.train, p.meta | {"adapted_on": p.name})
    _save_training(result, run_dir, manifest)
    manifest["mode"] = p.adapt.mode


def _save_report(p, report: EvalReport, run_dir: Path, manifest: dict, mode: str) -> None:
    row = _report_csv_row(report, p.name, mode)
    write_document(run_dir / "report.json", report.to_doc())
    write_csv_table(run_dir / "tables" / "summary.csv", [row])
    manifest["mean_accuracy"] = report.mean_accuracy


def _eval(p, run_dir: Path, manifest: dict) -> None:
    echo = {"dataset": p.name}
    if p.meta is not None:
        echo["checkpoint_source"] = p.meta.get("source", p.meta.get("dataset", "unknown"))
    report = evaluate(p.model, p.pools["test"], p.eval, echo)
    _save_report(p, report, run_dir, manifest, "within")
    logger.info("mean accuracy %.4f +/- %.4f", report.mean_accuracy, report.ci95_halfwidth)


def _input_space(p, run_dir: Path, manifest: dict) -> None:
    echo = {"dataset": p.name, "baseline": "input_space"}
    _save_report(p, input_space_baseline(p.pools["test"], p.eval, echo), run_dir, manifest, "input_space")


def _episode_linear(p, run_dir: Path, manifest: dict) -> None:
    echo = {"dataset": p.name, "baseline": "episode_linear"}
    report = episode_linear_baseline(p.model, p.pools["test"], p.eval, echo)
    _save_report(p, report, run_dir, manifest, "episode_linear")


def _full_data(p, run_dir: Path, manifest: dict) -> None:
    accuracy = full_data_linear(p.pools["train"], p.pools["test"])
    doc = {"schema_version": 1, "baseline": "full_data", "dataset": p.name,
           "representation": p.data.representation, "accuracy": accuracy}
    write_document(run_dir / "report.json", doc)
    manifest["accuracy"] = accuracy
    logger.info("full-data linear accuracy %.4f", accuracy)


def _ablate(p, run_dir: Path, manifest: dict) -> None:
    rows = ablation_normalization(p.pools, p.ablate.k_values, p.eval)
    columns = ["setting", "label", "representation", "normalize", "K", "mean", "ci95"]
    write_document(run_dir / "report.json", {"schema_version": 1, "dataset": p.name, "rows": rows})
    write_csv_table(run_dir / "tables" / "ablation.csv", rows, columns)


def _multiseed(p, run_dir: Path, manifest: dict) -> None:
    shared = shared_episodes(p.seeds, p.eval.episodes)
    if shared:
        logger.warning("seeds %s are closer than eval.episodes (%d): %d of their %d episodes repeat another "
                       "seed's, so across_seed_std is understated",
                       list(p.seeds), p.eval.episodes, shared, len(p.seeds) * p.eval.episodes)
    fp, echo = p.pools["test"], {"dataset": p.name}
    aggregate = multi_seed(lambda seed: evaluate(p.model, fp, replace(p.eval, base_seed=seed), echo), p.seeds)
    write_document(run_dir / "report.json", {"schema_version": 1, "dataset": p.name, **aggregate})
    encoder = "none" if p.model is None else "mlp"
    rows = [{"dataset": p.name, "repr": p.data.representation, "encoder": encoder, "mode": f"seed={s}",
             "K": p.eval.k_shot, "mean": aggregate["per_seed_mean"][str(s)], "ci95": ""} for s in p.seeds]
    write_csv_table(run_dir / "tables" / "multiseed.csv", rows)


_TRAIN_KEYS = ("data", "encoder", "train", "source")
_EVAL_KEYS = ("data", "eval", "checkpoint")
_ABLATION_SIDES = tuple((representation, normalize) for _, _, representation, normalize in ABLATION_SETTINGS)
RUNS = {
    "train": Run(_TRAIN_KEYS, ("train",), "ignored", _train),
    "pretrain": Run(_TRAIN_KEYS, ("train",), "ignored", _pretrain),
    "adapt": Run(("data", "adapt", "train", "checkpoint"), ("train",), "required", _adapt),
    "eval": Run(_EVAL_KEYS, ("test",), "optional", _eval),
    "baseline-input_space": Run(_EVAL_KEYS, ("test",), "ignored", _input_space),
    "baseline-episode_linear": Run(_EVAL_KEYS, ("test",), "required", _episode_linear),
    "baseline-full_data": Run(_EVAL_KEYS, ("train", "test"), "ignored", _full_data),
    "ablate": Run(("data", "eval", "ablate"), _ABLATION_SIDES, "ignored", _ablate),
    "multiseed": Run(("data", "eval", "seeds", "checkpoint"), ("test",), "optional", _multiseed),
}


def cmd_synth(args) -> int:
    started_at = _now()
    spec = SynthSpec(n_classes=args.classes, per_class=args.per_class, noise=args.noise, transforms=args.transforms,
                     seed=args.seed, scale_range=(args.scale_min, args.scale_max),
                     translate_max=args.translate_max, name=args.name)
    out = Path(args.out)
    generate_corpus(spec, out)
    _sidecar_manifest(out / "corpus_meta.json", "synth", spec.__dict__ | {"out": str(out)}, started_at, seed=args.seed)
    logger.info("wrote %d classes x %d samples to %s", spec.n_classes, spec.per_class, out)
    return 0


def cmd_split(args) -> int:
    started_at = _now()
    catalog = build_catalog(args.data_root)
    split = stratified_split(catalog, args.fraction, args.seed)
    out = Path(args.out)
    save_split(split, out)
    config = {"data_root": str(args.data_root), "fraction": args.fraction, "seed": args.seed}
    _sidecar_manifest(out, "split", config, started_at, seed=args.seed, data=_data_section(catalog))
    logger.info("split %d train / %d test -> %s", len(split.train), len(split.test), out)
    return 0


def cmd_export(args) -> int:
    started_at = _now()
    doc = cfgmod.read_document(args.report, GeomshotError)
    try:
        report = EvalReport.from_doc(doc)
        row = _report_csv_row(report, report.config.get("dataset", "unknown"), args.mode)
    except (KeyError, TypeError, AttributeError, ValueError) as e:
        raise GeomshotError(f"{args.report}: not an episode report ({type(e).__name__}: {e})") from None
    out = Path(args.out)
    write_csv_table(out, [row])
    _sidecar_manifest(out, "export", {"report": str(args.report), "mode": args.mode}, started_at)
    return 0


@functools.cache  # one parser per process: main runs many commands in one process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="geomshot",
                                     description="Similarity-invariant hand-angle features and few-shot evaluation")
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic keypoint corpus")
    spec = SynthSpec()
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=spec.n_classes)
    p.add_argument("--per-class", type=int, default=spec.per_class)
    p.add_argument("--noise", type=float, default=spec.noise)
    p.add_argument("--transforms", action=argparse.BooleanOptionalAction, default=spec.transforms)
    p.add_argument("--seed", type=int, default=spec.seed)
    p.add_argument("--scale-min", type=float, default=spec.scale_range[0])
    p.add_argument("--scale-max", type=float, default=spec.scale_range[1])
    p.add_argument("--translate-max", type=float, default=spec.translate_max)
    p.add_argument("--name", default=spec.name)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("split", help="deterministic stratified train/test split")
    p.add_argument("--data-root", required=True)
    p.add_argument("--out", required=True, help="output split JSON path")
    p.add_argument("--fraction", type=float, default=0.7)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=cmd_split)

    for name, help_text in [
        ("train", "episodic within-domain training"),
        ("pretrain", "source pretraining (tagged checkpoint)"),
        ("adapt", "cross-domain adaptation of a checkpoint"),
        ("eval", "episodic evaluation on the test split"),
        ("ablate", "normalization ablation table"),
        ("multiseed", "multi-seed evaluation aggregate"),
        ("baseline", "baseline classifiers"),
    ]:
        p = sub.add_parser(name, help=help_text)
        if name == "baseline":
            p.add_argument("--kind", required=True, choices=["input_space", "episode_linear", "full_data"])
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--run-id", default=None)
        p.set_defaults(fn=cmd_run)

    p = sub.add_parser("export", help="convert a report JSON to a CSV table row")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", default="within")
    p.set_defaults(fn=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.fn(args)
    except (GeomshotError, ValueError, OSError) as e:
        logger.error("%s: %s", type(e).__name__, e)
        return 1
    except KeyboardInterrupt:
        logger.error("interrupted")
        return 130


if __name__ == "__main__":
    sys.exit(main())
