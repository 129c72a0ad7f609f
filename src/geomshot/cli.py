"""Command-line entry point.

Run-style commands (train, pretrain, adapt, eval, baseline, ablate,
multiseed) write their outputs under ``<out>/<run-id>/`` as
``manifest.json`` plus ``report.json`` / ``tables/*.csv`` /
``checkpoints/*.ckpt`` / ``train_log.jsonl`` as applicable. ``split`` and
``export`` write a single file with a ``<file>.manifest.json`` sidecar;
``synth`` writes a dataset tree with the manifest at its root. Every
manifest embeds the resolved configuration, so a run is replayable from
the manifest alone.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import yaml

from . import config as cfgmod
from .dataio import build_catalog, load_split, save_split, split_pool, stratified_split
from .errors import ConfigMismatch, GeomshotError, InvalidConfig
from .evaluation import (
    EvalReport,
    ablation_normalization,
    episode_linear_baseline,
    evaluate,
    full_data_linear,
    input_space_baseline,
    multi_seed,
    write_csv_table,
)
from .features import build_feature_pool
from .pipeline import adapt as run_adapt
from .pipeline import load_encoder, pretrain_source, save_encoder, train_encoder
from .synth import SynthSpec, generate_corpus

logger = logging.getLogger("geomshot")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


class RunContext:
    """Owns the run directory and the manifest.

    Used as a context manager: however the block ends, ``manifest.json`` is
    written with ``status`` "ok", or "failed" plus the ``error`` that ended
    the run. The default run id is ``<command>-<microsecond stamp>-<pid>``.
    """

    def __init__(self, command: str, out: str, run_id: str | None, config_path=None, config=None, seed=None):
        self.command = command
        stamp = datetime.now().strftime("%Y%m%d-%H%M%S-%f")
        self.run_id = run_id or f"{command}-{stamp}-{os.getpid()}"
        self.dir = Path(out) / self.run_id
        self.dir.mkdir(parents=True)
        self.manifest = {
            "schema_version": 1,
            "command": command,
            "config_path": str(config_path) if config_path else None,
            "config": config,
            "output_dir": str(self.dir),
            "run_id": self.run_id,
            "seed": seed,
            "started_at": _now(),
        }

    def subdir(self, name: str) -> Path:
        d = self.dir / name
        d.mkdir(exist_ok=True)
        return d

    def __enter__(self) -> "RunContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.manifest["finished_at"] = _now()
        self.manifest["status"] = "ok" if exc is None else "failed"
        if exc is not None:
            self.manifest["error"] = f"{exc_type.__name__}: {exc}"
        _write_json(self.dir / "manifest.json", self.manifest)


def _sidecar_manifest(path: Path, command: str, config: dict, seed=None) -> None:
    doc = {
        "schema_version": 1,
        "command": command,
        "config": config,
        "output": str(path),
        "seed": seed,
        "started_at": _now(),
        "finished_at": _now(),
    }
    _write_json(Path(str(path) + ".manifest.json"), doc)


def _load_pools(data: cfgmod.DataConfig, sides: tuple[str, ...]):
    catalog = build_catalog(data.data_root)
    split = load_split(data.split, catalog)
    names = {i: n for i, n in enumerate(catalog.classes)}
    pools = {}
    for side in sides:
        pools[side] = build_feature_pool(
            split_pool(catalog, split, side),
            catalog.root,
            data.representation,
            data.normalize,
            class_names=names,
        )
    return catalog, pools


def _load_checkpoint_encoder(path, data: cfgmod.DataConfig, feature_dim: int):
    encoder, meta = load_encoder(path)
    if meta.get("representation") != data.representation:
        raise ConfigMismatch(
            f"checkpoint representation {meta.get('representation')!r} != "
            f"configured {data.representation!r}"
        )
    if encoder.config.input_dim != feature_dim:
        raise ConfigMismatch(
            f"checkpoint input_dim {encoder.config.input_dim} != feature dim {feature_dim}"
        )
    return encoder, meta


def _report_csv_row(report, dataset: str, mode: str) -> dict:
    return {
        "dataset": dataset,
        "repr": report.config.get("representation"),
        "encoder": report.config.get("encoder"),
        "mode": mode,
        "K": report.config.get("k_shot"),
        "mean": report.mean_accuracy,
        "ci95": report.ci95_halfwidth,
    }


# -- commands ---------------------------------------------------------------


def cmd_synth(args) -> int:
    spec = SynthSpec(
        n_classes=args.classes,
        per_class=args.per_class,
        noise=args.noise,
        transforms=args.transforms,
        seed=args.seed,
        scale_range=(args.scale_min, args.scale_max),
        translate_max=args.translate_max,
        name=args.name,
    )
    out = Path(args.out)
    generate_corpus(spec, out)
    _sidecar_manifest(out / "corpus_meta.json", "synth", spec.__dict__ | {"out": str(out)}, seed=args.seed)
    logger.info("wrote %d classes x %d samples to %s", spec.n_classes, spec.per_class, out)
    return 0


def cmd_split(args) -> int:
    catalog = build_catalog(args.data_root)
    split = stratified_split(catalog, args.fraction, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_split(split, out)
    _sidecar_manifest(
        out, "split",
        {"data_root": str(args.data_root), "fraction": args.fraction, "seed": args.seed},
        seed=args.seed,
    )
    logger.info("split %d train / %d test -> %s", len(split.train), len(split.test), out)
    return 0


def _write_train_log(path: Path, log: list[dict]) -> None:
    with open(path, "w") as f:
        for record in log:
            f.write(json.dumps(record, sort_keys=True) + "\n")


def _train_like(args, command: str) -> int:
    doc = cfgmod.load_config(args.config, {"data", "encoder", "train", "source"})
    data = cfgmod.parse_data(doc)
    train_cfg = cfgmod.parse_train(doc)
    catalog, pools = _load_pools(data, ("train",))
    fp = pools["train"]
    encoder_cfg = cfgmod.parse_encoder(doc, fp.dim)
    with RunContext(command, args.out, args.run_id, args.config, doc, train_cfg.base_seed) as ctx:
        if command == "pretrain":
            source = doc.get("source") or catalog.name
            result = pretrain_source(fp, train_cfg, encoder_cfg, source)
        else:
            result = train_encoder(fp, train_cfg, encoder_cfg, tag={"dataset": catalog.name})
        ckpt = ctx.subdir("checkpoints") / "encoder.ckpt"
        save_encoder(ckpt, result)
        _write_train_log(ctx.dir / "train_log.jsonl", result.log)
        ctx.manifest["checkpoint"] = str(ckpt)
        ctx.manifest["best_epoch"] = result.best_epoch
        ctx.manifest["best_monitor_acc"] = result.best_monitor_acc
    logger.info("best monitor accuracy %.4f (epoch %d)", result.best_monitor_acc, result.best_epoch)
    return 0


def cmd_train(args) -> int:
    return _train_like(args, "train")


def cmd_pretrain(args) -> int:
    return _train_like(args, "pretrain")


def cmd_adapt(args) -> int:
    doc = cfgmod.load_config(args.config, {"data", "checkpoint", "adapt", "train"})
    data = cfgmod.parse_data(doc)
    adapt_cfg = cfgmod.parse_adapt(doc)
    train_cfg = cfgmod.parse_train(doc)
    ckpt_path = doc.get("checkpoint")
    if not ckpt_path:
        raise InvalidConfig("adapt config needs a 'checkpoint' path")
    catalog, pools = _load_pools(data, ("train",))
    fp = pools["train"]
    encoder, meta = _load_checkpoint_encoder(ckpt_path, data, fp.dim)
    with RunContext("adapt", args.out, args.run_id, args.config, doc, train_cfg.base_seed) as ctx:
        result = run_adapt(encoder, fp, adapt_cfg, train_cfg, meta | {"adapted_on": catalog.name})
        out_ckpt = ctx.subdir("checkpoints") / "encoder.ckpt"
        save_encoder(out_ckpt, result)
        if result.log:
            _write_train_log(ctx.dir / "train_log.jsonl", result.log)
        ctx.manifest["checkpoint"] = str(out_ckpt)
        ctx.manifest["mode"] = adapt_cfg.mode
    return 0


def _write_report(ctx: RunContext, report: EvalReport, dataset: str, mode: str) -> None:
    (ctx.dir / "report.json").write_text(report.to_json())
    write_csv_table(ctx.subdir("tables") / "summary.csv", [_report_csv_row(report, dataset, mode)])
    ctx.manifest["mean_accuracy"] = report.mean_accuracy


def cmd_eval(args) -> int:
    doc = cfgmod.load_config(args.config, {"data", "checkpoint", "eval"})
    data = cfgmod.parse_data(doc)
    spec = cfgmod.parse_eval(doc)
    catalog, pools = _load_pools(data, ("test",))
    fp = pools["test"]
    ckpt = doc.get("checkpoint")
    echo = {"dataset": catalog.name}
    if ckpt:
        encoder, meta = _load_checkpoint_encoder(ckpt, data, fp.dim)
        echo["checkpoint_source"] = meta.get("source", meta.get("dataset", "unknown"))
    else:
        encoder = None
    with RunContext("eval", args.out, args.run_id, args.config, doc, spec.base_seed) as ctx:
        report = evaluate(encoder, fp, spec, echo)
        _write_report(ctx, report, catalog.name, "within")
    logger.info("mean accuracy %.4f +/- %.4f", report.mean_accuracy, report.ci95_halfwidth)
    return 0


def cmd_baseline(args) -> int:
    doc = cfgmod.load_config(args.config, {"data", "checkpoint", "eval"})
    data = cfgmod.parse_data(doc)
    spec = cfgmod.parse_eval(doc)
    catalog, pools = _load_pools(data, ("train", "test") if args.kind == "full_data" else ("test",))
    fp = pools["test"]
    if args.kind == "episode_linear":
        ckpt = doc.get("checkpoint")
        if not ckpt:
            raise InvalidConfig("episode_linear baseline needs a 'checkpoint' path")
        encoder, _ = _load_checkpoint_encoder(ckpt, data, fp.dim)
    with RunContext(f"baseline-{args.kind}", args.out, args.run_id, args.config, doc, spec.base_seed) as ctx:
        if args.kind == "full_data":
            accuracy = full_data_linear(pools["train"], fp)
            _write_json(
                ctx.dir / "report.json",
                {
                    "schema_version": 1,
                    "baseline": "full_data",
                    "dataset": catalog.name,
                    "representation": data.representation,
                    "accuracy": accuracy,
                },
            )
            ctx.manifest["accuracy"] = accuracy
            logger.info("full-data linear accuracy %.4f", accuracy)
            return 0
        echo = {"dataset": catalog.name, "baseline": args.kind}
        if args.kind == "input_space":
            report = input_space_baseline(fp, spec, echo)
        else:  # episode_linear
            report = episode_linear_baseline(encoder, fp, spec, echo)
        _write_report(ctx, report, catalog.name, args.kind)
    return 0


def cmd_ablate(args) -> int:
    doc = cfgmod.load_config(args.config, {"data", "eval", "ablate"})
    data = cfgmod.parse_data(doc)
    spec = cfgmod.parse_eval(doc)
    ks = cfgmod.parse_ablate(doc)
    catalog = build_catalog(data.data_root)
    split = load_split(data.split, catalog)
    samples = split_pool(catalog, split, "test")

    def build_pool(representation, normalize):
        return build_feature_pool(samples, catalog.root, representation, normalize)

    with RunContext("ablate", args.out, args.run_id, args.config, doc, spec.base_seed) as ctx:
        rows = ablation_normalization(build_pool, ks, spec)
        _write_json(ctx.dir / "report.json", {"schema_version": 1, "dataset": catalog.name, "rows": rows})
        write_csv_table(
            ctx.subdir("tables") / "ablation.csv",
            rows,
            ["setting", "label", "representation", "normalize", "K", "mean", "ci95"],
        )
    return 0


def cmd_multiseed(args) -> int:
    doc = cfgmod.load_config(args.config, {"data", "checkpoint", "eval", "seeds"})
    data = cfgmod.parse_data(doc)
    base_spec = cfgmod.parse_eval(doc)
    seeds = tuple(doc.get("seeds", [42, 1337, 2024]))
    catalog, pools = _load_pools(data, ("test",))
    fp = pools["test"]
    ckpt = doc.get("checkpoint")
    encoder = _load_checkpoint_encoder(ckpt, data, fp.dim)[0] if ckpt else None

    def run_fn(seed):
        return evaluate(encoder, fp, replace(base_spec, base_seed=seed), {"dataset": catalog.name})

    with RunContext("multiseed", args.out, args.run_id, args.config, doc, seeds[0]) as ctx:
        aggregate = multi_seed(run_fn, seeds)
        _write_json(ctx.dir / "report.json", {"schema_version": 1, "dataset": catalog.name, **aggregate})
        rows = [
            {
                "dataset": catalog.name,
                "repr": data.representation,
                "encoder": "mlp" if encoder else "none",
                "mode": f"seed={s}",
                "K": base_spec.k_shot,
                "mean": aggregate["per_seed_mean"][str(s)],
                "ci95": "",
            }
            for s in seeds
        ]
        write_csv_table(ctx.subdir("tables") / "multiseed.csv", rows)
    return 0


def cmd_export(args) -> int:
    doc = json.loads(Path(args.report).read_text())
    report = EvalReport.from_doc(doc)
    row = _report_csv_row(report, report.config.get("dataset", "unknown"), args.mode)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv_table(out, [row])
    _sidecar_manifest(out, "export", {"report": str(args.report), "mode": args.mode})
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomshot",
        description="Similarity-invariant hand-angle features and few-shot evaluation",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic keypoint corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--classes", type=int, default=10)
    p.add_argument("--per-class", type=int, default=200)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--transforms", action=argparse.BooleanOptionalAction, default=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--scale-min", type=float, default=0.1)
    p.add_argument("--scale-max", type=float, default=10.0)
    p.add_argument("--translate-max", type=float, default=10.0)
    p.add_argument("--name", default="synth")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("split", help="deterministic stratified train/test split")
    p.add_argument("--data-root", required=True)
    p.add_argument("--out", required=True, help="output split JSON path")
    p.add_argument("--fraction", type=float, default=0.7)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=cmd_split)

    for name, fn, help_text in [
        ("train", cmd_train, "episodic within-domain training"),
        ("pretrain", cmd_pretrain, "source pretraining (tagged checkpoint)"),
        ("adapt", cmd_adapt, "cross-domain adaptation of a checkpoint"),
        ("eval", cmd_eval, "episodic evaluation on the test split"),
        ("ablate", cmd_ablate, "normalization ablation table"),
        ("multiseed", cmd_multiseed, "multi-seed evaluation aggregate"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--run-id", default=None)
        p.set_defaults(fn=fn)

    p = sub.add_parser("baseline", help="baseline classifiers")
    p.add_argument("--kind", required=True, choices=["input_space", "episode_linear", "full_data"])
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--run-id", default=None)
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser("export", help="convert a report JSON to a CSV table row")
    p.add_argument("--report", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", default="within")
    p.set_defaults(fn=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.fn(args)
    except (GeomshotError, ValueError, OSError, yaml.YAMLError) as e:
        logger.error("%s: %s", type(e).__name__, e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
