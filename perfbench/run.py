#!/usr/bin/env python3
"""geomshot benchmark: one workload through the real CLI, closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload train-angle --seed 1 --seconds 10 --trace 0

The script drives ``geomshot.cli.main(argv)`` in this process, one command
at a time. It does an untimed warm-up (one set-up and one timed section),
then alternates set-up and timed section until ``--seconds`` have passed
(at least ``MIN_REPS`` pairs) and reports medians. Alternating spreads
both over the whole run, so a slow stretch of the host hits them alike.
Every command's deterministic outputs (reports, checkpoints, training
logs, split files, corpus files) must match the previous repetition byte
for byte.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` measures the same way, then runs one more timed section with
every geomshot layer wrapped by ``probes.install`` and reports the
per-layer metrics. The last line of standard output is the result JSON;
the lines before it give provenance and a table of every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import probes
from tracing import Tracer
from workloads import MUST_CALL, MUST_NOT_CALL, SIZES, WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "GEOMSHOT_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
MIN_REPS = 5


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def digest(path: Path) -> str:
    """sha256 of a file, or of every file under a directory except manifests."""
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for f in files:
        if f.name.endswith(".manifest.json"):
            continue  # manifests carry timestamps
        h.update(f.relative_to(path).as_posix().encode() if path.is_dir() else b"")
        h.update(f.read_bytes())
    return h.hexdigest()


def accuracies(doc: dict) -> list[float]:
    """The accuracy fields of one report.json."""
    if "mean_accuracy" in doc:
        return [doc["mean_accuracy"]]
    if "accuracy" in doc:
        return [doc["accuracy"]]
    if "rows" in doc:
        return [row["mean"] for row in doc["rows"]]
    return list(doc["per_seed_mean"].values())


class Rep:
    """Timings of one set-up or timed section."""

    def __init__(self):
        self.wall = 0.0
        self.kinds: dict[str, list] = {}  # kind -> [work, seconds]
        self.accuracies: list[float] = []

    def add(self, kind: str, work: int, seconds: float) -> None:
        slot = self.kinds.setdefault(kind, [0, 0.0])
        slot[0] += work
        slot[1] += seconds


class Bench:
    """Runs steps through the CLI, counts failures and checks outputs."""

    def __init__(self, workload: Workload, cli_main, child_env: dict):
        self.workload = workload
        self.cli_main = cli_main
        self.child_env = child_env
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.previous: dict[tuple, str] = {}

    def problem(self, message: str) -> None:
        self.problems.append(message)
        print(f"perfbench: {message}", file=sys.stderr)

    def _call(self, argv, tracer):
        try:
            if tracer is not None:
                return tracer.call("cli", self.cli_main, argv)
            return self.cli_main(argv)
        except Exception:  # a crash is a failed command; keep measuring
            traceback.print_exc()
            return "exception"

    def run(self, steps, phase: str, tracer=None) -> Rep:
        rep = Rep()
        results = []
        start = time.perf_counter()
        for step in steps:
            t0 = time.perf_counter()
            rc = self._call(step.argv, tracer)
            results.append((step, time.perf_counter() - t0, rc))
        rep.wall = time.perf_counter() - start
        for index, (step, seconds, rc) in enumerate(results):
            self.attempted += 1
            rep.add(step.kind, step.work, seconds)
            errors = [f"exit status {rc}"] if rc != 0 else self._check(step, (phase, index), rep)
            if errors:
                self.failed += 1
                self.problem(f"{phase} step {' '.join(step.argv[:3])}: {'; '.join(errors)}")
        return rep

    def _check(self, step, key, rep: Rep) -> list[str]:
        errors = []
        for i, path in enumerate(step.outputs):
            if not path.exists():
                errors.append(f"missing output {path.name}")
                continue
            now = digest(path)
            before = self.previous.get((key, i))
            if before is not None and before != now:
                errors.append(f"{path.name} differs from the previous repetition")
            self.previous[(key, i)] = now
        if step.kind == "synth":
            written = sum(1 for p in step.outputs[0].rglob("*.npy") if p.stat().st_size > 0)
            if written != step.work:
                errors.append(f"wrote {written} files, expected {step.work}")
        if step.epochs:
            log = next(p for p in step.outputs if p.name == "train_log.jsonl")
            lines = len(log.read_text().splitlines()) if log.exists() else 0
            if lines != step.epochs:
                errors.append(f"train_log has {lines} epochs, expected {step.epochs}")
        for report in step.outputs:
            if report.name == "report.json" and report.exists():
                values = accuracies(json.loads(report.read_text()))
                if not all(0.0 <= v <= 1.0 for v in values):
                    errors.append(f"accuracy outside [0, 1] in {report.parent.name}")
                rep.accuracies.extend(values)
        return errors

    def setup(self, rep_index: int) -> Rep:
        """CLI start-up in a fresh interpreter, then the workload's set-up commands."""
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", "import geomshot.cli"], env=self.child_env, cwd=ROOT,
            stdout=subprocess.DEVNULL, timeout=120,
        )
        started = time.perf_counter() - t0
        if done.returncode != 0:
            self.problem(f"importing geomshot.cli in a fresh interpreter exited {done.returncode}")
        rep = self.run(self.workload.setup(rep_index), "setup")
        rep.wall += started
        return rep

    def section(self, rep_index: int, setup_index: int, tracer=None) -> Rep:
        return self.run(self.workload.section(rep_index, setup_index), "section", tracer)


def rate(reps, kinds) -> tuple[float, int]:
    """Median over repetitions of work per second for the given step kinds."""
    values = []
    for rep in reps:
        work = sum(rep.kinds[k][0] for k in kinds if k in rep.kinds)
        seconds = sum(rep.kinds[k][1] for k in kinds if k in rep.kinds)
        if seconds > 0:
            values.append(work / seconds)
    return median(values), len(values)


def seconds_of(reps, kind) -> tuple[float, int]:
    values = [rep.kinds[kind][1] for rep in reps if kind in rep.kinds]
    return median(values), len(values)


def end_to_end(setups, sections) -> dict[str, tuple[float, int]]:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    last = sections[-1].accuracies if sections else []
    return {
        "wall_s": (median([r.wall for r in sections]), len(sections)),
        "setup_s": (median([r.wall for r in setups]), len(setups)),
        "peak_rss_mb": (peak_kb / 1024.0, 1),
        "mean_accuracy": (statistics.fmean(last) if last else 0.0, len(last)),
    }


def command_rates(setups, sections) -> dict[str, tuple[float, int]]:
    """Untraced per-command figures reported beside the per-layer metrics."""
    def source(kind):  # timed in the section when the section runs it, else in set-up
        return sections if any(kind in r.kinds for r in sections) else setups

    return {
        "eval_episodes_per_s": rate(sections, ("eval",)),
        "synth_files_per_s": rate(source("synth"), ("synth",)),
        "read_files_per_s": rate(source("split"), ("split",)),
        "train_episodes_per_s": rate(sections, ("train",)),
        "episode_linear_episodes_per_s": rate(sections, ("episode_linear",)),
        "ablate_s": seconds_of(sections, "ablate"),
        "full_data_s": seconds_of(sections, "full_data"),
    }


def traced_section(bench: Bench, rep_index: int, setup_index: int, untraced_wall: float):
    tracer = Tracer("geomshot")
    probes.install(tracer)
    try:
        rep = bench.section(rep_index, setup_index, tracer)
    finally:
        tracer.restore()
    metrics = probes.per_layer_metrics(tracer.spans, rep.wall)
    metrics["trace.overhead_s"] = rep.wall - untraced_wall
    name = bench.workload.name
    for span in MUST_CALL[name]:
        if metrics[f"{span}.calls"] == 0:
            bench.problem(f"traced {name} never called {span}")
    for prefix in MUST_NOT_CALL.get(name, ()):
        for key, value in metrics.items():
            if key.startswith(prefix) and value != 0:
                bench.problem(f"traced {name} reports {key} = {value}, expected 0")
    return {key: (value, 1) for key, value in metrics.items()}


def source_facts() -> dict:
    files = sorted((SRC / "geomshot").rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return {"git_commit": commit, "src_sha256": h.hexdigest(), "src_lines": lines}


def provenance(args, cleared: dict) -> dict:
    import numpy as np
    from geomshot.evaluation import worker_count

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": "library default (thread variables unset)",
        "eval_workers": worker_count(),
        "cleared_env": cleared,
        **source_facts(),
    }


def print_table(metrics, spec, correct, attempted, failed) -> None:
    print(f"{'metric':44s} {'value':>14s} {'unit':10s} better  samples")
    for name, (value, samples) in metrics.items():
        unit, better = spec[name]
        print(f"{name:44s} {value:14.6g} {unit:10s} {better:7s} {samples}")
    error_rate = failed / attempted if attempted else 0.0
    print(f"{'error_rate':44s} {error_rate:14.6g} {'fraction':10s} {'lower':7s} {attempted}")
    print(f"correct: {str(correct).lower()}")


def load_spec(trace: int) -> dict[str, tuple[str, str]]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    if not (SRC / "geomshot" / "cli.py").is_file():
        print(f"perfbench: no geomshot sources under {SRC}", file=sys.stderr)
        return 2
    # The program's threads stay at their defaults: BLAS reads these at import.
    cleared = {var: os.environ.pop(var) for var in THREAD_VARS if var in os.environ}
    sys.path.insert(0, str(SRC))
    import geomshot.cli

    if SRC.resolve() not in Path(geomshot.cli.__file__).resolve().parents:
        print(f"perfbench: geomshot imported from {geomshot.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = load_spec(args.trace)
    child_env = dict(os.environ, PYTHONPATH=str(SRC))

    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = Workload(args.workload, SIZES[args.size], args.seed, work)
        bench = Bench(workload, geomshot.cli.main, child_env)
        bench.setup(0)  # warm-up
        bench.section(0, 0)
        setups, sections = [], []
        start = time.perf_counter()
        while len(sections) < MIN_REPS or time.perf_counter() - start < args.seconds:
            rep = len(sections) + 1
            setups.append(bench.setup(rep))
            sections.append(bench.section(rep, rep))
        metrics = end_to_end(setups, sections)
        if not 0.0 < metrics["mean_accuracy"][0] < 1.0:
            bench.problem(f"mean_accuracy {metrics['mean_accuracy'][0]} is not inside (0, 1)")
        if args.trace:
            metrics = command_rates(setups, sections) | traced_section(
                bench, len(sections) + 1, len(setups), metrics["wall_s"][0])
        prov = provenance(args, cleared)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if set(metrics) != set(spec):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(spec))} disagree with BENCHMARK.json")
    correct = not bench.problems and bench.failed == 0
    print("provenance " + json.dumps(prov, sort_keys=True))
    print_table(metrics, spec, correct, bench.attempted, bench.failed)
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": spec[name][0]} for name, (value, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
