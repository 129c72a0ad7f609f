#!/usr/bin/env python3
"""Golden fingerprints: sha256 of every output of a tiny seeded CLI pass.

The pass runs ``synth`` and ``split`` on a 4-class corpus, then on its
``raw_angle`` rows ``ablate``, ``baseline --kind input_space`` and
``--kind full_data``; ``train`` and ``pretrain`` of a default-width
encoder (116,096 parameters); ``adapt`` of the pretrained encoder in
``target_supervised`` and ``frozen`` mode; ``eval`` of the trained
encoder; ``baseline --kind episode_linear`` and ``multiseed`` (seeds 3 and
1003, far apart) of the adapted one. Every file it writes is hashed except
manifests and the generated YAML configs; the corpus's keypoint files
hash as one entry, ``corpus``. The BLAS thread count is fixed at one
before numpy loads, and the numpy version, BLAS build and machine are
stored with the hashes.

    python tests/golden/fingerprint.py            # rewrite tests/golden/fingerprints.json
    python tests/golden/fingerprint.py --out F    # write the fingerprints to F instead

A change that moves an output on purpose regenerates the file in the same
commit, so its diff names the outputs that moved.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "fingerprints.json"
# Outputs compared on any machine; the rest depend on the floating-point library and BLAS build.
MACHINE_INDEPENDENT = ("corpus", "split.json")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}", "machine": platform.machine()}


def run_pass(work: Path) -> None:
    import yaml

    from geomshot.cli import main as geomshot

    corpus, split, runs = work / "corpus", work / "split.json", work / "runs"
    commands = [["synth", "--out", str(corpus), "--classes", "4", "--per-class", "16", "--noise", "0.3",
                 "--seed", "5", "--name", "corpus"],
                ["split", "--data-root", str(corpus), "--out", str(split), "--fraction", "0.5", "--seed", "3"]]
    data = {"data_root": str(corpus), "split": str(split), "representation": "raw_angle"}
    episodes = {"n_way": 3, "k_shot": 2, "q_query": 4}
    eval_doc = {"schema_version": 1, "data": data, "eval": episodes | {"episodes": 20, "base_seed": 3}}
    train_doc = {"schema_version": 1, "data": data, "train": episodes | {
        "episodes_per_epoch": 6, "max_epochs": 2, "patience": 2, "base_seed": 3, "monitor_episodes": 4}}
    ckpt = {name: str(runs / name / "checkpoints" / "encoder.ckpt") for name in ("train", "pretrain", "adapt")}
    adapt_doc = train_doc | {"checkpoint": ckpt["pretrain"]}
    adapted = eval_doc | {"checkpoint": ckpt["adapt"]}
    runs_in_order = [  # (run id, command, config); later runs read earlier runs' checkpoints
        ("ablate", "ablate", eval_doc | {"ablate": {"k_values": [1, 4]}}),
        ("input_space", "baseline --kind input_space", eval_doc),
        ("full_data", "baseline --kind full_data", eval_doc),
        ("train", "train", train_doc),
        ("pretrain", "pretrain", train_doc | {"source": "corpus"}),
        ("adapt", "adapt", adapt_doc | {"adapt": {"mode": "target_supervised", "max_epochs": 2,
                                                  "learning_rate": 1.0e-3, "patience": 2}}),
        ("adapt_frozen", "adapt", adapt_doc | {"adapt": {"mode": "frozen"}}),
        ("eval", "eval", eval_doc | {"checkpoint": ckpt["train"]}),
        ("episode_linear", "baseline --kind episode_linear", adapted),
        ("multiseed", "multiseed", adapted | {"seeds": [3, 1003]}),
    ]
    for name, run, doc in runs_in_order:
        config = work / f"{name}.yaml"
        config.write_text(yaml.safe_dump(doc))
        commands.append([*run.split(), "--config", str(config), "--out", str(runs), "--run-id", name])
    for argv in commands:
        if geomshot(argv) != 0:
            raise SystemExit(f"geomshot {' '.join(argv)} failed")


def fingerprints(work: Path) -> dict:
    """sha256 per output file, by path relative to ``work``; the corpus's ``*.npy`` files as one entry."""
    outputs, corpus = {}, hashlib.sha256()
    for path in sorted(p for p in work.rglob("*") if p.is_file()):
        name = path.relative_to(work).as_posix()
        if name.endswith(("manifest.json", ".yaml")) or name == "corpus/corpus_meta.json":
            continue
        if name.startswith("corpus/"):
            corpus.update(f"{name}\n".encode() + path.read_bytes())
        else:
            outputs[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return {"corpus": corpus.hexdigest(), **outputs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=GOLDEN)
    args = parser.parse_args(argv)
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # BLAS reads them once, when numpy loads below
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    with tempfile.TemporaryDirectory() as work:
        run_pass(Path(work))
        doc = {"environment": environment(), "outputs": fingerprints(Path(work))}
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
