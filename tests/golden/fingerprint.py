#!/usr/bin/env python3
"""Golden fingerprints: sha256 of every output of a tiny seeded CLI pass.

The pass runs ``synth``, ``split``, ``ablate``, ``baseline --kind
input_space`` and ``baseline --kind full_data`` on a 4-class corpus; no
encoder runs. Every file it writes is hashed except manifests and the
generated YAML config; the corpus's keypoint files hash as one entry,
``corpus``. The BLAS thread count is fixed at one before numpy loads, and
the numpy version, BLAS build and machine are stored with the hashes.

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
    eval_doc = {"schema_version": 1,
                "data": {"data_root": str(corpus), "split": str(split), "representation": "raw_angle"},
                "eval": {"n_way": 3, "k_shot": 2, "q_query": 4, "episodes": 20, "base_seed": 3}}
    for run, doc in (("ablate", eval_doc | {"ablate": {"k_values": [1, 4]}}),
                     ("baseline --kind input_space", eval_doc), ("baseline --kind full_data", eval_doc)):
        name = run.split()[-1]
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
