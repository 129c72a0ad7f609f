"""The outputs of a tiny seeded CLI pass against the committed golden fingerprints.

``tests/golden/fingerprint.py`` runs the pass in a subprocess (so its BLAS
thread count is fixed before numpy loads) and regenerates the golden file
when an output changes on purpose.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"
sys.path.insert(0, str(GOLDEN_DIR))
from fingerprint import MACHINE_INDEPENDENT  # noqa: E402


@pytest.fixture(scope="module")
def recorded():
    return json.loads((GOLDEN_DIR / "fingerprints.json").read_text())


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "fingerprints.json"
    subprocess.run([sys.executable, str(GOLDEN_DIR / "fingerprint.py"), "--out", str(out)], check=True,
                   capture_output=True, timeout=120)
    return json.loads(out.read_text())


def test_corpus_and_split_match_the_golden_fingerprints(recorded, fresh):
    for name in MACHINE_INDEPENDENT:
        assert fresh["outputs"][name] == recorded["outputs"][name], name


def test_every_output_matches_the_golden_fingerprints(recorded, fresh):
    if fresh["environment"] != recorded["environment"]:
        rest = sorted(set(recorded["outputs"]) - set(MACHINE_INDEPENDENT))
        pytest.skip(f"recorded with {recorded['environment']}, running with {fresh['environment']}; "
                    f"not compared: {', '.join(rest)}")
    assert fresh["outputs"] == recorded["outputs"]
