"""The benchmark's traced pass wraps geomshot by name: every name it wraps must exist."""

from pathlib import Path

import geomshot.cli
from geomshot.nnet import checkpoint

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
