import pytest
from hypothesis import settings

from geomshot.dataio import build_catalog, save_split, stratified_split
from geomshot.synth import SynthSpec, generate_corpus

# Every property test draws the same examples on every run and machine, with
# no time limit per example and no example database written to disk.
settings.register_profile("geomshot", deadline=None, database=None, derandomize=True)
settings.load_profile("geomshot")


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    """6-class synthetic tree with a 70/30 split, shared across tests."""
    root = tmp_path_factory.mktemp("corpus")
    spec = SynthSpec(n_classes=6, per_class=40, noise=0.03, transforms=True, seed=11)
    generate_corpus(spec, root)
    catalog = build_catalog(root)
    split = stratified_split(catalog, 0.7, 42)
    split_path = root / "split.json"
    save_split(split, split_path)
    return {"root": root, "spec": spec, "catalog": catalog, "split_path": split_path}
