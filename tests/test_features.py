import numpy as np
import pytest

from geomshot import features
from geomshot.dataio import DatasetCatalog
from geomshot.errors import DegenerateHand, ShapeError
from geomshot.features import build_feature_pool
from geomshot.geometry import REPRESENTATIONS
from test_geometry import hand_stack, reference_features


def sample_pool(hands, per_class=4):
    """A catalog of in-memory hands, ``per_class`` per class."""
    labels = np.arange(len(hands)) // per_class
    paths = np.array([f"class_{c:02d}/s{i:04d}.npy" for i, c in enumerate(labels)], dtype=str)
    classes = [f"class_{c:02d}" for c in range(len(set(labels.tolist())))]
    return DatasetCatalog("memory", "unused-root", classes, paths, labels, np.asarray(hands).reshape(-1, 21, 3))


@pytest.mark.parametrize("normalize", [True, False])
@pytest.mark.parametrize("kind", REPRESENTATIONS)
def test_pool_matches_per_row_reference_in_one_featurize_call(monkeypatch, kind, normalize):
    calls = []

    def counting(points, kind, normalize=True):
        calls.append(len(points))
        return real(points, kind, normalize)

    real = features.featurize
    monkeypatch.setattr(features, "featurize", counting)
    hands = hand_stack(24, 9)
    fp = build_feature_pool(sample_pool(hands), "unused-root", kind, normalize)
    assert calls == [24]
    reference = [reference_features(h, kind, normalize) for h in hands]
    assert np.array_equal(fp.X, np.array([values for values, _ in reference]))
    assert fp.degenerate_angle_rows == sum(degenerate for _, degenerate in reference)
    assert fp.labels.tolist() == [c for c in range(6) for _ in range(4)]


def test_coincident_hand_names_its_path_in_raw_pools():
    hands = hand_stack(12, 10)
    hands[6] = 3.0
    pool = sample_pool(hands)
    for kind in ("raw", "raw_angle"):
        with pytest.raises(DegenerateHand, match=r"^class_01/s0006\.npy: ") as info:
            build_feature_pool(pool, "unused-root", kind)
        assert info.value.rows == [6]
    angle = build_feature_pool(pool, "unused-root", "angle")
    assert np.array_equal(angle.X[6], np.zeros(20))
    assert angle.degenerate_angle_rows == 3  # rows 3 and 10 of hand_stack, and the coincident row 6
    unnormalized = build_feature_pool(pool, "unused-root", "raw", normalize=False)
    assert np.array_equal(unnormalized.X[6], np.full(63, 3.0))


def test_empty_pool_has_zero_rows():
    fp = build_feature_pool(sample_pool([]), "unused-root", "raw_angle")
    assert fp.X.shape == (0, 83) and len(fp.labels) == 0


def test_unknown_representation_rejected():
    with pytest.raises(ShapeError):
        build_feature_pool(sample_pool(hand_stack(12, 11)), "unused-root", "angles")
