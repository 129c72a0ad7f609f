import numpy as np
import pytest

from geomshot import features
from geomshot.dataio import Sample
from geomshot.errors import DegenerateHand, ShapeError
from geomshot.features import build_feature_pool
from geomshot.geometry import REPRESENTATIONS
from test_geometry import hand_stack, reference_features


def sample_pool(hands, per_class=4):
    """Samples with their keypoints in memory, ``per_class`` per class."""
    pool = {}
    for i, h in enumerate(hands):
        c = i // per_class
        pool.setdefault(c, []).append(Sample(f"class_{c:02d}/s{i:04d}.npy", c, h))
    return pool


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
    assert np.array_equal(fp.X, np.array([reference_features(h, kind, normalize)[0] for h in hands]))
    assert fp.pool == {c: list(range(4 * c, 4 * c + 4)) for c in range(6)}
    assert fp.paths[5] == "class_01/s0005.npy"


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
    unnormalized = build_feature_pool(pool, "unused-root", "raw", normalize=False)
    assert np.array_equal(unnormalized.X[6], np.full(63, 3.0))


def test_empty_pool_has_zero_rows():
    fp = build_feature_pool({}, "unused-root", "raw_angle")
    assert fp.X.shape == (0, 83) and fp.pool == {} and fp.paths == []


def test_unknown_representation_rejected():
    with pytest.raises(ShapeError):
        build_feature_pool(sample_pool(hand_stack(12, 11)), "unused-root", "angles")
