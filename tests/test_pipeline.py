import numpy as np
import pytest
from conftest import named_state, traced_peak

from geomshot.errors import ConfigMismatch, InsufficientClasses
from geomshot.features import FeaturePool
from geomshot.nnet import EncoderConfig, load_checkpoint, save_checkpoint
from geomshot.pipeline import (
    AdaptConfig,
    TrainConfig,
    adapt,
    pretrain_source,
    train_encoder,
)


def gaussian_pool(n_classes=4, per_class=30, dim=20, sep=30.0, seed=0, representation="angle"):
    """Linearly separable synthetic clusters as a ready feature pool."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=sep, size=(n_classes, dim))
    rows = [centers[c] + rng.normal(size=dim) for c in range(n_classes) for _ in range(per_class)]
    labels = np.repeat(np.arange(n_classes), per_class)
    return FeaturePool(np.vstack(rows), labels, representation, True)


def tiny_cfg(**overrides):
    base = dict(
        n_way=3,
        k_shot=2,
        q_query=3,
        episodes_per_epoch=15,
        max_epochs=8,
        patience=15,
        base_seed=42,
        monitor_episodes=15,
    )
    base.update(overrides)
    return TrainConfig(**base)


def tiny_encoder_cfg(input_dim=20):
    return EncoderConfig(input_dim=input_dim, hidden_dim=32, embed_dim=16)


def test_training_memory_peak():
    # What a step holds beyond the run's state (values, gradient, Adam's m and v, the best-epoch
    # snapshot): its layer caches and the losses' arrays, each released at its last use.
    # Traced peak, numpy 2.4: 6.17 MiB, against 7.04 MiB with accumulated gradients, out-of-place
    # layer math and loss arrays held through backward.
    rng = np.random.default_rng(0)
    fp = FeaturePool(rng.normal(size=(200, 83)), np.repeat(np.arange(10), 20), "raw_angle", True)
    cfg = TrainConfig(n_way=5, k_shot=5, q_query=15, episodes_per_epoch=3, max_epochs=2, monitor_episodes=5)
    _, peak = traced_peak(lambda: train_encoder(fp, cfg, EncoderConfig(input_dim=83)))
    assert peak < 6.5 * 2**20


class TestTraining:
    def test_separable_data_reaches_high_monitor_accuracy(self):
        fp = gaussian_pool()
        result = train_encoder(fp, tiny_cfg(max_epochs=10), tiny_encoder_cfg())
        assert result.best_monitor_acc >= 0.99
        assert result.log[-1]["epoch"] <= 9

    def test_patience_stops_after_fifteen_flat_epochs(self):
        fp = gaussian_pool()
        cfg = tiny_cfg(max_epochs=40, patience=15)
        result = train_encoder(fp, cfg, tiny_encoder_cfg())
        # monitor saturates at 1.0 immediately; 15 non-improving epochs follow
        assert result.best_monitor_acc == 1.0
        assert result.best_epoch == 0
        assert len(result.log) == 16
        assert all(r["monitor_acc"] <= result.best_monitor_acc for r in result.log)

    def test_training_log_is_deterministic(self):
        fp = gaussian_pool()
        a = train_encoder(fp, tiny_cfg(max_epochs=3, patience=15), tiny_encoder_cfg())
        b = train_encoder(fp, tiny_cfg(max_epochs=3, patience=15), tiny_encoder_cfg())
        assert a.log == b.log
        assert np.array_equal(a.state, b.state)

    def test_log_records_schema(self):
        fp = gaussian_pool()
        result = train_encoder(fp, tiny_cfg(max_epochs=2), tiny_encoder_cfg())
        assert set(result.log[0]) == {
            "epoch", "lr", "mean_loss", "monitor_acc",
            "mean_nll", "mean_supcon", "mean_grad_norm", "clipped_steps",
        }
        assert result.log[0]["lr"] == pytest.approx(1e-4)

    def test_insufficient_classes(self):
        fp = gaussian_pool(n_classes=2)
        with pytest.raises(InsufficientClasses):
            train_encoder(fp, tiny_cfg(), tiny_encoder_cfg())

    def test_dim_mismatch(self):
        fp = gaussian_pool(dim=63)
        with pytest.raises(ConfigMismatch):
            train_encoder(fp, tiny_cfg(), tiny_encoder_cfg(input_dim=20))


class TestPretrain:
    def test_checkpoint_meta_records_source(self, tmp_path):
        fp = gaussian_pool()
        result = pretrain_source(fp, tiny_cfg(max_epochs=2), tiny_encoder_cfg(), source="langA")
        path = tmp_path / "pre.ckpt"
        save_checkpoint(path, result.encoder_config, result.state, result.meta)
        _, meta = load_checkpoint(path)
        assert meta["source"] == "langA"
        assert meta["representation"] == "angle"
        assert meta["input_dim"] == 20

    def test_pretrain_matches_within_domain_quality(self):
        # pretraining is the same episodic loop, so evaluating the
        # pretrained encoder on the source is within-domain quality exactly
        from geomshot.evaluation import EvalSpec, evaluate
        from geomshot.nnet import MLPEncoder

        fp = gaussian_pool()
        cfg = tiny_cfg(max_epochs=3)
        pre = pretrain_source(fp, cfg, tiny_encoder_cfg(), source="langA")
        within = train_encoder(fp, cfg, tiny_encoder_cfg())
        spec = EvalSpec(3, 2, 3, 50, 9)
        reports = []
        for result in (pre, within):
            encoder = MLPEncoder(result.encoder_config, seed=0)
            encoder.set_state(result.state)
            reports.append(evaluate(encoder, fp, spec).mean_accuracy)
        assert abs(reports[0] - reports[1]) <= 0.02

    def test_roundtrip_preserves_parameters(self, tmp_path):
        fp = gaussian_pool()
        result = pretrain_source(fp, tiny_cfg(max_epochs=2), tiny_encoder_cfg(), source="langA")
        path = tmp_path / "pre.ckpt"
        save_checkpoint(path, result.encoder_config, result.state, result.meta)
        encoder, _ = load_checkpoint(path)
        assert np.array_equal(encoder.state(), result.state)


class TestAdapt:
    def make_pretrained(self):
        fp = gaussian_pool()
        result = train_encoder(fp, tiny_cfg(max_epochs=2), tiny_encoder_cfg())
        from geomshot.nnet import MLPEncoder

        encoder = MLPEncoder(result.encoder_config, seed=0)
        encoder.set_state(result.state)
        return encoder, result

    def test_frozen_is_identity(self):
        encoder, trained = self.make_pretrained()
        fp_target = gaussian_pool(seed=9)
        out = adapt(encoder, fp_target, AdaptConfig(mode="frozen"), tiny_cfg())
        assert np.array_equal(out.state, trained.state)

    def test_target_supervised_touches_only_head(self):
        encoder, trained = self.make_pretrained()
        fp_target = gaussian_pool(seed=9)
        out = adapt(
            encoder,
            fp_target,
            AdaptConfig(mode="target_supervised", max_epochs=3),
            tiny_cfg(),
        )
        after = named_state(out.encoder_config, out.state)
        for name, arr in named_state(trained.encoder_config, trained.state).items():
            if name.startswith("head."):
                assert not np.array_equal(after[name], arr), name
            else:
                assert np.array_equal(after[name], arr), name

    def test_target_supervised_leaves_backbone_slice_of_buffer_untouched(self):
        encoder, _ = self.make_pretrained()
        head = encoder.head_parameters()
        n_backbone = encoder.flat.values.size - head.values.size
        backbone = encoder.flat.values[:n_backbone].copy()
        head_before = head.values.copy()
        stats = encoder.state_array[encoder.param_count():].copy()  # every BatchNorm's running statistics
        adapt(encoder, gaussian_pool(seed=9), AdaptConfig(mode="target_supervised", max_epochs=3),
              tiny_cfg())
        assert [p.name for p in head.params] == ["head.weight", "head.bias"]
        assert np.shares_memory(head.values, encoder.flat.values[n_backbone:])
        assert np.array_equal(encoder.flat.values[:n_backbone], backbone)
        assert not np.array_equal(head.values, head_before)
        assert np.array_equal(encoder.state_array[encoder.param_count():], stats)

    def test_running_stats_frozen_in_both_modes(self):
        for mode, epochs in (("frozen", 1), ("target_supervised", 2)):
            encoder, trained = self.make_pretrained()
            out = adapt(
                encoder,
                gaussian_pool(seed=9),
                AdaptConfig(mode=mode, max_epochs=epochs),
                tiny_cfg(),
            )
            after = named_state(out.encoder_config, out.state)
            before = named_state(trained.encoder_config, trained.state)
            for name in ("bn1.running_mean", "bn1.running_var", "bn2.running_mean", "bn2.running_var"):
                assert np.array_equal(after[name], before[name]), (mode, name)

    def test_dim_mismatch_rejected(self):
        encoder, _ = self.make_pretrained()
        with pytest.raises(ConfigMismatch):
            adapt(encoder, gaussian_pool(dim=63), AdaptConfig(mode="frozen"), tiny_cfg())


@pytest.mark.parametrize(
    "field, value",
    [("clip_norm", 0.0), ("clip_norm", -1.0), ("clip_norm", float("nan")),
     ("learning_rate", 0.0), ("learning_rate", -1e-4), ("learning_rate", float("nan")),
     ("learning_rate", float("inf")), ("learning_rate", "1e-4"),
     ("temperature", 0.0), ("temperature", -0.07), ("temperature", float("inf")),
     ("weight_decay", -1e-4), ("weight_decay", float("nan")),
     ("supcon_weight", -0.5), ("supcon_weight", float("inf")), ("base_seed", -1), ("base_seed", 1.5), ("base_seed", True),
     ("n_way", 1), ("k_shot", 0), ("q_query", 0)],
)
def test_train_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        TrainConfig(**{field: value})


def test_train_config_accepts_edge_values():
    cfg = TrainConfig(clip_norm=None, weight_decay=0, supcon_weight=0.0, learning_rate=1)
    assert cfg.clip_norm is None


@pytest.mark.parametrize("value", [0.0, -1e-3, float("nan"), float("inf"), True])
def test_adapt_config_rejects_bad_learning_rate(value):
    with pytest.raises(ValueError, match="learning_rate"):
        AdaptConfig(learning_rate=value)
