"""Episodic training: within-domain runs, source pretraining, adaptation.

One training step = one episode: embed support+query in train mode,
combine the prototype NLL on the queries with the weighted contrastive
loss over all episode embeddings, backpropagate, and take one AdamW step.
The learning rate follows a cosine schedule over epochs. After each epoch
a monitor accuracy is computed on held-out episodes drawn from the train
split under a disjoint seed stream; early stopping keeps the best-monitor
parameters and halts after ``patience`` non-improving epochs. The monitor
episodes are the same every epoch, so they are drawn once per run, and
each epoch embeds the rows they touch in one eval-mode forward.

Head-only adaptation (``target_supervised``) trains the final projection
of a frozen encoder: the backbone runs once over the eligible train rows,
and the head trains on those cached features.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, replace

import numpy as np

from .dataio import eligible_pool
from .episodes import Episode, EpisodeSpec, sample_episode
from .errors import ConfigMismatch, CorruptCheckpoint
from .evaluation import embed_rows, episode_rows, proto_predict
from .features import FeaturePool
from .fewshot import LossBreakdown, protonet_loss_and_grads, supcon_loss_and_grad
from .nnet import AdamW, EncoderConfig, MLPEncoder, cosine_lr
from .nnet.checkpoint import load_checkpoint, save_checkpoint
from .rng import STREAM_DROPOUT, make_rng

logger = logging.getLogger(__name__)

# Monitor episodes draw from a seed stream disjoint from training episodes.
MONITOR_SEED_OFFSET = 1_000_000_000


@dataclass
class TrainConfig:
    n_way: int = 5
    k_shot: int = 5
    q_query: int = 15
    episodes_per_epoch: int = 100
    max_epochs: int = 100
    patience: int = 15
    base_seed: int = 42
    supcon_weight: float = 0.5
    temperature: float = 0.07
    learning_rate: float = 1e-4
    weight_decay: float = 1e-4
    clip_norm: float = 1.0
    monitor_episodes: int = 50

    def __post_init__(self):
        if min(self.episodes_per_epoch, self.max_epochs, self.patience, self.monitor_episodes) < 1:
            raise ValueError("episode/epoch/patience counts must be positive")


@dataclass
class AdaptConfig:
    mode: str = "frozen"  # frozen | target_supervised
    max_epochs: int = 20
    learning_rate: float = 1e-4
    patience: int = 15

    def __post_init__(self):
        if self.mode not in ("frozen", "target_supervised"):
            raise ValueError(f"unknown adaptation mode {self.mode!r}")


@dataclass
class TrainResult:
    state: dict[str, np.ndarray]
    encoder_config: EncoderConfig
    log: list[dict]
    best_epoch: int
    best_monitor_acc: float
    meta: dict


def _monitor_accuracy(model, X: np.ndarray, episodes: list[Episode], rows: np.ndarray) -> float:
    preds = proto_predict(embed_rows(model, X, rows), episodes)
    correct = sum(int((pred == ep.query_labels).sum()) for pred, ep in zip(preds, episodes))
    total = sum(len(ep.query_labels) for ep in episodes)
    return correct / total


def _episode_step(
    model,
    optimizer: AdamW,
    X: np.ndarray,
    pool: dict[int, list[int]],
    cfg: TrainConfig,
    episode_index: int,
) -> LossBreakdown:
    spec = EpisodeSpec(cfg.n_way, cfg.k_shot, cfg.q_query, cfg.base_seed, episode_index)
    ep = sample_episode(pool, spec)
    labels = np.concatenate([ep.support_labels, ep.query_labels])
    n_support = len(ep.support_labels)
    rng = make_rng(STREAM_DROPOUT, cfg.base_seed, episode_index)
    emb = model.forward(X[ep.support_items + ep.query_items], train=True, rng=rng)

    nll, d_sup, d_qry = protonet_loss_and_grads(
        emb[:n_support], ep.support_labels, emb[n_support:], ep.query_labels, cfg.n_way
    )
    sc, d_all = supcon_loss_and_grad(emb, labels, cfg.temperature)
    d_emb = np.vstack([d_sup, d_qry]) + cfg.supcon_weight * d_all

    optimizer.zero_grad()
    model.backward(d_emb)
    optimizer.step()
    return LossBreakdown(nll, sc, cfg.supcon_weight, cfg.temperature)


def _run_training(
    encoder: MLPEncoder,
    model,
    X: np.ndarray,
    pool: dict[int, list[int]],
    optimizer: AdamW,
    cfg: TrainConfig,
    schedule: bool,
    meta: dict,
) -> TrainResult:
    """Episodic training of ``model`` on rows of ``X``; ``encoder`` holds the snapshots.

    ``model`` is the encoder itself over the feature rows, or its head over
    cached backbone features.
    """
    monitor_seed = cfg.base_seed + MONITOR_SEED_OFFSET
    monitor = [
        sample_episode(pool, EpisodeSpec(cfg.n_way, cfg.k_shot, cfg.q_query, monitor_seed, j))
        for j in range(cfg.monitor_episodes)
    ]
    monitor_rows = episode_rows(monitor)
    best_state = encoder.state()
    best_acc = -1.0
    best_epoch = -1
    bad_epochs = 0
    log: list[dict] = []
    for epoch in range(cfg.max_epochs):
        lr = cosine_lr(cfg.learning_rate, epoch, cfg.max_epochs) if schedule else cfg.learning_rate
        optimizer.lr = lr
        losses = []
        for i in range(cfg.episodes_per_epoch):
            idx = epoch * cfg.episodes_per_epoch + i
            step = _episode_step(model, optimizer, X, pool, cfg, idx)
            losses.append(step.total)
        acc = _monitor_accuracy(model, X, monitor, monitor_rows)
        log.append(
            {"epoch": epoch, "lr": lr, "mean_loss": float(np.mean(losses)), "monitor_acc": acc}
        )
        logger.info("epoch %d lr %.2e loss %.4f monitor %.4f", epoch, lr, np.mean(losses), acc)
        if acc > best_acc:
            best_acc = acc
            best_epoch = epoch
            best_state = encoder.state()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                logger.info("early stop after %d non-improving epochs", bad_epochs)
                break
    encoder.set_state(best_state)
    return TrainResult(best_state, encoder.config, log, best_epoch, best_acc, meta)


def train_encoder(
    fp: FeaturePool,
    cfg: TrainConfig,
    encoder_cfg: EncoderConfig,
    tag: dict | None = None,
) -> TrainResult:
    """Episodic training from random init on one split's feature pool."""
    if encoder_cfg.input_dim != fp.dim:
        raise ConfigMismatch(
            f"encoder input_dim {encoder_cfg.input_dim} != feature dim {fp.dim}"
        )
    encoder = MLPEncoder(encoder_cfg, seed=cfg.base_seed)
    optimizer = AdamW(
        encoder.parameters(),
        lr=cfg.learning_rate,
        weight_decay=cfg.weight_decay,
        clip_norm=cfg.clip_norm,
    )
    meta = {
        "representation": fp.representation,
        "normalize": fp.normalize,
        "input_dim": fp.dim,
        "train_config": asdict(cfg),
    }
    meta.update(tag or {})
    pool = eligible_pool(fp.pool, cfg.k_shot, cfg.q_query, cfg.n_way)
    return _run_training(encoder, encoder, fp.X, pool, optimizer, cfg, True, meta)


def pretrain_source(
    fp: FeaturePool, cfg: TrainConfig, encoder_cfg: EncoderConfig, source: str
) -> TrainResult:
    """Same loop as train_encoder; the checkpoint is tagged with its source."""
    return train_encoder(fp, cfg, encoder_cfg, tag={"source": source})


def adapt(
    encoder: MLPEncoder,
    fp_target_train: FeaturePool,
    adapt_cfg: AdaptConfig,
    cfg: TrainConfig,
    meta: dict | None = None,
) -> TrainResult:
    """Cross-domain adaptation of a pretrained encoder.

    ``frozen`` returns the parameters unchanged; ``target_supervised``
    fine-tunes only the final projection layer (constant learning rate,
    batchnorm statistics frozen).
    """
    if encoder.config.input_dim != fp_target_train.dim:
        raise ConfigMismatch(
            f"checkpoint input_dim {encoder.config.input_dim} != "
            f"target feature dim {fp_target_train.dim}"
        )
    meta = dict(meta or {})
    meta.update({"adapt_mode": adapt_cfg.mode, "input_dim": encoder.config.input_dim})
    if adapt_cfg.mode == "frozen":
        return TrainResult(encoder.state(), encoder.config, [], -1, float("nan"), meta)
    run_cfg = replace(
        cfg,
        max_epochs=adapt_cfg.max_epochs,
        patience=adapt_cfg.patience,
        learning_rate=adapt_cfg.learning_rate,
    )
    pool = eligible_pool(fp_target_train.pool, cfg.k_shot, cfg.q_query, cfg.n_way)
    # The backbone stays frozen in eval mode (running stats and dropout
    # fixed), so its features are computed once and only the head trains.
    rows = [row for c in sorted(pool) for row in pool[c]]
    feats = encoder.backbone_forward(fp_target_train.X[rows])
    position = {row: k for k, row in enumerate(rows)}
    pool = {c: [position[row] for row in items] for c, items in pool.items()}
    optimizer = AdamW(
        encoder.head_parameters(),
        lr=adapt_cfg.learning_rate,
        weight_decay=cfg.weight_decay,
        clip_norm=cfg.clip_norm,
    )
    return _run_training(encoder, encoder.head, feats, pool, optimizer, run_cfg, False, meta)


def save_encoder(path, result: TrainResult) -> None:
    cfg = result.encoder_config
    meta = dict(result.meta)
    meta["encoder"] = {
        "input_dim": cfg.input_dim,
        "hidden_dim": cfg.hidden_dim,
        "num_hidden": cfg.num_hidden,
        "embed_dim": cfg.embed_dim,
        "dropout_p": cfg.dropout_p,
    }
    tensors = [(name, result.state[name]) for name in cfg.tensor_names()]
    save_checkpoint(path, tensors, meta)


def load_encoder(path) -> tuple[MLPEncoder, dict]:
    meta, tensors = load_checkpoint(path)
    enc_meta = meta.get("encoder")
    if not isinstance(enc_meta, dict):
        raise CorruptCheckpoint(f"{path}: missing encoder config in meta")
    try:
        cfg = EncoderConfig(
            input_dim=int(enc_meta["input_dim"]),
            hidden_dim=int(enc_meta["hidden_dim"]),
            num_hidden=int(enc_meta["num_hidden"]),
            embed_dim=int(enc_meta["embed_dim"]),
            dropout_p=float(enc_meta["dropout_p"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise CorruptCheckpoint(f"{path}: bad encoder config in meta ({e!r})") from e
    if len(tensors) != 6 * cfg.num_hidden + 2:  # before tensor_names() lists num_hidden layers
        raise CorruptCheckpoint(
            f"{path}: {len(tensors)} tensors for num_hidden {cfg.num_hidden} "
            f"(expected {6 * cfg.num_hidden + 2})"
        )
    expected = set(cfg.tensor_names())
    if set(tensors) != expected:
        raise CorruptCheckpoint(
            f"{path}: tensor names do not match the encoder config "
            f"(missing {sorted(expected - set(tensors))[:3]}, "
            f"unexpected {sorted(set(tensors) - expected)[:3]})"
        )
    encoder = MLPEncoder(cfg, seed=0)
    encoder.set_state(tensors)
    return encoder, meta
