"""Episodic training: within-domain runs, source pretraining, adaptation.

One training step = one episode: embed support+query in train mode,
combine the prototype NLL on the queries with the weighted contrastive
loss over all episode embeddings, backpropagate, and take one AdamW step.
Beside the run's state (the parameters, their gradient, AdamW's moments
and the best-epoch snapshot), a step holds the layers' caches, which
backward consumes layer by layer, and the embeddings' gradient: the
embeddings and the two losses' arrays are released before backward, and
backward writes every gradient the optimizer reads, so nothing is zeroed.
The learning rate follows a cosine schedule over epochs. After each epoch
a monitor accuracy is computed on held-out episodes drawn from the train
split under a disjoint seed stream; early stopping keeps the best-monitor
parameters and halts after ``patience`` non-improving epochs. Each epoch
draws its training episodes as one ``Episodes`` batch. The monitor
episodes are the same every epoch, so they are drawn once per run, as one
batch, and each epoch embeds the rows they touch in one eval-mode forward.

Head-only adaptation (``target_supervised``) trains the final projection
of a frozen encoder: the backbone runs once over the train rows, and the
head trains on those cached features.
"""

from __future__ import annotations

import logging
from dataclasses import asdict, dataclass, replace

import numpy as np

from .dataio import eligible_pool
from .episodes import Episodes, EpisodeSpec, sample_episode
from .errors import ConfigMismatch
from .evaluation import embed_rows, episode_rows, proto_predict
from .features import FeaturePool
from .fewshot import protonet_loss_and_grads, supcon_loss_and_grad
from .nnet import AdamW, EncoderConfig, MLPEncoder, ParamBuffer, cosine_lr
from .rng import STREAM_DROPOUT, make_rng
from .schema import check_fields, setting

logger = logging.getLogger(__name__)

# Monitor episodes draw from a seed stream disjoint from training episodes.
MONITOR_SEED_OFFSET = 1_000_000_000


@dataclass
class TrainConfig:
    n_way: int = setting(5, ge=2)
    k_shot: int = setting(5, ge=1)
    q_query: int = setting(15, ge=1)
    episodes_per_epoch: int = setting(100, ge=1)
    max_epochs: int = setting(100, ge=1)
    patience: int = setting(15, ge=1)
    base_seed: int = setting(42, ge=0)
    supcon_weight: float = setting(0.5, ge=0)
    temperature: float = setting(0.07, gt=0)
    learning_rate: float = setting(1e-4, gt=0)
    weight_decay: float = setting(1e-4, ge=0)
    clip_norm: float | None = setting(1.0, gt=0)
    monitor_episodes: int = setting(50, ge=1)

    def __post_init__(self):
        check_fields(self, "train")


@dataclass
class AdaptConfig:
    mode: str = setting("frozen", choices=("frozen", "target_supervised"))
    max_epochs: int = setting(20, ge=1)
    learning_rate: float = setting(1e-4, gt=0)
    patience: int = setting(15, ge=1)

    def __post_init__(self):
        check_fields(self, "adapt")


@dataclass
class TrainResult:
    state: np.ndarray  # the encoder's state array, as a checkpoint's payload holds it
    encoder_config: EncoderConfig
    log: list[dict]
    best_epoch: int
    best_monitor_acc: float
    meta: dict


def _monitor_accuracy(model, X: np.ndarray, episodes: Episodes, rows: np.ndarray) -> float:
    pred = proto_predict(embed_rows(model, X, rows), episodes)
    return int((pred == episodes.query_labels).sum()) / pred.size


def _draw(pool: dict[int, list[int]], cfg: TrainConfig, seed: int, first: int, count: int) -> Episodes:
    return sample_episode(pool, EpisodeSpec(cfg.n_way, cfg.k_shot, cfg.q_query, seed, first), count=count)


def _episode_step(
    model,
    optimizer: AdamW,
    X: np.ndarray,
    batch: Episodes,
    row: int,
    cfg: TrainConfig,
    episode_index: int,
) -> tuple[float, float, float]:
    """Training episode ``batch[row]``; returns its NLL, its contrastive loss and the pre-clip gradient norm."""
    labels = np.concatenate([batch.support_labels, batch.query_labels])
    n_support = len(batch.support_labels)
    rng = make_rng(STREAM_DROPOUT, cfg.base_seed, episode_index)
    emb = model.forward(X[np.concatenate([batch.support[row], batch.query[row]])], train=True, rng=rng)

    # The contrastive loss first, so its (B, B) terms never meet the prototype gradients.
    sc, d_emb = supcon_loss_and_grad(emb, labels, cfg.temperature)
    nll, d_sup, d_qry = protonet_loss_and_grads(
        emb[:n_support], batch.support_labels, emb[n_support:], batch.query_labels, cfg.n_way
    )
    del emb
    # [d_sup; d_qry] + weight * d_supcon in the contrastive gradient's array; IEEE addition commutes, so bits match
    d_emb *= cfg.supcon_weight
    d_emb[:n_support] += d_sup
    d_emb[n_support:] += d_qry
    del d_sup, d_qry

    model.backward(d_emb, input_grad=False)  # writes every gradient the optimizer reads
    grad_norm = optimizer.step()
    return nll, sc, grad_norm


def _run_training(
    encoder: MLPEncoder,
    model,
    buffer: ParamBuffer,
    X: np.ndarray,
    labels: np.ndarray,
    cfg: TrainConfig,
    meta: dict,
) -> TrainResult:
    """Episodic training of ``model`` on rows of ``X`` with AdamW over ``buffer``; ``encoder`` holds the snapshots.

    ``model`` is the encoder itself over the feature rows, with the cosine
    schedule, or its head over cached backbone features, at a constant rate.
    """
    pool = eligible_pool(labels, cfg.k_shot, cfg.q_query, cfg.n_way)  # refuses before AdamW binds a gradient
    optimizer = AdamW(buffer, cfg.learning_rate, cfg.weight_decay, cfg.clip_norm)
    monitor = _draw(pool, cfg, cfg.base_seed + MONITOR_SEED_OFFSET, 0, cfg.monitor_episodes)
    monitor_rows = episode_rows(monitor)
    # What training moves: the whole state (parameters, running statistics), or only the head's values.
    moving = encoder.state_array if model is encoder else buffer.values
    best = np.empty_like(moving)  # epoch 0 always fills it: accuracy is in [0, 1] and max_epochs >= 1
    best_acc = -1.0
    best_epoch = -1
    bad_epochs = 0
    log: list[dict] = []
    for epoch in range(cfg.max_epochs):
        lr = cosine_lr(cfg.learning_rate, epoch, cfg.max_epochs) if model is encoder else cfg.learning_rate
        optimizer.lr = lr
        first = epoch * cfg.episodes_per_epoch
        batch = _draw(pool, cfg, cfg.base_seed, first, cfg.episodes_per_epoch)
        steps = np.array([
            _episode_step(model, optimizer, X, batch, i, cfg, first + i) for i in range(cfg.episodes_per_epoch)
        ])  # (E, 3): nll, supcon, grad norm
        nll, supcon, norms = steps.T
        acc = _monitor_accuracy(model, X, monitor, monitor_rows)
        log.append({
            "epoch": epoch,
            "lr": lr,
            "mean_loss": float(np.mean(nll + cfg.supcon_weight * supcon)),
            "monitor_acc": acc,
            "mean_nll": float(np.mean(nll)),
            "mean_supcon": float(np.mean(supcon)),
            "mean_grad_norm": float(np.mean(norms)),
            "clipped_steps": int(np.count_nonzero(norms > cfg.clip_norm)) if cfg.clip_norm is not None else 0,
        })
        logger.info("epoch %d lr %.2e loss %.4f monitor %.4f", epoch, lr, log[-1]["mean_loss"], acc)
        if acc > best_acc:
            best_acc = acc
            best_epoch = epoch
            best[...] = moving
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.patience:
                logger.info("early stop after %d non-improving epochs", bad_epochs)
                break
    moving[...] = best
    return TrainResult(encoder.state(), encoder.config, log, best_epoch, best_acc, meta)


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
    meta = {
        "representation": fp.representation,
        "normalize": fp.normalize,
        "input_dim": fp.dim,
        "train_config": asdict(cfg),
    }
    meta.update(tag or {})
    return _run_training(encoder, encoder, encoder.flat, fp.X, fp.labels, cfg, meta)


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
    # The backbone is frozen in eval mode (running statistics and dropout fixed): its features are computed once.
    feats = encoder.backbone_forward(fp_target_train.X)
    return _run_training(encoder, encoder.head, encoder.head_parameters(), feats, fp_target_train.labels, run_cfg, meta)
