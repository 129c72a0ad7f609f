"""Prototype classification head and episode losses.

Prototypes are per-class means of support embeddings; queries are scored
by softmax over negative squared Euclidean distances. Every support is
in the sampler's class-major layout, K rows of class 0, then K of class
1, and so on, so the prototypes are one reshape to ``(N, K, D)`` and a
mean, and each support row's gradient is its prototype's gradient over
K. Any other layout is a ``ShapeError``. ``compute_prototypes`` and
``classify`` take leading batch dimensions, so a block of episodes is one call.

``classify`` screens with the Gram form ``|q|² + |p|² − 2 q·p`` (one
batched matmul) and keeps its argmin only where that is sure to equal
the argmin of the difference form ``((q − p)²).sum()``. Each of the two
forms is within ``γ·(|q| + |p|)²`` of the true distance, with
``γ ≈ (D + 2)·eps/2``, so the winner cannot change when the two smallest
screened values are more than ``4·γ·(|q| + max|p|)²`` apart. The screen
asks for a gap of ``16·(D + 2)·eps·(|q| + max|p|)²`` (plus a subnormal
term), eight times that; a query with a smaller gap, or with a value
that is not finite, is re-decided with the difference form. Predictions,
ties included, are therefore those of the difference form. The contrastive
loss operates on L2-normalized embeddings (prototype distances stay
unnormalized) and uses the mean-over-positives-outside-the-log form:
anchors without a same-label positive are skipped.

The *_grad companions return analytic gradients with respect to the
(unnormalized) embeddings so training can backpropagate through the
encoder; they are verified against central finite differences in the
test suite.
"""

from __future__ import annotations

import numpy as np

from .errors import NoPositivesError, ShapeError

# classify's screen: a query is decided by the Gram form only if its two best
# distances are more than _SCREEN_MARGIN * (D + 2) * (eps * scale + subnormal)
# apart, eight times their worst-case rounding (module docstring).
_SCREEN_MARGIN = 16.0
_EPS = np.finfo(np.float64).eps
_SUBNORMAL = np.finfo(np.float64).smallest_subnormal


def compute_prototypes(support_emb: np.ndarray, labels: np.ndarray, n_way: int) -> np.ndarray:
    """Per-class means of support embeddings, rows ordered by class label.

    The support must be in the sampler's class-major layout, ``labels ==
    np.repeat(np.arange(n_way), K)``, so one ``(n_way, K, D)`` mean over the
    C-contiguous rows gives the same bits as a per-class mask and mean.
    Leading dimensions of ``support_emb (..., n, D)`` are batch dimensions
    that share ``labels (n,)``.
    """
    support_emb = np.asarray(support_emb, dtype=np.float64)
    labels = np.asarray(labels)
    if support_emb.ndim < 2 or labels.ndim != 1 or support_emb.shape[-2] != labels.shape[0]:
        raise ShapeError("support embeddings and labels disagree")
    k = labels.shape[0] // n_way if n_way > 0 else 0
    if k < 1 or not np.array_equal(labels, np.repeat(np.arange(n_way), k)):
        counts = {int(c): int(n) for c, n in zip(*np.unique(labels, return_counts=True))}
        raise ShapeError(f"support needs K rows of each class 0..{n_way - 1} in class order, got {counts}")
    return np.ascontiguousarray(support_emb).reshape(support_emb.shape[:-2] + (n_way, k, -1)).mean(axis=-2)


def squared_distances(query_emb: np.ndarray, protos: np.ndarray) -> np.ndarray:
    """``((q - p)**2).sum()`` for every query and prototype: ``(..., M, D)``, ``(..., N, D)`` -> ``(..., M, N)``.

    One prototype column at a time, so no ``(..., M, N, D)`` difference cube is held.
    """
    n = protos.shape[-2]
    out = np.empty(np.broadcast_shapes(query_emb.shape[:-1], protos.shape[:-2] + (1,)) + (n,))
    for j in range(n):
        diff = query_emb - protos[..., j:j + 1, :]
        np.sum(np.square(diff, out=diff), axis=-1, out=out[..., j])
    return out


def proto_log_probs(query_emb: np.ndarray, protos: np.ndarray) -> np.ndarray:
    """Row-normalized log-probabilities from negative squared distances."""
    logits = -squared_distances(np.asarray(query_emb, dtype=np.float64), protos)
    shift = logits.max(axis=1, keepdims=True)
    lse = shift + np.log(np.exp(logits - shift).sum(axis=1, keepdims=True))
    return logits - lse


def protonet_nll(log_probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-likelihood of the true labels."""
    labels = np.asarray(labels)
    rows = np.arange(log_probs.shape[0])
    return float(-log_probs[rows, labels].mean())


def classify(query_emb: np.ndarray, protos: np.ndarray) -> np.ndarray:
    """Nearest prototype by squared distance; ties go to the lowest class.

    Query ``(..., M, D)`` and protos ``(..., N, D)`` give ``(..., M)``. The
    Gram-form screen decides every query whose two best prototypes are
    clearly apart; the rest are re-decided in the difference form (see the
    module docstring), so the result is the difference form's argmin.
    """
    query_emb = np.asarray(query_emb, dtype=np.float64)
    protos = np.asarray(protos, dtype=np.float64)
    protos = np.broadcast_to(protos, query_emb.shape[:-2] + protos.shape[-2:])
    q_sq = np.einsum("...i,...i->...", query_emb, query_emb)
    p_sq = np.einsum("...i,...i->...", protos, protos)
    screen = q_sq[..., :, None] + p_sq[..., None, :] - 2.0 * (query_emb @ protos.swapaxes(-1, -2))
    pred = screen.argmin(axis=-1)
    if protos.shape[-2] < 2:
        return pred
    best_two = np.partition(screen, 1, axis=-1)
    gap = best_two[..., 1] - best_two[..., 0]
    scale = (np.sqrt(q_sq) + np.sqrt(p_sq.max(axis=-1))[..., None]) ** 2
    bound = _SCREEN_MARGIN * (query_emb.shape[-1] + 2) * (_EPS * scale + _SUBNORMAL)
    unsure = np.nonzero(~(gap > bound))  # a NaN or an infinity also fails the test
    if unsure[0].size:
        exact = squared_distances(query_emb[unsure][:, None, :], protos[unsure[:-1]])
        pred[unsure] = exact[:, 0, :].argmin(axis=-1)
    return pred


def protonet_loss_and_grads(
    support_emb: np.ndarray,
    support_labels: np.ndarray,
    query_emb: np.ndarray,
    query_labels: np.ndarray,
    n_way: int,
) -> tuple[float, np.ndarray, np.ndarray]:
    """NLL plus gradients w.r.t. support and query embeddings.

    The support gradient flows through the prototype means (each support
    row receives its class-prototype gradient divided by K).
    """
    support_emb = np.asarray(support_emb, dtype=np.float64)
    query_emb = np.asarray(query_emb, dtype=np.float64)
    support_labels = np.asarray(support_labels)
    query_labels = np.asarray(query_labels)
    protos = compute_prototypes(support_emb, support_labels, n_way)
    log_p = proto_log_probs(query_emb, protos)
    loss = protonet_nll(log_p, query_labels)

    m = query_emb.shape[0]
    g = np.exp(log_p)
    g[np.arange(m), query_labels] -= 1.0
    g /= m  # d loss / d logits, logits = -squared distance

    d_dist = -g
    row_sum = d_dist.sum(axis=1, keepdims=True)
    d_query = 2.0 * (query_emb * row_sum - d_dist @ protos)
    col_sum = d_dist.sum(axis=0)[:, None]
    d_protos = 2.0 * (protos * col_sum - d_dist.T @ query_emb)

    d_support = (d_protos / (len(support_labels) // n_way))[support_labels]
    return loss, d_support, d_query


def _normalize_rows(emb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    norms = np.maximum(norms, 1e-12)
    return emb / norms, norms


def supcon_loss(emb: np.ndarray, labels: np.ndarray, temperature: float) -> float:
    return supcon_loss_and_grad(emb, labels, temperature)[0]


def supcon_loss_and_grad(emb: np.ndarray, labels: np.ndarray, temperature: float) -> tuple[float, np.ndarray]:
    """Loss plus gradient w.r.t. the unnormalized embeddings.

    The loss is non-differentiable at a zero embedding; norms are floored
    at 1e-12 (the mainstream-framework convention), so callers must keep
    embeddings away from exact zero. Any realistic encoder width does.
    The ``(B, B)`` terms live in two arrays, overwritten as each one dies.
    """
    emb = np.asarray(emb, dtype=np.float64)
    labels = np.asarray(labels)
    b = emb.shape[0]
    if b < 2:
        raise ShapeError("contrastive loss needs at least 2 embeddings")
    z, norms = _normalize_rows(emb)
    sim = z @ z.T
    sim /= temperature
    pos = labels[:, None] == labels[None, :]
    np.fill_diagonal(pos, False)
    anchors = pos.any(axis=1)
    if not anchors.any():
        raise NoPositivesError("no anchor has a same-label positive")
    # log denominator over a != i, numerically stabilized
    work = sim.copy()
    np.fill_diagonal(work, -np.inf)
    shift = work.max(axis=1, keepdims=True)
    work -= shift
    lse = shift + np.log(np.exp(work, out=work).sum(axis=1, keepdims=True))
    log_ratio = np.subtract(sim, lse, out=work)
    log_ratio *= pos
    loss = float((-log_ratio.sum(axis=1)[anchors] / pos.sum(axis=1)[anchors]).mean())
    del log_ratio, shift  # the gradient reads neither, and work is free to overwrite

    # d loss / d sim[i, a] = (softmax_i(a) - 1[a in P(i)] / |P(i)|) / |I|, in place of sim
    np.exp(np.subtract(sim, lse, out=sim), out=sim)
    np.fill_diagonal(sim, 0.0)
    sim -= np.divide(pos, np.maximum(pos.sum(axis=1), 1)[:, None], out=work)
    sim[~anchors] = 0.0  # rows without a positive are not anchors
    sim /= int(anchors.sum())
    # sim is z @ z.T / tau: accumulate both row and column occurrences.
    d_z = np.add(sim, sim.T, out=work) @ z
    del sim, work
    d_z /= temperature
    # through the row normalization z = e / |e|
    zz = d_z * z
    np.multiply(z, zz.sum(axis=1, keepdims=True), out=zz)
    d_z -= zz
    d_z /= norms
    return loss, d_z
