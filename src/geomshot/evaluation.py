"""Episode evaluation, baselines, ablation, multi-seed aggregation.

The protocol draws all of its seeded episodes first, as one ``Episodes``
batch of row arrays (``draw_episodes``), embeds every row they touch once
(one eval-mode forward over the union of their support and query rows),
then scores the episodes in index order, ``PROTO_BLOCK`` episodes at a
time: one stacked ``compute_prototypes`` and one screened ``classify``
call per block, so the block's temporaries stay below 1 MB at 128-D
embeddings and no ``(E, N·Q, N, D)`` tensor is ever built. The
input-space path scores on the feature matrix itself. Per-class accuracy
and the confusion counts come from one ``bincount`` over every query of
every episode. The per-episode softmax-regression baseline fits all
episodes' probes in one stacked solve over their support rows and
scores their queries in the same blocks.

``fit_softmax_regression`` picks its form from the shape of X ``(n, d)``.
W starts at zero and every gradient step adds ``Xᵀ·(…)`` to it, so after
every step ``W = Xᵀ A`` for some ``A (n, c)``. With fewer rows than
features (every episode probe: N·K support rows of a 128-D embedding) the
descent iterates on A through the Gram matrix ``G = X Xᵀ``: the logits are
``G A + b`` and the step is ``A -= lr·(g + l2·A)``; W is ``Xᵀ A`` at the
end. That form is equal to the primal one in exact arithmetic and differs
from it only in the last bits of W. With ``n >= d`` (the full-data
baseline) W is updated directly. Both forms share one loop body over
workspaces allocated once per fit. Episodes depend only on the pool's
labels and the spec, so the normalization ablation draws each K's episodes
once and scores all three settings' feature matrices on them.
A report holds no timestamps (``EvalReport.to_doc``), so the report
JSON of back-to-back runs is byte-identical.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .config import TopLevelConfig, write_atomic
from .dataio import eligible_pool
from .episodes import Episodes, EpisodeSpec, sample_episode
from .errors import DegenerateProblem
from .features import FeaturePool
from .fewshot import classify, compute_prototypes
from .nnet import MLPEncoder
from .schema import check_fields, setting

REPORT_SCHEMA_VERSION = 1
# Episodes scored per stacked block. At 75 queries and 25 support rows of 128-D,
# a block's rows take 0.8 MB, about what the two (75, 5, 128) difference
# tensors of one per-episode call take; larger blocks raised peak RSS.
PROTO_BLOCK = 8
CSV_COLUMNS = ["dataset", "repr", "encoder", "mode", "K", "mean", "ci95"]

# Normalization-ablation settings: (key, label, representation, normalize).
ABLATION_SETTINGS = (
    ("none", "No normalisation", "raw", False),
    ("wrist_scale", "+ Wrist-centring & scale", "raw", True),
    ("angle", "+ Geometry-aware (angle)", "angle", True),
)


@dataclass
class EvalSpec:
    n_way: int = setting(5, ge=2)
    k_shot: int = setting(5, ge=1)
    q_query: int = setting(15, ge=1)
    episodes: int = setting(600, ge=1)
    base_seed: int = setting(42, ge=0)

    def __post_init__(self):
        check_fields(self, "eval")


@dataclass
class EvalReport:
    episode_accuracies: list[float]
    mean_accuracy: float
    ci95_halfwidth: float
    per_class_accuracy: dict[int, float]
    confusion: dict[tuple[int, int], int]
    config: dict = field(default_factory=dict)

    def to_doc(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "config": self.config,
            "episodes": len(self.episode_accuracies),
            "mean_accuracy": self.mean_accuracy,
            "ci95_halfwidth": self.ci95_halfwidth,
            "episode_accuracies": self.episode_accuracies,
            "per_class_accuracy": {str(k): v for k, v in sorted(self.per_class_accuracy.items())},
            "confusion": [[t, p, c] for (t, p), c in sorted(self.confusion.items())],
        }

    @staticmethod
    def from_doc(doc: dict) -> "EvalReport":
        return EvalReport(
            episode_accuracies=list(doc["episode_accuracies"]),
            mean_accuracy=doc["mean_accuracy"],
            ci95_halfwidth=doc["ci95_halfwidth"],
            per_class_accuracy={int(k): v for k, v in doc["per_class_accuracy"].items()},
            confusion={(t, p): c for t, p, c in doc["confusion"]},
            config=doc.get("config", {}),
        )


def ci95_halfwidth(values: list[float]) -> float:
    """1.96 * sample standard deviation / sqrt(n) (n-1 denominator)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < 2:
        return 0.0
    return float(1.96 * arr.std(ddof=1) / np.sqrt(arr.size))


def worker_count() -> int:
    """Always 1, as episodes are scored serially; exists only for ``perfbench/run.py``'s provenance."""
    return 1


def _blocks(episodes: Episodes):
    """Slices of ``PROTO_BLOCK`` consecutive episodes, in order."""
    return (slice(start, start + PROTO_BLOCK) for start in range(0, len(episodes), PROTO_BLOCK))


def proto_predict(emb: np.ndarray, episodes: Episodes) -> np.ndarray:
    """Nearest-prototype predictions ``(E, N*Q)`` for the episodes' queries, from row embeddings."""
    n_way = episodes.classes.shape[1]
    pred = np.empty(episodes.query.shape, dtype=np.int64)
    for block in _blocks(episodes):
        protos = compute_prototypes(emb[episodes.support[block]], episodes.support_labels, n_way)
        pred[block] = classify(emb[episodes.query[block]], protos)
    return pred


def episode_rows(episodes: Episodes) -> np.ndarray:
    """Ascending rows that any of the episodes uses as support or query."""
    return np.flatnonzero(np.bincount(np.concatenate([episodes.support.ravel(), episodes.query.ravel()])))


def embed_rows(model, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Eval-mode embeddings of ``X[rows]`` from one forward, at their row indices.

    In eval mode the model maps each row on its own (BatchNorm uses its
    running statistics, dropout is off), so this equals embedding each
    episode's rows separately. Rows not in ``rows`` are zero.
    """
    out = model.forward(X[rows], train=False)
    emb = np.zeros((X.shape[0], out.shape[1]))
    emb[rows] = out
    return emb


def draw_episodes(labels: np.ndarray, spec: EvalSpec) -> Episodes:
    """The spec's seeded episodes over the rows of the classes with at least K+Q rows."""
    eligible = eligible_pool(labels, spec.k_shot, spec.q_query, spec.n_way)
    first = EpisodeSpec(spec.n_way, spec.k_shot, spec.q_query, spec.base_seed, 0)
    return sample_episode(eligible, first, count=spec.episodes)


def _score_episodes(
    encoder: MLPEncoder | None,
    predict,
    fp: FeaturePool,
    spec: EvalSpec,
    episodes: Episodes,
    config_echo: dict,
) -> EvalReport:
    """Score ``predict(emb, episodes)``, the ``(E, N*Q)`` relabelled predictions.

    The per-class and confusion tallies are one ``bincount`` over
    ``true * C + pred``, with classes as positions in the pool's sorted
    labels.
    """
    emb = fp.X if encoder is None else embed_rows(encoder, fp.X, episode_rows(episodes))
    pred = predict(emb, episodes)
    labels = episodes.query_labels
    accuracies = (pred == labels).mean(axis=1).tolist()

    classes = np.flatnonzero(np.bincount(fp.labels)).tolist()
    # Row e maps episode e's relabelled classes 0..N-1 to pool class positions.
    lookup = np.searchsorted(classes, episodes.classes)
    true = lookup[:, labels]
    guess = np.take_along_axis(lookup, pred, axis=1)
    C = len(classes)
    counts = np.bincount((true * C + guess).ravel(), minlength=C * C).reshape(C, C)
    totals = counts.sum(axis=1)
    per_class_acc = {
        classes[i]: int(counts[i, i]) / int(totals[i]) for i in np.flatnonzero(totals)
    }
    confusion = {(classes[t], classes[p]): int(counts[t, p]) for t, p in zip(*np.nonzero(counts))}
    mean = float(np.mean(accuracies))
    config = {**asdict(spec), "representation": fp.representation, "normalize": fp.normalize, **config_echo}
    return EvalReport(accuracies, mean, ci95_halfwidth(accuracies), per_class_acc, confusion, config)


def evaluate(
    encoder: MLPEncoder | None,
    fp: FeaturePool,
    spec: EvalSpec,
    config_echo: dict | None = None,
) -> EvalReport:
    """Prototype-classification evaluation over seeded episodes.

    ``encoder=None`` evaluates directly in feature space; otherwise the
    embeddings come from one eval-mode forward over the episodes' rows.
    """
    echo = dict(config_echo or {})
    echo.setdefault("encoder", "none" if encoder is None else "mlp")
    return _score_episodes(encoder, proto_predict, fp, spec, draw_episodes(fp.labels, spec), echo)


def input_space_baseline(fp: FeaturePool, spec: EvalSpec, config_echo: dict | None = None) -> EvalReport:
    """Nearest prototype computed directly in feature space."""
    return evaluate(None, fp, spec, config_echo)


def fit_softmax_regression(
    X: np.ndarray,
    y: np.ndarray,
    n_classes: int,
    iters: int = 500,
    lr: float = 0.1,
    l2: float = 1e-3,
) -> tuple[np.ndarray, np.ndarray]:
    """Full-batch gradient descent from zero init on the softmax CE loss.

    Objective: mean cross-entropy + 0.5 * l2 * ||W||^2 (bias unpenalized).
    Fixed iteration count keeps the fit deterministic. Leading batch
    dimensions fit independent problems in one solve: X ``(..., n, d)``
    and y ``(..., n)`` give W ``(..., d, c)`` and b ``(..., c)``, each
    slice bit-identical to fitting that slice alone.

    With fewer rows than features (``n < d``) the descent runs in dual
    form on ``A (..., n, c)`` with ``W = Xᵀ A`` (see the module docstring);
    otherwise it updates W directly.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    n, d = X.shape[-2:]
    batch = X.shape[:-2]
    Xt = X.swapaxes(-1, -2)
    dual = n < d
    # logits = kernel @ S + b; the step on S is lr * (l2 * S + (g if dual else Xᵀ g)).
    kernel = X @ Xt if dual else X
    S = np.zeros(batch + (n if dual else d, n_classes))
    b = np.zeros(batch + (n_classes,))
    onehot = (y[..., None] == np.arange(n_classes)).astype(np.float64)
    g = np.empty(batch + (n, n_classes))
    row = np.empty(batch + (n, 1))
    # The row max as a running maximum over class columns: exact, and far
    # cheaper than a reduction over a last axis of a few classes.
    top, columns = row[..., 0], [g[..., j] for j in range(n_classes)]
    back = np.empty_like(S)
    step = np.empty_like(S)
    b_step = np.empty_like(b)
    for _ in range(iters):
        np.matmul(kernel, S, out=g)
        g += b[..., None, :]
        np.copyto(top, columns[0])
        for column in columns[1:]:
            np.maximum(top, column, out=top)
        g -= row
        np.exp(g, out=g)
        np.sum(g, axis=-1, keepdims=True, out=row)
        g /= row
        g -= onehot
        g /= n
        np.multiply(l2, S, out=step)
        step += g if dual else np.matmul(Xt, g, out=back)
        step *= lr
        S -= step
        np.sum(g, axis=-2, out=b_step)
        b_step *= lr
        b -= b_step
    return (Xt @ S if dual else S), b


def _linear_predict(W: np.ndarray, b: np.ndarray, X: np.ndarray) -> np.ndarray:
    return (X @ W + b).argmax(axis=-1)


def episode_linear_baseline(
    encoder: MLPEncoder,
    fp: FeaturePool,
    spec: EvalSpec,
    config_echo: dict | None = None,
) -> EvalReport:
    """Per-episode softmax regression fitted on the support embeddings.

    All episodes' probes are fitted in one stacked solve; each episode's
    queries are then scored with its own weights.
    """

    def predict(emb, episodes):
        y = np.broadcast_to(episodes.support_labels, episodes.support.shape)
        W, b = fit_softmax_regression(emb[episodes.support], y, spec.n_way)
        pred = np.empty(episodes.query.shape, dtype=np.int64)
        for block in _blocks(episodes):
            pred[block] = _linear_predict(W[block], b[block, None, :], emb[episodes.query[block]])
        return pred

    echo = dict(config_echo or {})
    echo.setdefault("encoder", "mlp")
    echo.setdefault("classifier", "episode_linear")
    return _score_episodes(encoder, predict, fp, spec, draw_episodes(fp.labels, spec), echo)


def linear_classes(fp_train: FeaturePool, fp_test: FeaturePool) -> np.ndarray:
    """The labels either pool holds, sorted; DegenerateProblem unless there are at least two."""
    classes = np.flatnonzero(np.bincount(np.concatenate([fp_train.labels, fp_test.labels])))
    if len(classes) < 2:
        raise DegenerateProblem("need at least two classes for a linear classifier")
    return classes


def full_data_linear(fp_train: FeaturePool, fp_test: FeaturePool) -> float:
    """Softmax regression on every train feature vector; test accuracy."""
    classes = linear_classes(fp_train, fp_test)
    W, b = fit_softmax_regression(fp_train.X, np.searchsorted(classes, fp_train.labels), len(classes))
    return float((_linear_predict(W, b, fp_test.X) == np.searchsorted(classes, fp_test.labels)).mean())


def ablation_normalization(pools, ks: tuple[int, ...], spec: EvalSpec) -> list[dict]:
    """Input-space evaluation under the three cumulative settings.

    ``pools`` maps each setting's ``(representation, normalize)`` to its
    FeaturePool of the evaluation split. Episodes depend only on the pool's
    labels, which every setting must share, so each K's episodes are drawn
    once and scored on all three feature matrices. Emits one row per
    (setting, K), setting-major.
    """
    fps = [pools[representation, normalize] for _, _, representation, normalize in ABLATION_SETTINGS]
    for (key, *_), fp in zip(ABLATION_SETTINGS, fps):
        if not np.array_equal(fp.labels, fps[0].labels):
            raise ValueError(f"ablation setting {key!r} does not share the first setting's labels")
    rows = {}
    for k in ks:
        k_spec = replace(spec, k_shot=k)
        episodes = draw_episodes(fps[0].labels, k_spec)
        for (key, label, representation, normalize), fp in zip(ABLATION_SETTINGS, fps):
            echo = {"encoder": "none", "ablation_setting": key}
            report = _score_episodes(None, proto_predict, fp, k_spec, episodes, echo)
            rows[key, k] = {
                "setting": key,
                "label": label,
                "representation": representation,
                "normalize": normalize,
                "K": k,
                "mean": report.mean_accuracy,
                "ci95": report.ci95_halfwidth,
            }
    return [rows[key, k] for key, *_ in ABLATION_SETTINGS for k in ks]


def shared_episodes(seeds, episodes: int) -> int:
    """How many of the ``len(seeds) * episodes`` episodes repeat one of another seed.

    Episode i of base seed s uses the literal seed ``s + i``, so seed s + 1's
    episode i is seed s's episode i + 1: seeds closer than ``episodes``
    share episodes.
    """
    ordered = sorted(seeds)
    return sum(max(0, episodes - (b - a)) for a, b in zip(ordered, ordered[1:]))


def multi_seed(run_fn, seeds: tuple[int, ...] = TopLevelConfig.seeds) -> dict:
    """Repeat a full evaluation per seed; report means and across-seed std."""
    per_seed = {}
    for seed in seeds:
        report = run_fn(seed)
        per_seed[seed] = report.mean_accuracy
    means = np.array([per_seed[s] for s in seeds], dtype=np.float64)
    return {
        "seeds": list(seeds),
        "per_seed_mean": {str(s): per_seed[s] for s in seeds},
        "across_seed_std": float(means.std(ddof=1)) if len(seeds) > 1 else 0.0,
    }


def write_csv_table(path, rows: list[dict], columns: list[str] | None = None) -> None:
    """Write ``rows`` under ``columns`` (``CSV_COLUMNS`` if None) as CSV, whole or not at all."""

    def write(tmp):
        with open(tmp, "w", newline="") as f:
            writer = csv.DictWriter(f, fieldnames=columns or CSV_COLUMNS, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(rows)

    write_atomic(path, write)
