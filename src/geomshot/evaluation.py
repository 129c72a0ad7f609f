"""Episode evaluation, baselines, ablation, multi-seed aggregation.

The protocol draws all of its seeded episodes first, embeds every row
they touch once (one eval-mode forward over the union of their support
and query rows), then scores the episodes serially, in index order, by
indexing into those embeddings. The input-space path scores on the
feature matrix itself. The per-episode softmax-regression baseline fits
all episodes' probes in one stacked solve over their support rows.
Report JSON is emitted with sorted keys and no timestamps, making
back-to-back runs byte-identical.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .dataio import eligible_pool
from .episodes import Episode, EpisodeSpec, sample_episode
from .errors import DegenerateProblem
from .features import FeaturePool
from .fewshot import classify, compute_prototypes
from .nnet import MLPEncoder

REPORT_SCHEMA_VERSION = 1
CSV_COLUMNS = ["dataset", "repr", "encoder", "mode", "K", "mean", "ci95"]

# Normalization-ablation settings: (key, label, representation, normalize).
ABLATION_SETTINGS = (
    ("none", "No normalisation", "raw", False),
    ("wrist_scale", "+ Wrist-centring & scale", "raw", True),
    ("angle", "+ Geometry-aware (angle)", "angle", True),
)


@dataclass
class EvalSpec:
    n_way: int = 5
    k_shot: int = 5
    q_query: int = 15
    episodes: int = 600
    base_seed: int = 42


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

    def to_json(self) -> str:
        return json.dumps(self.to_doc(), indent=2, sort_keys=True) + "\n"

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


def proto_predict(emb: np.ndarray, episodes: list[Episode]) -> list[np.ndarray]:
    """Nearest-prototype predictions for each episode's queries, from row embeddings."""
    preds = []
    for ep in episodes:
        protos = compute_prototypes(emb[ep.support_items], ep.support_labels, len(ep.class_map))
        preds.append(classify(emb[ep.query_items], protos))
    return preds


def episode_rows(episodes: list[Episode]) -> np.ndarray:
    """Ascending rows that any of the episodes uses as support or query."""
    return np.unique([row for ep in episodes for row in ep.support_items + ep.query_items])


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


def _run_protocol(
    encoder: MLPEncoder | None, predict, fp: FeaturePool, spec: EvalSpec, config_echo: dict
) -> EvalReport:
    """Score ``predict(emb, episodes)``, one relabelled prediction array per episode."""
    pool = eligible_pool(fp.pool, spec.k_shot, spec.q_query, spec.n_way)
    episodes = [
        sample_episode(pool, EpisodeSpec(spec.n_way, spec.k_shot, spec.q_query, spec.base_seed, i))
        for i in range(spec.episodes)
    ]
    emb = fp.X if encoder is None else embed_rows(encoder, fp.X, episode_rows(episodes))
    preds = predict(emb, episodes)

    accuracies = []
    class_correct: dict[int, int] = {}
    class_total: dict[int, int] = {}
    confusion: dict[tuple[int, int], int] = {}
    for ep, pred in zip(episodes, preds):
        accuracies.append(float((pred == ep.query_labels).mean()))
        originals = ep.original_classes
        for true_rel, pred_rel in zip(ep.query_labels, pred):
            t, p = originals[int(true_rel)], originals[int(pred_rel)]
            class_correct[t] = class_correct.get(t, 0) + int(t == p)
            class_total[t] = class_total.get(t, 0) + 1
            confusion[(t, p)] = confusion.get((t, p), 0) + 1
    per_class_acc = {c: class_correct[c] / t for c, t in sorted(class_total.items())}
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
    return _run_protocol(encoder, proto_predict, fp, spec, echo)


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
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    n, d = X.shape[-2:]
    W = np.zeros(X.shape[:-2] + (d, n_classes))
    b = np.zeros(X.shape[:-2] + (n_classes,))
    onehot = (y[..., None] == np.arange(n_classes)).astype(np.float64)
    Xt = X.swapaxes(-1, -2)
    for _ in range(iters):
        logits = X @ W + b[..., None, :]
        logits -= logits.max(axis=-1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=-1, keepdims=True)
        g = (p - onehot) / n
        W -= lr * (Xt @ g + l2 * W)
        b -= lr * g.sum(axis=-2)
    return W, b


def _linear_predict(W: np.ndarray, b: np.ndarray, X: np.ndarray) -> np.ndarray:
    return (X @ W + b).argmax(axis=1)


def episode_linear_baseline(
    encoder: MLPEncoder,
    fp: FeaturePool,
    spec: EvalSpec,
    config_echo: dict | None = None,
    iters: int = 500,
    lr: float = 0.1,
    l2: float = 1e-3,
) -> EvalReport:
    """Per-episode softmax regression fitted on the support embeddings.

    All episodes' probes are fitted in one stacked solve; each episode's
    queries are then scored with its own weights.
    """

    def predict(emb, episodes):
        X = np.stack([emb[ep.support_items] for ep in episodes])
        y = np.stack([ep.support_labels for ep in episodes])
        W, b = fit_softmax_regression(X, y, spec.n_way, iters=iters, lr=lr, l2=l2)
        return [_linear_predict(W[e], b[e], emb[ep.query_items]) for e, ep in enumerate(episodes)]

    echo = dict(config_echo or {})
    echo.setdefault("encoder", "mlp")
    echo.setdefault("classifier", "episode_linear")
    return _run_protocol(encoder, predict, fp, spec, echo)


def full_data_linear(fp_train: FeaturePool, fp_test: FeaturePool) -> float:
    """Softmax regression on every train feature vector; test accuracy."""
    classes = sorted(set(fp_train.pool) | set(fp_test.pool))
    if len(classes) < 2:
        raise DegenerateProblem("need at least two classes for a linear classifier")
    remap = {c: i for i, c in enumerate(classes)}

    def matrices(fp):
        rows, labels = [], []
        for c, idxs in sorted(fp.pool.items()):
            rows.append(fp.X[idxs])
            labels.extend([remap[c]] * len(idxs))
        return np.vstack(rows), np.array(labels)

    Xtr, ytr = matrices(fp_train)
    Xte, yte = matrices(fp_test)
    W, b = fit_softmax_regression(Xtr, ytr, len(classes))
    return float((_linear_predict(W, b, Xte) == yte).mean())


def ablation_normalization(
    build_pool,
    ks: tuple[int, ...] = (1, 3, 5),
    spec: EvalSpec | None = None,
) -> list[dict]:
    """Input-space evaluation under the three cumulative settings.

    ``build_pool(representation, normalize)`` must return a FeaturePool
    for the evaluation split. Emits one row per (setting, K).
    """
    base = spec or EvalSpec()
    rows = []
    for key, label, representation, normalize in ABLATION_SETTINGS:
        fp = build_pool(representation, normalize)
        for k in ks:
            k_spec = replace(base, k_shot=k)
            report = input_space_baseline(fp, k_spec, {"ablation_setting": key})
            rows.append(
                {
                    "setting": key,
                    "label": label,
                    "representation": representation,
                    "normalize": normalize,
                    "K": k,
                    "mean": report.mean_accuracy,
                    "ci95": report.ci95_halfwidth,
                }
            )
    return rows


def multi_seed(run_fn, seeds: tuple[int, ...] = (42, 1337, 2024)) -> dict:
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


def error_analysis(report: EvalReport) -> dict:
    """Per-class accuracy ranking (hardest first) and top confused pairs."""
    ranking = sorted(report.per_class_accuracy.items(), key=lambda kv: (kv[1], kv[0]))
    confused = [
        (t, p, c) for (t, p), c in report.confusion.items() if t != p
    ]
    confused.sort(key=lambda row: (-row[2], row[0], row[1]))
    return {
        "per_class_ranking": [[c, acc] for c, acc in ranking],
        "top_confused": [[t, p, c] for t, p, c in confused],
    }


def write_csv_table(path, rows: list[dict], columns: list[str] | None = None) -> None:
    columns = columns or CSV_COLUMNS
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
