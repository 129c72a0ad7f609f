import errno
import json
import math
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from geomshot.episodes import EpisodeSpec, draw_episodes, sample_episode
from geomshot.errors import DegenerateProblem, InsufficientClasses
from geomshot.evaluation import (
    ABLATION_SETTINGS,
    PROTO_BLOCK,
    EvalReport,
    EvalSpec,
    ablation_normalization,
    ci95_halfwidth,
    episode_linear_baseline,
    episode_rows,
    evaluate,
    fit_softmax_regression,
    full_data_linear,
    input_space_baseline,
    multi_seed,
    proto_predict,
    shared_episodes,
    write_csv_table,
)
from geomshot.features import FeaturePool
from geomshot.fewshot import classify, compute_prototypes
from geomshot.nnet import MLPEncoder
from test_fewshot import difference_form_classify, mask_loop_prototypes
from test_pipeline import gaussian_pool, tiny_cfg, tiny_encoder_cfg


def noise_pool(n_classes=10, per_class=25, dim=12, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(size=dim) for _ in range(n_classes * per_class)])
    return FeaturePool(X, np.repeat(np.arange(n_classes), per_class), "angle", True)


def class_rows(labels):
    """Row lists per class, in row order: the pool ``sample_episode`` draws from."""
    return {c: np.flatnonzero(labels == c).tolist() for c in np.unique(labels).tolist()}


def without_rows(fp, rows):
    """``fp`` with the given rows removed."""
    keep = np.setdiff1d(np.arange(len(fp.labels)), rows)
    return FeaturePool(fp.X[keep], fp.labels[keep], fp.representation, fp.normalize)


class TestEvaluate:
    def test_chance_level_on_noise(self):
        report = input_space_baseline(noise_pool(), EvalSpec(5, 5, 15, 600, 42))
        assert abs(report.mean_accuracy - 0.20) <= 0.03

    def test_fixed_seed_bit_identical_json(self):
        fp = noise_pool()
        spec = EvalSpec(5, 5, 15, 50, 42)
        a = evaluate(None, fp, spec).to_doc()
        b = evaluate(None, fp, spec).to_doc()
        assert a == b

    def test_identity_encoder_equals_input_space_bitwise(self):
        fp = gaussian_pool(per_class=25)
        spec = EvalSpec(3, 2, 3, 40, 7)
        assert evaluate(None, fp, spec).to_doc() == input_space_baseline(fp, spec).to_doc()

    def test_one_shot_equals_nearest_support(self):
        fp = noise_pool(seed=3)
        spec = EvalSpec(5, 1, 5, 30, 11)
        report = evaluate(None, fp, spec)
        # oracle: 1-NN against the single support vector of each class
        for idx in range(30):
            ep = sample_episode(class_rows(fp.labels), EpisodeSpec(5, 1, 5, 11, idx))
            support = fp.X[ep.support_items]
            correct = 0
            for item, label in zip(ep.query_items, ep.query_labels):
                d = ((fp.X[item] - support) ** 2).sum(axis=1)
                correct += int(ep.support_labels[d.argmin()] == label)
            assert report.episode_accuracies[idx] == pytest.approx(correct / len(ep.query_items))

    def test_insufficient_classes(self):
        with pytest.raises(InsufficientClasses):
            evaluate(None, noise_pool(n_classes=3), EvalSpec(5, 5, 15, 10, 0))

    def test_confusion_consistency(self):
        fp = noise_pool(seed=5)
        spec = EvalSpec(5, 3, 7, 60, 13)
        report = evaluate(None, fp, spec)
        total_queries = spec.episodes * spec.n_way * spec.q_query
        assert sum(report.confusion.values()) == total_queries
        # row sums equal per-class query counts
        for cls in report.per_class_accuracy:
            row = sum(c for (t, _), c in report.confusion.items() if t == cls)
            diag = report.confusion.get((cls, cls), 0)
            assert report.per_class_accuracy[cls] == pytest.approx(diag / row)
        trace = sum(c for (t, p), c in report.confusion.items() if t == p)
        assert report.mean_accuracy == pytest.approx(trace / total_queries)

    def test_aggregation_permutation_invariant(self):
        fp = noise_pool(seed=6)
        report = evaluate(None, fp, EvalSpec(5, 2, 4, 40, 3))
        shuffled = list(report.episode_accuracies)
        np.random.default_rng(0).shuffle(shuffled)
        assert float(np.mean(shuffled)) == pytest.approx(report.mean_accuracy)
        assert ci95_halfwidth(shuffled) == pytest.approx(report.ci95_halfwidth)


def reference_protocol(embed, predict, fp, spec, echo):
    """Per-episode reference: re-embed each episode's support and query rows."""
    rows = class_rows(fp.labels)
    pool = {c: rows[c] for c in np.flatnonzero(np.bincount(fp.labels) >= spec.k_shot + spec.q_query).tolist()}
    accuracies, correct, total, confusion = [], {}, {}, {}
    for i in range(spec.episodes):
        ep = sample_episode(pool, EpisodeSpec(spec.n_way, spec.k_shot, spec.q_query, spec.base_seed, i))
        emb_s, emb_q = embed(fp.X[ep.support_items]), embed(fp.X[ep.query_items])
        pred = predict(emb_s, ep.support_labels, emb_q, spec.n_way)
        originals = list(ep.class_map)
        for true_rel, pred_rel in zip(ep.query_labels, pred):
            t, p = originals[int(true_rel)], originals[int(pred_rel)]
            correct[t] = correct.get(t, 0) + int(t == p)
            total[t] = total.get(t, 0) + 1
            confusion[(t, p)] = confusion.get((t, p), 0) + 1
        accuracies.append(float((pred == ep.query_labels).mean()))
    config = {"n_way": spec.n_way, "k_shot": spec.k_shot, "q_query": spec.q_query,
              "episodes": spec.episodes, "base_seed": spec.base_seed,
              "representation": fp.representation, "normalize": fp.normalize, **echo}
    per_class = {c: correct[c] / n for c, n in total.items()}
    return EvalReport(accuracies, float(np.mean(accuracies)), ci95_halfwidth(accuracies),
                      per_class, confusion, config)


class TestEmbedOnceMatchesPerEpisodeEmbedding:
    """Embedding each touched row once gives the per-episode loop's report, byte for byte."""

    def setup_method(self):
        fp = noise_pool(dim=20, seed=8)
        self.fp = without_rows(fp, np.flatnonzero(fp.labels == 4)[6:])  # one class too small to be eligible
        self.encoder = MLPEncoder(tiny_encoder_cfg(), seed=5)
        x = np.random.default_rng(9).normal(size=(32, 20))
        self.encoder.forward(x, train=True, rng=np.random.default_rng(10))
        self.spec = EvalSpec(5, 3, 5, 60, 17)

    def embed(self, x):
        return self.encoder.forward(x, train=False)

    def proto(self, emb_s, labels_s, emb_q, n_way):
        return classify(emb_q, compute_prototypes(emb_s, labels_s, n_way))

    def test_encoder(self):
        expected = reference_protocol(self.embed, self.proto, self.fp, self.spec, {"encoder": "mlp"})
        assert evaluate(self.encoder, self.fp, self.spec).to_doc() == expected.to_doc()

    def test_input_space(self):
        expected = reference_protocol(lambda x: x, self.proto, self.fp, self.spec, {"encoder": "none"})
        assert evaluate(None, self.fp, self.spec).to_doc() == expected.to_doc()

    def test_episode_linear(self):
        def linear(emb_s, labels_s, emb_q, n_way):
            W, b = fit_softmax_regression(emb_s, labels_s, n_way)
            return (emb_q @ W + b).argmax(axis=1)

        spec = EvalSpec(5, 1, 4, 15, 3)
        echo = {"encoder": "mlp", "classifier": "episode_linear"}
        expected = reference_protocol(self.embed, linear, self.fp, spec, echo)
        report = episode_linear_baseline(self.encoder, self.fp, spec)
        assert report.to_doc() == expected.to_doc()


# The (representation, normalize) key of each ablation setting's pool.
ABLATION_POOLS = [(representation, normalize) for _, _, representation, normalize in ABLATION_SETTINGS]


def reference_ablation(pools, ks, spec):
    """The per-setting loop: every setting draws its own episodes for every K."""
    rows = []
    for key, label, representation, normalize in ABLATION_SETTINGS:
        fp = pools[representation, normalize]
        for k in ks:
            report = input_space_baseline(fp, replace(spec, k_shot=k), {"ablation_setting": key})
            rows.append({"setting": key, "label": label, "representation": representation,
                         "normalize": normalize, "K": k, "mean": report.mean_accuracy,
                         "ci95": report.ci95_halfwidth})
    return rows


class TestAblationDrawsOncePerK:
    """Sharing each K's episodes across the settings gives the per-setting loop's rows."""

    def report_bytes(self, rows):
        return json.dumps({"schema_version": 1, "dataset": "d", "rows": rows}, indent=2, sort_keys=True)

    def test_rows_byte_identical_on_synth_corpus(self, small_corpus):
        pools = {setting: TestOnSynthCorpus().make_pool(small_corpus, *setting) for setting in ABLATION_POOLS}
        spec = EvalSpec(3, 5, 4, 40, 42)
        ks = (1, 3, 5)
        expected = self.report_bytes(reference_ablation(pools, ks, spec))
        assert self.report_bytes(ablation_normalization(pools, ks, spec)) == expected

    def test_rows_byte_identical_with_an_ineligible_class(self):
        base = noise_pool(n_classes=6, per_class=12, dim=9, seed=4)
        base = without_rows(base, np.flatnonzero(base.labels == 2)[5:])  # eligible at K=1 only (Q=4)

        pools = {}
        for representation, normalize in ABLATION_POOLS:
            shift = {"raw": 0.0, "angle": 1.0}[representation] + (0.5 if normalize else 0.0)
            X = np.sin(base.X * (1.0 + shift))
            pools[representation, normalize] = FeaturePool(X, base.labels.copy(), representation, normalize)

        spec = EvalSpec(4, 1, 4, 30, 9)
        expected = self.report_bytes(reference_ablation(pools, (1, 2, 7), spec))
        assert self.report_bytes(ablation_normalization(pools, (1, 2, 7), spec)) == expected

    def test_settings_with_different_pool_indices_are_refused(self):
        fp = noise_pool(seed=1)
        pools = {setting: without_rows(fp, [0]) if setting[0] == "angle" else fp for setting in ABLATION_POOLS}
        with pytest.raises(ValueError, match="'angle'"):
            ablation_normalization(pools, (1,), EvalSpec(5, 1, 4, 5, 0))


@pytest.mark.parametrize("seed", [-5, 1.5, "7", True])
def test_eval_spec_rejects_a_seed_that_is_not_a_non_negative_integer(seed):
    assert EvalSpec(5, 5, 15, 10, 0).base_seed == 0
    with pytest.raises(ValueError, match="base_seed"):
        EvalSpec(5, 5, 15, 10, seed)


def test_blocked_scoring_equals_per_episode_scoring():
    fp = noise_pool(dim=20, seed=4)
    count = 2 * PROTO_BLOCK + 3  # the last block is partial
    pool = class_rows(fp.labels)
    episodes = sample_episode(pool, EpisodeSpec(5, 3, 4, 9, 0), count=count)
    pred = proto_predict(fp.X, episodes)
    assert pred.shape == (count, 5 * 4)
    for e in range(count):
        ep = sample_episode(pool, EpisodeSpec(5, 3, 4, 9, e))
        protos = mask_loop_prototypes(fp.X[ep.support_items], ep.support_labels, 5)
        assert np.array_equal(pred[e], difference_form_classify(fp.X[ep.query_items], protos))


@pytest.mark.parametrize("seed", range(6))
def test_episode_rows_are_the_sorted_distinct_rows(seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 8, size=int(rng.integers(60, 200)))
    pool = {c: rows for c, rows in class_rows(labels).items() if len(rows) >= 4}
    spec = EpisodeSpec(min(len(pool), 3), 2, 2, seed, 0)
    episodes = sample_episode(pool, spec, count=int(rng.integers(1, 12)))
    used = np.concatenate([episodes.support.ravel(), episodes.query.ravel()])
    assert np.array_equal(episode_rows(episodes), np.unique(used))


def test_encoder_evaluation_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on first use: about 16 ms and 1-2 MB in every process
    script = """
import sys
import numpy as np
from geomshot.evaluation import EvalSpec, evaluate
from geomshot.features import FeaturePool
from geomshot.nnet import EncoderConfig, MLPEncoder
X = np.random.default_rng(0).normal(size=(40, 6))
fp = FeaturePool(X, np.repeat(np.arange(4), 10), "angle", True)
evaluate(MLPEncoder(EncoderConfig(input_dim=6, hidden_dim=8, embed_dim=4), seed=0), fp, EvalSpec(3, 2, 3, 20, 0))
print("numpy.ma" in sys.modules)
"""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r})\n{script}"],
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_eval_spec_needs_two_ways():
    assert EvalSpec(2, 1, 1, 1, 0).n_way == 2
    with pytest.raises(ValueError, match=r"eval\.n_way must be an integer >= 2, got 1"):
        EvalSpec(1, 5, 15, 10, 0)


@pytest.mark.parametrize(
    "seeds, episodes",
    [((3, 4, 5), 100), ((42, 1337, 2024), 600), ((5, 3), 10), ((0, 10, 20), 10), ((7,), 50), ((0, 2, 3, 50), 6)],
)
def test_shared_episodes_counts_repeated_literal_seeds(seeds, episodes):
    # oracle: episode i of seed s is drawn with the literal seed s + i
    distinct = len({s + i for s in seeds for i in range(episodes)})
    assert shared_episodes(seeds, episodes) == len(seeds) * episodes - distinct
    if seeds == (3, 4, 5):
        assert distinct == 102


class TestCI:
    def test_formula_matches_hand_computation(self):
        values = [0.8, 0.75, 0.9, 0.6, 0.85]
        n = len(values)
        mean = sum(values) / n
        sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
        assert ci95_halfwidth(values) == pytest.approx(1.96 * sd / math.sqrt(n), abs=1e-12)


def reference_fit(X, y, n_classes, iters=500, lr=0.1, l2=1e-3):
    """Reference: the primal descent on W, allocating fresh arrays every iteration."""
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


def random_episodes(seed, episodes, n_way, k, dim, q=6):
    """Support and query rows of episodes whose classes are noisy clusters."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(scale=2.0, size=(episodes, n_way, dim))
    y = np.stack([rng.permutation(np.repeat(np.arange(n_way), k)) for _ in range(episodes)])
    yq = np.tile(np.arange(n_way), (episodes, q))
    take = lambda labels: np.take_along_axis(centers, labels[..., None], axis=1)
    X = take(y) + rng.normal(size=y.shape + (dim,))
    Xq = take(yq) + rng.normal(size=yq.shape + (dim,))
    return X, y, Xq


class TestSoftmaxRegression:
    def test_separable_support_fits_perfectly(self):
        fp = gaussian_pool(n_classes=3, per_class=5, sep=40.0, seed=1)
        X, y = fp.X, np.repeat(np.arange(3), 5)
        W, b = fit_softmax_regression(X, y, 3)
        assert np.array_equal((X @ W + b).argmax(axis=1), y)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 8))
        y = rng.integers(0, 3, 30)
        W1, b1 = fit_softmax_regression(X, y, 3)
        W2, b2 = fit_softmax_regression(X, y, 3)
        assert np.array_equal(W1, W2) and np.array_equal(b1, b2)

    def test_stacked_fit_equals_separate_fits_bitwise(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(6, 15, 8))
        y = rng.integers(0, 5, size=(6, 15))
        W, b = fit_softmax_regression(X, y, 5, iters=60)
        assert W.shape == (6, 8, 5) and b.shape == (6, 5)
        for e in range(6):
            W_e, b_e = fit_softmax_regression(X[e], y[e], 5, iters=60)
            assert np.array_equal(W[e], W_e) and np.array_equal(b[e], b_e)

    def test_stacked_dual_fit_equals_separate_fits_bitwise(self):
        X, y, _ = random_episodes(3, 6, 5, 1, 16)
        W, b = fit_softmax_regression(X, y, 5, iters=60)
        assert W.shape == (6, 16, 5) and b.shape == (6, 5)
        for e in range(6):
            W_e, b_e = fit_softmax_regression(X[e], y[e], 5, iters=60)
            assert np.array_equal(W[e], W_e) and np.array_equal(b[e], b_e)

    @pytest.mark.parametrize("shape", [(300, 83), (60, 20), (20, 20), (6, 15, 8)])
    def test_primal_form_equals_reference_bitwise(self, shape):
        # n >= d: W is updated directly, with the reference's operations in its order.
        rng = np.random.default_rng(sum(shape))
        X = rng.normal(size=shape)
        y = rng.integers(0, 12, size=shape[:-1])
        W, b = fit_softmax_regression(X, y, 12)
        W_ref, b_ref = reference_fit(X, y, 12)
        assert np.array_equal(W, W_ref) and np.array_equal(b, b_ref)

    @pytest.mark.parametrize("n_way, k, dim", [(5, 5, 128), (5, 1, 128), (3, 2, 7), (4, 4, 17)])
    def test_dual_form_matches_reference(self, n_way, k, dim):
        # n < d: descent on A with W = X^T A; equal to the reference up to rounding.
        X, y, Xq = random_episodes(n_way * k + dim, 30, n_way, k, dim)
        W, b = fit_softmax_regression(X, y, n_way)
        W_ref, b_ref = reference_fit(X, y, n_way)
        assert np.abs(W - W_ref).max() <= 1e-12 * np.abs(W_ref).max()
        assert np.abs(b - b_ref).max() <= 1e-12 * np.abs(b_ref).max()
        pred = (Xq @ W + b[:, None, :]).argmax(axis=-1)
        assert np.array_equal(pred, (Xq @ W_ref + b_ref[:, None, :]).argmax(axis=-1))


class TestEpisodeLinear:
    def test_matches_long_run_solver_within_one_point(self):
        # oracle: the same objective solved much longer at a small step size
        fp = gaussian_pool(n_classes=5, per_class=26, dim=16, sep=3.0, seed=4)
        from geomshot.pipeline import train_encoder

        trained = train_encoder(fp, tiny_cfg(n_way=3, max_epochs=2), tiny_encoder_cfg(16))
        from geomshot.nnet import MLPEncoder

        encoder = MLPEncoder(trained.encoder_config, seed=0)
        encoder.set_state(trained.state)
        spec = EvalSpec(3, 5, 15, 10, 21)
        fast = episode_linear_baseline(encoder, fp, spec)
        episodes = draw_episodes(fp.labels, spec, spec.base_seed, spec.episodes)
        emb = encoder.forward(fp.X, train=False)
        y = np.broadcast_to(episodes.support_labels, episodes.support.shape)
        W, b = fit_softmax_regression(emb[episodes.support], y, spec.n_way, iters=50_000, lr=0.01)
        slow = (emb[episodes.query] @ W + b[:, None, :]).argmax(axis=-1) == episodes.query_labels
        assert abs(fast.mean_accuracy - slow.mean(axis=1).mean()) <= 0.01

    def test_one_shot_classifies_support_points(self):
        fp = gaussian_pool(n_classes=4, per_class=21, sep=50.0, seed=5)
        from geomshot.nnet import MLPEncoder

        encoder = MLPEncoder(tiny_encoder_cfg(), seed=3)
        report = episode_linear_baseline(encoder, fp, EvalSpec(3, 1, 2, 10, 2))
        assert report.config["classifier"] == "episode_linear"


class TestFullDataLinear:
    def test_separable_corpus_high_accuracy(self):
        train = gaussian_pool(n_classes=5, per_class=40, sep=30.0, seed=6)
        test = gaussian_pool(n_classes=5, per_class=15, sep=30.0, seed=6)  # same centers
        assert full_data_linear(train, test) >= 0.99

    def test_single_class_rejected(self):
        fp = gaussian_pool(n_classes=1, per_class=10)
        with pytest.raises(DegenerateProblem):
            full_data_linear(fp, fp)

    def test_deterministic(self):
        train = gaussian_pool(seed=7)
        test = gaussian_pool(seed=8)
        assert full_data_linear(train, test) == full_data_linear(train, test)


class TestMultiSeed:
    def test_per_seed_reproducible_and_std_formula(self):
        fp = noise_pool(seed=9)

        def run(seed):
            return evaluate(None, fp, EvalSpec(5, 2, 5, 30, seed))

        agg1 = multi_seed(run, (42, 1337, 2024))
        agg2 = multi_seed(run, (42, 1337, 2024))
        assert agg1 == agg2
        means = list(agg1["per_seed_mean"].values())
        mean = sum(means) / 3
        expected = math.sqrt(sum((m - mean) ** 2 for m in means) / 2)
        assert agg1["across_seed_std"] == pytest.approx(expected, abs=1e-12)


class TestOnSynthCorpus:
    def make_pool(self, corpus, representation, normalize):
        from geomshot.dataio import load_split, split_pool
        from geomshot.features import build_feature_pool

        catalog = corpus["catalog"]
        split = load_split(corpus["split_path"], catalog)
        return build_feature_pool(
            split_pool(catalog, split, "test"), catalog.root, representation, normalize
        )

    def test_angle_rows_identical_with_and_without_normalization(self, small_corpus):
        # the angle representation ignores the normalization switch entirely
        spec = EvalSpec(3, 3, 5, 40, 42)
        with_norm = input_space_baseline(self.make_pool(small_corpus, "angle", True), spec)
        without = input_space_baseline(self.make_pool(small_corpus, "angle", False), spec)
        assert with_norm.episode_accuracies == without.episode_accuracies
        assert with_norm.mean_accuracy == without.mean_accuracy

    def test_multiseed_sigma_below_one_point(self, small_corpus):
        fp = self.make_pool(small_corpus, "angle", True)

        def run(seed):
            return evaluate(None, fp, EvalSpec(3, 3, 5, 100, seed))

        aggregate = multi_seed(run, (42, 1337, 2024))
        assert aggregate["across_seed_std"] < 0.01

def test_one_shot_linear_classifies_support_points():
    # K=1 with distinct embeddings: the fitted model keeps the support
    # points on the correct side
    rng = np.random.default_rng(20)
    support = rng.normal(scale=5.0, size=(4, 8))
    labels = np.arange(4)
    W, b = fit_softmax_regression(support, labels, 4)
    assert np.array_equal((support @ W + b).argmax(axis=1), labels)


def test_csv_table_columns(tmp_path):
    path = tmp_path / "t.csv"
    write_csv_table(path, [{"dataset": "d", "repr": "angle", "encoder": "none",
                            "mode": "within", "K": 5, "mean": 0.9, "ci95": 0.01}])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "dataset,repr,encoder,mode,K,mean,ci95"
    assert lines[1].startswith("d,angle,none,within,5,0.9")


def test_a_failed_csv_write_leaves_the_old_table_whole(tmp_path):
    path = tmp_path / "tables" / "t.csv"  # a missing parent is made
    row = {"dataset": "d", "repr": "angle", "encoder": "none", "mode": "within", "K": 5, "mean": 0.9, "ci95": 0.01}
    write_csv_table(path, [row])
    old = path.read_bytes()

    def rows_then_full_disk():
        yield row
        raise OSError(errno.ENOSPC, "No space left on device")

    with pytest.raises(OSError, match="No space left on device"):
        write_csv_table(path, rows_then_full_disk())
    assert path.read_bytes() == old
    assert list(path.parent.glob("*.tmp")) == []
