import math

import numpy as np
import pytest

from geomshot.dataio import eligible_classes
from geomshot.episodes import EpisodeSpec, sample_episode
from geomshot.errors import DegenerateProblem, InsufficientClasses
from geomshot.evaluation import (
    EvalReport,
    EvalSpec,
    ci95_halfwidth,
    episode_linear_baseline,
    error_analysis,
    evaluate,
    fit_softmax_regression,
    full_data_linear,
    input_space_baseline,
    multi_seed,
    write_csv_table,
)
from geomshot.features import FeaturePool
from geomshot.fewshot import classify, compute_prototypes
from geomshot.nnet import MLPEncoder
from test_pipeline import gaussian_pool, tiny_cfg, tiny_encoder_cfg


def noise_pool(n_classes=10, per_class=25, dim=12, seed=0):
    rng = np.random.default_rng(seed)
    rows, pool = [], {}
    for c in range(n_classes):
        idx = []
        for _ in range(per_class):
            rows.append(rng.normal(size=dim))
            idx.append(len(rows) - 1)
        pool[c] = idx
    return FeaturePool(np.vstack(rows), pool, [""] * len(rows), "angle", True)


class TestEvaluate:
    def test_chance_level_on_noise(self):
        report = input_space_baseline(noise_pool(), EvalSpec(5, 5, 15, 600, 42))
        assert abs(report.mean_accuracy - 0.20) <= 0.03

    def test_fixed_seed_bit_identical_json(self):
        fp = noise_pool()
        spec = EvalSpec(5, 5, 15, 50, 42)
        a = evaluate(None, fp, spec).to_json()
        b = evaluate(None, fp, spec).to_json()
        assert a == b

    def test_identity_encoder_equals_input_space_bitwise(self):
        fp = gaussian_pool(per_class=25)
        spec = EvalSpec(3, 2, 3, 40, 7)
        assert evaluate(None, fp, spec).to_json() == input_space_baseline(fp, spec).to_json()

    def test_one_shot_equals_nearest_support(self):
        fp = noise_pool(seed=3)
        spec = EvalSpec(5, 1, 5, 30, 11)
        report = evaluate(None, fp, spec)
        # oracle: 1-NN against the single support vector of each class
        for idx in range(30):
            ep = sample_episode(fp.pool, EpisodeSpec(5, 1, 5, 11, idx))
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
    pool = {c: fp.pool[c] for c in eligible_classes(fp.pool, spec.k_shot, spec.q_query)}
    accuracies, correct, total, confusion = [], {}, {}, {}
    for i in range(spec.episodes):
        ep = sample_episode(pool, EpisodeSpec(spec.n_way, spec.k_shot, spec.q_query, spec.base_seed, i))
        emb_s, emb_q = embed(fp.X[ep.support_items]), embed(fp.X[ep.query_items])
        pred = predict(emb_s, ep.support_labels, emb_q, spec.n_way)
        originals = ep.original_classes
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
        self.fp = noise_pool(dim=20, seed=8)
        self.fp.pool[4] = self.fp.pool[4][:6]  # one class too small to be eligible
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
        assert evaluate(self.encoder, self.fp, self.spec).to_json() == expected.to_json()

    def test_input_space(self):
        expected = reference_protocol(lambda x: x, self.proto, self.fp, self.spec, {"encoder": "none"})
        assert evaluate(None, self.fp, self.spec).to_json() == expected.to_json()

    def test_episode_linear(self):
        def linear(emb_s, labels_s, emb_q, n_way):
            W, b = fit_softmax_regression(emb_s, labels_s, n_way, iters=40)
            return (emb_q @ W + b).argmax(axis=1)

        spec = EvalSpec(5, 1, 4, 15, 3)
        echo = {"encoder": "mlp", "classifier": "episode_linear"}
        expected = reference_protocol(self.embed, linear, self.fp, spec, echo)
        report = episode_linear_baseline(self.encoder, self.fp, spec, iters=40)
        assert report.to_json() == expected.to_json()


class TestCI:
    def test_formula_matches_hand_computation(self):
        values = [0.8, 0.75, 0.9, 0.6, 0.85]
        n = len(values)
        mean = sum(values) / n
        sd = math.sqrt(sum((v - mean) ** 2 for v in values) / (n - 1))
        assert ci95_halfwidth(values) == pytest.approx(1.96 * sd / math.sqrt(n), abs=1e-12)


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
        slow = episode_linear_baseline(encoder, fp, spec, iters=50_000, lr=0.01)
        assert abs(fast.mean_accuracy - slow.mean_accuracy) <= 0.01

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


class TestErrorAnalysis:
    def test_perfect_classifier_has_no_confused_pairs(self):
        fp = gaussian_pool(per_class=25, sep=100.0, seed=10)
        report = evaluate(None, fp, EvalSpec(3, 2, 3, 30, 1))
        assert report.mean_accuracy == 1.0
        assert error_analysis(report)["top_confused"] == []

    def test_symmetric_confusion_reported_both_ways(self):
        from geomshot.evaluation import EvalReport

        report = EvalReport(
            episode_accuracies=[0.5],
            mean_accuracy=0.5,
            ci95_halfwidth=0.0,
            per_class_accuracy={0: 0.5, 1: 0.5},
            confusion={(0, 0): 10, (0, 1): 10, (1, 0): 10, (1, 1): 10},
        )
        analysis = error_analysis(report)
        assert [0, 1, 10] in analysis["top_confused"]
        assert [1, 0, 10] in analysis["top_confused"]
        assert len(analysis["top_confused"]) == 2

    def test_ranking_sorted_by_accuracy(self):
        from geomshot.evaluation import EvalReport

        report = EvalReport([], 0.0, 0.0, {3: 0.9, 1: 0.2, 2: 0.7}, {})
        ranking = error_analysis(report)["per_class_ranking"]
        assert ranking == [[1, 0.2], [2, 0.7], [3, 0.9]]


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
