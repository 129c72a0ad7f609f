"""Self-time arithmetic, span parentage and patching of the benchmark tracer."""

import sys
import threading
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

from probes import per_layer_metrics
from tracing import Span, Tracer, covered_length, self_times


def test_covered_length_merges_and_clips():
    assert covered_length(0, 10, []) == 0
    assert covered_length(0, 10, [(1, 3), (2, 5), (7, 8)]) == 5
    assert covered_length(2, 6, [(0, 3), (5, 9)]) == 2
    assert covered_length(0, 10, [(11, 12), (4, 4)]) == 0


def test_self_time_of_a_nested_tree():
    spans = [
        Span(0, None, "root", 0, 0.0, 10.0),
        Span(1, 0, "a", 0, 1.0, 4.0),
        Span(2, 1, "b", 0, 2.0, 3.0),
        Span(3, 0, "c", 0, 5.0, 6.0),
    ]
    assert self_times(spans) == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_time_with_overlapping_children_from_two_threads():
    # The protocol span on thread 0 waits while two pool threads run episodes.
    spans = [
        Span(0, None, "evaluation.protocol", 0, 0.0, 10.0),
        Span(1, 0, "episodes.sample_episode", 1, 1.0, 6.0),
        Span(2, 0, "episodes.sample_episode", 2, 4.0, 8.0),
        Span(3, 2, "fewshot.classify", 2, 5.0, 7.0),
        Span(4, 0, "fewshot.classify", 1, 9.0, 12.0),  # ends after its parent: clipped
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 7.0 - 1.0)
    assert own[1] == pytest.approx(5.0)
    assert own[2] == pytest.approx(2.0)
    assert own[4] == pytest.approx(3.0)


def test_pool_spans_take_the_pool_owner_as_parent_and_a_thread_id():
    tracer = Tracer("unused")
    barrier = threading.Barrier(2)

    def episode(i):
        barrier.wait(timeout=10)  # both workers are alive at once
        tracer.call("episode", lambda: i)

    outer = tracer.open("protocol")
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(episode, range(2)))
    tracer.close(outer)

    episodes = [s for s in tracer.spans if s.name == "episode"]
    assert [s.parent for s in episodes] == [outer.id, outer.id]
    assert outer.thread == 0
    assert sorted(s.thread for s in episodes) == [1, 2]
    assert all(s.end is not None for s in tracer.spans)


def test_same_name_nesting_folds_into_one_span_and_sums_attrs():
    tracer = Tracer("unused")
    outer = tracer.open("evaluation.protocol", {"pool_rows": 5})
    inner = tracer.open("evaluation.protocol", {"pool_rows": 7})
    tracer.close(inner)
    assert outer.end is None  # still open
    tracer.close(outer)
    assert len(tracer.spans) == 1
    assert tracer.spans[0].attrs == {"pool_rows": 12}


@pytest.fixture
def fake_package():
    a = types.ModuleType("fakepkg.a")
    exec("def work(x):\n    return x + 1\n", a.__dict__)
    b = types.ModuleType("fakepkg.b")
    b.work = a.work  # as `from .a import work` would bind it
    exec("def run(x):\n    return work(x)\n", b.__dict__)
    other = types.ModuleType("otherpkg")
    other.work = a.work
    names = {"fakepkg.a": a, "fakepkg.b": b, "otherpkg": other}
    sys.modules.update(names)
    yield a, b, other
    for name in names:
        del sys.modules[name]


def test_wrap_function_patches_every_binding_in_the_package(fake_package):
    a, b, other = fake_package
    original = a.work
    tracer = Tracer("fakepkg")
    assert tracer.wrap_function(a, "work", "fake.work", lambda args, kw: {"x": args[0]}) == 2
    assert b.run(1) == 2
    assert a.work(2) == 3
    assert other.work is original  # outside the package: left alone
    assert [(s.name, s.attrs) for s in tracer.spans] == [("fake.work", {"x": 1}), ("fake.work", {"x": 2})]
    tracer.restore()
    assert a.work is original and b.work is original


def test_wrap_method_patches_the_class_and_names_spans_per_call():
    class Layer:
        def forward(self, x, train):
            return x

    tracer = Tracer("unused")
    tracer.wrap_method(Layer, "forward", lambda args, kw: "train" if args[2] else "eval")
    layer = Layer()
    layer.forward(1, True)
    layer.forward(1, False)
    assert [s.name for s in tracer.spans] == ["train", "eval"]
    tracer.restore()
    layer.forward(1, True)
    assert len(tracer.spans) == 2


def test_per_layer_metrics_counts_rows_by_ancestor():
    spans = [
        Span(0, None, "cli", 0, 0.0, 4.0),
        Span(1, 0, "pipeline.train", 0, 0.5, 2.0),
        Span(2, 1, "nnet.encoder.forward_eval", 0, 1.0, 1.5, {"rows": 10}),
        Span(3, None, "cli", 0, 5.0, 9.0),
        Span(4, 3, "evaluation.protocol", 0, 5.0, 8.0, {"pool_rows": 20}),
        Span(5, 4, "nnet.encoder.forward_eval", 1, 6.0, 7.0, {"rows": 30}),
        Span(6, 3, "npyio.load_keypoints", 0, 8.0, 8.5, {"path": "a.npy"}),
        Span(7, 3, "npyio.load_keypoints", 0, 8.5, 9.0, {"path": "a.npy"}),
    ]
    m = per_layer_metrics(spans, traced_wall_s=10.0)
    assert m["nnet.encoder.eval_rows"] == 40
    assert m["pipeline.monitor_eval_rows"] == 10
    assert m["evaluation.embed_rows_per_pool_row"] == pytest.approx(1.5)
    assert m["npyio.decodes_per_file"] == pytest.approx(2.0)
    assert m["cli.calls"] == 2
    assert m["cli.self_s"] == pytest.approx(2.5)
    assert m["trace.coverage"] == pytest.approx((1.5 + 4.0) / 10.0)
    assert m["nnet.optim.tensors_per_step"] == 0.0
