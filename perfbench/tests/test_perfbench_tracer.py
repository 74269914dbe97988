import pytest

import layers
import tracer
from heartbn import evaluation, inference, learn
from heartbn.dataset import DataTable
from heartbn.core import Variable


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_on_nested_spans():
    clock = FakeClock()
    t = tracer.Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        wrapped_leaf()
        clock.now += 0.5
        wrapped_leaf()

    def outer():
        clock.now += 3.0
        wrapped_middle()

    wrapped_leaf = t.wrap("m.leaf", leaf)
    wrapped_middle = t.wrap("m.middle", middle)
    t.wrap("m.outer", outer)()

    summary = tracer.summarize(t.spans)
    assert summary["m.outer"]["total_s"] == pytest.approx(7.5)
    assert summary["m.outer"]["self_s"] == pytest.approx(3.0)
    assert summary["m.middle"]["self_s"] == pytest.approx(2.5)
    assert summary["m.leaf"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0, "errors": {}}
    own = tracer.self_times(t.spans)
    assert sum(own.values()) == pytest.approx(7.5)  # self times partition the root span
    assert tracer.under(t.spans, "m.leaf", "m.outer") == 2
    assert tracer.under(t.spans, "m.middle", "m.leaf") == 0


def test_errors_are_recorded_and_reraised():
    t = tracer.Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        t.wrap("m.boom", boom)()
    assert tracer.summarize(t.spans)["m.boom"]["errors"] == {"KeyError": 1}
    assert t._stack == []


def test_install_wraps_every_binding_and_uninstall_restores():
    original_classify = inference.classify
    original_count = learn.count_table
    t = tracer.Tracer(notes=layers.NOTES)
    names = t.install()
    try:
        assert "inference.classify" in names and "learn.count_table" in names
        assert evaluation.classify is inference.classify is not original_classify
        assert learn.count_table is not original_count
        schema = (Variable("a", ("0", "1")), Variable("b", ("0", "1")))
        data = DataTable(schema, [[0, 1], [1, 1], [1, 0], [0, 0]])
        learn.hill_climb(data)  # calls count_table through learn's own global
    finally:
        t.uninstall()
    assert inference.classify is original_classify and evaluation.classify is original_classify
    assert learn.count_table is original_count
    summary = tracer.summarize(t.take())
    assert summary["learn.count_table"]["calls"] >= 1
    assert tracer.summarize(t.spans) == {}


def test_removed_function_is_reported_absent_not_fatal():
    traced = [name for _, _, _, fns in layers.SPAN_METRICS + layers.SETUP_METRICS for name in fns]
    traced = [n for n in traced if n != "learn.ci_test"]
    missing = layers.absent(traced)
    assert "learn.ci_test.calls" in missing and "learn.ci_test.self_s" in missing
    assert "learn.learn_skeleton.tests_per_removal" in missing
    assert "learn.count_table.calls" not in missing
    assert layers.span_metrics([])["learn.ci_test.calls"] == 0


def test_ratio_metrics_from_synthetic_spans():
    S = tracer.Span
    spans = [
        S(1, 0, "learn.family_score", 0.1, 0.2),
        S(2, 0, "learn.family_score", 0.2, 0.3),
        S(3, None, "learn.family_score", 0.4, 0.5),  # outside any hill_climb
        S(0, None, "learn.hill_climb", 0.0, 0.35, note=4),
        S(5, 4, "learn.ci_test", 1.1, 1.2),
        S(4, None, "learn.learn_skeleton", 1.0, 1.3, note=1),
        S(6, None, "inference.posterior_ve", 2.0, 2.1, error="ZeroEvidenceError"),
    ]
    out = layers.ratio_metrics(spans)
    assert out["learn.hill_climb.scores_per_edge"] == 0.5
    assert out["learn.learn_skeleton.tests_per_removal"] == 1.0
    assert out["inference.zero_evidence"] == 1
    acc = layers.accounting(spans, 3.0)
    assert acc["trace.span_self_s"] + acc["trace.harness_s"] == pytest.approx(3.0)
