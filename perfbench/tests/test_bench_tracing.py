"""Span arithmetic, recorder nesting and absent-target handling.

Run with: python3 -m pytest perfbench/tests -q
"""

import sys
import threading
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tracing  # noqa: E402


class TestCovered:
    def test_disjoint_and_overlapping(self):
        assert tracing.covered([(1, 2), (3, 5)], 0, 10) == 3
        assert tracing.covered([(1, 4), (2, 5), (4.5, 6)], 0, 10) == 5
        assert tracing.covered([], 0, 10) == 0

    def test_clipped_to_the_window(self):
        assert tracing.covered([(-5, 2), (8, 20)], 0, 10) == 4
        assert tracing.covered([(11, 12)], 0, 10) == 0

    def test_touching_intervals(self):
        assert tracing.covered([(1, 2), (2, 3)], 0, 10) == 2


class TestSpanTotals:
    def test_self_time_of_nested_spans(self):
        # root [0, 10] has children a [1, 3] and b [2, 5], which overlap
        # as spans on two worker threads do, and c [9, 12], which outlives
        # it; a has a grandchild g [1.5, 2.5].
        spans = [
            (1, None, "root", 0.0, 10.0),
            (2, 1, "a", 1.0, 3.0),
            (3, 1, "b", 2.0, 5.0),
            (4, 1, "c", 9.0, 12.0),
            (5, 2, "g", 1.5, 2.5),
        ]
        totals = tracing.span_totals(spans)
        assert totals["root"]["self"] == pytest.approx(10 - 4 - 1)
        assert totals["root"]["busy"] == pytest.approx(10)
        assert totals["a"]["self"] == pytest.approx(1.0)
        assert totals["b"]["self"] == pytest.approx(3.0)
        assert totals["g"]["self"] == pytest.approx(1.0)

    def test_calls_and_busy_sum_over_spans_of_one_name(self):
        spans = [(1, None, "f", 0.0, 1.0), (2, None, "f", 2.0, 2.5), (3, 2, "h", 2.1, 2.2)]
        totals = tracing.span_totals(spans)
        assert totals["f"]["calls"] == 2
        assert totals["f"]["busy"] == pytest.approx(1.5)
        assert totals["f"]["self"] == pytest.approx(1.4)


class TestRecorder:
    def test_nesting_sets_parents(self):
        rec = tracing.Recorder()
        with rec.span("outer") as outer:
            with rec.span("inner") as inner:
                pass
        parents = {span_id: parent for span_id, parent, *_ in rec.spans}
        assert parents[inner] == outer
        assert parents[outer] is None

    def test_explicit_parent_across_threads(self):
        rec = tracing.Recorder()
        with rec.span("map") as map_id:
            def work():
                with rec.span("item", parent=map_id):
                    with rec.span("leaf"):
                        pass
            threads = [threading.Thread(target=work) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
        by_id = {s[0]: s for s in rec.spans}
        items = [s for s in rec.spans if s[2] == "item"]
        leaves = [s for s in rec.spans if s[2] == "leaf"]
        assert [s[1] for s in items] == [map_id, map_id]
        assert all(by_id[leaf[1]][2] == "item" for leaf in leaves)

    def test_counts_accumulate(self):
        rec = tracing.Recorder()
        rec.count("x")
        rec.count("x", 2.5)
        assert rec.counts == {"x": 3.5}


class TestReplace:
    @pytest.fixture
    def fake_package(self, monkeypatch):
        base = types.ModuleType("fusenet.fakebase")
        base.helper = lambda v: v + 1
        user = types.ModuleType("fusenet.fakeuser")
        user.helper = base.helper  # as ``from .fakebase import helper`` leaves it
        monkeypatch.setitem(sys.modules, "fusenet.fakebase", base)
        monkeypatch.setitem(sys.modules, "fusenet.fakeuser", user)
        return base, user

    def test_replaces_names_imported_elsewhere_and_restores(self, fake_package):
        base, user = fake_package
        original = base.helper
        rec = tracing.Recorder()
        undo = tracing.replace_everywhere("fusenet.fakebase", "helper",
                                          tracing._span_wrapper(rec, "fake.helper"))
        assert user.helper is base.helper is not original
        assert user.helper(1) == 2
        assert [s[2] for s in rec.spans] == ["fake.helper"]
        tracing.restore(undo)
        assert user.helper is base.helper is original

    def test_missing_target_is_skipped(self, fake_package):
        wrap = tracing._span_wrapper(tracing.Recorder(), "x")
        assert tracing.replace_everywhere("fusenet.fakebase", "gone", wrap) is None
        assert tracing.replace_everywhere("fusenet.nosuchmodule", "f", wrap) is None
        assert tracing.replace_everywhere("fusenet.fakebase", "Cls.method", wrap) is None

    def test_first_compute_mark_removes_its_wrappers(self, monkeypatch):
        module = types.ModuleType("fusenet.model")
        module.forward = lambda: "out"
        monkeypatch.setitem(sys.modules, "fusenet.model", module)
        original = module.forward
        marks = {}
        tracing.mark_first_compute(marks)
        assert module.forward is not original
        assert module.forward() == "out"
        assert "first_compute" in marks
        assert module.forward is original


def test_metrics_of_absent_targets_are_left_out():
    dump = {
        "spans": [(1, None, "model.forward", 0.0, 2.0), (2, 1, "layers.dense.fwd", 0.5, 1.0)],
        "counts": {"layers.bilstm.live": 3, "layers.bilstm.timesteps": 4},
        "installed": ["fusenet.model.forward"],  # the dense layer target no longer exists
    }
    metrics = tracing.per_layer_metrics([dump, dump])
    assert metrics["model.forward.s"] == pytest.approx(2.0)
    assert metrics["model.forward.self_s"] == pytest.approx(1.5)
    assert metrics["model.forward.examples"] == 1
    assert metrics["layers.bilstm.live_share"] == pytest.approx(0.75)
    assert "layers.dense.fwd.s" not in metrics
    assert "training.train.s" not in metrics
