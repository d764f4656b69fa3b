"""Tail selection, name validation and BENCHMARK.json limits.

Run with: python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import stats  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


class TestTail:
    def test_too_few_samples_has_no_tail(self):
        assert stats.tail(list(range(10))) is None
        assert stats.tail([]) is None

    def test_eleven_samples_gives_the_smallest(self):
        value, pct = stats.tail([5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0])
        assert value == 1.0
        assert pct == pytest.approx(100.0 / 11)

    def test_hundred_samples_gives_p90(self):
        values = list(range(100, 0, -1))  # unsorted input
        value, pct = stats.tail(values)
        assert (value, pct) == (90, 90.0)
        assert sum(v > value for v in values) == stats.TAIL_BEYOND

    def test_exactly_ten_samples_lie_beyond(self):
        for n in (11, 12, 37, 250):
            values = [float(i) for i in range(n)]
            value, _ = stats.tail(values)
            assert sum(v > value for v in values) == stats.TAIL_BEYOND


class TestNames:
    @pytest.mark.parametrize("name", ["setup_s", "layers.bilstm.fwd.s", "3x", "train-mlp",
                                      "a" * 64, "model.forward.self_s"])
    def test_valid(self, name):
        assert stats.check_metric_name(name) == name

    @pytest.mark.parametrize("name", ["", "_x", ".x", "-x", "a b", "a/b", "a" * 65, "é",
                                      "x:y", None])
    def test_invalid(self, name):
        with pytest.raises(ValueError):
            stats.check_metric_name(name)

    @pytest.mark.parametrize("unit", ["s", "ms", "1/s", "%", "count", "MB"])
    def test_valid_units(self, unit):
        assert stats.check_unit(unit) == unit

    @pytest.mark.parametrize("unit", ["", "a b", "x" * 17, "s*"])
    def test_invalid_units(self, unit):
        with pytest.raises(ValueError):
            stats.check_unit(unit)


class TestSpec:
    def test_exact_top_level_keys(self):
        assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                             "per_layer"}

    def test_workloads_match_the_code(self):
        assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
        for w in SPEC["workloads"]:
            assert set(w) == {"name", "why"}
            assert len(w["why"]) <= 200 and "\n" not in w["why"]

    def test_names_valid_and_unique(self):
        names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
                 for m in SPEC[group]]
        for name in names:
            stats.check_metric_name(name)
        assert len(names) == len(set(names))

    def test_metric_entries(self):
        for m in SPEC["end_to_end"]:
            assert set(m) == {"name", "unit", "better", "bound"}
            assert 0 < m["bound"] <= 0.25
        for m in SPEC["per_layer"]:
            assert set(m) == {"name", "unit", "better"}
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            stats.check_unit(m["unit"])
            assert m["better"] in ("higher", "lower")

    def test_setup_s_has_the_largest_bound(self):
        setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
        assert (setup["unit"], setup["better"]) == ("s", "lower")
        assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])

    def test_run_budget(self):
        assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
        assert SPEC["paths"] == ["perfbench"]
