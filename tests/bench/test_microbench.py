"""Tests for the synthetic bench inputs and the timed harness plumbing."""

import numpy as np
import pytest

from repro.bench.harness import RUN_TIMINGS, clear_run_timings, last_run_timings
from repro.bench.reporting import report
from repro.bench.synthetic import build_bench_table, build_bench_workload


@pytest.fixture(scope="module")
def tiny_table():
    return build_bench_table(800, seed=11)


@pytest.fixture(scope="module")
def tiny_workload():
    return build_bench_workload(16, n_amount_cuts=6)


class TestBenchInputs:
    def test_table_shape_and_nulls(self, tiny_table):
        assert len(tiny_table) == 800
        # NULLs present in both a categorical and a numeric column
        assert tiny_table.null_count("region") > 0
        assert tiny_table.null_count("amount") > 0

    def test_workload_supports_domain_analysis(self, tiny_workload):
        assert tiny_workload.size == 16
        assert tiny_workload.supports_domain_analysis

    def test_workload_deterministic(self):
        first = build_bench_workload(16, n_amount_cuts=6)
        second = build_bench_workload(16, n_amount_cuts=6)
        assert first.predicates == second.predicates


class TestReportingHelpers:
    def test_report_prints_summary(self, capsys):
        records = [
            {"group": "a", "value": 1.0},
            {"group": "a", "value": 3.0},
            {"group": "b", "value": 2.0},
        ]
        report("demo", records, ["group"], "value")
        out = capsys.readouterr().out
        assert "=== demo ===" in out
        assert "median" in out


class TestRunTimings:
    def test_timed_decorator_records_wall_clock(self):
        from repro.bench.harness import _timed

        clear_run_timings()

        @_timed("unit-test")
        def slow():
            return sum(range(1000))

        assert slow() == sum(range(1000))
        timings = last_run_timings()
        assert "unit-test" in timings
        assert timings["unit-test"] >= 0.0
        # last_run_timings returns a copy, not the live registry
        timings["unit-test"] = -1.0
        assert RUN_TIMINGS["unit-test"] >= 0.0
        clear_run_timings()

    def test_timings_empty_after_clear(self):
        clear_run_timings()
        assert last_run_timings() == {}


def test_numpy_masks_from_bench_workload_are_boolean(tiny_table, tiny_workload):
    membership = tiny_workload.evaluate(tiny_table)
    assert membership.dtype == np.bool_
    assert membership.shape == (len(tiny_table), tiny_workload.size)
