"""Tests for the three query types."""

import threading

import numpy as np
import pytest

from repro.core.exceptions import QueryError
from repro.queries.builders import histogram_workload, point_workload, prefix_workload
from repro.queries.query import (
    IcebergCountingQuery,
    QueryKind,
    TopKCountingQuery,
    WorkloadCountingQuery,
)
from repro.queries.workload import Workload


class TestWorkloadCountingQuery:
    def test_kind_and_size(self):
        query = WorkloadCountingQuery(point_workload("state", ["A", "B"]))
        assert query.kind is QueryKind.WCQ
        assert query.workload_size == 2

    def test_requires_workload(self):
        with pytest.raises(QueryError):
            WorkloadCountingQuery("not a workload")  # type: ignore[arg-type]

    def test_true_answer(self, toy_table):
        query = WorkloadCountingQuery(point_workload("state", ["A", "B", "C"]))
        assert list(query.true_answer(toy_table)) == [3, 4, 5]

    def test_true_counts_cached_per_table(self, toy_table):
        query = WorkloadCountingQuery(point_workload("state", ["A", "B", "C"]))
        first = query.true_counts(toy_table)
        second = query.true_counts(toy_table)
        assert first is second

    def test_sensitivity_uses_schema(self, toy_table, toy_schema):
        query = WorkloadCountingQuery(prefix_workload("age", [20, 40, 60]))
        assert query.sensitivity(toy_schema) == 3.0

    def test_workload_matrix_cached(self, toy_schema):
        query = WorkloadCountingQuery(histogram_workload("age", start=0, stop=100, bins=4))
        assert query.workload_matrix(toy_schema) is query.workload_matrix(toy_schema)

    def test_bin_names(self):
        query = WorkloadCountingQuery(point_workload("state", ["A", "B"]))
        assert query.bin_names() == ("state = A", "state = B")


class TestIcebergCountingQuery:
    def test_threshold_validation(self):
        with pytest.raises(QueryError):
            IcebergCountingQuery(point_workload("state", ["A"]), threshold=float("inf"))

    def test_true_answer(self, toy_table):
        query = IcebergCountingQuery(point_workload("state", ["A", "B", "C"]), threshold=3.5)
        assert query.true_answer(toy_table) == ["state = B", "state = C"]

    def test_strictly_greater(self, toy_table):
        query = IcebergCountingQuery(point_workload("state", ["A", "B", "C"]), threshold=4)
        assert query.true_answer(toy_table) == ["state = C"]

    def test_select_by_counts(self):
        query = IcebergCountingQuery(point_workload("state", ["A", "B", "C"]), threshold=10)
        assert query.select_by_counts([5, 15, 25]) == ["state = B", "state = C"]

    def test_kind(self):
        query = IcebergCountingQuery(point_workload("state", ["A"]), threshold=1)
        assert query.kind is QueryKind.ICQ


class TestTopKCountingQuery:
    def test_k_validation(self):
        workload = point_workload("state", ["A", "B"])
        with pytest.raises(QueryError):
            TopKCountingQuery(workload, k=0)
        with pytest.raises(QueryError):
            TopKCountingQuery(workload, k=3)
        with pytest.raises(QueryError):
            TopKCountingQuery(workload, k=1.5)  # type: ignore[arg-type]

    def test_true_answer_order(self, toy_table):
        query = TopKCountingQuery(point_workload("state", ["A", "B", "C"]), k=2)
        assert query.true_answer(toy_table) == ["state = C", "state = B"]

    def test_select_by_counts_requires_full_vector(self):
        query = TopKCountingQuery(point_workload("state", ["A", "B", "C"]), k=1)
        with pytest.raises(QueryError):
            query.select_by_counts([1.0, 2.0])

    def test_kth_largest(self, toy_table):
        query = TopKCountingQuery(point_workload("state", ["A", "B", "C"]), k=2)
        assert query.kth_largest_count(toy_table) == 4.0

    def test_stable_tie_breaking(self):
        query = TopKCountingQuery(point_workload("state", ["A", "B", "C"]), k=2)
        assert query.select_by_counts(np.array([5.0, 5.0, 1.0])) == ["state = A", "state = B"]

    def test_kind(self):
        query = TopKCountingQuery(point_workload("state", ["A", "B"]), k=1)
        assert query.kind is QueryKind.TCQ


class TestSensitivityOverrides:
    def test_explicit_sensitivity_respected(self, toy_schema):
        workload = Workload(
            [point_workload("state", ["A"]).predicates[0]]
        )
        query = WorkloadCountingQuery(workload, sensitivity=7.0)
        assert query.sensitivity(toy_schema) == 7.0

    def test_disjoint_flag(self, toy_schema):
        query = WorkloadCountingQuery(
            prefix_workload("age", [10, 20, 30]), disjoint=True
        )
        assert query.sensitivity(toy_schema) == 1.0


class TestPerQueryMatrixMemo:
    def test_interleaved_versions_never_tear_the_memo(self):
        """Two threads sharing one query at two table versions: whatever the
        interleaving, a later request at v1 gets the matrix built for v1.

        Thread A (at v1) is paused right after its first write to the
        per-query memo; thread B (at v2) runs to completion; then A resumes.
        """
        from tests.queries.test_staleness import (
            extra_rows,
            make_schema,
            make_table,
            make_workload,
        )

        paused = threading.Event()
        resume = threading.Event()

        class PausingQuery(WorkloadCountingQuery):
            def __setattr__(self, name, value):
                super().__setattr__(name, value)
                if (
                    name.startswith("_matrix")
                    and threading.current_thread().name == "A"
                    and not paused.is_set()
                ):
                    paused.set()
                    resume.wait(timeout=10)

        schema = make_schema()
        table = make_table(schema)
        v1 = table.version_token
        table.append_rows(extra_rows())
        v2 = table.version_token
        query = PausingQuery(make_workload(), name="torn")

        built = {}
        a = threading.Thread(
            target=lambda: built.update(v1=query.workload_matrix(schema, v1)),
            name="A",
        )
        a.start()
        assert paused.wait(timeout=10)
        built["v2"] = query.workload_matrix(schema, v2)
        resume.set()
        a.join()

        assert built["v1"] is not built["v2"]
        assert query.workload_matrix(schema, v1) is built["v1"]
        assert query.workload_matrix(schema, v2) is built["v2"]
