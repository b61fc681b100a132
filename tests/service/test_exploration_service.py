"""ExplorationService: sessions, policies, batching and merged transcripts."""

import pytest

from repro.bench.harness import RUN_TIMINGS
from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import ApexError
from repro.data.table import Table
from repro.mechanisms.registry import default_registry
from repro.queries.builders import histogram_workload
from repro.queries.query import WorkloadCountingQuery
from repro.service import BudgetPolicy, ExplorationService
from tests.service.util import small_table


@pytest.fixture(scope="module")
def table() -> Table:
    return small_table(2_000)


def make_service(table, **kwargs):
    kwargs.setdefault("registry", default_registry(mc_samples=200))
    kwargs.setdefault("seed", 0)
    kwargs.setdefault("batch_window", 0.0)
    return ExplorationService(table, budget=kwargs.pop("budget", 5.0), **kwargs)


def hist_query(table, bins=8, name="hist"):
    return WorkloadCountingQuery(
        histogram_workload("amount", start=0, stop=10_000, bins=bins), name=name
    )


ACC = AccuracySpec(alpha=200.0, beta=5e-4)


class TestRegistration:
    def test_autonamed_sessions(self, table):
        service = make_service(table)
        first = service.register_analyst()
        second = service.register_analyst()
        assert first.analyst != second.analyst
        assert service.session(first.analyst) is first

    def test_duplicate_name_rejected(self, table):
        service = make_service(table)
        service.register_analyst("alice")
        with pytest.raises(ApexError, match="already registered"):
            service.register_analyst("alice")

    def test_unknown_table_rejected(self, table):
        service = make_service(table)
        with pytest.raises(ApexError, match="unknown table"):
            service.register_analyst("alice", table="nope")

    def test_unknown_analyst_rejected(self, table):
        service = make_service(table)
        with pytest.raises(ApexError, match="no session"):
            service.explore("ghost", hist_query(table), ACC)

    def test_fixed_share_mints_equal_shares_and_caps_headcount(self, table):
        service = make_service(
            table, budget=4.0, policy=BudgetPolicy.FIXED_SHARE, max_analysts=4
        )
        handles = [service.register_analyst(f"a{i}") for i in range(4)]
        assert all(h.ledger.budget == pytest.approx(1.0) for h in handles)
        with pytest.raises(ApexError, match="full"):
            service.register_analyst("a4")

    def test_fixed_share_requires_max_analysts(self, table):
        with pytest.raises(ApexError, match="max_analysts"):
            make_service(table, policy="fixed-share")


class TestExploration:
    def test_explore_charges_pool_and_merged_transcript(self, table):
        service = make_service(table)
        service.register_analyst("alice")
        service.register_analyst("bob")
        r1 = service.explore("alice", hist_query(table), ACC)
        r2 = service.explore("bob", hist_query(table), ACC)
        assert not r1.denied and not r2.denied
        merged = service.merged_transcript()
        assert len(merged) == 2
        assert {e.query_name for e in merged} == {"alice:hist", "bob:hist"}
        assert service.budget_spent == pytest.approx(
            r1.epsilon_spent + r2.epsilon_spent
        )
        assert service.validate()

    def test_explore_text_and_preview(self, table):
        service = make_service(table)
        service.register_analyst("alice")
        text = (
            "BIN D ON COUNT(*) WHERE W = {"
            "  amount BETWEEN 0 AND 5000, amount BETWEEN 5000 AND 10000"
            "} ERROR 200 CONFIDENCE 0.9995;"
        )
        result = service.explore_text("alice", text)
        assert not result.denied
        costs = service.preview_cost("alice", hist_query(table), ACC)
        assert costs and all(low <= up for low, up in costs.values())

    def test_first_come_exhaustion_denies_latecomer(self, table):
        scratch = make_service(table)
        scratch.register_analyst("probe")
        costs = scratch.preview_cost("probe", hist_query(table), ACC)
        unit = min(up for _, up in costs.values())

        service = make_service(table, budget=1.5 * unit)
        service.register_analyst("greedy")
        service.register_analyst("late")
        first = service.explore("greedy", hist_query(table), ACC)
        assert not first.denied
        second = service.explore("late", hist_query(table), ACC)
        assert second.denied
        merged = service.merged_transcript()
        assert len(merged.denied()) == 1
        assert service.validate()

    def test_fixed_share_protects_other_analysts(self, table):
        scratch = make_service(table)
        scratch.register_analyst("probe")
        costs = scratch.preview_cost("probe", hist_query(table), ACC)
        unit = min(up for _, up in costs.values())

        # Two equal shares; each share fits one query but not two.
        service = make_service(
            table,
            budget=3.0 * unit,
            policy=BudgetPolicy.FIXED_SHARE,
            max_analysts=2,
        )
        service.register_analyst("greedy")
        service.register_analyst("other")
        assert not service.explore("greedy", hist_query(table), ACC).denied
        assert service.explore("greedy", hist_query(table), ACC).denied
        # The other analyst's share is untouched by greedy's attempts.
        assert not service.explore("other", hist_query(table), ACC).denied

    def test_shared_translator_memo_across_analysts(self, table):
        service = make_service(table)
        service.register_analyst("alice")
        service.register_analyst("bob")
        q = hist_query(table, bins=6)
        service.preview_cost("alice", q, ACC)
        before = service.stats()["translations"]["hits"]
        service.preview_cost(
            "bob",
            WorkloadCountingQuery(
                histogram_workload("amount", start=0, stop=10_000, bins=6),
                name="hist",
            ),
            ACC,
        )
        assert service.stats()["translations"]["hits"] > before


class TestPreviewBatching:
    def test_warm_preview_bypasses_batching_window(self, table):
        service = make_service(table, batch_window=0.05)
        service.register_analyst("alice")
        q = hist_query(table, bins=7)
        service.preview_cost("alice", q, ACC)  # cold: goes through the batcher
        computed_after_cold = service.stats()["batching"]["computed"]
        import time

        start = time.perf_counter()
        service.preview_cost("alice", q, ACC)  # warm: must skip the window
        warm_seconds = time.perf_counter() - start
        assert service.stats()["batching"]["computed"] == computed_after_cold
        assert warm_seconds < 0.05  # did not sleep the batch window

    def test_preview_results_are_independent_copies(self, table):
        service = make_service(table)
        service.register_analyst("alice")
        service.register_analyst("bob")
        q = hist_query(table, bins=9)
        first = service.preview_cost("alice", q, ACC)
        second = service.preview_cost("bob", q, ACC)
        assert first == second
        first.clear()  # one analyst mutating its dict must not affect others
        assert second and service.preview_cost("alice", q, ACC) == second


class TestObservability:
    def test_latency_recorded_in_run_timings_and_aggregates(self, table):
        service = make_service(table)
        service.register_analyst("alice")
        RUN_TIMINGS.pop("service.preview_cost", None)
        RUN_TIMINGS.pop("service.explore", None)
        service.preview_cost("alice", hist_query(table), ACC)
        service.explore("alice", hist_query(table), ACC)
        assert RUN_TIMINGS["service.preview_cost"] > 0
        assert RUN_TIMINGS["service.explore"] > 0
        stats = service.latency_stats()
        assert stats["preview_cost"]["count"] == 1
        assert stats["explore"]["count"] == 1
        assert stats["explore"]["max_seconds"] >= stats["explore"]["mean_seconds"]

    def test_stats_snapshot_shape(self, table):
        service = make_service(table)
        service.register_analyst("alice")
        stats = service.stats()
        assert stats["policy"] == "first-come"
        assert "alice" in stats["sessions"]
        assert set(stats["budget"]) == {
            "budget",
            "spent",
            "reserved",
            "remaining",
            "commit_batch_sizes",
        }
        assert set(stats["batching"]) == {
            "computed",
            "coalesced",
            "failed",
            "window_seconds",
            "linger_seconds",
            "interarrival_ewma_seconds",
            "interarrival_samples",
        }
        assert stats["store"] is None  # no ArtifactStore configured

    def test_single_table_shorthand_and_table_required_when_ambiguous(self, table):
        service = ExplorationService(
            {"a": table, "b": table}, budget=1.0, seed=0, batch_window=0.0
        )
        with pytest.raises(ApexError, match="pass table="):
            service.register_analyst("alice")
        handle = service.register_analyst("alice", table="b")
        assert handle.table == "b"
