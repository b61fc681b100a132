"""Tests for the accuracy translator (mechanism selection)."""

import pytest

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import TranslationError
from repro.core.translator import AccuracyTranslator, SelectionMode
from repro.mechanisms.registry import MechanismRegistry, default_registry
from repro.queries.builders import (
    histogram_workload,
    point_workload,
    prefix_workload,
)
from repro.queries.query import (
    IcebergCountingQuery,
    TopKCountingQuery,
    WorkloadCountingQuery,
)


@pytest.fixture()
def translator() -> AccuracyTranslator:
    return AccuracyTranslator(default_registry(mc_samples=500))


class TestTranslations:
    def test_all_applicable_mechanisms_translated(self, translator, adult_small):
        query = IcebergCountingQuery(
            histogram_workload("capital_gain", start=0, stop=5000, bins=10),
            threshold=100,
        )
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        translations = translator.translations(query, accuracy, adult_small.schema)
        assert {m.name for m, _ in translations} == {"ICQ-LM", "ICQ-SM", "ICQ-MPM"}

    def test_empty_registry_raises(self, adult_small):
        translator = AccuracyTranslator(MechanismRegistry())
        query = WorkloadCountingQuery(point_workload("age", [1.0]))
        with pytest.raises(TranslationError):
            translator.translations(query, AccuracySpec(alpha=10), adult_small.schema)


class TestChoice:
    def test_picks_laplace_for_disjoint_histogram(self, translator, adult_small,
                                                  capital_gain_histogram_query):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        choice = translator.choose(
            capital_gain_histogram_query, accuracy, adult_small.schema
        )
        assert choice.mechanism.name == "WCQ-LM"

    def test_picks_strategy_for_prefix_workload(self, translator, adult_small,
                                                capital_gain_prefix_query):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        choice = translator.choose(
            capital_gain_prefix_query, accuracy, adult_small.schema
        )
        assert choice.mechanism.name == "WCQ-SM"

    def test_optimistic_prefers_multi_poking(self, adult_small, capital_gain_iceberg_query):
        translator = AccuracyTranslator(
            default_registry(mc_samples=500), SelectionMode.OPTIMISTIC
        )
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        choice = translator.choose(
            capital_gain_iceberg_query, accuracy, adult_small.schema
        )
        assert choice.mechanism.name == "ICQ-MPM"

    def test_pessimistic_avoids_multi_poking(self, adult_small, capital_gain_iceberg_query):
        translator = AccuracyTranslator(
            default_registry(mc_samples=500), SelectionMode.PESSIMISTIC
        )
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        choice = translator.choose(
            capital_gain_iceberg_query, accuracy, adult_small.schema
        )
        assert choice.mechanism.name != "ICQ-MPM"

    def test_tcq_choice_depends_on_sensitivity(self, translator, adult_small):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        disjoint = TopKCountingQuery(
            point_workload("age", [float(a) for a in range(17, 91)]), k=10
        )
        overlapping = TopKCountingQuery(
            prefix_workload("capital_gain", [100.0 * i for i in range(1, 51)]), k=10
        )
        assert translator.choose(disjoint, accuracy, adult_small.schema).mechanism.name == "TCQ-LM"
        assert (
            translator.choose(overlapping, accuracy, adult_small.schema).mechanism.name
            == "TCQ-LTM"
        )

    def test_budget_filter(self, translator, adult_small, capital_gain_histogram_query):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        unconstrained = translator.choose(
            capital_gain_histogram_query, accuracy, adult_small.schema
        )
        assert (
            translator.choose(
                capital_gain_histogram_query,
                accuracy,
                adult_small.schema,
                budget_remaining=unconstrained.epsilon_upper / 2,
            )
            is None
        )

    def test_budget_filter_admits_cheaper_mechanism(self, translator, adult_small,
                                                    capital_gain_prefix_query):
        """When the cheapest-by-lower-bound option does not fit, a cheaper one is used."""
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        translations = dict(
            (m.name, t)
            for m, t in translator.translations(
                capital_gain_prefix_query, accuracy, adult_small.schema
            )
        )
        lm_eps = translations["WCQ-LM"].epsilon_upper
        sm_eps = translations["WCQ-SM"].epsilon_upper
        # allow only the strategy mechanism
        budget = (lm_eps + sm_eps) / 2 if sm_eps < lm_eps else sm_eps * 1.01
        choice = translator.choose(
            capital_gain_prefix_query,
            accuracy,
            adult_small.schema,
            budget_remaining=budget,
        )
        assert choice is not None
        assert choice.mechanism.name == "WCQ-SM"

    def test_candidates_reported(self, translator, adult_small, capital_gain_iceberg_query):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        choice = translator.choose(
            capital_gain_iceberg_query, accuracy, adult_small.schema
        )
        assert len(choice.candidates) == 3
        assert choice.epsilon_lower <= choice.epsilon_upper

    def test_mode_exposed(self):
        translator = AccuracyTranslator(mode=SelectionMode.PESSIMISTIC)
        assert translator.mode is SelectionMode.PESSIMISTIC


class TestTierCounters:
    def test_concurrent_builds_are_all_counted(self, adult_small):
        """One translator serves every session; eight threads building
        eight distinct structures at once must count exactly eight builds."""
        import sys
        import threading

        from repro.mechanisms.laplace import LaplaceMechanism
        from repro.queries.query import QueryKind

        laplace = LaplaceMechanism(name="WCQ-LM", kinds=frozenset({QueryKind.WCQ}))
        translator = AccuracyTranslator(MechanismRegistry([laplace]))
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        queries = [
            WorkloadCountingQuery(point_workload("age", [float(20 + i)]))
            for i in range(8)
        ]
        barrier = threading.Barrier(len(queries))
        errors: list[Exception] = []

        def build(query):
            try:
                barrier.wait(timeout=60)
                translator.translations(query, accuracy, adult_small.schema)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=build, args=(q,)) for q in queries]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        stats = translator.cache_stats
        assert stats["built"] == 8
        assert stats["misses"] == 8
        assert isinstance(stats["built"], int)
        translator.clear_cache()
        assert translator.cache_stats["built"] == 0
