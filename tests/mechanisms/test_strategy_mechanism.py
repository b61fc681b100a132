"""Tests for WCQ-SM / ICQ-SM (the matrix mechanism with MC translation)."""

import numpy as np
import pytest

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import MechanismError
from repro.mechanisms.laplace import LaplaceMechanism
from repro.mechanisms.strategy_mechanism import (
    IcebergStrategyMechanism,
    StrategyMechanism,
)
from repro.queries.builders import histogram_workload, prefix_workload
from repro.queries.query import (
    IcebergCountingQuery,
    QueryKind,
    WorkloadCountingQuery,
)


@pytest.fixture()
def strategy_mechanism() -> StrategyMechanism:
    # smaller MC sample keeps the test fast; the translation is still sound
    return StrategyMechanism(mc_samples=1_000)


@pytest.fixture()
def prefix_query() -> WorkloadCountingQuery:
    return WorkloadCountingQuery(
        prefix_workload("capital_gain", [250.0 * i for i in range(1, 21)]),
        name="prefix-20",
    )


class TestTranslate:
    def test_only_supports_wcq(self, strategy_mechanism, adult_small):
        icq = IcebergCountingQuery(
            histogram_workload("capital_gain", start=0, stop=5000, bins=4), threshold=10
        )
        assert not strategy_mechanism.supports(icq)
        with pytest.raises(MechanismError):
            strategy_mechanism.translate(icq, AccuracySpec(alpha=10))

    def test_epsilon_below_chebyshev_bound(self, strategy_mechanism, adult_small, prefix_query):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        translation = strategy_mechanism.translate(prefix_query, accuracy, adult_small.schema)
        assert translation.epsilon_upper <= translation.details["chebyshev_upper"]

    def test_beats_laplace_on_prefix_workloads(self, strategy_mechanism, adult_small, prefix_query):
        """The headline Section 5.2 result: SM wins when sensitivity is large."""
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        sm = strategy_mechanism.translate(prefix_query, accuracy, adult_small.schema)
        lm = LaplaceMechanism().translate(prefix_query, accuracy, adult_small.schema)
        assert sm.epsilon_upper < lm.epsilon_upper

    def test_loses_to_laplace_on_disjoint_histograms(self, strategy_mechanism, adult_small,
                                                     capital_gain_histogram_query):
        """...and loses when the workload sensitivity is already 1 (Table 2)."""
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        sm = strategy_mechanism.translate(
            capital_gain_histogram_query, accuracy, adult_small.schema
        )
        lm = LaplaceMechanism().translate(
            capital_gain_histogram_query, accuracy, adult_small.schema
        )
        assert sm.epsilon_upper > lm.epsilon_upper

    def test_translation_cached(self, strategy_mechanism, adult_small, prefix_query):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        first = strategy_mechanism.translate(prefix_query, accuracy, adult_small.schema)
        second = strategy_mechanism.translate(prefix_query, accuracy, adult_small.schema)
        assert first.epsilon_upper == second.epsilon_upper

    def test_epsilon_monotone_in_alpha(self, strategy_mechanism, adult_small, prefix_query):
        tight = strategy_mechanism.translate(
            prefix_query, AccuracySpec(alpha=0.02 * len(adult_small)), adult_small.schema
        )
        loose = strategy_mechanism.translate(
            prefix_query, AccuracySpec(alpha=0.2 * len(adult_small)), adult_small.schema
        )
        assert loose.epsilon_upper < tight.epsilon_upper

    def test_not_data_dependent(self, strategy_mechanism, adult_small, prefix_query):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        translation = strategy_mechanism.translate(prefix_query, accuracy, adult_small.schema)
        assert not translation.is_data_dependent


    def test_cache_signature_is_stable_for_stored_searches(self):
        """Artifact-store digests include the signature: it must keep the
        values written when the search cap and tolerance were options."""
        signature = StrategyMechanism(mc_samples=500, seed=7).cache_signature()
        assert signature == (
            "StrategyMechanism",
            "WCQ-SM",
            "hierarchical_strategy",
            500,
            30,
            (0.01).hex(),
            7,
        )

class TestRun:
    def test_returns_noisy_counts(self, strategy_mechanism, adult_small, prefix_query, rng):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        result = strategy_mechanism.run(prefix_query, accuracy, adult_small, rng)
        assert isinstance(result.value, np.ndarray)
        assert len(result.value) == prefix_query.workload_size
        assert result.epsilon_spent == result.epsilon_upper

    def test_error_within_alpha(self, strategy_mechanism, adult_small, prefix_query, rng):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small), beta=1e-3)
        truth = prefix_query.true_counts(adult_small)
        result = strategy_mechanism.run(prefix_query, accuracy, adult_small, rng)
        assert np.abs(result.value - truth).max() < accuracy.alpha

    def test_failure_rate_below_beta(self, adult_small, prefix_query):
        """Statistical check of Theorem 5.3 with a generous beta."""
        mechanism = StrategyMechanism(mc_samples=1_000)
        beta = 0.1
        accuracy = AccuracySpec(alpha=0.03 * len(adult_small), beta=beta)
        truth = prefix_query.true_counts(adult_small)
        rng = np.random.default_rng(5)
        trials, failures = 200, 0
        for _ in range(trials):
            result = mechanism.run(prefix_query, accuracy, adult_small, rng)
            if np.abs(result.value - truth).max() >= accuracy.alpha:
                failures += 1
        assert failures / trials <= beta * 1.5

    def test_metadata_names_strategy(self, strategy_mechanism, adult_small, prefix_query, rng):
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        result = strategy_mechanism.run(prefix_query, accuracy, adult_small, rng)
        assert result.metadata["strategy"].startswith("H")


class TestIcebergStrategyMechanism:
    def test_supports_icq_only(self):
        mechanism = IcebergStrategyMechanism(mc_samples=500)
        assert QueryKind.ICQ in mechanism.supported_kinds
        assert QueryKind.WCQ not in mechanism.supported_kinds

    def test_returns_bins_above_threshold(self, adult_small, rng):
        mechanism = IcebergStrategyMechanism(mc_samples=500)
        query = IcebergCountingQuery(
            prefix_workload("capital_gain", [250.0 * i for i in range(1, 21)]),
            threshold=0.5 * len(adult_small),
            name="icq-prefix",
        )
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        result = mechanism.run(query, accuracy, adult_small, rng)
        assert set(result.value) <= set(query.bin_names())
        # prefix counts are monotone, so high cut points must be reported
        assert query.bin_names()[-1] in result.value

    def test_cheaper_than_wcq_counterpart(self, adult_small):
        """One-sided ICQ accuracy needs slightly less epsilon than WCQ."""
        accuracy = AccuracySpec(alpha=0.05 * len(adult_small))
        workload = prefix_workload("capital_gain", [250.0 * i for i in range(1, 21)])
        wcq_eps = StrategyMechanism(mc_samples=1_000).translate(
            WorkloadCountingQuery(workload), accuracy, adult_small.schema
        ).epsilon_upper
        icq_eps = IcebergStrategyMechanism(mc_samples=1_000).translate(
            IcebergCountingQuery(workload, threshold=100), accuracy, adult_small.schema
        ).epsilon_upper
        assert icq_eps <= wcq_eps * 1.05
