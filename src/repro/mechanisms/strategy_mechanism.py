"""The strategy-based (matrix) mechanism: WCQ-SM and ICQ-SM.

Algorithm 3 of the paper.  Instead of answering the analyst workload ``W``
directly, the mechanism answers a strategy workload ``A`` with Laplace noise
scaled to ``||A||_1 / epsilon`` and reconstructs ``W``'s answers as
``W A^+ (A x + noise)`` -- the matrix mechanism of Li et al.  For workloads
with high sensitivity (prefix/CDF workloads, unions of overlapping ranges)
this is dramatically cheaper than the baseline Laplace mechanism.

The accuracy-to-privacy translation has no closed form because the error of a
reconstructed answer is a weighted sum of Laplace variables.  Following the
paper, ``translate`` performs a binary search over epsilon; each candidate is
evaluated by Monte-Carlo simulation of the failure probability
(``estimateBeta`` in Algorithm 3), with a normal-approximation confidence
correction so the accepted epsilon meets the requirement with high
confidence.  Theorem A.1 provides the Chebyshev-based upper end of the search
interval.  The simulation is data independent, so results are cached per
(workload, accuracy) pair.

``ICQ-SM`` (Section 5.3.1) reuses the same machinery: it answers the workload
with a WCQ-accuracy requirement whose failure probability is doubled (the ICQ
error events are one sided), then thresholds the noisy counts locally -- a
post-processing step that costs no additional privacy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import TranslationError
from repro.core.lru import LRUCache
from repro.data.schema import Schema
from repro.data.table import DomainStamp, Table, TableSnapshot
from repro.mechanisms.base import Mechanism, MechanismResult, TranslationResult
from repro.obs import tracing
from repro.obs.registry import default_metrics
from repro.store.fingerprint import stable_digest
from repro.mechanisms.noise import laplace_noise
from repro.mechanisms.strategies import (
    StrategyMatrix,
    hierarchical_strategy,
    identity_strategy,
)
from repro.queries.query import IcebergCountingQuery, Query, QueryKind
from repro.queries.workload import WorkloadMatrix

__all__ = [
    "StrategyMechanism",
    "IcebergStrategyMechanism",
    "StrategyTranslation",
    "search_stats",
    "reset_search_stats",
]

StrategyFactory = Callable[[int], StrategyMatrix]

#: Process-wide registry counters of the Monte-Carlo epsilon search,
#: exported as ``repro_mechanisms_sm_<name>``: ``searches`` counts binary
#: searches actually executed (each one runs tens of Monte-Carlo
#: simulations), ``disk_hits`` counts searches answered from an
#: :class:`~repro.store.ArtifactStore` instead.  Benchmarks and the
#: warm-start acceptance tests use these to pin "zero re-searches".
_SEARCH_COUNTERS = {
    name: default_metrics().counter(f"repro_mechanisms_sm_{name}")
    for name in ("searches", "disk_hits", "disk_writes")
}


def search_stats() -> dict[str, int]:
    """Process-wide Monte-Carlo search counters (see :data:`_SEARCH_COUNTERS`)."""
    return {name: int(c.value()) for name, c in _SEARCH_COUNTERS.items()}


def reset_search_stats() -> None:
    """Zero the process-wide Monte-Carlo search counters."""
    for counter in _SEARCH_COUNTERS.values():
        counter.reset()


@dataclass(frozen=True)
class StrategyTranslation:
    """Internal record of a completed accuracy-to-privacy search."""

    epsilon: float
    strategy: StrategyMatrix
    reconstruction: np.ndarray
    chebyshev_upper: float
    mc_samples: int
    search_iterations: int


class StrategyMechanism(Mechanism):
    """WCQ-SM: the strategy/matrix mechanism for workload counting queries."""

    supported_kinds = frozenset({QueryKind.WCQ})

    def __init__(
        self,
        strategy_factory: StrategyFactory = hierarchical_strategy,
        *,
        mc_samples: int = 10_000,
        max_search_iterations: int = 30,
        relative_tolerance: float = 0.01,
        name: str | None = None,
        seed: int = 20190501,
    ) -> None:
        self.name = name or "WCQ-SM"
        self._strategy_factory = strategy_factory
        self._mc_samples = int(mc_samples)
        self._max_search_iterations = int(max_search_iterations)
        self._relative_tolerance = float(relative_tolerance)
        self._seed = seed
        # Keyed by (matrix cache token, alpha, beta): the token identifies the
        # matrix *values* plus the table version it was derived for, so
        # structurally identical workloads (every single-predicate screening
        # query of the ER strategies, every re-asked workload of a relaxation
        # loop) share one Monte-Carlo epsilon search -- while a table
        # mutation (new version token) forces a fresh search instead of
        # resurrecting a stale one.  Tokens hold their referents, so ids
        # never alias.
        self._cache: LRUCache[StrategyTranslation] = LRUCache(256)

    # -- public API ---------------------------------------------------------------

    def translate(
        self,
        query: Query,
        accuracy: AccuracySpec,
        schema: Schema | None = None,
        *,
        version: object | None = None,
    ) -> TranslationResult:
        self._check_supported(query)
        translation = self._translate_matrix(
            query.workload_matrix(schema, version),
            accuracy.alpha,
            accuracy.beta,
            store=version.store if isinstance(version, DomainStamp) else None,
        )
        return TranslationResult(
            mechanism=self.name,
            epsilon_upper=translation.epsilon,
            epsilon_lower=translation.epsilon,
            details={
                "strategy": translation.strategy.name,
                "strategy_sensitivity": translation.strategy.sensitivity,
                "chebyshev_upper": translation.chebyshev_upper,
                "mc_samples": translation.mc_samples,
                "search_iterations": translation.search_iterations,
            },
        )

    def cache_signature(self) -> tuple:
        """Everything the Monte-Carlo search result depends on besides the
        workload matrix and the accuracy pair (see ``Mechanism.cache_signature``)."""
        return (
            type(self).__name__,
            self.name,
            getattr(self._strategy_factory, "__name__", repr(self._strategy_factory)),
            self._mc_samples,
            self._max_search_iterations,
            float(self._relative_tolerance).hex(),
            self._seed,
        )

    def run(
        self,
        query: Query,
        accuracy: AccuracySpec,
        table: Table,
        rng: np.random.Generator | int | None = None,
    ) -> MechanismResult:
        self._check_supported(query)
        generator = self._rng(rng)
        table = table.snapshot()  # pin one version for search + histogram
        # A domain stamp rather than the bare token: if translate-time work
        # populated the memos at an equal stamp (same version, same
        # fingerprints), the run reuses it -- and a run straddling a
        # domain-preserving append revalidates instead of rebuilding.
        stamp = table.domain_stamp(query.workload.attributes())
        workload_matrix = query.workload_matrix(table.schema, stamp)
        translation = self._translate_matrix(
            workload_matrix, accuracy.alpha, accuracy.beta
        )
        noisy_counts = self._noisy_workload_answers(
            workload_matrix, translation, table, generator
        )
        return MechanismResult(
            mechanism=self.name,
            value=noisy_counts,
            epsilon_spent=translation.epsilon,
            epsilon_upper=translation.epsilon,
            noisy_counts=noisy_counts,
            metadata={
                "strategy": translation.strategy.name,
                "strategy_sensitivity": translation.strategy.sensitivity,
            },
        )

    # -- shared internals (also used by ICQ-SM) -------------------------------------

    def _noisy_workload_answers(
        self,
        workload_matrix: WorkloadMatrix,
        translation: StrategyTranslation,
        snapshot: TableSnapshot,
        generator: np.random.Generator,
    ) -> np.ndarray:
        strategy = translation.strategy
        histogram = workload_matrix.partition_histogram(snapshot)
        scale = strategy.sensitivity / translation.epsilon
        strategy_answers = strategy.matrix @ histogram + laplace_noise(
            scale, strategy.n_queries, generator
        )
        return translation.reconstruction @ strategy_answers

    def _translate_matrix(
        self,
        workload_matrix: WorkloadMatrix,
        alpha: float,
        beta: float,
        store: object | None = None,
    ) -> StrategyTranslation:
        cache_key = (workload_matrix.cache_token, float(alpha), float(beta))
        cached = self._cache.get(cache_key)
        if cached is not None:
            tracing.annotate("search_tier", "exact")
            return cached

        # Disk tier: the matrix's store digest is a content address covering
        # the workload structure and the referenced attribute domains, so a
        # search persisted by a previous process under the same digest,
        # accuracy pair and mechanism configuration is the same search.
        store_key = None
        if store is not None and workload_matrix.store_digest is not None:
            store_key = stable_digest(
                (
                    "wcqsm",
                    workload_matrix.store_digest,
                    float(alpha),
                    float(beta),
                    self.cache_signature(),
                )
            )
        if store_key is not None:
            loaded = store.load("wcqsm", store_key)  # type: ignore[union-attr]
            if isinstance(loaded, StrategyTranslation):
                _SEARCH_COUNTERS["disk_hits"].inc()
                tracing.annotate("search_tier", "disk")
                self._cache.put(cache_key, loaded)
                return loaded

        strategy = self._build_strategy(workload_matrix)
        reconstruction = strategy.reconstruction(workload_matrix.matrix)
        frobenius = float(np.linalg.norm(reconstruction, ord="fro"))
        sensitivity = strategy.sensitivity
        chebyshev_upper = sensitivity * frobenius / (alpha * math.sqrt(beta / 2.0))

        simulation_rng = np.random.default_rng(self._seed)
        with tracing.span("wcqsm.search", mc_samples=self._mc_samples):
            epsilon, iterations = self._binary_search_epsilon(
                reconstruction, sensitivity, alpha, beta, chebyshev_upper, simulation_rng
            )
        _SEARCH_COUNTERS["searches"].inc()
        tracing.annotate("search_tier", "built")
        translation = StrategyTranslation(
            epsilon=epsilon,
            strategy=strategy,
            reconstruction=reconstruction,
            chebyshev_upper=chebyshev_upper,
            mc_samples=self._mc_samples,
            search_iterations=iterations,
        )
        self._cache.put(cache_key, translation)
        if store_key is not None:
            if store.save("wcqsm", store_key, translation):  # type: ignore[union-attr]
                _SEARCH_COUNTERS["disk_writes"].inc()
        return translation

    def _build_strategy(self, workload_matrix: WorkloadMatrix) -> StrategyMatrix:
        strategy = self._strategy_factory(workload_matrix.n_partitions)
        if not strategy.supports(workload_matrix.matrix):
            # Fall back to the identity strategy, which always spans the
            # partition space, rather than failing the query.
            strategy = identity_strategy(workload_matrix.n_partitions)
            if not strategy.supports(workload_matrix.matrix):  # pragma: no cover
                raise TranslationError(
                    "no strategy can reconstruct the workload matrix"
                )
        return strategy

    def _binary_search_epsilon(
        self,
        reconstruction: np.ndarray,
        strategy_sensitivity: float,
        alpha: float,
        beta: float,
        upper_bound: float,
        rng: np.random.Generator,
    ) -> tuple[float, int]:
        """Binary search for the smallest epsilon whose estimated failure rate
        is confidently below beta (the ``translate`` loop of Algorithm 3)."""
        if not self._estimate_beta_ok(
            reconstruction, strategy_sensitivity, upper_bound, alpha, beta, rng
        ):
            # The Chebyshev bound is loose but safe; if the Monte-Carlo check
            # fails at the bound (only possible through simulation noise),
            # inflate it until it passes.
            epsilon = upper_bound
            for _ in range(10):
                epsilon *= 1.5
                if self._estimate_beta_ok(
                    reconstruction, strategy_sensitivity, epsilon, alpha, beta, rng
                ):
                    break
            else:  # pragma: no cover - defensive
                raise TranslationError(
                    "could not find an epsilon meeting the accuracy bound"
                )
            upper_bound = epsilon

        low = 0.0
        high = upper_bound
        iterations = 0
        while iterations < self._max_search_iterations:
            iterations += 1
            midpoint = (low + high) / 2.0 if low > 0 else high / 2.0
            if midpoint <= 0:
                break
            if self._estimate_beta_ok(
                reconstruction, strategy_sensitivity, midpoint, alpha, beta, rng
            ):
                high = midpoint
            else:
                low = midpoint
            if low > 0 and (high - low) / high < self._relative_tolerance:
                break
        return high, iterations

    def _estimate_beta_ok(
        self,
        reconstruction: np.ndarray,
        strategy_sensitivity: float,
        epsilon: float,
        alpha: float,
        beta: float,
        rng: np.random.Generator,
    ) -> bool:
        """Monte-Carlo estimate of the failure rate at ``epsilon`` (estimateBeta)."""
        n_samples = self._mc_samples
        scale = strategy_sensitivity / epsilon
        n_strategy_queries = reconstruction.shape[1]
        noise = rng.laplace(0.0, scale, size=(n_strategy_queries, n_samples))
        errors = np.abs(reconstruction @ noise).max(axis=0)
        failures = int((errors > alpha).sum())
        empirical_beta = failures / n_samples
        confidence = beta / 100.0
        z_score = _normal_quantile(1.0 - confidence / 2.0)
        margin = z_score * math.sqrt(
            max(empirical_beta * (1.0 - empirical_beta), 1e-12) / n_samples
        )
        return (empirical_beta + margin + confidence / 2.0) < beta


class IcebergStrategyMechanism(Mechanism):
    """ICQ-SM: strategy mechanism plus local thresholding (Section 5.3.1)."""

    supported_kinds = frozenset({QueryKind.ICQ})

    def __init__(
        self,
        strategy_factory: StrategyFactory = hierarchical_strategy,
        *,
        mc_samples: int = 10_000,
        name: str | None = None,
        **kwargs,
    ) -> None:
        self.name = name or "ICQ-SM"
        self._inner = StrategyMechanism(
            strategy_factory, mc_samples=mc_samples, name=f"{self.name}/WCQ", **kwargs
        )

    def _wcq_accuracy(self, accuracy: AccuracySpec) -> AccuracySpec:
        """The equivalent two-sided WCQ requirement (doubled failure probability)."""
        beta = min(2.0 * accuracy.beta, 0.999)
        return AccuracySpec(alpha=accuracy.alpha, beta=beta)

    def cache_signature(self) -> tuple:
        return (type(self).__name__, self.name) + self._inner.cache_signature()

    def translate(
        self,
        query: Query,
        accuracy: AccuracySpec,
        schema: Schema | None = None,
        *,
        version: object | None = None,
    ) -> TranslationResult:
        self._check_supported(query)
        translation = self._inner._translate_matrix(
            query.workload_matrix(schema, version),
            accuracy.alpha,
            self._wcq_accuracy(accuracy).beta,
            store=version.store if isinstance(version, DomainStamp) else None,
        )
        return TranslationResult(
            mechanism=self.name,
            epsilon_upper=translation.epsilon,
            epsilon_lower=translation.epsilon,
            details={
                "strategy": translation.strategy.name,
                "strategy_sensitivity": translation.strategy.sensitivity,
                "chebyshev_upper": translation.chebyshev_upper,
            },
        )

    def run(
        self,
        query: Query,
        accuracy: AccuracySpec,
        table: Table,
        rng: np.random.Generator | int | None = None,
    ) -> MechanismResult:
        self._check_supported(query)
        assert isinstance(query, IcebergCountingQuery)
        generator = self._rng(rng)
        table = table.snapshot()  # pin one version for search + histogram
        stamp = table.domain_stamp(query.workload.attributes())
        workload_matrix = query.workload_matrix(table.schema, stamp)
        translation = self._inner._translate_matrix(
            workload_matrix, accuracy.alpha, self._wcq_accuracy(accuracy).beta
        )
        noisy_counts = self._inner._noisy_workload_answers(
            workload_matrix, translation, table, generator
        )
        selected = query.select_by_counts(noisy_counts)
        return MechanismResult(
            mechanism=self.name,
            value=selected,
            epsilon_spent=translation.epsilon,
            epsilon_upper=translation.epsilon,
            noisy_counts=noisy_counts,
            metadata={"strategy": translation.strategy.name},
        )


def _normal_quantile(probability: float) -> float:
    """Inverse standard normal CDF (Acklam's rational approximation)."""
    if not 0.0 < probability < 1.0:
        raise TranslationError("quantile probability must lie in (0, 1)")
    # Coefficients for the central and tail regions.
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low = 0.02425
    if probability < p_low:
        q = math.sqrt(-2.0 * math.log(probability))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if probability > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - probability))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    q = probability - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )
