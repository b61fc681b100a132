"""The accuracy translator: choose the mechanism with the least privacy loss.

Algorithm 1, lines 4-10 of the paper.  Given an analyst query with an
``(alpha, beta)`` accuracy requirement, the translator

1. collects the mechanisms applicable to the query's type,
2. asks each for its accuracy-to-privacy translation,
3. drops the ones whose *worst-case* loss would not fit the remaining budget
   (that set is ``M*``), and
4. picks one mechanism from ``M*``:

   * **pessimistic mode** minimises the worst-case loss ``epsilon_u`` -- the
     conservative choice;
   * **optimistic mode** minimises the best-case loss ``epsilon_l`` -- it bets
     on data-dependent mechanisms (ICQ-MPM) stopping early.  This is the mode
     the paper's evaluation uses.

The translator is deterministic and never looks at the data, which the
privacy proof (Theorem 6.2) relies on.  Determinism also makes translations
safe to memoise: the translator keeps an LRU of translation lists keyed by
the query's structural identity and the accuracy requirement, so the
exploration strategies' relaxation loops (which re-ask structurally identical
queries round after round) and repeated ``preview_cost`` calls stop paying
for mechanism translation more than once.

Like the workload-matrix memo, the translation memo is three-tiered when
the ``version`` argument is a :class:`~repro.data.table.DomainStamp`:
a miss on the exact (version-scoped) key falls through to a revalidation
tier keyed by the stamp's domain fingerprints (translation is data
independent, so a mutation that preserved every referenced domain cannot
change it) and then to the stamp's
:class:`~repro.store.ArtifactStore`, from which a restarted process
reloads whole translation lists without re-running a single mechanism
translation.  The disk key includes each applicable mechanism's
:meth:`~repro.mechanisms.base.Mechanism.cache_signature`, so stores are
never shared across differently configured mechanism suites.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import TranslationError
from repro.core.lru import LRUCache
from repro.data.schema import Schema
from repro.data.table import DomainStamp
from repro.mechanisms.base import Mechanism, TranslationResult
from repro.mechanisms.registry import MechanismRegistry, default_registry
from repro.obs import tracing
from repro.obs.registry import Counter
from repro.queries.query import Query
from repro.store.fingerprint import stable_digest

__all__ = ["SelectionMode", "MechanismChoice", "AccuracyTranslator"]


class SelectionMode(enum.Enum):
    """How to break the tie between data-independent and data-dependent mechanisms."""

    OPTIMISTIC = "optimistic"
    PESSIMISTIC = "pessimistic"


@dataclass(frozen=True)
class MechanismChoice:
    """The translator's decision for one query."""

    mechanism: Mechanism
    translation: TranslationResult
    #: translations of every applicable mechanism (for reporting / Table 2).
    candidates: tuple[TranslationResult, ...]

    @property
    def epsilon_upper(self) -> float:
        return self.translation.epsilon_upper

    @property
    def epsilon_lower(self) -> float:
        return self.translation.epsilon_lower


class AccuracyTranslator:
    """Chooses, per query, the mechanism that meets the accuracy bound cheapest."""

    #: Maximum number of memoised translation lists per translator.
    CACHE_MAX_ENTRIES = 512

    def __init__(
        self,
        registry: MechanismRegistry | None = None,
        mode: SelectionMode = SelectionMode.OPTIMISTIC,
    ) -> None:
        self._registry = registry if registry is not None else default_registry()
        self._mode = mode
        self._translation_cache: LRUCache[
            list[tuple[Mechanism, TranslationResult]]
        ] = LRUCache(self.CACHE_MAX_ENTRIES)
        #: Revalidation tier: the same lists keyed by domain fingerprints
        #: instead of the version, so domain-preserving mutations re-tag.
        self._domain_cache: LRUCache[
            list[tuple[Mechanism, TranslationResult]]
        ] = LRUCache(self.CACHE_MAX_ENTRIES)
        #: Tier counters; one translator serves every concurrent session,
        #: so they are lock-protected registry counters, owned (not
        #: registered) by this instance.
        self._tier_stats = {
            tier: Counter()
            for tier in ("built", "revalidated", "disk_hits", "disk_writes")
        }

    @property
    def registry(self) -> MechanismRegistry:
        return self._registry

    @property
    def mode(self) -> SelectionMode:
        return self._mode

    @property
    def cache_stats(self) -> dict[str, int]:
        """Counters of the translation memo hierarchy.

        ``hits``/``misses``/``size`` describe the exact (version-scoped)
        LRU; ``revalidated`` counts lists re-tagged via the
        domain-fingerprint tier, ``disk_hits``/``disk_writes`` the artifact
        store, and ``built`` the translation lists actually computed.
        """
        tiers = {tier: int(c.value()) for tier, c in self._tier_stats.items()}
        return {**self._translation_cache.stats(), **tiers}

    def clear_cache(self) -> None:
        self._translation_cache.clear()
        self._domain_cache.clear()
        for counter in self._tier_stats.values():
            counter.reset()

    def is_cached(
        self,
        query: Query,
        accuracy: AccuracySpec,
        schema: Schema | None = None,
        *,
        version: object | None = None,
    ) -> bool:
        """Whether :meth:`translations` would be answered from the memo.

        A pure peek: neither recency nor the hit/miss counters change.  The
        service's batching front door uses this to skip the coalescing window
        for requests that are already warm (they cost microseconds; only cold
        builds are worth batching).  With a
        :class:`~repro.data.table.DomainStamp` the peek covers the
        revalidation tier too: a post-append request whose domains are
        unchanged is warm, it just has not been re-tagged yet.
        """
        query_key = query.cache_key(schema, version)
        if query_key is None:
            return False
        if (query_key, accuracy.alpha, accuracy.beta) in self._translation_cache:
            return True
        if isinstance(version, DomainStamp):
            domain_key = query.cache_key(schema, version.domain_key)
            if domain_key is not None:
                return (
                    domain_key,
                    accuracy.alpha,
                    accuracy.beta,
                ) in self._domain_cache
        return False

    # -- translation ---------------------------------------------------------------

    def translations(
        self,
        query: Query,
        accuracy: AccuracySpec,
        schema: Schema | None = None,
        *,
        version: object | None = None,
    ) -> list[tuple[Mechanism, TranslationResult]]:
        """Accuracy-to-privacy translations of every applicable mechanism.

        Mechanisms whose translation fails (e.g. the accuracy requirement is
        too loose for their closed form) are skipped.  Results are memoised
        per (query structure, accuracy, table version): translation is data
        independent and deterministic, so a structurally identical repeat (a
        re-asked query, a second ``preview_cost``) is answered from the
        cache -- until the table mutates.  With a
        :class:`~repro.data.table.DomainStamp` a mutation that preserved
        every referenced domain *revalidates* (the cached list is re-tagged
        for the new version), and a fresh process warm-starts from the
        stamp's :class:`~repro.store.ArtifactStore` before any mechanism
        translation runs.
        """
        query_key = query.cache_key(schema, version)
        cache_key = None
        if query_key is not None:
            cache_key = (query_key, accuracy.alpha, accuracy.beta)
            cached = self._translation_cache.get(cache_key)
            if cached is not None:
                tracing.annotate("cache_tier", "exact")
                return list(cached)
        stamp = version if isinstance(version, DomainStamp) else None
        domain_cache_key = None
        if cache_key is not None and stamp is not None:
            domain_query_key = query.cache_key(schema, stamp.domain_key)
            if domain_query_key is not None:
                domain_cache_key = (domain_query_key, accuracy.alpha, accuracy.beta)
                cached = self._domain_cache.get(domain_cache_key)
                if cached is not None:
                    self._tier_stats["revalidated"].inc()
                    tracing.annotate("cache_tier", "revalidated")
                    self._translation_cache.put(cache_key, list(cached))
                    return list(cached)
        applicable = self._registry.for_query(query)
        if not applicable:
            raise TranslationError(
                f"no registered mechanism supports {query.kind.value} queries"
            )
        store = stamp.store if stamp is not None else None
        store_digest = None
        if store is not None and cache_key is not None:
            store_digest = self._store_digest(query, accuracy, schema, stamp, applicable)
        if store_digest is not None:
            loaded = self._from_payload(
                store.load("translation", store_digest), applicable  # type: ignore[union-attr]
            )
            if loaded is not None:
                self._tier_stats["disk_hits"].inc()
                tracing.annotate("cache_tier", "disk")
                self._translation_cache.put(cache_key, list(loaded))
                if domain_cache_key is not None:
                    self._domain_cache.put(domain_cache_key, list(loaded))
                return list(loaded)
        out: list[tuple[Mechanism, TranslationResult]] = []
        for mechanism in applicable:
            try:
                out.append(
                    (
                        mechanism,
                        mechanism.translate(query, accuracy, schema, version=version),
                    )
                )
            except TranslationError:
                continue
        if not out:
            raise TranslationError(
                f"no mechanism could translate the accuracy requirement {accuracy} "
                f"for query {query.name!r}"
            )
        self._tier_stats["built"].inc()
        tracing.annotate("cache_tier", "built")
        if cache_key is not None:
            self._translation_cache.put(cache_key, list(out))
        if domain_cache_key is not None:
            self._domain_cache.put(domain_cache_key, list(out))
        if store_digest is not None:
            payload = [(mechanism.name, result) for mechanism, result in out]
            if store.save("translation", store_digest, payload):  # type: ignore[union-attr]
                self._tier_stats["disk_writes"].inc()
        return out

    def _store_digest(
        self,
        query: Query,
        accuracy: AccuracySpec,
        schema: Schema | None,
        stamp: DomainStamp,
        applicable: list[Mechanism],
    ) -> str | None:
        """Process-stable disk key of one translation list, or ``None``.

        Covers the query structure (kind, predicates, names, overrides,
        ICQ threshold / TCQ k via ``cache_key``), the schema content, the
        accuracy pair, the stamp's domain fingerprints and every applicable
        mechanism's configuration signature -- so differently parameterised
        suites (e.g. different ``mc_samples``) never share artifacts.
        """
        structural_key = query.cache_key(None, None)
        if structural_key is None:
            return None
        return stable_digest(
            (
                "translation",
                structural_key,
                schema,
                stamp.fingerprints,
                accuracy.alpha,
                accuracy.beta,
                tuple(mechanism.cache_signature() for mechanism in applicable),
            )
        )

    @staticmethod
    def _from_payload(
        payload: object, applicable: list[Mechanism]
    ) -> list[tuple[Mechanism, TranslationResult]] | None:
        """Re-pair a stored ``(mechanism name, result)`` list, or ``None``.

        The disk key pins the mechanism signatures, so a name that no longer
        resolves (or a malformed payload) means the store and the registry
        drifted -- treat as a miss and rebuild.
        """
        if not isinstance(payload, list) or not payload:
            return None
        by_name = {mechanism.name: mechanism for mechanism in applicable}
        out: list[tuple[Mechanism, TranslationResult]] = []
        for item in payload:
            if not (isinstance(item, tuple) and len(item) == 2):
                return None
            name, result = item
            mechanism = by_name.get(name)
            if mechanism is None or not isinstance(result, TranslationResult):
                return None
            out.append((mechanism, result))
        return out

    def choose(
        self,
        query: Query,
        accuracy: AccuracySpec,
        schema: Schema | None = None,
        *,
        budget_remaining: float | None = None,
        version: object | None = None,
    ) -> MechanismChoice | None:
        """Pick the cheapest admissible mechanism; ``None`` when M* is empty.

        ``budget_remaining`` enables the admission filter of Algorithm 1
        (line 5); leave it ``None`` to translate without budget constraints.
        """
        translations = self.translations(query, accuracy, schema, version=version)
        if budget_remaining is not None:
            admissible = [
                (mechanism, translation)
                for mechanism, translation in translations
                if translation.epsilon_upper <= budget_remaining + 1e-12
            ]
        else:
            admissible = list(translations)
        if not admissible:
            return None

        if self._mode is SelectionMode.PESSIMISTIC:
            key = lambda pair: (pair[1].epsilon_upper, pair[1].epsilon_lower)
        else:
            key = lambda pair: (pair[1].epsilon_lower, pair[1].epsilon_upper)
        mechanism, translation = min(admissible, key=key)
        return MechanismChoice(
            mechanism=mechanism,
            translation=translation,
            candidates=tuple(t for _, t in translations),
        )
