"""One tiered memo for the data-independent artifacts of a translation.

APEx translates accuracy to privacy without reading a row (Algorithm 1;
Theorem 6.2 relies on it), so the workload matrix ``W``, the translation
list and WCQ-SM's Monte-Carlo epsilon search are pure functions of their
keys.  :class:`TieredMemo` is the one place that knows how a request for
such an artifact is resolved:

1. **exact** -- an LRU keyed by the full request identity (version or
   :class:`~repro.data.table.DomainStamp` included);
2. **revalidated** -- an optional LRU keyed by the version-free *domain*
   identity: a hit is re-put under the exact key, so a domain-preserving
   append re-tags the artifact instead of rebuilding it;
3. **disk** -- the :class:`~repro.store.ArtifactStore`, addressed by a
   process-stable content digest; a payload that decodes fills both LRUs;
4. **built** -- the artifact is computed, put into both LRUs, encoded and
   saved.

Each outcome bumps its tier counter (``disk_writes`` too, when a save
succeeds) and annotates the current span with ``<label>=<tier>``.  The
layers keep the keys, the payload codec and the build; everything beyond
the exact key is a callable evaluated only after an exact miss, so an
exact hit costs one key hash.  See ``docs/store.md``.
"""

from __future__ import annotations

from typing import Callable, Generic, Hashable, Mapping, TypeVar

from repro.core.lru import LRUCache
from repro.obs import tracing
from repro.obs.registry import Counter

__all__ = ["TieredMemo"]

V = TypeVar("V")


class TieredMemo(Generic[V]):
    """Exact LRU, optional revalidation LRU, artifact store, then build.

    :param kind: the store kind artifacts persist under.
    :param label: the span attribute that reports the serving tier.
    :param max_entries: capacity of each LRU.
    :param counters: the tier counters by name -- ``built``, ``disk_hits``,
        ``disk_writes`` and optionally ``revalidated`` -- passed in so that
        each layer keeps its own registry names.  The revalidation tier
        exists exactly when a ``revalidated`` counter is given.

    Thread-safe as far as its LRUs are: two threads missing on one key both
    build, and either value is correct.  Values must not be ``None``.
    """

    def __init__(
        self,
        kind: str,
        label: str,
        max_entries: int,
        counters: Mapping[str, Counter],
    ) -> None:
        self.kind = kind
        self.label = label
        self._exact: LRUCache[V] = LRUCache(max_entries)
        self._domain: LRUCache[V] | None = (
            LRUCache(max_entries) if "revalidated" in counters else None
        )
        self._counters = dict(counters)

    def lookup(
        self,
        key: Hashable | None,
        build: Callable[[], V],
        *,
        domain_key: Callable[[], Hashable | None] | None = None,
        store: object | None = None,
        digest: Callable[[], str | None] | None = None,
        decode: Callable[[object, str], V | None] | None = None,
        encode: Callable[[V, str], object | None] | None = None,
    ) -> V:
        """Resolve one request: exact, revalidated, disk, then build.

        A ``None`` from ``key``, ``domain_key()`` or ``digest()`` skips the
        tier it addresses (``digest`` is only called with a ``store``).
        ``decode(payload, digest)`` returning ``None`` is a miss; without
        ``decode`` the store is written but never read.
        ``encode(artifact, digest)`` may tag the fresh artifact and returns
        its payload (``None`` keeps it off disk); without ``encode`` the
        artifact is its own payload.  A ``build`` that raises caches and
        counts nothing.
        """
        if key is not None:
            value = self._exact.get(key)
            if value is not None:
                tracing.annotate(self.label, "exact")
                return value
        alias = None
        if key is not None and domain_key is not None and self._domain is not None:
            alias = domain_key()
            value = None if alias is None else self._domain.get(alias)
            if value is not None:
                self._counters["revalidated"].inc()
                tracing.annotate(self.label, "revalidated")
                self._exact.put(key, value)
                return value
        address = digest() if store is not None and digest is not None else None
        if address is not None and decode is not None:
            payload = store.load(self.kind, address)  # type: ignore[union-attr]
            value = None if payload is None else decode(payload, address)
            if value is not None:
                self._counters["disk_hits"].inc()
                tracing.annotate(self.label, "disk")
                self._fill(key, alias, value)
                return value
        value = build()
        self._counters["built"].inc()
        tracing.annotate(self.label, "built")
        self._fill(key, alias, value)
        if address is not None:
            payload = value if encode is None else encode(value, address)
            if payload is not None and store.save(self.kind, address, payload):  # type: ignore[union-attr]
                self._counters["disk_writes"].inc()
        return value

    def _fill(self, key: Hashable | None, alias: Hashable | None, value: V) -> None:
        if key is not None:
            self._exact.put(key, value)
        if alias is not None:
            self._domain.put(alias, value)  # type: ignore[union-attr]

    def peek(
        self,
        key: Hashable | None,
        domain_key: Callable[[], Hashable | None] | None = None,
    ) -> bool:
        """Whether :meth:`lookup` would answer from memory; moves no counter
        and no recency."""
        if key is None:
            return False
        if key in self._exact:
            return True
        if domain_key is None or self._domain is None:
            return False
        alias = domain_key()
        return alias is not None and alias in self._domain

    def stats(self) -> dict[str, int]:
        """The exact LRU's counters plus every tier counter."""
        tiers = {name: int(c.value()) for name, c in self._counters.items()}
        return {**self._exact.stats(), **tiers}

    def clear(self) -> None:
        """Drop every memoised artifact and reset every counter."""
        self._exact.clear()
        if self._domain is not None:
            self._domain.clear()
        for counter in self._counters.values():
            counter.reset()
