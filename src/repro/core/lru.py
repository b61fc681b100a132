"""A bounded LRU mapping with hit/miss counters.

Three hot-path caches (per-table predicate masks, the workload-matrix memo,
the translator's translation memo) need the same behavior: bounded size,
least-recently-used eviction, and hit/miss counters for observability.  One
implementation keeps them from drifting apart.

Every operation runs under one lock around one ``OrderedDict``, so eviction
is exact global LRU and every :meth:`LRUCache.stats` snapshot is taken in
one critical section: it always satisfies the conservation invariant
``inserts - evictions == size`` (pinned by ``tests/concurrency/``).

Keys are hashed once, before the lock is taken.  The memo keys embed whole
predicate trees, whose hash costs tens of microseconds; hashing them inside
the critical section would hold the lock that long, and a thread preempted
there stalls every other thread that touches the cache until it runs again.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

__all__ = ["LRUCache"]

V = TypeVar("V")


class _HashedKey:
    """A key with its hash computed once, outside the cache lock."""

    __slots__ = ("key", "hash")

    def __init__(self, key: Hashable) -> None:
        self.key = key
        self.hash = hash(key)

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _HashedKey) and self.key == other.key


class LRUCache(Generic[V]):
    """Bounded ``key -> value`` mapping with LRU eviction and counters.

    ``get`` counts a hit or miss (hits refresh recency); ``put`` inserts
    and evicts the least recently used entry once the cache is over
    capacity.  Values must not be ``None`` (a ``None`` return from ``get``
    means *miss*).

    Thread-safe.  Single operations are linearizable; a get-miss-then-put
    sequence may still race with another thread computing the same entry
    -- both compute, one value wins, and (values being pure functions of
    the key) either outcome is correct.
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[_HashedKey, V]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._puts = 0
        self._inserts = 0
        self._evictions = 0

    def get(self, key: Hashable) -> V | None:
        """Look up ``key``, refreshing its recency; ``None`` means miss."""
        hashed = _HashedKey(key)
        with self._lock:
            value = self._entries.get(hashed)
            if value is None:
                self._misses += 1
                return None
            self._entries.move_to_end(hashed)
            self._hits += 1
            return value

    def put(self, key: Hashable, value: V) -> V:
        """Insert ``key -> value``, evicting the LRU entry when full."""
        hashed = _HashedKey(key)
        with self._lock:
            entries = self._entries
            before = len(entries)
            entries[hashed] = value
            self._puts += 1
            if len(entries) != before:
                # A genuine insert (not an overwrite): the only event,
                # besides eviction, that moves ``size``.
                self._inserts += 1
            if len(entries) > self.max_entries:
                entries.popitem(last=False)
                self._evictions += 1
        return value

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        hashed = _HashedKey(key)
        with self._lock:
            return hashed in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._hits = self._misses = 0
            self._puts = self._inserts = self._evictions = 0

    def stats(self) -> dict[str, int]:
        """Every counter, read in one critical section.

        ``puts`` counts every put call, ``inserts`` only those that added a
        key rather than overwriting one, so ``inserts - evictions == size``
        holds in every snapshot.
        """
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._entries),
                "puts": self._puts,
                "inserts": self._inserts,
                "evictions": self._evictions,
            }
