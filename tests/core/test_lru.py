"""Tests for the shared bounded LRU used by the engine's cache layers."""

import pytest

from repro.core.lru import LRUCache


def counters(cache, *fields):
    stats = cache.stats()
    return {field: stats[field] for field in fields}


class TestLRUCache:
    def test_get_put_and_counters(self):
        cache = LRUCache(4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert counters(cache, "hits", "misses", "size") == {
            "hits": 1,
            "misses": 1,
            "size": 1,
        }

    def test_stats_counts_puts_inserts_and_evictions(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("a", 2)  # an overwrite: a put, not an insert
        cache.put("b", 3)
        cache.put("c", 4)  # evicts "a"
        cache.get("b")
        stats = cache.stats()
        assert stats == {
            "hits": 1,
            "misses": 0,
            "size": 2,
            "puts": 4,
            "inserts": 3,
            "evictions": 1,
        }
        # Conservation: every snapshot balances inserts against removals.
        assert stats["inserts"] - stats["evictions"] == stats["size"]

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now the LRU entry
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_len_and_clear(self):
        cache = LRUCache(8)
        for i in range(5):
            cache.put(i, i)
        assert len(cache) == 5
        cache.clear()
        assert len(cache) == 0
        assert counters(cache, "hits", "misses", "size") == {
            "hits": 0,
            "misses": 0,
            "size": 0,
        }

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_mask_budget_scales_with_rows(self):
        from repro.data.table import (
            MASK_CACHE_BYTE_BUDGET,
            MASK_CACHE_MAX_ENTRIES,
        )
        from repro.queries.predicates import Comparison

        from tests.queries.test_vectorized_parity import random_table
        import numpy as np

        table = random_table(np.random.default_rng(0), n_rows=500)
        Comparison("kind", "==", "gold").evaluate(table)
        assert table.mask_cache.max_entries == min(
            MASK_CACHE_MAX_ENTRIES, max(16, MASK_CACHE_BYTE_BUDGET // 500)
        )
        assert len(table.mask_cache) == 1


class TestGlobalEvictionOrder:
    """The shared memos evict the least recently used entry of the whole
    cache, never the tail of one hash partition of it."""

    def test_matrix_memo_evicts_in_global_lru_order(self, toy_schema):
        from repro.queries.predicates import Comparison
        from repro.queries.workload import (
            Workload,
            clear_matrix_cache,
            matrix_cache_stats,
        )

        def workload(i):
            return Workload([Comparison("income", "<=", float(i))])

        clear_matrix_cache()
        try:
            capacity = 128
            for i in range(capacity):
                workload(i).analyze(toy_schema)
            stats = matrix_cache_stats()
            assert (stats["size"], stats["evictions"]) == (capacity, 0)
            workload(0).analyze(toy_schema)  # refresh the oldest entry
            workload(capacity).analyze(toy_schema)  # one past capacity
            assert matrix_cache_stats()["evictions"] == 1
            built = matrix_cache_stats()["built"]
            workload(0).analyze(toy_schema)  # refreshed: still cached
            assert matrix_cache_stats()["built"] == built
            workload(1).analyze(toy_schema)  # the global LRU entry: evicted
            assert matrix_cache_stats()["built"] == built + 1
        finally:
            clear_matrix_cache()

    def test_translator_memo_evicts_in_global_lru_order(self, toy_schema):
        from repro.core.accuracy import AccuracySpec
        from repro.core.translator import AccuracyTranslator
        from repro.mechanisms.laplace import LaplaceMechanism
        from repro.mechanisms.registry import MechanismRegistry
        from repro.queries.builders import point_workload
        from repro.queries.query import WorkloadCountingQuery

        translator = AccuracyTranslator(MechanismRegistry([LaplaceMechanism()]))
        accuracy = AccuracySpec(alpha=10.0)

        def query(i):
            return WorkloadCountingQuery(point_workload("income", [float(i)]))

        capacity = AccuracyTranslator.CACHE_MAX_ENTRIES
        for i in range(capacity):
            translator.translations(query(i), accuracy, toy_schema)
        stats = translator.cache_stats
        assert (stats["size"], stats["evictions"]) == (capacity, 0)
        translator.translations(query(0), accuracy, toy_schema)  # refresh
        translator.translations(query(capacity), accuracy, toy_schema)
        assert translator.cache_stats["evictions"] == 1
        assert translator.is_cached(query(0), accuracy, toy_schema)
        assert not translator.is_cached(query(1), accuracy, toy_schema)
        assert all(
            translator.is_cached(query(i), accuracy, toy_schema)
            for i in range(2, capacity + 1)
        )
