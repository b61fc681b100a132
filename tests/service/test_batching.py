"""Single-flight request coalescing."""

import threading
import time

import pytest

from repro.service.batching import RequestBatcher


class TestRequestBatcher:
    def test_concurrent_identical_requests_compute_once(self):
        batcher = RequestBatcher(window=0.0)
        n_threads = 8
        calls = []
        started = threading.Event()
        release = threading.Event()
        results = [None] * n_threads

        def compute():
            calls.append(threading.get_ident())
            started.set()
            release.wait(timeout=5)
            return "answer"

        def ask(i):
            results[i] = batcher.submit("key", compute)

        leader = threading.Thread(target=ask, args=(0,))
        leader.start()
        assert started.wait(timeout=5)
        followers = [
            threading.Thread(target=ask, args=(i,)) for i in range(1, n_threads)
        ]
        for t in followers:
            t.start()
        time.sleep(0.05)  # let every follower attach to the in-flight computation
        release.set()
        leader.join()
        for t in followers:
            t.join()

        assert len(calls) == 1
        assert results == ["answer"] * n_threads
        stats = batcher.stats()
        assert stats["computed"] == 1
        assert stats["coalesced"] == n_threads - 1

    def test_distinct_keys_do_not_coalesce(self):
        batcher = RequestBatcher(window=0.0)
        assert batcher.submit("a", lambda: 1) == 1
        assert batcher.submit("b", lambda: 2) == 2
        assert batcher.stats()["computed"] == 2
        assert batcher.stats()["coalesced"] == 0

    def test_sequential_requests_recompute(self):
        """The batcher is not a cache: flights end when the leader finishes."""
        batcher = RequestBatcher(window=0.0)
        values = iter([10, 20])
        assert batcher.submit("k", lambda: next(values)) == 10
        assert batcher.submit("k", lambda: next(values)) == 20

    def test_window_lingers_published_result_for_stragglers(self):
        """Within the window a duplicate of a *completed* fast flight still
        coalesces instead of recomputing (the window moved from a leader
        pre-sleep to a post-completion linger)."""
        batcher = RequestBatcher(window=30.0)
        values = iter([10, 20])
        assert batcher.submit("k", lambda: next(values)) == 10
        assert batcher.submit("k", lambda: next(values)) == 10  # linger hit
        stats = batcher.stats()
        assert stats["computed"] == 1
        assert stats["coalesced"] == 1

    def test_window_expiry_recomputes(self):
        batcher = RequestBatcher(window=0.02)
        values = iter([10, 20])
        assert batcher.submit("k", lambda: next(values)) == 10
        time.sleep(0.03)
        assert batcher.submit("k", lambda: next(values)) == 20
        assert batcher.stats()["computed"] == 2

    def test_leader_never_sleeps_before_computing(self):
        """A lone caller's latency is its compute time, not the window."""
        batcher = RequestBatcher(window=5.0)
        start = time.perf_counter()
        assert batcher.submit("k", lambda: "warm") == "warm"
        assert time.perf_counter() - start < 1.0

    def test_leader_failure_propagates_to_followers(self):
        batcher = RequestBatcher(window=0.0)
        n_followers = 3
        started = threading.Event()
        release = threading.Event()
        errors = []

        def compute():
            started.set()
            release.wait(timeout=5)
            raise ValueError("boom")

        def ask():
            try:
                batcher.submit("key", compute)
            except ValueError as exc:
                errors.append(exc)

        leader = threading.Thread(target=ask)
        leader.start()
        assert started.wait(timeout=5)
        followers = [threading.Thread(target=ask) for _ in range(n_followers)]
        for t in followers:
            t.start()
        time.sleep(0.05)  # let every follower attach to the flight
        release.set()
        leader.join()
        for t in followers:
            t.join()

        assert [str(e) for e in errors] == ["boom"] * (n_followers + 1)
        stats = batcher.stats()
        assert stats["failed"] == 1
        # A failed flight is not a computation.
        assert stats["computed"] == 0
        # The key is retired immediately (no linger for failures): a retry
        # computes fresh.
        assert batcher.submit("key", lambda: "ok") == "ok"

    def test_followers_raise_distinct_exception_copies(self):
        """Concurrent re-raises must not fight over one shared traceback."""
        batcher = RequestBatcher(window=0.0)
        n_followers = 3
        started = threading.Event()
        release = threading.Event()
        errors = []
        errors_lock = threading.Lock()

        def compute():
            started.set()
            release.wait(timeout=5)
            raise ValueError("boom")

        def ask():
            try:
                batcher.submit("key", compute)
            except ValueError as exc:
                with errors_lock:
                    errors.append(exc)

        leader = threading.Thread(target=ask)
        leader.start()
        assert started.wait(timeout=5)
        followers = [threading.Thread(target=ask) for _ in range(n_followers)]
        for t in followers:
            t.start()
        time.sleep(0.05)
        release.set()
        leader.join()
        for t in followers:
            t.join()

        assert len(errors) == n_followers + 1
        # Every raised object is distinct; followers chain to the leader's
        # original, whose traceback stays that of the leader's raise.
        assert len({id(e) for e in errors}) == n_followers + 1
        originals = [e for e in errors if e.__cause__ is None]
        assert len(originals) == 1
        original = originals[0]
        for copy_exc in errors:
            if copy_exc is original:
                continue
            assert copy_exc.__cause__ is original
            assert str(copy_exc) == "boom"

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            RequestBatcher(window=-0.1)

    def test_window_zero_still_coalesces_in_flight_requests(self):
        batcher = RequestBatcher(window=0.0)
        started = threading.Event()
        release = threading.Event()

        def slow():
            started.set()
            release.wait(timeout=5)
            return "slow"

        out = []
        leader = threading.Thread(target=lambda: out.append(batcher.submit("k", slow)))
        leader.start()
        assert started.wait(timeout=5)
        follower = threading.Thread(
            target=lambda: out.append(batcher.submit("k", lambda: "fast"))
        )
        follower.start()
        time.sleep(0.02)  # let the follower attach to the flight
        release.set()
        leader.join()
        follower.join()
        assert out == ["slow", "slow"]


class TestAdaptiveLinger:
    """The linger adapts to observed duplicate inter-arrival times (EWMA,
    clamped to [window/4, 4*window])."""

    def test_defaults_to_the_base_window_before_any_duplicate(self):
        batcher = RequestBatcher(window=0.1)
        assert batcher.effective_window() == pytest.approx(0.1)
        stats = batcher.stats()
        assert stats["interarrival_samples"] == 0
        assert stats["linger_seconds"] == pytest.approx(0.1)

    def test_bursty_duplicates_shrink_the_linger_to_the_floor(self):
        batcher = RequestBatcher(window=0.2)
        for _ in range(30):  # back-to-back duplicates: near-zero gaps
            batcher.submit("key", lambda: "value")
        stats = batcher.stats()
        assert stats["interarrival_samples"] >= 29
        assert stats["interarrival_ewma_seconds"] < 0.01
        assert batcher.effective_window() == pytest.approx(0.2 / 4.0)

    def test_slow_duplicates_are_clamped_to_four_windows(self):
        batcher = RequestBatcher(window=0.005)
        batcher.submit("key", lambda: "value")
        time.sleep(0.08)  # a gap far beyond 4*window
        batcher.submit("key", lambda: "value")
        assert batcher.effective_window() == pytest.approx(4 * 0.005)

    def test_zero_window_stays_zero(self):
        batcher = RequestBatcher(window=0.0)
        for _ in range(5):
            batcher.submit("key", lambda: "value")
        assert batcher.effective_window() == 0.0

    def test_adapted_linger_governs_flight_expiry(self):
        batcher = RequestBatcher(window=0.4)
        # Teach the EWMA a ~2ms duplicate gap: linger becomes ~4ms-100ms
        # (clamped floor), far below the 400ms base window.
        for _ in range(40):
            batcher.submit("key", lambda: "burst")
        linger = batcher.effective_window()
        assert linger == pytest.approx(0.1)  # the window/4 floor
        batcher.submit("fresh", lambda: "published")
        time.sleep(linger + 0.05)  # beyond the adapted linger...
        calls = []
        batcher.submit("fresh", lambda: calls.append(1) or "recomputed")
        assert calls == [1]  # ...so the flight expired and recomputed

    def test_service_latency_stats_expose_the_batcher(self):
        from repro.mechanisms.registry import default_registry
        from repro.service import ExplorationService

        from tests.service.util import small_table

        service = ExplorationService(
            small_table(200),
            budget=1.0,
            registry=default_registry(mc_samples=100),
            seed=0,
            batch_window=0.01,
        )
        stats = service.latency_stats()
        assert stats["batcher"]["window_seconds"] == pytest.approx(0.01)
        assert stats["batcher"]["linger_seconds"] == pytest.approx(0.01)
        assert stats["batcher"]["interarrival_samples"] == 0.0


class TestServiceCoalescing:
    def test_identical_cold_previews_build_the_matrix_once(self):
        """N analysts asking one structurally identical cold preview at once
        share one flight: one matrix build, one answer for all."""
        from repro.bench.synthetic import build_bench_table, build_bench_workload
        from repro.core.accuracy import AccuracySpec
        from repro.mechanisms.registry import default_registry
        from repro.queries.query import WorkloadCountingQuery
        from repro.queries.workload import (
            Workload,
            clear_matrix_cache,
            matrix_cache_stats,
        )
        from repro.service import ExplorationService

        n_threads = 8
        table = build_bench_table(2_000, seed=7)
        workload = build_bench_workload(16, n_amount_cuts=6)
        accuracy = AccuracySpec(alpha=0.05 * len(table), beta=5e-4)
        clear_matrix_cache()
        # A generous window: a thread that arrives after the leader finished
        # still joins the lingering flight instead of recomputing.
        service = ExplorationService(
            table,
            budget=10.0,
            registry=default_registry(mc_samples=200),
            seed=5,
            batch_window=2.0,
        )
        for i in range(n_threads):
            service.register_analyst(f"a-{i}")
        barrier = threading.Barrier(n_threads)
        previews = [None] * n_threads

        def ask(i):
            # Structurally equal but distinct objects, as independent
            # analysts would send them.
            query = WorkloadCountingQuery(
                Workload(list(workload.predicates), list(workload.names)),
                name="batch-wcq",
            )
            barrier.wait()
            previews[i] = service.preview_cost(f"a-{i}", query, accuracy)

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert previews[0] is not None
        assert all(p == previews[0] for p in previews)
        assert matrix_cache_stats()["built"] == 1
        stats = service.stats()["batching"]
        assert stats["computed"] == 1
        assert stats["coalesced"] == n_threads - 1
