"""Single-flight request coalescing."""

import threading
import time

from repro.service.batching import RequestBatcher


class TestRequestBatcher:
    def test_concurrent_identical_requests_compute_once(self):
        batcher = RequestBatcher()
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
        batcher = RequestBatcher()
        assert batcher.submit("a", lambda: 1) == 1
        assert batcher.submit("b", lambda: 2) == 2
        assert batcher.stats()["computed"] == 2
        assert batcher.stats()["coalesced"] == 0

    def test_sequential_requests_recompute(self):
        """The batcher is not a cache: flights end when the leader finishes."""
        batcher = RequestBatcher()
        values = iter([10, 20])
        assert batcher.submit("k", lambda: next(values)) == 10
        assert batcher.submit("k", lambda: next(values)) == 20

    def test_leader_never_sleeps_before_computing(self):
        """A lone caller's latency is its compute time."""
        batcher = RequestBatcher()
        start = time.perf_counter()
        assert batcher.submit("k", lambda: "warm") == "warm"
        assert time.perf_counter() - start < 1.0

    def test_leader_failure_propagates_to_followers(self):
        batcher = RequestBatcher()
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
        # The key is retired with the flight: a retry computes fresh.
        assert batcher.submit("key", lambda: "ok") == "ok"

    def test_followers_raise_distinct_exception_copies(self):
        """Concurrent re-raises must not fight over one shared traceback."""
        batcher = RequestBatcher()
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

    def test_window_zero_still_coalesces_in_flight_requests(self):
        batcher = RequestBatcher()
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


class TestServiceCoalescing:
    def test_identical_cold_previews_build_the_matrix_once(self, monkeypatch):
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
        from repro.service import ExplorationService, batching

        n_threads = 8
        table = build_bench_table(2_000, seed=7)
        workload = build_bench_workload(16, n_amount_cuts=6)
        accuracy = AccuracySpec(alpha=0.05 * len(table), beta=5e-4)
        clear_matrix_cache()

        # The leader's matrix build is held until every other request has
        # attached to its flight (is waiting on the flight's event), so the
        # flight is still in progress when each of them arrives.
        building = threading.Event()
        release = threading.Event()
        waiting = []
        waiting_lock = threading.Lock()
        analyze = Workload.analyze

        def held_analyze(self, *args, **kwargs):
            building.set()
            release.wait(timeout=30)
            return analyze(self, *args, **kwargs)

        class CountingEvent(threading.Event):
            def wait(self, timeout=None):
                with waiting_lock:
                    waiting.append(threading.get_ident())
                return super().wait(timeout)

        class CountingFlight(batching._Flight):
            __slots__ = ()

            def __init__(self):
                super().__init__()
                self.done = CountingEvent()

        monkeypatch.setattr(Workload, "analyze", held_analyze)
        monkeypatch.setattr(batching, "_Flight", CountingFlight)
        service = ExplorationService(
            table,
            budget=10.0,
            registry=default_registry(mc_samples=200),
            seed=5,
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
        assert building.wait(timeout=30)
        deadline = time.monotonic() + 30
        while len(waiting) < n_threads - 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        release.set()
        for t in threads:
            t.join()

        assert len(waiting) == n_threads - 1
        assert previews[0] is not None
        assert all(p == previews[0] for p in previews)
        assert matrix_cache_stats()["built"] == 1
        stats = service.stats()["batching"]
        assert stats["computed"] == 1
        assert stats["coalesced"] == n_threads - 1
