"""Torn-multi-field-read pins for every ``stats()``-style snapshot.

A multi-field snapshot is *torn* when its fields are read at different
instants: a reader can then observe, say, a ``count`` from before an
update and a ``sum`` from after it.  The tests here pin that
:meth:`LRUCache.stats` reads all counters in one critical section, *and*
pin the already-atomic snapshots in
:class:`RequestBatcher.stats` and
:meth:`ExplorationService.latency_stats`, so that a future refactor
moving any of those reads outside their lock fails loudly instead of
silently re-introducing the race.

Detector design: writers only ever publish values for which a sharp
cross-field identity holds (e.g. every latency sample is exactly ``0.5``
seconds, so ``mean == max == 0.5`` in *every* untorn snapshot; binary
fractions keep the arithmetic exact).  Any snapshot mixing fields from
two instants breaks the identity.
"""

import sys
import threading

import pytest

from repro.core.lru import LRUCache

#: Preempt aggressively inside snapshot windows (default is 5 ms).
FAST_SWITCH = 1e-5


@pytest.fixture(autouse=True)
def aggressive_preemption():
    old = sys.getswitchinterval()
    sys.setswitchinterval(FAST_SWITCH)
    yield
    sys.setswitchinterval(old)


class TestLRUCacheStatsSnapshot:
    def test_snapshot_is_internally_consistent_under_writers(self):
        """``inserts - evictions == size`` must hold in every snapshot taken
        while writers churn the cache: the whole counter block is read in
        one critical section."""
        cache = LRUCache(32)
        stop = threading.Event()
        errors = []

        def writer(tid):
            i = 0
            while not stop.is_set():
                i += 1
                cache.put((tid, i % 64), i)

        writers = [
            threading.Thread(target=writer, args=(t,)) for t in range(2)
        ]
        for t in writers:
            t.start()
        try:
            for _ in range(2_000):
                snap = cache.stats()
                if snap["inserts"] - snap["evictions"] != snap["size"]:
                    errors.append(snap)
                    break
        finally:
            stop.set()
            for t in writers:
                t.join()
        assert not errors, errors[:1]


class TestBatcherStatsSnapshot:
    def test_counters_snapshot_atomically_under_traffic(self):
        """Every flight retires as exactly one of ``computed``/``failed``,
        and each follower adds exactly one ``coalesced`` -- so in an untorn
        snapshot ``computed + failed <= leaders_started`` and the counter
        triple is monotone.  A torn read shows up as a snapshot whose
        triple regresses against an earlier one."""
        from repro.service.batching import RequestBatcher

        batcher = RequestBatcher(window=0.0)
        stop = threading.Event()
        errors = []
        gate = threading.Event()

        def traffic(tid):
            while not stop.is_set():
                # One shared key: concurrent submits coalesce; leader blocks
                # on the gate long enough for followers to pile on.
                gate.clear()
                try:
                    batcher.submit("k", lambda: gate.wait(0.0005) or tid)
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(repr(exc))

        workers = [
            threading.Thread(target=traffic, args=(t,)) for t in range(3)
        ]
        for t in workers:
            t.start()
        prev = None
        try:
            for _ in range(2_000):
                snap = batcher.stats()
                triple = (snap["computed"], snap["coalesced"], snap["failed"])
                if any(v < 0 for v in triple):
                    errors.append(("negative", snap))
                    break
                if prev is not None and any(
                    a < b for a, b in zip(triple, prev)
                ):
                    errors.append(("regressed", prev, triple))
                    break
                prev = triple
        finally:
            stop.set()
            gate.set()
            for t in workers:
                t.join()
        assert not errors, errors[:1]
        final = batcher.stats()
        assert final["computed"] + final["failed"] >= 1


class TestLatencyStatsSnapshot:
    def test_constant_samples_pin_mean_equals_max(self):
        """All latency samples are exactly ``0.5`` (a binary fraction), so
        every untorn ``latency_stats`` snapshot must report
        ``mean_seconds == max_seconds == 0.5`` bit-for-bit whenever
        ``count > 0``.  A count/sum pair read at different instants breaks
        the equality."""
        from repro.mechanisms.registry import default_registry
        from repro.service import ExplorationService
        from tests.service.util import small_table

        service = ExplorationService(
            small_table(64),
            budget=1.0,
            registry=default_registry(mc_samples=50),
            seed=0,
            batch_window=0.0,
        )
        stop = threading.Event()
        errors = []

        def recorder():
            while not stop.is_set():
                service._note_latency("explore", 0.5)

        writers = [threading.Thread(target=recorder) for _ in range(2)]
        for t in writers:
            t.start()
        try:
            seen_nonzero = False
            for _ in range(2_000):
                snap = service.latency_stats()["explore"]
                if snap["count"]:
                    seen_nonzero = True
                    if snap["mean_seconds"] != 0.5 or snap["max_seconds"] != 0.5:
                        errors.append(snap)
                        break
        finally:
            stop.set()
            for t in writers:
                t.join()
        assert not errors, errors[:1]
        assert seen_nonzero
