"""HISTEX-style adversarial interleavings over the single-lock LRU.

Each test builds a *seeded* history: every thread derives its operation
schedule from ``random.Random(seed + thread_id)``, threads are paced by a
:class:`threading.Barrier` so each round genuinely overlaps, and the
interpreter's switch interval is lowered so the scheduler preempts inside
key comparisons.  The assertions are the cache's documented
contract:

* **no torn reads** -- a returned value is always one consistently
  published object (readers check internal self-consistency of every
  value they observe);
* **no stale value for a newer pinned token** -- keys embed their version
  token (the repo-wide discipline), so a reader that pinned version ``v``
  must only ever observe values built for ``v``;
* **eviction counters conserved** -- every ``stats()`` snapshot satisfies
  ``inserts - evictions == size`` even while writers run, and the hit and
  miss counters add up to exactly the number of ``get`` calls.
"""

import random
import sys
import threading

import pytest

from repro.core.lru import LRUCache

#: Preempt aggressively (default is 5 ms).
FAST_SWITCH = 1e-5


@pytest.fixture(autouse=True)
def aggressive_preemption():
    old = sys.getswitchinterval()
    sys.setswitchinterval(FAST_SWITCH)
    yield
    sys.setswitchinterval(old)


def run_threads(workers):
    threads = [threading.Thread(target=w) for w in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class SlowKey:
    """A key whose equality check invites preemption mid-``dict`` probe.

    ``dict.get`` compares keys inside one C call, but a Python ``__eq__``
    re-enters the interpreter -- exactly the window an adversarial
    schedule needs to preempt a thread inside a cache operation.
    """

    __slots__ = ("ident",)

    def __init__(self, ident):
        self.ident = ident

    def __hash__(self):
        return hash(self.ident)

    def __eq__(self, other):
        if isinstance(other, SlowKey):
            for _ in range(3):  # a few extra bytecodes to preempt inside
                pass
            return self.ident == other.ident
        return NotImplemented


class TestAdversarialInterleavings:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_torn_values_and_conserved_counters(self, seed):
        """Barrier-paced readers/writers/evictors, seeded schedules."""
        cache = LRUCache(64)
        keyspace = [SlowKey(i) for i in range(128)]  # > capacity: evictions
        n_readers, n_writers, rounds, ops = 3, 2, 8, 120
        barrier = threading.Barrier(n_readers + n_writers + 1)
        errors = []
        get_counts = []

        def reader(tid):
            rng = random.Random(seed * 1_000 + tid)
            gets = 0
            try:
                for _ in range(rounds):
                    barrier.wait()
                    for _ in range(ops):
                        key = keyspace[rng.randrange(len(keyspace))]
                        value = cache.get(key)
                        gets += 1
                        if value is not None:
                            # Torn-read check: the value triple must be the
                            # consistent object its writer published.
                            ident, a, b = value
                            if ident != key.ident or a != b:
                                errors.append(("torn", key.ident, value))
            except Exception as exc:  # pragma: no cover - diagnostic path
                errors.append(("reader-raise", tid, repr(exc)))
            get_counts.append(gets)

        def writer(tid):
            rng = random.Random(seed * 2_000 + tid)
            try:
                for _ in range(rounds):
                    barrier.wait()
                    for _ in range(ops):
                        key = keyspace[rng.randrange(len(keyspace))]
                        gen = rng.randrange(1 << 30)
                        cache.put(key, (key.ident, gen, gen))
            except Exception as exc:  # pragma: no cover - diagnostic path
                errors.append(("writer-raise", tid, repr(exc)))

        def evictor():
            # The eviction adversary: floods fresh keys through the LRU
            # tails while auditing a live stats() snapshot each round --
            # the torn-multi-field-read regression check under real
            # concurrent mutation.
            try:
                for r in range(rounds):
                    barrier.wait()
                    for i in range(ops // 2):
                        ident = 10_000 + r * ops + i
                        cache.put(SlowKey(ident), (ident, 0, 0))
                    snap = cache.stats()
                    if snap["inserts"] - snap["evictions"] != snap["size"]:
                        errors.append(("conservation", snap))
            except Exception as exc:  # pragma: no cover - diagnostic path
                errors.append(("evictor-raise", repr(exc)))

        run_threads(
            [lambda t=t: reader(t) for t in range(n_readers)]
            + [lambda t=t: writer(t) for t in range(n_writers)]
            + [evictor]
        )
        assert not errors, errors[:5]
        stats = cache.stats()
        # Every counter is exact; conservation must hold at rest.
        assert stats["inserts"] - stats["evictions"] == stats["size"]
        assert stats["evictions"] > 0, "the schedule must exercise eviction"
        assert stats["hits"] + stats["misses"] == sum(get_counts)

    def test_no_stale_value_for_newer_pinned_token(self):
        """The version-token discipline under churn: a reader that pinned
        version ``v`` keys its lookup on ``v`` and must only ever observe a
        value built for ``v`` -- across overwrites and eviction."""
        cache = LRUCache(32)
        current_version = [0]
        stop = threading.Event()
        errors = []

        def mutator():
            # Advances the "table version" and publishes artifacts for the
            # new version, exactly like a refresh invalidating by re-keying.
            for version in range(1, 400):
                current_version[0] = version
                for name in ("a", "b", "c"):
                    cache.put((name, version), (name, version))

        def pinned_reader(tid):
            rng = random.Random(tid)
            while not stop.is_set():
                version = current_version[0]  # pin
                name = rng.choice(("a", "b", "c"))
                value = cache.get((name, version))
                if value is not None and value != (name, version):
                    errors.append((name, version, value))

        readers = [lambda t=t: pinned_reader(t) for t in range(3)]
        threads = [threading.Thread(target=r) for r in readers]
        for t in threads:
            t.start()
        mutator()
        stop.set()
        for t in threads:
            t.join()
        assert not errors, errors[:5]
