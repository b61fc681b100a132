"""TieredMemo: the one exact -> revalidated -> disk -> build ladder."""

import pytest

from repro.obs.registry import Counter
from repro.obs.tracing import Tracer, install_tracer, root_span
from repro.store.memo import TieredMemo

TIERS = ("built", "revalidated", "disk_hits", "disk_writes")


class FakeStore:
    """An in-memory stand-in for ArtifactStore that records every call."""

    def __init__(self, save_ok: bool = True) -> None:
        self.entries: dict = {}
        self.calls: list = []
        self.save_ok = save_ok

    def load(self, kind, digest):
        self.calls.append(("load", kind, digest))
        return self.entries.get((kind, digest))

    def save(self, kind, digest, payload):
        self.calls.append(("save", kind, digest))
        if self.save_ok:
            self.entries[(kind, digest)] = payload
        return self.save_ok


def make_memo(max_entries: int = 8, revalidate: bool = True) -> TieredMemo:
    tiers = TIERS if revalidate else ("built", "disk_hits", "disk_writes")
    return TieredMemo(
        "thing", "thing_tier", max_entries, {tier: Counter() for tier in tiers}
    )


def tiers_of(memo: TieredMemo) -> dict:
    stats = memo.stats()
    return {tier: stats[tier] for tier in TIERS if tier in stats}


def lookup(memo, key, value="v", *, domain=None, store=None, digest="d1", **kwargs):
    """One lookup whose build returns ``value`` (recorded in ``builds``)."""
    builds = kwargs.pop("builds", [])

    def build():
        builds.append(key)
        return value

    return memo.lookup(
        key,
        build,
        domain_key=None if domain is None else (lambda: domain),
        store=store,
        digest=lambda: digest,
        decode=kwargs.pop("decode", lambda payload, _: payload),
        **kwargs,
    )


@pytest.fixture
def tracer():
    installed = Tracer(1.0, keep_traces=64, seed=0)
    previous = install_tracer(installed)
    yield installed
    install_tracer(previous)


def labels(tracer) -> list:
    return [
        s["attributes"].get("thing_tier")
        for trace in tracer.drain()
        for s in trace
        if s["name"] == "req"
    ]


class TestTierOrder:
    def test_exact_then_revalidated_then_disk_then_build(self, tracer):
        store = FakeStore()
        memo = make_memo()
        builds = []
        with root_span("req"):
            assert lookup(memo, "k1", "A", domain="d", store=store, builds=builds) == "A"
        with root_span("req"):
            assert lookup(memo, "k1", "B", domain="d", store=store, builds=builds) == "A"
        # Another version, same domains: re-tagged under the new exact key.
        with root_span("req"):
            assert lookup(memo, "k2", "C", domain="d", store=store, builds=builds) == "A"
        with root_span("req"):
            assert lookup(memo, "k2", "D", builds=builds) == "A"
        # A fresh process (new memo) over the same store: the disk answers.
        fresh = make_memo()
        with root_span("req"):
            assert lookup(fresh, "k3", "E", domain="e", store=store, builds=builds) == "A"
        with root_span("req"):
            assert lookup(fresh, "k3", "F", builds=builds) == "A"
        # The disk hit filled the revalidation tier too.
        with root_span("req"):
            assert lookup(fresh, "k4", "G", domain="e", builds=builds) == "A"

        assert builds == ["k1"]
        assert labels(tracer) == [
            "built", "exact", "revalidated", "exact", "disk", "exact", "revalidated",
        ]
        assert tiers_of(memo) == {
            "built": 1, "revalidated": 1, "disk_hits": 0, "disk_writes": 1,
        }
        assert tiers_of(fresh) == {
            "built": 0, "revalidated": 1, "disk_hits": 1, "disk_writes": 0,
        }
        assert memo.stats()["hits"] == 2
        assert memo.stats()["size"] == 2

    def test_lower_tiers_are_consulted_only_after_an_exact_miss(self):
        memo = make_memo()
        calls = []

        def note(name, value):
            def fn():
                calls.append(name)
                return value
            return fn

        def go():
            return memo.lookup(
                "k",
                lambda: "v",
                domain_key=note("domain_key", "d"),
                store=FakeStore(),
                digest=note("digest", "x"),
                decode=lambda payload, _: payload,
            )

        go()
        assert calls == ["domain_key", "digest"]
        calls.clear()
        go()
        assert calls == []

    def test_none_key_skips_the_memory_tiers(self):
        store = FakeStore()
        memo = make_memo()
        builds = []
        lookup(memo, None, "A", domain="d", store=store, builds=builds)
        assert lookup(memo, None, "B", domain="d", store=store, builds=builds) == "A"
        assert builds == [None]
        assert memo.stats()["size"] == 0
        assert tiers_of(memo)["disk_hits"] == 1

    def test_without_revalidation_the_domain_key_is_never_built(self):
        memo = make_memo(revalidate=False)

        def domain_key():
            raise AssertionError("no revalidation tier")

        memo.lookup("k", lambda: "v", domain_key=domain_key)
        assert memo.peek("k2", domain_key) is False
        assert set(memo.stats()) >= {"built", "disk_hits", "disk_writes"}
        assert "revalidated" not in memo.stats()


class TestDisk:
    def test_undecodable_payload_falls_through_to_build(self, tracer):
        store = FakeStore()
        store.entries[("thing", "d1")] = "garbage"
        memo = make_memo()
        builds = []
        with root_span("req"):
            value = lookup(
                memo,
                "k",
                "fresh",
                store=store,
                builds=builds,
                decode=lambda payload, _: None if payload == "garbage" else payload,
            )
        assert value == "fresh"
        assert builds == ["k"]
        assert labels(tracer) == ["built"]
        assert tiers_of(memo) == {
            "built": 1, "revalidated": 0, "disk_hits": 0, "disk_writes": 1,
        }
        assert store.entries[("thing", "d1")] == "fresh"

    def test_decode_and_encode_receive_the_digest(self):
        store = FakeStore()
        memo = make_memo()
        seen = []

        def encode(value, digest):
            seen.append(("encode", value, digest))
            return {"payload": value}

        def decode(payload, digest):
            seen.append(("decode", payload, digest))
            return payload["payload"]

        memo.lookup("k", lambda: "v", store=store, digest=lambda: "d9",
                    decode=decode, encode=encode)
        make_memo().lookup("k", lambda: "w", store=store, digest=lambda: "d9",
                           decode=decode, encode=encode)
        assert seen == [
            ("encode", "v", "d9"),
            ("decode", {"payload": "v"}, "d9"),
        ]

    def test_no_store_means_no_digest_load_or_save(self):
        memo = make_memo()

        def digest():
            raise AssertionError("no store, no digest")

        assert memo.lookup("k", lambda: "v", digest=digest,
                           decode=lambda p, _: p) == "v"
        assert tiers_of(memo)["disk_writes"] == 0

    def test_none_digest_skips_the_store(self):
        store = FakeStore()
        lookup(make_memo(), "k", store=store, digest=None)
        assert store.calls == []

    def test_without_decode_the_store_is_written_but_never_read(self):
        store = FakeStore()
        memo = make_memo()
        lookup(memo, "k", store=store, decode=None)
        lookup(make_memo(), "k", store=store, decode=None)
        assert [call[0] for call in store.calls] == ["save", "save"]

    def test_encode_none_keeps_the_artifact_off_disk(self):
        store = FakeStore()
        memo = make_memo()
        lookup(memo, "k", store=store, encode=lambda value, _: None)
        assert [call[0] for call in store.calls] == ["load"]
        assert tiers_of(memo)["disk_writes"] == 0

    def test_failed_save_is_not_a_disk_write(self):
        memo = make_memo()
        lookup(memo, "k", store=FakeStore(save_ok=False))
        assert tiers_of(memo)["built"] == 1
        assert tiers_of(memo)["disk_writes"] == 0


class TestPeekStatsClear:
    def test_peek_moves_no_counter_and_no_recency(self):
        memo = make_memo(max_entries=2)
        lookup(memo, "a", "A", domain="da")
        lookup(memo, "b", "B", domain="db")
        before = memo.stats()
        assert memo.peek("a") is True
        assert memo.peek("zzz") is False
        assert memo.peek("a2", lambda: "da") is True
        assert memo.peek("a2", lambda: None) is False
        assert memo.peek(None, lambda: "da") is False
        assert memo.stats() == before
        # "a" is still the least recently used entry: the next insert evicts it.
        lookup(memo, "c", "C")
        assert memo.peek("a") is False
        assert memo.peek("b") is True

    def test_build_that_raises_caches_nothing(self):
        store = FakeStore()
        memo = make_memo()

        def boom():
            raise ValueError("boom")

        with pytest.raises(ValueError):
            memo.lookup("k", boom, domain_key=lambda: "d", store=store,
                        digest=lambda: "d1", decode=lambda p, _: p)
        assert memo.peek("k", lambda: "d") is False
        assert tiers_of(memo) == dict.fromkeys(TIERS, 0)
        assert [call[0] for call in store.calls] == ["load"]
        assert lookup(memo, "k", "ok", domain="d", store=store) == "ok"

    def test_stats_and_clear(self):
        memo = make_memo()
        lookup(memo, "k")
        lookup(memo, "k")
        stats = memo.stats()
        assert set(stats) == {
            "hits", "misses", "size", "puts", "inserts", "evictions", *TIERS,
        }
        assert (stats["hits"], stats["misses"], stats["built"]) == (1, 1, 1)
        memo.clear()
        assert memo.peek("k") is False
        assert set(memo.stats().values()) == {0}
