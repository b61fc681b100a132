"""Tracing battery: tree shape, sampling, propagation, batcher coalesce edges."""

import threading
import time

import pytest

from repro.obs.tracing import (
    Tracer,
    annotate,
    bind_current,
    current_span,
    get_tracer,
    install_tracer,
    root_span,
    span,
    span_tree,
)


@pytest.fixture
def tracer():
    installed = Tracer(1.0, keep_traces=32, seed=0)
    previous = install_tracer(installed)
    yield installed
    install_tracer(previous)


@pytest.fixture
def no_tracer():
    previous = install_tracer(None)
    yield
    install_tracer(previous)


class TestSpanTreeShape:
    def test_nested_spans_form_one_tree(self, tracer):
        with root_span("svc.request", analyst="a0") as root:
            with span("svc.step_one") as one:
                with span("svc.inner") as inner:
                    pass
            with span("svc.step_two") as two:
                pass
        (trace,) = tracer.drain()
        by_name = {s["name"]: s for s in trace}
        assert by_name["svc.request"]["parent_id"] is None
        assert by_name["svc.step_one"]["parent_id"] == root.span_id
        assert by_name["svc.inner"]["parent_id"] == one.span_id
        assert by_name["svc.step_two"]["parent_id"] == root.span_id
        assert by_name["svc.request"]["attributes"] == {"analyst": "a0"}
        assert {one.span_id, two.span_id, inner.span_id} <= {
            s["span_id"] for s in trace
        }
        # Spans publish in completion order; the root always lands last.
        assert trace[-1]["name"] == "svc.request"

    def test_span_tree_helper_orders_by_depth_and_start(self, tracer):
        with root_span("svc.request"):
            with span("svc.a"):
                with span("svc.a_child"):
                    pass
            with span("svc.b"):
                pass
        (trace,) = tracer.drain()
        walked = [(depth, s["name"]) for depth, s in span_tree(trace)]
        assert walked == [
            (0, "svc.request"),
            (1, "svc.a"),
            (2, "svc.a_child"),
            (1, "svc.b"),
        ]

    def test_nested_entry_points_degrade_to_one_tree(self, tracer):
        """Stacked root_span calls (async front over service over engine)
        must produce a single trace, not three."""
        with root_span("async.request"):
            with root_span("service.explore"):
                with root_span("engine.explore"):
                    pass
        traces = tracer.drain()
        assert len(traces) == 1
        names = {s["name"] for s in traces[0]}
        assert names == {"async.request", "service.explore", "engine.explore"}
        stats = tracer.stats()
        assert stats["roots_started"] == 1.0
        assert stats["roots_sampled"] == 1.0

    def test_exception_stamps_error_attribute(self, tracer):
        with pytest.raises(RuntimeError):
            with root_span("svc.request"):
                with span("svc.boom"):
                    raise RuntimeError("kaput")
        (trace,) = tracer.drain()
        by_name = {s["name"]: s for s in trace}
        assert by_name["svc.boom"]["attributes"]["error"] == "RuntimeError"
        assert by_name["svc.request"]["attributes"]["error"] == "RuntimeError"
        assert all(s["end"] is not None for s in trace)

    def test_annotate_targets_the_current_span(self, tracer):
        with root_span("svc.request"):
            with span("svc.translate"):
                annotate("cache_tier", "built")
            annotate("outcome", "answered")
        (trace,) = tracer.drain()
        by_name = {s["name"]: s for s in trace}
        assert by_name["svc.translate"]["attributes"] == {"cache_tier": "built"}
        assert by_name["svc.request"]["attributes"] == {"outcome": "answered"}


class TestSamplingAndDisabledPath:
    def test_no_tracer_means_shared_noop(self, no_tracer):
        assert get_tracer() is None
        handle = root_span("svc.request")
        assert handle is span("svc.child")
        with handle as entered:
            assert entered is None
        annotate("key", "value")  # must not raise
        assert current_span() is None

    def test_zero_rate_counts_roots_but_keeps_nothing(self, no_tracer):
        tracer = Tracer(0.0, seed=0)
        install_tracer(tracer)
        for _ in range(5):
            with root_span("svc.request"):
                with span("svc.child"):
                    pass
        assert tracer.drain() == []
        stats = tracer.stats()
        assert stats["roots_started"] == 5.0
        assert stats["roots_sampled"] == 0.0

    def test_head_sampling_keeps_whole_traces(self, no_tracer):
        tracer = Tracer(0.5, seed=7)
        install_tracer(tracer)
        for _ in range(40):
            with root_span("svc.request"):
                with span("svc.child"):
                    pass
        traces = tracer.drain()
        stats = tracer.stats()
        assert 0 < len(traces) < 40
        assert stats["roots_sampled"] == float(len(traces))
        # A kept trace is always complete: sampling is decided at the root.
        for trace in traces:
            assert {s["name"] for s in trace} == {"svc.request", "svc.child"}

    def test_bind_current_returns_fn_unchanged_when_off(self, no_tracer):
        def fn():
            return 42

        assert bind_current(fn) is fn

    def test_invalid_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(1.5)

    def test_ring_is_bounded(self, no_tracer):
        tracer = Tracer(1.0, keep_traces=4, seed=0)
        install_tracer(tracer)
        for i in range(10):
            with root_span("svc.request", index=i):
                pass
        traces = tracer.drain()
        assert len(traces) == 4
        assert [t[0]["attributes"]["index"] for t in traces] == [6, 7, 8, 9]


class TestCrossThreadPropagation:
    def test_bind_current_joins_worker_spans_to_the_trace(self, tracer):
        results = []

        def work():
            with span("svc.worker"):
                results.append(current_span().name)

        with root_span("svc.request") as root:
            bound = bind_current(work)
            worker = threading.Thread(target=bound)
            worker.start()
            worker.join()
        (trace,) = tracer.drain()
        by_name = {s["name"]: s for s in trace}
        assert results == ["svc.worker"]
        assert by_name["svc.worker"]["parent_id"] == root.span_id
        assert by_name["svc.worker"]["thread_id"] != root.thread_id

    def test_parallel_executor_submit_propagates_context(self, tracer):
        from repro.core.parallel import ParallelExecutor

        def work(index):
            with span("svc.chunk", index=index):
                pass
            return index

        executor = ParallelExecutor(max_workers=2)
        try:
            with root_span("svc.request") as root:
                futures = [executor.submit(work, i) for i in (0, 1)]
                assert [f.result() for f in futures] == [0, 1]
        finally:
            executor.shutdown()
        (trace,) = tracer.drain()
        chunks = [s for s in trace if s["name"] == "svc.chunk"]
        assert len(chunks) == 2
        assert all(c["parent_id"] == root.span_id for c in chunks)


class TestBatcherCoalesceEdges:
    def test_follower_spans_carry_the_leader_identity(self, tracer):
        """Concurrent submits for one key: the leader's flight records its
        (trace, span) identity, and every follower's ``batch.follower`` span
        is annotated with it -- the coalesce edge the Chrome exporter renders
        as a flow arrow."""
        from repro.service.batching import RequestBatcher

        batcher = RequestBatcher(window=0.0)
        n_followers = 3
        leader_entered = threading.Event()
        release = threading.Event()
        results = []

        def compute():
            leader_entered.set()
            release.wait(2.0)
            return "value"

        def request(index):
            with root_span("service.request", index=index):
                results.append(batcher.submit("key", compute))

        threads = [
            threading.Thread(target=request, args=(i,))
            for i in range(1 + n_followers)
        ]
        threads[0].start()
        leader_entered.wait(2.0)
        for t in threads[1:]:
            t.start()
        # Wait for the followers to actually coalesce onto the flight.
        for _ in range(2_000):
            if batcher.stats()["coalesced"] >= n_followers:
                break
            time.sleep(0.001)
        release.set()
        for t in threads:
            t.join()

        assert results == ["value"] * (1 + n_followers)
        traces = tracer.drain()
        assert len(traces) == 1 + n_followers
        leaders = [
            s
            for trace in traces
            for s in trace
            if s["name"] == "batch.leader"
        ]
        followers = [
            s
            for trace in traces
            for s in trace
            if s["name"] == "batch.follower"
        ]
        assert len(leaders) == 1
        leader = leaders[0]
        assert len(followers) == n_followers
        for follower in followers:
            assert follower["attributes"]["batch.leader_span"] == leader["span_id"]
            assert (
                follower["attributes"]["batch.leader_trace"] == leader["trace_id"]
            )
            # The coalesce edge crosses trace boundaries by design.
            assert follower["trace_id"] != leader["trace_id"]


class TestServiceSpans:
    def test_cold_preview_produces_the_acceptance_chain(self, tracer):
        from repro.mechanisms.registry import default_registry
        from repro.service import ExplorationService
        from repro.core.accuracy import AccuracySpec
        from repro.queries.builders import cumulative_histogram_workload
        from repro.queries.query import WorkloadCountingQuery
        from tests.service.util import small_table

        service = ExplorationService(
            small_table(256),
            budget=10.0,
            registry=default_registry(mc_samples=50),
            seed=0,
            batch_window=0.0,
        )
        service.register_analyst("a-0")
        # Nested bins make WCQ-SM the cheapest mechanism, so the explore
        # builds the partition histogram its strategy answers run on.
        query = WorkloadCountingQuery(
            cumulative_histogram_workload("amount", start=0, stop=10_000, bins=4),
            name="trace-q",
        )
        accuracy = AccuracySpec(alpha=8.0, beta=1e-3)
        service.preview_cost("a-0", query, accuracy)
        (trace,) = tracer.drain()
        names = {s["name"] for s in trace}
        assert {
            "service.preview_cost",
            "service.admission",
            "service.snapshot_pin",
            "batch.leader",
            "engine.preview_cost",
            "engine.translate",
            "workload.matrix_build",
            "wcqsm.search",
        } <= names
        translate = next(s for s in trace if s["name"] == "engine.translate")
        assert translate["attributes"]["cache_tier"] == "built"

        service.explore("a-0", query, accuracy)
        (trace,) = tracer.drain()
        names = {s["name"] for s in trace}
        assert {
            "service.explore",
            "service.admission",
            "service.snapshot_pin",
            "engine.explore",
            "engine.translate",
            "engine.reserve",
            "mechanism.run",
            "workload.partition_histogram",
            "engine.commit",
        } <= names
        translate = next(s for s in trace if s["name"] == "engine.translate")
        assert translate["attributes"]["cache_tier"] == "exact"
        histogram = next(
            s for s in trace if s["name"] == "workload.partition_histogram"
        )
        assert histogram["attributes"] == {"rows": 256, "partitions": 4}

        # A second explore at the same version hits the histogram cache and
        # opens no histogram span.
        service.explore("a-0", query, accuracy)
        (trace,) = tracer.drain()
        names = {s["name"] for s in trace}
        assert "mechanism.run" in names
        assert "workload.partition_histogram" not in names

    def test_cache_tier_labels_match_the_translator_counters(self, tracer):
        """Every translation tier a span reports is one the translator
        counted, and vice versa: label tallies equal counter deltas."""
        from repro.core.accuracy import AccuracySpec
        from repro.mechanisms.registry import default_registry
        from repro.queries.builders import histogram_workload
        from repro.queries.query import WorkloadCountingQuery
        from repro.service import ExplorationService
        from tests.service.util import small_table

        table = small_table(256)
        service = ExplorationService(
            table,
            budget=10.0,
            registry=default_registry(mc_samples=50),
            seed=0,
            batch_window=0.0,
        )
        service.register_analyst("a-0")
        query = WorkloadCountingQuery(
            histogram_workload("amount", start=0, stop=10_000, bins=4),
            name="tier-q",
        )
        accuracy = AccuracySpec(alpha=8.0, beta=1e-3)
        counters = {
            "exact": "hits",
            "revalidated": "revalidated",
            "disk": "disk_hits",
            "built": "built",
        }
        before = dict(service.stats()["translations"])
        service.preview_cost("a-0", query, accuracy)  # built
        service.preview_cost("a-0", query, accuracy)  # exact
        # ``amount`` is numeric: appending rows keeps its domain, so the
        # next preview re-tags the cached translation.
        service.append_rows("default", [table.row(i) for i in range(8)])
        service.preview_cost("a-0", query, accuracy)  # revalidated
        after = dict(service.stats()["translations"])

        labels = {tier: 0 for tier in counters}
        for trace in tracer.drain():
            for s in trace:
                tier = s["attributes"].get("cache_tier")
                if tier is not None:
                    labels[tier] += 1
        deltas = {
            tier: int(after[name]) - int(before[name])
            for tier, name in counters.items()
        }
        assert labels == deltas
        assert labels == {"exact": 1, "revalidated": 1, "disk": 0, "built": 1}
