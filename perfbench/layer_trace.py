"""In-memory span recorder and per-layer instrumentation for the benchmark.

The benchmark measures the program from outside: in a traced run it wraps
the public entry points of each layer (``data``, ``queries``,
``mechanisms``, ``core``, ``service``, ``store``) with thin functions that
record one span per call.  Nothing inside ``src/`` is changed; untraced runs
install no wrappers at all, so they pay nothing.

A span carries a name, start and end (``perf_counter`` seconds), the id of
its parent span on the same thread, and the id of the analyst request it
belongs to.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

LAYERS = ("data", "queries", "mechanisms", "core", "service", "store")

#: The span that marks the service's own entry point.  Its self time is
#: admission, locking and latency bookkeeping; every other layer span is
#: "named work" for the coverage figure.
SERVICE_ENTRY = "service.request"


@dataclass(slots=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None


class SpanRecorder:
    """Collects spans from every thread; parents come from a per-thread stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.errors: Counter[str] = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def request(self, request_id: int, name: str) -> Iterator[None]:
        """Root span of one analyst request."""
        self._local.request = request_id
        try:
            with self.span(name):
                yield
        finally:
            self._local.request = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        except BaseException:
            self.errors[name.split(".", 1)[0]] += 1
            raise
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                Span(span_id, name, start, end, parent,
                     getattr(self._local, "request", None))
            )

    def dump(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "header": header,
                    "spans": [
                        [s.span_id, s.name, s.start, s.end, s.parent, s.request]
                        for s in self.spans
                    ],
                    "span_fields": ["id", "name", "start", "end", "parent", "request"],
                },
                fh,
            )


# -- instrumentation -----------------------------------------------------------


def _wrap(recorder: SpanRecorder, func: Callable, name: str | Callable) -> Callable:
    if callable(name):
        span_name = name

        def wrapper(self, *args, **kwargs):
            with recorder.span(span_name(self)):
                return func(self, *args, **kwargs)
    else:

        def wrapper(*args, **kwargs):
            with recorder.span(name):
                return func(*args, **kwargs)

    wrapper.__wrapped__ = func  # type: ignore[attr-defined]
    wrapper.__name__ = getattr(func, "__name__", "wrapped")
    return wrapper


def instrumentation_points() -> list[tuple[type, str, str | Callable]]:
    """``(class, attribute, span name)`` for every wrapped public call."""
    from repro.core.translator import AccuracyTranslator
    from repro.data.table import Table
    from repro.mechanisms.laplace import LaplaceMechanism
    from repro.mechanisms.multi_poking import MultiPokingMechanism
    from repro.mechanisms.noisy_topk import LaplaceTopKMechanism
    from repro.mechanisms.strategies import StrategyMatrix
    from repro.mechanisms.strategy_mechanism import (
        IcebergStrategyMechanism,
        StrategyMechanism,
    )
    from repro.queries.workload import Workload, WorkloadMatrix
    from repro.service.batching import RequestBatcher
    from repro.service.budget import SessionLedger, SharedBudgetPool
    from repro.service.exploration import ExplorationService
    from repro.store import ArtifactStore

    def run_name(mechanism) -> str:
        return f"mechanisms.run.{mechanism.name}"

    points: list[tuple[type, str, str | Callable]] = [
        (Table, "snapshot", "data.snapshot"),
        (WorkloadMatrix, "from_domain_analysis", "queries.domain_analysis"),
        (WorkloadMatrix, "partition_histogram", "queries.partition_histogram"),
        (Workload, "evaluate", "queries.evaluate"),
        (StrategyMatrix, "reconstruction", "mechanisms.reconstruction"),
        (StrategyMechanism, "translate", "mechanisms.sm_search"),
        (IcebergStrategyMechanism, "translate", "mechanisms.sm_search"),
        (AccuracyTranslator, "translations", "core.translate"),
        (AccuracyTranslator, "choose", "core.translate"),
        (SessionLedger, "reserve", "core.reserve"),
        (SessionLedger, "charge", "core.charge"),
        (ExplorationService, "preview_cost", SERVICE_ENTRY),
        (ExplorationService, "explore", SERVICE_ENTRY),
        (RequestBatcher, "submit", "service.batcher_submit"),
        (SharedBudgetPool, "commit", "service.commit"),
        (SharedBudgetPool, "commit_batched", "service.commit"),
        (ArtifactStore, "save", "store.save"),
        (ArtifactStore, "load", "store.load"),
    ]
    for cls in (
        LaplaceMechanism,
        StrategyMechanism,
        IcebergStrategyMechanism,
        MultiPokingMechanism,
        LaplaceTopKMechanism,
    ):
        points.append((cls, "run", run_name))
    return points


def instrument(recorder: SpanRecorder) -> Callable[[], None]:
    """Wrap every instrumentation point; returns the function that undoes it."""
    undo: list[tuple[type, str, object]] = []
    for cls, attr, name in instrumentation_points():
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            patched: object = classmethod(_wrap(recorder, original.__func__, name))
        else:
            patched = _wrap(recorder, original, name)
        setattr(cls, attr, patched)
        undo.append((cls, attr, original))

    def restore() -> None:
        for cls, attr, original in reversed(undo):
            setattr(cls, attr, original)

    return restore


# -- analysis --------------------------------------------------------------------


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children.

    Children are recorded on the parent's own thread and nest strictly, so
    their durations never overlap and their sum is the covered interval.
    """
    spans = list(spans)
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    return {s.span_id: (s.end - s.start) - child_time[s.span_id] for s in spans}


def layer_summary(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count and total self time (seconds)."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for span in spans:
        entry = out[span.name]
        entry["calls"] += 1
        entry["self_s"] += own[span.span_id]
    return dict(out)


def request_coverage(spans: list[Span], root_names: Iterable[str]) -> list[float]:
    """Per request root: share of its wall time spent inside layer spans below
    the service entry point (i.e. attributed to a specific inner layer)."""
    roots = set(root_names)
    own = self_times(spans)
    by_request: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.request is not None:
            by_request[span.request].append(span)
    shares = []
    for members in by_request.values():
        root = next((s for s in members if s.name in roots and s.parent is None), None)
        if root is None:
            continue
        wall = root.end - root.start
        if wall <= 0:
            continue
        unattributed = own[root.span_id] + sum(
            own[s.span_id] for s in members if s.name == SERVICE_ENTRY
        )
        shares.append(max(0.0, 1.0 - unattributed / wall))
    return shares
