"""An asyncio-compatible front end over :class:`ExplorationService`.

The threaded service is blocking by design: ``explore`` runs a mechanism,
``preview_cost`` may sit in the :class:`~repro.service.batching.RequestBatcher`
collection window.  A deployment that holds *thousands* of open analyst
sessions cannot afford a thread per session -- but it doesn't need one:
sessions are idle almost all the time, and the service's own internals
(memo caches, request coalescing) already absorb bursts of concurrent
requests efficiently.

:class:`AsyncExplorationFront` (built by
:meth:`ExplorationService.serve_async`) therefore keeps every *open session*
as a coroutine -- which costs a few hundred bytes, not a stack -- and admits
at most ``max_concurrency`` requests at a time into a bounded thread pool
that runs the blocking service calls.  The admission semaphore is the
**backpressure** boundary: when all slots are busy, further requests queue
on the event loop (cheaply, in arrival order) instead of piling threads onto
the batcher and the budget pool.  ``stats()`` exposes the boundary's
behavior (``in_flight``, ``peak_in_flight``, ``backpressure_waits``).

Budget safety is untouched by the front: every call lands in the same
two-phase reserve/commit protocol, so no degree of async fan-in can
overspend ``B`` (pinned, together with transcript validity, by
``tests/service/test_async_front.py``).

All front counters are mutated only from the event-loop thread, so they
need no lock; the front itself must be used from a single event loop.
"""

from __future__ import annotations

import asyncio
from typing import TYPE_CHECKING

from repro.core.accuracy import AccuracySpec
from repro.core.engine import ExplorationResult
from repro.core.parallel import ParallelExecutor
from repro.obs import tracing
from repro.obs.registry import flatten_stats
from repro.queries.query import Query

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.exploration import (
        AnalystSessionHandle,
        ExplorationService,
    )

__all__ = ["AsyncExplorationFront"]

#: Default admission bound: how many requests may run in service threads at
#: once.  Far below "thousands of sessions" on purpose -- open sessions are
#: cheap coroutines; *running* requests are what must be bounded.
DEFAULT_MAX_CONCURRENCY = 32


def _traced(fn):
    """Wrap a blocking service call so its root span opens worker-side."""

    def run(*args):
        with tracing.root_span("async.request", entry=fn.__name__):
            return fn(*args)

    return run


class AsyncExplorationFront:
    """Async facade: coroutine-per-session, bounded threads per request.

    Built by :meth:`ExplorationService.serve_async`; use as an async
    context manager (or call :meth:`aclose`) so an executor the front
    created for itself is released.

    :param service: the threaded service to front.
    :param max_concurrency: admission bound -- the number of requests
        allowed into the thread pool at once; everything beyond it waits on
        the event loop.
    :param executor: the :class:`~repro.core.parallel.ParallelExecutor`
        that runs the blocking calls.  Defaults to a private pool sized to
        ``max_concurrency`` (the semaphore is then the only queue: an
        admitted request always has a thread).
    """

    def __init__(
        self,
        service: "ExplorationService",
        *,
        max_concurrency: int = DEFAULT_MAX_CONCURRENCY,
        executor: ParallelExecutor | None = None,
    ) -> None:
        if max_concurrency < 1:
            raise ValueError(
                f"max_concurrency must be >= 1, got {max_concurrency}"
            )
        self._service = service
        self._max_concurrency = int(max_concurrency)
        self._owns_executor = executor is None
        self._executor = (
            executor
            if executor is not None
            else ParallelExecutor(max_workers=self._max_concurrency)
        )
        self._semaphore = asyncio.Semaphore(self._max_concurrency)
        self._in_flight = 0
        self._peak_in_flight = 0
        self._backpressure_waits = 0
        self._completed = 0
        self._errors = 0

    @property
    def service(self) -> "ExplorationService":
        return self._service

    @property
    def max_concurrency(self) -> int:
        return self._max_concurrency

    # -- session management ---------------------------------------------------------

    def register_analyst(
        self, analyst: str | None = None, *, table: str | None = None
    ) -> "AnalystSessionHandle":
        """Mint a session (cheap and non-blocking: runs inline, no thread)."""
        return self._service.register_analyst(analyst, table=table)

    # -- analyst-facing entry points --------------------------------------------------

    async def preview_cost(
        self, analyst: str, query: Query, accuracy: AccuracySpec
    ) -> dict[str, tuple[float, float]]:
        """Await a cost preview (see :meth:`ExplorationService.preview_cost`)."""
        return await self._run(self._service.preview_cost, analyst, query, accuracy)

    async def explore(
        self, analyst: str, query: Query, accuracy: AccuracySpec
    ) -> ExplorationResult:
        """Await one answered query (see :meth:`ExplorationService.explore`)."""
        return await self._run(self._service.explore, analyst, query, accuracy)

    async def explore_text(
        self, analyst: str, query_text: str, accuracy: AccuracySpec | None = None
    ) -> ExplorationResult:
        """Await a declarative-language query (see ``explore_text``)."""
        return await self._run(
            self._service.explore_text, analyst, query_text, accuracy
        )

    async def _run(self, fn, *args):
        """Admit through the backpressure semaphore, then offload to a thread."""
        if self._semaphore.locked():
            # Every admission slot is taken: this request is *queued* (the
            # observable backpressure the stats expose), not running.
            self._backpressure_waits += 1
        async with self._semaphore:
            self._in_flight += 1
            if self._in_flight > self._peak_in_flight:
                self._peak_in_flight = self._in_flight
            try:
                # The root span opens on the *worker* thread, not here: the
                # event loop interleaves many coroutines on one thread, so
                # binding its thread-local context would cross-contaminate
                # requests.  The service's own root span nests underneath.
                call = fn if tracing.get_tracer() is None else _traced(fn)
                result = await asyncio.wrap_future(self._executor.submit(call, *args))
            except BaseException:
                self._errors += 1
                raise
            finally:
                self._in_flight -= 1
                self._completed += 1
            return result

    # -- observability ----------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        """Counters of the admission boundary (event-loop-thread consistent)."""
        return {
            "max_concurrency": self._max_concurrency,
            "in_flight": self._in_flight,
            "peak_in_flight": self._peak_in_flight,
            "backpressure_waits": self._backpressure_waits,
            "completed": self._completed,
            "errors": self._errors,
        }

    def as_metrics(self) -> dict[str, float]:
        """:meth:`stats` under the ``repro_async_<name>`` naming scheme."""
        return flatten_stats("async", self.stats())

    # -- lifecycle --------------------------------------------------------------------

    async def aclose(self) -> None:
        """Release a front-owned executor (no-op for a caller-supplied one)."""
        if self._owns_executor:
            await asyncio.to_thread(self._executor.shutdown, True)

    async def __aenter__(self) -> "AsyncExplorationFront":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.aclose()
