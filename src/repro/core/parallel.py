"""A small thread-pool facade behind the asyncio service front.

:meth:`ParallelExecutor.submit` is the future-returning primitive
:mod:`repro.service.async_front` awaits; the pool is built lazily on the
first submit, and every scheduled call inherits the submitting request's
trace context.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

from repro.obs import tracing

__all__ = ["ParallelExecutor"]

R = TypeVar("R")


class ParallelExecutor:
    """A lazily built thread pool that is safe to share across threads.

    :param max_workers: pool size; defaults to the host's CPU count (capped
        at 8).
    :raises ValueError: when ``max_workers`` is less than 1.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        if max_workers is None:
            max_workers = min(os.cpu_count() or 1, 8)
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self._max_workers = int(max_workers)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        # Lazily built so constructing an executor costs nothing until the
        # first submit.
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix="repro-parallel",
                )
            return self._pool

    def submit(self, fn: Callable[..., R], /, *args: object, **kwargs: object):
        """Schedule one call on the pool and return its ``Future``.

        The future-returning primitive beneath the asyncio service front
        (:mod:`repro.service.async_front` awaits it via
        ``asyncio.wrap_future``).  ``submit`` always goes through the pool
        -- even at ``max_workers=1`` -- because the caller is explicitly
        asking *not* to block the submitting thread.

        :returns: a :class:`concurrent.futures.Future` for ``fn(*args,
            **kwargs)``.
        """
        return self._ensure_pool().submit(tracing.bind_current(fn), *args, **kwargs)

    def shutdown(self, wait: bool = True) -> None:
        """Release the pool threads (idempotent).

        :param wait: block until in-flight tasks finish.  A later
            :meth:`submit` lazily rebuilds the pool, so shutdown is a pause,
            not an end-of-life.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelExecutor(max_workers={self._max_workers})"
