"""Failpoints: named fault-injection sites, no-ops until armed.

Crash-safety claims are only as good as the crashes they were tested
against.  This module lets tests (and the history exerciser) inject faults
at the *exact* interleaving points that matter -- between the write-ahead
journal append and the in-memory mutation, before or after an ``fsync``,
inside the artifact store's IO, in the middle of a mechanism run -- without
littering the production code with test hooks: each site is one
:func:`fail_point` call that returns immediately (a single dict lookup on an
empty dict) when nothing is armed.

Actions
-------

``crash``
    ``SIGKILL`` the current process (the real ``kill -9``: no ``atexit``, no
    ``finally`` blocks, no flushing -- exactly what crash recovery must
    survive).
``exit``
    ``os._exit(67)`` -- an abrupt exit that still lets a parent distinguish
    "failpoint exit" from a Python crash.
``error``
    Raise :class:`~repro.core.exceptions.FaultInjected`.
``io-error``
    Raise :class:`OSError` (for sites inside IO paths whose callers handle
    ``OSError``, e.g. the artifact store's transient-failure retry).
``sleep:<seconds>``
    Stall for the given duration (lock-stall and slow-mechanism scenarios;
    deadline tests arm this).

Arming
------

In process::

    from repro.reliability import faults
    with faults.armed("ledger.charge.after_journal", "crash"):
        ...

Across a process boundary (the crash worker calls :func:`arm_from_env` at
startup)::

    REPRO_FAILPOINTS="ledger.charge.after_journal=crash:1;store.load.read=io-error"

``:N`` limits the site to ``N`` triggers (default: unlimited); an exhausted
site disarms itself.  :func:`fault_stats` reports per-site trigger counts so
tests can assert a fault actually fired.
"""

from __future__ import annotations

import contextlib
import os
import signal
import threading
import time
from dataclasses import dataclass

from repro.core.exceptions import FaultInjected

__all__ = [
    "FAILPOINT_SITES",
    "ENV_VAR",
    "arm",
    "arm_from_env",
    "armed",
    "disarm",
    "disarm_all",
    "fail_point",
    "fault_stats",
    "reset_fault_stats",
]

#: Environment variable read by :func:`arm_from_env`.
ENV_VAR = "REPRO_FAILPOINTS"

#: The catalog of named injection sites threaded through the codebase.
#: Documented (with the failure each one simulates) in docs/reliability.md;
#: :func:`arm` refuses unknown names so a renamed site can never silently
#: turn a crash test into a no-op.
FAILPOINT_SITES: tuple[str, ...] = (
    # write-ahead journal (repro/reliability/journal.py)
    "journal.append.before_write",  # crash before the record reaches the OS
    "journal.append.before_fsync",  # record buffered but not yet durable
    "journal.append.after_fsync",  # record durable, in-memory state not yet mutated
    # privacy ledger (repro/core/accounting.py)
    "ledger.reserve.after_journal",  # reservation journaled, not yet reserved
    "ledger.charge.before_journal",  # mechanism ran, commit not yet journaled
    "ledger.charge.after_journal",  # commit durable, spent not yet mutated
    "ledger.release.after_journal",  # release durable, reservation not yet freed
    # engine (repro/core/engine.py)
    "engine.explore.after_reserve",  # between reservation and mechanism run
    "engine.explore.after_run",  # mechanism ran, loss not yet charged
    # artifact store (repro/store/artifact_store.py)
    "store.load.read",  # disk read of an artifact
    "store.save.write",  # disk write/rename of an artifact
    "store.lock.acquire",  # advisory-lock acquisition (stalls)
    # service (repro/service/exploration.py, repro/service/budget.py)
    "service.explore.admitted",  # request admitted, engine not yet entered
    "pool.commit",  # after the journal commit record, before the pool mutates
)

_SITE_SET = frozenset(FAILPOINT_SITES)


@dataclass
class _Failpoint:
    action: str
    remaining: int | None  # None = unlimited


_lock = threading.Lock()
_armed: dict[str, _Failpoint] = {}
_triggered: dict[str, int] = {}


def arm(site: str, action: str, count: int | None = None) -> None:
    """Arm ``site`` with ``action`` for ``count`` triggers (``None`` = forever)."""
    if site not in _SITE_SET:
        raise ValueError(
            f"unknown failpoint site {site!r}; known sites: {sorted(_SITE_SET)}"
        )
    _parse_action(action)  # validate eagerly, not at trigger time
    if count is not None and count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    with _lock:
        _armed[site] = _Failpoint(action=action, remaining=count)


def disarm(site: str) -> None:
    """Disarm ``site`` (idempotent)."""
    with _lock:
        _armed.pop(site, None)


def disarm_all() -> None:
    """Disarm every site (test teardown)."""
    with _lock:
        _armed.clear()


@contextlib.contextmanager
def armed(site: str, action: str, count: int | None = None):
    """Context manager: arm ``site`` on entry, disarm on exit."""
    arm(site, action, count)
    try:
        yield
    finally:
        disarm(site)


def arm_from_env(environ: dict[str, str] | None = None) -> list[str]:
    """Arm every site named in ``REPRO_FAILPOINTS``; return the armed names.

    Format: ``site=action[:count][;site=action[:count]]...``.  This is how
    the crash worker (a fresh subprocess) inherits the faults the exerciser
    chose for it.
    """
    env = os.environ if environ is None else environ
    spec = env.get(ENV_VAR, "").strip()
    if not spec:
        return []
    names: list[str] = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        site, _, action = part.partition("=")
        if not action:
            raise ValueError(f"malformed {ENV_VAR} entry: {part!r}")
        count: int | None = None
        # the count suffix is ':N' where N is an integer; 'sleep:0.2' has a
        # non-integer suffix and no count, 'sleep:0.2:3' has both.
        head, _, tail = action.rpartition(":")
        if head and tail.isdigit():
            action, count = head, int(tail)
        arm(site, action, count)
        names.append(site)
    return names


def fail_point(site: str) -> None:
    """Trigger ``site``'s armed action, if any.  No-op (fast) when disarmed."""
    if not _armed:  # unlocked fast path: an empty dict means nothing anywhere
        return
    with _lock:
        fp = _armed.get(site)
        if fp is None:
            return
        if fp.remaining is not None:
            fp.remaining -= 1
            if fp.remaining <= 0:
                del _armed[site]
        _triggered[site] = _triggered.get(site, 0) + 1
        action = fp.action
    _execute(site, action)


def fault_stats() -> dict[str, int]:
    """Per-site trigger counts since the last :func:`reset_fault_stats`."""
    with _lock:
        return dict(_triggered)


def reset_fault_stats() -> None:
    with _lock:
        _triggered.clear()


def _parse_action(action: str) -> tuple[str, float]:
    """Validate/split an action string into ``(verb, argument)``."""
    if action in ("crash", "exit", "error", "io-error"):
        return action, 0.0
    if action.startswith("sleep:"):
        try:
            seconds = float(action.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"malformed sleep action: {action!r}") from exc
        if seconds < 0:
            raise ValueError(f"sleep duration must be >= 0, got {seconds}")
        return "sleep", seconds
    raise ValueError(
        f"unknown failpoint action {action!r}; expected crash, exit, error, "
        "io-error, or sleep:<seconds>"
    )


def _execute(site: str, action: str) -> None:
    verb, arg = _parse_action(action)
    if verb == "crash":
        # A genuine kill -9: the kernel terminates us mid-instruction, with
        # no chance to flush buffers or run cleanup -- the scenario the
        # write-ahead journal exists to survive.
        os.kill(os.getpid(), signal.SIGKILL)
        time.sleep(60)  # pragma: no cover - the signal always wins
    elif verb == "exit":
        os._exit(67)
    elif verb == "error":
        raise FaultInjected(f"failpoint {site!r} injected an error")
    elif verb == "io-error":
        raise OSError(f"failpoint {site!r} injected an IO error")
    elif verb == "sleep":
        time.sleep(arg)
