"""Package fixtures: the runtime lock-order watchdog over the whole battery.

The concurrency suite is precisely where dynamic lock-order edges (cache
locks, pool/transcript nesting) are actually exercised, so every lock created while it runs is watched; any inversion
fails the package at teardown.  CI additionally runs this suite as its own
named gate (see ``.github/workflows/ci.yml``).
"""

import pytest

from repro.analysis.runtime import LockOrderWatchdog
from repro.reliability import faults


@pytest.fixture(autouse=True)
def clean_failpoints():
    """No armed failpoint (or stale trigger count) ever leaks between tests."""
    faults.disarm_all()
    faults.reset_fault_stats()
    yield
    faults.disarm_all()
    faults.reset_fault_stats()


@pytest.fixture(autouse=True, scope="package")
def lock_order_watchdog():
    """Record every lock acquisition ordering; fail the package on inversion."""
    watchdog = LockOrderWatchdog(mode="record")
    watchdog.install()
    yield watchdog
    watchdog.uninstall()
    inversions = [v for v in watchdog.violations if v.kind == "inversion"]
    if inversions:
        pytest.fail(
            "lock-order inversions observed during the concurrency suite:\n"
            + "\n".join(v.render() for v in inversions)
        )
