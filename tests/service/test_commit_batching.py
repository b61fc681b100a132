"""Concurrent ledger commits: equivalence with the serial two-phase protocol.

Commits from many analyst threads through :meth:`SessionLedger.charge`
must be *observationally equivalent* to one thread calling
:meth:`SharedBudgetPool.commit` serially: same final spend, a merged
transcript that is a valid Theorem 6.2 ordering, the invariant
``spent + reserved <= B`` at every instant, and the same error contract.
The epsilon values used by the stress tests are exact
binary fractions (multiples of ``2**-20``), so sums are associative and
"equals the serial result" means bit-equality, not approximate equality.
"""

import threading

import pytest

from repro.core.accuracy import AccuracySpec
from repro.core.exceptions import LedgerInvariantError
from repro.reliability import faults
from repro.reliability.faults import FaultInjected
from repro.service.budget import SessionLedger, SharedBudgetPool

ACC = AccuracySpec(alpha=10.0, beta=1e-3)

#: One ULP-exact epsilon unit: keeps every sum exact in binary.
UNIT = 2.0**-20


@pytest.fixture(autouse=True)
def clean_failpoints():
    faults.disarm_all()
    faults.reset_fault_stats()
    yield
    faults.disarm_all()
    faults.reset_fault_stats()


def charge_once(ledger, epsilon_upper, epsilon_spent, name):
    reservation = ledger.reserve(epsilon_upper)
    if reservation is None:
        return None
    return ledger.charge(
        query_name=name,
        query_kind="WCQ",
        accuracy=ACC,
        mechanism="LM",
        epsilon_upper=epsilon_upper,
        epsilon_spent=epsilon_spent,
        answer=None,
        reservation=reservation,
    )


def mixed_schedule(analyst_index, n_ops):
    """The per-analyst op mix of the 8x48 stress (exact binary epsilons)."""
    ops = []
    for op_index in range(n_ops):
        upper = (16 + ((analyst_index * 7 + op_index) % 48)) * UNIT
        spent = upper if op_index % 3 else upper / 2  # mixed full/partial loss
        ops.append((upper, spent, f"q{analyst_index}-{op_index}"))
    return ops


class TestBatchedSerialEquivalence:
    def test_8x48_stress_matches_serial_spend_and_stays_valid(self):
        """8 analyst threads x 48 mixed charges, concurrent, against one pool:
        final spend must equal the serial two-phase run of the same ops,
        bit for bit, and the merged transcript must pass Theorem 6.2."""
        n_analysts, n_ops = 8, 48
        budget = 10_000 * UNIT * n_analysts  # ample: every op admits

        # Serial reference: identical ops, share-level charge plus the
        # pool.commit, one analyst at a time on this thread.
        serial_pool = SharedBudgetPool(budget)
        for a in range(n_analysts):
            ledger = SessionLedger(serial_pool, budget, f"a{a}")
            for upper, spent, name in mixed_schedule(a, n_ops):
                reservation = ledger.reserve(upper)
                assert reservation is not None
                entry = share_level_charge(ledger, upper, spent, name, reservation)
                serial_pool.commit(upper, entry, ledger.analyst)

        # Concurrent run.
        pool = SharedBudgetPool(budget)
        ledgers = [SessionLedger(pool, budget, f"a{a}") for a in range(n_analysts)]
        barrier = threading.Barrier(n_analysts)
        errors = []

        def analyst(a):
            try:
                barrier.wait()
                for upper, spent, name in mixed_schedule(a, n_ops):
                    entry = charge_once(ledgers[a], upper, spent, name)
                    assert entry is not None
                    # The invariant must hold at every observation point.
                    snap = pool.stats()
                    if snap["spent"] + snap["reserved"] > budget + 1e-9:
                        errors.append(("overspend", snap))
            except Exception as exc:  # pragma: no cover - diagnostic path
                errors.append((a, repr(exc)))

        threads = [threading.Thread(target=analyst, args=(a,)) for a in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors, errors[:3]
        assert pool.spent == serial_pool.spent  # exact: binary-fraction sums
        assert pool.reserved == 0.0
        assert len(pool.merged_transcript) == n_analysts * n_ops
        assert pool.merged_transcript.is_valid(budget)
        pool.assert_invariants()
        for ledger in ledgers:
            ledger.assert_invariants()

    def test_never_jointly_overspends_under_budget_pressure(self):
        """A tight budget admits only some of the concurrent demand; no
        interleaving of concurrent commits may push spend past B."""
        budget = 64 * UNIT
        pool = SharedBudgetPool(budget)
        ledgers = [SessionLedger(pool, budget, f"a{a}") for a in range(8)]
        barrier = threading.Barrier(8)
        answered = []

        def analyst(a):
            barrier.wait()
            for i in range(16):
                entry = charge_once(ledgers[a], 8 * UNIT, 8 * UNIT, f"q{a}-{i}")
                if entry is not None:
                    answered.append(entry)

        threads = [threading.Thread(target=analyst, args=(a,)) for a in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert answered  # the budget admits at least a few
        assert pool.spent <= budget + 1e-12
        assert pool.merged_transcript.is_valid(budget)
        pool.assert_invariants()


class TestCommitFailpoint:
    def test_failpoint_fires_before_the_pool_mutates(self):
        """An injected fault in the pool commit propagates to the
        committing analyst and leaves the pool's books untouched."""
        pool = SharedBudgetPool(1.0)
        ledger = SessionLedger(pool, 1.0, "a0")
        faults.arm("pool.commit", "error", count=1)
        # The share-level charge lands but the pool mirror dies, so the
        # session ledger raises its loudest error with the injected fault
        # as the cause.
        with pytest.raises(LedgerInvariantError) as excinfo:
            charge_once(ledger, 0.25, 0.25, "doomed")
        assert isinstance(excinfo.value.__cause__, FaultInjected)
        assert pool.spent == 0.0
        assert pool.reserved == pytest.approx(0.25)
        pool.release(0.25)  # reclaim the orphaned pool-side reservation
        entry = charge_once(ledger, 0.25, 0.25, "after")
        assert entry is not None
        assert pool.spent == pytest.approx(0.25)

    def test_share_and_pool_disagreement_is_loud(self):
        """A pool-level ApexError inside the commit surfaces through the
        session ledger as LedgerInvariantError."""
        pool = SharedBudgetPool(1.0)
        ledger = SessionLedger(pool, 1.0, "a0")
        reservation = ledger.reserve(0.5)
        assert reservation is not None
        # Sabotage: consume the pool-side reservation behind the ledger's
        # back, so the pool commit must fail with ApexError.
        pool.release(0.5)
        with pytest.raises(LedgerInvariantError, match="pool commit failed"):
            ledger.charge(
                query_name="q",
                query_kind="WCQ",
                accuracy=ACC,
                mechanism="LM",
                epsilon_upper=0.5,
                epsilon_spent=0.25,
                answer=None,
                reservation=reservation,
            )


# -- serial-reference helper -----------------------------------------------------


def share_level_charge(ledger, upper, spent, name, reservation):
    """The share-level half of a charge, bypassing the pool mirror.

    Keeps the serial reference honest: the per-analyst books are updated
    by the same code as the concurrent run, and only the threading of the
    pool commits differs between the two runs.
    """
    from repro.core.accounting import PrivacyLedger

    return PrivacyLedger.charge(
        ledger,
        query_name=name,
        query_kind="WCQ",
        accuracy=ACC,
        mechanism="LM",
        epsilon_upper=upper,
        epsilon_spent=spent,
        answer=None,
        reservation=reservation,
    )
