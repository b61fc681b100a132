"""Journaled accounting: write-ahead ordering, recovery adoption, invariants.

Includes the exception-path audit regressions: any failure between reserve
and commit -- injected at the engine's and the ledger's own failpoints --
must always release the reservation (no orphaned headroom), and
``assert_invariants`` must catch the books drifting.
"""

import pytest

from repro.core.accounting import PrivacyLedger
from repro.core.accuracy import AccuracySpec
from repro.core.engine import APExEngine
from repro.core.exceptions import ApexError, FaultInjected, LedgerInvariantError
from repro.mechanisms.registry import default_registry
from repro.queries.builders import histogram_workload
from repro.queries.query import WorkloadCountingQuery
from repro.reliability import faults
from repro.reliability.journal import LedgerJournal
from repro.service.budget import SessionLedger, SharedBudgetPool
from tests.service.util import small_table

ACC = AccuracySpec(alpha=100.0, beta=5e-4)


def hist_query(name="hist", bins=8):
    return WorkloadCountingQuery(
        histogram_workload("amount", start=0, stop=10_000, bins=bins), name=name
    )


@pytest.fixture()
def journal(tmp_path):
    with LedgerJournal(str(tmp_path / "ledger.wal")) as j:
        yield j


class TestWriteAheadOrdering:
    def test_reserve_then_charge_round_trips(self, tmp_path, journal):
        ledger = PrivacyLedger(1.0, journal=journal)
        reservation = ledger.reserve(0.4, context={"query": "q1", "kind": "wcq"})
        assert reservation.rid is not None
        ledger.charge(
            query_name="q1",
            query_kind="wcq",
            accuracy=ACC,
            mechanism="LM",
            epsilon_upper=0.4,
            epsilon_spent=0.25,
            answer=None,
            reservation=reservation,
        )
        journal.close()
        recovery = LedgerJournal(journal.path).recovery
        assert recovery.spent == 0.25  # exact commit, no in-flight surcharge
        assert recovery.inflight == ()

    def test_unresolved_reserve_recovered_conservatively(self, tmp_path, journal):
        ledger = PrivacyLedger(1.0, journal=journal)
        ledger.reserve(0.4, context={"query": "q1", "kind": "wcq"})
        journal.close()  # process "dies" with the reservation in flight
        recovery = LedgerJournal(journal.path).recovery
        assert recovery.spent == 0.4  # worst case, not zero

    def test_release_is_journaled_first(self, journal):
        ledger = PrivacyLedger(1.0, journal=journal)
        reservation = ledger.reserve(0.4)
        ledger.release(reservation)
        journal.close()
        recovery = LedgerJournal(journal.path).recovery
        assert recovery.spent == 0.0  # released means the mechanism never ran

    def test_denials_are_journaled(self, journal):
        ledger = PrivacyLedger(1.0, journal=journal)
        ledger.deny(query_name="q", query_kind="wcq", accuracy=ACC)
        journal.close()
        recovery = LedgerJournal(journal.path).recovery
        assert len(recovery.denials) == 1
        assert recovery.spent == 0.0


class TestAdoptRecovery:
    def test_recovered_spend_seeds_ledger_and_transcript(self, journal):
        first = PrivacyLedger(1.0, journal=journal)
        r = first.reserve(0.3, context={"query": "q1", "kind": "wcq"})
        first.charge(
            query_name="q1",
            query_kind="wcq",
            accuracy=ACC,
            mechanism="LM",
            epsilon_upper=0.3,
            epsilon_spent=0.3,
            answer=None,
            reservation=r,
        )
        first.reserve(0.4, context={"query": "q2", "kind": "wcq"})  # in flight
        journal.close()

        reopened = LedgerJournal(journal.path)
        ledger = PrivacyLedger(1.0)
        entries = ledger.adopt_recovery(reopened.recovery)
        assert entries == 2
        assert ledger.spent == pytest.approx(0.7)
        assert ledger.transcript.is_valid(1.0)
        names = [e.query_name for e in ledger.transcript.entries]
        assert any(n.startswith("recovered-inflight:") for n in names)
        ledger.assert_invariants()

    def test_adoption_requires_pristine_ledger(self, journal):
        first = PrivacyLedger(1.0, journal=journal)
        first.reserve(0.3)
        journal.close()
        recovery = LedgerJournal(journal.path).recovery
        used = PrivacyLedger(1.0)
        used.deny(query_name="q", query_kind="wcq", accuracy=ACC)
        with pytest.raises(ApexError, match="pristine"):
            used.adopt_recovery(recovery)

    def test_recovered_spend_beyond_budget_refused(self, journal):
        first = PrivacyLedger(2.0, journal=journal)
        r = first.reserve(1.5)
        first.charge(
            query_name="q",
            query_kind="wcq",
            accuracy=ACC,
            mechanism="LM",
            epsilon_upper=1.5,
            epsilon_spent=1.5,
            answer=None,
            reservation=r,
        )
        journal.close()
        recovery = LedgerJournal(journal.path).recovery
        shrunk = PrivacyLedger(1.0)  # owner restarted with a smaller B
        with pytest.raises(ApexError, match="refusing to restart"):
            shrunk.adopt_recovery(recovery)

    def test_pool_adoption(self, journal):
        first = PrivacyLedger(1.0, journal=journal)
        r = first.reserve(0.3, context={"query": "q1", "kind": "wcq"})
        first.charge(
            query_name="q1",
            query_kind="wcq",
            accuracy=ACC,
            mechanism="LM",
            epsilon_upper=0.3,
            epsilon_spent=0.3,
            answer=None,
            reservation=r,
        )
        journal.close()
        pool = SharedBudgetPool(1.0)
        pool.adopt_recovery(LedgerJournal(journal.path).recovery)
        assert pool.spent == pytest.approx(0.3)
        assert pool.merged_transcript.is_valid(1.0)
        pool.assert_invariants()


    def test_long_journal_replays_spend_exactly(self, tmp_path):
        """Hundreds of committed queries plus unresolved reservations:
        replay sums the committed spend and the in-flight surcharge in
        journal order, so both match the writer's own sums bit for bit."""
        import random

        rng = random.Random(5)
        path = str(tmp_path / "long.wal")
        committed = inflight = 0.0
        with LedgerJournal(path, sync=False) as writer:
            for i in range(200):
                upper = rng.uniform(0.001, 0.003)
                spent = rng.uniform(0.0005, upper)
                rid = writer.append("reserve", eps_upper=upper, query=f"q{i}", kind="wcq")
                writer.append(
                    "commit",
                    rid=rid,
                    eps_upper=upper,
                    eps_spent=spent,
                    query=f"q{i}",
                    kind="wcq",
                    mechanism="LM",
                )
                committed += spent
            for i in range(8):
                upper = rng.uniform(0.001, 0.003)
                writer.append("reserve", eps_upper=upper, query=f"open{i}", kind="wcq")
                inflight += upper
        with LedgerJournal(path) as reopened:
            recovery = reopened.recovery
        assert recovery.committed_epsilon == committed
        assert recovery.inflight_epsilon == inflight
        budget = 2.0 * recovery.spent
        pool = SharedBudgetPool(budget)
        assert pool.adopt_recovery(recovery) == 208
        assert pool.merged_transcript.is_valid(budget)
        pool.assert_invariants()


class TestInvariants:
    def test_clean_ledger_passes(self):
        ledger = PrivacyLedger(1.0)
        reservation = ledger.reserve(0.4)
        ledger.assert_invariants()
        ledger.release(reservation)
        ledger.assert_invariants()

    def test_orphaned_reservation_detected(self):
        ledger = PrivacyLedger(1.0)
        reservation = ledger.reserve(0.4)
        # Simulate the bug the invariant exists to catch: the reservation
        # object is dropped without release/charge ever deactivating it.
        ledger._active_reservations.pop(id(reservation))
        with pytest.raises(LedgerInvariantError, match="orphaned"):
            ledger.assert_invariants()

    def test_transcript_drift_detected(self):
        ledger = PrivacyLedger(1.0)
        ledger._spent = 0.5  # books say spent, transcript says nothing
        with pytest.raises(LedgerInvariantError, match="transcript"):
            ledger.assert_invariants()


class TestExceptionPathAudit:
    """Any failure between reserve and commit must release the reservation."""

    @pytest.fixture(scope="class")
    def table(self):
        return small_table(800)

    @pytest.mark.parametrize(
        "site",
        [
            "engine.explore.after_reserve",
            "engine.explore.after_run",
            "ledger.charge.before_journal",
        ],
    )
    def test_injected_failure_releases_reservation(self, table, site):
        engine = APExEngine(
            table,
            budget=2.0,
            registry=default_registry(mc_samples=150),
            seed=3,
        )
        ledger = engine._ledger
        with faults.armed(site, "error"):
            with pytest.raises(FaultInjected):
                engine.explore(hist_query(), ACC)
        assert ledger.reserved == 0.0  # nothing orphaned
        assert ledger.spent == 0.0  # nothing charged
        ledger.assert_invariants()
        # the engine is still usable afterwards
        result = engine.explore(hist_query("hist-after"), ACC)
        assert not result.denied
        ledger.assert_invariants()

    def test_session_ledger_pool_refusal_keeps_books_clean(self, tmp_path):
        journal = LedgerJournal(str(tmp_path / "ledger.wal"))
        pool = SharedBudgetPool(0.5)
        # Two sessions, each individually allowed 0.5: the pool is the
        # binding constraint for the second reserve.
        first = SessionLedger(pool, 0.5, "alice", journal=journal)
        second = SessionLedger(pool, 0.5, "bob", journal=journal)
        held = first.reserve(0.4)
        assert held is not None
        refused = second.reserve(0.4)  # share OK, pool says no
        assert refused is None
        second.assert_invariants()
        pool.assert_invariants()
        journal.close()
        # The refused reservation was never journaled: recovery must not
        # conservatively charge an admission that never happened.
        recovery = LedgerJournal(journal.path).recovery
        assert recovery.spent == pytest.approx(0.4)  # only alice's reserve
