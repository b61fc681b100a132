"""Per-rule fixture tests: each bad fixture trips exactly its own rule.

Every rule has a paired good/bad fixture under ``fixtures/``.  The bad
fixture must produce at least one finding *of that rule and no other* when
the full rule catalog runs over it; the good fixture must be completely
clean.  That pins both directions: the rule fires on the pattern it
documents, and the rules do not bleed into each other's fixtures.
"""

import ast
from pathlib import Path

import pytest

from repro.analysis.findings import Baseline
from repro.analysis.runner import analyze
from repro.analysis.rules import all_rules
from repro.analysis.rules.common import SourceFile

FIXTURES = Path(__file__).parent / "fixtures"

#: rule code -> (fixture stem, path the SourceFile must claim, min bad findings)
#: APX004/APX005 only fire on their registry/scope paths, so fixtures are
#: mounted at the paths the rules watch.
CASES = {
    "APX001": ("apx001", "src/repro/core/example.py", 3),
    "APX002": ("apx002", "src/repro/core/example.py", 2),
    "APX003": ("apx003", "src/repro/core/example.py", 2),
    "APX004": ("apx004", "src/repro/reliability/faults.py", 3),
    "APX005": ("apx005", "src/repro/mechanisms/example.py", 2),
}


def load_fixture(stem: str, flavor: str, path: str) -> SourceFile:
    source = (FIXTURES / f"{stem}_{flavor}.py").read_text()
    return SourceFile(path=path, source=source, tree=ast.parse(source))


def run_all_rules(sf: SourceFile):
    findings = []
    for rule in all_rules():
        check = getattr(rule, "check", None)
        if callable(check):
            findings.extend(check(sf))
        check_project = getattr(rule, "check_project", None)
        if callable(check_project):
            findings.extend(check_project([sf], "."))
    return findings


@pytest.mark.parametrize("code", sorted(CASES))
def test_bad_fixture_trips_exactly_its_rule(code):
    stem, path, min_findings = CASES[code]
    findings = run_all_rules(load_fixture(stem, "bad", path))
    assert findings, f"{code} bad fixture produced no findings"
    assert {f.rule for f in findings} == {code}
    assert len(findings) >= min_findings


@pytest.mark.parametrize("code", sorted(CASES))
def test_good_fixture_is_clean(code):
    stem, path, _ = CASES[code]
    findings = run_all_rules(load_fixture(stem, "good", path))
    assert findings == []


class TestFindingShape:
    def test_findings_carry_stable_keys_and_locations(self):
        stem, path, _ = CASES["APX001"]
        findings = run_all_rules(load_fixture(stem, "bad", path))
        for finding in findings:
            assert finding.key == f"{finding.rule}|{finding.path}|{finding.context}"
            assert finding.line > 0
            assert finding.message
        # contexts are line-free: reformatting must not invalidate a baseline
        assert not any(str(f.line) in f.context for f in findings)

    def test_apx001_names_the_leaking_exit_kinds(self):
        stem, path, _ = CASES["APX001"]
        findings = run_all_rules(load_fixture(stem, "bad", path))
        leaks = [f for f in findings if "can leave" in f.message]
        assert any("exception path" in f.message for f in leaks)


class TestRepositoryTree:
    """The committed tree itself must satisfy every rule."""

    def test_src_analyzes_clean_against_the_committed_baseline(self):
        root = Path(__file__).parents[2]
        baseline = Baseline.load(str(root / "analysis-baseline.json"))
        report = analyze([str(root / "src")], root=str(root), baseline=baseline)
        assert report.errors == []
        assert report.files_analyzed > 50
        rendered = "\n".join(f.render() for f in report.new)
        assert report.new == [], f"non-baselined findings:\n{rendered}"

    def test_known_lock_edges_are_extracted(self):
        """Guard against the lock-graph extraction silently going blind."""
        from repro.analysis.runner import discover, parse_files
        from repro.analysis.rules.lock_order import build_lock_graph

        root = Path(__file__).parents[2]
        files, _ = parse_files(
            discover([str(root / "src")], str(root)), str(root)
        )
        graph = build_lock_graph(files)
        assert len(graph.decls) >= 15
        pairs = graph.edge_pairs()
        assert (
            "repro.core.accounting.PrivacyLedger._lock",
            "repro.reliability.journal.LedgerJournal._lock",
        ) in pairs
        assert (
            "repro.core.accounting.PrivacyLedger._lock",
            "repro.service.budget.SharedBudgetPool._lock",
        ) in pairs
        assert graph.cycles() == []
        # The LRU's single lock is a leaf: nothing is acquired under it.
        lru = "repro.core.lru.LRUCache._lock"
        assert graph.decls[lru].kind == "Lock"
        assert lru not in {e.held for e in graph.edges}
