"""Property-based history exerciser: random ops, real crashes, checked recovery.

:func:`run_history` is the reliability subsystem's acceptance engine.  From
one integer seed it derives a random but **reproducible** scenario:

1. a script of service operations (explores, previews, streaming appends,
   shard compactions) across a few concurrent analyst sessions;
2. a *fault plan* -- either a scripted ``kill -9``, or a crash failpoint
   armed (via ``REPRO_FAILPOINTS``) at one of the accounting-critical sites
   in :data:`~repro.reliability.faults.FAILPOINT_SITES`, sometimes after a
   few survivable hits; optionally, garbage appended to the journal tail
   after the crash (a torn last write);
3. a first worker incarnation (:mod:`repro.reliability.crash_worker`, a
   real subprocess) that runs the script until the fault kills it -- or to
   completion when the fault never fires;
4. a second incarnation over the **same journal path** that recovers and
   runs a post-crash script.

After every recovery the invariants of ``docs/reliability.md`` are checked
and each violation is recorded in the returned report:

* **budget conservation** -- the recovered spend covers every epsilon that
  incarnation 1 *acknowledged* before dying (an answer the analyst saw is
  never forgotten), and total spend never exceeds ``B`` at any ack;
* **transcript validity** -- the recovered merged transcript passes the
  Theorem 6.2 check on startup and after every subsequent operation
  (incarnation 2 runs ``assert_invariants`` before exiting);
* **deterministic recovery** -- incarnation 2 is run *twice* against
  byte-for-byte copies of the post-crash journal (and artifact store); the
  two acknowledgement streams, noisy answers included, must be
  bit-identical.  Post-recovery appends and compactions are part of the
  replayed script, so snapshot-pinned answers surviving concurrent table
  mutation is covered by the same bit-identity check.

The tests (``tests/reliability/test_exerciser.py``) and the ``--suite
reliability`` benchmark both drive this module with bounded seed sets; CI
runs it as a named gate.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

from repro.reliability.faults import ENV_VAR

__all__ = [
    "generate_script",
    "generate_workload_script",
    "run_history",
    "run_worker",
]

#: Failpoint sites where a crash is most likely to catch the books mid-flight.
CRASH_SITES = (
    "journal.append.before_write",
    "journal.append.before_fsync",
    "journal.append.after_fsync",
    "ledger.reserve.after_journal",
    "ledger.charge.before_journal",
    "ledger.charge.after_journal",
    "engine.explore.after_reserve",
    "engine.explore.after_run",
    "service.explore.admitted",
    "pool.commit",
)

_EPS_TOLERANCE = 1e-9


def generate_script(rng: random.Random, n_ops: int) -> list[dict[str, object]]:
    """A random mixed-op script over up to three analyst sessions."""
    analysts = [f"a{i}" for i in range(rng.randint(1, 3))]
    script: list[dict[str, object]] = []
    for index in range(n_ops):
        roll = rng.random()
        if roll < 0.55:
            script.append(
                {
                    "op": "explore",
                    "analyst": rng.choice(analysts),
                    "bins": rng.choice([4, 8, 12]),
                    "alpha_frac": rng.choice([0.04, 0.06, 0.08]),
                    "name": f"q-{index}",
                }
            )
        elif roll < 0.75:
            script.append(
                {
                    "op": "preview",
                    "analyst": rng.choice(analysts),
                    "bins": rng.choice([4, 8, 12]),
                    "alpha_frac": rng.choice([0.04, 0.06, 0.08]),
                    "name": f"q-{index}",
                }
            )
        elif roll < 0.92:
            script.append(
                {"op": "append", "n": rng.randint(10, 120), "seed": rng.randint(0, 2**31)}
            )
        else:
            script.append({"op": "compact"})
    return script


def generate_workload_script(
    rng: random.Random, n_ops: int, workloads_config: dict
) -> list[dict[str, object]]:
    """A random mixed-op script over a generated microsimulation stream.

    Appends consume the stream's period batches *in order* (so the drift
    schedule survives the shuffle); explores and previews are income
    histograms against the generated population.  Once the configured
    periods are exhausted, would-be appends degrade to compactions.
    """
    from repro.workloads import GeneratorConfig, MicrosimulationGenerator

    generator = MicrosimulationGenerator(
        GeneratorConfig.from_json(workloads_config)
    )
    batches = list(generator.batches())
    analysts = [f"a{i}" for i in range(rng.randint(1, 3))]
    script: list[dict[str, object]] = []
    for index in range(n_ops):
        roll = rng.random()
        if roll < 0.5:
            script.append(
                {
                    "op": "explore",
                    "analyst": rng.choice(analysts),
                    "bins": rng.choice([4, 6, 8]),
                    "alpha_frac": rng.choice([0.06, 0.08, 0.1]),
                    "attribute": "income",
                    "name": f"wq-{index}",
                }
            )
        elif roll < 0.7:
            script.append(
                {
                    "op": "preview",
                    "analyst": rng.choice(analysts),
                    "bins": rng.choice([4, 6, 8]),
                    "alpha_frac": rng.choice([0.06, 0.08, 0.1]),
                    "attribute": "income",
                    "name": f"wq-{index}",
                }
            )
        elif roll < 0.92 and batches:
            batch = batches.pop(0)
            script.append(
                {
                    "op": "append_rows",
                    "rows": [dict(row) for row in batch.rows],
                    "period": batch.period,
                    "changes_fingerprint": batch.changes_fingerprint,
                }
            )
        else:
            script.append({"op": "compact"})
    return script


def run_worker(
    journal_path: str,
    ops: list[dict[str, object]],
    *,
    budget: float,
    n_rows: int,
    seed: int,
    mc_samples: int,
    store_dir: str | None = None,
    failpoints: str | None = None,
    workloads_config: dict | None = None,
    trace_out: str | None = None,
    timeout: float = 300.0,
) -> tuple[int, list[dict[str, object]], str]:
    """One crash-worker incarnation; returns (returncode, acked lines, stderr)."""
    import repro

    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    if failpoints:
        env[ENV_VAR] = failpoints
    else:
        env.pop(ENV_VAR, None)
    argv = [
        sys.executable,
        "-m",
        "repro.reliability.crash_worker",
        "--journal",
        journal_path,
        "--ops",
        json.dumps(ops),
        "--budget",
        repr(budget),
        "--rows",
        str(n_rows),
        "--seed",
        str(seed),
        "--mc-samples",
        str(mc_samples),
    ]
    if store_dir is not None:
        argv += ["--store", store_dir]
    if workloads_config is not None:
        argv += ["--workloads-config", json.dumps(workloads_config)]
    if trace_out is not None:
        argv += ["--trace-out", trace_out]
    completed = subprocess.run(
        argv, capture_output=True, text=True, env=env, timeout=timeout
    )
    events: list[dict[str, object]] = []
    for line in completed.stdout.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError:
            # A crash can tear the last stdout line exactly like a torn
            # journal write; an unparseable tail is simply not an ack.
            continue
    return completed.returncode, events, completed.stderr


def _acked_epsilon(events: list[dict[str, object]]) -> float:
    """Total epsilon of answers the first incarnation acknowledged."""
    total = 0.0
    for event in events:
        if event.get("event") == "ack" and event.get("op") == "explore":
            total += float(event.get("epsilon_spent", 0.0))
    return total


def run_history(
    seed: int,
    *,
    work_dir: str,
    n_ops: int = 10,
    budget: float = 2.0,
    n_rows: int = 400,
    mc_samples: int = 150,
    use_store: bool = False,
    workloads_config: dict | None = None,
) -> dict[str, object]:
    """One full generate / run / crash / recover / check cycle for ``seed``.

    Returns a report dict whose ``violations`` list is empty iff every
    invariant held; callers assert on ``report["violations"] == []`` so a
    failure message carries the whole scenario (seed, fault plan, books).
    For a *failing* history the report's ``trace_files`` lists the Chrome
    trace-event dumps of the two recovery incarnations (kept under
    ``work_dir``); clean histories delete them and report an empty list.

    With ``workloads_config`` the scenario runs over a generated
    microsimulation stream instead of the bench table: the scripts come
    from :func:`generate_workload_script` and both incarnations host the
    config's population (the second rebuilds the same initial population
    from the config's seed, as a restarted service would).
    """
    rng = random.Random(seed)
    os.makedirs(work_dir, exist_ok=True)
    journal_path = os.path.join(work_dir, "ledger.wal")
    store_dir = os.path.join(work_dir, "store") if use_store else None

    if workloads_config is None:
        script = generate_script(rng, n_ops)
        post_script = generate_script(rng, max(2, n_ops // 2))
    else:
        script = generate_workload_script(rng, n_ops, workloads_config)
        post_script = generate_workload_script(
            rng, max(2, n_ops // 2), workloads_config
        )

    # -- fault plan ------------------------------------------------------------
    fault_kind = rng.choice(["failpoint", "scripted", "none"])
    failpoints = None
    if fault_kind == "failpoint":
        site = rng.choice(CRASH_SITES)
        count = rng.randint(1, 3)
        failpoints = f"{site}=crash:{count}"
    elif fault_kind == "scripted":
        script.insert(rng.randint(0, len(script)), {"op": "crash"})
    corrupt_tail = rng.random() < 0.4

    common = dict(
        budget=budget,
        n_rows=n_rows,
        seed=seed,
        mc_samples=mc_samples,
        workloads_config=workloads_config,
    )
    violations: list[str] = []

    returncode, events, stderr = run_worker(
        journal_path, script, store_dir=store_dir, failpoints=failpoints, **common
    )
    crashed = returncode != 0
    if returncode not in (0, -9):
        # A SIGKILL (rc -9) is the *planned* failure mode; any other nonzero
        # exit is the worker tripping over a real bug -- surface it.
        violations.append(
            f"incarnation 1 died abnormally: rc={returncode} {stderr.strip()!r}"
        )
    if fault_kind == "scripted" and returncode != -9:
        violations.append(f"scripted crash never fired (rc={returncode})")
    acked = _acked_epsilon(events)
    for event in events:
        spent = event.get("spent_total", event.get("spent"))
        if spent is not None and float(spent) > budget + _EPS_TOLERANCE:
            violations.append(f"incarnation 1 overspent: {spent} > {budget}")

    if corrupt_tail and os.path.exists(journal_path):
        with open(journal_path, "ab") as handle:
            handle.write(rng.randbytes(rng.randint(1, 40)))

    # -- recovery, twice over byte-identical copies ---------------------------
    streams: list[list[dict[str, object]]] = []
    trace_files: list[str] = []
    for copy in ("r1", "r2"):
        copy_dir = os.path.join(work_dir, copy)
        os.makedirs(copy_dir, exist_ok=True)
        copy_journal = os.path.join(copy_dir, "ledger.wal")
        if os.path.exists(journal_path):
            shutil.copy2(journal_path, copy_journal)
        copy_store = None
        if store_dir is not None:
            copy_store = os.path.join(copy_dir, "store")
            if os.path.isdir(store_dir):
                shutil.copytree(store_dir, copy_store, dirs_exist_ok=True)
        # Recovery incarnations always run to completion, so (unlike the
        # possibly SIGKILL'd incarnation 1) their traces are always written;
        # a failing history keeps them for post-mortem, a clean one doesn't.
        copy_trace = os.path.join(copy_dir, "trace.json")
        rc2, events2, stderr2 = run_worker(
            copy_journal,
            post_script,
            store_dir=copy_store,
            trace_out=copy_trace,
            **common,
        )
        if os.path.exists(copy_trace):
            trace_files.append(copy_trace)
        if rc2 != 0:
            violations.append(
                f"recovery incarnation ({copy}) failed: rc={rc2} {stderr2.strip()!r}"
            )
            streams.append(events2)
            continue
        recovered = next(
            (e for e in events2 if e.get("event") == "recovered"), None
        )
        if recovered is None:
            violations.append(f"({copy}) emitted no recovery report")
        else:
            if float(recovered["spent"]) + _EPS_TOLERANCE < acked:
                violations.append(
                    f"({copy}) under-counted: recovered {recovered['spent']} "
                    f"< acked {acked}"
                )
            if not recovered["valid"]:
                violations.append(f"({copy}) recovered transcript is invalid")
        done = next((e for e in events2 if e.get("event") == "done"), None)
        if done is None:
            violations.append(f"({copy}) never reached a clean shutdown")
        else:
            if not done["valid"]:
                violations.append(f"({copy}) final transcript is invalid")
            if float(done["spent"]) > budget + _EPS_TOLERANCE:
                violations.append(
                    f"({copy}) overspent after recovery: {done['spent']} > {budget}"
                )
        for event in events2:
            spent = event.get("spent_total")
            if spent is not None and float(spent) > budget + _EPS_TOLERANCE:
                violations.append(f"({copy}) overspent mid-script: {spent}")
        streams.append(events2)

    if len(streams) == 2 and streams[0] != streams[1]:
        violations.append(
            "recovery is nondeterministic: the two incarnations over "
            "identical journals diverged"
        )

    if not violations:
        for path in trace_files:
            try:
                os.remove(path)
            except OSError:
                pass
        trace_files = []

    return {
        "seed": seed,
        "fault": failpoints or fault_kind,
        "workloads": workloads_config is not None,
        "corrupt_tail": corrupt_tail,
        "crashed": crashed,
        "incarnation1_events": len(events),
        "acked_epsilon": acked,
        "recovered_spent": (
            None
            if not streams or not streams[0]
            else next(
                (
                    float(e["spent"])
                    for e in streams[0]
                    if e.get("event") == "recovered"
                ),
                None,
            )
        ),
        "trace_files": trace_files,
        "violations": violations,
        "ok": not violations,
    }
