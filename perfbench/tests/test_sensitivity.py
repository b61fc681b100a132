"""A slower layer must move the end-to-end metric the prediction table names,
on the workload it names, and leave the workload that bypasses it alone.

The injected slowdown is in ``StrategyMatrix.reconstruction`` (the ``pinv``
row of ``predictions.json``): ``cold_translate`` calls it on every preview,
the timed phase of ``warm_mixed`` never does.  Every measurement is a fresh
process, as in a real benchmark run; the slowdown is installed by a small
launcher written by the test, so the benchmark itself has no hook for it.
"""

import json
import os
import statistics
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
#: Added to every reconstruction call; two calls per cold preview put the
#: preview median far past its bound.
DELAY_S = 0.25
WARM_SECONDS = "5"
REPEATS = 3

LAUNCHER = textwrap.dedent(
    """
    import os, runpy, sys, time
    root, delay = sys.argv[1], float(sys.argv[2])
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import scenarios
    make = scenarios.make_workloads

    def one_setup(scratch):  # one set-up per run keeps the test short
        return {name: scenarios.WorkloadSpec(w.name, 1, w.setup, w.run, w.reusable)
                for name, w in make(scratch).items()}

    scenarios.make_workloads = one_setup
    if delay:
        from repro.mechanisms.strategies import StrategyMatrix
        original = StrategyMatrix.reconstruction

        def slowed(self, workload_matrix):
            time.sleep(delay)
            return original(self, workload_matrix)

        StrategyMatrix.reconstruction = slowed
    sys.argv = [os.path.join(root, "perfbench", "run.py")] + sys.argv[3:]
    runpy.run_path(sys.argv[0], run_name="__main__")
    """
)


def _bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: (m["bound"], m["better"]) for m in json.load(fh)["end_to_end"]}


def _measure(launcher, workload, seconds, delay):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, str(launcher), ROOT, str(delay), "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", "0"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=False,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"]
    return {name: m["value"] for name, m in result["metrics"].items()}


def _medians(launcher, workload, seconds, delay, repeats):
    runs = [_measure(launcher, workload, seconds, delay) for _ in range(repeats)]
    return {name: statistics.median(run[name] for run in runs) for name in runs[0]}


def _worse_by(metric, base, changed, better):
    ratio = changed[metric] / base[metric]
    return ratio - 1.0 if better == "lower" else 1.0 / ratio - 1.0


def test_slow_reconstruction_moves_cold_preview_not_warm(tmp_path):
    launcher = tmp_path / "launch.py"
    launcher.write_text(LAUNCHER)
    bounds = _bounds()

    cold_base = _medians(launcher, "cold_translate", "0", 0.0, 2)
    cold_slow = _medians(launcher, "cold_translate", "0", DELAY_S, 2)
    bound, better = bounds["preview_p50_ms"]
    assert _worse_by("preview_p50_ms", cold_base, cold_slow, better) > bound

    warm_base = _medians(launcher, "warm_mixed", WARM_SECONDS, 0.0, REPEATS)
    warm_slow = _medians(launcher, "warm_mixed", WARM_SECONDS, DELAY_S, REPEATS)
    # The warm timed phase never reaches the slowed call (the run itself
    # checks zero builds and zero searches), so its request metrics stay
    # within their bounds.  Its set-up translates every query once, so
    # setup_s is expected to move.
    for metric in ("preview_p50_ms", "explore_p50_ms", "requests_per_s", "eps_per_answer"):
        bound, better = bounds[metric]
        assert _worse_by(metric, warm_base, warm_slow, better) <= bound, metric
    assert warm_slow["setup_s"] > warm_base["setup_s"]
