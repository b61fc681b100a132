"""The command prints exactly the declared metrics and fails without a program."""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(cwd, trace, seconds="0"):
    # cold_translate with 0 seconds runs exactly one block of structures.
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold_translate",
         "--seed", "4", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


def test_untraced_and_traced_runs_print_the_declared_metrics():
    declared = _declared()
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = _run(ROOT, trace)
        assert done.returncode == 0, done.stderr
        lines = done.stdout.strip().splitlines()
        assert lines[0].startswith("env ")
        header = json.loads(lines[0][4:])
        for field in ("cores", "blas", "blas_threads", "python", "numpy",
                      "mc_samples", "seed", "git_commit"):
            assert field in header
        assert header["mc_samples"] == 10_000 and header["blas_threads"] == "1"
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        expected = {m["name"]: m["unit"] for m in declared[key]}
        assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
        if trace == 0:
            assert all(m["value"] != 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    done = _run(str(tmp_path), 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
