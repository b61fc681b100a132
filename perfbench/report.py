"""Orchestrates one benchmark invocation and turns passes into metrics."""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import layer_trace
import scenarios

#: Fewer samples than this and a p99 is not reported (the guide's rule: at
#: least ten samples beyond the percentile).
P99_MIN_SAMPLES = 1000


# -- environment ------------------------------------------------------------------


def _blas() -> str:
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{config.get('name', '?')} {config.get('version', '?')}"
    except Exception:  # older numpy: no dict mode
        return "unknown"


def _git_commit(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env,
            capture_output=True, text=True, timeout=20, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def _source_digest(root: str) -> str:
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def environment(root: str, args) -> dict[str, object]:
    from repro.mechanisms.registry import default_registry

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": os.cpu_count(),
        "blas": _blas(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "mc_samples": inspect.signature(default_registry).parameters["mc_samples"].default,
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
    }


# -- metrics ----------------------------------------------------------------------


def _ms(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1000.0 if values else 0.0


def end_to_end(out: scenarios.Pass, setups: list[float]) -> dict[str, float]:
    requests = len(out.previews) + len(out.explores)
    return {
        "setup_s": statistics.median(setups),
        "preview_p50_ms": _ms(out.previews, 50),
        "explore_p50_ms": _ms(out.explores, 50),
        "requests_per_s": requests / out.elapsed,
        "eps_per_answer": statistics.fmean(out.scored_eps) if out.scored_eps else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def workload_figures(out: scenarios.Pass) -> dict[str, float]:
    """Workload-specific end-to-end figures (0 where a workload has none)."""
    def p99(values: list[float]) -> float:
        return _ms(values, 99) if len(values) >= P99_MIN_SAMPLES else 0.0

    return {
        "e2e.preview_p99_ms": p99(out.previews),
        "e2e.explore_p99_ms": p99(out.explores),
        "e2e.preview_samples": len(out.previews),
        "e2e.explore_samples": len(out.explores),
        "e2e.error_frac": len(out.errors) / max(out.attempted, 1),
    }


def per_layer(traced: scenarios.Pass, untraced: scenarios.Pass,
              recorder: layer_trace.SpanRecorder) -> dict[str, float]:
    spans = [s for s in recorder.spans if s.request is not None]
    summary = layer_trace.layer_summary(spans)

    def mean_ms(*names: str) -> float:
        calls = sum(summary.get(n, {}).get("calls", 0) for n in names)
        total = sum(summary.get(n, {}).get("self_s", 0.0) for n in names)
        return 1000.0 * total / calls if calls else 0.0

    counters = traced.counters
    lookups = counters["translation_hits"] + counters["translation_misses"]
    metrics = {
        "queries.domain_analysis_ms": mean_ms("queries.domain_analysis"),
        "queries.matrix_builds": counters["matrix_built"],
        "queries.partition_histogram_ms": mean_ms("queries.partition_histogram"),
        "queries.evaluate_ms": mean_ms("queries.evaluate"),
        "mechanisms.reconstruction_ms": mean_ms("mechanisms.reconstruction"),
        "mechanisms.sm_search_ms": mean_ms("mechanisms.sm_search"),
        "mechanisms.sm_searches": counters["sm_searches"],
        "core.translate_ms": mean_ms("core.translate"),
        "core.translation_hit_ratio": counters["translation_hits"] / lookups if lookups else 0.0,
        "core.reserve_ms": mean_ms("core.reserve"),
        "core.charge_ms": mean_ms("core.charge"),
        "service.request_self_ms": mean_ms(layer_trace.SERVICE_ENTRY),
        "service.batcher_submit_ms": mean_ms("service.batcher_submit"),
        "service.coalesced": counters["coalesced"],
        "service.commit_ms": mean_ms("service.commit"),
        "service.commit_batch_max": counters["commit_batch_max"],
        "data.snapshot_ms": mean_ms("data.snapshot"),
        "store.save_ms": mean_ms("store.save"),
        "store.saves": counters.get("store_writes", 0),
    }
    from repro.mechanisms.registry import default_registry

    for mechanism in (m.name for m in default_registry()):
        metrics[f"mechanisms.run_ms.{mechanism}"] = mean_ms(f"mechanisms.run.{mechanism}")
    for layer in layer_trace.LAYERS:
        metrics[f"{layer}.errors"] = recorder.errors.get(layer, 0)
    previews = layer_trace.request_coverage(spans, ["request.preview"])
    explores = layer_trace.request_coverage(spans, ["request.explore"])
    metrics["trace.coverage_preview_p50"] = statistics.median(previews) if previews else 0.0
    metrics["trace.coverage_explore_p50"] = statistics.median(explores) if explores else 0.0
    metrics["trace.overhead_frac"] = overhead(untraced, traced)
    metrics["trace.spans"] = len(recorder.spans)
    metrics.update(workload_figures(untraced))
    return metrics


def overhead(untraced: scenarios.Pass, traced: scenarios.Pass) -> float:
    """Traced / untraced time of the same requests (paired in sending order) - 1."""
    base = extra = 0.0
    for plain, with_spans in zip(untraced.sequences, traced.sequences):
        n = min(len(plain), len(with_spans))
        base += sum(plain[:n])
        extra += sum(with_spans[:n])
    return extra / base - 1.0 if base else 0.0


# -- correctness -------------------------------------------------------------------


def correctness(out: scenarios.Pass) -> dict[str, bool]:
    checks = dict(out.checks)
    failures = sum(1 for ratio in out.wcq_error_ratios if ratio > 1.0)
    limit = scenarios.binomial_limit(len(out.wcq_error_ratios), scenarios.BETA)
    out.counters["wcq_checked"] = len(out.wcq_error_ratios)
    out.counters["wcq_over_alpha"] = failures
    checks["wcq_error_guard"] = failures < limit
    checks["no_request_errors"] = not out.errors
    return checks


# -- entry point -------------------------------------------------------------------


def _timed_setup(workload: scenarios.WorkloadSpec, seed: int):
    start = time.perf_counter()
    state = workload.setup(seed)
    return state, time.perf_counter() - start


def run(args, root: str, out_dir: str) -> int:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    os.makedirs(out_dir, exist_ok=True)
    workloads = scenarios.make_workloads(out_dir)
    if args.workload not in workloads:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads)}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]
    header = environment(root, args)
    print("env " + json.dumps(header, sort_keys=True), flush=True)

    passes: list[scenarios.Pass] = []
    state = None
    try:
        if args.trace == 0:
            setups = []
            for _ in range(workload.setup_repeats):
                if state is not None:
                    scenarios.close_state(state)
                state, seconds = _timed_setup(workload, args.seed)
                setups.append(seconds)
            timed = workload.run(state, args.seed, args.seconds)
            passes.append(timed)
            metrics = end_to_end(timed, setups)
            metrics.update(workload_figures(timed))
            spec = declared["end_to_end"]
        else:
            state, _ = _timed_setup(workload, args.seed)
            untraced = workload.run(state, args.seed, args.seconds)
            if not workload.reusable:
                scenarios.close_state(state)
                state, _ = _timed_setup(workload, args.seed)
            recorder = layer_trace.SpanRecorder()
            restore = layer_trace.instrument(recorder)
            try:
                traced = workload.run(state, args.seed, args.seconds, recorder)
            finally:
                restore()
            passes += [untraced, traced]
            metrics = per_layer(traced, untraced, recorder)
            spec = declared["per_layer"]
            trace_path = os.path.join(
                out_dir, f"trace-{args.workload}-seed{args.seed}.json"
            )
            recorder.dump(trace_path, header)
            print(f"spans written to {trace_path}")
    finally:
        if state is not None:
            scenarios.close_state(state)

    checks: dict[str, bool] = {}
    for index, out in enumerate(passes):
        for name, ok in correctness(out).items():
            checks[f"{name}[{index}]" if len(passes) > 1 else name] = ok
    correct = all(checks.values())
    attempted = sum(out.attempted for out in passes)
    failed = sum(len(out.errors) for out in passes)

    _print_report(passes, metrics, checks, spec)
    units = {m["name"]: m["unit"] for m in spec}
    missing = [name for name in units if name not in metrics]
    if missing:
        print(f"perfbench: metrics not computed: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def _print_report(passes, metrics, checks, spec) -> None:
    declared = {m["name"] for m in spec}
    for index, out in enumerate(passes):
        print(
            f"pass {index}: {len(out.previews)} previews, {len(out.explores)} explores, "
            f"{out.attempted} attempted, {len(out.errors)} errors in {out.elapsed:.2f} s; "
            f"counters {json.dumps(out.counters, sort_keys=True)}"
        )
        for error in out.errors[:10]:
            print(f"  error: {error}")
    for name in sorted(metrics):
        marker = "" if name in declared else "  (reported, not gated)"
        print(f"metric {name} = {metrics[name]:.6g}{marker}")
    for name, ok in sorted(checks.items()):
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
