"""The two benchmark workloads, driven through the public service API.

Every workload has the same shape: ``setup(seed)`` builds the tables and an
:class:`~repro.service.exploration.ExplorationService` at shipped defaults
(the default mechanism registry, hence ``mc_samples=10_000``), and
``run(state, seconds, recorder)`` drives the timed phase and returns a
:class:`Pass` with raw latencies, counter deltas and correctness evidence.
The seed decides every generated request; the service sees only the
requests.

``cold_translate``  one closed-loop client; every preview is a structure the
                    process has never seen (all translation, matrix and
                    Monte-Carlo memos miss, and so does the artifact store
                    in a fresh directory, which saves every new artifact);
                    each is then explored once.
``warm_mixed``      two closed-loop clients, four sessions, the twelve
                    Table-1 queries at one preview to three explores, after
                    a warm-up that fills every memo.
"""

from __future__ import annotations

import gc
import hashlib
import math
import shutil
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from layer_trace import SpanRecorder

ALPHA_FRACTION = 0.05
BETA = 5e-4
#: Owner budget for every workload: large enough that nothing is denied.
BUDGET = 1e6

# -- shared bookkeeping ---------------------------------------------------------


@dataclass
class Pass:
    """Everything one timed phase produced."""

    elapsed: float = 0.0
    previews: list[float] = field(default_factory=list)
    explores: list[float] = field(default_factory=list)
    #: Per client, every request latency in sending order (pairs traced and
    #: untraced passes for the overhead figure).
    sequences: list[list[float]] = field(default_factory=list)
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    #: epsilon charged by the explores of the scored prefix (see each run).
    scored_eps: list[float] = field(default_factory=list)
    answered: int = 0
    denied: int = 0
    eps_over_upper: int = 0
    #: max |answer - truth| / alpha of every checked WCQ answer.
    wcq_error_ratios: list[float] = field(default_factory=list)
    checks: dict[str, bool] = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    request_log: list[str] = field(default_factory=list)


class Client:
    """One closed-loop client: times each call and records errors."""

    def __init__(self, out: Pass, recorder: SpanRecorder | None, lock: threading.Lock,
                 first_id: int) -> None:
        self.out = out
        self.recorder = recorder
        self.lock = lock
        self.sequence: list[float] = []
        self.next_id = first_id

    def call(self, kind: str, fn: Callable[[], object]) -> object | None:
        self.next_id += 1
        scope = (
            self.recorder.request(self.next_id, f"request.{kind}")
            if self.recorder is not None
            else nullcontext()
        )
        start = time.perf_counter()
        try:
            with scope:
                result = fn()
        except Exception as exc:  # counted, never swallowed: see report
            with self.lock:
                self.out.attempted += 1
                self.out.errors.append(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - start
        self.sequence.append(elapsed)
        with self.lock:
            self.out.attempted += 1
            (self.out.previews if kind == "preview" else self.out.explores).append(elapsed)
        return result


def note(out: Pass, result) -> None:
    """Count one explore result (callers hold the pass's lock if shared)."""
    if result.denied:
        out.denied += 1
        return
    out.answered += 1
    if result.epsilon_spent > result.epsilon_upper * (1 + 1e-9):
        out.eps_over_upper += 1


def service_checks(out: Pass, service) -> None:
    """Theorem 6.2 validity, spend <= B, and epsilon_spent <= epsilon_upper."""
    out.checks["transcript_valid"] = bool(service.validate())
    out.checks["spend_within_budget"] = service.budget_spent <= service.budget
    out.checks["eps_spent_within_upper"] = out.eps_over_upper == 0
    out.checks["nothing_denied"] = out.denied == 0


def wcq_error_ratios(answers, truths, alphas) -> list[float]:
    return [
        float(np.max(np.abs(np.asarray(answer, dtype=float) - truth))) / alpha
        for answer, truth, alpha in zip(answers, truths, alphas)
    ]


def counter_snapshot(service) -> dict[str, float]:
    """Public counters whose deltas become per-layer counts."""
    from repro.mechanisms.strategy_mechanism import search_stats
    from repro.queries.workload import matrix_cache_stats

    stats = service.stats()
    matrices = matrix_cache_stats()
    translations = stats["translations"]
    out = {
        "matrix_built": matrices["built"],
        "sm_searches": search_stats()["searches"],
        "translation_hits": translations["hits"],
        "translation_misses": translations["misses"],
        "coalesced": stats["batching"]["coalesced"],
        "commit_batch_max": max(stats["budget"]["commit_batch_sizes"], default=0),
    }
    if stats["store"] is not None:
        out["store_writes"] = stats["store"]["writes"]
    return out


def counter_delta(before: dict, after: dict) -> dict[str, float]:
    delta = {key: after[key] - before[key] for key in before}
    delta["commit_batch_max"] = after["commit_batch_max"]
    return delta


def accuracy_for(table) -> "AccuracySpec":
    from repro.core.accuracy import AccuracySpec

    return AccuracySpec(alpha=ALPHA_FRACTION * len(table), beta=BETA)


# -- cold_translate ---------------------------------------------------------------

#: One block = one structure per entry, in a seeded order.  An entry fixes
#: dataset, query kind, partition count and attribute, so every seed draws
#: the same cost profile (explore cost depends on the attribute's data);
#: the seed picks bin edges and order, so no two structures are alike.  The
#: five middle entries (nested ranges over Adult's fnlwgt, P = 40, all
#: answered by the strategy mechanism) sit between two cheaper and two
#: dearer entries both for preview cost (which grows with P) and for
#: explore cost (large for the strategy mechanism on NYTaxi's 200k rows and
#: on Adult's mostly-zero capital columns, small for the Laplace
#: mechanism), so both medians fall inside that one class of like cost,
#: and more than half of each block's structures feed them.
COLD_CLASSES = (
    ("nytaxi", "hist", 24, "trip_distance"),  # cheap preview, cheap explore (WCQ-LM)
    ("nytaxi", "prefix", 16, "fare_amount"),  # cheap preview, dear explore (WCQ-SM)
    ("adult", "prefix", 40, "fnlwgt"),
    ("adult", "cdf", 40, "fnlwgt"),
    ("adult", "prefix", 40, "fnlwgt"),
    ("adult", "cdf", 40, "fnlwgt"),
    ("adult", "prefix", 40, "fnlwgt"),
    ("adult", "hist", 100, "capital_gain"),  # dear preview, cheap explore (WCQ-LM)
    ("adult", "iceberg", 72, "capital_loss"),  # dear preview, dear explore (ICQ-SM)
)

#: Lowest start and typical span of the bins, per attribute.
COLD_RANGES = {
    "capital_gain": (0.0, 8_000.0),
    "capital_loss": (0.0, 3_000.0),
    "fnlwgt": (10_000.0, 600_000.0),
    "trip_distance": (0.0, 12.0),
    "fare_amount": (2.5, 40.0),
}


#: Attributes no cold structure uses, for the set-up primer request.
PRIMER_ATTRIBUTE = {"adult": "education_num", "nytaxi": "passenger_count"}


@dataclass(frozen=True)
class ColdRequest:
    dataset: str
    kind: str
    attribute: str
    edges: tuple[float, ...]

    def describe(self) -> str:
        edges = ",".join(float(e).hex() for e in self.edges)
        digest = hashlib.sha256(edges.encode()).hexdigest()[:12]
        return f"{self.dataset}:{self.kind}:{self.attribute}:{len(self.edges)}:{digest}"


def cold_block(seed: int, block: int) -> list[ColdRequest]:
    """The ``block``-th block of structures for ``seed`` (pure function)."""
    rng = np.random.default_rng([seed, block])
    requests = []
    for dataset, kind, bins, attribute in COLD_CLASSES:
        low, span = COLD_RANGES[attribute]
        start = low + rng.uniform(0.0, 0.05) * span
        widths = rng.uniform(0.5, 1.5, bins) * (span * rng.uniform(0.6, 1.4) / bins)
        edges = start + np.concatenate(([0.0], np.cumsum(widths)))
        # hist: bins + 1 edges of disjoint ranges; cdf: [start, edge_i)
        # cumulative ranges; prefix and iceberg: cut points.
        chosen = edges[1:] if kind in ("prefix", "iceberg") else edges
        requests.append(ColdRequest(dataset, kind, attribute, tuple(float(e) for e in chosen)))
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


def cold_query(request: ColdRequest, table, name: str):
    from repro.queries.builders import prefix_workload, range_workload
    from repro.queries.predicates import Between
    from repro.queries.query import IcebergCountingQuery, WorkloadCountingQuery
    from repro.queries.workload import Workload

    if request.kind == "hist":
        return WorkloadCountingQuery(range_workload(request.attribute, request.edges), name=name)
    if request.kind == "cdf":
        start = request.edges[0]
        workload = Workload(
            [Between(request.attribute, start, high) for high in request.edges[1:]],
            [f"{request.attribute} in [{start:g}, {high:g})" for high in request.edges[1:]],
        )
        return WorkloadCountingQuery(workload, name=name)
    workload = prefix_workload(request.attribute, request.edges)
    if request.kind == "prefix":
        return WorkloadCountingQuery(workload, name=name)
    return IcebergCountingQuery(workload, threshold=0.1 * len(table), name=name)


@dataclass
class ColdState:
    service: object
    tables: dict
    store_dir: str

    def close(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)


def cold_setup(seed: int, scratch: str) -> ColdState:
    from repro.data.adult import generate_adult
    from repro.data.nytaxi import generate_nytaxi
    from repro.queries.builders import histogram_workload
    from repro.queries.query import WorkloadCountingQuery
    from repro.queries.workload import clear_matrix_cache
    from repro.service.exploration import ExplorationService
    from repro.store import ArtifactStore

    clear_matrix_cache()
    tables = {
        "adult": generate_adult(32_561, seed=seed),
        "nytaxi": generate_nytaxi(200_000, seed=seed),
    }
    for dataset, _, _, attribute in COLD_CLASSES:
        tables[dataset].numeric_values(attribute)  # lazy per-column views
    store_dir = tempfile.mkdtemp(prefix="store-", dir=scratch)
    service = ExplorationService(
        tables, budget=BUDGET, seed=seed, store=ArtifactStore(store_dir)
    )
    for dataset, table in tables.items():
        analyst = f"{dataset}-0"
        service.register_analyst(analyst, table=dataset)
        # First-call costs of the request path (lazy imports, first
        # allocations) belong to set-up; this structure is never used again.
        primer = WorkloadCountingQuery(
            histogram_workload(PRIMER_ATTRIBUTE[dataset], start=0, stop=8, bins=4),
            name=f"primer-{dataset}",
        )
        service.preview_cost(analyst, primer, accuracy_for(table))
        service.explore(analyst, primer, accuracy_for(table))
    return ColdState(service, tables, store_dir)


def cold_run(state: ColdState, seed: int, seconds: float,
             recorder: SpanRecorder | None = None) -> Pass:
    """Whole blocks for about ``seconds``; eps is scored on block 0.

    Another block starts only if it would end, at the mean block time so
    far, less than half a block past ``seconds``; so the timed phase lasts
    ``seconds`` give or take half a block, and at least one block.
    """
    service = state.service
    out = Pass()
    client = Client(out, recorder, threading.Lock(), 0)
    wcq = []
    before = counter_snapshot(service)
    start = time.perf_counter()
    block = 0
    while True:
        for index, request in enumerate(cold_block(seed, block)):
            table = state.tables[request.dataset]
            query = cold_query(request, table, f"cold-{block}-{index}")
            accuracy = accuracy_for(table)
            analyst = f"{request.dataset}-0"
            out.request_log.append(request.describe())
            client.call("preview", lambda: service.preview_cost(analyst, query, accuracy))
            result = client.call("explore", lambda: service.explore(analyst, query, accuracy))
            if result is not None:
                note(out, result)
                if block == 0 and not result.denied:
                    out.scored_eps.append(result.epsilon_spent)
                if query.kind.value == "WCQ" and not result.denied:
                    wcq.append((result, query, table))
        block += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / block >= seconds:
            break
    out.elapsed = time.perf_counter() - start
    out.sequences = [client.sequence]
    out.counters = counter_delta(before, counter_snapshot(service))
    out.counters["blocks"] = block
    service_checks(out, service)
    out.wcq_error_ratios = wcq_error_ratios(
        [r.answer for r, _, _ in wcq],
        [np.asarray(q.true_answer(t), dtype=float) for _, q, t in wcq],
        [r.accuracy.alpha for r, _, _ in wcq],
    )
    return out


# -- warm_mixed -----------------------------------------------------------------

WARM_CLIENTS = 2
EXPLORES_PER_PREVIEW = 3


@dataclass
class WarmState:
    service: object
    bench: object
    accuracy: dict


def warm_setup(seed: int) -> WarmState:
    """Tables, service, four sessions and a warm-up that fills every memo."""
    from repro.bench.queries import build_benchmark
    from repro.queries.workload import clear_matrix_cache
    from repro.service.exploration import ExplorationService

    clear_matrix_cache()
    bench = build_benchmark(seed=seed)
    tables = {"Adult": bench.adult, "NYTaxi": bench.nytaxi}
    service = ExplorationService(tables, budget=BUDGET, seed=seed)
    for client in range(WARM_CLIENTS):
        for dataset in tables:
            service.register_analyst(f"{dataset}-{client}", table=dataset)
    accuracy = {entry.name: accuracy_for(bench.table_for(entry)) for entry in bench}
    errors: list[BaseException] = []

    def warm(dataset: str) -> None:
        try:
            for entry in bench:
                if entry.dataset == dataset:
                    service.preview_cost(f"{dataset}-0", entry.query, accuracy[entry.name])
                    service.explore(f"{dataset}-0", entry.query, accuracy[entry.name])
        except BaseException as exc:  # re-raised in the setup thread below
            errors.append(exc)

    threads = [threading.Thread(target=warm, args=(dataset,)) for dataset in tables]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return WarmState(service, bench, accuracy)


def warm_order(seed: int, client: int) -> list[int]:
    """The seeded cycle order of the twelve queries for one client."""
    return [int(i) for i in np.random.default_rng([seed, 1000 + client]).permutation(12)]


def warm_run(state: WarmState, seed: int, seconds: float,
             recorder: SpanRecorder | None = None) -> Pass:
    """Two clients until ``seconds``; eps is scored on each client's first cycle."""
    service, bench = state.service, state.bench
    entries = list(bench)
    out = Pass()
    lock = threading.Lock()
    clients = [Client(out, recorder, lock, 10_000_000 * (c + 1)) for c in range(WARM_CLIENTS)]
    wcq_answers: list[np.ndarray] = []
    wcq_queries: list[int] = []
    scored: list[list[float]] = [[] for _ in clients]
    logs: list[list[str]] = [[] for _ in clients]
    before = counter_snapshot(service)
    start = time.perf_counter()
    deadline = start + seconds

    def loop(c: int) -> None:
        client, order = clients[c], warm_order(seed, c)
        step = 0
        while time.perf_counter() < deadline:
            entry = entries[order[step % len(order)]]
            analyst = f"{entry.dataset}-{c}"
            accuracy = state.accuracy[entry.name]
            logs[c].append(entry.name)
            client.call("preview", lambda: service.preview_cost(analyst, entry.query, accuracy))
            for _ in range(EXPLORES_PER_PREVIEW):
                result = client.call("explore", lambda: service.explore(analyst, entry.query, accuracy))
                if result is None:
                    continue
                with lock:
                    note(out, result)
                    if entry.query.kind.value == "WCQ" and not result.denied:
                        wcq_answers.append(result.answer)
                        wcq_queries.append(order[step % len(order)])
                if step < len(order) and not result.denied:
                    scored[c].append(result.epsilon_spent)
            step += 1

    threads = [threading.Thread(target=loop, args=(c,)) for c in range(WARM_CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    out.elapsed = time.perf_counter() - start
    out.sequences = [client.sequence for client in clients]
    out.counters = counter_delta(before, counter_snapshot(service))
    out.scored_eps = [eps for per_client in scored for eps in per_client]
    out.request_log = [name for per_client in logs for name in per_client]
    service_checks(out, service)
    out.checks["first_cycle_complete"] = all(
        len(s) == len(entries) * EXPLORES_PER_PREVIEW for s in scored
    )
    out.checks["no_matrix_builds"] = out.counters["matrix_built"] == 0
    out.checks["no_sm_searches"] = out.counters["sm_searches"] == 0
    truths = {
        i: np.asarray(entries[i].query.true_answer(bench.table_for(entries[i])), dtype=float)
        for i in set(wcq_queries)
    }
    out.wcq_error_ratios = wcq_error_ratios(
        wcq_answers,
        [truths[i] for i in wcq_queries],
        [state.accuracy[entries[i].name].alpha for i in wcq_queries],
    )
    return out


# -- registry -----------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    setup_repeats: int
    setup: Callable
    run: Callable
    #: Whether a second timed pass may reuse the state the first one left.
    #: A cold workload must set up afresh, or its second pass would be warm.
    reusable: bool


def make_workloads(scratch: str) -> dict[str, WorkloadSpec]:
    # setup_s is the median of several set-ups, except for warm_mixed: its
    # set-up is a 7-9 s warm-up pass at 10k Monte-Carlo samples, and
    # repeating it would not fit the benchmark's time budget.
    return {
        "cold_translate": WorkloadSpec(
            "cold_translate", 5, lambda seed: cold_setup(seed, scratch), cold_run, False
        ),
        "warm_mixed": WorkloadSpec("warm_mixed", 1, warm_setup, warm_run, True),
    }


def close_state(state) -> None:
    close = getattr(state, "close", None)
    if close is not None:
        close()
    gc.collect()


def binomial_limit(n: int, p: float, tail: float = 1e-6) -> int:
    """Smallest k with P[Binomial(n, p) >= k] <= tail (one-sided)."""
    if n == 0:
        return 1
    log_p, log_q = math.log(p), math.log1p(-p)
    terms = [
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        + k * log_p + (n - k) * log_q
        for k in range(n + 1)
    ]
    upper = 0.0
    for k in range(n, -1, -1):
        upper += math.exp(terms[k])
        if upper > tail:
            return k + 1
    return 0
