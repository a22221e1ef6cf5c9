"""The three workload runners and the metrics they report.

Each runner runs one workload for a time budget through the repo's public
entry points only, checks every answer, and returns a :class:`Run`. Untraced
runs (``trace=False``) report the end-to-end metrics and never touch the
layer wrappers. Traced runs spend the first half of the budget untraced and
the second half traced over the same inputs, and report the per-layer
metrics; comparing the two halves gives ``trace_overhead_share``.

Per-layer time accounting: ``<layer>_s`` is the layer's self time summed
over the traced half, ``trace_wall_s`` that half's wall time, and
``other_s`` the part of the wall no layer (and, for ``search_sweep``, no
sweep overhead) accounts for: the runner's own loop and checks, code outside
the wrapped functions, and for ``serve_fabrics`` the server's time outside
evaluation (HTTP, store hits, idling between requests). Self times never
overlap, so ``other_s`` below ``-5%`` of the wall is reported as a failed
check.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import inputs
from layers import COUNTERS, LAYERS, LayerTracer
from plan_server import (
    HERE,
    ROOT,
    ServerProcess,
    child_env,
    drive,
    peak_rss_mb,
)
from repro.api.service import PlanService, validate_result_payload
from repro.server.client import PlanClient
from repro.server.portfolio import run_portfolio_local

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Closed-loop clients of ``serve_fabrics``.
SERVE_CLIENTS = 2

#: Requests every ``serve_fabrics`` run answers at least, so that even a
#: seconds-long run has a latency tail.
SERVE_MIN_REQUESTS = 400

#: Served scenarios re-evaluated in-process per ``serve_fabrics`` run.
RECHECK_SAMPLE = 8

#: Tolerance of the traced-time accounting (share of the traced wall).
ACCOUNTING_TOLERANCE = 0.05

END_TO_END_UNITS = {
    "setup_s": "s",
    "plans_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "sim_tokens_per_s": "tokens/s",
    "peak_rss_mb": "MiB",
}

SERVER_UNITS = {
    "server.hit_share": "ratio",
    "server.hit_p50_ms": "ms",
    "server.eval_p50_ms": "ms",
    "server.evaluations": "count",
    "server.queue_wait_s": "s",
    "server.dispatch_s": "s",
    "server.store_write_s": "s",
    "server.store_entries": "count",
    "server.sweep_overhead_s": "s",
}

#: The per-layer metrics that partition the traced wall time.
PARTITION = (*(f"{layer}_s" for layer in LAYERS), "server.sweep_overhead_s",
             "other_s")

PER_LAYER_UNITS = {
    **{f"{layer}_s": "s" for layer in LAYERS},
    **{counter: "count" for counter in COUNTERS},
    **SERVER_UNITS,
    "other_s": "s",
    "trace_wall_s": "s",
    "trace_overhead_share": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not run (not a wrong answer: those are counted)."""


@dataclass
class Run:
    """What one runner measured and checked."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, label: str, payload: Dict[str, object]) -> bool:
        """Count one answer; a bad one is counted failed. True when good."""
        self.attempted += 1
        if "error" in payload:
            self.fail(f"{label}: error payload {payload['error']}")
            return False
        problems = validate_result_payload(payload)
        if problems:
            self.fail(f"{label}: invalid payload: {'; '.join(problems)}")
            return False
        return True


# Statistics ------------------------------------------------------------------------


def tail(values: Sequence[float]) -> Tuple[float, str]:
    """The highest percentile with at least 10 samples beyond it.

    Below 100 samples that percentile is under p90 and no longer a tail
    (a run holds only ~10 sweeps), so the maximum is returned instead; the
    label states which was used and the sample count.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count >= 100:
        return (ordered[count - 11],
                f"p{100.0 * (count - 10) / count:.2f} of {count} samples")
    return ordered[-1], f"max of {count} samples (fewer than 100)"


def geomean(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("no non-OOM plan to average")
    return math.exp(statistics.fmean(math.log(value) for value in values))


def shares(labels: Sequence[str]) -> str:
    counts: Dict[str, int] = {}
    for label in labels:
        counts[label] = counts.get(label, 0) + 1
    return ", ".join(f"{label} {100.0 * count / len(labels):.1f}%"
                     for label, count in sorted(counts.items()))


# Set-up ------------------------------------------------------------------------------


def probe_seconds(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter importing and generating inputs."""
    start = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=120)
    elapsed = time.perf_counter() - start
    if completed.returncode != 0:
        raise BenchError(f"set-up probe failed: {completed.stderr.strip()}")
    return elapsed


def setup_seconds(workload: str, seed: int) -> float:
    """``setup_s`` of an in-process workload: the median probe."""
    return statistics.median(probe_seconds(workload, seed)
                             for _ in range(SETUP_REPEATS))


def layer_metrics(run: Run, snapshot: Dict[str, object], wall: float,
                  overhead_share: float,
                  server: Optional[Dict[str, float]] = None) -> None:
    """Fill ``run.metrics`` with every per-layer metric of a traced half."""
    self_seconds = snapshot["self_seconds"]
    counts = snapshot["counts"]
    metrics = run.metrics
    for layer in LAYERS:
        metrics[f"{layer}_s"] = self_seconds.get(layer, 0.0)
    for counter in COUNTERS:
        metrics[counter] = counts.get(counter, 0)
    for name in SERVER_UNITS:
        metrics[name] = 0
    metrics.update(server or {})
    metrics["other_s"] = 0.0
    accounted = sum(metrics[name] for name in PARTITION)
    metrics["other_s"] = wall - accounted
    metrics["trace_wall_s"] = wall
    metrics["trace_overhead_share"] = overhead_share
    if metrics["other_s"] < -ACCOUNTING_TOLERANCE * wall:
        run.problems.append(
            f"layer self times ({accounted:.3f}s) exceed the traced wall "
            f"({wall:.3f}s) by more than {ACCOUNTING_TOLERANCE:.0%}")
    if snapshot["missing"]:
        run.notes.append("layer targets not found (reported as 0): "
                         + ", ".join(snapshot["missing"]))


def timed_loop(step: Callable[[], float], seconds: float,
               unit: int = 1) -> Tuple[List[float], float]:
    """Call ``step`` in whole groups of ``unit`` until ``seconds`` pass.

    Returns the per-call durations ``step`` reports and the loop's wall.
    """
    durations: List[float] = []
    start = time.perf_counter()
    while not durations or time.perf_counter() - start < seconds:
        for _ in range(unit):
            durations.append(step())
    return durations, time.perf_counter() - start


# search_sweep --------------------------------------------------------------------


def run_search_sweep(seed: int, seconds: float, trace: bool) -> Run:
    """Full fig13 + fig19 grids through ``run_portfolio_local(jobs=1)``."""
    run = Run()
    setup = None if trace else setup_seconds("search_sweep", seed)
    portfolio = inputs.sweep_portfolio(seed)
    reference: Dict[int, Dict[str, object]] = {}
    sources: List[str] = []

    def sweep() -> float:
        start = time.perf_counter()
        outcomes = run_portfolio_local(portfolio, jobs=1)
        elapsed = time.perf_counter() - start
        for outcome in outcomes:
            sources.append(outcome.source)
            label = f"point {outcome.index}"
            if not run.check(label, outcome.payload):
                continue
            known = reference.setdefault(outcome.index, outcome.payload)
            if known != outcome.payload:
                run.fail(f"{label}: answer changed between sweeps")
        return elapsed

    sweep()  # warm-up: lazy imports and first answers, untimed
    answers = list(reference.values())
    non_oom = [payload["throughput"] for payload in answers
               if not payload["oom"]]
    run.notes.append(
        f"{len(answers)} points; kind: "
        f"{shares([payload['kind'] for payload in answers])}; engine: "
        f"{shares([payload['engine'] for payload in answers])}; OOM "
        f"{100.0 * (len(answers) - len(non_oom)) / len(answers):.1f}%")

    if not trace:
        walls, _ = timed_loop(sweep, seconds)
        latency_tail, tail_label = tail(walls)
        run.metrics.update({
            "setup_s": setup,
            "plans_per_s": portfolio.num_points() / statistics.median(walls),
            "latency_p50_ms": 1e3 * statistics.median(walls),
            "latency_tail_ms": 1e3 * latency_tail,
            "sim_tokens_per_s": geomean(non_oom),
            "peak_rss_mb": peak_rss_mb(),
        })
        run.notes.append(f"latency = one whole sweep; tail = {tail_label}")
        return run

    plain, _ = timed_loop(sweep, seconds / 2)
    del sources[:]
    with LayerTracer() as tracer:
        traced, wall = timed_loop(sweep, seconds / 2)
    snapshot = tracer.snapshot()
    evaluate = snapshot["inclusive_seconds"].get("api.evaluate", 0.0)
    layer_metrics(
        run, snapshot, wall,
        statistics.median(traced) / statistics.median(plain) - 1.0,
        server={
            "server.evaluations": sources.count("evaluated"),
            "server.sweep_overhead_s": sum(traced) - evaluate,
        })
    return run


# dlws_solve ----------------------------------------------------------------------


def run_dlws_solve(seed: int, seconds: float, trace: bool) -> Run:
    """``PlanService.solve`` (default DLWS) over the seeded solve requests."""
    run = Run()
    setup = None if trace else setup_seconds("dlws_solve", seed)
    scenarios = inputs.solve_scenarios(seed)
    service = PlanService()
    reference: Dict[int, Tuple[object, float]] = {}
    throughputs: Dict[int, float] = {}
    cursor = 0

    def solve() -> float:
        nonlocal cursor
        position = cursor % len(scenarios)
        cursor += 1
        start = time.perf_counter()
        outcome = service.solve(scenarios[position])
        elapsed = time.perf_counter() - start
        run.attempted += 1
        answer = (outcome.spec, outcome.step_time)
        label = f"solve {position} ({scenarios[position].describe()})"
        if outcome.spec is None or not math.isfinite(outcome.step_time):
            run.fail(f"{label}: no spec or no finite step time")
        elif reference.setdefault(position, answer) != answer:
            run.fail(f"{label}: answer changed between passes")
        elif not outcome.oom:
            throughputs[position] = outcome.throughput
        return elapsed

    for _ in scenarios:  # warm-up pass: first answers, untimed
        solve()
    run.notes.append(f"{len(scenarios)} solve requests per pass")

    if not trace:
        latencies, wall = timed_loop(solve, seconds, unit=len(scenarios))
        latency_tail, tail_label = tail(latencies)
        run.metrics.update({
            "setup_s": setup,
            "plans_per_s": len(latencies) / wall,
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * latency_tail,
            "sim_tokens_per_s": geomean(list(throughputs.values())),
            "peak_rss_mb": peak_rss_mb(),
        })
        run.notes.append(f"latency = one solve; tail = {tail_label}")
        return run

    plain, _ = timed_loop(solve, seconds / 2, unit=len(scenarios))
    with LayerTracer() as tracer:
        traced, wall = timed_loop(solve, seconds / 2, unit=len(scenarios))
    layer_metrics(run, tracer.snapshot(), wall,
                  statistics.fmean(traced) / statistics.fmean(plain) - 1.0)
    return run


# serve_fabrics -------------------------------------------------------------------


class EveryScenario:
    """Each pool scenario once, in pool order (a request sequence for
    :func:`drive`): the untimed pass after the timed window that makes every
    run answer the whole pool."""

    def __init__(self, sequence: "inputs.RequestSequence") -> None:
        self.documents = sequence.documents

    @staticmethod
    def rank(index: int) -> int:
        return index


def check_served(run: Run, sequence: "inputs.RequestSequence", loads,
                 seed: int) -> Dict[int, Dict[str, object]]:
    """Count and check every answer; re-evaluate a seeded sample in-process.

    Returns the first good payload per pool rank.
    """
    first: Dict[int, Dict[str, object]] = {}
    for load in loads:
        for failure in load.failures:
            run.attempted += 1
            run.fail(failure)
        for response in load.responses:
            label = f"request {response.index}"
            if not run.check(label, response.payload):
                continue
            known = first.setdefault(response.rank, response.payload)
            if known != response.payload:
                run.fail(f"{label}: answer differs from an earlier answer to "
                         f"the same scenario")
    ranks = sorted(first)
    sample = random.Random(f"recheck:{seed}").sample(
        ranks, min(RECHECK_SAMPLE, len(ranks)))
    service = PlanService()
    for rank in sample:
        direct = service.evaluate(sequence.pool[rank]).to_dict()
        if (json.dumps(direct, sort_keys=True)
                != json.dumps(first[rank], sort_keys=True)):
            run.fail(f"pool scenario {rank}: served answer differs from "
                     f"PlanService.evaluate")
    return first


def run_serve_fabrics(seed: int, seconds: float, trace: bool) -> Run:
    """Closed-loop clients against a ``repro serve --jobs 1`` subprocess."""
    run = Run()
    sequence = inputs.RequestSequence(seed)
    pool_size = len(sequence.pool)
    if not trace:
        with contextlib.ExitStack() as servers:
            setups: List[float] = []
            for _ in range(SETUP_REPEATS):
                if setups:
                    server.close()
                probe = probe_seconds("serve_fabrics", seed)
                server = servers.enter_context(ServerProcess())
                setups.append(probe + server.startup_seconds)
            load = drive(server, sequence, SERVE_CLIENTS, seconds,
                         SERVE_MIN_REQUESTS)
            rss = peak_rss_mb(server.process.pid)
            every = drive(server, EveryScenario(sequence), 1, 0.0, 0,
                          max_requests=pool_size)
        first = check_served(run, sequence, [load, every], seed)
        latencies = [response.latency for response in load.responses]
        latency_tail, tail_label = tail(latencies)
        run.metrics.update({
            "setup_s": statistics.median(setups),
            "plans_per_s": len(latencies) / load.wall_seconds,
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_tail_ms": 1e3 * latency_tail,
            "sim_tokens_per_s": geomean([payload["throughput"]
                                         for payload in first.values()
                                         if not payload["oom"]]),
            "peak_rss_mb": rss,
        })
        sources = [response.source for response in load.responses]
        run.notes.append(f"latency = one request; tail = {tail_label}")
        run.notes.append(
            f"{pool_size} pool scenarios, "
            f"{len({r.rank for r in load.responses})} requested in the timed "
            f"window; source: {shares(sources)}")
        run.notes.append("fabric mix: " + shares(
            [sequence.fabrics[response.rank]
             for response in load.responses]))
        return run

    with ServerProcess() as server:
        plain = drive(server, sequence, SERVE_CLIENTS, seconds / 2,
                      SERVE_MIN_REQUESTS)
    check_served(run, sequence, [plain], seed)
    with ServerProcess(trace=True) as server:
        traced = drive(server, sequence, SERVE_CLIENTS, 0.0, 0,
                       max_requests=plain.attempted)
        document = PlanClient(port=server.port).metrics()
        server.stop()
        snapshot = json.loads(server.trace_path.read_text())
    check_served(run, sequence, [traced], seed)
    timings = document.get("timings", {})

    def histogram_sum(name: str) -> float:
        return float(timings.get(name, {}).get("sum", 0.0))

    hits = [response.latency for response in traced.responses
            if response.source == "store"]
    evaluated = [response.latency for response in traced.responses
                 if response.source == "evaluated"]
    layer_metrics(
        run, snapshot, traced.wall_seconds,
        traced.wall_seconds / plain.wall_seconds - 1.0,
        server={
            "server.hit_share": len(hits) / max(len(traced.responses), 1),
            "server.hit_p50_ms": (1e3 * statistics.median(hits)
                                  if hits else 0.0),
            "server.eval_p50_ms": (1e3 * statistics.median(evaluated)
                                   if evaluated else 0.0),
            "server.evaluations": len(evaluated),
            "server.queue_wait_s": histogram_sum(
                "scheduler.queue_wait_seconds"),
            "server.dispatch_s": histogram_sum("scheduler.dispatch_seconds"),
            "server.store_write_s": histogram_sum(
                "scheduler.store_write_seconds"),
            "server.store_entries": document.get("store", {}).get(
                "entries", 0),
        })
    return run


RUNNERS = {
    "search_sweep": run_search_sweep,
    "dlws_solve": run_dlws_solve,
    "serve_fabrics": run_serve_fabrics,
}
