"""Per-layer self-time accounting by wrapping the repo's public functions.

The traced run installs a :class:`LayerTracer` over the functions listed in
:data:`TARGETS`; the untraced run never imports the wrappers into the call
path. Each wrapped call pushes a frame on a per-thread stack (the plan
scheduler evaluates on a worker thread, the sweep engine drives it from the
event-loop thread), so a layer's *self* time is its wall time minus the time
of wrapped calls nested inside it on the same thread. Self times of all
layers therefore add up to the time spent inside any wrapped layer, never
more, as long as one thread at a time runs them.

Functions are patched where their callers look them up (a module global at
the call site, or a class attribute), so a later change that moves one only
loses that layer: :attr:`LayerTracer.missing` names targets not found.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# A count hook: (tracer, call result) -> None.
CountHook = Optional[Callable[["LayerTracer", object], None]]


def _count(name: str, value: Callable[[object], int] = lambda _: 1):
    def counter(tracer: "LayerTracer", result: object) -> None:
        tracer.add(name, value(result))
    return counter


def _expand_counter(tracer: "LayerTracer", result) -> None:
    flows, _hop_factor = result
    tracer.add("mapping.tasks", 1)
    tracer.add("mapping.flows", len(flows))


def _optimize_counter(tracer: "LayerTracer", result) -> None:
    _flows, report = result
    tracer.add("mapping.reroutes", report.reroutes)


def _solver_counter(tracer: "LayerTracer", result) -> None:
    tracer.add("solver.evaluations", result.evaluations)
    tracer.add("solver.candidates", result.candidates_considered)
    tracer.add("solver.finalists", result.finalists_simulated)


#: (layer or None for count-only, module, attribute path, counter).
TARGETS: Tuple[Tuple[Optional[str], str, str, CountHook], ...] = (
    ("mapping.map", "repro.mapping.engines", "MappingEngine.map",
     _count("mapping.maps")),
    ("mapping.map", "repro.mapping.engines", "TCMEEngine.map",
     _count("mapping.maps")),
    ("mapping.groups", "repro.mapping.engines", "build_parallel_groups",
     _count("mapping.layouts")),
    ("mapping.expand", "repro.mapping.engines", "expand_task",
     _expand_counter),
    ("mapping.loads", "repro.mapping.contention", "LinkLoadMap.from_flows",
     _count("mapping.load_maps")),
    ("mapping.optimize", "repro.mapping.optimizer",
     "TrafficOptimizer.optimize", _optimize_counter),
    ("costmodel.analyze", "repro.costmodel.tables", "PlanCache.analyze",
     _count("costmodel.lookups")),
    ("costmodel.analyze", "repro.costmodel.tables", "analyze_model",
     _count("costmodel.analyses")),
    ("simulation.simulate", "repro.simulation.simulator",
     "WaferSimulator.simulate", _count("simulation.reports")),
    ("core.search", "repro.api.service", "run_baseline_scenario", None),
    ("core.search", "repro.api.service", "simulate_fixed_spec", None),
    ("core.multiwafer", "repro.api.service", "run_multiwafer_scenario", None),
    ("core.prune", "repro.core.framework", "prune_specs",
     _count("core.candidates", len)),
    ("core.prune", "repro.core.multiwafer", "prune_specs",
     _count("core.candidates", len)),
    ("api.evaluate", "repro.api.service", "PlanService.evaluate", None),
    ("api.wafer_build", "repro.api.scenario", "HardwareSpec.resolve_wafer",
     _count("api.wafer_builds")),
    ("solver.prune", "repro.solver.search_space",
     "SearchSpace.pruned_candidates", None),
    ("solver.tables", "repro.solver.dlws", "CostTables", None),
    ("solver.dp", "repro.solver.dlws", "optimize_segments", None),
    ("solver.ga", "repro.solver.genetic", "GeneticRefiner.refine", None),
    (None, "repro.solver.dlws", "DualLevelWaferSolver.solve",
     _solver_counter),
)

#: Every timed layer, in report order.
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in TARGETS if layer))

#: Every work counter, in report order.
COUNTERS = (
    "mapping.maps", "mapping.layouts", "mapping.tasks", "mapping.flows",
    "mapping.load_maps", "mapping.reroutes", "costmodel.lookups",
    "costmodel.analyses", "simulation.reports", "core.candidates",
    "api.wafer_builds", "solver.evaluations", "solver.candidates",
    "solver.finalists",
)


class LayerTracer:
    """Self time and work counts per layer, accumulated across threads."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.inclusive_seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.missing: List[str] = []
        self._patches: List[Tuple[object, str, object]] = []

    # Accounting ------------------------------------------------------------------

    def add(self, counter: str, value: int) -> None:
        with self._lock:
            self.counts[counter] += value

    def timed(self, layer: str, function: Callable,
              counter: CountHook = None) -> Callable:
        """``function`` wrapped to account its self time to ``layer``."""
        local = self._local

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0]  # wall time of wrapped calls nested in this one
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with self._lock:
                    self.self_seconds[layer] += elapsed - frame[0]
                    self.inclusive_seconds[layer] += elapsed
            if counter is not None:
                counter(self, result)
            return result

        return wrapper

    def counted(self, function: Callable, counter: CountHook) -> Callable:
        """``function`` wrapped to feed its result to ``counter`` only."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            counter(self, result)
            return result

        return wrapper

    def snapshot(self) -> Dict[str, object]:
        """Plain-JSON totals (what a traced server writes on exit)."""
        with self._lock:
            return {
                "self_seconds": dict(self.self_seconds),
                "inclusive_seconds": dict(self.inclusive_seconds),
                "counts": dict(self.counts),
                "missing": list(self.missing),
            }

    # Patching --------------------------------------------------------------------

    def install(self) -> "LayerTracer":
        """Patch every target in :data:`TARGETS` (undo with :meth:`remove`)."""
        for layer, module_name, path, counter in TARGETS:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent, None)
            raw = vars(owner).get(attribute) if owner is not None else None
            if raw is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            function = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapped = (self.timed(layer, function, counter) if layer
                       else self.counted(function, counter))
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            setattr(owner, attribute, wrapped)
            self._patches.append((owner, attribute, raw))
        return self

    def remove(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.remove()
