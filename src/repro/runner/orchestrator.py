"""The figure runner: registered grids → rows → one manifest per figure.

:func:`run_all` evaluates every figure of a run on the engine ``repro
sweep`` and ``repro serve`` use: one
:class:`~repro.server.scheduler.PlanScheduler` over an in-memory
:class:`~repro.server.store.ResultStore`, open for the whole run.

* A *Scenario figure*'s grid is its portfolio
  (:meth:`~repro.runner.registry.Experiment.portfolio`), swept through the
  scheduler by :func:`~repro.server.portfolio.sweep_portfolio`. ``jobs`` is
  the number of scheduler lanes, and a point an earlier figure of the run
  evaluated (Fig. 14 reads power off Fig. 13's searches) is served from the
  run's store.
* A *computed figure* runs its cell runner in-process, cell by cell in grid
  order, on the run's one :class:`~repro.api.service.PlanService`. At
  ``jobs=1`` that is the scheduler's own in-process service, so every
  figure of the run shares its warm plan cache and wafers.

Determinism contract: evaluation is deterministic and every cache is pure
memoisation, so a figure's rows depend neither on ``jobs`` nor on the
figures that ran before it. ``tests/runner/test_orchestrator.py`` pins
this.
"""

from __future__ import annotations

import asyncio
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.api.service import PlanService
from repro.obs.tracing import span
from repro.runner.manifest import (
    build_manifest,
    cell_entry,
    experiment_identity,
    finite,
    write_manifest,
)
from repro.runner.registry import Experiment, figure_ids, get_experiment
from repro.server.portfolio import build_sweep_manifest, sweep_portfolio
from repro.server.scheduler import PlanScheduler
from repro.server.store import ResultStore


@dataclass
class CellOutcome:
    """Execution record of one computed-figure cell."""

    params: Dict[str, object]
    rows: List[Dict[str, object]]
    wall_seconds: float
    error: Optional[str] = None


def execute_cell(
    experiment: Experiment, params: Dict[str, object], service: PlanService,
) -> CellOutcome:
    """Run one cell of a computed figure and account for its wall time.

    Cells run in-process and do no I/O, so a raising cell is deterministic:
    it is recorded (traceback in ``error``) instead of aborting the run,
    and the manifest validator and the CLI surface it.
    """
    start = time.perf_counter()
    rows: List[Dict[str, object]] = []
    error = None
    with span("runner.cell", figure=experiment.figure, params=dict(params)):
        try:
            raw_rows = experiment.cell(service, **params)
            rows = [finite({**params, **row}) for row in raw_rows]
        except Exception:
            error = traceback.format_exc(limit=8)
    return CellOutcome(params=params, rows=rows,
                       wall_seconds=time.perf_counter() - start, error=error)


def run_experiment(
    figure: str,
    reduced: bool = False,
    jobs: int = 1,
    output_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict:
    """Run one figure's grid: ``run_all([figure], ...)[figure]``."""
    return run_all([figure], reduced=reduced, jobs=jobs,
                   output_dir=output_dir, progress=progress)[figure]


def run_all(
    figures: Optional[List[str]] = None,
    reduced: bool = False,
    jobs: int = 1,
    output_dir: Optional[str] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Dict]:
    """Run several figures on one scheduler and build their manifests.

    Args:
        figures: registered figure ids, run in this order; every
            registered figure in id order when ``None``.
        reduced: use the reduced grids instead of the paper-fidelity ones.
        jobs: scheduler lanes of the Scenario figures' sweeps (``1``: one
            in-process service; ``N > 1``: ``N`` worker processes).
            Computed figures always run in-process.
        output_dir: when given, each manifest is written to
            ``<output_dir>/<figure>.json`` as soon as its figure finishes.
        progress: optional callback receiving each figure's header line,
            one line per cell, and the figure's summary line.

    Returns:
        ``{figure: manifest}`` in run order, each identical to what is
        written to disk.

    Raises:
        KeyError: on an unknown figure id (before anything runs).
        ValueError: when ``jobs < 1``.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    experiments = [get_experiment(figure) for figure in
                   (figures if figures is not None else figure_ids())]
    report = progress if progress is not None else (lambda line: None)

    async def _run() -> Dict[str, Dict]:
        manifests: Dict[str, Dict] = {}
        async with PlanScheduler(store=ResultStore(None),
                                 jobs=jobs) as scheduler:
            # scheduler.service is the in-process service at jobs=1 and
            # None otherwise, where the computed figures share their own.
            service = (scheduler.service if scheduler.service is not None
                       else PlanService())
            for experiment in experiments:
                figure = experiment.figure
                report(f"{figure} ({experiment.paper}): {experiment.title}")
                if experiment.row is None:
                    # Off the loop's thread; nothing else uses the service
                    # meanwhile, as the figures run one at a time.
                    manifest = await asyncio.to_thread(
                        _run_computed, experiment, service, reduced, jobs,
                        report)
                else:
                    manifest = await _sweep_figure(experiment, scheduler,
                                                   reduced, jobs)
                    for cell in manifest["cells"]:
                        report(_cell_line(figure, cell))
                oom = sum(cell["oom_rows"] for cell in manifest["cells"])
                report(f"  -> {len(manifest['rows'])} rows, {oom} OOM, "
                       f"{manifest['timings']['total_seconds']:.2f}s total")
                if output_dir is not None:
                    write_manifest(manifest, output_dir)
                manifests[figure] = manifest
        return manifests

    return asyncio.run(_run())


def _run_computed(experiment: Experiment, service: PlanService,
                  reduced: bool, jobs: int,
                  report: Callable[[str], None]) -> Dict:
    """A computed figure's manifest: its cells, in grid order, on
    ``service``."""
    start = time.perf_counter()
    cells: List[Dict[str, object]] = []
    rows: List[Dict[str, object]] = []
    for params in experiment.cells(reduced):
        outcome = execute_cell(experiment, params, service)
        cell = cell_entry(params, outcome.rows, outcome.wall_seconds,
                          outcome.error)
        report(_cell_line(experiment.figure, cell))
        cells.append(cell)
        rows.extend(outcome.rows)
    return build_manifest(
        experiment_identity(experiment), experiment.grid(reduced),
        experiment.schema, cells, rows, reduced=reduced, jobs=jobs,
        total_seconds=time.perf_counter() - start,
        plan_cache=service.plan_cache.stats())


async def _sweep_figure(experiment: Experiment, scheduler: PlanScheduler,
                        reduced: bool, jobs: int) -> Dict:
    """A Scenario figure's manifest: its portfolio swept on ``scheduler``."""
    start = time.perf_counter()
    portfolio = experiment.portfolio(reduced)
    outcomes = await sweep_portfolio(scheduler, portfolio)
    manifest = build_sweep_manifest(
        portfolio, outcomes, reduced=reduced, jobs=jobs,
        total_seconds=time.perf_counter() - start, experiment=experiment)
    manifest["plan_cache"] = scheduler.stats()["plan_cache"]
    return manifest


def _cell_line(figure: str, cell: Dict[str, object]) -> str:
    """The progress line of one finished cell."""
    status = "FAILED" if cell["error"] else (
        f"{cell['num_rows']} rows"
        + (f", {cell['oom_rows']} OOM" if cell["oom_rows"] else ""))
    params = ", ".join(f"{k}={v}" for k, v in cell["params"].items())
    return f"  [{figure}] {params}: {status} ({cell['wall_seconds']:.2f}s)"
