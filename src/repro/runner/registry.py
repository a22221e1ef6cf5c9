"""The experiment registry: one entry per figure/table of the evaluation.

Every module under :mod:`repro.experiments` registers its figure with
:func:`register` at import time: the default and reduced parameter grids,
the schema of the manifest rows it emits, and how a cell is computed. The
orchestrator, ``repro sweep``, the CLI, the generated ``EXPERIMENTS.md``,
and ``repro.experiments.__all__`` are all derived from this table, so
adding a figure is one registration — no hand-maintained lists.

A *grid* is either

* a dict mapping axis name to a list of values — expanded as the cartesian
  product (``{"model": [...], "system": [...]}`` → one cell per pair), or
* an explicit list of cell-parameter dicts, for figures whose cells are not
  a full product (e.g. Fig. 4's two sub-studies over different model sets).

A cell is computed in one of two ways:

* a *Scenario figure* registers a ``scenario`` builder and a ``row``
  mapper. :meth:`Experiment.portfolio` is its grid as a
  :class:`~repro.api.portfolio.Portfolio`, one point per cell evaluating
  ``scenario(**params)``; ``repro run`` and ``repro sweep`` both sweep it
  through the plan scheduler and map each point's result payload to one
  row with ``row(params, payload)``.
* a *computed figure* decorates a *cell runner*
  ``cell(service, **params) -> list[dict]``: ``service`` is the run's
  shared :class:`~repro.api.service.PlanService`, ``params`` is one point
  of the grid, and the returned dicts are the cell's rows.

Either way ``params`` are merged into each row, and the merged keys must
equal the registered ``schema``.
"""

from __future__ import annotations

import importlib
import itertools
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.api.portfolio import Portfolio, PortfolioAxis, _section_axes

Grid = Union[Dict[str, Sequence], List[Dict[str, object]]]

#: Module whose import populates the registry (imports all figure modules).
_EXPERIMENTS_PACKAGE = "repro.experiments"


@dataclass(frozen=True)
class Experiment:
    """Registered metadata and cell computation of one figure."""

    figure: str
    paper: str
    title: str
    module: str
    default_grid: Grid
    reduced_grid: Grid
    schema: Tuple[str, ...]
    entrypoints: Tuple[str, ...] = field(default_factory=tuple)
    description: str = ""
    scenario: Optional[Callable] = None
    row: Optional[Callable] = None
    runner: Optional[Callable] = None

    def cell(self, service, **params) -> List[Dict[str, object]]:
        """The rows of one cell of a computed figure (before ``params`` are
        merged in): its cell runner's output on ``service``."""
        return self.runner(service, **params)

    def scenario_for(self, **params) -> "object":
        """Build the figure's :class:`repro.api.Scenario` for one cell.

        Every registered figure maps its grid parameters to a Scenario via
        the ``scenario`` builder it registered; this is what makes the grids
        "dicts of Scenario overrides" and what the serde round-trip test
        iterates.

        Raises:
            ValueError: when the figure registered no scenario builder.
        """
        if self.scenario is None:
            raise ValueError(
                f"figure {self.figure!r} registered no scenario builder")
        return self.scenario(**params)

    def portfolio(self, reduced: bool = False) -> Portfolio:
        """The grid as a zipped :class:`Portfolio` (what ``repro sweep`` runs).

        Each cell parameter is a recorded annotation-only axis, so a
        point's params are its cell's; unrecorded section axes carry the
        cell's scenario, so point ``i`` evaluates
        ``scenario_for(**cells[i])``.

        Raises:
            ValueError: when the figure has no row mapper (computed figures
                are not sweepable).
        """
        if self.row is None:
            raise ValueError(
                f"figure {self.figure!r} has no row mapper, so it is not "
                f"sweepable")
        cells = self.cells(reduced)
        documents = [self.scenario_for(**cell).to_dict() for cell in cells]
        params = tuple(
            PortfolioAxis(name=name, values=tuple(cell[name] for cell in cells))
            for name in self.axes())
        return Portfolio(name=self.figure, description=self.title,
                         expansion="zip",
                         axes=params + _section_axes(documents))

    def grid(self, reduced: bool = False) -> Grid:
        """The parameter grid for the requested fidelity."""
        return self.reduced_grid if reduced else self.default_grid

    def cells(self, reduced: bool = False) -> List[Dict[str, object]]:
        """The expanded cell-parameter list for the requested fidelity."""
        return expand_grid(self.grid(reduced))

    def axes(self) -> List[str]:
        """Axis names of the grid (param keys for explicit cell lists)."""
        grid = self.default_grid
        if isinstance(grid, dict):
            return list(grid)
        keys: List[str] = []
        for cell in grid:
            for key in cell:
                if key not in keys:
                    keys.append(key)
        return keys


_REGISTRY: Dict[str, Experiment] = {}


def _add(experiment: Experiment) -> None:
    if experiment.figure in _REGISTRY:
        raise ValueError(f"figure {experiment.figure!r} registered twice")
    _REGISTRY[experiment.figure] = experiment


def register(
    *,
    figure: str,
    paper: str,
    title: str,
    default_grid: Grid,
    reduced_grid: Grid,
    schema: Sequence[str],
    entrypoints: Sequence[str] = (),
    description: str = "",
    scenario: Optional[Callable] = None,
    row: Optional[Callable] = None,
) -> Callable[[Callable], Callable]:
    """Register one figure under ``figure``.

    A Scenario figure passes ``scenario`` and ``row`` and is registered by
    this call. A computed figure decorates its cell runner with the
    returned decorator.

    Args:
        figure: registry key, e.g. ``"fig13"`` or ``"search_time"``.
        paper: the paper's label, e.g. ``"Fig. 13"`` or ``"§VIII-H"``.
        title: one-line description of what the figure measures.
        default_grid: the paper-fidelity grid.
        reduced_grid: the fast grid used by CI and the test suite.
        schema: keys of every manifest row (cell params merged with the
            cell's row dicts).
        entrypoints: public ``run_*`` functions of the module, re-exported
            from ``repro.experiments``.
        description: longer prose for the generated docs.
        scenario: builder mapping one cell's grid params to the
            :class:`repro.api.Scenario` the cell evaluates.
        row: ``(params, payload) -> columns`` mapper turning one cell's
            :class:`~repro.api.service.PlanResult` payload into its row
            columns. Requires ``scenario``; the figure then has no cell
            runner and is sweepable.

    Raises:
        ValueError: on a figure registered twice, a ``row`` without a
            ``scenario``, or a cell runner decorated with a ``row``.
    """
    experiment = Experiment(
        figure=figure,
        paper=paper,
        title=title,
        module="",
        default_grid=default_grid,
        reduced_grid=reduced_grid,
        schema=tuple(schema),
        entrypoints=tuple(entrypoints),
        description=description,
        scenario=scenario,
        row=row,
    )
    if row is None:
        def decorator(func: Callable) -> Callable:
            _add(replace(experiment, module=func.__module__, runner=func))
            return func

        return decorator

    if scenario is None:
        raise ValueError(
            f"figure {figure!r} registers a row mapper without a scenario "
            f"builder")
    _add(replace(experiment, module=row.__module__))

    def reject(func: Callable) -> Callable:
        del _REGISTRY[figure]
        raise ValueError(
            f"figure {figure!r} registers a row mapper, so it takes no cell "
            f"runner")

    return reject


def ensure_loaded() -> None:
    """Import the experiments package so every figure registers itself."""
    importlib.import_module(_EXPERIMENTS_PACKAGE)


def get_experiment(figure: str) -> Experiment:
    """Look up one registered figure.

    Raises:
        KeyError: when the figure id is unknown; the message lists the
            registered ids.
    """
    ensure_loaded()
    try:
        return _REGISTRY[figure]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown figure {figure!r}; registered: {known}") from None


def all_experiments() -> List[Experiment]:
    """Every registered figure, in id order."""
    ensure_loaded()
    return [_REGISTRY[figure] for figure in sorted(_REGISTRY)]


def figure_ids() -> List[str]:
    """Sorted registered figure ids."""
    ensure_loaded()
    return sorted(_REGISTRY)


def expand_grid(grid: Grid) -> List[Dict[str, object]]:
    """Expand a grid into the ordered list of cell-parameter dicts."""
    if isinstance(grid, dict):
        axes = list(grid)
        combos = itertools.product(*(grid[axis] for axis in axes))
        return [dict(zip(axes, combo)) for combo in combos]
    return [dict(cell) for cell in grid]
