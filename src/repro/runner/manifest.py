"""The JSON artifact manifest every figure runner emits.

One ``results/<figure>.json`` file per figure, written through
:func:`write_manifest` so every artifact has the same shape:

``version``
    manifest format version (currently 1).
``figure`` / ``paper`` / ``title`` / ``module``
    identity of the experiment (mirrors the registry entry).
``reduced`` / ``jobs``
    how the run was launched (``jobs`` is the number of scheduler lanes).
``grid``
    the parameter grid exactly as registered (dict of axes or explicit
    cell list).
``schema``
    ordered row columns; every row carries exactly these keys.
``cells``
    per-cell accounting: the cell params, wall-clock seconds, row count,
    OOM row count, and the error message if the cell failed.
``rows``
    the figure's data, one flat list of ``{**cell_params, **row}`` dicts.
``timings``
    total / max / mean cell wall-clock seconds.
``plan_cache`` (optional)
    plan-cache counters (``hits``, ``misses``, ``entries``,
    ``max_entries``) of the service(s) that evaluated the run.
``sweep`` (optional)
    how a portfolio sweep served its points: points, unique points, and
    the count of each source (``evaluated``, ``store``, ...).

Every manifest is built by :func:`build_manifest`, for ``repro run`` and
``repro sweep`` alike. All floats are finite (``inf``/``nan`` are
serialised as ``null``) so the artifacts are strict JSON.
:func:`validate_manifest` is the schema check CI runs on every artifact; it
returns a list of human-readable problems.
"""

from __future__ import annotations

import copy
import json
import math
import os
from typing import Dict, List, Mapping, Optional, Sequence

from repro import __version__
from repro.runner.registry import Experiment, Grid

#: Current manifest format version.
MANIFEST_VERSION = 1

#: Keys every manifest must carry.
REQUIRED_KEYS = (
    "version", "figure", "paper", "title", "module", "reduced", "jobs",
    "grid", "schema", "cells", "rows", "timings",
)

#: Keys every per-cell accounting entry must carry.
CELL_KEYS = ("params", "wall_seconds", "num_rows", "oom_rows", "error")


def finite(value):
    """``value`` with non-finite floats replaced by ``None`` (strict JSON)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [finite(item) for item in value]
    return value


def cell_entry(params: Mapping[str, object], rows: List[Dict[str, object]],
               wall_seconds: float,
               error: Optional[str] = None) -> Dict[str, object]:
    """The per-cell accounting entry of one cell and the rows it produced."""
    return {
        "params": dict(params),
        "wall_seconds": round(wall_seconds, 6),
        "num_rows": len(rows),
        "oom_rows": sum(1 for row in rows if row.get("oom")),
        "error": error,
    }


def experiment_identity(experiment: Experiment) -> Dict[str, str]:
    """The identity keys of a registered figure's manifest."""
    return {
        "figure": experiment.figure,
        "paper": experiment.paper,
        "title": experiment.title,
        "module": experiment.module,
    }


def build_manifest(
    identity: Mapping[str, str],
    grid: Grid,
    schema: Sequence[str],
    cells: List[Dict[str, object]],
    rows: List[Dict[str, object]],
    reduced: bool,
    jobs: int,
    total_seconds: float,
    plan_cache: Optional[Dict[str, int]] = None,
    sweep: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """One manifest document (see the module docstring for the keys).

    Args:
        identity: ``figure``/``paper``/``title``/``module``.
        grid: the grid as registered; deep-copied, so the manifest never
            aliases the registry.
        cells: :func:`cell_entry` of every cell, in grid order.
        rows: every cell's rows, in grid order.
        plan_cache / sweep: optional sections, omitted when ``None``.
    """
    cell_seconds = [cell["wall_seconds"] for cell in cells]
    manifest: Dict[str, object] = {
        "version": MANIFEST_VERSION,
        "repro_version": __version__,
        **identity,
        "reduced": reduced,
        "jobs": jobs,
        "grid": copy.deepcopy(grid),
        "schema": list(schema),
        "cells": cells,
        "rows": rows,
        "timings": {
            "total_seconds": round(total_seconds, 6),
            "max_cell_seconds": (round(max(cell_seconds), 6)
                                 if cell_seconds else 0.0),
            "mean_cell_seconds": (
                round(sum(cell_seconds) / len(cell_seconds), 6)
                if cell_seconds else 0.0),
        },
    }
    if plan_cache is not None:
        manifest["plan_cache"] = plan_cache
    if sweep is not None:
        manifest["sweep"] = sweep
    return manifest


def manifest_path(output_dir: str, figure: str) -> str:
    """The artifact path of one figure under ``output_dir``."""
    return os.path.join(output_dir, f"{figure}.json")


def write_manifest(manifest: Dict, output_dir: str) -> str:
    """Serialise ``manifest`` to ``<output_dir>/<figure>.json``.

    Returns:
        The written path.
    """
    os.makedirs(output_dir, exist_ok=True)
    path = manifest_path(output_dir, manifest["figure"])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(finite(manifest), handle, indent=2, sort_keys=True,
                  allow_nan=False)
        handle.write("\n")
    return path


def read_manifest(path: str) -> Dict:
    """Load one manifest from disk."""
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def validate_manifest(
    manifest: Dict, experiment: Optional[Experiment] = None
) -> List[str]:
    """Check one manifest against the artifact format (and the registry).

    Args:
        manifest: the parsed JSON document.
        experiment: when given, the manifest is additionally checked against
            the figure's registered schema and its registered grid at the
            manifest's fidelity (``reduced``).

    Returns:
        A list of problems; empty when the manifest is valid.
    """
    problems: List[str] = []
    for key in REQUIRED_KEYS:
        if key not in manifest:
            problems.append(f"missing top-level key {key!r}")
    if problems:
        return problems

    if manifest["version"] != MANIFEST_VERSION:
        problems.append(
            f"version {manifest['version']!r} != {MANIFEST_VERSION}")

    schema = list(manifest["schema"])
    rows = manifest["rows"]
    cells = manifest["cells"]

    for index, cell in enumerate(cells):
        for key in CELL_KEYS:
            if key not in cell:
                problems.append(f"cell {index} missing key {key!r}")
        error = cell.get("error")
        if error:
            problems.append(f"cell {index} ({cell.get('params')}) failed: "
                            f"{error}")

    expected_rows = sum(cell.get("num_rows", 0) for cell in cells)
    if len(rows) != expected_rows:
        problems.append(
            f"{len(rows)} rows but cells account for {expected_rows}")

    schema_set = set(schema)
    for index, row in enumerate(rows):
        if set(row) != schema_set:
            missing = schema_set - set(row)
            extra = set(row) - schema_set
            problems.append(
                f"row {index} keys mismatch schema"
                f"{' (missing ' + ', '.join(sorted(missing)) + ')' if missing else ''}"
                f"{' (extra ' + ', '.join(sorted(extra)) + ')' if extra else ''}")
            break  # one schema report is enough; rows share a producer

    if experiment is not None:
        if manifest["figure"] != experiment.figure:
            problems.append(
                f"figure {manifest['figure']!r} != registered "
                f"{experiment.figure!r}")
        if schema != list(experiment.schema):
            problems.append(
                f"schema {schema} != registered {list(experiment.schema)}")
        # Compared as JSON values: a written manifest has its grid's axes
        # in sorted key order and its tuples as lists.
        registered = experiment.grid(manifest["reduced"])
        if _as_json(manifest["grid"]) != _as_json(registered):
            fidelity = "reduced" if manifest["reduced"] else "default"
            problems.append(
                f"grid does not match the registered {fidelity} grid of "
                f"{experiment.figure!r}")
        expected_cells = len(experiment.cells(manifest["reduced"]))
        if len(cells) != expected_cells:
            problems.append(
                f"{len(cells)} cells but the registered grid expands to "
                f"{expected_cells}")
    return problems


def _as_json(value):
    """``value`` as :func:`write_manifest` then :func:`read_manifest` see it."""
    return json.loads(json.dumps(finite(value), allow_nan=False))
