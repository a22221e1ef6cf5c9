"""The JSON artifact manifest every figure runner emits.

One ``results/<figure>.json`` file per figure, written through
:func:`write_manifest` so every artifact has the same shape:

``version``
    manifest format version (currently 1).
``figure`` / ``paper`` / ``title`` / ``module``
    identity of the experiment (mirrors the registry entry).
``reduced`` / ``jobs``
    how the run was launched.
``grid``
    the parameter grid exactly as registered (dict of axes or explicit
    cell list).
``schema``
    ordered row columns; every row carries exactly these keys.
``cells``
    per-cell accounting: the cell params, wall-clock seconds, row count,
    OOM row count, and the error message if the cell raised.
``rows``
    the figure's data, one flat list of ``{**cell_params, **row}`` dicts.
``timings``
    total / max / mean cell wall-clock seconds.

All floats are finite (``inf``/``nan`` are serialised as ``null``) so the
artifacts are strict JSON. :func:`validate_manifest` is the schema check CI
runs on every artifact; it returns a list of human-readable problems.
"""

from __future__ import annotations

import json
import math
import os
from typing import Dict, List, Optional

from repro.runner.registry import Experiment, expand_grid

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
        grid_cells = expand_grid(manifest["grid"])
        if grid_cells != experiment.cells(manifest["reduced"]):
            fidelity = "reduced" if manifest["reduced"] else "default"
            problems.append(
                f"grid does not match the registered {fidelity} grid of "
                f"{experiment.figure!r}")
        if len(cells) != len(grid_cells):
            problems.append(
                f"{len(cells)} cells but the grid expands to "
                f"{len(grid_cells)}")
    return problems
