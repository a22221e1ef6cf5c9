"""Generators for ``EXPERIMENTS.md`` and ``BENCHMARKS.md``.

Both documents are rendered deterministically from their registries (the
experiment registry and the benchmark registry) so they can be checked
into the repo and verified for staleness by CI
(``python -m repro docs --check``).
"""

from __future__ import annotations

from typing import Callable, List

from repro.hardware.topologies import topology_table
from repro.runner.registry import Experiment, all_experiments

#: Default location of the generated index, relative to the repo root.
DEFAULT_PATH = "EXPERIMENTS.md"

#: Default location of the generated benchmark index.
BENCHMARKS_PATH = "BENCHMARKS.md"

_HEADER = """\
# Experiment index

<!-- Generated by `python -m repro docs` from the experiment registry
     (`src/repro/runner/registry.py`). Do not edit by hand: CI fails when
     this file is stale. Regenerate with:
         PYTHONPATH=src python -m repro docs -->

Every figure/table of the paper's evaluation is a registered experiment.
List them with `python -m repro list`; run one with
`python -m repro run <figure> --reduced`; run the full evaluation grid with
`python -m repro run all --reduced --jobs 2`. Each run writes one JSON
manifest per figure to `results/<figure>.json` (format documented in
`README.md`).

Figures marked with a portfolio are Scenario figures (a scenario builder
plus a row mapper): `repro run` sweeps their grid as a portfolio through
the plan scheduler, over `--jobs N` lanes. `python -m repro sweep <figure>
--reduced` runs the same sweep on its own, locally or against a `repro
serve` instance via `--server HOST:PORT`, and emits the same manifest. The
other figures are computed in-process, cell by cell in grid order. See
README "Portfolio sweeps".
"""


def _grid_summary(experiment: Experiment, reduced: bool) -> str:
    grid = experiment.grid(reduced)
    cells = len(experiment.cells(reduced))
    if isinstance(grid, dict):
        axes = " × ".join(f"{axis}({len(values)})"
                          for axis, values in grid.items())
        return f"{cells} ({axes})"
    return f"{cells} (explicit)"


def render_experiments_md() -> str:
    """Render the full document from the registry."""
    experiments = all_experiments()
    lines: List[str] = [_HEADER]
    lines.append("| Figure | Paper | Title | Module | Default cells | "
                 "Reduced cells | Portfolio |")
    lines.append("|---|---|---|---|---|---|---|")
    for exp in experiments:
        portfolio = "yes" if exp.row is not None else "-"
        lines.append(
            f"| `{exp.figure}` | {exp.paper} | {exp.title} | "
            f"`{exp.module}` | {_grid_summary(exp, False)} | "
            f"{_grid_summary(exp, True)} | {portfolio} |")
    lines.append("")

    for exp in experiments:
        lines.append(f"## `{exp.figure}` — {exp.paper}: {exp.title}")
        lines.append("")
        if exp.description:
            lines.append(exp.description)
            lines.append("")
        lines.append(f"- Module: `{exp.module}`")
        lines.append(f"- Grid axes: {', '.join(f'`{a}`' for a in exp.axes())}")
        columns = ", ".join(f"`{column}`" for column in exp.schema)
        lines.append(f"- Manifest row columns: {columns}")
        lines.append(f"- Command: `python -m repro run {exp.figure} --reduced`")
        if exp.row is not None:
            lines.append(f"- Portfolio sweep: `python -m repro sweep "
                         f"{exp.figure} --reduced` (row-identical manifest "
                         f"via the plan scheduler; add `--server HOST:PORT` "
                         f"to sweep a running `repro serve` instance)")
        lines.append("")
    lines.extend(_topology_zoo_lines())
    return "\n".join(lines).rstrip() + "\n"


def _topology_zoo_lines() -> List[str]:
    """The topology-zoo fabric table, rendered from the fabric registry."""
    lines = [
        "## Topology zoo",
        "",
        "Registered interconnect fabric families "
        "(`repro.hardware.topologies`). Select one per scenario via "
        "`HardwareSpec.topology`, e.g. "
        '`{"name": "torus", "wrap_latency_factor": 1.0}`; leaving it unset '
        "keeps the default mesh. List them with "
        "`python -m repro list --topologies`; the `fabric_zoo` experiment "
        "above sweeps all of them as a portfolio axis.",
        "",
        "| Fabric | Default | Parameters | Link model |",
        "|---|---|---|---|",
    ]
    for row in topology_table():
        default = "yes" if row["default"] else "-"
        params = f"`{row['params']}`" if row["params"] != "—" else "—"
        lines.append(f"| `{row['name']}` | {default} | {params} | "
                     f"{row['link_model']} |")
    lines.append("")
    return lines


_BENCH_HEADER = """\
# Benchmark index

<!-- Generated by `python -m repro docs` from the benchmark registry
     (`src/repro/bench/registry.py`). Do not edit by hand: CI fails when
     this file is stale. Regenerate with:
         PYTHONPATH=src python -m repro docs -->

Benchmarks track the repo's performance trajectory. List them with
`python -m repro bench --list`; run one with
`python -m repro bench <name>`; run the whole suite and emit a
schema-validated report with
`python -m repro bench all --repeat 3 --json BENCH_ci.json`. Compare two
reports (the CI regression gate) with
`python -m repro bench --compare BENCH_baseline.json BENCH_ci.json
--threshold 40`. See README "Benchmarking".
"""


def render_benchmarks_md() -> str:
    """Render the benchmark index from the benchmark registry."""
    from repro.bench.registry import all_benchmarks

    lines: List[str] = [_BENCH_HEADER]
    lines.append("| Benchmark | Module | Repeat | Warmup | Title |")
    lines.append("|---|---|---|---|---|")
    for benchmark in all_benchmarks():
        lines.append(
            f"| `{benchmark.name}` | `{benchmark.module}` | "
            f"{benchmark.repeat} | {benchmark.warmup} | {benchmark.title} |")
    lines.append("")
    for benchmark in all_benchmarks():
        lines.append(f"## `{benchmark.name}` — {benchmark.title}")
        lines.append("")
        lines.append(benchmark.description)
        lines.append("")
        lines.append(f"- Command: `python -m repro bench {benchmark.name}`")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def _write_document(render: Callable[[], str], path: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render())
    return path


def _check_document(render: Callable[[], str], path: str) -> bool:
    try:
        with open(path, encoding="utf-8") as handle:
            on_disk = handle.read()
    except FileNotFoundError:
        return False
    return on_disk == render()


def write_experiments_md(path: str = DEFAULT_PATH) -> str:
    """Write the rendered document to ``path`` and return the path."""
    return _write_document(render_experiments_md, path)


def check_experiments_md(path: str = DEFAULT_PATH) -> bool:
    """True when ``path`` exists and matches the registry-rendered content."""
    return _check_document(render_experiments_md, path)


def write_benchmarks_md(path: str = BENCHMARKS_PATH) -> str:
    """Write the rendered benchmark index to ``path`` and return the path."""
    return _write_document(render_benchmarks_md, path)


def check_benchmarks_md(path: str = BENCHMARKS_PATH) -> bool:
    """True when ``path`` exists and matches the registry-rendered content."""
    return _check_document(render_benchmarks_md, path)
