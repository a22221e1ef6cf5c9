"""Shared setup of the paper-shape benchmarks (one per registered figure).

Each benchmark runs its figure's paper-fidelity grid with
``run_experiment`` — the rows ``repro run <figure>`` writes — and asserts
the shape the paper reports on those rows.
"""

import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.runner.manifest import validate_manifest  # noqa: E402
from repro.runner.orchestrator import run_experiment  # noqa: E402
from repro.runner.registry import get_experiment  # noqa: E402


@pytest.fixture(scope="session")
def paper_rows():
    """``paper_rows(figure)``: the rows of ``figure``'s paper-fidelity grid.

    The manifest must validate against the figure's registration first: a
    cell that raises is recorded as failed with no rows, so a check that
    reads only the remaining rows would pass without it.
    """
    def rows(figure):
        manifest = run_experiment(figure)
        problems = validate_manifest(manifest, get_experiment(figure))
        assert not problems, problems
        return manifest["rows"]
    return rows
