"""Golden-manifest regression tests: reduced grids are pinned across time.

The within-run parity contracts (one lane vs two, served vs direct,
``repro sweep`` vs ``repro run``) cannot catch a change that shifts
*every* path at once — a cost-model edit, a solver reordering, a
serialisation change. These tests pin the actual numbers: the checked-in goldens under
``tests/golden/goldens/`` hold the full reduced-grid rows of every
registered figure whose rows are deterministic, and
``repro run <figure> --reduced`` must reproduce them row-identically.

After an *intentional* result change, refresh and review the goldens::

    PYTHONPATH=src python -m pytest tests/golden --update-goldens
    git diff tests/golden/goldens/

(``REPRO_UPDATE_GOLDENS=1`` is the environment-variable equivalent.)
"""

import json
from pathlib import Path

import pytest

from repro.runner import orchestrator
from repro.runner.manifest import validate_manifest
from repro.runner.registry import figure_ids, get_experiment

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: Figures whose reduced grids are pinned. Together they cover the
#: single-wafer search, pinned-spec, multi-wafer, fault, GPU-cluster,
#: ablation, and solver paths, and all run in a few seconds.
GOLDEN_FIGURES = [
    "fabric_zoo", "fig04", "fig07", "fig09", "fig13", "fig14", "fig15",
    "fig16", "fig17", "fig18", "fig19", "fig20", "fig21",
]

#: Registered figures deliberately left unpinned: ``search_time`` rows
#: carry wall-clock timings.
UNPINNED_FIGURES = {"search_time"}

pytestmark = pytest.mark.slow  # each test runs a full reduced grid


def _golden_document(figure, manifest):
    """The comparable slice of a manifest: identity + schema + rows.

    Timings and worker counts vary run to run; the rows (passed through a
    JSON round-trip so tuples/floats normalise exactly like the written
    artifact) are what the figure actually plots.
    """
    return {
        "figure": figure,
        "reduced": True,
        "schema": list(manifest["schema"]),
        "rows": json.loads(json.dumps(manifest["rows"], allow_nan=False)),
    }


@pytest.mark.parametrize("figure", GOLDEN_FIGURES)
def test_reduced_run_reproduces_golden_rows(figure, update_goldens):
    manifest = orchestrator.run_experiment(figure, reduced=True)
    assert validate_manifest(manifest, get_experiment(figure)) == []
    document = _golden_document(figure, manifest)
    path = GOLDEN_DIR / f"{figure}.json"
    if update_goldens:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(document, indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
        pytest.skip(f"updated {path}")
    golden = json.loads(path.read_text(encoding="utf-8"))
    assert document["schema"] == golden["schema"], \
        "schema drifted from the golden manifest"
    assert len(document["rows"]) == len(golden["rows"]), \
        "row count drifted from the golden manifest"
    for index, (actual, expected) in enumerate(
            zip(document["rows"], golden["rows"])):
        assert actual == expected, (
            f"row {index} of {figure} drifted from the golden manifest; "
            f"if the change is intentional, refresh with "
            f"`pytest tests/golden --update-goldens` and review the diff")


@pytest.mark.parametrize("figure", GOLDEN_FIGURES)
def test_golden_files_are_well_formed(figure):
    # Cheap guard, independent of evaluation: the checked-in goldens parse,
    # match their figure's registered schema, and are non-empty.
    golden = json.loads(
        (GOLDEN_DIR / f"{figure}.json").read_text(encoding="utf-8"))
    experiment = get_experiment(figure)
    assert golden["figure"] == figure
    assert golden["schema"] == list(experiment.schema)
    assert golden["rows"], "golden manifest has no rows"
    for row in golden["rows"]:
        assert set(row) == set(experiment.schema)


def test_every_registered_figure_is_pinned_or_exempt():
    # A newly registered figure must either get a golden or be exempted
    # here with a reason.
    assert set(figure_ids()) == set(GOLDEN_FIGURES) | UNPINNED_FIGURES
