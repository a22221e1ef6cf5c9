"""Fabric zoo: which interconnect fabric wins for which workload.

A paper-style design-space study over the topology zoo
(:mod:`repro.hardware.topologies`): every registered fabric family is
evaluated on the same wafer geometry under pinned, communication-heavy
parallelisations, and the study reports which fabric wins per workload.

The parallelisation is pinned per workload (``fixed_spec``) rather than
searched, for the same reason NoC papers sweep fixed traffic patterns:
the solver's free search steers communication onto die groups that ring
cheaply on *any* fabric, which hides exactly the fabric differences the
study is after. The pinned specs force row-spanning tensor-parallel
groups (``tp=8``: torus wrap links close them into rings, express links
shorten the chain closure) and deck-spanning groups (``tp=32``: the
stacked mesh pays weighted vertical hops, the chiplet fabric pays
backbone escapes), so each family's hop model shows up in the collective
costs.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from repro.api.scenario import HardwareSpec, Scenario, SolverSpec, WorkloadSpec
from repro.runner.registry import register

#: Fabric label -> ``HardwareSpec.topology`` spec of each studied fabric.
#: ``mesh`` stays ``None`` (the default fabric, and the cache-key baseline).
FABRICS: Dict[str, Optional[Dict[str, object]]] = {
    "mesh": None,
    "torus": {"name": "torus"},
    "mesh3d": {"name": "mesh3d", "layers": 2},
    "chiplet": {"name": "chiplet", "chiplet_rows": 2, "chiplet_cols": 2,
                "gateways": 2},
    "express": {"name": "express", "stride": 2},
}

#: Model -> pinned communication-heavy parallelisation of its study row.
#: ``tp=8`` rows exercise in-plane ring closure; ``tp=32`` spans decks and
#: chiplet boundaries.
WORKLOAD_SPECS: Dict[str, Dict[str, int]] = {
    "gpt3-6.7b": {"dp": 4, "tp": 8},
    "llama2-7b": {"dp": 4, "tp": 8},
    "llama3-70b": {"dp": 1, "tp": 32},
}

#: Model list of the full study, in presentation order.
MODELS = list(WORKLOAD_SPECS)

#: Models of the reduced grid.
FAST_MODELS = ["gpt3-6.7b"]


def scenario_for_fabric(model: str, fabric: str) -> Scenario:
    """The :class:`Scenario` of one (model, fabric) cell of the study."""
    try:
        topology = FABRICS[fabric]
    except KeyError:
        known = ", ".join(FABRICS)
        raise KeyError(
            f"unknown fabric {fabric!r}; expected one of {known}") from None
    try:
        fixed_spec = WORKLOAD_SPECS[model]
    except KeyError:
        known = ", ".join(WORKLOAD_SPECS)
        raise KeyError(
            f"no pinned parallelisation for model {model!r}; "
            f"expected one of {known}") from None
    return Scenario(
        workload=WorkloadSpec(model=model),
        hardware=HardwareSpec(topology=topology),
        solver=SolverSpec(scheme="temp", engine="tcme",
                          fixed_spec=dict(fixed_spec)),
    )


def fabric_row(params: Mapping[str, object],
               payload: Mapping[str, object]) -> Dict[str, object]:
    """One fabric-zoo row's columns from a cell's plan payload."""
    return {
        "spec": payload["spec"] if payload["spec"] else "-",
        "oom": payload["oom"],
        "step_time": payload["step_time"],
        "compute_time": payload["compute_time"],
        "comm_time": payload["comm_time"],
        "memory_gb": payload["memory_gb"],
        "throughput": payload["throughput"],
    }


register(
    figure="fabric_zoo",
    paper="§ topology zoo",
    title="Fabric zoo: which interconnect fabric wins per workload",
    default_grid={"model": list(MODELS), "fabric": list(FABRICS)},
    reduced_grid={"model": list(FAST_MODELS), "fabric": list(FABRICS)},
    schema=("model", "fabric", "spec", "oom", "step_time", "compute_time",
            "comm_time", "memory_gb", "throughput"),
    description="Every registered interconnect fabric (mesh, torus, stacked "
                "3D mesh, hierarchical chiplet, express mesh) evaluated "
                "under pinned communication-heavy parallelisations, "
                "reporting per-workload throughput and the winning fabric.",
    scenario=scenario_for_fabric,
    row=fabric_row,
)
