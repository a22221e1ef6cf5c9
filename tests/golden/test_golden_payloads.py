"""Golden payloads: whole ``PlanResult`` documents of every result kind.

The figure goldens pin only the columns each figure plots. These pin every
field of one payload per evaluation path and edge case — candidate counts,
pipeline degree, energy, bandwidth utilisation, relative throughput — so a
change that moves any field of any result kind shows up as a diff of
``tests/golden/goldens/payloads.json``.

After an *intentional* result change, refresh and review the golden::

    PYTHONPATH=src python -m pytest tests/golden --update-goldens
    git diff tests/golden/goldens/payloads.json
"""

import json
from pathlib import Path

import pytest

from repro.api.scenario import HardwareSpec, Scenario, SolverSpec, WorkloadSpec
from repro.api.service import PlanService, validate_result_payload

GOLDEN_PATH = Path(__file__).parent / "goldens" / "payloads.json"

_TWO_WAFERS = HardwareSpec(num_wafers=2, num_microbatches=8)
_FAULT_SPEC = {"dp": 4, "tatp": 8}


def _scenario(model, hardware=None, **solver):
    return Scenario(workload=WorkloadSpec(model=model),
                    hardware=hardware or HardwareSpec(),
                    solver=SolverSpec(**solver))


#: One scenario per evaluation path and edge case, by golden entry name.
SCENARIOS = {
    "single_wafer": _scenario("gpt3-6.7b", scheme="mesp", engine="gmap"),
    # Pruning drops every Megatron-1 candidate; the least-infeasible one
    # is reported as OOM.
    "single_wafer_all_oom": _scenario("llama3-70b", scheme="megatron1",
                                      engine="smap"),
    "fixed_spec": _scenario("gpt3-6.7b", fixed_spec=_FAULT_SPEC),
    "fixed_spec_oom_no_fallback": _scenario(
        "llama3-70b", fixed_spec={"dp": 4, "tp": 8},
        allow_checkpoint_fallback=False),
    "fixed_spec_torus": _scenario(
        "gpt3-6.7b", HardwareSpec(topology={"name": "torus"}),
        fixed_spec={"dp": 4, "tp": 8}),
    "multi_wafer": Scenario(workload=WorkloadSpec(model="gpt3-175b"),
                            hardware=_TWO_WAFERS,
                            solver=SolverSpec.for_framework()),
    "multi_wafer_all_oom": _scenario(
        "gpt3-175b", HardwareSpec(num_wafers=2, hbm_capacity=24e9)),
    "multi_wafer_capped": _scenario("gpt3-175b", HardwareSpec(num_wafers=2),
                                    max_candidates=3),
    "fault_link_0.2": _scenario("llama2-7b", HardwareSpec(link_fault_rate=0.2),
                                seed=7, fixed_spec=_FAULT_SPEC),
    # The mesh fragments: the configuration cannot run at all.
    "fault_link_0.6": _scenario("llama2-7b", HardwareSpec(link_fault_rate=0.6),
                                seed=7, fixed_spec=_FAULT_SPEC),
    "fault_core_0.25": _scenario("llama2-7b", HardwareSpec(core_fault_rate=0.25),
                                 seed=7, engine="gmap", fixed_spec=_FAULT_SPEC),
    # The pinned spec fits only with activation checkpointing.
    "fault_checkpointed": _scenario("llama3-70b",
                                    HardwareSpec(core_fault_rate=0.0),
                                    fixed_spec={"dp": 4, "tp": 8}),
    "gpu_cluster": _scenario("gpt3-6.7b", HardwareSpec(platform="gpu_cluster"),
                             scheme="mesp", engine="cluster"),
    # No candidate fits the devices' memory, even checkpointed.
    "gpu_cluster_none_fits": Scenario(
        workload=WorkloadSpec(model="gpt3-175b", seq_length=16384),
        hardware=HardwareSpec(platform="gpu_cluster"),
        solver=SolverSpec(scheme="megatron1", engine="cluster")),
}


def _golden_document():
    service = PlanService()
    document = {}
    for name, scenario in SCENARIOS.items():
        payload = service.evaluate(scenario).to_dict()
        assert validate_result_payload(payload) == [], name
        document[name] = {
            "scenario": scenario.to_dict(),
            "payload": json.loads(json.dumps(payload, allow_nan=False)),
        }
    return document


def test_payloads_match_golden(update_goldens):
    document = _golden_document()
    if update_goldens:
        GOLDEN_PATH.write_text(json.dumps(document, indent=2, sort_keys=True)
                               + "\n", encoding="utf-8")
        pytest.skip(f"updated {GOLDEN_PATH}")
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(document) == sorted(golden)
    for name, entry in document.items():
        assert entry == golden[name], (
            f"payload {name!r} drifted from the golden; if the change is "
            f"intentional, refresh with `pytest tests/golden "
            f"--update-goldens` and review the diff")
