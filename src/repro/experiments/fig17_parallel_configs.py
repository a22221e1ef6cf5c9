"""Fig. 17 / Fig. 18: throughput across mixed-parallelism configurations.

Fig. 17 sweeps (DP, TP, SP, TATP) configurations of Llama2 7B on a 32-die
wafer under the TCME mapping engine, for short (2k) and long (16k) sequences.
Fig. 18 repeats the exercise for the GPT-3 models and reports which
configuration wins; the paper's observation is that the winning TATP degree
consistently lands around 8-16 while the DP/TP/SP mix shifts with sequence
length and model size.

Each sweep is one base :class:`repro.api.Scenario`
(:func:`scenario_for_sweep`, carrying the workload overrides and the
engine); every enumerated configuration is one cell, a pinned-spec copy
(:func:`scenario_for_config`) evaluated through
:class:`~repro.api.service.PlanService`.
"""

from __future__ import annotations

from typing import Dict, List, Mapping

from repro.api.scenario import Scenario, SolverSpec, WorkloadSpec
from repro.parallelism.spec import ParallelSpec
from repro.runner.registry import register

#: Sequence lengths of Fig. 17 (short 2k / long 16k training).
FIG17_SEQ_LENGTHS = [2048, 16384]


def scenario_for_sweep(model: str, seq_length: int) -> Scenario:
    """The base :class:`Scenario` of one (model, sequence length) sweep.

    Fig. 17(a) uses batch 128 with 2k sequences; Fig. 17(b) uses batch 32
    with 16k sequences (long-sequence training shrinks the batch).
    """
    return Scenario(
        workload=WorkloadSpec(model=model,
                              batch_size=128 if seq_length <= 4096 else 32,
                              seq_length=seq_length),
        solver=SolverSpec(engine="tcme"),
    )


def scenario_for_config(model: str, seq_length: int, config: str, dp: int,
                        tp: int, sp: int, tatp: int) -> Scenario:
    """The :class:`Scenario` of one pinned configuration of a sweep.

    ``config`` is the row's ``(DP,TP,SP,TATP)`` label of the pinned
    degrees; it does not change the scenario.
    """
    spec = ParallelSpec(dp=dp, tp=tp, sp=sp, tatp=tatp)
    return scenario_for_sweep(model, seq_length).with_fixed_spec(spec)


def config_cells(model: str, seq_length: int) -> List[Dict[str, object]]:
    """One cell per (DP, TP, SP, TATP) configuration filling the wafer.

    Configurations whose TP degree exceeds the model's head count are
    skipped: the heads cannot be split that finely.
    """
    base = scenario_for_sweep(model, seq_length)
    num_heads = base.workload.resolve().num_heads
    return [
        {"model": model, "seq_length": seq_length,
         "config": f"({spec.dp},{spec.tp},{spec.sp},{spec.tatp})",
         "dp": spec.dp, "tp": spec.tp, "sp": spec.sp, "tatp": spec.tatp}
        for spec in ParallelSpec.enumerate(
            base.hardware.num_dies, dimensions=("dp", "tp", "sp", "tatp"))
        if spec.tp <= num_heads
    ]


def config_row(params: Mapping[str, object],
               payload: Mapping[str, object]) -> Dict[str, object]:
    """One Fig. 17 row's columns from a cell's plan payload."""
    return {
        "throughput": payload["throughput"],
        "step_time": payload["step_time"],
        "memory_gb": payload["memory_gb"],
        "oom": payload["oom"],
    }


register(
    figure="fig17",
    paper="Fig. 17",
    title="Throughput of every (DP, TP, SP, TATP) configuration",
    default_grid=[cell for seq_length in FIG17_SEQ_LENGTHS
                  for cell in config_cells("llama2-7b", seq_length)],
    reduced_grid=config_cells("llama2-7b", 2048),
    schema=("model", "seq_length", "config", "dp", "tp", "sp", "tatp",
            "throughput", "step_time", "memory_gb", "oom"),
    description="Llama2 7B on a 32-die wafer under TCME: every "
                "(DP, TP, SP, TATP) combination filling the wafer, for "
                "short (2k, batch 128) and long (16k, batch 32) sequences.",
    scenario=scenario_for_config,
    row=config_row,
)
