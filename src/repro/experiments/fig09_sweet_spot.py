"""Fig. 9: the TATP parallel-degree sweet spot.

For a fixed workload (one GPT-3 175B class linear layer) distributed across N
dies under TATP, per-die memory and compute time shrink as O(1/N) while the
streamed communication stays O(1) and per-round overheads grow. Throughput
therefore peaks at a moderate degree (the paper finds N ~ 8-16) before
communication and fragmentation dominate; the power breakdown shifts from
compute-dominated to communication/DRAM-dominated over the same sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.api.scenario import Scenario, SolverSpec
from repro.hardware.config import WaferConfig, default_wafer_config
from repro.parallelism.tatp import TATPCharacteristics
from repro.runner.registry import register
from repro.simulation.communication import effective_bandwidth
from repro.simulation.config import SimulatorConfig

#: Die counts swept by the figure.
DIE_COUNTS = [2, 4, 8, 16, 32, 64]


def scenario_for_degree(degree: int) -> Scenario:
    """The :class:`Scenario` of one TATP degree of the Fig. 9 sweep.

    The sweep is purely analytical (one linear layer, no model search), so
    the scenario pins the TATP degree as a fixed spec and contributes the
    wafer geometry; the layer workload itself is the module's
    :class:`LinearLayerWorkload`.
    """
    return Scenario(solver=SolverSpec(fixed_spec={"tatp": int(degree)}))


@dataclass(frozen=True)
class LinearLayerWorkload:
    """The fixed linear-layer workload of the sweet-spot analysis.

    Defaults approximate one GPT-3 175B FFN projection processing one
    micro-batch of sequences.
    """

    batch: int = 4
    seq: int = 2048
    hidden: int = 12288
    intermediate: int = 49152
    dtype_bytes: int = 2

    @property
    def flops(self) -> float:
        """Forward FLOPs of the layer."""
        return 2.0 * self.batch * self.seq * self.hidden * self.intermediate

    @property
    def weight_bytes(self) -> float:
        """Weight tensor size."""
        return float(self.hidden * self.intermediate * self.dtype_bytes)

    @property
    def activation_bytes(self) -> float:
        """Input activation size."""
        return float(self.batch * self.seq * self.hidden * self.dtype_bytes)

    @property
    def output_bytes(self) -> float:
        """Output activation size."""
        return float(self.batch * self.seq * self.intermediate * self.dtype_bytes)


@dataclass
class SweetSpotPoint:
    """Metrics of one TATP degree N in the sweep."""

    degree: int
    throughput: float
    memory_bytes_per_die: float
    compute_time: float
    comm_time: float
    compute_power_fraction: float
    comm_power_fraction: float
    dram_power_fraction: float
    total_power: float

    @property
    def power_efficiency(self) -> float:
        """Throughput per watt."""
        if self.total_power <= 0:
            return 0.0
        return self.throughput / self.total_power


def run_sweet_spot(
    die_counts: Optional[Sequence[int]] = None,
    workload: Optional[LinearLayerWorkload] = None,
    wafer: Optional[WaferConfig] = None,
    config: Optional[SimulatorConfig] = None,
) -> List[SweetSpotPoint]:
    """Sweep the TATP degree and report throughput / memory / power."""
    counts = list(die_counts) if die_counts is not None else list(DIE_COUNTS)
    workload = workload or LinearLayerWorkload()
    wafer = wafer or default_wafer_config()
    config = config or SimulatorConfig()

    points: List[SweetSpotPoint] = []
    for degree in counts:
        characteristics = TATPCharacteristics.for_operator(
            degree=degree,
            total_flops=workload.flops,
            weight_bytes=workload.weight_bytes,
            activation_bytes=workload.activation_bytes,
            output_bytes=workload.output_bytes,
        )
        sustained = wafer.die.peak_flops * config.base_mfu
        compute_per_round = (
            characteristics.flops_per_round / sustained + config.kernel_overhead)
        chunk = characteristics.streamed_bytes_per_round
        bandwidth = effective_bandwidth(wafer.d2d, chunk, config)
        comm_per_round = wafer.d2d.latency + chunk / bandwidth
        round_time = max(compute_per_round, comm_per_round)
        layer_time = characteristics.num_rounds * round_time
        compute_time = characteristics.num_rounds * compute_per_round
        comm_time = characteristics.num_rounds * comm_per_round

        tokens = workload.batch * workload.seq
        throughput = tokens / layer_time if layer_time > 0 else 0.0

        compute_energy = workload.flops / wafer.die.flops_per_watt
        streamed_total = chunk * characteristics.num_rounds * degree
        comm_energy = streamed_total * wafer.d2d.energy_per_byte
        dram_traffic = (workload.weight_bytes + workload.activation_bytes
                        + workload.output_bytes) * 2.0
        dram_energy = dram_traffic * wafer.die.hbm.energy_per_byte
        total_energy = compute_energy + comm_energy + dram_energy
        total_power = total_energy / layer_time if layer_time > 0 else 0.0

        points.append(SweetSpotPoint(
            degree=degree,
            throughput=throughput,
            memory_bytes_per_die=characteristics.memory_bytes_per_die,
            compute_time=compute_time,
            comm_time=comm_time,
            compute_power_fraction=(
                compute_energy / total_energy if total_energy > 0 else 0.0),
            comm_power_fraction=(
                comm_energy / total_energy if total_energy > 0 else 0.0),
            dram_power_fraction=(
                dram_energy / total_energy if total_energy > 0 else 0.0),
            total_power=total_power,
        ))
    return points


def optimal_degree(points: Sequence[SweetSpotPoint]) -> int:
    """TATP degree with the highest throughput in a sweep."""
    if not points:
        raise ValueError("cannot pick an optimum from an empty sweep")
    return max(points, key=lambda point: point.throughput).degree


def optimal_power_efficiency_degree(points: Sequence[SweetSpotPoint]) -> int:
    """TATP degree with the highest throughput per watt."""
    if not points:
        raise ValueError("cannot pick an optimum from an empty sweep")
    return max(points, key=lambda point: point.power_efficiency).degree


@register(
    figure="fig09",
    paper="Fig. 9",
    title="TATP parallel-degree sweet spot (throughput / memory / power)",
    default_grid={"degree": list(DIE_COUNTS)},
    reduced_grid={"degree": [2, 8, 16, 64]},
    schema=("degree", "throughput", "memory_bytes_per_die", "compute_time",
            "comm_time", "compute_power_fraction", "comm_power_fraction",
            "dram_power_fraction", "total_power", "power_efficiency"),
    entrypoints=("run_sweet_spot", "optimal_degree",
                 "optimal_power_efficiency_degree"),
    description="A fixed GPT-3-class linear layer is distributed across N "
                "dies under TATP; throughput peaks at a moderate degree "
                "while the power mix shifts from compute- to "
                "communication/DRAM-dominated.",
    scenario=scenario_for_degree,
)
def sweet_spot_cell(service, degree):
    """One TATP degree of the Fig. 9 sweep (purely analytical)."""
    scenario = scenario_for_degree(degree)
    degree = scenario.solver.resolve_fixed_spec().tatp
    wafer = scenario.hardware.resolve_config()
    return [{
        "throughput": point.throughput,
        "memory_bytes_per_die": point.memory_bytes_per_die,
        "compute_time": point.compute_time,
        "comm_time": point.comm_time,
        "compute_power_fraction": point.compute_power_fraction,
        "comm_power_fraction": point.comm_power_fraction,
        "dram_power_fraction": point.dram_power_fraction,
        "total_power": point.total_power,
        "power_efficiency": point.power_efficiency,
    } for point in run_sweet_spot(die_counts=[degree], wafer=wafer)]
