"""GPU-cluster simulator for the Fig. 15 comparison.

The cluster executes the same execution plans as the wafer, but its
interconnect is switch-based: any logical ring is physically realisable, so
there are no hop factors or mesh contention, and the collective times follow
the standard ring formulas over NVLink (intra-node) or InfiniBand
(inter-node). Compute uses the A100 peak with the same MFU assumption as the
wafer so the comparison isolates the interconnect and parallelism effects,
and OOM is the wafer's fit test against the device memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.hardware.config import GPUClusterConfig
from repro.parallelism.comm import CollectiveType, CommTask
from repro.parallelism.strategies import ExecutionPlan
from repro.simulation.config import SimulatorConfig
from repro.simulation.memory import fits_in_memory
from repro.workloads.training import MemoryFootprint


@dataclass
class GPUSimulationReport:
    """Metrics of one training step on the GPU cluster."""

    model_name: str
    spec_label: str
    compute_time: float
    comm_time: float
    step_time: float
    memory: MemoryFootprint
    oom: bool
    throughput: float

    def breakdown(self) -> Dict[str, float]:
        """Latency breakdown matching Fig. 15's bars."""
        return {"compute": self.compute_time, "communication": self.comm_time}


class GPUClusterSimulator:
    """Analytical simulator of LLM training steps on a GPU cluster."""

    def __init__(
        self,
        cluster: Optional[GPUClusterConfig] = None,
        config: Optional[SimulatorConfig] = None,
    ) -> None:
        self.cluster = cluster or GPUClusterConfig()
        self.config = config or SimulatorConfig()

    def simulate(self, plan: ExecutionPlan) -> GPUSimulationReport:
        """Simulate one training step of ``plan`` on the cluster."""
        device = self.cluster.device
        sustained = device.peak_flops * self.config.base_mfu
        compute_time = plan.flops_per_device / sustained

        comm_time = 0.0
        for task in plan.comm_tasks:
            comm_time += self._task_time(task) * task.count
        overlap_time = sum(
            self._task_time(task) * task.count for task in plan.overlap_tasks)
        exposed = max(0.0, overlap_time - compute_time * self.config.overlap_efficiency)

        step_time = compute_time + comm_time + exposed
        memory = plan.memory
        oom = not fits_in_memory(memory, device.memory_capacity)
        throughput = plan.model.tokens_per_batch / step_time if step_time > 0 else 0.0
        return GPUSimulationReport(
            model_name=plan.model.name,
            spec_label=plan.spec.label(),
            compute_time=compute_time,
            comm_time=comm_time + exposed,
            step_time=step_time,
            memory=memory,
            oom=oom,
            throughput=throughput,
        )

    def _task_time(self, task: CommTask) -> float:
        """Time of one execution of a communication task on the cluster."""
        if task.is_trivial:
            return 0.0
        group = task.group_size
        cluster = self.cluster
        if group > cluster.gpus_per_node:
            bandwidth = cluster.internode_bandwidth
            latency = cluster.internode_latency
        else:
            bandwidth = cluster.device.nvlink_bandwidth
            latency = cluster.device.nvlink_latency
        if task.kind is CollectiveType.ALL_REDUCE:
            steps = 2 * (group - 1)
        elif task.kind in (CollectiveType.ALL_GATHER, CollectiveType.REDUCE_SCATTER,
                           CollectiveType.BROADCAST, CollectiveType.STREAM):
            steps = group - 1
        else:
            steps = 1
        return steps * latency + task.bytes_per_device / bandwidth
