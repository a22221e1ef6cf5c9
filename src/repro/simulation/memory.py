"""HBM occupancy and DRAM-traffic models (the Ramulator role).

Memory has two jobs in the evaluation:

* **capacity** — a configuration whose per-die footprint exceeds the 72 GB HBM
  capacity is an OOM failure (the OOM bars of Fig. 13),
* **traffic** — DRAM accesses cost energy (6 pJ/bit) and appear in the power
  breakdown of Fig. 14; traffic is estimated from the tensors each training
  step must read and write.
"""

from __future__ import annotations

from repro.parallelism.strategies import ExecutionPlan
from repro.workloads.training import MemoryFootprint


def fits_in_memory(footprint: MemoryFootprint, capacity: float) -> bool:
    """Whether a per-device footprint fits in ``capacity`` bytes of memory.

    The one fit test of every platform: the wafer passes its die's HBM
    capacity, the GPU cluster its device memory.
    """
    return footprint.total <= capacity


def memory_pressure(footprint: MemoryFootprint, capacity: float) -> float:
    """Ratio of the footprint to ``capacity`` bytes (>1 means OOM)."""
    if capacity <= 0:
        raise ValueError("memory capacity must be positive")
    return footprint.total / capacity


def dram_traffic_bytes(plan: ExecutionPlan) -> float:
    """Estimated per-die DRAM traffic of one training step, in bytes.

    The estimate counts, per device:

    * reading the weight shard for the forward and backward passes and writing
      the gradient shard (3x the weight shard),
    * writing the forward activations and reading them back during the
      backward pass (2x the activation footprint),
    * reading and writing the optimizer state once during the update
      (2x the optimizer shard),
    * re-streaming communication buffers that pass through HBM (the wire
      bytes of the step).
    """
    memory = plan.memory
    weight_traffic = 3.0 * memory.weights
    activation_traffic = 2.0 * memory.activations
    optimizer_traffic = 2.0 * memory.optimizer + memory.gradients
    comm_staging = plan.total_comm_bytes()
    return weight_traffic + activation_traffic + optimizer_traffic + comm_staging
