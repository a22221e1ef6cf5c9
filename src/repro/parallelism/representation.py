"""Coordinate-based unified parallelism representation (Fig. 10).

TCME needs to see every parallel strategy through the same lens so it can
detect communication contention *between* strategies. The paper's unified
representation names each sub-tensor by its coordinate along the split
dimensions (B, M, N, K) and records a spatio-temporal mapping: which die holds
which sub-tensor at which round.

This module builds that representation for a linear operator executed under a
hybrid spec: the tensors are split according to the per-dimension degrees, the
parallel groups are formed over a die list, and the TATP rounds stream the
sub-tensors between neighbouring dies while DP/TP/FSDP groups perform their
collectives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.parallelism.spec import ParallelSpec
from repro.parallelism.tatp import bidirectional_schedule


@dataclass(frozen=True)
class SubTensorCoordinate:
    """Coordinate of a sub-tensor along the split dimensions.

    Attributes:
        tensor: which logical tensor ("input", "weight", "output").
        batch: index along the batch (B) split.
        sequence: index along the sequence (M) split.
        hidden: index along the input-hidden (N) split.
        intermediate: index along the output-hidden (K) split.
    """

    tensor: str
    batch: int = 0
    sequence: int = 0
    hidden: int = 0
    intermediate: int = 0

    def as_tuple(self) -> Tuple[str, int, int, int, int]:
        """Tuple form used as a dictionary key."""
        return (self.tensor, self.batch, self.sequence, self.hidden,
                self.intermediate)


@dataclass
class UnifiedMapping:
    """Spatio-temporal mapping of sub-tensors onto dies.

    Attributes:
        spec: the hybrid parallel spec the mapping realises.
        dies: the physical dies the operator occupies, in group order.
        groups: per-dimension parallel groups (lists of die ids).
        placement: ``placement[round][die]`` is the list of sub-tensor
            coordinates resident on the die at that round.
        compute_assignment: ``compute_assignment[round][die]`` is the output
            coordinate the die produces in that round.
        num_rounds: number of TATP rounds (1 when TATP is inactive).
    """

    spec: ParallelSpec
    dies: List[int]
    groups: Dict[str, List[List[int]]]
    placement: List[Dict[int, List[SubTensorCoordinate]]]
    compute_assignment: List[Dict[int, SubTensorCoordinate]]
    num_rounds: int

    def resident_coordinates(self, die: int, round_index: int = 0
                             ) -> List[SubTensorCoordinate]:
        """Sub-tensors resident on ``die`` at ``round_index``."""
        return list(self.placement[round_index].get(die, []))

    def has_replication(self, tensor: str) -> bool:
        """Whether any sub-tensor of ``tensor`` is resident on >1 die at round 0."""
        owners: Dict[Tuple, int] = {}
        for die, coords in self.placement[0].items():
            for coord in coords:
                if coord.tensor != tensor:
                    continue
                owners[coord.as_tuple()] = owners.get(coord.as_tuple(), 0) + 1
        return any(count > 1 for count in owners.values())


#: Default nesting order of parallel dimensions, outermost first. TATP is the
#: innermost dimension so its groups occupy consecutive die positions.
DEFAULT_DIMENSION_ORDER: Tuple[str, ...] = (
    "dp", "fsdp", "cp", "sp", "tp", "tatp")


def build_parallel_groups(
    spec: ParallelSpec,
    dies: Sequence[int],
    order: Sequence[str] = DEFAULT_DIMENSION_ORDER,
) -> Dict[str, List[List[int]]]:
    """Form per-dimension parallel groups over an ordered die list.

    Dimensions are nested following ``order`` (outermost first; the default
    puts DP outermost and TATP innermost, matching the hierarchical group
    formation the paper illustrates in Fig. 10, step 2): consecutive dies
    belong to the same innermost group, so a mapping engine that orders
    ``dies`` along a physical chain automatically gives the innermost
    dimension groups of adjacent dies.
    """
    all_degrees = spec.as_dict()
    if sorted(order) != sorted(name for name in all_degrees if name != "pp"):
        raise ValueError(
            f"order must be a permutation of the intra-stage dimensions, got {order}")
    degrees = [(name, all_degrees[name]) for name in order]
    total = 1
    for _, degree in degrees:
        total *= degree
    if total != len(dies):
        raise ValueError(
            f"spec {spec.label()} needs {total} dies, got {len(dies)}")

    # Position p has coordinate (p // stride) % degree along each dimension,
    # innermost fastest: the die list is a C-order grid over the degrees.
    # A dimension's groups share every other coordinate: viewed as
    # (outer, degree, inner), each (outer, inner) pair is one group, in
    # position order.
    grid = np.asarray(dies)
    groups: Dict[str, List[List[int]]] = {name: [] for name, _ in degrees}
    inner = total
    for name, degree in degrees:
        inner //= degree
        if degree > 1:
            groups[name] = grid.reshape(-1, degree, inner).swapaxes(
                1, 2).reshape(-1, degree).tolist()
    return groups


def build_unified_mapping(
    spec: ParallelSpec,
    dies: Sequence[int],
) -> UnifiedMapping:
    """Build the spatio-temporal sub-tensor mapping of a linear operator.

    The input tensor is split along (B, M) by DP/FSDP and SP/CP/TATP, the
    weight tensor along (N, K) by TP and TATP, and each die is assigned the
    co-located ``(I_i, W_i)`` pair of its coordinates. When TATP is active the
    weight sub-tensors then stream between neighbouring positions following
    Algorithm 1, and the compute assignment records which output coordinate
    each die produces per round.
    """
    die_list = list(dies)
    groups = build_parallel_groups(spec, die_list)
    tatp = spec.tatp
    num_rounds = tatp if tatp > 1 else 1
    schedule = bidirectional_schedule(tatp) if tatp > 1 else None

    degrees = [
        ("dp", spec.dp),
        ("fsdp", spec.fsdp),
        ("cp", spec.cp),
        ("sp", spec.sp),
        ("tp", spec.tp),
        ("tatp", spec.tatp),
    ]
    strides: Dict[str, int] = {}
    stride = 1
    for name, degree in reversed(degrees):
        strides[name] = stride
        stride *= degree

    def coord_of(position: int, name: str) -> int:
        return (position // strides[name]) % dict(degrees)[name]

    placement: List[Dict[int, List[SubTensorCoordinate]]] = []
    compute_assignment: List[Dict[int, SubTensorCoordinate]] = []

    for round_index in range(num_rounds):
        round_placement: Dict[int, List[SubTensorCoordinate]] = {}
        round_compute: Dict[int, SubTensorCoordinate] = {}
        for position, die in enumerate(die_list):
            batch_index = coord_of(position, "dp") * spec.fsdp + coord_of(position, "fsdp")
            seq_index = coord_of(position, "cp") * spec.sp + coord_of(position, "sp")
            tp_index = coord_of(position, "tp")
            tatp_index = coord_of(position, "tatp")

            input_coord = SubTensorCoordinate(
                "input", batch=batch_index, sequence=seq_index,
                hidden=tatp_index)
            if schedule is not None:
                weight_slot = schedule.compute[round_index][tatp_index]
            else:
                weight_slot = tatp_index
            weight_coord = SubTensorCoordinate(
                "weight", hidden=tp_index, intermediate=weight_slot)
            output_coord = SubTensorCoordinate(
                "output", batch=batch_index, sequence=seq_index,
                hidden=tp_index, intermediate=weight_slot)

            round_placement[die] = [input_coord, weight_coord]
            round_compute[die] = output_coord
        placement.append(round_placement)
        compute_assignment.append(round_compute)

    return UnifiedMapping(
        spec=spec,
        dies=die_list,
        groups=groups,
        placement=placement,
        compute_assignment=compute_assignment,
        num_rounds=num_rounds,
    )
