"""TSPP and its topology-aware realisation TATP (Section V, Algorithm 1).

The tensor-stream partition paradigm (TSPP) splits both the input and the
weight tensor of a linear operator into ``N`` non-overlapping sub-tensors,
co-locates ``(I_i, W_i)`` on die ``i``, and executes ``N`` rounds: in round
``t`` each die computes exactly one sub-output while the sub-tensor it will
need next is streamed in, overlapping communication with computation and
eliminating tensor replication.

A *naive* logical-ring orchestration would require a physical torus link
between the first and last die of the group — infeasible on a wafer, where
signal integrity limits D2D links to adjacent dies. TATP instead uses the
**bidirectional compute-and-relay orchestration** of Algorithm 1: sub-tensors
flow simultaneously left and right along the physical chain, one hop per
round, and dies in the lower half of the chain consume sub-tensors in
ascending order while dies in the upper half consume them in descending
order. Every transfer is a single physical hop, so tail latency disappears.

This module provides:

* :func:`bidirectional_schedule` — the TATP schedule (compute + relay ops per
  round) with its invariants checked,
* :func:`naive_ring_schedule` — the naive logical-ring schedule used as the
  contrast case in Fig. 7/8,
* :func:`select_stream_tensor` — the selective transfer policy (stream the
  smaller of weights and activations),
* :class:`TATPCharacteristics` — per-die compute/memory/communication volumes
  the cost model consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Sequence


class StreamChoice(Enum):
    """Which operand TATP streams between dies each round."""

    WEIGHTS = "weights"
    ACTIVATIONS = "activations"


@dataclass(frozen=True)
class TransferOp:
    """A single one-round transfer of a sub-tensor between chain positions.

    Positions are logical ranks within the TATP group (0..N-1 along the
    physical chain); the mapping engine translates them to die ids.
    """

    src: int
    dst: int
    sub_tensor: int
    round_index: int

    @property
    def hops(self) -> int:
        """Logical hop count of the transfer (1 for TATP relays)."""
        return abs(self.dst - self.src)


@dataclass
class TATPSchedule:
    """A complete TATP (or naive-ring) execution schedule.

    Attributes:
        degree: number of participants N.
        compute: ``compute[t][rank]`` is the sub-tensor index rank uses in
            round t.
        transfers: per-round list of :class:`TransferOp`.
        is_ring: whether the schedule assumes a closed physical ring (naive)
            or only a linear chain of adjacent dies (TATP).
    """

    degree: int
    compute: List[Dict[int, int]]
    transfers: List[List[TransferOp]]
    is_ring: bool = False

    @property
    def num_rounds(self) -> int:
        """Number of execution rounds (always equal to the degree)."""
        return len(self.compute)

    def max_hops_per_transfer(self) -> int:
        """Largest logical hop distance of any transfer in the schedule."""
        hops = [op.hops for ops in self.transfers for op in ops]
        return max(hops) if hops else 0

    def sends_per_rank_per_round(self) -> int:
        """Maximum number of sends any rank performs in a single round."""
        worst = 0
        for ops in self.transfers:
            per_rank: Dict[int, int] = {}
            for op in ops:
                per_rank[op.src] = per_rank.get(op.src, 0) + 1
            if per_rank:
                worst = max(worst, max(per_rank.values()))
        return worst

    def validate(self) -> None:
        """Check the schedule's correctness invariants.

        * every rank computes each sub-tensor exactly once over all rounds,
        * every sub-tensor a rank computes with is locally available (it was
          resident initially or delivered by a transfer in an earlier round),
        * for TATP (non-ring) schedules every transfer is exactly one hop.

        Raises:
            ValueError: when an invariant is violated.
        """
        n = self.degree
        # Each rank covers all sub-tensors exactly once.
        for rank in range(n):
            seen = [self.compute[t][rank] for t in range(self.num_rounds)]
            if sorted(seen) != list(range(n)):
                raise ValueError(
                    f"rank {rank} computes sub-tensors {sorted(seen)}, "
                    f"expected all of 0..{n - 1}"
                )
        # Availability: track which sub-tensors each rank holds over time.
        holdings: Dict[int, set] = {rank: {rank} for rank in range(n)}
        for t in range(self.num_rounds):
            for rank in range(n):
                needed = self.compute[t][rank]
                if needed not in holdings[rank]:
                    raise ValueError(
                        f"rank {rank} needs sub-tensor {needed} in round {t} "
                        f"but only holds {sorted(holdings[rank])}"
                    )
            for op in self.transfers[t]:
                if op.sub_tensor not in holdings[op.src]:
                    raise ValueError(
                        f"rank {op.src} relays sub-tensor {op.sub_tensor} in "
                        f"round {t} without holding it"
                    )
                holdings[op.dst].add(op.sub_tensor)
        if not self.is_ring and self.max_hops_per_transfer() > 1:
            raise ValueError(
                "TATP schedule contains a multi-hop transfer "
                f"({self.max_hops_per_transfer()} hops)"
            )


def bidirectional_schedule(degree: int) -> TATPSchedule:
    """Build the TATP bidirectional compute-and-relay schedule (Algorithm 1).

    Ranks ``0..N/2-1`` consume sub-tensors in ascending order
    ``(rank + t) mod N`` while ranks ``N/2..N-1`` consume them in descending
    order ``(rank - t) mod N``. Each sub-tensor is relayed simultaneously
    leftward and rightward along the chain, one hop per round, for exactly as
    long as some rank further along still needs it. All transfers are one hop,
    so the schedule runs on a linear chain of adjacent dies without any
    wrap-around link.

    Args:
        degree: number of participating dies N (>= 1).

    Returns:
        A validated :class:`TATPSchedule`.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    n = degree
    compute: List[Dict[int, int]] = []
    for t in range(n):
        round_compute: Dict[int, int] = {}
        for rank in range(n):
            if rank < (n + 1) // 2:
                round_compute[rank] = (rank + t) % n
            else:
                round_compute[rank] = (rank - t) % n
        compute.append(round_compute)

    # need_time[rank][sub] = round in which `rank` computes with `sub`.
    need_time = [
        {compute[t][rank]: t for t in range(n)} for rank in range(n)
    ]

    transfers: List[List[TransferOp]] = [[] for _ in range(n)]
    for sub in range(n):
        _schedule_relay(sub, direction=-1, degree=n, need_time=need_time,
                        transfers=transfers)
        _schedule_relay(sub, direction=+1, degree=n, need_time=need_time,
                        transfers=transfers)

    schedule = TATPSchedule(degree=n, compute=compute, transfers=transfers,
                            is_ring=False)
    schedule.validate()
    return schedule


def _schedule_relay(
    sub: int,
    direction: int,
    degree: int,
    need_time: Sequence[Dict[int, int]],
    transfers: List[List[TransferOp]],
) -> None:
    """Relay sub-tensor ``sub`` hop by hop in ``direction`` while still needed.

    The sub-tensor starts on rank ``sub`` and moves one position per round
    starting at round 0. It keeps moving only while some rank strictly further
    along in this direction needs it at a round it can still make (arrival at
    distance d happens at the end of round d-1, so it serves needs at rounds
    >= d).
    """
    n = degree
    position = sub
    for step in range(1, n):
        next_position = position + direction
        if not 0 <= next_position < n:
            break
        arrival_round = step - 1  # transfer happens during this round
        # Does any rank at or beyond next_position (in this direction) still
        # need the sub-tensor at a round it can reach in time?
        still_needed = False
        probe = next_position
        distance = step
        while 0 <= probe < n:
            needed_at = need_time[probe].get(sub)
            if needed_at is not None and needed_at >= distance and probe != sub:
                still_needed = True
                break
            probe += direction
            distance += 1
        if not still_needed:
            break
        transfers[arrival_round].append(
            TransferOp(src=position, dst=next_position, sub_tensor=sub,
                       round_index=arrival_round)
        )
        position = next_position


def naive_ring_schedule(degree: int) -> TATPSchedule:
    """The naive logical-ring orchestration of TSPP.

    Every rank computes sub-tensor ``(rank + t) mod N`` in round ``t`` and
    passes the sub-tensor it just used to rank ``rank - 1`` — which, for rank
    0, means the transfer wraps around to rank ``N - 1``. On a linear physical
    chain that wrap-around is an ``N - 1`` hop transfer: the tail latency the
    paper's Fig. 5(a) and Fig. 8(b) illustrate.
    """
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    n = degree
    compute = [
        {rank: (rank + t) % n for rank in range(n)} for t in range(n)
    ]
    transfers: List[List[TransferOp]] = [[] for _ in range(n)]
    for t in range(n - 1):
        for rank in range(n):
            dst = (rank - 1) % n
            transfers[t].append(
                TransferOp(src=rank, dst=dst, sub_tensor=(rank + t) % n,
                           round_index=t)
            )
    schedule = TATPSchedule(degree=n, compute=compute, transfers=transfers,
                            is_ring=True)
    schedule.validate()
    return schedule


def select_stream_tensor(
    weight_bytes: float, activation_bytes: float
) -> StreamChoice:
    """Selective transfer policy: stream whichever operand is smaller.

    For long-sequence models activations dwarf the weights (the paper cites a
    3x gap for Llama2-7B at 14k tokens), so TATP streams weights; for short
    sequences with very wide layers the opposite can hold.
    """
    if weight_bytes < 0 or activation_bytes < 0:
        raise ValueError("tensor sizes must be non-negative")
    if weight_bytes <= activation_bytes:
        return StreamChoice.WEIGHTS
    return StreamChoice.ACTIVATIONS


@dataclass(frozen=True)
class TATPCharacteristics:
    """Per-die volumes of one operator executed under TATP with degree N.

    Attributes:
        degree: TATP parallel degree N.
        flops_per_die: total FLOPs each die executes across all rounds.
        flops_per_round: FLOPs per die per round.
        streamed_bytes_per_round: bytes each die sends per direction per round.
        stream_choice: which operand is streamed.
        memory_bytes_per_die: resident bytes per die (no replication: input,
            weight and output shards all divide by N).
        num_rounds: number of rounds (equals the degree).
    """

    degree: int
    flops_per_die: float
    flops_per_round: float
    streamed_bytes_per_round: float
    stream_choice: StreamChoice
    memory_bytes_per_die: float
    num_rounds: int

    @classmethod
    def for_operator(
        cls,
        degree: int,
        total_flops: float,
        weight_bytes: float,
        activation_bytes: float,
        output_bytes: float,
    ) -> "TATPCharacteristics":
        """Derive the TATP volumes for one operator.

        Args:
            degree: TATP degree N.
            total_flops: total FLOPs of the operator (fwd, bwd or grad stage).
            weight_bytes: full weight tensor size.
            activation_bytes: full input-activation tensor size.
            output_bytes: full output tensor size.
        """
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        choice = select_stream_tensor(weight_bytes, activation_bytes)
        streamed_total = (
            weight_bytes if choice is StreamChoice.WEIGHTS else activation_bytes
        )
        flops_per_die = total_flops / degree
        flops_per_round = flops_per_die / degree
        streamed_per_round = streamed_total / degree
        memory_per_die = (weight_bytes + activation_bytes + output_bytes) / degree
        return cls(
            degree=degree,
            flops_per_die=flops_per_die,
            flops_per_round=flops_per_round,
            streamed_bytes_per_round=streamed_per_round,
            stream_choice=choice,
            memory_bytes_per_die=memory_per_die,
            num_rounds=degree,
        )
