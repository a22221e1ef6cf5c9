"""Vectorized cost tables for the dual-level solver (Eqs. 2-4, batched).

The scalar functions in :mod:`repro.costmodel.analytical` are the reference
implementation of the paper's analytical cost model; they evaluate one
(operator, spec) pair per call. The solver, however, needs the same numbers
for *every* candidate spec of *every* operator — ``O(ops x specs)`` intra
costs plus an ``O(specs^2)`` resharding matrix per graph edge — and the
genetic stage re-reads them thousands of times. :class:`CostTables`
materialises all of it once as numpy arrays:

* ``intra[i, s]`` — Eq. (2) total cost of operator ``i`` under spec ``s``,
* ``memory[i, s]`` — per-die resident bytes of operator ``i`` under ``s``,
* ``reshard(u)[a, b]`` — Eq. (3) resharding time on an edge leaving node
  ``u`` when the producer runs spec ``a`` and the consumer spec ``b``
  (materialised lazily, cached per producer).

Every table cell agrees with the scalar reference to float64 precision (the
vectorized expressions replay the exact same arithmetic across the spec
axis); ``tests/costmodel/test_tables.py`` asserts the parity contract.

The module also provides :class:`PlanCache`, a bounded memoisation layer over
:func:`repro.parallelism.strategies.analyze_model` so whole-model execution
plans are derived once per ``(model, spec)`` and shared between search-space
pruning, finalist ranking, and the experiment runners.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.hardware.config import WaferConfig
from repro.obs.metrics import CounterBundle
from repro.obs.tracing import span
from repro.parallelism.spec import ParallelSpec
from repro.parallelism.strategies import (
    DEFAULT_MICROBATCHES,
    ExecutionPlan,
    analyze_model,
)
from repro.simulation.config import SimulatorConfig
from repro.workloads.graph import ComputeGraph
from repro.workloads.models import ModelConfig
from repro.workloads.operators import Operator, OperatorKind

#: Operator kinds that participate in TP collectives and TATP streaming.
_GEMM_KINDS = (OperatorKind.GEMM, OperatorKind.BATCHED_GEMM)


# Plan cache -------------------------------------------------------------------


class PlanCache:
    """Bounded LRU memoisation of :func:`analyze_model` results.

    One :class:`~repro.parallelism.strategies.ExecutionPlan` is derived per
    distinct ``(model, spec, devices, checkpointing, microbatches)`` key and
    shared by every consumer holding the cache — search-space pruning,
    finalist ranking, and the finalist simulation loop all read the same
    object instead of re-running the analysis.

    Attributes:
        hits: number of ``analyze`` calls served from the cache.
        misses: number of ``analyze`` calls that ran the underlying analysis.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.counters = CounterBundle(hits=0, misses=0)
        self._plans: "OrderedDict[tuple, ExecutionPlan]" = OrderedDict()

    # hits/misses stay plain attributes (read by SolverOutcome and tests);
    # the bundle behind them is the shared snapshot() convention.
    @property
    def hits(self) -> int:
        return self.counters.hits

    @hits.setter
    def hits(self, value: int) -> None:
        self.counters.hits = value

    @property
    def misses(self) -> int:
        return self.counters.misses

    @misses.setter
    def misses(self, value: int) -> None:
        self.counters.misses = value

    def __len__(self) -> int:
        return len(self._plans)

    def analyze(
        self,
        model: ModelConfig,
        spec: ParallelSpec,
        num_devices: Optional[int] = None,
        activation_checkpointing: bool = False,
        num_microbatches: int = DEFAULT_MICROBATCHES,
    ) -> ExecutionPlan:
        """Memoised :func:`analyze_model` with the same signature.

        ``num_devices`` is normalised to ``spec.total_degree`` (the default
        the analysis applies) so explicit and implicit device counts share
        one cache entry.
        """
        devices = num_devices if num_devices is not None else spec.total_degree
        key = (model, spec, devices, activation_checkpointing, num_microbatches)
        plan = self._plans.get(key)
        if plan is not None:
            self.hits += 1
            self._plans.move_to_end(key)
            return plan
        self.misses += 1
        plan = analyze_model(
            model, spec,
            num_devices=devices,
            activation_checkpointing=activation_checkpointing,
            num_microbatches=num_microbatches,
        )
        self._plans[key] = plan
        if len(self._plans) > self.max_entries:
            self._plans.popitem(last=False)
        return plan

    def stats(self) -> Dict[str, int]:
        """Counter snapshot: ``hits``, ``misses``, ``entries``, ``max_entries``.

        The persistence/metrics hook read by ``PlanService.stats()`` and the
        plan server's ``GET /metrics`` — a plain-JSON dict, safe to ship
        across process boundaries.
        """
        return {
            **self.counters.snapshot(),
            "entries": len(self._plans),
            "max_entries": self.max_entries,
        }


# Spec columns ------------------------------------------------------------------


class _SpecColumns:
    """Candidate-spec attributes as parallel numpy columns (one row per spec)."""

    def __init__(self, candidates: Sequence[ParallelSpec]) -> None:
        def as_int(values):
            return np.asarray(list(values), dtype=np.int64)
        self.tp = as_int(spec.tp for spec in candidates)
        self.dp = as_int(spec.dp for spec in candidates)
        self.fsdp = as_int(spec.fsdp for spec in candidates)
        self.tatp = as_int(spec.tatp for spec in candidates)
        self.intra_stage = as_int(spec.intra_stage_degree for spec in candidates)
        self.dp_degree = as_int(spec.data_parallel_degree for spec in candidates)
        self.seq_degree = as_int(spec.sequence_split_degree for spec in candidates)
        # Layout signature used by the resharding model (Eq. 3): specs whose
        # four-tuple matches exchange no data.
        self.layout = np.stack(
            [self.dp_degree, self.seq_degree, self.tp, self.tatp], axis=1)


def _collective_time_vec(
    steps: np.ndarray,
    wire: np.ndarray,
    wafer: WaferConfig,
    config: SimulatorConfig,
    hop_factor: int,
) -> np.ndarray:
    """Vector version of ``analytical._collective_time`` over the spec axis."""
    active = (steps > 0) & (wire > 0)
    safe_steps = np.maximum(steps, 1)
    chunk = wire / safe_steps
    ramp = config.link_ramp_bytes
    if ramp > 0:
        safe_chunk = np.where(chunk > 0, chunk, 1.0)
        bandwidth = np.where(
            chunk > 0,
            wafer.d2d.bandwidth * safe_chunk / (safe_chunk + ramp),
            wafer.d2d.bandwidth,
        )
    else:
        bandwidth = np.full_like(wire, float(wafer.d2d.bandwidth))
    time = steps * hop_factor * wafer.d2d.latency + wire / bandwidth
    return np.where(active, time, 0.0)


# Cost tables -------------------------------------------------------------------


class CostTables:
    """Precomputed cost / memory / resharding tables for one solver problem.

    Args:
        graph: the compute graph being optimised.
        candidates: candidate specs, indexed ``0..S-1`` throughout the tables.
        wafer: wafer configuration for the analytical model.
        config: simulator knobs.
        hop_factor: physical hops per logical step (1 for contiguous groups).

    Tables are materialised lazily so the ``cells_materialized`` counter —
    the quantity the search-time comparison reports as *evaluations* — only
    counts work that actually happened. Rows for nodes sharing identical
    operator parameters are computed once and aliased.
    """

    def __init__(
        self,
        graph: ComputeGraph,
        candidates: Sequence[ParallelSpec],
        wafer: WaferConfig,
        config: Optional[SimulatorConfig] = None,
        hop_factor: int = 1,
    ) -> None:
        if not candidates:
            raise ValueError("candidate spec list must not be empty")
        self.graph = graph
        self.candidates = list(candidates)
        self.wafer = wafer
        self.config = config or SimulatorConfig()
        self.hop_factor = hop_factor
        self.num_specs = len(self.candidates)
        self.spec_index: Dict[ParallelSpec, int] = {
            spec: index for index, spec in enumerate(self.candidates)}
        self.node_ids: List[int] = [node.node_id for node in graph.nodes()]
        self.node_index: Dict[int, int] = {
            node_id: index for index, node_id in enumerate(self.node_ids)}
        self.cells_materialized = 0

        self._cols = _SpecColumns(self.candidates)
        # The layout-mismatch base of Eq. (3) is spec-only: fraction of the
        # producer output that moves, divided by the producer's device count.
        mismatch = (
            self._cols.layout[:, None, :] != self._cols.layout[None, :, :]
        ).sum(axis=2)
        self._reshard_fraction = mismatch / self._cols.layout.shape[1]

        self._reshard_mats: Dict[int, np.ndarray] = {}
        # Dedup cache keyed by the producer parameter the reshard model reads.
        self._reshard_by_bytes: Dict[float, np.ndarray] = {}
        self._intra: Optional[np.ndarray] = None
        self._memory: Optional[np.ndarray] = None
        self._edge_arrays: Optional[tuple] = None
        self._intra_list: Optional[List[List[float]]] = None
        self._edge_list: Optional[List[tuple]] = None
        self._edges_at: Optional[List[List[int]]] = None

    def ensure_compatible(
        self,
        graph: ComputeGraph,
        candidates: Sequence[ParallelSpec],
        wafer: WaferConfig,
        config: Optional[SimulatorConfig],
    ) -> None:
        """Raise when this table was built for a different solver problem.

        Spec indices from the tables are used to index the caller's
        ``candidates`` list, and the cached cells bake in the graph, wafer,
        and simulator knobs — a mismatch on any of them would silently
        produce assignments optimised for the wrong problem.
        """
        if self.candidates != list(candidates):
            raise ValueError(
                "tables were built over a different candidate list")
        if self.graph is not graph:
            raise ValueError("tables were built over a different graph")
        if self.wafer != wafer:
            raise ValueError(
                "tables were built for a different wafer configuration")
        if config is not None and self.config != config:
            raise ValueError(
                "tables were built with different simulator knobs")

    # Table access -------------------------------------------------------------

    def intra_row(self, node_id: int) -> np.ndarray:
        """Eq. (2) totals of ``node_id`` under every candidate spec."""
        return self.intra_matrix()[self.node_index[node_id]]

    def memory_row(self, node_id: int) -> np.ndarray:
        """Per-die resident bytes of ``node_id`` under every candidate spec."""
        self.intra_matrix()
        return self._memory[self.node_index[node_id]]

    def reshard_matrix(self, node_id: int) -> np.ndarray:
        """Eq. (3) ``S x S`` resharding times for edges leaving ``node_id``."""
        matrix = self._reshard_mats.get(node_id)
        if matrix is None:
            operator = self.graph.node(node_id).operator
            matrix = self._reshard_by_bytes.get(operator.output_bytes)
            if matrix is None:
                matrix = self._build_reshard(operator)
                self._reshard_by_bytes[operator.output_bytes] = matrix
            self._reshard_mats[node_id] = matrix
            self.cells_materialized += matrix.size
        return matrix

    def intra_matrix(self) -> np.ndarray:
        """The full ``nodes x specs`` Eq. (2) table (rows in node order).

        Built in one vectorized pass over the graph's *unique* operators
        (transformer layers repeat the same handful); rows of nodes sharing
        operator parameters alias the same computation.
        """
        if self._intra is None:
            unique: Dict[tuple, int] = {}
            operators: List[Operator] = []
            row_of: List[int] = []
            for node_id in self.node_ids:
                operator = self.graph.node(node_id).operator
                key = (operator.kind, operator.total_flops,
                       operator.input_bytes, operator.weight_bytes,
                       operator.output_bytes)
                index = unique.get(key)
                if index is None:
                    index = len(operators)
                    unique[key] = index
                    operators.append(operator)
                row_of.append(index)
            total, memory = self._build_intra(operators)
            self._intra = total[row_of]
            self._memory = memory[row_of]
            self.cells_materialized += self._intra.size
        return self._intra

    # Whole-graph costs --------------------------------------------------------

    def assignment_cost(self, assignment: Dict[int, ParallelSpec]) -> float:
        """Eq. (4) via table lookups; parity partner of ``graph_cost``."""
        genome = [self.spec_index[assignment[node_id]]
                  for node_id in self.node_ids]
        return self.genome_cost(np.asarray(genome, dtype=np.int64))

    def genome_cost(self, genome: np.ndarray) -> float:
        """Eq. (4) of the assignment encoded as per-node spec indices."""
        intra = self.intra_matrix()
        total = float(intra[np.arange(len(self.node_ids)), genome].sum())
        edge_src, edge_dst, edge_tensor = self.edge_arrays()
        if len(edge_src):
            total += float(edge_tensor[
                np.arange(len(edge_src)),
                genome[edge_src],
                genome[edge_dst],
            ].sum())
        return total

    def population_costs(self, genomes: np.ndarray) -> np.ndarray:
        """Eq. (4) for a whole ``(P, N)`` population in one fancy-indexed pass."""
        genomes = np.asarray(genomes, dtype=np.int64)
        intra = self.intra_matrix()
        costs = intra[np.arange(genomes.shape[1])[None, :], genomes].sum(axis=1)
        edge_src, edge_dst, edge_tensor = self.edge_arrays()
        if len(edge_src):
            costs = costs + edge_tensor[
                np.arange(len(edge_src))[None, :],
                genomes[:, edge_src],
                genomes[:, edge_dst],
            ].sum(axis=1)
        return costs

    def delta_cost(
        self, genome: Sequence[int], cost: float, child: Sequence[int]
    ) -> float:
        """Cost of ``child`` given its parent's cost, touching only changed genes.

        Re-evaluates the intra terms of mutated positions and the resharding
        terms of edges incident to them — ``O(changed)`` instead of
        ``O(nodes + edges)`` — which is what lets the genetic stage score a
        child for the price of its diff. Plain-Python indexing on purpose:
        the touched sets are a handful of cells, far below the size where
        numpy dispatch overhead pays for itself.
        """
        changed = [
            index for index in range(len(genome))
            if genome[index] != child[index]
        ]
        if not changed:
            return cost
        intra, edge_list, edges_at = self._delta_lists()
        delta = 0.0
        touched: set = set()
        for index in changed:
            row = intra[index]
            delta += row[child[index]] - row[genome[index]]
            touched.update(edges_at[index])
        for edge_id in touched:
            src, dst, matrix = edge_list[edge_id]
            delta += (matrix[child[src]][child[dst]]
                      - matrix[genome[src]][genome[dst]])
        return cost + delta

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edge endpoints (as node positions) and the stacked reshard tensor."""
        if self._edge_arrays is None:
            edges = self.graph.edges()
            src = np.asarray(
                [self.node_index[u] for u, _ in edges], dtype=np.int64)
            dst = np.asarray(
                [self.node_index[v] for _, v in edges], dtype=np.int64)
            if edges:
                tensor = np.stack(
                    [self.reshard_matrix(u) for u, _ in edges])
            else:
                tensor = np.zeros((0, self.num_specs, self.num_specs))
            self._edge_arrays = (src, dst, tensor)
        return self._edge_arrays

    def _delta_lists(
        self,
    ) -> Tuple[List[List[float]], List[Tuple[int, int, List[List[float]]]],
               List[List[int]]]:
        """Plain-list mirrors of the tables for the scalar delta-eval path.

        ``tolist()`` preserves the exact float64 values; Python-float
        arithmetic on them is several times faster than numpy scalar
        indexing at delta-evaluation granularity.
        """
        if self._edge_list is None:
            intra = self.intra_matrix().tolist()
            edge_list: List[Tuple[int, int, List[List[float]]]] = []
            edges_at: List[List[int]] = [[] for _ in self.node_ids]
            for u, v in self.graph.edges():
                src, dst = self.node_index[u], self.node_index[v]
                edge_id = len(edge_list)
                edge_list.append((src, dst, self.reshard_matrix(u).tolist()))
                edges_at[src].append(edge_id)
                edges_at[dst].append(edge_id)
            self._intra_list = intra
            self._edge_list = edge_list
            self._edges_at = edges_at
        return self._intra_list, self._edge_list, self._edges_at

    # Table construction -------------------------------------------------------

    def _build_intra(
        self, operators: Sequence[Operator]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized Eq. (2) over an ``operators x specs`` grid.

        Broadcasts operator parameters as column vectors against the spec
        columns, replaying the exact arithmetic of the scalar
        ``intra_operator_cost`` across the whole grid in one pass.
        """
        cols, wafer, config = self._cols, self.wafer, self.config
        hop = self.hop_factor

        def column(values):
            return np.asarray(list(values))[:, None]
        op_flops = column(op.total_flops for op in operators)
        op_in = column(op.input_bytes for op in operators)
        op_weight = column(op.weight_bytes for op in operators)
        op_out = column(op.output_bytes for op in operators)
        is_gemm = column(op.kind in _GEMM_KINDS for op in operators)
        has_weight = op_weight > 0

        compute = (
            op_flops / cols.intra_stage
            / (wafer.die.peak_flops * config.base_mfu)
            + cols.tatp * config.kernel_overhead
        )

        # Megatron TP: activation all-reduce over the TP group (GEMMs only).
        output_slice = op_out / (cols.dp_degree * cols.seq_degree * cols.tatp)
        tp_active = is_gemm & (cols.tp > 1)
        wire = np.where(
            tp_active, 2.0 * (cols.tp - 1) / cols.tp * output_slice, 0.0)
        steps = np.where(tp_active, 2 * (cols.tp - 1), 0)
        collective = _collective_time_vec(steps, wire, wafer, config, hop)

        # FSDP: weight all-gather before forward and backward.
        weight_shard = op_weight / (cols.tp * cols.tatp)
        fsdp_active = has_weight & (cols.fsdp > 1)
        wire = np.where(
            fsdp_active, (cols.fsdp - 1) / cols.fsdp * weight_shard, 0.0)
        steps = np.where(fsdp_active, cols.fsdp - 1, 0)
        collective = collective + 2.0 * _collective_time_vec(
            steps, wire, wafer, config, hop)

        # DP: per-operator share of the gradient all-reduce.
        grad_shard = op_weight / (cols.tp * cols.tatp * cols.fsdp)
        dp_active = has_weight & (cols.dp > 1)
        wire = np.where(
            dp_active, 2.0 * (cols.dp - 1) / cols.dp * grad_shard, 0.0)
        steps = np.where(dp_active, 2 * (cols.dp - 1), 0)
        collective = collective + _collective_time_vec(
            steps, wire, wafer, config, hop)

        # TATP: stream the smaller operand each round (fwd, bwd, grad).
        activation_shard = op_in / (cols.dp_degree * cols.seq_degree)
        streamed = np.where(
            has_weight,
            np.minimum(op_weight / cols.tp, activation_shard),
            activation_shard)
        tatp_active = is_gemm & (cols.tatp > 1)
        wire = np.where(
            tatp_active, streamed * (cols.tatp - 1) / cols.tatp, 0.0)
        steps = np.where(tatp_active, cols.tatp - 1, 0)
        p2p = 3.0 * _collective_time_vec(steps, wire, wafer, config, hop)

        total = collective + np.maximum(compute, p2p)
        memory = (
            op_weight / (cols.tp * cols.tatp * cols.fsdp)
            + op_out / (cols.dp_degree * cols.seq_degree * cols.tatp)
        )
        return total, memory

    def _build_reshard(self, operator: Operator) -> np.ndarray:
        """Vectorized Eq. (3) over every (producer spec, consumer spec) pair."""
        with span("tables.reshard", specs=self.num_specs):
            return self._build_reshard_matrix(operator)

    def _build_reshard_matrix(self, operator: Operator) -> np.ndarray:
        cols, wafer, config = self._cols, self.wafer, self.config
        volume = (
            operator.output_bytes * self._reshard_fraction
            / cols.intra_stage[:, None]
        )
        active = volume > 0
        safe_volume = np.where(active, volume, 1.0)
        ramp = config.link_ramp_bytes
        if ramp > 0:
            bandwidth = wafer.d2d.bandwidth * safe_volume / (safe_volume + ramp)
        else:
            bandwidth = np.full_like(safe_volume, float(wafer.d2d.bandwidth))
        time = self.hop_factor * wafer.d2d.latency + safe_volume / bandwidth
        return np.where(active, time, 0.0)
