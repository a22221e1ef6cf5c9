"""Compute-graph intermediate representation.

The solver and mapping layers reason about a directed acyclic graph of
operators. Nodes carry an :class:`~repro.workloads.operators.Operator`
instance (which knows its own FLOPs and tensor sizes); edges represent tensor
dependencies. Residual connections are ordinary edges flagged so the graph
partitioner (§VII-B) can cut the graph at residual-free boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.workloads.operators import DType, Operator


@dataclass(frozen=True)
class TensorSpec:
    """Shape and dtype of a logical tensor flowing between operators.

    Attributes:
        name: human-readable tensor name ("activations", "weights", ...).
        shape: dimension sizes; the conventional order for linear layers is
            (B, M, N) for activations and (N, K) for weights, matching Eq. (1).
        dtype: element type used for byte accounting.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: DType = DType.FP16

    @property
    def num_elements(self) -> int:
        """Total number of elements in the tensor."""
        total = 1
        for dim in self.shape:
            total *= dim
        return total

    @property
    def num_bytes(self) -> int:
        """Size of the tensor in bytes."""
        return self.num_elements * self.dtype.value

    def split(self, axis: int, parts: int) -> "TensorSpec":
        """Return the spec of one shard after splitting ``axis`` into ``parts``.

        The paper's partitioners always split dimensions evenly; uneven splits
        round up so memory accounting stays conservative.
        """
        if not 0 <= axis < len(self.shape):
            raise ValueError(f"axis {axis} out of range for shape {self.shape}")
        if parts <= 0:
            raise ValueError(f"parts must be positive, got {parts}")
        new_shape = list(self.shape)
        new_shape[axis] = -(-new_shape[axis] // parts)
        return TensorSpec(self.name, tuple(new_shape), self.dtype)


@dataclass
class OperatorNode:
    """A node of the compute graph.

    Attributes:
        node_id: unique integer id within the graph.
        operator: the analytical operator model.
        layer_index: transformer layer this node belongs to (-1 for global
            nodes such as embeddings).
        block: coarse block label ("mha", "ffn", "norm", "embed", ...), used
            for reporting and for the graph partitioner.
        is_residual_target: whether a residual connection terminates here,
            which prevents the graph partitioner from cutting right before it.
    """

    node_id: int
    operator: Operator
    layer_index: int = -1
    block: str = ""
    is_residual_target: bool = False

    @property
    def name(self) -> str:
        """Readable node name used in reports."""
        return f"{self.operator.name}#{self.node_id}"


class ComputeGraph:
    """A DAG of operator nodes with tensor-dependency edges."""

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self._nodes: Dict[int, OperatorNode] = {}
        self._successors: Dict[int, List[int]] = {}
        self._predecessors: Dict[int, List[int]] = {}
        self._residual_edges: set = set()
        self._next_id = 0

    # Construction -----------------------------------------------------------

    def add_operator(
        self,
        operator: Operator,
        inputs: Sequence[int] = (),
        layer_index: int = -1,
        block: str = "",
        residual_from: Optional[int] = None,
    ) -> int:
        """Append an operator node fed by the nodes in ``inputs``.

        Args:
            operator: the operator model for the node.
            inputs: node ids whose outputs feed this node.
            layer_index: transformer layer index for reporting.
            block: coarse block label for reporting.
            residual_from: optional node id of a residual (skip) producer; the
                extra edge is recorded and flagged as a residual edge.

        Returns:
            The id of the newly-created node.
        """
        node_id = self._next_id
        self._next_id += 1
        node = OperatorNode(
            node_id=node_id,
            operator=operator,
            layer_index=layer_index,
            block=block,
            is_residual_target=residual_from is not None,
        )
        self._nodes[node_id] = node
        self._successors[node_id] = []
        self._predecessors[node_id] = []
        for source in inputs:
            self._add_edge(source, node_id)
        if residual_from is not None:
            self._add_edge(residual_from, node_id)
            self._residual_edges.add((residual_from, node_id))
        return node_id

    def _add_edge(self, src: int, dst: int) -> None:
        if src not in self._nodes:
            raise KeyError(f"source node {src} does not exist")
        if dst not in self._nodes:
            raise KeyError(f"destination node {dst} does not exist")
        if src == dst:
            raise ValueError("self-edges are not allowed in a compute graph")
        if dst not in self._successors[src]:
            self._successors[src].append(dst)
        if src not in self._predecessors[dst]:
            self._predecessors[dst].append(src)

    # Queries ----------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of operator nodes in the graph."""
        return len(self._nodes)

    def node(self, node_id: int) -> OperatorNode:
        """Return the node with ``node_id``."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"node {node_id} does not exist in graph {self.name}") from None

    def nodes(self) -> List[OperatorNode]:
        """All nodes in insertion (topological) order."""
        return [self._nodes[node_id] for node_id in sorted(self._nodes)]

    def operators(self) -> List[Operator]:
        """All operators in topological order."""
        return [node.operator for node in self.nodes()]

    def predecessors(self, node_id: int) -> List[int]:
        """Node ids whose outputs feed ``node_id``."""
        return list(self._predecessors[node_id])

    def edges(self) -> List[Tuple[int, int]]:
        """All (src, dst) dependency edges."""
        return [
            (src, dst)
            for src, dsts in self._successors.items()
            for dst in dsts
        ]

    def is_residual_edge(self, src: int, dst: int) -> bool:
        """Whether the (src, dst) edge carries a residual connection."""
        return (src, dst) in self._residual_edges

    def residual_edges(self) -> List[Tuple[int, int]]:
        """All residual (skip) edges."""
        return sorted(self._residual_edges)

    def topological_order(self) -> List[int]:
        """Kahn topological ordering of node ids."""
        in_degree = {node_id: len(self._predecessors[node_id]) for node_id in self._nodes}
        ready = sorted(node_id for node_id, deg in in_degree.items() if deg == 0)
        order: List[int] = []
        while ready:
            node_id = ready.pop(0)
            order.append(node_id)
            for successor in self._successors[node_id]:
                in_degree[successor] -= 1
                if in_degree[successor] == 0:
                    ready.append(successor)
            ready.sort()
        if len(order) != len(self._nodes):
            raise ValueError(f"graph {self.name} contains a cycle")
        return order

    # Aggregates ----------------------------------------------------------------

    def total_flops(self, include_backward: bool = True) -> float:
        """Sum of FLOPs across all operators (optionally including backward)."""
        total = 0.0
        for operator in self.operators():
            total += operator.forward_flops
            if include_backward:
                total += operator.backward_flops
        return total

    def total_activation_bytes(self) -> float:
        """Sum of forward activation bytes across all operators."""
        return sum(op.output_bytes for op in self.operators())

    def layers(self) -> List[int]:
        """Sorted list of layer indices present in the graph."""
        return sorted({node.layer_index for node in self.nodes() if node.layer_index >= 0})

    # Partitioning ---------------------------------------------------------------

    def partition_at_residual_boundaries(self) -> List[List[int]]:
        """Split the node sequence into segments with no internal residual edges.

        The DLS algorithm (Fig. 12(b)) first cuts the graph into sub-graphs
        that contain no residual connections so the dynamic program can treat
        each segment as a chain. A cut point is any position in the topological
        order that no residual edge spans.
        """
        order = self.topological_order()
        position = {node_id: index for index, node_id in enumerate(order)}
        spans = [
            (position[src], position[dst]) for src, dst in self._residual_edges
        ]
        segments: List[List[int]] = []
        current: List[int] = []
        for index, node_id in enumerate(order):
            current.append(node_id)
            boundary = index + 1
            crossed = any(start < boundary <= end for start, end in spans)
            if not crossed:
                segments.append(current)
                current = []
        if current:
            segments.append(current)
        return segments

    def __iter__(self) -> Iterator[OperatorNode]:
        return iter(self.nodes())

    def __len__(self) -> int:
        return self.num_nodes
