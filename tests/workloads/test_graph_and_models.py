"""Tests for the compute-graph IR, the transformer builder, and the model zoo."""

import pytest

from repro.workloads.graph import ComputeGraph, TensorSpec
from repro.workloads.models import (
    MODEL_ZOO,
    MULTI_WAFER_MODELS,
    TABLE_II_MODELS,
    get_model,
    list_models,
)
from repro.workloads.operators import DType, Elementwise, Linear
from repro.workloads.training import MemoryFootprint, TrainingStep
from repro.workloads.transformer import (
    build_model_graph,
    build_transformer_block,
    representative_layer_graph,
)


class TestTensorSpec:
    def test_bytes(self):
        spec = TensorSpec("act", (2, 4, 8), DType.FP16)
        assert spec.num_elements == 64
        assert spec.num_bytes == 128

    def test_split_divides_axis(self):
        spec = TensorSpec("act", (2, 8, 8))
        shard = spec.split(axis=1, parts=4)
        assert shard.shape == (2, 2, 8)

    def test_uneven_split_rounds_up(self):
        spec = TensorSpec("act", (7,))
        assert spec.split(0, 2).shape == (4,)

    def test_invalid_split(self):
        spec = TensorSpec("act", (4,))
        with pytest.raises(ValueError):
            spec.split(2, 2)
        with pytest.raises(ValueError):
            spec.split(0, 0)


class TestComputeGraph:
    def _chain(self, length=3):
        graph = ComputeGraph("chain")
        previous = None
        for index in range(length):
            op = Linear(f"fc{index}", 1, 4, 8, 8)
            previous = graph.add_operator(
                op, inputs=[previous] if previous is not None else [])
        return graph

    def test_chain_construction(self):
        graph = self._chain(3)
        assert graph.num_nodes == 3
        assert len(graph.edges()) == 2
        assert graph.topological_order() == [0, 1, 2]

    def test_predecessors(self):
        graph = self._chain(3)
        assert graph.predecessors(2) == [1]

    def test_missing_node_raises(self):
        graph = self._chain(2)
        with pytest.raises(KeyError):
            graph.node(99)

    def test_self_edge_rejected(self):
        graph = ComputeGraph()
        node = graph.add_operator(Linear("fc", 1, 1, 2, 2))
        with pytest.raises(KeyError):
            graph.add_operator(Linear("fc2", 1, 1, 2, 2), inputs=[99])
        with pytest.raises(ValueError):
            graph._add_edge(node, node)

    def test_residual_edges_tracked(self):
        graph = ComputeGraph()
        a = graph.add_operator(Elementwise("a", 1, 2, 4))
        b = graph.add_operator(Elementwise("b", 1, 2, 4), inputs=[a])
        c = graph.add_operator(Elementwise("c", 1, 2, 4), inputs=[b],
                               residual_from=a)
        assert graph.is_residual_edge(a, c)
        assert not graph.is_residual_edge(a, b)
        assert graph.residual_edges() == [(a, c)]

    def test_partition_respects_residual_spans(self):
        graph = ComputeGraph()
        a = graph.add_operator(Elementwise("a", 1, 2, 4))
        b = graph.add_operator(Elementwise("b", 1, 2, 4), inputs=[a])
        c = graph.add_operator(Elementwise("c", 1, 2, 4), inputs=[b],
                               residual_from=a)
        d = graph.add_operator(Elementwise("d", 1, 2, 4), inputs=[c])
        segments = graph.partition_at_residual_boundaries()
        # No cut may fall strictly between a and c.
        assert [a, b, c] in segments or [a, b, c, d] in segments

    def test_totals_accumulate(self):
        graph = self._chain(2)
        assert graph.total_flops() > 0
        assert graph.total_activation_bytes() > 0


class TestTransformerBuilder:
    def test_block_has_thirteen_operators(self, tiny_model):
        graph = ComputeGraph()
        build_transformer_block(graph, tiny_model, 0)
        assert graph.num_nodes == 12  # 13 ops incl. embedding handled outside
        blocks = {node.block for node in graph.nodes()}
        assert blocks == {"mha", "ffn"}

    def test_full_model_graph_scales_with_layers(self, tiny_model):
        one = build_model_graph(tiny_model, num_layers=1)
        two = build_model_graph(tiny_model, num_layers=2)
        assert two.num_nodes == 2 * (one.num_nodes - 1) + 1  # shared embedding

    def test_graph_is_acyclic_and_residuals_present(self, tiny_model):
        graph = build_model_graph(tiny_model)
        order = graph.topological_order()
        assert len(order) == graph.num_nodes
        assert len(graph.residual_edges()) == 2 * len(graph.layers())

    def test_representative_layer_graph_has_no_embedding(self, tiny_model):
        graph = representative_layer_graph(tiny_model)
        assert all(node.block != "embed" for node in graph.nodes())

    def test_invalid_layer_count(self, tiny_model):
        with pytest.raises(ValueError):
            build_model_graph(tiny_model, num_layers=0)

    def test_gated_ffn_has_wider_fc1(self):
        gated = get_model("llama2-7b").with_overrides(num_layers=1, batch_size=1,
                                                      seq_length=128)
        graph = build_model_graph(gated, include_embedding=False)
        fc1 = next(node.operator for node in graph.nodes()
                   if node.operator.name.endswith("fc1"))
        assert fc1.dim("K") == 2 * gated.ffn_hidden_size


class TestModelZoo:
    def test_table_ii_models_present(self):
        for name in TABLE_II_MODELS:
            assert name in MODEL_ZOO

    def test_multiwafer_models_present(self):
        for name in MULTI_WAFER_MODELS:
            assert name in MODEL_ZOO

    def test_unknown_model_raises_with_suggestions(self):
        with pytest.raises(KeyError, match="available"):
            get_model("gpt5")

    def test_list_models_sorted(self):
        names = list_models()
        assert names == sorted(names)

    @pytest.mark.parametrize("name,expected_billion", [
        ("gpt3-6.7b", 6.7), ("llama2-7b", 7), ("llama3-70b", 70),
        ("gpt3-76b", 76), ("gpt3-175b", 175), ("opt-175b", 175),
    ])
    def test_parameter_counts_close_to_names(self, name, expected_billion):
        model = get_model(name)
        billions = model.num_parameters / 1e9
        assert billions == pytest.approx(expected_billion, rel=0.25)

    def test_table_ii_hyperparameters(self):
        gpt76 = get_model("gpt3-76b")
        assert gpt76.num_heads == 80
        assert gpt76.hidden_size == 10240
        assert gpt76.num_layers == 60
        assert gpt76.seq_length == 2048
        assert gpt76.batch_size == 128

    def test_with_overrides_does_not_mutate(self):
        base = get_model("gpt3-6.7b")
        changed = base.with_overrides(seq_length=16384)
        assert base.seq_length == 2048
        assert changed.seq_length == 16384

    def test_training_flops_follow_6pd_rule(self):
        model = get_model("gpt3-6.7b")
        expected = 6 * model.num_parameters * model.tokens_per_batch
        assert model.training_flops_per_step() == pytest.approx(expected)


class TestTrainingStep:
    def test_footprint_components(self, gpt3_6b):
        step = TrainingStep.from_model(gpt3_6b)
        footprint = step.replicated_footprint()
        assert footprint.weights == pytest.approx(gpt3_6b.num_parameters * 2)
        assert footprint.optimizer == pytest.approx(gpt3_6b.num_parameters * 8)
        assert footprint.total == pytest.approx(
            footprint.weights + footprint.gradients + footprint.optimizer
            + footprint.activations)

    def test_checkpointing_reduces_activations_and_adds_flops(self, gpt3_6b):
        plain = TrainingStep.from_model(gpt3_6b)
        checkpointed = TrainingStep.from_model(gpt3_6b,
                                               activation_checkpointing=True)
        assert checkpointed.activation_bytes < plain.activation_bytes
        assert checkpointed.flops > plain.flops

    def test_graph_based_step_scales_to_full_depth(self, gpt3_6b):
        graph = build_model_graph(gpt3_6b, num_layers=1)
        step = TrainingStep.from_model(gpt3_6b, graph=graph)
        closed_form = TrainingStep.from_model(gpt3_6b)
        assert step.flops == pytest.approx(closed_form.flops, rel=0.5)

    def test_memory_footprint_scaled(self):
        footprint = MemoryFootprint(10, 20, 30, 40)
        half = footprint.scaled(0.5)
        assert half.total == pytest.approx(50)
        assert half.as_dict()["weights"] == 5
