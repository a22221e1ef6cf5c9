"""Fig. 21: accuracy of the DNN-based cost model.

500 test cases per category (operator computation, communication, overlapped
execution) are predicted by the DNN cost model and by a multivariate
linear-regression baseline; the figure reports the correlation and relative
error of each. The DNN reaches ~4-5% error at correlation > 0.98 while the
regression sits at 10-15% error, and a single DNN query takes microseconds —
the speedup that makes the DLWS search practical.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict

from repro.api.scenario import Scenario, SolverSpec
from repro.costmodel.dataset import generate_dataset
from repro.costmodel.dnn import MLPCostModel
from repro.costmodel.evaluation import ModelAccuracy, evaluate_model
from repro.costmodel.regression import LinearCostModel
from repro.runner.registry import register


def scenario_for_validation(train_samples: int, test_samples: int,
                            epochs: int, seed: int) -> Scenario:
    """The :class:`Scenario` of the cost-model validation cell.

    The study has no plan request of its own — it validates the predictors
    the solver uses — so the scenario contributes the deterministic seed
    (and round-trips through the registry serde test like every figure's).
    """
    return Scenario(solver=SolverSpec(seed=seed))


@dataclass
class CostModelStudy:
    """Accuracy of both cost models per category, plus query latency."""

    dnn_accuracy: Dict[str, ModelAccuracy] = field(default_factory=dict)
    regression_accuracy: Dict[str, ModelAccuracy] = field(default_factory=dict)
    dnn_query_seconds: float = 0.0
    training_samples: int = 0
    test_samples: int = 0

    def dnn_max_error(self) -> float:
        """Worst relative error of the DNN model across categories."""
        if not self.dnn_accuracy:
            return 0.0
        return max(acc.relative_error for acc in self.dnn_accuracy.values())

    def regression_max_error(self) -> float:
        """Worst relative error of the regression baseline across categories."""
        if not self.regression_accuracy:
            return 0.0
        return max(acc.relative_error for acc in self.regression_accuracy.values())

    def dnn_min_correlation(self) -> float:
        """Lowest correlation of the DNN model across categories."""
        if not self.dnn_accuracy:
            return 0.0
        return min(acc.correlation for acc in self.dnn_accuracy.values())


def run_cost_model_validation(
    train_samples_per_category: int = 400,
    test_samples_per_category: int = 500,
    epochs: int = 200,
    seed: int = 0,
) -> CostModelStudy:
    """Train both cost models and evaluate them on held-out samples."""
    train = generate_dataset(
        num_samples=train_samples_per_category, seed=seed)
    test = generate_dataset(
        num_samples=test_samples_per_category, seed=seed + 1)

    dnn = MLPCostModel(epochs=epochs, seed=seed).fit(train)
    regression = LinearCostModel().fit(train)

    start = time.perf_counter()
    dnn.predict(test[: min(100, len(test))])
    elapsed = time.perf_counter() - start
    per_query = elapsed / min(100, len(test))

    return CostModelStudy(
        dnn_accuracy=evaluate_model(dnn, test),
        regression_accuracy=evaluate_model(regression, test),
        dnn_query_seconds=per_query,
        training_samples=len(train),
        test_samples=len(test),
    )


@register(
    figure="fig21",
    paper="Fig. 21",
    title="Accuracy of the DNN cost model vs linear regression",
    default_grid=[{"train_samples": 400, "test_samples": 500, "epochs": 200,
                   "seed": 0}],
    reduced_grid=[{"train_samples": 60, "test_samples": 80, "epochs": 40,
                   "seed": 0}],
    schema=("train_samples", "test_samples", "epochs", "seed", "category",
            "predictor", "correlation", "relative_error"),
    entrypoints=("run_cost_model_validation",),
    description="Both cost models are trained and evaluated on held-out "
                "samples per category (computation / communication / "
                "overlap); one row per (category, predictor). The query "
                "latency is measured wall-clock and therefore kept out of "
                "the rows to preserve determinism.",
    scenario=scenario_for_validation,
)
def cost_model_cell(service, train_samples, test_samples, epochs, seed):
    """The single training/evaluation cell of Fig. 21."""
    scenario = scenario_for_validation(train_samples, test_samples, epochs,
                                       seed)
    study = run_cost_model_validation(
        train_samples_per_category=train_samples,
        test_samples_per_category=test_samples,
        epochs=epochs,
        seed=scenario.solver.seed,
    )
    rows = []
    for predictor, accuracies in (("dnn", study.dnn_accuracy),
                                  ("regression", study.regression_accuracy)):
        for category in sorted(accuracies):
            accuracy = accuracies[category]
            rows.append({
                "category": category,
                "predictor": predictor,
                "correlation": accuracy.correlation,
                "relative_error": accuracy.relative_error,
            })
    return rows
