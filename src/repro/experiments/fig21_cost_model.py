"""Fig. 21: accuracy of the DNN-based cost model.

500 test cases per category (operator computation, communication, overlapped
execution) are predicted by the DNN cost model and by a multivariate
linear-regression baseline; the figure reports the correlation and relative
error of each. The DNN reaches ~4-5% error at correlation > 0.98 while the
regression sits at 10-15% error, and a single DNN query takes microseconds —
the speedup that makes the DLWS search practical.
"""

from __future__ import annotations

from repro.api.scenario import Scenario, SolverSpec
from repro.costmodel.dataset import generate_dataset
from repro.costmodel.dnn import MLPCostModel
from repro.costmodel.evaluation import evaluate_model
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
    description="Both cost models are trained and evaluated on held-out "
                "samples per category (computation / communication / "
                "overlap); one row per (category, predictor). The DNN's "
                "query latency is a wall-clock measurement, so it is kept "
                "out of the rows to preserve determinism; "
                "benchmarks/test_fig21_cost_model.py times it.",
    scenario=scenario_for_validation,
)
def cost_model_cell(service, train_samples, test_samples, epochs, seed):
    """The single training/evaluation cell of Fig. 21: both cost models
    trained on ``train_samples`` per category and evaluated on
    ``test_samples`` held-out ones."""
    seed = scenario_for_validation(train_samples, test_samples, epochs,
                                   seed).solver.seed
    train = generate_dataset(num_samples=train_samples, seed=seed)
    test = generate_dataset(num_samples=test_samples, seed=seed + 1)
    predictors = (("dnn", MLPCostModel(epochs=epochs, seed=seed).fit(train)),
                  ("regression", LinearCostModel().fit(train)))
    rows = []
    for predictor, model in predictors:
        accuracies = evaluate_model(model, test)
        for category in sorted(accuracies):
            rows.append({
                "category": category,
                "predictor": predictor,
                "correlation": accuracies[category].correlation,
                "relative_error": accuracies[category].relative_error,
            })
    return rows
