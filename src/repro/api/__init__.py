"""The Scenario API: typed, serializable plan requests and the plan service.

Quick start::

    from repro.api import Scenario, WorkloadSpec, SolverSpec, PlanService

    scenario = Scenario(workload=WorkloadSpec(model="gpt3-6.7b"),
                        solver=SolverSpec(scheme="temp", engine="tcme"))
    result = PlanService().evaluate(scenario)
    print(result.spec, result.step_time, result.throughput)

Every entry point — the experiment cells, ``python -m repro plan``,
and the plan server — speaks this request/response shape. Scenario
*families* (model zoo x geometry x scheme grids) are described by
:class:`~repro.api.portfolio.Portfolio` and swept through the plan server's
portfolio engine (``repro sweep``).

The service classes are imported lazily (PEP 562): the scenario tree and the
result record (:mod:`repro.api.result`) have no dependency on
:mod:`repro.core`, so core modules may import ``repro.api.scenario`` and
``repro.api.result`` without a cycle.
"""

from repro.api.portfolio import (  # noqa: F401
    Portfolio,
    PortfolioAxis,
    PortfolioError,
    PortfolioPoint,
    portfolio_from_scenarios,
)
from repro.api.scenario import (  # noqa: F401
    SCHEMA_VERSION,
    HardwareSpec,
    Scenario,
    ScenarioError,
    SolverSpec,
    WorkloadSpec,
)

_SERVICE_EXPORTS = ("PlanService", "PlanResult", "SolverOutcome",
                    "RESULT_KINDS", "validate_result_payload")

__all__ = [
    "SCHEMA_VERSION",
    "HardwareSpec",
    "Portfolio",
    "PortfolioAxis",
    "PortfolioError",
    "PortfolioPoint",
    "Scenario",
    "ScenarioError",
    "SolverSpec",
    "WorkloadSpec",
    "portfolio_from_scenarios",
    *_SERVICE_EXPORTS,
]


def __getattr__(name):
    """Lazily expose the service layer (avoids a repro.core import cycle)."""
    if name in _SERVICE_EXPORTS:
        from repro.api import service
        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
