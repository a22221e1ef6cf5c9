"""Seeded input generators of the three benchmark workloads.

Every generator is a pure function of the seed: the same seed yields the
same scenarios (and, for ``serve_fabrics``, the same request sequence), so a
workload can be replayed on two commits and compared. The program under test
only ever sees the generated scenarios.

* ``search_sweep`` — the full Fig. 13 grid (Table II models x 7 systems) and
  the full Fig. 19 multi-wafer grid, each point with a seeded
  ``workload.seq_length``.
* ``dlws_solve`` — dual-level-solver requests over the Table II models and
  two pipeline-degree sets, each with a seeded ``workload.seq_length``, in
  seeded order.
* ``serve_fabrics`` — a pool of evaluation-distinct pinned-spec scenarios over
  every fabric family in seeded popularity order, and the Zipf-distributed
  request sequence drawn from it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace
from typing import Dict, List, Tuple

from repro.api.portfolio import Portfolio, portfolio_from_scenarios
from repro.api.scenario import HardwareSpec, Scenario, SolverSpec, WorkloadSpec
from repro.experiments.fabric_zoo import FABRICS
from repro.experiments.fig13_overall import SYSTEMS, scenario_for_system
from repro.experiments.fig19_multiwafer import (
    MULTI_WAFER_GRID,
    scenario_for_multiwafer,
)
from repro.workloads.models import MULTI_WAFER_MODELS, TABLE_II_MODELS

#: Sequence lengths a sweep point or a solve may draw.
#: Every grid point evaluates without error at each of them, and the set of
#: OOM grid points is the same at each, so the seed moves the answers but
#: not which of them count towards ``sim_tokens_per_s``.
SEQ_LENGTHS = (1024, 2048, 4096)

#: Pipeline-degree sets of the solve workload and how many requests per
#: model search each: the single-wafer default once, the pipelined space
#: (twice the candidates, cheaper finalists) twice. The two sets take
#: clearly different times to solve; an uneven mix keeps the median latency
#: inside one of the two clusters instead of in the gap between them, where
#: it would jump from run to run.
SOLVE_PIPELINE_DEGREES = {(1,): 1, (1, 2, 4): 2}

#: Pinned parallelisations of the serving pool, per model. Each uses all 32
#: dies of the default 4x8 wafer and mixes TP rings with TATP streams, so
#: every fabric's routing and hop model shows in the evaluation.
SERVE_SPECS: Dict[str, Tuple[Dict[str, int], ...]] = {
    "gpt3-6.7b": ({"dp": 4, "tp": 8}, {"dp": 8, "tp": 4},
                  {"dp": 2, "tatp": 16}, {"dp": 4, "tatp": 8}),
    "llama2-7b": ({"dp": 4, "tp": 8}, {"dp": 8, "tp": 4},
                  {"dp": 2, "tatp": 16}, {"dp": 4, "tatp": 8}),
    "llama3-70b": ({"tp": 32}, {"dp": 2, "tp": 16},
                   {"tatp": 32}, {"dp": 2, "tatp": 16}),
}

#: Sequence lengths a served scenario may draw (none of the pinned specs
#: runs out of memory at any of them on any fabric).
SERVE_SEQ_LENGTHS = (1024, 1536, 2048, 3072, 4096)

#: Zipf exponent of request popularity over the ranked pool.
ZIPF_EXPONENT = 1.0


def sweep_scenarios(seed: int) -> List[Scenario]:
    """The 70 grid points of ``search_sweep`` (Fig. 13 then Fig. 19)."""
    rng = random.Random(f"search_sweep:{seed}")
    grid = [scenario_for_system(model, system)
            for model in TABLE_II_MODELS for system in SYSTEMS]
    grid += [scenario_for_multiwafer(model, label)
             for model in MULTI_WAFER_MODELS
             for _, _, label in MULTI_WAFER_GRID]
    return [_with_seq_length(scenario, rng.choice(SEQ_LENGTHS))
            for scenario in grid]


def sweep_portfolio(seed: int) -> Portfolio:
    """``search_sweep``'s grid as the portfolio ``repro sweep`` would run."""
    return portfolio_from_scenarios("perfbench-search-sweep",
                                    sweep_scenarios(seed))


def solve_scenarios(seed: int) -> List[Scenario]:
    """The 18 solve requests of ``dlws_solve``, in seeded order.

    Per Table II model: each pipeline-degree set of
    :data:`SOLVE_PIPELINE_DEGREES` with as many distinct seeded sequence
    lengths as it has requests.
    """
    rng = random.Random(f"dlws_solve:{seed}")
    scenarios = [
        Scenario(workload=WorkloadSpec(model=model, seq_length=seq_length),
                 solver=SolverSpec(pipeline_degrees=degrees))
        for model in TABLE_II_MODELS
        for degrees, count in SOLVE_PIPELINE_DEGREES.items()
        for seq_length in rng.sample(SEQ_LENGTHS, count)]
    rng.shuffle(scenarios)
    return scenarios


def serve_pool(seed: int) -> List[Scenario]:
    """The serving pool in seeded popularity order, most popular first.

    Every (model, fabric, pinned spec) combination appears with three
    distinct sequence lengths drawn from :data:`SERVE_SEQ_LENGTHS`, so the
    seed moves both the pool's contents and which scenarios are popular.
    """
    rng = random.Random(f"serve_fabrics:{seed}")
    pool = [_pinned(model, fabric, spec, seq_length)
            for model, fabric in itertools.product(SERVE_SPECS, FABRICS)
            for spec in SERVE_SPECS[model]
            for seq_length in sorted(rng.sample(SERVE_SEQ_LENGTHS, 3))]
    rng.shuffle(pool)
    return pool


class RequestSequence:
    """The endless seeded request stream of ``serve_fabrics``.

    Request ``i`` is the same pool scenario for a given seed no matter which
    client sends it or how fast the server answers; the stream is extended
    lazily in fixed-size blocks from one seeded generator.
    """

    BLOCK = 4096

    def __init__(self, seed: int) -> None:
        self.pool = serve_pool(seed)
        self.documents = [scenario.to_dict() for scenario in self.pool]
        self.fabrics = [_fabric_label(scenario) for scenario in self.pool]
        self._weights = list(itertools.accumulate(
            1.0 / (rank + 1) ** ZIPF_EXPONENT
            for rank in range(len(self.pool))))
        self._rng = random.Random(f"serve_fabrics:requests:{seed}")
        self._ranks: List[int] = []

    def rank(self, index: int) -> int:
        """Pool rank of request ``index``."""
        while index >= len(self._ranks):
            self._ranks.extend(self._rng.choices(
                range(len(self.pool)), cum_weights=self._weights,
                k=self.BLOCK))
        return self._ranks[index]


def _with_seq_length(scenario: Scenario, seq_length: int) -> Scenario:
    return replace(scenario,
                   workload=replace(scenario.workload, seq_length=seq_length))


def _pinned(model: str, fabric: str, spec: Dict[str, int],
            seq_length: int) -> Scenario:
    return Scenario(
        workload=WorkloadSpec(model=model, seq_length=seq_length),
        hardware=HardwareSpec(topology=FABRICS[fabric]),
        solver=SolverSpec(scheme="temp", engine="tcme", fixed_spec=dict(spec)),
    )


def _fabric_label(scenario: Scenario) -> str:
    topology = scenario.hardware.topology
    return "mesh" if topology is None else str(topology["name"])


#: Input generator of each workload (what the set-up probe times).
GENERATORS = {
    "search_sweep": sweep_portfolio,
    "dlws_solve": solve_scenarios,
    "serve_fabrics": RequestSequence,
}
