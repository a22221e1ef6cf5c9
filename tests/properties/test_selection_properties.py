"""Property tests of the one candidate-selection routine.

:func:`~repro.solver.search_space.select_fastest` decides OOM from each
plan's memory footprint and evaluates only the candidates that can be
reported. Hypothesis generates candidate lists with footprints on both sides
of the HBM capacity (exactly at it too), step times with ties, all-OOM lists
and the empty list, and checks the routine against a reference that
evaluates every candidate first and then picks.
"""

from types import SimpleNamespace
from typing import NamedTuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hardware.config import default_wafer_config
from repro.simulation.memory import fits_in_memory, memory_pressure
from repro.solver.search_space import select_fastest

FAST = settings(max_examples=200, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

DIE = default_wafer_config().die
CAPACITY = DIE.hbm.capacity

#: Footprints as shares of the capacity: repeated values force ties in
#: memory pressure, and 1.0 sits exactly on the capacity (which fits).
SHARES = st.one_of(st.sampled_from([0.5, 0.9, 1.0, 1.1, 1.5, 2.0]),
                   st.floats(0.05, 3.0))
FITTING_SHARES = st.one_of(st.just(1.0), st.floats(0.05, 1.0))
OOM_SHARES = st.floats(1.01, 3.0)

#: Few distinct step times, so ties among fitting candidates are common.
STEP_TIMES = st.integers(1, 4).map(float)


class Result(NamedTuple):
    """What a search's ``evaluate`` returns, reduced to what selection reads."""

    plan_id: int
    step_time: float
    oom: bool
    memory_pressure: float


def _plan(plan_id: int, share: float, step_time: float) -> SimpleNamespace:
    return SimpleNamespace(plan_id=plan_id, step_time=step_time,
                           memory=SimpleNamespace(total=share * CAPACITY))


def _evaluate(plan) -> Result:
    return Result(plan.plan_id, plan.step_time,
                  not fits_in_memory(plan.memory, DIE),
                  memory_pressure(plan.memory, DIE))


def _evaluate_everything(candidates):
    """Map-everything reference: evaluate all, then pick (ties keep first)."""
    reports = [(spec, _evaluate(plan)) for spec, plan in candidates]
    fitting = [(spec, report) for spec, report in reports if not report.oom]
    if fitting:
        spec, report = min(fitting, key=lambda item: item[1].step_time)
        return spec, report, False
    if reports:
        spec, report = min(reports, key=lambda item: item[1].memory_pressure)
        return spec, report, True
    return None, None, True


def _candidates(shares: st.SearchStrategy) -> st.SearchStrategy:
    rows = st.lists(st.tuples(shares, STEP_TIMES), max_size=12)
    return rows.map(lambda items: [
        (f"spec{index}", _plan(index, share, step_time))
        for index, (share, step_time) in enumerate(items)])


CANDIDATE_LISTS = st.one_of(_candidates(SHARES), _candidates(OOM_SHARES),
                            _candidates(FITTING_SHARES))


@FAST
@given(CANDIDATE_LISTS)
def test_lazy_selection_matches_evaluating_everything(candidates):
    evaluated = []

    def evaluate(plan):
        evaluated.append(plan.plan_id)
        return _evaluate(plan)

    chosen = select_fastest(candidates, DIE, evaluate)
    assert chosen == _evaluate_everything(candidates)

    fitting = [plan.plan_id for _, plan in candidates
               if fits_in_memory(plan.memory, DIE)]
    spec, result, oom = chosen
    if fitting:
        # Every candidate that fits is evaluated once, nothing else is.
        assert evaluated == fitting
    elif candidates:
        # Nothing fits: only the reported fallback is evaluated.
        assert oom and evaluated == [result.plan_id]
    else:
        assert evaluated == [] and (spec, result, oom) == (None, None, True)

