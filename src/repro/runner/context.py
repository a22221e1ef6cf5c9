"""Execution context shared by every cell of a computed figure.

:func:`repro.runner.orchestrator.run_all` creates one :class:`RunContext`
per run and passes it to every computed figure's cells. The context owns
the shared :class:`~repro.api.service.PlanService` (and through it the
shared :class:`~repro.costmodel.tables.PlanCache`). The cache is a pure
memoisation layer: a cell produces bit-identical rows whether its plans
come from a cold or a warm cache.
"""

from __future__ import annotations


class RunContext:
    """Shared state handed to every cell of a computed figure.

    Args:
        service: the :class:`~repro.api.service.PlanService` to share;
            a private one is built on first use when ``None``.
        reduced: whether the run uses the reduced grids (informational).
    """

    def __init__(self, service=None, reduced: bool = False) -> None:
        self._service = service
        self.reduced = reduced

    @property
    def service(self):
        """The shared :class:`~repro.api.service.PlanService`.

        Every scenario the cells evaluate reuses its memoised execution
        plans and resolved wafers.
        """
        if self._service is None:
            from repro.api.service import PlanService
            self._service = PlanService()
        return self._service
