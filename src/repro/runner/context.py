"""Per-worker execution context shared by every cell a worker runs.

The orchestrator creates one :class:`RunContext` per worker (one total in
serial mode) and passes it to every cell. The context owns the shared
:class:`~repro.api.service.PlanService` (and through it the shared
:class:`~repro.costmodel.tables.PlanCache`) — the contract pinned by the
serial-vs-parallel parity test is that the cache is a pure memoisation layer:
a cell must produce bit-identical rows whether its plans come from a cold or
a warm cache, so sharding cells across workers (each with its own cache)
cannot change any result.
"""

from __future__ import annotations

from typing import Optional

from repro.costmodel.tables import PlanCache


class RunContext:
    """Shared state handed to every cell of a worker.

    Attributes:
        plan_cache: memoised ``analyze_model`` shared across the worker's
            cells (owned by the worker's :class:`PlanService`).
        reduced: whether the run uses the reduced grids (informational).
    """

    def __init__(
        self,
        plan_cache: Optional[PlanCache] = None,
        reduced: bool = False,
    ) -> None:
        # PlanCache has __len__: `or` would discard an empty shared cache.
        self.plan_cache = plan_cache if plan_cache is not None else PlanCache()
        self.reduced = reduced
        self._service = None

    @property
    def service(self):
        """The worker's :class:`~repro.api.service.PlanService`.

        Built once per worker around the shared plan cache, so every
        scenario the worker's cells evaluate reuses the same memoised
        execution plans and resolved wafers.
        """
        if self._service is None:
            from repro.api.service import PlanService
            self._service = PlanService(plan_cache=self.plan_cache)
        return self._service
