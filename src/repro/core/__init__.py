"""The TEMP framework: end-to-end partition-mapping co-optimisation.

The four wafer paths :meth:`repro.api.PlanService.evaluate` picks from share
one signature, ``(scenario, plan_cache, wafer, config)``, and each builds the
scenario's :class:`~repro.api.result.PlanResult` itself:

* :mod:`repro.core.framework` — the single-wafer search over a scheme's
  candidate configurations (the scheme x mapping-engine grid of the paper's
  figures; TEMP is the ``temp`` scheme with the TCME engine) and the
  pinned-spec simulation.
* :mod:`repro.core.multiwafer` — pipeline scheduling across multiple wafers
  (Fig. 19).
* :mod:`repro.core.fault_tolerance` — the three-step fault-tolerance flow of
  Fig. 20 (localise/classify, re-balance partitions, re-route communication).

The core modules import :mod:`repro.api.scenario` and
:mod:`repro.api.result` only, never the service that dispatches to them.
"""
