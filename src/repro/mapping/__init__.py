"""Mapping engines: placing parallel groups onto dies and routing their traffic.

* :mod:`repro.mapping.routing` — flow objects and path computation on the mesh.
* :mod:`repro.mapping.collectives` — expanding a communication task over a
  concrete die group into link-level flows (ring collectives, P2P chains,
  TATP neighbour streams), memoised per topology as the task's link
  incidence.
* :mod:`repro.mapping.contention` — link-load accounting (from flows, or as
  arrays from link incidences) and bottleneck identification.
* :mod:`repro.mapping.engines` — the three mapping engines of the evaluation:
  SMap (fixed-order sequential mapper), GMap (Gemini-style mapper with
  variable ordering but no contention awareness), and TCME (the paper's
  traffic-conscious mapping engine with the five-phase communication
  optimizer).
* :mod:`repro.mapping.optimizer` — the five-phase traffic-conscious
  communication optimizer used by TCME (Fig. 11).
"""

from repro.mapping.routing import Flow
from repro.mapping.contention import LinkLoadMap
from repro.mapping.engines import (
    GMapEngine,
    MappingEngine,
    MappingResult,
    ScatteredEngine,
    SMapEngine,
    TCMEEngine,
    TaskRouting,
    get_engine,
)
from repro.mapping.optimizer import TrafficOptimizer, OptimizationReport

__all__ = [
    "Flow",
    "LinkLoadMap",
    "GMapEngine",
    "MappingEngine",
    "MappingResult",
    "ScatteredEngine",
    "SMapEngine",
    "TCMEEngine",
    "TaskRouting",
    "get_engine",
    "TrafficOptimizer",
    "OptimizationReport",
]
