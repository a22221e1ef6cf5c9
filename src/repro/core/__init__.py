"""The TEMP framework: end-to-end partition-mapping co-optimisation.

* :mod:`repro.core.framework` — the single-wafer search over a scheme's
  candidate configurations (the scheme x mapping-engine grid of the paper's
  figures; TEMP is the ``temp`` scheme with the TCME engine) and the
  pinned-spec simulation.
* :mod:`repro.core.metrics` — normalisation and aggregation helpers for the
  figures (speedups, geometric means, breakdown tables).
* :mod:`repro.core.multiwafer` — pipeline scheduling across multiple wafers
  (Fig. 19).
* :mod:`repro.core.fault_tolerance` — the three-step fault-tolerance flow of
  Fig. 20 (localise/classify, re-balance partitions, re-route communication).
"""

from repro.core.framework import BaselineResult
from repro.core.metrics import geometric_mean, normalize_to, speedup
from repro.core.multiwafer import MultiWaferResult
from repro.core.fault_tolerance import FaultToleranceResult, evaluate_with_faults

__all__ = [
    "BaselineResult",
    "geometric_mean",
    "normalize_to",
    "speedup",
    "MultiWaferResult",
    "FaultToleranceResult",
    "evaluate_with_faults",
]
