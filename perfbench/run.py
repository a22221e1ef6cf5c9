#!/usr/bin/env python3
"""The repository benchmark: three planner workloads, end to end and by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload search_sweep --seed 1 --seconds 20 --trace 0

Workloads (generators in ``inputs.py``, runners in ``runners.py``):

* ``search_sweep`` — "sweep this design space": the full Fig. 13 and Fig. 19
  grids through ``run_portfolio_local(jobs=1)``, cold caches per sweep.
* ``dlws_solve`` — "search the best plan for this model": ``PlanService.solve``
  (default DLWS) over the Table II models.
* ``serve_fabrics`` — "answer this pinned what-if now": a ``repro serve``
  subprocess driven by two closed-loop clients over a Zipf-popular pool of
  pinned-spec scenarios on all five fabrics.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
inputs untraced and then with the layer wrappers of ``layers.py`` installed,
and prints the per-layer metrics. A readable report goes first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Runs that cannot complete exit
non-zero without that line.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("search_sweep", "dlws_solve", "serve_fabrics")


def _terminate(signum, frame) -> None:
    # Unwind through every finally block so child servers are stopped.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: no repro sources at {SRC}; run from the "
                         f"root of a full checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, _terminate)

    import runners
    from plan_server import ServerError

    try:
        run = runners.RUNNERS[args.workload](args.seed, args.seconds,
                                             bool(args.trace))
    except (runners.BenchError, ServerError, OSError) as error:
        sys.stderr.write(f"error: {args.workload}: {error}\n")
        return 1

    units = runners.PER_LAYER_UNITS if args.trace else runners.END_TO_END_UNITS
    wall = run.metrics.get("trace_wall_s")
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for name, unit in units.items():
        value = run.metrics[name]
        share = (f"  {100.0 * value / wall:6.2f}% of traced wall"
                 if wall and name in runners.PARTITION else "")
        print(f"  {name:<26} {value:>14.6g} {unit}{share}")
    print(f"  {'failed_share':<26} {run.failed / max(run.attempted, 1):>14.6g}"
          f" ({run.failed} of {run.attempted} answers)")
    for note in run.notes:
        print(f"  {note}")
    for problem in run.problems:
        print(f"  FAILED CHECK: {problem}")
    print(json.dumps({
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": run.metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
