"""Set-up probe: import a workload's entry points and generate its inputs.

Usage: ``python3 perfbench/probe.py WORKLOAD SEED``. The benchmark times
this in a fresh interpreter several times per run; the median is the import
and input-generation part of ``setup_s`` (what a user pays before the first
answer).
"""

from __future__ import annotations

import importlib
import sys

#: Modules each workload's runner calls into, beyond the input generators.
ENTRY_MODULES = {
    "search_sweep": ("repro.server.portfolio",),
    "dlws_solve": ("repro.api.service",),
    "serve_fabrics": ("repro.server.client",),
}


def main(argv) -> int:
    workload, seed = argv
    import inputs

    for module in ENTRY_MODULES[workload]:
        importlib.import_module(module)
    inputs.GENERATORS[workload](int(seed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
