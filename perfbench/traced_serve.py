"""``repro serve`` with the per-layer wrappers installed (traced runs only).

Usage: ``python3 perfbench/traced_serve.py OUT.json serve [serve options]``.
Installs :class:`layers.LayerTracer` over the repo's layer functions, runs
the ``repro`` command line, and on shutdown (SIGINT) writes the tracer's
totals to ``OUT.json`` for the benchmark to read.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from layers import LayerTracer


def main(argv) -> int:
    out_path, *cli_args = argv
    from repro.runner.cli import main as repro_main

    tracer = LayerTracer().install()
    try:
        return repro_main(cli_args)
    finally:
        tracer.remove()
        Path(out_path).write_text(json.dumps(tracer.snapshot()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
