"""The functions the repo benchmark wraps stay where it looks them up.

``perfbench/layers.py`` patches named functions at their callers' module
globals and class attributes. A target that moves only shows up as a note in
the benchmark's report, so this test installs the benchmark's tracer and
fails on any target it cannot find. The benchmark's files are only read.
"""

import types
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[2] / "perfbench" / "layers.py"


def _load_layers() -> types.ModuleType:
    # Executed from its source, so no bytecode cache is written beside it.
    module = types.ModuleType("perfbench_layers")
    exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), module.__dict__)
    return module


def test_every_layer_target_is_found():
    tracer = _load_layers().LayerTracer().install()
    try:
        assert tracer.missing == []
    finally:
        tracer.remove()
