"""The benchmark wraps loopflow callables by name.

bench/tracer.py is read here, never installed or edited: every callable
it lists must still resolve to a loopflow function or class method, and
the frame cache it sizes must still be a dict, or `bench/run.py --trace 1`
fails at install.  bench/rep.py's sweep body rebinds module functions
(`_capture(module, "name", ...)`) to time each r-point; those must
resolve too.
"""

import importlib
import re
from pathlib import Path

from loopflow import spectral

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACER = BENCH / "tracer.py"


def test_tracer_layers_resolve_in_loopflow():
    namespace = {"__name__": "bench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    for layer, names in namespace["LAYERS"].items():
        home = importlib.import_module(f"loopflow.{layer}")
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                target = vars(getattr(home, cls_name)).get(meth)
            else:
                target = getattr(home, name, None)
            assert callable(target), f"loopflow.{layer}.{name} no longer resolves"
    assert isinstance(spectral._FRAME_CACHE, dict)


def test_rep_capture_hooks_resolve_in_loopflow():
    # rep.py binds each module as sys.modules["loopflow.<name>"] under
    # that name, so the first argument of _capture names the module
    hooks = re.findall(r'_capture\((\w+), "(\w+)"', (BENCH / "rep.py").read_text())
    assert ("cli", "orbit_sweep") in hooks and ("minimax", "_sweep_task") in hooks
    for module, name in hooks:
        target = getattr(importlib.import_module(f"loopflow.{module}"), name, None)
        assert callable(target), f"loopflow.{module}.{name} no longer resolves"
