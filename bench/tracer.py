"""Per-layer tracing of loopflow from outside the package.

The tracer wraps the module-level functions and methods of each layer.
No package file is edited: ``from .action import gradient`` copies the
binding into the importing module, so every ``loopflow`` module
namespace holding a traced function is patched, and methods are patched
on their class.  Each wrapped call is a span: its duration, and the part
of it spent in wrapped callees, give total and self time; the span stack
gives parent-aware call counts.  Counters are read from return values
(``AscentResult``, ``CriticalSearch``, ``FlowTrajectory``, the sweep
records) and from module state (``len(spectral._FRAME_CACHE)``).
Spans are kept in memory and only in the process that installed the
tracer: pool workers of ``minimax.orbit_sweep`` are not traced.
"""

import functools
import importlib
import os
import pickle
import sys
import time
from collections import Counter

# layer (loopflow module) -> traced callables, as "name" or "Class.method"
LAYERS = {
    "cli": ("main",),
    "manifest": ("write_csv", "write_json"),
    "minimax": ("orbit_sweep", "minimax_theta", "fiber_sup", "refine_critical"),
    "flow": ("flow", "flow_to_critical", "flow_velocity", "ps_diagnostics",
             "representation_coefficients"),
    "action": ("action", "gradient", "perturb", "gradient_norm"),
    "hamiltonian": ("radial_H", "smoothstep"),
    "spectral": ("frame_of", "SpectralFrame.coefficients", "SpectralFrame.samples",
                 "SpectralFrame.basis_samples"),
    "geometry": ("LoopPath.content_key", "LoopPath.velocity_samples"),
    "fourier": ("synthesize", "analyze"),
}

# callables that also report their total (inclusive) time
WITH_TOTAL = ("cli.main", "minimax.fiber_sup", "minimax.refine_critical",
              "flow.flow_to_critical")

CALLABLES = tuple(f"{layer}.{name}" for layer, names in LAYERS.items() for name in names)

# name -> unit of every metric `metrics` returns
METRIC_UNITS = {}
for _key in CALLABLES:
    METRIC_UNITS[f"{_key}.calls"] = "count"
    METRIC_UNITS[f"{_key}.self_s"] = "s"
    if _key in WITH_TOTAL:
        METRIC_UNITS[f"{_key}.total_s"] = "s"
for _layer in LAYERS:
    METRIC_UNITS[f"layer.{_layer}.self_s"] = "s"
METRIC_UNITS.update({
    "manifest.bytes_written": "bytes",
    "minimax.fiber_sup.retries": "count",
    "minimax.fiber_sup.converged_ratio": "ratio",
    "minimax.fiber_sup.evals_per_call": "1/call",
    "minimax.refine_critical.gradient_calls": "count",
    "minimax.pool_record_bytes": "bytes",
    "flow.steps_accepted": "count",
    "flow.velocity_per_step": "1/step",
    "spectral.frame_of.misses": "count",
    "spectral.frame_of.hit_ratio": "ratio",
    "spectral.frame_cache_entries": "count",
    "fourier.bytes_computed": "bytes",
})


def _nbytes(*arrays):
    return sum(getattr(a, "nbytes", 0) for a in arrays)


def _family_loops(result, args, kwargs):
    family = args[0] if args else kwargs["family"]
    return {"family_loops": len(family)}


def _ascent_results(result, args, kwargs):
    return {"ascent_results": len(result),
            "ascent_converged": sum(1 for res in result if res.converged)}


def _file_bytes(result, args, kwargs):
    return {"bytes_written": os.path.getsize(args[0] if args else kwargs["path"])}


# callable -> function(result, args, kwargs) giving counter increments
HOOKS = {
    "minimax.minimax_theta": _family_loops,
    "minimax.fiber_sup": _ascent_results,
    "minimax.orbit_sweep": lambda res, a, k: {"pool_record_bytes": len(pickle.dumps(res[0]))},
    "flow.flow": lambda res, a, k: {"steps_accepted": len(res.times) - 1},
    "flow.flow_to_critical": lambda res, a, k: {"steps_accepted": res.steps},
    "manifest.write_csv": _file_bytes,
    "manifest.write_json": _file_bytes,
    # computed from array shapes: inputs read plus samples or coefficients written
    "fourier.synthesize": lambda res, a, k: {"fourier_bytes": _nbytes(res, *a[:3])},
    "fourier.analyze": lambda res, a, k: {"fourier_bytes": _nbytes(a[0], *res)},
}


class Tracer:
    """Wraps every callable in LAYERS: `install` before the workload,
    `metrics` after it."""

    def __init__(self):
        self.stats = {key: [0, 0.0, 0.0] for key in CALLABLES}  # calls, total, self
        self.parents = Counter()   # (parent callable or None, callable) -> calls
        self.counts = Counter()
        self.stack = []
        self.cache_start = 0

    def _wrap(self, key, fn):
        hook = HOOKS.get(key)
        stats, stack, parents, counts = self.stats[key], self.stack, self.parents, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [key, 0.0]   # callable, time inside wrapped callees
            stack.append(span)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - span[1]
                if parent is not None:
                    parent[1] += elapsed
                parents[(parent[0] if parent else None, key)] += 1
            if hook is not None:
                counts.update(hook(result, args, kwargs))
            return result

        return traced

    def install(self):
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "loopflow" or name.startswith("loopflow.")]
        for layer, names in LAYERS.items():
            home = importlib.import_module(f"loopflow.{layer}")
            for name in names:
                key = f"{layer}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, meth, self._wrap(key, cls.__dict__[meth]))
                    continue
                original = getattr(home, name)
                wrapper = self._wrap(key, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        self.cache_start = self._cache_size()

    @staticmethod
    def _cache_size():
        return len(sys.modules["loopflow.spectral"]._FRAME_CACHE)

    def metrics(self):
        """Every metric in METRIC_UNITS."""
        stats, parents, counts = self.stats, self.parents, self.counts
        growth = self._cache_size() - self.cache_start
        out = {}
        for layer, names in LAYERS.items():
            layer_self = 0.0
            for name in names:
                key = f"{layer}.{name}"
                calls, total, self_s = stats[key]
                out[f"{key}.calls"] = calls
                out[f"{key}.self_s"] = self_s
                if key in WITH_TOTAL:
                    out[f"{key}.total_s"] = total
                layer_self += self_s
            out[f"layer.{layer}.self_s"] = layer_self

        def ratio(num, den):
            return num / den if den else 0.0

        sup_calls = stats["minimax.fiber_sup"][0]
        sup_evals = (parents[("minimax.fiber_sup", "action.action")]
                     + parents[("minimax.fiber_sup", "action.gradient")])
        frame_calls = stats["spectral.frame_of"][0]
        out.update({
            "manifest.bytes_written": counts["bytes_written"],
            "minimax.fiber_sup.retries": (parents[("minimax.minimax_theta", "minimax.fiber_sup")]
                                          - counts["family_loops"]),
            "minimax.fiber_sup.converged_ratio": ratio(counts["ascent_converged"],
                                                       counts["ascent_results"]),
            "minimax.fiber_sup.evals_per_call": ratio(sup_evals, sup_calls),
            "minimax.refine_critical.gradient_calls":
                parents[("minimax.refine_critical", "action.gradient")],
            "minimax.pool_record_bytes": counts["pool_record_bytes"],
            "flow.steps_accepted": counts["steps_accepted"],
            "flow.velocity_per_step": ratio(stats["flow.flow_velocity"][0],
                                            counts["steps_accepted"]),
            "spectral.frame_of.misses": growth,
            "spectral.frame_of.hit_ratio": ratio(frame_calls - growth, frame_calls),
            "spectral.frame_cache_entries": self._cache_size(),
            "fourier.bytes_computed": counts["fourier_bytes"],
        })
        return out
