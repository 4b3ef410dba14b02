"""One repetition of a benchmark workload, in a fresh interpreter.

    python3 bench/rep.py '<job json>'

bench/run.py starts this script for every repetition and for every extra
set-up sample.  The job names the workload, its seed, a work directory
inside the checkout, and whether to trace, to interleave reference
slices with the body (bench/pacer.py) or to stop after set-up.  The
last line printed is one JSON object: the monotonic clock reading when
set-up ended, the mean time of reference slices run right after it and,
unless set-up only, the body's wall time, the time and mean of the
slices interleaved with it, every unit's latency (slices excluded) and
check errors, digests of the outputs, peak memory and, when traced, the
per-layer metrics.
"""

import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import pacer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# The minimax workloads run with the seed their reference runs use, 0,
# whatever --seed says: the ascent's random starts decide whether an
# r-point retries with doubled starts (about 12 s more on a 2-core Xeon),
# and over CLI seeds 0-5 the same 4-point sweep took 17.5-36.8 s there,
# too wide for any regression bound.  With seed 0 the r = 0.05 point
# retries and stays unconfident on every run and the three others
# converge on the first pass; minimax_j64 with seed 0 is acceptance
# case c11.  --seed picks the random phase points of the flow workload.
MINIMAX_SEED = 0
SWEEP_ARGS = ("--r-min", "0.05", "--r-max", "2", "--r-count", "4", "--jobs", "1",
              "--seed", str(MINIMAX_SEED))
# what the program wrote for SWEEP_ARGS when the benchmark was added
SWEEP_CLASSIFICATIONS = ("fake-geodesic", "on-hypersurface(sigma=-0.169972)",
                         "on-hypersurface(sigma=-0.178987)",
                         "on-hypersurface(sigma=-0.182948)")
FLOW_TRAJECTORIES = 40
FLOW_HORIZON = 1.0     # 100 steps at the default dt
J64_R = 1.0
SETUP_SLICES = 3       # reference slices timed right after set-up


def _import_loopflow():
    sys.path.insert(0, str(SRC))
    import loopflow
    if Path(loopflow.__file__).resolve().parent != SRC / "loopflow":
        raise ImportError(f"loopflow imported from {loopflow.__file__}, not {SRC}")


def _own_clock():
    """Seconds of this process's own work: perf_counter minus the time
    the active pacer spent in reference slices."""
    return time.perf_counter() - pacer.spent()


def _capture(module, name, sink):
    """Rebind module.name to a wrapper appending (result, seconds) to sink."""
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        t0 = _own_clock()
        out = fn(*args, **kwargs)
        sink.append((out, _own_clock() - t0))
        return out

    setattr(module, name, wrapper)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


# Each workload is (setup, body).  setup(job) does the work a fresh
# process needs before its first unit and returns the body's state;
# body(state, job) returns (wall seconds, outcome).  Bodies reach the
# package through sys.modules so that the tracer's wrappers are seen.

def sweep_setup(job):
    _import_loopflow()
    from loopflow import cli
    argv = ["orbit-sweep", *SWEEP_ARGS, "--out", os.path.join(job["work_dir"], "out")]
    cli._settings(cli.build_parser().parse_args(argv))
    return argv


def sweep_body(argv, job):
    import csv
    cli = sys.modules["loopflow.cli"]
    minimax = sys.modules["loopflow.minimax"]
    sweeps, tasks = [], []
    _capture(cli, "orbit_sweep", sweeps)
    _capture(minimax, "_sweep_task", tasks)
    t0 = time.perf_counter()
    try:
        code = cli.main(argv)
        error = f"exit code {code}" if code != 0 else None
    except Exception as exc:
        error = f"raised {type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0

    import checks
    out = argv[-1]
    if error or not sweeps:
        return wall, {"units": [{"name": "orbit-sweep", "latency_s": None,
                                 "errors": [error or "orbit_sweep was not called"]}]}
    records = sweeps[0][0][0]
    files = {name: Path(out, name).read_bytes()
             for name in ("orbit_sweep.csv", "orbit_sweep.json", "manifest.json")}
    lines = files["orbit_sweep.csv"].decode().splitlines()
    rows = list(csv.DictReader(lines[:-1]))
    if len(rows) != len(SWEEP_CLASSIFICATIONS):
        return wall, {"units": [{"name": "orbit-sweep", "latency_s": None, "errors": [
            f"{len(rows)} rows, expected {len(SWEEP_CLASSIFICATIONS)}"]}]}
    errors = checks.check_sweep_rows(rows, SWEEP_CLASSIFICATIONS)
    units = [{"name": f"r={row['r']}", "latency_s": dt, "errors": err}
             for row, (_, dt), err in zip(rows, tasks, errors)]
    key = " ".join(("orbit-sweep",) + SWEEP_ARGS)
    return wall, {"units": units,
                  "unconfident": [sum(not rec.confident for rec in records), len(records)],
                  "digests": {key: {name: _sha256(data) for name, data in files.items()}}}


def flow_setup(job):
    _import_loopflow()
    from loopflow import FlowConfig, default_spec
    spec = default_spec()
    return spec, FlowConfig.auto(spec)


def flow_body(state, job):
    import numpy as np
    spec, config = state
    action = sys.modules["loopflow.action"]
    flow = sys.modules["loopflow.flow"]
    runs = []
    t0 = time.perf_counter()
    for k in range(FLOW_TRAJECTORIES):
        u0 = _own_clock()
        try:
            x0 = action.random_phase_point(spec, np.random.default_rng([job["seed"], k]))
            traj = flow.flow(x0, spec, config, FLOW_HORIZON)
            report = flow.ps_diagnostics(traj, spec, config)
            coeffs = flow.representation_coefficients(traj)
        except Exception as exc:
            runs.append((None, None, None, None, f"raised {type(exc).__name__}: {exc}"))
            continue
        runs.append((traj, report, coeffs, _own_clock() - u0, None))
    wall = time.perf_counter() - t0

    import checks
    units, digest = [], hashlib.sha256()
    for k, (traj, report, coeffs, latency, raised) in enumerate(runs):
        if raised:
            units.append({"name": f"trajectory {k}", "latency_s": None, "errors": [raised]})
            continue
        units.append({"name": f"trajectory {k}", "latency_s": latency,
                      "errors": checks.check_trajectory(traj, coeffs)})
        values = [len(traj.times), traj.actions[-1], traj.gradient_norms[-1],
                  *report.bounds().values(), *coeffs[-1]]
        digest.update((",".join("%.17g" % v for v in values) + "\n").encode())
    key = f"flow seed={job['seed']} k<{FLOW_TRAJECTORIES} T={FLOW_HORIZON}"
    return wall, {"units": units, "digests": {key: {"rows": digest.hexdigest()}}}


def j64_setup(job):
    _import_loopflow()
    from loopflow import FlowConfig, default_family, default_spec
    spec = default_spec(J=64, r=J64_R)
    return spec, FlowConfig.auto(spec), default_family(spec)


def j64_body(state, job):
    import numpy as np
    spec, config, family = state
    minimax = sys.modules["loopflow.minimax"]
    t0 = time.perf_counter()
    try:
        rec = minimax.minimax_theta(family, spec, config, rng=np.random.default_rng(MINIMAX_SEED))
    except Exception as exc:
        return time.perf_counter() - t0, {"units": [{
            "name": f"r={J64_R}", "latency_s": None,
            "errors": [f"raised {type(exc).__name__}: {exc}"]}]}
    wall = time.perf_counter() - t0

    import checks
    values = ["%.17g" % v for v in (rec.theta, rec.grad_norm, rec.symplectic)]
    values += [str(rec.classification), str(rec.steps), str(rec.confident)]
    key = f"minimax_theta J=64 r={J64_R} seed={MINIMAX_SEED}"
    return wall, {"units": [{"name": f"r={J64_R}", "latency_s": wall - pacer.spent(),
                             "errors": checks.check_level(J64_R, rec.theta,
                                                          str(rec.classification))}],
                  "unconfident": [int(not rec.confident), 1],
                  "digests": {key: {"record": _sha256(",".join(values).encode())}}}


WORKLOADS = {
    "sweep": (sweep_setup, sweep_body),
    "flow": (flow_setup, flow_body),
    "minimax_j64": (j64_setup, j64_body),
}


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu,
            "threads": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def main():
    job = json.loads(sys.argv[1])
    setup, body = WORKLOADS[job["workload"]]
    state = setup(job)
    ready = time.monotonic()
    result = {"ready": ready, "setup_slice_s": pacer.time_slices(SETUP_SLICES)}
    if job["setup_only"]:
        print(json.dumps(result))
        return 0
    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    if job["paced"]:
        with pacer.Pacer() as paced:
            wall, outcome = body(state, job)
        result.update(paced_s=paced.spent, slice_s=paced.mean_slice(),
                      slices=len(paced.slices))
    else:
        wall, outcome = body(state, job)
    result.update(wall_s=wall, **outcome)
    if tracer is not None:
        result["layers"] = tracer.metrics()
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = (self_kb + children_kb) / 1024.0
    if job["environment"]:
        result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
