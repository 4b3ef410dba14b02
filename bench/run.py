"""loopflow benchmark: runs one workload and prints its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run it from anywhere; it benchmarks the sources under src/ of the
checkout that holds this file.  Every repetition runs in a fresh
interpreter (bench/rep.py) with BLAS and OpenMP pinned to one thread.
Repetitions of the same inputs are started while the next one still
fits in --seconds (at least one), and set-up is sampled in extra fresh
interpreters until there are MIN_SETUP_SAMPLES samples.

--trace 0 reports the end-to-end metrics, medians over repetitions.
Times are rescaled to a nominal host speed with reference slices timed
next to them (bench/pacer.py): interleaved with the body, and right
after each set-up.  The raw seconds are printed too.
--trace 1 runs the inputs once untraced and once traced and reports the
per-layer metrics of the traced run, its wall time and its overhead over
the untraced one.  Both modes check every unit's outputs, check that
repeated runs of the same inputs write identical bytes (within the run
and against earlier runs of the same sources in this checkout), print
what failed by name, and end with one JSON line: correct, attempted,
failed, metrics.

Every run ends within DEADLINE_S; a repetition still running then is
killed and the run exits 1 without metrics.  A traced sweep needs two
repetitions of about 36 s each on a 2-core Xeon, so a change that slows
it more than about twofold prints no numbers instead of a regression.
"""

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_out"

UNITS = {"sweep": "r-points", "flow": "trajectories", "minimax_j64": "minimax_theta calls"}
MIN_SETUP_SAMPLES = 9
MAX_REPS = 8
DEADLINE_S = 170.0     # a run must end within 180 s
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RepFailed(RuntimeError):
    pass


def run_rep(job, deadline):
    """Start bench/rep.py for one job and return its result with set-up time."""
    env = {**os.environ, **PINNED_THREADS}
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "rep.py"), json.dumps(job)],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)   # the rep and anything it started
        proc.communicate()
        raise RepFailed(f"{job['workload']} repetition passed the {DEADLINE_S:.0f} s deadline")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    lines = stdout.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"{job['workload']} repetition exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    result["elapsed_s"] = time.monotonic() - spawned
    return result


def percentile(values, p):
    """Linear-interpolation percentile of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail(values):
    """(percentile, value): the highest ladder percentile with >= 10 samples beyond it."""
    fits = [p for p in TAIL_LADDER if len(values) * (1.0 - p / 100.0) >= 10.0]
    if not fits:
        return None, None
    return fits[-1], percentile(values, fits[-1])


def source_digest():
    """sha256 of the loopflow sources and of the benchmark's own code."""
    digest = hashlib.sha256()
    for directory in (ROOT / "src" / "loopflow", BENCH):
        for path in sorted(directory.rglob("*.py")):
            digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def check_digests(reps):
    """Outputs of equal inputs must be byte-identical: within this run,
    and against earlier runs of the same sources in this checkout, so a
    change that moves results at roundoff level is never compared with
    its parent.  Returns mismatch messages."""
    store = WORK / f"digests-{source_digest()[:16]}.json"
    try:
        known = json.loads(store.read_text())
    except (OSError, ValueError):
        known = {}
    problems = []
    for rep in reps:
        for key, files in rep.get("digests", {}).items():
            if key in known and known[key] != files:
                changed = sorted(f for f in files if known[key].get(f) != files[f])
                problems.append(f"{key}: {', '.join(changed)} differ from an earlier run")
            known.setdefault(key, files)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(store)
    return problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(UNITS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not (ROOT / "src" / "loopflow" / "__init__.py").is_file():
        print(f"bench: no loopflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK, prefix=f"{args.workload}-") as work_dir:
        def job(**extra):
            return {"workload": args.workload, "seed": args.seed, "work_dir": work_dir,
                    "trace": False, "paced": False, "setup_only": False,
                    "environment": False, **extra}

        try:
            if args.trace:
                reps = [run_rep(job(environment=True), deadline)]
                reps.append(run_rep(job(trace=True), deadline))
            else:
                reps = [run_rep(job(environment=True, paced=True), deadline)]
                while (len(reps) < MAX_REPS
                       and time.monotonic() - start + reps[-1]["elapsed_s"] <= args.seconds):
                    reps.append(run_rep(job(paced=True), deadline))
                setups = list(reps)
                while len(setups) < MIN_SETUP_SAMPLES:
                    setups.append(run_rep(job(setup_only=True), deadline))
        except RepFailed as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1

    units = [unit for rep in reps for unit in rep["units"]]
    failures = [unit for unit in units if unit["errors"]]
    problems = check_digests(reps)
    for unit in failures:
        print(f"FAILED {args.workload} {unit['name']}: {'; '.join(unit['errors'])}")
    for problem in problems:
        print(f"FAILED {args.workload} reproducibility: {problem}")

    env = reps[0]["environment"]
    print(f"workload {args.workload}, seed {args.seed}, {len(reps)} repetition(s), "
          f"trace {args.trace}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"{env['blas']}, {env['nproc']} CPUs ({env['cpus_usable']} usable), {env['cpu']}, "
          f"threads pinned {env['threads']}")

    if args.trace:
        metrics = report_traced(reps)
    else:
        metrics = report_timed(args.workload, reps, setups, units, failures)
    print(json.dumps({"correct": not failures and not problems, "attempted": len(units),
                      "failed": len(failures), "metrics": metrics}))
    return 0


def report_timed(workload, reps, setups, units, failures):
    from pacer import normalised
    own = [rep["wall_s"] - rep["paced_s"] for rep in reps]
    metrics = {
        "wall_norm_s": (statistics.median(normalised(wall, rep["slice_s"])
                                          for wall, rep in zip(own, reps)), "s"),
        "setup_s": (statistics.median(normalised(rep["setup_s"], rep["setup_slice_s"])
                                      for rep in setups), "s"),
        "peak_rss_mb": (statistics.median(rep["peak_rss_mb"] for rep in reps), "MB"),
    }
    for name, (value, unit) in metrics.items():
        print(f"  {name:<17} {value:12.6f} {unit}")
    print(f"  {'raw wall_s':<17} {statistics.median(own):12.6f} s, slices "
          f"{statistics.median(rep['slice_s'] for rep in reps) * 1e3:.3f} ms "
          f"({sum(rep['slices'] for rep in reps)} slices, "
          f"{sum(rep['paced_s'] for rep in reps):.3f} s)")
    print(f"  {'raw setup_s':<17} {statistics.median(rep['setup_s'] for rep in setups):12.6f} s, "
          f"slices {statistics.median(rep['setup_slice_s'] for rep in setups) * 1e3:.3f} ms "
          f"({len(setups)} samples)")
    print(f"  {'failed_frac':<17} {len(failures) / len(units):12.6f} "
          f"({len(failures)} of {len(units)} units)")
    latencies = [unit["latency_s"] for unit in units if unit["latency_s"] is not None]
    if latencies and workload in ("sweep", "flow"):
        print(f"  {'unit_p50_s':<17} {statistics.median(latencies):12.6f} s "
              f"({len(latencies)} {UNITS[workload]})")
    if workload == "flow":
        p, value = tail(latencies)
        if p is None:
            print(f"  {'unit_tail_s':<17} n/a (no percentile has 10 of "
                  f"{len(latencies)} samples beyond it)")
        else:
            print(f"  {'unit_tail_s':<17} {value:12.6f} s (p{p:g} of {len(latencies)} "
                  f"{UNITS[workload]})")
    counts = [rep["unconfident"] for rep in reps if "unconfident" in rep]
    if counts:
        bad = sum(c[0] for c in counts)
        total = sum(c[1] for c in counts)
        print(f"  {'unconfident_frac':<17} {bad / total:12.6f} ({bad} of {total} r-points)")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def report_traced(reps):
    untraced, traced = reps
    from tracer import METRIC_UNITS
    layers = traced["layers"]
    metrics = {name: {"value": layers[name], "unit": unit} for name, unit in METRIC_UNITS.items()}
    metrics["trace.wall_s"] = {"value": traced["wall_s"], "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced["wall_s"] - untraced["wall_s"], "unit": "s"}
    print(f"  traced wall {traced['wall_s']:.4f} s, untraced {untraced['wall_s']:.4f} s, "
          f"overhead {traced['wall_s'] - untraced['wall_s']:+.4f} s")
    by_self = sorted((name for name in METRIC_UNITS
                      if name.endswith(".self_s") and not name.startswith("layer.")),
                     key=lambda name: -layers[name])
    for name in by_self[:6]:
        calls = layers[name[:-len("self_s")] + "calls"]
        print(f"  {name:<45} {layers[name]:10.4f} s in {calls} calls")
    for name in sorted(METRIC_UNITS):
        if name.startswith("layer.") or name.endswith(".total_s"):
            share = layers[name] / traced["wall_s"]
            print(f"  {name:<45} {layers[name]:10.4f} s, {share:6.1%} of the traced wall")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
