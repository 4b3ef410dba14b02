"""Command-line entry points.

Five subcommands: spectrum, metrics-compare, orbit-sweep, ps-diagnose,
gradient-check.  Every run writes its outputs plus a manifest.json into
--out; CSVs carry the manifest hash as a trailing comment and rerunning
the same manifest with the same seed reproduces the bytes exactly.

Exit codes: 0 success, 1 usage, 2 numerical or configuration failure.
"""

import argparse
import inspect
import json
import math
import os
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from .action import directional_derivative_check, random_direction, random_phase_point
from .flow import FlowConfig, divergent_fixture, flow, ps_diagnostics
from .geometry import LoopPath, embedded_circle, flat_torus, straight_loop
from .hamiltonian import HamiltonianSpec, default_spec
from .manifest import VERSION, RunManifest, write_csv, write_json, write_manifest
from .minimax import orbit_sweep
from .fourier import default_samples
from .spectral import dense_eigenvalues, embedded_metric, fit_spectrum_bounds, frame_of, spectra_rows

GRAD_CHECK_TOL = 1e-5

# largest orbit-sweep grid: each point is a full minimax (seconds), and
# the grid itself is allocated before the first one runs
MAX_R_COUNT = 10_000

# largest ps-diagnose or gradient-check --count: each case is a flow (a
# quarter second at the default horizon) or a finite-difference check,
# and every row is held until the CSV is written
MAX_COUNT = 10_000

# largest metrics-compare --n-max: each winding n is an embedded-metric
# eigensolve (about 0.7 ms at J = 32), and every row is held until the
# CSV is written
MAX_N_MAX = 10_000

SWEEP_COLUMNS = ("r", "theta", "classification", "action", "sigma",
                 "leaf_action", "grad_norm", "steps")

# the orbit-sweep grid and loop winding; default_spec and FlowConfig.auto
# supply every spec and flow value a run does not set
SWEEP_DEFAULTS = {"r_min": 0.05, "r_max": 2.0, "count": 20, "winding": [1, 0]}

FLOW_PINS = frozenset({"gamma_prime", "gamma_dprime"})   # set both, or FlowConfig.auto derives them
LOOP_KEYS = frozenset({"manifold", "winding", "base", "cos", "sin"})   # what _loop_from_config reads


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _unit_interval_list(text):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad r-list {text!r}") from exc
    if not values or any(not 0.0 <= v <= 1.0 for v in values):
        raise argparse.ArgumentTypeError("r-list entries must lie in [0, 1]")
    return values


def _positive_int(text):
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("expected a positive integer")
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("expected a non-negative integer")
    return value


def _positive_float(text):
    value = float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError("expected a positive finite number")
    return value


def build_parser():
    parser = _Parser(prog="loopflow",
                     description="Loop-space spectral metrics, action flow, and orbit sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="JSON config overlay")
        p.add_argument("--out", default="loopflow-out", help="output directory")
        p.add_argument("--seed", type=_nonnegative_int, default=0,
                       help="seed of the random phase points (orbit-sweep draws none)")
        p.add_argument("--modes", type=_positive_int, default=None, help="mode cutoff J")
        p.add_argument("--s", type=float, default=None, help="regularity parameter")
        return p

    p = common(sub.add_parser("spectrum", help="eigenvalue table of one loop"))
    p.add_argument("--dense", action="store_true", help="dense collocation cross-check path")

    p = common(sub.add_parser("metrics-compare", help="covariant vs ambient norms on circle modes"))
    p.add_argument("--n-max", type=_positive_int, default=8)
    p.add_argument("--r-list", type=_unit_interval_list, default=[0.0, 0.25, 0.5, 1.0])

    p = common(sub.add_parser("orbit-sweep", help="minimax sweep over the energy parameter"))
    p.add_argument("--r-min", type=float, default=None)
    p.add_argument("--r-max", type=float, default=None)
    p.add_argument("--r-count", type=int, default=None)
    p.add_argument("--jobs", type=_positive_int, default=1)

    p = common(sub.add_parser("ps-diagnose", help="Palais-Smale bound report along flows"))
    p.add_argument("--count", type=_positive_int, default=4)
    p.add_argument("--horizon", type=_positive_float, default=4.0)
    p.add_argument("--fixture", choices=["divergent"], default=None)

    p = common(sub.add_parser("gradient-check", help="finite differences against the exact gradient"))
    p.add_argument("--count", type=_positive_int, default=100)
    p.add_argument("--step", type=_positive_float, default=1e-5)
    p.add_argument("--tol", type=_positive_float, default=GRAD_CHECK_TOL)
    return parser


def _load_user_config(path):
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        user = json.load(fh)
    # each section's keys are read off where its settings live
    allowed = {"spec": {f.name for f in fields(HamiltonianSpec)},
               "flow": set(inspect.signature(FlowConfig.auto).parameters) - {"spec"} | FLOW_PINS,
               "sweep": set(SWEEP_DEFAULTS), "loop": LOOP_KEYS}
    if not isinstance(user, dict) or not all(isinstance(user.get(section, {}), dict)
                                             for section in allowed):
        raise ValueError("config must be a JSON object whose spec, flow, sweep and loop "
                         "sections are objects")
    unknown = sorted(user.keys() - allowed.keys() - {"version"})
    unknown += sorted(f"{section}.{key}" for section, keys in allowed.items()
                      for key in user.get(section, {}).keys() - keys)
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")
    return user


def _number(where, value, kind=float):
    """A config value that must be a JSON number (an integer for kind=int),
    converted to kind; any other type is a configuration error."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        raise ValueError(f"{where} must be {'an integer' if kind is int else 'a number'}, "
                         f"got {value!r}")
    return kind(value)


def _numbers(where, value, kind=float):
    """A config value that must be a JSON list of numbers (of integers for
    kind=int), converted to a list of kind."""
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list of {'integers' if kind is int else 'numbers'}, "
                         f"got {value!r}")
    return [_number(where, x, kind) for x in value]


def _rows(where, value):
    """A config value that must be a JSON list of rows of numbers."""
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list of rows of numbers, got {value!r}")
    return [_numbers(where, row) for row in value]


def _settings(args):
    """The config overlay and the flags, checked, resolved to (user config,
    spec, flow config); default_spec and FlowConfig.auto fill in the rest."""
    user = _load_user_config(args.config)
    spec = {key: _number(f"spec {key}", value, int if key == "J" else float)
            for key, value in user.get("spec", {}).items()}
    if args.modes is not None:
        spec["J"] = args.modes
    if args.s is not None:
        spec["s"] = args.s
    spec = default_spec(**spec)
    flow = {key: _number(f"flow {key}", value) for key, value in user.get("flow", {}).items()}
    pins = {key: flow.pop(key) for key in FLOW_PINS & flow.keys()}
    if pins and pins.keys() != FLOW_PINS:
        raise ValueError("flow gamma_prime and gamma_dprime must be set together")
    if pins:
        flow.pop("margin", None)   # the pinned gamma'' takes the margin's place
    return user, spec, replace(FlowConfig.auto(spec, **flow), **pins)


def _loop_from_config(cfg, default_winding=SWEEP_DEFAULTS["winding"]):
    kind = cfg.get("manifold", "torus")
    if kind not in ("torus", "circle"):
        raise ValueError(f"loop manifold must be \"torus\" or \"circle\", got {kind!r}")
    winding = _numbers("loop winding",
                       cfg.get("winding", default_winding if kind == "torus" else [1]), int)
    manifold = embedded_circle() if kind == "circle" else flat_torus(len(winding))
    base = _numbers("loop base", cfg.get("base", [0.0] * manifold.dim))
    if "cos" in cfg or "sin" in cfg:
        data = {"winding": winding, "base": base, "cos": _rows("loop cos", cfg.get("cos", [])),
                "sin": _rows("loop sin", cfg.get("sin", []))}
        return LoopPath.from_json(data, manifold)
    return straight_loop(manifold, winding, base=base)


def _emit(args, command, spec, config, run_config, rows, header, csv_name,
          json_name=None, json_payload=None):
    """Write the JSON payload, then the manifest, whose config is the
    spec, the flow config and the command's own run_config, then the CSV.
    write_json serializes before it opens the file, so a payload it
    refuses leaves args.out without files."""
    os.makedirs(args.out, exist_ok=True)
    artifacts = (csv_name,) + ((json_name,) if json_name else ())
    man = RunManifest(command=command, seed=args.seed, artifacts=artifacts, version=VERSION,
                      config={"spec": spec.to_json(), "flow": config.to_json(), **run_config})
    digest = man.sha256()
    if json_name is not None:
        write_json(os.path.join(args.out, json_name),
                   {**json_payload, "manifest_sha256": digest})
    write_manifest(os.path.join(args.out, "manifest.json"), man)
    write_csv(os.path.join(args.out, csv_name), header, rows, digest)
    print(f"{command}: wrote {', '.join(artifacts)} to {args.out} (manifest {digest[:12]})")


def cmd_spectrum(args):
    user, spec, config = _settings(args)
    loop = _loop_from_config(user.get("loop", {}))
    method = "dense" if args.dense else "analytic"
    frame = frame_of(loop, spec.J)
    lam = dense_eigenvalues(frame.n, frame.cutoff) if args.dense else frame.eigenvalues
    sup = frame.sup_norms()
    rows = spectra_rows(lam, sup)
    c_fit, c_cap, d_fit = fit_spectrum_bounds(lam, frame.n)
    payload = {"fitted": {"c": c_fit, "C": c_cap, "d": d_fit}, "max_sup_norm": float(sup.max()),
               "kernel_dim": int(np.count_nonzero(lam == 0.0)), "dim": frame.dim, "method": method}
    _emit(args, "spectrum", spec, config, {"loop": user.get("loop", {}), "method": method}, rows,
          ("index", "lambda", "sup_norm"), "spectrum.csv", "spectrum.json", payload)
    return 0


def cmd_metrics_compare(args):
    _check_count("n-max", args.n_max, MAX_N_MAX)
    _, spec, config = _settings(args)
    circle = embedded_circle()
    ones = np.ones((default_samples(spec.J), 1))
    rows = []
    for n in range(1, args.n_max + 1):
        loop = straight_loop(circle, (n,))
        frame = frame_of(loop, spec.J)
        c = frame.coefficients(ones)
        ambient = embedded_metric(loop, spec.J)
        for r in args.r_list:
            covariant = float(frame.norm(r, c))
            emb = float(ambient.norm(r, c))
            rows.append((n, float(r), covariant, emb, (emb / covariant) ** 2))
    _emit(args, "metrics-compare", spec, config,
          {"n_max": args.n_max, "r_list": [float(r) for r in args.r_list]}, rows,
          ("n", "r", "norm_r", "norm_r_emb", "ratio"), "metrics_compare.csv")
    return 0


def cmd_orbit_sweep(args):
    user, spec, config = _settings(args)
    sweep_cfg = {**SWEEP_DEFAULTS, **user.get("sweep", {})}
    r_min = _number("r-min", sweep_cfg["r_min"] if args.r_min is None else args.r_min)
    r_max = _number("r-max", sweep_cfg["r_max"] if args.r_max is None else args.r_max)
    count = _number("r-count", sweep_cfg["count"] if args.r_count is None else args.r_count, int)
    winding = _numbers("sweep winding", sweep_cfg["winding"], int)
    if not 0 <= count <= MAX_R_COUNT:
        raise ValueError(f"r-count must lie in [0, {MAX_R_COUNT}], got {count}")
    if not (math.isfinite(r_min) and math.isfinite(r_max)):
        raise ValueError(f"r-min and r-max must be finite, got {r_min!r} and {r_max!r}")
    if count > 0 and not 0.0 < r_min <= r_max:
        raise ValueError("need 0 < r-min <= r-max")
    grid = np.linspace(r_min, r_max, count)
    family = [_loop_from_config(user.get("loop", {}), default_winding=winding)]
    records, summary = orbit_sweep(spec, grid, config, family=family)
    rows = [tuple(rec.to_row()[k] for k in SWEEP_COLUMNS) for rec in records]
    payload = asdict(summary)
    for key in ("plateau_energies", "plateau_shifted_actions"):
        payload[key] = {"%.17g" % r: v for r, v in payload[key].items()}
    payload["winding"] = list(family[0].winding)
    run_config = {"sweep": {"r_min": r_min, "r_max": r_max, "count": count, "winding": winding}}
    if "loop" in user:
        run_config["loop"] = user["loop"]
    _emit(args, "orbit-sweep", spec, config, run_config, rows, SWEEP_COLUMNS,
          "orbit_sweep.csv", "orbit_sweep.json", payload)
    return 0


def _check_count(name, count, cap):
    if count > cap:
        raise ValueError(f"{name} must lie in [1, {cap}], got {count}")


def _ps_row(k, traj, spec, config):
    """The ps-diagnose row of trajectory k: its PS report, taken while it
    is the only trajectory alive."""
    report = ps_diagnostics(traj, spec, config)
    b = report.bounds()
    return (k, len(traj.times) - 1, b["vertical_defect"], b["quadratic_ratio"],
            b["derivative_norm"], b["kernel_parallel"], b["kernel_residual"],
            float(report.vertical_defect[-1]), report.growth_flag)


def cmd_ps_diagnose(args):
    _check_count("count", args.count, MAX_COUNT)
    _, spec, config = _settings(args)
    horizon = min(args.horizon, config.t_max)
    if args.fixture == "divergent":
        rows = [_ps_row(0, divergent_fixture(spec, config), spec, config)]
    else:
        rows = [_ps_row(k, flow(random_phase_point(spec, np.random.default_rng([args.seed, k])),
                                spec, config, horizon), spec, config)
                for k in range(args.count)]
    _emit(args, "ps-diagnose", spec, config,
          {"count": len(rows), "horizon": horizon, "fixture": args.fixture or "none"}, rows,
          ("trajectory", "steps", "step1_max", "step2_max", "step3_max",
           "kernel_parallel_max", "kernel_residual_max", "step1_final", "flagged"),
          "ps_diagnose.csv")
    if any(row[-1] for row in rows):
        print("ps-diagnose: unbounded fiber growth flagged", file=sys.stderr)
        return 2
    return 0


def cmd_gradient_check(args):
    _check_count("count", args.count, MAX_COUNT)
    _, spec, config = _settings(args)
    rows = []
    for k in range(args.count):
        rng = np.random.default_rng([args.seed, k])
        x = random_phase_point(spec, rng)
        xi, eta = random_direction(x, spec, rng)
        fd, exact = directional_derivative_check(x, spec, xi, eta, step=args.step)
        rows.append((k, fd, exact, abs(fd - exact) / max(1.0, abs(exact))))
    _emit(args, "gradient-check", spec, config,
          {"count": args.count, "step": args.step, "tol": args.tol}, rows,
          ("case", "fd", "exact", "rel_error"), "gradient_check.csv")
    # not rel <= tol, so that a NaN error fails the case
    failed = [(k, rel) for k, _, _, rel in rows if not rel <= args.tol]
    if failed:
        k, rel = failed[0]
        print(f"gradient-check: case {k} relative error {rel:.3e} exceeds {args.tol:.1e} "
              f"({len(failed)} of {len(rows)} cases fail)", file=sys.stderr)
        return 2
    print(f"gradient-check: max relative error {max(row[3] for row in rows):.3e}")
    return 0


_HANDLERS = {
    "spectrum": cmd_spectrum,
    "metrics-compare": cmd_metrics_compare,
    "orbit-sweep": cmd_orbit_sweep,
    "ps-diagnose": cmd_ps_diagnose,
    "gradient-check": cmd_gradient_check,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ArithmeticError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"loopflow: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
