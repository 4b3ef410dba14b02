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
from dataclasses import fields
from importlib import resources

import numpy as np

from .action import directional_derivative_check, random_direction, random_phase_point
from .flow import FlowConfig, divergent_fixture, flow, ps_diagnostics
from .geometry import LoopPath, embedded_circle, flat_torus, straight_loop
from .hamiltonian import HamiltonianSpec, r0_threshold
from .manifest import VERSION, RunManifest, write_csv, write_json, write_manifest
from .minimax import orbit_sweep
from .fourier import default_samples
from .spectral import dense_eigenvalues, embedded_metric, fit_spectrum_bounds, frame_of, spectra_rows

GRAD_CHECK_TOL = 1e-5

# largest orbit-sweep grid: each point is a full minimax (seconds), and
# the grid itself is allocated before the first one runs
MAX_R_COUNT = 10_000

SWEEP_COLUMNS = ("r", "theta", "classification", "action", "sigma",
                 "leaf_action", "grad_norm", "steps")

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


def load_defaults():
    return json.loads(resources.files("loopflow").joinpath("defaults.json").read_text())


def _load_user_config(path, defaults):
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        user = json.load(fh)
    # each section's keys are read off where its settings live
    allowed = {"spec": {f.name for f in fields(HamiltonianSpec)},
               "flow": set(inspect.signature(FlowConfig.auto).parameters) - {"spec"} | FLOW_PINS,
               "sweep": set(defaults["sweep"]), "loop": LOOP_KEYS}
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


def _winding(where, value):
    if not isinstance(value, list):
        raise ValueError(f"{where} must be a list of integers, got {value!r}")
    return tuple(_number(where, w, int) for w in value)


def _settings(args):
    """Defaults <- config file <- flags, resolved to (spec, flow config)."""
    defaults = load_defaults()
    user = _load_user_config(args.config, defaults)
    spec_dict = {key: _number(f"spec {key}", value, int if key == "J" else float)
                 for key, value in {**defaults["spec"], **user.get("spec", {})}.items()}
    if args.modes is not None:
        spec_dict["J"] = args.modes
    if args.s is not None:
        spec_dict["s"] = args.s
    spec = HamiltonianSpec.from_json(spec_dict)
    flow_dict = {key: _number(f"flow {key}", value)
                 for key, value in {**defaults["flow"], **user.get("flow", {})}.items()}
    pinned = FLOW_PINS & flow_dict.keys()
    if pinned and pinned != FLOW_PINS:
        raise ValueError("flow gamma_prime and gamma_dprime must be set together")
    config = FlowConfig.from_json(flow_dict) if pinned else FlowConfig.auto(spec, **flow_dict)
    return defaults, user, spec, config


def _loop_from_config(cfg, default_winding=(1, 0)):
    kind = cfg.get("manifold", "torus")
    if kind not in ("torus", "circle"):
        raise ValueError(f"loop manifold must be \"torus\" or \"circle\", got {kind!r}")
    winding = _winding("loop winding",
                       cfg.get("winding", list(default_winding) if kind == "torus" else [1]))
    manifold = embedded_circle() if kind == "circle" else flat_torus(len(winding))
    if "cos" in cfg or "sin" in cfg:
        data = {"winding": list(winding), "base": cfg.get("base", [0.0] * manifold.dim),
                "cos": cfg.get("cos", []), "sin": cfg.get("sin", [])}
        return LoopPath.from_json(data, manifold)
    return straight_loop(manifold, winding, base=cfg.get("base"))


def _emit(args, command, config_payload, rows, header, csv_name,
          json_name=None, json_payload=None):
    os.makedirs(args.out, exist_ok=True)
    artifacts = (csv_name,) + ((json_name,) if json_name else ())
    man = RunManifest(command=command, config=config_payload, seed=args.seed,
                      artifacts=artifacts, version=VERSION)
    write_manifest(os.path.join(args.out, "manifest.json"), man)
    digest = man.sha256()
    write_csv(os.path.join(args.out, csv_name), header, rows, digest)
    if json_name is not None:
        write_json(os.path.join(args.out, json_name),
                   {**json_payload, "manifest_sha256": digest})
    print(f"{command}: wrote {', '.join(artifacts)} to {args.out} (manifest {digest[:12]})")


def cmd_spectrum(args):
    _, user, spec, config = _settings(args)
    loop = _loop_from_config(user.get("loop", {}))
    method = "dense" if args.dense else "analytic"
    frame = frame_of(loop, spec.J)
    lam = dense_eigenvalues(frame.n, frame.cutoff) if args.dense else frame.eigenvalues
    sup = frame.sup_norms()
    rows = spectra_rows(lam, sup)
    c_fit, c_cap, d_fit = fit_spectrum_bounds(lam, frame.n)
    payload = {"fitted": {"c": c_fit, "C": c_cap, "d": d_fit}, "max_sup_norm": float(sup.max()),
               "kernel_dim": int(np.count_nonzero(lam == 0.0)), "dim": frame.dim, "method": method}
    config_payload = {"spec": spec.to_json(), "flow": config.to_json(),
                      "loop": user.get("loop", {}), "method": method}
    _emit(args, "spectrum", config_payload, rows,
          ("index", "lambda", "sup_norm"), "spectrum.csv", "spectrum.json", payload)
    return 0


def cmd_metrics_compare(args):
    _, user, spec, config = _settings(args)
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
    config_payload = {"spec": spec.to_json(), "flow": config.to_json(),
                      "n_max": args.n_max, "r_list": [float(r) for r in args.r_list]}
    _emit(args, "metrics-compare", config_payload, rows,
          ("n", "r", "norm_r", "norm_r_emb", "ratio"), "metrics_compare.csv")
    return 0


def cmd_orbit_sweep(args):
    defaults, user, spec, config = _settings(args)
    sweep_cfg = {**defaults["sweep"], **user.get("sweep", {})}
    r_min = _number("r-min", sweep_cfg["r_min"] if args.r_min is None else args.r_min)
    r_max = _number("r-max", sweep_cfg["r_max"] if args.r_max is None else args.r_max)
    count = _number("r-count", sweep_cfg["count"] if args.r_count is None else args.r_count, int)
    winding = _winding("sweep winding", sweep_cfg["winding"])
    if not 0 <= count <= MAX_R_COUNT:
        raise ValueError(f"r-count must lie in [0, {MAX_R_COUNT}], got {count}")
    if not (math.isfinite(r_min) and math.isfinite(r_max)):
        raise ValueError(f"r-min and r-max must be finite, got {r_min!r} and {r_max!r}")
    if count > 0 and not 0.0 < r_min <= r_max:
        raise ValueError("need 0 < r-min <= r-max")
    grid = np.linspace(r_min, r_max, count)
    family = [_loop_from_config(user.get("loop", {}), default_winding=winding)]
    records, summary = orbit_sweep(spec, grid, config, jobs=args.jobs, family=family)
    rows = [tuple(rec.to_row()[k] for k in SWEEP_COLUMNS) for rec in records]
    payload = {"hit_found": summary.hit_found,
               "first_hit_r": summary.first_hit_r,
               "first_hit_leaf_action": summary.first_hit_leaf_action,
               "leaf_bound": summary.leaf_bound,
               "alpha": summary.alpha,
               "r0": r0_threshold(spec),
               "plateau_energies": {"%.17g" % k: v for k, v in summary.plateau_energies.items()},
               "plateau_shifted_actions": {"%.17g" % k: v
                                           for k, v in summary.plateau_shifted_actions.items()},
               "budget_flagged": list(summary.budget_flagged),
               "winding": list(family[0].winding)}
    config_payload = {"spec": spec.to_json(), "flow": config.to_json(),
                      "sweep": {"r_min": r_min, "r_max": r_max, "count": count,
                                "winding": list(winding)}}
    if "loop" in user:
        config_payload["loop"] = user["loop"]
    _emit(args, "orbit-sweep", config_payload, rows, SWEEP_COLUMNS,
          "orbit_sweep.csv", "orbit_sweep.json", payload)
    return 0


def cmd_ps_diagnose(args):
    _, user, spec, config = _settings(args)
    horizon = min(args.horizon, config.t_max)
    rows = []
    flagged = False
    if args.fixture == "divergent":
        trajs = [divergent_fixture(spec, config)]
    else:
        trajs = []
        for k in range(args.count):
            rng = np.random.default_rng([args.seed, k])
            trajs.append(flow(random_phase_point(spec, rng), spec, config, horizon))
    for k, traj in enumerate(trajs):
        report = ps_diagnostics(traj, spec, config)
        b = report.bounds()
        flagged = flagged or report.growth_flag
        rows.append((k, len(traj.times) - 1, b["vertical_defect"], b["quadratic_ratio"],
                     b["derivative_norm"], b["kernel_parallel"], b["kernel_residual"],
                     float(report.vertical_defect[-1]), report.growth_flag))
    config_payload = {"spec": spec.to_json(), "flow": config.to_json(),
                      "count": len(trajs), "horizon": horizon,
                      "fixture": args.fixture or "none"}
    _emit(args, "ps-diagnose", config_payload, rows,
          ("trajectory", "steps", "step1_max", "step2_max", "step3_max",
           "kernel_parallel_max", "kernel_residual_max", "step1_final", "flagged"),
          "ps_diagnose.csv")
    if flagged:
        print("ps-diagnose: unbounded fiber growth flagged", file=sys.stderr)
        return 2
    return 0


def cmd_gradient_check(args):
    _, user, spec, config = _settings(args)
    rows = []
    for k in range(args.count):
        rng = np.random.default_rng([args.seed, k])
        x = random_phase_point(spec, rng)
        xi, eta = random_direction(x, rng)
        fd, exact = directional_derivative_check(x, spec, xi, eta, step=args.step)
        rows.append((k, fd, exact, abs(fd - exact) / max(1.0, abs(exact))))
    config_payload = {"spec": spec.to_json(), "flow": config.to_json(),
                      "count": args.count, "step": args.step, "tol": args.tol}
    _emit(args, "gradient-check", config_payload, rows,
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
