"""Correctness gates for the benchmark's units.

Each check returns a list of error strings, empty when the unit passes.
Minimax levels are compared with the independent oracle in
``tests/oracles.py``, which shares no code with the package.
"""

import importlib.util
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

THETA_TOL = 1e-9      # the ROADMAP behaviour gate
MONOTONE_SLACK = 1e-12
IDENTITY_TOL = 1e-10  # c08: b^2 - a^2 = 1 and the initial defect
SIGN_TOL = 1e-12      # c08: a(0) = 0, b(0) = 1, a <= 0, b >= 1

_oracles = None


def oracles():
    global _oracles
    if _oracles is None:
        spec = importlib.util.spec_from_file_location("loopflow_oracles",
                                                      ROOT / "tests" / "oracles.py")
        _oracles = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(_oracles)
    return _oracles


def oracle_level(r):
    """(theta, classification kind) the oracle predicts at r.

    The level is max(fake, shelf, 0); shelf_value raises where the shelf
    has no landing (small r), and there the level is the fake value.
    """
    orc = oracles()
    levels = [(orc.fake_value(r), "fake-geodesic"), (0.0, "constant")]
    try:
        levels.append((orc.shelf_value(r), "on-hypersurface"))
    except ValueError:
        pass
    return max(levels, key=lambda lv: lv[0])


def check_level(r, theta, classification, expected_string=None):
    """One minimax record against the oracle level and kind."""
    errors = []
    level, kind = oracle_level(r)
    if not abs(theta - level) <= THETA_TOL:
        errors.append(f"theta {theta!r} is {theta - level:+.3e} from the oracle {level!r}")
    got_kind = classification.split("(")[0]
    if got_kind != kind:
        errors.append(f"classification {classification!r}, oracle predicts {kind}")
    if expected_string is not None and classification != expected_string:
        errors.append(f"classification {classification!r}, expected {expected_string!r}")
    return errors


def check_sweep_rows(rows, expected_strings=None):
    """Sweep CSV rows (dicts of strings) -> one error list per r-point.

    A rise of theta between neighbours fails the later point.
    """
    results = []
    previous = math.inf
    for i, row in enumerate(rows):
        r, theta = float(row["r"]), float(row["theta"])
        expected = expected_strings[i] if expected_strings is not None else None
        errors = check_level(r, theta, row["classification"], expected)
        if theta > previous + MONOTONE_SLACK:
            errors.append(f"theta rises by {theta - previous:.3e} from the previous r")
        previous = theta
        results.append(errors)
    return results


def check_trajectory(traj, coeffs):
    """One flow trajectory and its representation coefficients (c08)."""
    import numpy as np

    errors = []
    if traj.budget_exhausted:
        errors.append("step budget exhausted before the horizon")
    finite = all(np.all(np.isfinite(x.fiber.coefficients))
                 and np.all(np.isfinite(x.loop.cos_coeffs))
                 and np.all(np.isfinite(x.loop.sin_coeffs)) for x in traj.states)
    if not finite or not np.all(np.isfinite(traj.actions)):
        errors.append("non-finite state or action")
    a0, b0, k0 = coeffs[0]
    if not (abs(a0) <= SIGN_TOL and abs(b0 - 1.0) <= SIGN_TOL and k0 <= IDENTITY_TOL):
        errors.append(f"initial (a, b, defect) = ({a0!r}, {b0!r}, {k0!r})")
    worst = max(abs(b * b - a * a - 1.0) for a, b, _ in coeffs)
    if not worst <= IDENTITY_TOL:
        errors.append(f"max |b^2 - a^2 - 1| = {worst:.3e}")
    if not all(a <= SIGN_TOL and b >= 1.0 - SIGN_TOL for a, b, _ in coeffs):
        errors.append("a <= 0 <= 1 <= b violated")
    return errors
