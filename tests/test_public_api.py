import importlib
import inspect
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import loopflow

# names deleted from their own modules, by module (Module.Class: its methods)
DELETED = {"hamiltonian": ("evaluate_H", "hamiltonian_vector_field", "integrate_hamiltonian",
                           "Trajectory", "thickening_sigma", "_tail_jet"),
           "action": ("rescale_period", "velocity_layout", "_padded_modes", "pack_coefficients",
                      "unpack_coefficients", "evaluate"),
           "action.GradientPlan": ("weight_h",),
           "flow": ("flow_step", "kolmogorov_width_proxy", "_state_velocity"),
           "flow.Velocity": ("grad_h",),
           "spectral": ("adjoint_inclusion", "eigendecompose", "inner_r", "norm_r",
                        "fractional_apply", "project", "inner_r_emb", "norm_r_emb",
                        "_check_aligned", "_series_matrix", "_field_samples"),
           "spectral.SpectralFrame": ("method", "kernel_dim", "basis"),
           "spectral.FiberField": ("norm_r", "samples", "__add__", "__sub__", "__mul__",
                                   "__rmul__", "__neg__"),
           "spectral.EmbeddedMetric": ("loop", "cutoff", "apply_power", "inner"),
           "minimax": ("ASCENT_STARTS", "fiber_hessian", "ASCENT_ITERS", "_vertical_newton",
                       "_fiber_sups", "_level", "pool_size"),
           "cli": ("load_defaults", "_winding"),
           "geometry.LoopPath": ("coordinate_samples", "velocity_series"),
           "geometry.ModelManifold": ("embed_point", "embed_tangent", "embedding_dim")}

# parameters deleted from functions that stay, by "module.function"
DELETED_PARAMETERS = {"minimax.fiber_sup": ("seeds", "iters")}

REMOVED = ("AliasingError", "TangentFieldSamples", "covariant_derivative", "evaluate_loop",
           "field_from_function", "loop_json_roundtrip", "deformation_report",
           "config_to_json", "plateau_weight", "spec_to_json",
           *(name for names in DELETED.values() for name in names if not name.startswith("_")))

SUBMODULES = ("action", "cli", "flow", "fourier", "geometry", "hamiltonian", "manifest",
              "minimax", "spectral")


def test_every_exported_name_resolves_once():
    names = loopflow.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(loopflow, name) is not None


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in loopflow.__all__
        assert not hasattr(loopflow, name)


def test_deleted_names_are_gone_from_their_modules():
    for owner, names in DELETED.items():
        module, _, cls = owner.partition(".")
        obj = importlib.import_module(f"loopflow.{module}")
        if cls:
            obj = getattr(obj, cls)
        for name in names:
            assert not hasattr(obj, name), f"{owner}.{name}"


def test_deleted_parameters_are_gone_from_their_functions():
    for owner, names in DELETED_PARAMETERS.items():
        module, _, name = owner.partition(".")
        signature = inspect.signature(getattr(importlib.import_module(f"loopflow.{module}"), name))
        for param in names:
            assert param not in signature.parameters, f"{owner}({param})"


def test_package_attributes_are_its_submodules():
    for name in SUBMODULES:
        module = importlib.import_module(f"loopflow.{name}")
        assert getattr(loopflow, name) is module
        assert inspect.ismodule(module)


def test_pyproject_version_is_the_package_version():
    # the version's only two copies; read with a regex, as tomllib needs Python 3.11
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    assert re.search(r'^version = "([^"]*)"$', text, re.M).group(1) == loopflow.__version__


def test_a_phase_point_holds_only_its_loop_and_fiber():
    # the regularity s is the spec's; a trajectory keeps the s it was flowed at
    assert [f.name for f in fields(loopflow.PhasePoint)] == ["loop", "fiber"]
    assert "s" in [f.name for f in fields(loopflow.FlowTrajectory)]
    assert list(inspect.signature(loopflow.metric_pairing).parameters) == \
        ["x", "spec", "pair_a", "pair_b"]
    assert list(inspect.signature(loopflow.action.random_direction).parameters) == ["x", "spec", "rng"]


def test_frame_of_takes_no_method():
    assert list(inspect.signature(loopflow.frame_of).parameters) == ["loop", "cutoff"]


def test_importing_the_cli_loads_no_scipy():
    # the package needs numpy only; scipy is a test dependency
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, loopflow.cli; print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
