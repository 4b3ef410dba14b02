import importlib
import inspect

import loopflow

# names deleted from their own modules, by module (Module.Class: its methods)
DELETED = {"hamiltonian": ("evaluate_H", "hamiltonian_vector_field", "integrate_hamiltonian",
                           "Trajectory", "thickening_sigma"),
           "action": ("rescale_period",),
           "flow": ("flow_step", "kolmogorov_width_proxy"),
           "spectral": ("adjoint_inclusion", "eigendecompose", "inner_r", "norm_r",
                        "fractional_apply", "project", "inner_r_emb", "norm_r_emb",
                        "_check_aligned", "_series_matrix"),
           "spectral.SpectralFrame": ("method", "kernel_dim"),
           "spectral.FiberField": ("norm_r", "samples", "__add__", "__sub__", "__mul__",
                                   "__rmul__", "__neg__"),
           "spectral.EmbeddedMetric": ("loop", "cutoff", "apply_power", "inner"),
           "minimax": ("ASCENT_STARTS",),
           "geometry.LoopPath": ("coordinate_samples",),
           "geometry.ModelManifold": ("embed_point", "embed_tangent", "embedding_dim")}

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


def test_package_attributes_are_its_submodules():
    for name in SUBMODULES:
        module = importlib.import_module(f"loopflow.{name}")
        assert getattr(loopflow, name) is module
        assert inspect.ismodule(module)


def test_frame_of_takes_no_method():
    assert list(inspect.signature(loopflow.frame_of).parameters) == ["loop", "cutoff"]
