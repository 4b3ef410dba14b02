import loopflow

REMOVED = ("AliasingError", "TangentFieldSamples", "covariant_derivative", "evaluate_loop",
           "field_from_function", "loop_json_roundtrip", "deformation_report",
           "config_to_json", "plateau_weight", "spec_to_json")


def test_every_exported_name_resolves_once():
    names = loopflow.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(loopflow, name) is not None


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in loopflow.__all__
        assert not hasattr(loopflow, name)
