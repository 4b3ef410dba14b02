import json
import math

import pytest

from loopflow.manifest import (RunManifest, format_value, read_csv, read_manifest,
                               write_csv, write_json, write_manifest)


def test_format_value():
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(3) == "3"
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value(float("nan")) == "nan"
    assert format_value("plain") == "plain"


def test_manifest_canonical_and_hash():
    man = RunManifest(command="spectrum", config={"b": 2, "a": 1}, seed=7,
                      artifacts=("x.csv",))
    # canonical form sorts keys and drops whitespace
    assert man.canonical() == ('{"artifacts":["x.csv"],"command":"spectrum",'
                               '"config":{"a":1,"b":2},"seed":7,"version":"0.1.0"}')
    assert man.sha256() == RunManifest.from_json(man.to_json()).sha256()
    assert len(man.sha256()) == 64


def test_manifest_file_roundtrip(tmp_path):
    man = RunManifest(command="orbit-sweep", config={"r": 1.0}, seed=0,
                      artifacts=("a.csv", "b.json"))
    path = tmp_path / "manifest.json"
    write_manifest(path, man)
    assert read_manifest(path) == man


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "table.csv"
    rows = [(0, 1.5, "yes"), (1, float("inf"), "no")]
    write_csv(path, ("idx", "value", "flag"), rows, "f" * 64)
    header, data, digest = read_csv(path)
    assert header == ["idx", "value", "flag"]
    assert digest == "f" * 64
    assert data[0] == ["0", "1.5", "yes"]
    assert data[1][1] == "inf"


def test_read_csv_rejects_missing_hash(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError):
        read_csv(path)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ValueError):
        read_csv(empty)


def test_read_csv_rejects_a_hash_line_with_no_header(tmp_path):
    # the comment would be read back as the header
    path = tmp_path / "hash_only.csv"
    path.write_text("# manifest_sha256=abc\n")
    with pytest.raises(ValueError, match="hash_only.csv: needs a header line"):
        read_csv(path)


def test_write_json_is_order_independent(tmp_path):
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    write_json(p1, {"b": [1, 2], "a": 0.25})
    write_json(p2, {"a": 0.25, "b": [1, 2]})
    assert p1.read_bytes() == p2.read_bytes()
    assert json.loads(p1.read_text()) == {"a": 0.25, "b": [1, 2]}


def test_write_json_refuses_non_finite_values(tmp_path):
    # NaN and Infinity are not JSON (RFC 8259): no file, and a message
    # that names it
    path = tmp_path / "bad.json"
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="bad.json"):
            write_json(path, {"nested": [1.0, {"x": value}]})
        assert not path.exists()
