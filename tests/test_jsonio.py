import json
import math

import pytest

from cvpuk import jsonio


def test_floats_carry_seventeen_significant_digits():
    text = jsonio.dumps({"value": 0.1})
    assert "0.10000000000000001" in text


def test_round_trip_reconstructs_exact_doubles():
    awkward = [0.1, 1.0 / 3.0, math.pi, 2.0**-40, 1e300, -0.0, 123456789.123456789]
    restored = json.loads(jsonio.dumps({"values": awkward}))["values"]
    for original, loaded in zip(awkward, restored):
        assert loaded == original


def test_rejects_non_finite_floats():
    with pytest.raises(ValueError):
        jsonio.dumps({"value": math.nan})
    with pytest.raises(ValueError):
        jsonio.dumps({"value": math.inf})


def test_load_rejects_non_finite_numbers(tmp_path):
    path = tmp_path / "doc.json"
    for text in ('{"v": NaN}', '{"v": Infinity}', '{"v": [-Infinity]}', '{"v": 1e999}'):
        path.write_text(text)
        with pytest.raises(ValueError):
            jsonio.load(path)
    path.write_text('{"v": [0.1, -2, 1e300]}')
    assert jsonio.load(path) == {"v": [0.1, -2, 1e300]}


def test_require_int():
    assert jsonio.require_int("n", 3) == 3
    for value in (True, 2.7, 3.0, "3", None):
        with pytest.raises(TypeError):
            jsonio.require_int("n", value)


def test_rejects_unknown_types():
    with pytest.raises(TypeError):
        jsonio.dumps({"value": object()})


def test_output_is_deterministic(tmp_path):
    document = {"b": [1, 2.5, "x"], "a": {"nested": True, "none": None}}
    first = jsonio.dumps(document)
    second = jsonio.dumps(document)
    assert first == second
    target = tmp_path / "doc.json"
    jsonio.dump(document, target)
    assert target.read_text(encoding="utf-8") == first
    assert json.loads(first) == {"b": [1, 2.5, "x"], "a": {"nested": True, "none": None}}


def test_empty_containers():
    assert json.loads(jsonio.dumps({})) == {}
    assert json.loads(jsonio.dumps([])) == []
