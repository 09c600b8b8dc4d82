import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvpuk import jsonio

finite_floats = st.floats(allow_nan=False, allow_infinity=False)
# text covers non-ASCII, quotes, backslashes and control characters
leaves = st.one_of(
    st.text(), st.integers(), st.integers(min_value=2**63, max_value=2**200),
    finite_floats, st.booleans(), st.none(),
    finite_floats.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64), st.integers(0, 255).map(np.uint8),
    st.booleans().map(np.bool_),
)


def _nested(children):
    return st.one_of(st.lists(children), st.lists(children).map(tuple),
                     st.dictionaries(st.text(), children))


documents = st.recursive(leaves, _nested, max_leaves=40)


@given(documents)
def test_dumps_writes_what_json_writes(document):
    expected = json.dumps(document, indent=2, allow_nan=False, default=jsonio._scalar) + "\n"
    assert jsonio.dumps(document) == expected


def _bury(value):
    """Documents that hold ``value`` at some depth beside other entries."""
    return st.recursive(
        st.just(value),
        lambda inner: st.one_of(
            st.tuples(leaves, inner).map(list),
            st.builds(lambda sibling, buried: {"sibling": sibling, "buried": buried},
                      leaves, inner),
        ),
        max_leaves=8,
    )


@given(st.one_of(*(_bury(value) for value in (math.nan, math.inf, np.float64(-math.inf)))))
def test_non_finite_floats_are_refused_at_any_depth(document):
    with pytest.raises(ValueError):
        jsonio.dumps(document)


@given(st.one_of(*(_bury(value) for value in (object(), {1, 2}, b"x", 1j, np.zeros(2)))))
def test_unknown_types_are_refused_at_any_depth(document):
    with pytest.raises(TypeError):
        jsonio.dumps(document)


def test_floats_are_written_by_their_shortest_repr():
    values = [0.1, 1.0 / 3.0, math.pi, 2.0**-40, 1e300, 5e-324, -0.0, 2500.0, 1e16, 1e17,
              123456789.123456789, 0.1 + 0.2, np.float64(0.1), np.float32(0.1)]
    tokens = jsonio.dumps(values)[1:-2].split(",")
    assert [token.strip() for token in tokens] == [repr(float(value)) for value in values]


def test_layout_of_a_nested_document():
    document = {"a": [1, 2.5, {"b": [], "c": {}}], "d": {}, "e": [[]], "f": None,
                "g": True, "h": "x\u00e9"}
    assert jsonio.dumps(document) == (
        '{\n  "a": [\n    1,\n    2.5,\n    {\n      "b": [],\n      "c": {}\n    }\n  ],\n'
        '  "d": {},\n  "e": [\n    []\n  ],\n  "f": null,\n  "g": true,\n'
        '  "h": "x\\u00e9"\n}\n'
    )


def test_round_trip_reconstructs_exact_doubles():
    awkward = [0.1, 1.0 / 3.0, math.pi, 2.0**-40, 1e300, -0.0, 123456789.123456789]
    restored = json.loads(jsonio.dumps({"values": awkward}))["values"]
    for original, loaded in zip(awkward, restored):
        assert loaded == original


def test_rejects_non_finite_floats():
    for value in (math.nan, math.inf, -math.inf, np.float32(math.nan), np.float32(math.inf)):
        with pytest.raises(ValueError):
            jsonio.dumps({"value": value})


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


def test_require_real():
    assert jsonio.require_real("x", 0.5, "(0, 1]") == 0.5
    assert jsonio.require_real("x", 1, "(0, 1]") == 1.0
    assert type(jsonio.require_real("x", np.float32(0.5), "(0, 1]")) is float
    assert jsonio.require_real("x", -1e300, "(-inf, inf)") == -1e300
    for value in (True, np.bool_(True), "0.5", None, [0.5]):
        with pytest.raises(TypeError):
            jsonio.require_real("x", value, "(0, 1]")
    for value in (0.0, 1.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            jsonio.require_real("x", value, "(0, 1]")
    with pytest.raises(ValueError):
        jsonio.require_real("x", math.inf, "(0, inf)")
    # a JSON integer beyond the double range is out of range, not a crash
    for value in (10**400, -10**400):
        with pytest.raises(ValueError, match="finite"):
            jsonio.require_real("x", value, "(-inf, inf)")


def test_require_array_names_the_first_bad_entry():
    assert jsonio.require_array("a", [[1, 2.5], (np.float32(3), -0.0)], (None, 2)).tobytes() == \
        np.array([[1.0, 2.5], [3.0, -0.0]]).tobytes()
    array = np.arange(4.0).reshape(2, 2)
    checked = jsonio.require_array("a", array, (2, 2))
    assert checked is not array and checked.tobytes() == array.tobytes()
    assert jsonio.require_array("c", [1, 2j, np.complex64(3)], (None,), complex).tolist() == [
        1, 2j, 3]
    for values, error, entry in (
        ([[0.0, 1.0], [2.0]], ValueError, r"a\[1\] must have shape \(2,\)"),
        ([[0.0, 1.0], 0.5], ValueError, r"a\[1\] must have shape"),
        ([[0.0, 1.0], [True, 0.0]], TypeError, r"a\[1\]\[0\] "),
        ([[0.0, 1.0], [0.0, "1"]], TypeError, r"a\[1\]\[1\] "),
        ([[0.0, 1.0], [0.0, 1j]], TypeError, r"a\[1\]\[1\] "),
        ([[0.0, 1.0], [0.0, 10**400]], ValueError, r"a\[1\]\[1\] "),
        ([[0.0, math.inf], [math.nan, 0.0]], ValueError, r"a\[0\]\[1\] must be finite"),
        (np.array([[0.0, 1.0], [math.nan, 0.0]]), ValueError, r"a\[1\]\[0\] must be finite"),
        (np.zeros((2, 2), dtype=bool), TypeError, r"a\[0\]\[0\] "),
        (np.zeros((2, 3)), ValueError, r"a must have shape \(n, 2\), got shape \(2, 3\)"),
        ({"re": 0.0}, ValueError, r"a must have shape \(n, 2\)"),
        ("01", ValueError, r"a must have shape \(n, 2\)"),
    ):
        with pytest.raises(error, match=entry):
            jsonio.require_array("a", values, (None, 2))


def test_require_array_walks_only_a_list_that_is_not_all_floats(monkeypatch):
    walked = []
    walk = jsonio._require_entries
    monkeypatch.setattr(jsonio, "_require_entries",
                        lambda label, *args: walked.append(label) or walk(label, *args))
    # a 121-mode key as a JSON reader gives it: rows of two floats
    pairs = [[0.25 * i, -0.5 * i] for i in range(121)]
    assert jsonio.require_array("coefficients", pairs, (None, 2)).tolist() == pairs
    assert jsonio.require_array("mask", pairs[3], (2,)).tolist() == pairs[3]
    assert jsonio.require_array("mask", [], (None,)).shape == (0,)
    assert walked == []
    # any other list is walked, which names the first bad entry as before
    for row, bad, error, message in (
        (4, [0.5, "x"], TypeError, "coefficients[4][1] must be a real number, got 'x'"),
        (4, [0.5, True], TypeError, "coefficients[4][1] must be a real number, got True"),
        (4, [0.5], ValueError, "coefficients[4] must have shape (2,), got [0.5]"),
        (7, (0.5, 1.0), None, None),
        (7, [1, 1.0], None, None),
    ):
        walked.clear()
        document = [list(pair) for pair in pairs]
        document[row] = bad
        if error is None:
            assert jsonio.require_array("coefficients", document, (None, 2))[row].tolist() \
                == [float(value) for value in bad]
        else:
            with pytest.raises(error) as raised:
                jsonio.require_array("coefficients", document, (None, 2))
            assert str(raised.value) == message
        assert walked[0] == "coefficients"


def test_round_trip_keeps_number_types():
    document = {
        "floats": [2500.0, 0.0, -0.0, 1e16, 1e17, 1.0, -3.0],
        "ints": [2500, 0, -3, 10**20],
    }
    text = jsonio.dumps(document)
    assert '"floats": [\n    2500.0,' in text
    restored = json.loads(text)
    assert restored == document
    assert all(type(value) is float for value in restored["floats"])
    assert all(type(value) is int for value in restored["ints"])
    assert math.copysign(1.0, restored["floats"][2]) == -1.0


def test_numpy_scalars_render_like_python_scalars():
    document = {
        "int": np.int64(7), "uint": np.uint8(3), "float": np.float64(2500.0),
        "single": np.float32(0.5), "true": np.bool_(True), "false": np.bool_(False),
    }
    restored = json.loads(jsonio.dumps(document))
    assert restored == {"int": 7, "uint": 3, "float": 2500.0, "single": 0.5,
                        "true": True, "false": False}
    assert type(restored["int"]) is int and type(restored["float"]) is float
    assert jsonio.dumps(np.int64(7)) == jsonio.dumps(7)
    assert jsonio.dumps(np.float64(0.1)) == jsonio.dumps(0.1)
    with pytest.raises(ValueError):
        jsonio.dumps({"value": np.float64(math.nan)})


def test_rejects_unknown_types():
    with pytest.raises(TypeError):
        jsonio.dumps({"value": object()})
    # json would write these keys as strings; no artifact has them
    for key in (1, 2.5, None, True):
        with pytest.raises(TypeError):
            jsonio.dumps({key: 0})


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


def test_failed_write_keeps_the_old_file_and_leaves_no_temporary(tmp_path):
    target = tmp_path / "table.csv"
    jsonio.write_csv(target, ("a",), [(1,)])

    def rows():
        yield (2,)
        raise RuntimeError("row source failed")

    with pytest.raises(RuntimeError):
        jsonio.write_csv(target, ("a",), rows())
    assert target.read_bytes() == b"a\n1\n"
    assert [path.name for path in tmp_path.iterdir()] == ["table.csv"]


def test_write_csv_writes_numbers_as_repr_and_text_verbatim(tmp_path):
    floats = [0.1, -0.0, 2500.0, 1e16, 1e-05, 5e-324, 0.1 + 0.2, -1.7976931348623157e308]
    ints = [0, -7, 2**70]
    values = [*floats, *ints, True, False]
    target = tmp_path / "values.csv"
    jsonio.write_csv(target, ("value",), [(value,) for value in values])
    lines = target.read_text(encoding="utf-8").splitlines()
    assert lines == ["value", *map(repr, values)]
    assert lines[1:7] == ["0.1", "-0.0", "2500.0", "1e+16", "1e-05", "5e-324"]
    # text, such as a value many rows share rendered once, is written as it is
    jsonio.write_csv(target, ("D", "x"), [("0.05", 1.5), ("0.05", "-0.0")])
    assert target.read_bytes() == b"D,x\n0.05,1.5\n0.05,-0.0\n"


def test_renamed_refusals_name_the_typed_field_and_keep_the_exception():
    with pytest.raises(ValueError, match=r"^n_probe_states must be at least 3, got 2$") as caught:
        with jsonio.renamed_refusals(size="n_probe_states"):
            jsonio.require_int("size", 2, 3)
    assert type(caught.value) is ValueError
    with pytest.raises(TypeError, match=r"^eta must be a real number"):
        with jsonio.renamed_refusals(efficiency="eta"):
            jsonio.require_real("efficiency", "0.5", "(0, 1]")
    # a name it does not map, and an error of another kind, pass unchanged
    with pytest.raises(ValueError, match=r"^tau must"):
        with jsonio.renamed_refusals(size="n_probe_states"):
            jsonio.require_real("tau", 2.0, "(0, 1]")
    with pytest.raises(KeyError):
        with jsonio.renamed_refusals(size="n_probe_states"):
            {}["size"]
