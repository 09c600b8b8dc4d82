import json
import math
import re
import tempfile
from pathlib import Path

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
    jsonio.write_csv(target, ("a",), [[1]])
    # the first 4,096-row block is written before the second is found to hold a NaN
    values = np.arange(5000.0)
    values[4100] = math.nan
    message = f"{target}: cannot write the non-finite nan of column a"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        jsonio.write_csv(target, ("a",), [values])
    assert target.read_bytes() == b"a\n1\n"
    assert [path.name for path in tmp_path.iterdir()] == ["table.csv"]


def test_write_csv_writes_numbers_as_repr_and_text_verbatim(tmp_path):
    floats = [0.1, -0.0, 2500.0, 1e16, 1e-05, 5e-324, 0.1 + 0.2, -1.7976931348623157e308]
    ints = [0, -7, 2**70]
    target = tmp_path / "values.csv"
    jsonio.write_csv(target, ("float",), [floats])
    lines = target.read_text(encoding="utf-8").splitlines()
    assert lines == ["float", *map(repr, floats)]
    assert lines[1:7] == ["0.1", "-0.0", "2500.0", "1e+16", "1e-05", "5e-324"]
    jsonio.write_csv(target, ("int",), [ints])
    assert target.read_text(encoding="utf-8").splitlines() == ["int", *map(repr, ints)]


@pytest.mark.parametrize("unproven", [0.5, 1e16, 2.0**-20])
def test_an_all_proven_block_and_a_block_with_one_value_for_repr(tmp_path, unproven):
    # the first block takes the kernel's all-proven branches, with signs and an
    # exponent field; the second its general ones, whose one proven exponent
    # under -4 belongs to a value that repr writes, so no field is written
    rng = np.random.default_rng(24)
    rows = jsonio._BLOCK_ROWS
    first = rng.standard_normal(rows) * 10.0 ** rng.integers(-8, 8, rows)
    first[:5] = [-0.0, 1e-05, 1.5e-05, -1.5e-05, -2500.0]
    second = rng.choice([-1.0, 1.0], rows) * rng.uniform(1.0, 10.0, rows) \
        * 10.0 ** rng.integers(-3, 8, rows)
    second[rows // 2] = unproven
    assert jsonio._shortest(np.abs(first))[3].all()
    assert np.flatnonzero(~jsonio._shortest(np.abs(second))[3]).tolist() == [rows // 2]
    assert jsonio._float_text(first).shape[1] == 48
    assert jsonio._float_text(second).shape[1] == 40
    column = np.concatenate([first, second])
    target = tmp_path / "blocks.csv"
    jsonio.write_csv(target, ("x",), [column])
    assert target.read_text(encoding="utf-8").splitlines() == ["x", *map(repr, column.tolist())]


def _lines(text):
    """The rows of a NUL-padded byte matrix, one a line, as the CSV writer joins them."""
    newlines = np.full((len(text), 1), ord("\n"), dtype=np.uint8)
    return np.concatenate([text, newlines], axis=1).tobytes().translate(None, b"\0").decode()


def _reprs(values):
    return "".join(f"{value!r}\n" for value in values)


def _float_lines(values):
    return _lines(jsonio._float_text(np.asarray(values, dtype=np.float64)))


def test_float_kernel_writes_repr_for_a_million_random_doubles():
    rng = np.random.default_rng(20)
    patterns = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
    decades = np.repeat(np.arange(-31, 17), 16_000)
    values = [patterns[np.isfinite(patterns)],
              rng.uniform(1.0, 10.0, len(decades)) * 10.0 ** decades,  # each decade alike
              10.0 ** rng.uniform(-6.0, 18.0, 100_000)]
    values = np.concatenate(values) * rng.choice([-1.0, 1.0], sum(map(len, values)))
    assert len(values) >= 1_000_000
    for block in np.array_split(values, 100):
        assert _float_lines(block) == _reprs(block.tolist())
    # the kernel, not its fallback, writes nearly every value in [1e-30, 1e13)
    covered = values[(np.abs(values) >= 1e-30) & (np.abs(values) < 1e13)]
    assert np.mean(jsonio._shortest(np.abs(covered))[3]) > 0.999


def _decimal_midpoints(rng):
    """Doubles exactly halfway between two neighbouring 17- or 16-digit
    decimals, ``j * 2**-(17 - E)`` and ``j * 2**-(16 - E)`` for odd ``j``,
    with their neighbours on each side."""
    values = []
    for exponent in range(-4, 16):
        for places in (17 - exponent, 16 - exponent):
            for _ in range(20):
                low, high = 10.0 ** exponent, 10.0 ** (exponent + 1)
                odd = 2 * int(rng.integers(int(low * 2.0 ** places) // 2,
                                           int(high * 2.0 ** places) // 2)) + 1
                if odd < 2**53:
                    values.append(math.ldexp(odd, -places))
    values = np.array(values)
    return np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])


def test_float_kernel_writes_repr_at_the_edge_cases():
    rng = np.random.default_rng(21)
    integral = [1.0, 7.0, 10.0, 100.0, 2500.0, 123456789.0, 4503599627370497.0, 1e15,
                9007199254740993.0, 9999999999999998.0]
    ones = [1e-4, 2.0**-1022, 5e-324, 1e16, 0.1, 0.1 + 0.2, 1 / 3, 0.0, 1.7976931348623157e308,
            1e-5, 1.5e-5, 1e-30, 9.99e-31, 1.89305012124321e-15]
    neighbours = [math.nextafter(value, direction) for value in ones + integral
                  for direction in (0.0, math.inf) if value < 1.7976931348623157e308]
    powers = [2.0**p for p in range(-1074, 1024)]
    # halfway between two 16- or 17-digit decimals that both read back, where
    # repr picks the even one, or halfway past its shortest digits
    ties = [600000000000000.25, 600000000000000.75, 1 + 2**-17, 999999999999999.875]
    values = np.concatenate([ones, integral, neighbours, powers, ties, _decimal_midpoints(rng)])
    values = np.concatenate([values, -values])
    assert _float_lines(values) == _reprs(values.tolist())
    assert _float_lines([600000000000000.25, 600000000000000.75]) == \
        "600000000000000.2\n600000000000000.8\n"


def test_float_kernel_proves_no_value_that_needs_repr():
    # a power-of-two significand has a smaller ulp below than above, and at one
    # half repr picks between two decimals that both read back
    powers = np.array([2.0**p for p in range(-13, 54)])
    halves = np.array([1 + 2**-17, 600000000000000.25, 600000000000000.75])
    outside = np.array([math.nextafter(1e-30, 0.0), 1e16, 5e-324, 1e300])
    for values in (powers, halves, outside):
        assert not jsonio._shortest(values)[3].any()
    neighbours = np.nextafter(np.concatenate([powers[powers < 2.0**40], halves]), np.inf)
    assert jsonio._shortest(neighbours)[3].all()
    assert jsonio._shortest(np.array([0.0, 1e-30, 1e-5, 1e-4, 0.1, 2500.0,
                                      9999999999999998.0]))[3].all()


def test_a_wider_slack_writes_no_wrong_digit(monkeypatch):
    # a random double's nearest short decimal is almost never within 2**-47 of
    # its interval's edge or of one half; widened, the slack leaves more values
    # to repr, and none is written wrong
    rng = np.random.default_rng(22)
    values = rng.uniform(1.0, 10.0, 100_000) * 10.0 ** rng.integers(-30, 13, 100_000)
    proven = np.mean(jsonio._shortest(values)[3])
    monkeypatch.setattr(jsonio, "_SLACK", 2.0**-6)
    assert np.mean(jsonio._shortest(values)[3]) < proven - 1e-4
    assert _float_lines(values) == _reprs(values.tolist())


def test_int_kernel_writes_str():
    rng = np.random.default_rng(23)
    signed = np.concatenate([rng.integers(-2**63, 2**63, 100_000, dtype=np.int64),
                             [0, -1, 9, 10, -10, 99_999, 2**63 - 1, -2**63],
                             rng.integers(-10**6, 10**6, 1000)])
    unsigned = np.array([0, 7, 10**19, 2**64 - 1], dtype=np.uint64)
    wide = np.array([2**70, -2**100, 5], dtype=object)
    for values in (signed, unsigned, wide, signed.astype(np.int32)[-1000:], np.array([0])):
        assert _lines(jsonio._int_text(values)) == "".join(f"{value}\n" for value in values.tolist())


@given(st.lists(st.tuples(finite_floats, st.integers(-2**63, 2**63 - 1)), max_size=300))
def test_every_column_renders_as_repr_or_str(rows):
    floats = [value for value, _ in rows]
    ints = [value for _, value in rows]
    with tempfile.TemporaryDirectory() as directory:
        target = Path(directory) / "table.csv"
        jsonio.write_csv(target, ("x", "k"), [np.array(floats, dtype=np.float64),
                                              np.array(ints, dtype=np.int64)])
        assert target.read_text() == "x,k\n" + "".join(f"{x!r},{k}\n" for x, k in rows)


@pytest.mark.parametrize("columns,error", [
    ([[1.0], [1.0, 2.0]], ValueError),
    ([[1.0]], ValueError),
    ([[True, False], [1, 2]], TypeError),
    ([np.array([1.0], dtype=np.float32), [1]], TypeError),
    ([["a"], [1]], TypeError),
    ([[[1.0]], [1]], TypeError),
])
def test_write_csv_refuses_columns_it_cannot_write(tmp_path, columns, error):
    with pytest.raises(error, match=f"^{re.escape(str(tmp_path / 'table.csv'))}: "):
        jsonio.write_csv(tmp_path / "table.csv", ("a", "b"), columns)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_csv_refuses_non_finite_floats(tmp_path, value):
    target = tmp_path / "table.csv"
    with pytest.raises(ValueError, match=f"^{re.escape(str(target))}: cannot write the "
                                         f"non-finite {value!r} of column y$"):
        jsonio.write_csv(target, ("k", "x", "y"), [[1, 2], [0.5, 1.5], [2.5, value]])
    assert not list(tmp_path.iterdir())


def test_write_artifacts_creates_the_directory_and_writes_in_the_order_given(tmp_path):
    document = {"seed": 3, "values": [0.1, 2500.0]}
    header, columns = ("trial", "x"), [np.array([0, 1]), np.array([0.1, -0.0])]
    out_dir = tmp_path / "a" / "b"
    paths = jsonio.write_artifacts(str(out_dir), {
        "summary": ("summary.json", document),
        "table": ("table.csv", (header, columns)),
        "config": ("config.json", [1, 2]),
    })
    assert list(paths) == ["summary", "table", "config"]
    assert paths == {"summary": out_dir / "summary.json", "table": out_dir / "table.csv",
                     "config": out_dir / "config.json"}
    # each file has the bytes of the writer its suffix names
    jsonio.dump(document, tmp_path / "summary.json")
    jsonio.write_csv(tmp_path / "table.csv", header, columns)
    jsonio.dump([1, 2], tmp_path / "config.json")
    for path in paths.values():
        assert path.read_bytes() == (tmp_path / path.name).read_bytes()
    assert sorted(path.name for path in out_dir.iterdir()) == \
        ["config.json", "summary.json", "table.csv"]
    # an existing directory is written into, and its other files are left
    (out_dir / "other.txt").write_text("kept")
    assert jsonio.write_artifacts(out_dir, {"summary": ("summary.json", {})}) == \
        {"summary": out_dir / "summary.json"}
    assert (out_dir / "summary.json").read_text() == "{}\n"
    assert (out_dir / "other.txt").read_text() == "kept"

