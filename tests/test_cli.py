import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvpuk import (
    CrpDatabase,
    ScatteringKey,
    VerificationConfig,
    enroll_exact,
    generate_key,
    jsonio,
    substream,
    verify,
)
from cvpuk.cli import main
from cvpuk.experiments import EXPERIMENT_IDS
from cvpuk.homodyne import HomodyneChannel, ProbeSet


def _write_enroll_config(path, **overrides):
    config = {
        "n_modes": 32,
        "l_over_L": 0.2,
        "mu_p": 2500.0,
        "tau": 0.8,
        "eta": 0.55,
        "delta_over_sigma": 2.0,
        "n_probe_states": 11,
        "seed": 9,
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return config


def test_thresholds_reports_constants(capsys):
    assert main([
        "thresholds", "--epsilon", "0.001", "--zeta", "0.001",
        "--mu-c", "2000", "--n-modes", "121",
    ]) == 0
    out = capsys.readouterr().out
    assert "22802708" in out
    assert "23.280625" in out
    assert "0.68268949213708" in out
    assert "rho_f" in out and "rho_t" in out and "sigma" in out


def test_thresholds_unit_efficiency(capsys):
    assert main([
        "thresholds", "--delta-over-sigma", "2", "--eta", "1",
    ]) == 0
    out = capsys.readouterr().out
    assert "0.7071067811865475" in out  # sigma = 1/sqrt(2)
    assert "0.68268949213708" in out


@pytest.mark.parametrize("flag,value", [
    ("--eta", "0"), ("--n-modes", "0"), ("--mu-c", "nan"), ("--epsilon", "0"),
    ("--zeta", "inf"), ("--l-over-L", "1"), ("--delta-over-sigma", "-2"),
    ("--epsilon", "1e-200"),
    pytest.param("--n-modes", str(10**400), id="--n-modes-1e400"),
])
def test_thresholds_bad_flag_exits_2_without_output(capsys, flag, value):
    assert main(["thresholds", flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_thresholds_out_of_range_threshold_exits_2_naming_the_photons_per_mode(capsys):
    assert main(["thresholds", "--mu-c", "1e-310"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: photons per mode ")


def test_enroll_writes_key_and_database(tmp_path):
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path)
    out_dir = tmp_path / "out"
    assert main(["enroll", "--config", str(config_path), "--out", str(out_dir)]) == 0
    key = ScatteringKey.from_dict(json.loads((out_dir / "key.json").read_text()))
    database = CrpDatabase.from_dict(json.loads((out_dir / "database.json").read_text()))
    assert key.mode_count == 32
    assert database.centers.shape == (11, 2)
    assert database.xi.shape == (11,)
    assert database.enrollment_error == 0.0


def test_enroll_sampled_mode(tmp_path):
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path, enrollment="sampled", per_quadrature_samples=25)
    out_dir = tmp_path / "out"
    assert main(["enroll", "--config", str(config_path), "--out", str(out_dir)]) == 0
    database = CrpDatabase.from_dict(json.loads((out_dir / "database.json").read_text()))
    assert database.enrollment_error == 1.0


def test_enroll_accepts_existing_key(tmp_path):
    key = generate_key(16, 0.2, substream(77, 0), target_mode=2)
    key_path = tmp_path / "existing_key.json"
    jsonio.dump(key.to_dict(), key_path)
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path, n_modes=16, key_path=str(key_path))
    out_dir = tmp_path / "out"
    assert main(["enroll", "--config", str(config_path), "--out", str(out_dir)]) == 0
    written = ScatteringKey.from_dict(json.loads((out_dir / "key.json").read_text()))
    assert np.array_equal(written.coefficients, key.coefficients)
    assert written.target_mode == 2


def test_enroll_missing_config_exits_2(tmp_path, capsys):
    assert main([
        "enroll", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path),
    ]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_accepts_enrolled_key(tmp_path):
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path)
    out_dir = tmp_path / "out"
    main(["enroll", "--config", str(config_path), "--out", str(out_dir)])
    code = main([
        "verify", "--database", str(out_dir / "database.json"),
        "--key", str(out_dir / "key.json"), "--out", str(out_dir),
        "--seed", "5", "--trace",
    ])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["accepted"] is True
    assert report["sessions"] == 1000
    trace = (out_dir / "trace.csv").read_text().splitlines()
    assert trace[0] == "k,theta,outcome,hit"
    assert len(trace) == 1001


def test_verify_rejects_false_key(tmp_path):
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path)
    out_dir = tmp_path / "out"
    main(["enroll", "--config", str(config_path), "--out", str(out_dir)])
    impostor = generate_key(32, 0.2, substream(78, 0))
    impostor_path = tmp_path / "impostor.json"
    jsonio.dump(impostor.to_dict(), impostor_path)
    code = main([
        "verify", "--database", str(out_dir / "database.json"),
        "--key", str(impostor_path), "--out", str(out_dir), "--seed", "6",
    ])
    assert code == 1
    report = json.loads((out_dir / "report.json").read_text())
    assert report["accepted"] is False


def test_verify_corrupted_database_exits_2(tmp_path, capsys):
    bad = tmp_path / "database.json"
    bad.write_text("{not json")
    key_path = tmp_path / "key.json"
    jsonio.dump(generate_key(8, 0.2, substream(79, 0)).to_dict(), key_path)
    assert main([
        "verify", "--database", str(bad), "--key", str(key_path),
        "--out", str(tmp_path),
    ]) == 2
    assert "error:" in capsys.readouterr().err


def test_verify_non_finite_database_exits_2(tmp_path, capsys):
    # the JSON reader refuses NaN literals before a database is built
    # (CrpDatabase's own finite check is covered in test_protocol)
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path)
    out_dir = tmp_path / "out"
    main(["enroll", "--config", str(config_path), "--out", str(out_dir)])
    database_path = out_dir / "database.json"
    document = json.loads(database_path.read_text())
    document["records"][3]["x"] = float("nan")
    document["records"][3]["xi"] = float("nan")
    database_path.write_text(json.dumps(document))
    assert "NaN" in database_path.read_text()
    assert main([
        "verify", "--database", str(database_path),
        "--key", str(out_dir / "key.json"), "--out", str(out_dir),
    ]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (out_dir / "report.json").exists()


def test_verify_truncating_integer_database_exits_2(tmp_path, capsys):
    # int() would truncate these to a valid 3-probe database
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path, n_probe_states=3)
    out_dir = tmp_path / "out"
    assert main(["enroll", "--config", str(config_path), "--out", str(out_dir)]) == 0
    database_path = out_dir / "database.json"
    document = json.loads(database_path.read_text())
    for record, k in zip(document["records"], (0.9, 1.2, 2.7)):
        record["k"] = k
    document["probe_set"]["size"] = 3.6
    database_path.write_text(json.dumps(document))
    assert main([
        "verify", "--database", str(database_path),
        "--key", str(out_dir / "key.json"), "--out", str(out_dir),
    ]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (out_dir / "report.json").exists()


# float() would read each of these as a valid number.  A path starts at
# the database or key document.
ILL_TYPED_REALS = [
    (("database", "setup_loss"), True),
    (("database", "probe_set", "mean_photons"), "2500"),
    (("database", "records", 2, "x"), "1.5"),
    (("database", "records", 2, "y"), False),
    (("database", "records", 2, "xi"), "0"),
    (("database", "channel", "efficiency"), "0.55"),
    (("database", "channel", "bin_width"), True),
    (("database", "mask", 5), "0.1"),
    (("key", "l_over_L"), "0.2"),
]


@pytest.mark.parametrize(
    "path,value", ILL_TYPED_REALS,
    ids=[".".join(map(str, path)) + f"={value!r}" for path, value in ILL_TYPED_REALS],
)
def test_verify_ill_typed_real_field_exits_2(tmp_path, capsys, path, value):
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path)
    out_dir = tmp_path / "out"
    assert main(["enroll", "--config", str(config_path), "--out", str(out_dir)]) == 0
    files = {"database": out_dir / "database.json", "key": out_dir / "key.json"}
    document = json.loads(files[path[0]].read_text())
    parent = document
    for step in path[1:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    files[path[0]].write_text(json.dumps(document))
    assert main([
        "verify", "--database", str(files["database"]), "--key", str(files["key"]),
        "--out", str(out_dir),
    ]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (out_dir / "report.json").exists()


@pytest.mark.parametrize("field,value", [
    ("n_probe_states", 11.5), ("n_modes", 32.0), ("seed", True), ("tau", 1.5),
    ("tau", True), ("mu_p", "2500"), ("key_path", 7), ("key_path", None),
    # no field: the whole document
    (None, [1, 2]), (None, "x"), (None, None),
])
def test_enroll_bad_config_exits_2_without_output(tmp_path, capsys, field, value):
    config_path = tmp_path / "config.json"
    if field is None:
        config_path.write_text(json.dumps(value))
    else:
        _write_enroll_config(config_path, **{field: value})
    out_dir = tmp_path / "out"
    assert main(["enroll", "--config", str(config_path), "--out", str(out_dir)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out_dir.exists()


def test_verify_malformed_key_exits_2_naming_the_pair(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path)
    out_dir = tmp_path / "out"
    assert main(["enroll", "--config", str(config_path), "--out", str(out_dir)]) == 0
    key_path = out_dir / "key.json"
    for bad in ([True, 0], [0.5]):
        document = json.loads(key_path.read_text())
        document["coefficients"][4] = bad
        broken = tmp_path / "broken_key.json"
        broken.write_text(json.dumps(document))
        assert main([
            "verify", "--database", str(out_dir / "database.json"),
            "--key", str(broken), "--out", str(tmp_path / "report"),
        ]) == 2
        assert "error: coefficients[4]" in capsys.readouterr().err
        assert not (tmp_path / "report").exists()


def test_cli_round_trip_matches_in_memory(tmp_path):
    # enroll -> serialize -> load -> verify must replay bit-for-bit
    config_path = tmp_path / "config.json"
    config = _write_enroll_config(config_path)
    out_dir = tmp_path / "out"
    main(["enroll", "--config", str(config_path), "--out", str(out_dir)])

    key = generate_key(config["n_modes"], config["l_over_L"], substream(config["seed"], 0))
    probes = ProbeSet(config["n_probe_states"], config["mu_p"])
    channel = HomodyneChannel.from_delta_ratio(config["eta"], config["delta_over_sigma"])
    database = enroll_exact(key, config["tau"], probes, channel)
    in_memory = verify(
        key, database, VerificationConfig(1000, 0.05, 0.05),
        substream(5, 0), trace=True,
    )

    loaded_db = CrpDatabase.from_dict(json.loads((out_dir / "database.json").read_text()))
    loaded_key = ScatteringKey.from_dict(json.loads((out_dir / "key.json").read_text()))
    replayed = verify(
        loaded_key, loaded_db, VerificationConfig(1000, 0.05, 0.05),
        substream(5, 0), trace=True,
    )
    assert replayed.to_dict() == in_memory.to_dict()
    assert replayed.session_trace == in_memory.session_trace


def test_campaign_command(tmp_path, capsys):
    config_path = tmp_path / "campaign.json"
    config_path.write_text(json.dumps({
        "experiment_id": "collision_histogram",
        "trials": 10,
        "m_sessions": 100,
        "seed": 4,
    }))
    out_dir = tmp_path / "campaign_out"
    assert main([
        "campaign", "--config", str(config_path), "--out", str(out_dir),
        "--seed", "123",
    ]) == 0
    echoed = json.loads((out_dir / "config.json").read_text())
    assert echoed["seed"] == 123
    assert (out_dir / "histogram.csv").exists()
    assert (out_dir / "summary.json").exists()


@pytest.mark.parametrize("text", [
    '{"experiment_id": "response_cloud", "tau": NaN}',
    '{"experiment_id": "response_cloud", "tau": 1.5}',
    '{"experiment_id": "response_cloud", "mu_p": Infinity}',
    '{"experiment_id": "clone_cloud", "d_values": [1.5]}',
])
def test_campaign_invalid_config_exits_2_without_output(tmp_path, capsys, text):
    config_path = tmp_path / "campaign.json"
    config_path.write_text(text)
    out_dir = tmp_path / "campaign_out"
    assert main(["campaign", "--config", str(config_path), "--out", str(out_dir)]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out_dir.exists()


def test_campaign_unknown_experiment_exits_2(tmp_path, capsys):
    config_path = tmp_path / "campaign.json"
    config_path.write_text(json.dumps({"experiment_id": "mystery"}))
    assert main([
        "campaign", "--config", str(config_path), "--out", str(tmp_path / "x"),
    ]) == 2
    assert "error:" in capsys.readouterr().err


# tiny valid values of every campaign field, so that a valid config runs in
# milliseconds; any session count costs the same, so m_sessions is no size
_SIZES = ("n_modes", "n_probe_states", "trials")
_VALID_FIELDS = {
    "n_modes": st.integers(1, 6),
    "l_over_L": st.floats(0.0, 0.9),
    "mu_p": st.floats(0.5, 1e4),
    "tau": st.floats(0.05, 1.0),
    "eta": st.floats(0.05, 1.0),
    "delta_over_sigma": st.floats(0.5, 4.0),
    "n_probe_states": st.integers(3, 5),
    "m_sessions": st.integers(1, 50),
    "epsilon": st.floats(0.01, 0.99),
    "zeta": st.floats(0.01, 0.99),
    "trials": st.integers(0, 3),
    "histogram_bin": st.floats(0.01, 1.0),
    "seed": st.integers(0, 2**64),
    "d_values": st.lists(st.floats(0.0, 1.0), max_size=3),
    "mode_counts": st.lists(st.integers(1, 6), max_size=2),
    "photons_per_mode_values": st.lists(st.floats(0.1, 100.0), max_size=3),
}
# what a hand-written config can hold in place of a valid value: wrong types,
# bools, NaN and infinities, numeric strings, out-of-range numbers
_WRONG = st.one_of(
    st.booleans(), st.none(), st.floats(), st.text(max_size=4),
    st.floats(allow_nan=False).map(repr), st.integers().map(str),
    st.integers(-10**400, 10**400), st.lists(st.floats(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)
# sizes stay small when valid: a huge valid size is a long run, not a fault
_WRONG_SIZE = st.one_of(_WRONG.filter(lambda v: not isinstance(v, int) or v <= 0),
                        st.integers(-3, 0))


@st.composite
def _campaign_documents(draw):
    document = {"experiment_id": draw(st.sampled_from(EXPERIMENT_IDS + ("nope",)))}
    # none, one or two fields go wrong, so that valid configs run as well
    wrong_fields = draw(st.lists(st.sampled_from(sorted(_VALID_FIELDS)), max_size=2,
                                 unique=True))
    for name, valid in _VALID_FIELDS.items():
        if name not in wrong_fields:
            if draw(st.booleans()):
                document[name] = draw(valid)
        else:
            wrong = _WRONG_SIZE if name in _SIZES else _WRONG
            if name == "mode_counts":
                wrong = st.one_of(wrong, st.lists(_WRONG_SIZE, min_size=1, max_size=2))
            elif name in ("d_values", "photons_per_mode_values"):
                wrong = st.one_of(wrong, st.lists(_WRONG, min_size=1, max_size=2))
            document[name] = draw(wrong)
    if draw(st.booleans()) and draw(st.booleans()):
        document[draw(st.text(max_size=6))] = draw(_WRONG)
    if draw(st.integers(0, 9)) == 0:
        del document["experiment_id"]
    return draw(st.one_of(st.just(document), _WRONG)) if draw(
        st.integers(0, 9)) == 0 else document


def _run(argv):
    """Exit code, stdout and stderr of one in-process run of the command line;
    an exception escaping ``main`` is the traceback the command would print."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusing the command line
            code = exc.code
    assert "Traceback" not in stderr.getvalue()
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_campaign_documents())
def test_campaign_config_fuzz_exits_cleanly(document):
    with tempfile.TemporaryDirectory() as tmp:
        config_path = Path(tmp) / "campaign.json"
        # json.dumps writes NaN and Infinity, which the reader must refuse
        config_path.write_text(json.dumps(document))
        out_dir = Path(tmp) / "out"
        code, _, stderr = _run(["campaign", "--config", str(config_path), "--out", str(out_dir)])
        assert code in (0, 2)
        if code == 0:
            assert (out_dir / "config.json").is_file() and (out_dir / "summary.json").is_file()
        else:
            assert stderr.startswith("error: ")
            assert not out_dir.exists()


class _KeyFile(int):
    """A valid ``key_path``: the mode count of a key file the test writes."""


_ENROLL_REQUIRED = ("n_modes", "mu_p", "tau", "eta", "delta_over_sigma", "n_probe_states",
                    "l_over_L")
_ENROLL_FIELDS = {
    **{name: _VALID_FIELDS[name] for name in _ENROLL_REQUIRED + ("seed",)},
    "target_mode": st.integers(-2**63, 2**63),
    "enrollment": st.sampled_from(("exact", "sampled")),
    # any sample count costs the same, so only the double range bounds it
    "per_quadrature_samples": st.integers(1, 10**300),
    "key_path": st.integers(1, 6).map(_KeyFile),
}


@st.composite
def _enroll_documents(draw):
    wrong_fields = draw(st.lists(st.sampled_from(sorted(_ENROLL_FIELDS)), max_size=2,
                                 unique=True))
    document = {}
    for name, valid in _ENROLL_FIELDS.items():
        if name in wrong_fields:
            if draw(st.booleans()):  # or left out
                document[name] = draw(_WRONG_SIZE if name in _SIZES else _WRONG)
        elif name in _ENROLL_REQUIRED or draw(st.booleans()):
            document[name] = draw(valid)
    if draw(st.booleans()) and draw(st.booleans()):
        document[draw(st.text(max_size=6))] = draw(_WRONG)
    return draw(_WRONG) if draw(st.integers(0, 9)) == 0 else document


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_enroll_documents())
def test_enroll_config_fuzz_exits_cleanly(document):
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(document, dict) and isinstance(document.get("key_path"), _KeyFile):
            key_path = Path(tmp) / "key_in.json"
            jsonio.dump(generate_key(document["key_path"], 0.2, substream(8, 0)).to_dict(),
                        key_path)
            document["key_path"] = str(key_path)
        config_path = Path(tmp) / "enroll.json"
        config_path.write_text(json.dumps(document))
        out_dir = Path(tmp) / "out"
        code, _, stderr = _run(["enroll", "--config", str(config_path), "--out", str(out_dir)])
        assert code in (0, 2)
        if code == 0:
            assert (out_dir / "key.json").is_file() and (out_dir / "database.json").is_file()
        else:
            assert stderr.startswith("error: ")
            assert not out_dir.exists()


_THRESHOLD_FLAGS = {
    "--epsilon": st.floats(0.001, 0.5),
    "--zeta": st.floats(0.001, 0.5),
    "--mu-c": st.floats(1.0, 1e6),
    "--n-modes": st.integers(1, 10**4),
    "--l-over-L": st.floats(0.0, 0.9),
    "--delta-over-sigma": st.floats(0.5, 6.0),
    "--eta": st.floats(0.05, 1.0),
}
# floats of every kind, integers past the double range, and words; a word
# that starts with "-" would be read as the next flag
_WRONG_FLAG = st.one_of(st.floats(), st.integers(-10**400, 10**400),
                        st.text(max_size=4).filter(lambda t: not t.startswith("-")))


@st.composite
def _threshold_argvs(draw):
    argv = ["thresholds"]
    wrong_flags = draw(st.lists(st.sampled_from(sorted(_THRESHOLD_FLAGS)), max_size=2,
                                unique=True))
    for flag, valid in _THRESHOLD_FLAGS.items():
        if flag in wrong_flags or draw(st.booleans()):
            value = draw(_WRONG_FLAG if flag in wrong_flags else valid)
            argv += [flag, value if isinstance(value, str) else repr(value)]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_threshold_argvs())
def test_thresholds_flag_fuzz_exits_cleanly(argv):
    code, stdout, stderr = _run(argv)
    assert code in (0, 2)
    if code == 0:
        assert len(stdout.splitlines()) == 8
    else:
        assert stdout == ""
        assert "error: " in stderr
