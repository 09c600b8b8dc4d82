import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cvpuk
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
from cvpuk.cli import build_parser, main
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


@pytest.mark.parametrize("flags", [
    *(pytest.param(flags, id="-".join(flags)) for flags in (
        ("--eta", "0"), ("--n-modes", "0"), ("--mu-c", "nan"), ("--epsilon", "0"),
        ("--zeta", "inf"), ("--l-over-L", "1"), ("--delta-over-sigma", "-2"),
        ("--epsilon", "1e-200"),
        # a bin width outside the recommended bracket would warn, but only
        # once every check that can refuse has passed
        ("--delta-over-sigma", "10", "--epsilon", "0"),
    )),
    pytest.param(("--n-modes", str(10**400)), id="--n-modes-1e400"),
])
def test_thresholds_bad_flag_exits_2_without_output(capsys, flags):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["thresholds", *flags]) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("flags,advice", [
    (("--delta-over-sigma", "10"), "bin_width"),
    (("--epsilon", "0.4"), "error_level"),
], ids=["bin_width", "error_level"])
def test_thresholds_advises_once_and_prints_every_line(capsys, flags, advice):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["thresholds", *flags]) == 0
    assert [str(warning.message).split()[0] for warning in caught] == [advice]
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert names == ["sigma", "delta", "P_in", "M_th", "E_th", "E_expected", "rho_f", "rho_t"]


BIN_WIDTH_ADVICE = ("warning: bin_width 9.534625892455923 outside the recommended bracket "
                    "[1.9069251784911845, 3.813850356982369)\n")


def _default_display(message, category, filename, lineno, file=None, line=None):
    """What ``warnings.showwarning`` does by default: ``formatwarning`` text on stderr.
    pytest records warnings rather than showing them, so a test puts it back."""
    sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))


def test_advice_is_shown_as_one_warning_line(capsys, monkeypatch):
    shown = warnings.formatwarning
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        monkeypatch.setattr(warnings, "showwarning", _default_display)
        assert main(["thresholds", "--delta-over-sigma", "10"]) == 0
    assert capsys.readouterr().err == BIN_WIDTH_ADVICE
    assert warnings.formatwarning is shown


def test_command_line_advice_names_no_source_line():
    env = dict(os.environ, PYTHONPATH=str(Path(cvpuk.__file__).parents[1]))
    env.pop("PYTHONWARNINGS", None)
    result = subprocess.run(
        [sys.executable, "-m", "cvpuk.cli", "thresholds", "--delta-over-sigma", "10"],
        capture_output=True, text=True, env=env, timeout=120, check=False)
    assert result.returncode == 0
    assert result.stderr == BIN_WIDTH_ADVICE


def _run_with_warnings(action, *argv):
    """The command line in a child process under ``python -W action``."""
    env = dict(os.environ, PYTHONPATH=str(Path(cvpuk.__file__).parents[1]))
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run([sys.executable, "-W", action, "-m", "cvpuk.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120, check=False)


def test_campaign_advises_once_under_always(tmp_path):
    # 3 mode counts x 5 fractions x 2 chunks of clones, all verified at one bin width
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"experiment_id": "cheating_curve", "trials": 300,
                                       "delta_over_sigma": 10.0}))
    result = _run_with_warnings("always", "campaign", "--config", str(config_path),
                                "--out", str(tmp_path / "out"))
    assert result.returncode == 0
    assert result.stderr == BIN_WIDTH_ADVICE


def test_advice_raised_as_an_error_exits_2_with_one_error_line():
    result = _run_with_warnings("error", "thresholds", "--epsilon", "0.4")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == ("error: error_level 0.4 is not small against the in-bin "
                             "probability 0.682689492137086\n")


def test_verify_advice_raised_as_an_error_exits_2_without_a_report(tmp_path):
    # 1 is verify's reject code, so advice turned into an error must not exit with it
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path, n_modes=16, delta_over_sigma=5.0)
    enrolled = tmp_path / "enrolled"
    assert main(["enroll", "--config", str(config_path), "--out", str(enrolled)]) == 0
    out_dir = tmp_path / "verified"
    result = _run_with_warnings(
        "error", "verify", "--database", str(enrolled / "database.json"),
        "--key", str(enrolled / "key.json"), "--out", str(out_dir))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: bin_width ") and result.stderr.count("\n") == 1
    assert not (out_dir / "report.json").exists()


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
    key_document = json.loads((out_dir / "key.json").read_text())
    database_document = json.loads((out_dir / "database.json").read_text())
    assert list(key_document) == ["l_over_L", "coefficients"]
    assert list(database_document) == [
        "probe_set", "channel", "setup_loss", "enrollment_error", "mask", "records"]
    assert [list(record) for record in database_document["records"]] == [["k", "x", "y"]] * 11
    key = ScatteringKey.from_dict(key_document)
    database = CrpDatabase.from_dict(database_document)
    assert key.mode_count == 32
    assert database.centers.shape == (11, 2)
    assert database.enrollment_error == 0.0


def test_enroll_sampled_mode(tmp_path):
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path, enrollment="sampled", per_quadrature_samples=25)
    out_dir = tmp_path / "out"
    assert main(["enroll", "--config", str(config_path), "--out", str(out_dir)]) == 0
    database = CrpDatabase.from_dict(json.loads((out_dir / "database.json").read_text()))
    assert database.enrollment_error == 1.0


def test_enroll_accepts_existing_key(tmp_path):
    key = generate_key(16, 0.2, substream(77, 0))
    key_path = tmp_path / "existing_key.json"
    jsonio.dump(key.to_dict(), key_path)
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path, n_modes=16, key_path=str(key_path))
    out_dir = tmp_path / "out"
    assert main(["enroll", "--config", str(config_path), "--out", str(out_dir)]) == 0
    written = ScatteringKey.from_dict(json.loads((out_dir / "key.json").read_text()))
    assert np.array_equal(written.coefficients, key.coefficients)
    assert (out_dir / "key.json").read_bytes() == key_path.read_bytes()


def test_enroll_refuses_a_config_l_over_L_the_key_file_disagrees_with(tmp_path, capsys):
    key_path = tmp_path / "key.json"
    jsonio.dump(generate_key(16, 0.2, substream(77, 0)).to_dict(), key_path)
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path, n_modes=16, key_path=str(key_path), l_over_L=0.9)
    out_dir = tmp_path / "out"
    assert main(["enroll", "--config", str(config_path), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: key has l_over_L 0.2, config says 0.9\n"
    assert not out_dir.exists()
    # the config's value is checked like any real field, and may be left out
    _write_enroll_config(config_path, n_modes=16, key_path=str(key_path), l_over_L="0.2")
    assert main(["enroll", "--config", str(config_path), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err.startswith("error: l_over_L must be a real number")
    config = _write_enroll_config(config_path, n_modes=16, key_path=str(key_path))
    del config["l_over_L"]
    config_path.write_text(json.dumps(config))
    assert main(["enroll", "--config", str(config_path), "--out", str(out_dir)]) == 0
    assert (out_dir / "key.json").read_bytes() == key_path.read_bytes()


def test_zero_variance_key_file_exits_2_without_output(tmp_path, capsys):
    # l_over_L = 1 would give the key variance 0; enroll and verify both refuse it
    key_path = tmp_path / "key.json"
    jsonio.dump(dict(generate_key(16, 0.2, substream(77, 0)).to_dict(), l_over_L=1.0), key_path)
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path, n_modes=16)
    assert main(["enroll", "--config", str(config_path), "--out", str(tmp_path / "db")]) == 0
    capsys.readouterr()

    _write_enroll_config(config_path, n_modes=16, key_path=str(key_path))
    assert main(["enroll", "--config", str(config_path), "--out", str(tmp_path / "enrolled")]) == 2
    verify_args = ["verify", "--database", str(tmp_path / "db" / "database.json"),
                   "--key", str(key_path), "--out", str(tmp_path / "verified"), "--trace"]
    assert main(verify_args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: l_over_L must be finite and lie in [0, 1)") == 2
    assert not (tmp_path / "enrolled").exists() and not (tmp_path / "verified").exists()


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


def test_parser_is_built_once_and_keeps_no_state_between_calls(tmp_path, capsys):
    build_parser.cache_clear()
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path)
    out_dir = tmp_path / "out"
    # after --seed 5, a plain enroll generates its key from the config's seed 9
    assert main(["enroll", "--config", str(config_path), "--out", str(out_dir / "s5"),
                 "--seed", "5"]) == 0
    assert main(["enroll", "--config", str(config_path), "--out", str(out_dir / "s9")]) == 0
    written = ScatteringKey.from_dict(jsonio.load(out_dir / "s9" / "key.json"))
    assert np.array_equal(written.coefficients,
                          generate_key(32, 0.2, substream(9, 0)).coefficients)
    # after --trace, a plain verify writes no trace
    verify_args = ["verify", "--database", str(out_dir / "s9" / "database.json"),
                   "--key", str(out_dir / "s9" / "key.json")]
    assert main(verify_args + ["--out", str(out_dir / "traced"), "--trace"]) == 0
    assert main(verify_args + ["--out", str(out_dir / "plain")]) == 0
    assert (out_dir / "traced" / "trace.csv").exists()
    assert sorted(path.name for path in (out_dir / "plain").iterdir()) == ["report.json"]
    # a usage error still exits 2, and the next call parses afresh
    with pytest.raises(SystemExit) as usage_error:
        main(["verify", "--key", str(out_dir / "s9" / "key.json")])
    assert usage_error.value.code == 2
    assert "required: --database" in capsys.readouterr().err
    assert main(["thresholds"]) == 0
    # functools.cache counts each run of the parser's body as a miss
    assert build_parser.cache_info().misses == 1


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
    document["enrollment_error"] = float("nan")
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
    (("database", "enrollment_error"), "0"),
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
    # exact enrollment, the default, draws no samples
    ("per_quadrature_samples", 25),
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


@pytest.mark.parametrize("field,value", [
    ("n_probe_states", 2), ("n_probe_states", 3.5), ("eta", 0.0), ("eta", "0.5"),
    ("mu_p", -1.0), ("n_modes", 0),
])
def test_enroll_refusal_names_the_field_typed(tmp_path, capsys, field, value):
    # ProbeSet, HomodyneChannel and generate_key check these fields under their
    # own parameter names (size, efficiency, mean_photons, mode_count)
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path, **{field: value})
    assert main(["enroll", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field} must ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,flags", [
    ("thresholds", ("--eta", "0")), ("thresholds", ("--n-modes", "0")),
    ("thresholds", ("--mu-c", "nan")), ("thresholds", ("--epsilon", "0")),
    ("thresholds", ("--zeta", "inf")), ("thresholds", ("--l-over-L", "1")),
    ("thresholds", ("--delta-over-sigma", "-2")),
    ("verify", ("--sessions", "0")), ("verify", ("--epsilon", "2")), ("verify", ("--zeta", "0")),
])
def test_flag_refusal_names_the_flag_typed(tmp_path, capsys, command, flags):
    # the checks run under parameter names such as mean_challenge_photons and error_level
    argv = [command, *flags]
    if command == "verify":
        config_path = tmp_path / "config.json"
        _write_enroll_config(config_path, n_modes=16)
        assert main(["enroll", "--config", str(config_path), "--out", str(tmp_path)]) == 0
        argv += ["--database", str(tmp_path / "database.json"),
                 "--key", str(tmp_path / "key.json"), "--out", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {flags[0]} must ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("code,overrides", [
    (0, {}), (0, {"enrollment": "sampled", "per_quadrature_samples": 25}),
    (2, {"tau": 1.5}), (2, {"enrollment": "sampled", "per_quadrature_samples": 0}),
    (2, {"enrollment": "sampled", "per_quadrature_samples": 2.5}),
    (2, {"per_quadrature_samples": 25}), (2, {"n_modes": 2, "key_path": "zero_key.json"}),
], ids=["exact", "sampled", "tau", "samples-0", "samples-2.5", "exact-samples", "zero-key"])
def test_enroll_gives_no_bin_width_advice(tmp_path, capsys, code, overrides):
    # enrollment does not use the bin width, so even at 10 sigma it gives no
    # advice, whether it succeeds or refuses
    if "key_path" in overrides:  # a key that couples no light has no optimal mask
        key_path = tmp_path / overrides["key_path"]
        jsonio.dump({"l_over_L": 0.2, "coefficients": [[0.0, 0.0]] * 2}, key_path)
        overrides = dict(overrides, key_path=str(key_path))
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path, delta_over_sigma=10.0, **overrides)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["enroll", "--config", str(config_path), "--out", str(tmp_path / "out")]) \
            == code
    assert caught == []
    assert capsys.readouterr().err.count("\n") == (1 if code else 0)
    assert (tmp_path / "out").exists() == (code == 0)


def test_refused_verify_gives_no_advice(tmp_path, capsys):
    # a database enrolled at 10 sigma draws the bin-width advice, but only
    # from a verification that has passed every check that can refuse it
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path, n_modes=16, delta_over_sigma=10.0)
    enrolled = tmp_path / "enrolled"
    assert main(["enroll", "--config", str(config_path), "--out", str(enrolled)]) == 0
    key = enrolled / "key.json"
    short_key = tmp_path / "short_key.json"
    jsonio.dump(generate_key(8, 0.2, substream(77, 0)).to_dict(), short_key)
    string_key = tmp_path / "string_key.json"
    string_key.write_text(json.dumps(dict(json.loads(key.read_text()), l_over_L="0.2")))
    runs = {
        "epsilon-0": (2, ["--key", str(key), "--epsilon", "0"]),
        "8-mode-key": (2, ["--key", str(short_key)]),
        "string-l_over_L": (2, ["--key", str(string_key)]),
        "accepted": (0, ["--key", str(key)]),
    }
    for name, (code, flags) in runs.items():
        out_dir = tmp_path / name
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["verify", "--database", str(enrolled / "database.json"),
                         "--out", str(out_dir), *flags]) == code, name
        captured = capsys.readouterr()
        if code:
            assert caught == [], name
            assert captured.err.count("\n") == 1 and captured.err.startswith("error: "), name
            assert not out_dir.exists(), name
        else:
            assert [str(warning.message).split()[0] for warning in caught] == ["bin_width"]
            assert captured.err == ""


@pytest.mark.parametrize("field", ["enrolment", "target_mode"])
def test_enroll_unknown_field_exits_2_without_output(tmp_path, capsys, field):
    # a misspelt "enrollment" was ignored and the key enrolled exactly;
    # target_mode is no longer a field
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path, per_quadrature_samples=25,
                         **{field: "sampled" if field == "enrolment" else 0})
    out_dir = tmp_path / "out"
    assert main(["enroll", "--config", str(config_path), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: unknown enroll config fields: [{field!r}]\n"
    assert not out_dir.exists()


def test_negative_seeds_exit_2_naming_the_field(tmp_path, capsys):
    # refused up front, also where no random stream would be drawn: an
    # existing key enrolled exactly, or the enhancement-condition table
    key_path = tmp_path / "key.json"
    jsonio.dump(generate_key(32, 0.2, substream(77, 0)).to_dict(), key_path)
    config_path = tmp_path / "config.json"
    out_dir = tmp_path / "out"
    _write_enroll_config(config_path, key_path=str(key_path), seed=-3)
    assert main(["enroll", "--config", str(config_path), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == "error: seed must be at least 0, got -3\n"
    _write_enroll_config(config_path, key_path=str(key_path))
    assert main(["enroll", "--config", str(config_path), "--out", str(out_dir),
                 "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: --seed must be at least 0, got -1\n"

    assert main(["enroll", "--config", str(config_path), "--out", str(tmp_path / "db")]) == 0
    capsys.readouterr()
    assert main(["verify", "--database", str(tmp_path / "db" / "database.json"),
                 "--key", str(key_path), "--out", str(out_dir), "--seed", "-2"]) == 2
    assert capsys.readouterr().err == "error: --seed must be at least 0, got -2\n"

    campaign_path = tmp_path / "campaign.json"
    campaign_path.write_text(json.dumps({"experiment_id": "enhancement_condition", "seed": -5}))
    assert main(["campaign", "--config", str(campaign_path), "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == "error: seed must be at least 0, got -5\n"
    campaign_path.write_text(json.dumps({"experiment_id": "enhancement_condition"}))
    assert main(["campaign", "--config", str(campaign_path), "--out", str(out_dir),
                 "--seed", "-4"]) == 2
    assert capsys.readouterr().err == "error: seed must be at least 0, got -4\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("seed", [[], ["--seed", "4"]], ids=["config-seed", "flag-seed"])
def test_campaign_non_object_config_exits_2(tmp_path, capsys, seed):
    config_path = tmp_path / "campaign.json"
    config_path.write_text(json.dumps([{"experiment_id": "enhancement_condition"}]))
    out_dir = tmp_path / "out"
    assert main(["campaign", "--config", str(config_path), "--out", str(out_dir)] + seed) == 2
    assert capsys.readouterr().err.startswith("error: config must be a JSON object, got [")
    assert not out_dir.exists()


@pytest.mark.parametrize("legacy", [False, True], ids=["current", "legacy"])
def test_database_without_enrollment_error_exits_2_without_report(tmp_path, capsys, legacy):
    # a legacy file holds target_mode and an xi in every record instead
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path, enrollment="sampled", per_quadrature_samples=25)
    out_dir = tmp_path / "out"
    assert main(["enroll", "--config", str(config_path), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    database_path = out_dir / "database.json"
    document = json.loads(database_path.read_text())
    assert document.pop("enrollment_error") == 1.0
    if legacy:
        document["target_mode"] = 0
        for record in document["records"]:
            record["xi"] = 1.0
    database_path.write_text(json.dumps(document))
    report_dir = tmp_path / "report"
    assert main(["verify", "--database", str(database_path),
                 "--key", str(out_dir / "key.json"), "--out", str(report_dir)]) == 2
    assert capsys.readouterr() == ("", "error: missing field 'enrollment_error'\n")
    assert not report_dir.exists()


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


@pytest.mark.parametrize("field,value,message", [
    ("records", {"a": 1}, "records must be a JSON array"),
    ("records", [1, 2, 3], "records[0] must be a JSON object"),
    ("probe_set", [1], "probe_set must be a JSON object"),
    ("channel", None, "channel must be a JSON object"),
])
def test_verify_database_section_of_the_wrong_type_exits_2_naming_it(tmp_path, capsys, field,
                                                                     value, message):
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path)
    out_dir = tmp_path / "out"
    assert main(["enroll", "--config", str(config_path), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    database_path = out_dir / "database.json"
    document = json.loads(database_path.read_text())
    document[field] = value
    database_path.write_text(json.dumps(document))
    report_dir = tmp_path / "report"
    assert main(["verify", "--database", str(database_path), "--key", str(out_dir / "key.json"),
                 "--out", str(report_dir)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}, got ")
    assert not report_dir.exists()


@pytest.mark.parametrize("name", ["key", "database"])
def test_verify_file_that_is_not_an_object_exits_2_naming_it(tmp_path, capsys, name):
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path)
    out_dir = tmp_path / "out"
    assert main(["enroll", "--config", str(config_path), "--out", str(out_dir)]) == 0
    capsys.readouterr()
    (out_dir / f"{name}.json").write_text("[1]")
    report_dir = tmp_path / "report"
    assert main(["verify", "--database", str(out_dir / "database.json"),
                 "--key", str(out_dir / "key.json"), "--out", str(report_dir)]) == 2
    assert capsys.readouterr().err == f"error: {name} must be a JSON object, got [1]\n"
    assert not report_dir.exists()


@pytest.mark.parametrize("delta_over_sigma", [2.0, 5.0])
@pytest.mark.parametrize("command", ["verify", "verify --trace", "enroll"])
def test_key_whose_response_overflows_exits_2_without_output(tmp_path, capsys, command,
                                                             delta_over_sigma):
    # every coefficient is finite, but the key's response to a probe leaves the
    # double range; a key enrolled under its own optimal mask overflows already
    # in its masked sum.  Numpy warns on either overflow, and no warning may
    # escape, nor advice on a bin width (at 5) given before the refusal
    key_path = tmp_path / "key.json"
    jsonio.dump({"l_over_L": 0.2, "coefficients": [[1e308, 1e308]] * 16}, key_path)
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path, n_modes=16, delta_over_sigma=delta_over_sigma)
    enrolled = tmp_path / "enrolled"
    assert main(["enroll", "--config", str(config_path), "--out", str(enrolled)]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "out"
    if command == "enroll":
        _write_enroll_config(config_path, n_modes=16, delta_over_sigma=delta_over_sigma,
                             key_path=str(key_path))
        argv = ["enroll", "--config", str(config_path), "--out", str(out_dir)]
    else:
        argv = ["verify", "--database", str(enrolled / "database.json"), "--key", str(key_path),
                "--out", str(out_dir)] + command.split()[1:]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 2
    assert caught == []
    out, err = capsys.readouterr()
    assert (out, err.count("\n")) == ("", 1)
    assert err.startswith("error: responses must be finite")
    assert not out_dir.exists()


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
    assert replayed.session_trace.tobytes() == in_memory.session_trace.tobytes()


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


@pytest.mark.parametrize("command", ["verify", "enroll", "campaign"])
def test_deeply_nested_json_exits_2_without_output(tmp_path, capsys, command):
    # the parser's recursion limit is a malformed file, not a traceback
    # with exit code 1, verify's reject code
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    inputs = ["--database", str(deep), "--key", str(deep)] if command == "verify" \
        else ["--config", str(deep)]
    out_dir = tmp_path / "out"
    assert main([command, *inputs, "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == f"error: {deep}: JSON nested too deeply to read\n"
    assert not out_dir.exists()


def test_verify_out_of_memory_exits_2_without_output(tmp_path, capsys, monkeypatch):
    # a session trace too large to allocate is a refused input, not exit code
    # 1, verify's reject code; verify is stubbed, because whether a huge
    # allocation fails at once depends on the host's overcommit setting
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path, n_modes=4)
    enrolled = tmp_path / "enrolled"
    assert main(["enroll", "--config", str(config_path), "--out", str(enrolled)]) == 0
    capsys.readouterr()
    message = "Unable to allocate 8.00 TiB for an array with shape (1099511627776,)"

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("cvpuk.cli.verify", out_of_memory)
    out_dir = tmp_path / "out"
    # numpy's text is kept; a MemoryError raised with none still says what happened
    for message, printed in ((message, message), ("", "out of memory")):
        assert main(["verify", "--database", str(enrolled / "database.json"),
                     "--key", str(enrolled / "key.json"), "--sessions", "1099511627776",
                     "--trace", "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: {printed}\n"
        assert not out_dir.exists()


@pytest.mark.parametrize("sessions", [4095, 4096, 4097, 8193])
def test_verify_trace_csv_rows_at_block_edges(tmp_path, capsys, sessions):
    # the writer converts the trace 4,096 rows at a time; every row is written,
    # once, from Python ints and floats, exactly as a row-by-row writer would
    config_path = tmp_path / "config.json"
    _write_enroll_config(config_path, n_modes=4)
    enrolled = tmp_path / "enrolled"
    assert main(["enroll", "--config", str(config_path), "--out", str(enrolled)]) == 0
    main(["verify", "--database", str(enrolled / "database.json"), "--key",
          str(enrolled / "key.json"), "--sessions", str(sessions), "--seed", "3",
          "--trace", "--out", str(tmp_path / "out")])
    capsys.readouterr()

    database = CrpDatabase.from_dict(jsonio.load(enrolled / "database.json"))
    key = ScatteringKey.from_dict(jsonio.load(enrolled / "key.json"))
    report = verify(key, database, VerificationConfig(sessions, 0.05, 0.05),
                    substream(3, 0), trace=True)
    reference = ["k,theta,outcome,hit\n"] + [
        f"{int(k)!r},{float(theta)!r},{float(outcome)!r},{int(hit)!r}\n"
        for k, theta, outcome, hit in report.session_trace
    ]
    assert (tmp_path / "out" / "trace.csv").read_text() == "".join(reference)
    block = report.session_trace[:4096].tolist()
    assert {type(value) for row in block for value in row} == {int, float}


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


# random fields and flags give advice legitimately; as an error it would
# end the run at exit 2 before the command does its work
@pytest.mark.filterwarnings("ignore::UserWarning")
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
        # a misspelt or retired field as well as an arbitrary one
        name = draw(st.one_of(st.text(max_size=6), st.sampled_from(_RETIRED_FIELDS)))
        document[name] = draw(st.one_of(_WRONG, st.sampled_from(("exact", "sampled"))))
    return draw(_WRONG) if draw(st.integers(0, 9)) == 0 else document


_RETIRED_FIELDS = ("target_mode", "enrolment", "per_quadrature_sample", "Seed")


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
        if isinstance(document, dict) and set(document) - set(_ENROLL_FIELDS):
            assert code == 2
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


# random fields and flags give advice legitimately; as an error it would
# end the run at exit 2 before the command does its work
@pytest.mark.filterwarnings("ignore::UserWarning")
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
