"""The public surface: what the package exports, and what the benchmark calls."""

import ast
import dataclasses
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import cvpuk
from cvpuk import (
    CampaignConfig,
    CrpDatabase,
    HomodyneChannel,
    PhaseMask,
    ProbeSet,
    ScatteringKey,
    clone_key,
    generate_key,
    run_clone_experiments,
    run_collision_histogram,
    run_enhancement_condition,
    run_response_cloud,
    substream,
)

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("adversary", "cli", "experiments", "homodyne", "jsonio", "protocol",
           "scattering", "streams")


@pytest.mark.parametrize("module", (None,) + MODULES)
def test_every_exported_name_resolves(module):
    namespace = cvpuk if module is None else importlib.import_module(f"cvpuk.{module}")
    assert len(set(namespace.__all__)) == len(namespace.__all__)
    for name in namespace.__all__:
        assert hasattr(namespace, name), f"{namespace.__name__}.{name}"


def test_package_exports_only_what_it_imports():
    tree = ast.parse(Path(cvpuk.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assigned = {target.id for node in tree.body if isinstance(node, ast.Assign)
                for target in node.targets if isinstance(target, ast.Name)}
    assert set(cvpuk.__all__) == imported | (assigned - {"__all__"})


def _tracing():
    """The benchmark's tracing module, loaded from its file."""
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    for module, name, _ in _tracing().TRACED:
        assert callable(getattr(importlib.import_module(f"cvpuk.{module}"), name, None)), (
            f"cvpuk.{module}.{name}")


def test_clone_key_returns_the_clone_and_its_replaced_positions():
    true_key = generate_key(40, 0.2, substream(90, 0))
    result = clone_key(true_key, 0.1, substream(90, 1))
    assert isinstance(result, tuple) and len(result) == 2
    clone, replaced = result
    assert isinstance(clone, ScatteringKey)
    assert replaced.dtype.kind == "i" and replaced.shape == (4,)
    changed = np.flatnonzero(clone.coefficients != true_key.coefficients)
    assert changed.tolist() == sorted(replaced.tolist())


def _tiny_config(experiment_id):
    return CampaignConfig(experiment_id=experiment_id, n_modes=16, mode_counts=(16, 24),
                          d_values=(0.0, 0.5), photons_per_mode_values=(1.0, 5.0, 20.0),
                          trials=3, m_sessions=20, seed=5)


@pytest.mark.parametrize("run,experiment_id", [
    (run_collision_histogram, "collision_histogram"),
    (run_response_cloud, "response_cloud"),
    (run_enhancement_condition, "enhancement_condition"),
    (run_clone_experiments, "clone_cloud"),
    (run_clone_experiments, "cheating_curve"),
])
def test_campaign_results_hold_only_read_only_arrays_and_scalars(run, experiment_id):
    # a result is the sweep's arrays; histograms, cluster summaries and rows
    # are built by the campaign writer that writes them
    result = run(_tiny_config(experiment_id))
    for spec in dataclasses.fields(result):
        value = getattr(result, spec.name)
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, spec.name
            with pytest.raises(ValueError, match="read-only"):
                value[...] = 0
        else:
            assert type(value) in (bool, int, float), (spec.name, type(value))


def _called_name(call):
    """The name a call is made through: ``open`` for both ``open()`` and ``path.open()``."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _file_writes(tree):
    """Line numbers of ``csv`` imports and of calls that open a file for writing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(alias.name == "csv" for alias in node.names) \
                or isinstance(node, ast.ImportFrom) and node.module == "csv":
            yield node.lineno
        elif isinstance(node, ast.Call):
            func = node.func
            name = _called_name(node)
            if name in ("write_text", "write_bytes"):
                yield node.lineno
            elif name == "open":
                # builtin open(path, mode) or Path.open(mode); a mode that is
                # not a literal string counts as writing
                modes = node.args[1:2] if isinstance(func, ast.Name) else node.args[:1]
                modes += [keyword.value for keyword in node.keywords if keyword.arg == "mode"]
                if any(not (isinstance(mode, ast.Constant) and isinstance(mode.value, str))
                       or set("wax+") & set(mode.value) for mode in modes):
                    yield node.lineno


def test_only_jsonio_writes_files():
    writers = {}
    for path in sorted((ROOT / "src" / "cvpuk").glob("*.py")):
        lines = list(_file_writes(ast.parse(path.read_text(encoding="utf-8"))))
        if lines:
            writers[path.stem] = lines
    assert list(writers) == ["jsonio"], writers


# parameters whose domain is an interval of jsonio.REAL_INTERVALS, under the
# names the code that consumes them gives them
CONSUMED_PARAMETERS = {"tau", "l_over_L", "efficiency", "mean_photons", "bin_width",
                       "delta_over_sigma", "epsilon", "zeta", "error_level",
                       "confidence_param", "fraction"}


def _hand_written_intervals(tree):
    """Line numbers of comparisons between a number literal and a consumed parameter."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            names = {getattr(operand, "id", getattr(operand, "attr", None))
                     for operand in operands}
            if names & CONSUMED_PARAMETERS and any(
                    isinstance(operand, ast.Constant) and isinstance(operand.value, (int, float))
                    for operand in operands):
                yield node.lineno


def test_only_jsonio_writes_parameter_intervals():
    # the one interval of each parameter is in jsonio.REAL_INTERVALS; a
    # comparison such as ``0.0 < tau <= 1.0`` elsewhere would be a second copy
    copies = {}
    for path in sorted((ROOT / "src" / "cvpuk").glob("*.py")):
        if path.stem != "jsonio":
            lines = list(_hand_written_intervals(ast.parse(path.read_text(encoding="utf-8"))))
            if lines:
                copies[path.stem] = lines
    assert copies == {}


def _calls_to(names, node, scope=""):
    """``(qualified name of the enclosing function, line)`` of each call made
    through one of ``names``."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _calls_to(names, child, f"{scope}.{child.name}")
            continue
        if isinstance(child, ast.Call) and _called_name(child) in names:
            yield scope, child.lineno
        yield from _calls_to(names, child, scope)


def _callers(names, outside=None):
    """``{module.function: lines}`` of the calls through ``names`` in every
    module but ``outside``."""
    callers = {}
    for path in sorted((ROOT / "src" / "cvpuk").glob("*.py")):
        if path.stem != outside:
            for scope, line in _calls_to(names, ast.parse(path.read_text(encoding="utf-8"))):
                callers.setdefault(path.stem + scope, []).append(line)
    return callers


def test_only_public_p_in_gives_advice():
    # the bin width and the error level are advised on where verification
    # consumes them, after every check that can refuse the call
    callers = _callers({"warn"})
    assert list(callers) == ["protocol.public_p_in"], callers


def test_only_probe_set_responses_forms_a_response():
    # a key's response to probe k is quadrature_means(sum * alpha_k); enrollment,
    # verification and the campaign clouds all take it from ProbeSet.responses
    assert _callers({"quadrature_means", "amplitudes"}, outside="homodyne") == {}


def test_only_masked_terms_forms_a_masked_term():
    # every masked sum, a clone's included, adds up the terms
    # c_j sqrt(tau / n) e^{i phi_j} of scattering.masked_terms; a second
    # np.exp(1j * mask.phases) would form them in a second place
    sites = []
    for path in sorted((ROOT / "src" / "cvpuk").glob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(function, ast.FunctionDef) and any(
                    isinstance(call, ast.Call) and _called_name(call) == "exp"
                    and any(getattr(node, "attr", None) == "phases"
                            for arg in call.args for node in ast.walk(arg))
                    for call in ast.walk(function)):
                sites.append(f"{path.stem}.{function.name}")
    assert sites == ["scattering.masked_terms"]


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def test_verification_has_no_per_session_loop():
    # a session's outcome stays in numpy arrays from the draw to the report;
    # a Python loop here would build objects per session or per cell
    tree = ast.parse((ROOT / "src" / "cvpuk" / "protocol.py").read_text(encoding="utf-8"))
    scanned = {"verify", "verify_block", "hit_probabilities", "_cells"}
    loops = [(node.name, inner.lineno) for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name in scanned
             for inner in ast.walk(node) if isinstance(inner, _LOOPS)]
    assert loops == []
    assert scanned <= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_readers_leave_entry_checks_to_the_constructors():
    # ScatteringKey, PhaseMask and CrpDatabase check every entry of their
    # arrays, so a reader's own require_real on an entry would check it twice
    readers = ("scattering.ScatteringKey.from_dict", "protocol.CrpDatabase.from_dict")
    assert [scope for scope in _callers({"require_real"}) if scope.startswith(readers)] == []


def _centers(entries):
    """Six entries as three (x, y) centres: rows of an array, or pairs of a list."""
    if isinstance(entries, np.ndarray):
        return entries.reshape(3, 2)
    return [entries[0:2], entries[2:4], entries[4:6]]


# each type that holds an array, built from six entries, by the array's field name
ARRAY_HOLDERS = {
    "coefficients": lambda entries: ScatteringKey(entries, 0.2),
    "phases": PhaseMask,
    "centers": lambda entries: CrpDatabase(PhaseMask([0.0] * 4), _centers(entries), 0.0,
                                           ProbeSet(3, 2500.0), HomodyneChannel(0.55, 2.7),
                                           0.8),
}


@pytest.mark.parametrize("field", ARRAY_HOLDERS)
@pytest.mark.parametrize("bad,error", [
    ("0.5", TypeError), ("2j", TypeError), (True, TypeError), (np.bool_(False), TypeError),
    (math.nan, ValueError), (-math.inf, ValueError),
])
def test_array_holders_check_every_entry(field, bad, error):
    # the Python API refuses what the JSON readers refuse, naming the entry
    build = ARRAY_HOLDERS[field]
    for entries in ([1, 2, 3, 4, 5, 6], np.arange(6), np.arange(6.0)):
        build(entries)
    entries = [1, 2, 3, bad, 5, 6]
    with pytest.raises(error, match=field + (r"\[1\]\[1\]" if field == "centers" else r"\[3\]")):
        build(entries)
    if error is TypeError:  # a complex field asks for a complex number
        noun = "complex" if field == "coefficients" else "real"
        with pytest.raises(error, match=f"must be a {noun} number"):
            build(entries)
    with pytest.raises(error, match=field):
        build(np.full(6, bad))
