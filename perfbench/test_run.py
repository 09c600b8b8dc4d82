"""Smoke test of the benchmark: ``python3 -m pytest perfbench`` from the repository root."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_runner():
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["paper_verify", "clone_sweep", "false_key_cloud"])
def test_smoke_prints_every_metric(workload, capsys):
    runner = load_runner()
    assert runner.main(["--workload", workload, "--seed", "3", "--smoke"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    expected = dict(runner.END_TO_END + runner.PER_LAYER)
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit
                   for line in lines), name
    value = {name: m["value"] for name, m in metrics.items()}
    # a verification allocates its session arrays; tracemalloc must see them
    assert (value["protocol.verify.bytes_computed"] > 0) == (value["protocol.verify.calls"] > 0)
    # clone_cloud's sweep verifies clones but writes no outcome of them
    expected_ratio = 2 / 3 if workload == "clone_sweep" else 1.0
    assert value["experiments.verify_useful_ratio"] == pytest.approx(expected_ratio)


def test_typical_pass_takes_each_operations_median():
    runner = load_runner()
    nominal = runner.NOMINAL_REFERENCE_S
    passes = [
        runner.PassResult([1.0, 2.0], [nominal, nominal], [], 0),
        # the host ran at half speed during this pass's second operation
        runner.PassResult([2.0, 6.0], [nominal, 2 * nominal], [], 0),
        runner.PassResult([3.0, 4.0], [nominal, nominal], [], 0),
    ]
    assert runner.typical_pass_s(passes, scaled=False) == pytest.approx(2.0 + 4.0)
    assert runner.typical_pass_s(passes, scaled=True) == pytest.approx(2.0 + 3.0)


def test_metric_lists_match_benchmark_json():
    runner = load_runner()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == [
        (name, unit) for name, unit in runner.END_TO_END
        if name in runner.BOUNDED_END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(runner.PER_LAYER)
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(runner.WORKLOADS)


def test_fails_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "tracing.py"):
        shutil.copy(HERE / name, bench / name)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clone_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
