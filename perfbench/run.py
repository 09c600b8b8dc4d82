"""Benchmark of the cvpuk simulator: three workloads, checked against closed forms.

Run from the repository root, one workload per process so that its peak
RSS is its own:

    python3 perfbench/run.py --workload paper_verify --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload clone_sweep --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload false_key_cloud --smoke

Workloads (inputs are generated from ``--seed``):

* ``paper_verify`` -- the issuer and verifier path at paper scale through
  ``cvpuk.cli.main``: sampled enrollment of a 121-mode key with 1e6 draws
  per quadrature, then ``cvpuk verify`` of the genuine key, a fresh false
  key and a 3% clone at ``M_th(1e-3, 1e-3) = 22,802,708`` sessions.
  Per-session work in ``protocol`` dominates.
* ``clone_sweep`` -- ``run_campaign`` for ``clone_cloud``,
  ``clone_histograms`` and ``cheating_curve`` at the default config
  (3 mode counts x 5 clone fractions x 500 trials, 1000 sessions).
  Per-call overhead dominates: verification calls, sub-streams, clones.
* ``false_key_cloud`` -- ``run_campaign`` for ``response_cloud`` with 1e5
  false keys.  No verification at all: key generation, sub-streams and
  artifact writing.

A pass runs a workload's operations once; its outputs are checked
against closed forms after the timer stops.  Passes repeat while
another one fits in ``--seconds``.  With ``--trace 0`` the run reports,
with tracing off:

* ``setup_s`` -- from the start of the process through importing cvpuk,
  plus the median of five constructions of the inputs and key files;
* ``wall_s`` -- the time of a typical pass: each operation's median
  time over the passes, summed;
* ``keys_per_s`` -- keys verified, or placed in phase space, per pass,
  divided by ``wall_s``;
* ``peak_rss_mb`` -- peak RSS of this process;
* ``sessions_per_s`` -- homodyne draws (verification sessions plus
  enrollment samples) the inputs call for, divided by ``wall_s``;
* ``failed_frac`` -- failed operations over attempted ones.

The last two are printed but left out of the JSON metrics, because they
are 0 on some workloads or on a correct program.  ``wall_s``, and with
it the two rates, is scaled to a host of nominal speed (see
``time_reference``); the unscaled figure is printed too.  With ``--trace 1`` the
run alternates untraced and traced passes and reports per-layer metrics
from the spans (see ``tracing.py``), plus the tracing overhead; when the
workload verifies keys, one more untimed pass measures with tracemalloc
the memory each verification allocates.

``--smoke`` runs tiny inputs, one pass of each kind, and prints every
metric name with its unit.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
All program output goes to a temporary directory under this directory,
removed at exit; ``--trace 1`` also writes its spans to
``out/spans-<workload>.csv`` here.
"""

from __future__ import annotations

import os
import time


def _process_age_s() -> float:
    """Seconds since this process started; called first thing, this is the
    interpreter's start-up.  Linux reports the start in clock ticks
    (10 ms); elsewhere this is 0."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            start_ticks = int(handle.read().rsplit(")", 1)[1].split()[19])
        started = start_ticks / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


# set-up time is counted from process start: imports, inputs and key files
_STARTUP_S = _process_age_s()
_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# end-to-end metrics; the last two can be 0 (sessions_per_s on
# false_key_cloud, failed_frac on a correct program), so they are printed
# but carry no regression bound and are left out of the JSON metrics
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("keys_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sessions_per_s", "1/s"),
    ("failed_frac", "ratio"),
)
BOUNDED_END_TO_END = ("setup_s", "wall_s", "keys_per_s", "peak_rss_mb")

# per-layer metrics from the traced run; "computed" ones are derived from
# sizes rather than timed or counted, and protocol.verify.bytes_computed is
# the tracemalloc peak of each verification, summed over the calls
PER_LAYER = (
    ("protocol.verify.calls", "count"),
    ("protocol.verify.self_s", "s"),
    ("protocol.verify.sessions", "count"),
    ("protocol.verify.ns_per_session", "ns"),
    ("protocol.verify.bytes_computed", "bytes"),
    ("protocol.enroll_sampled.self_s", "s"),
    ("protocol.enroll_sampled.draws", "count"),
    ("protocol.enroll_exact.calls", "count"),
    ("protocol.enroll_exact.self_s", "s"),
    ("streams.substream.calls", "count"),
    ("streams.substream.self_s", "s"),
    ("scattering.generate_key.calls", "count"),
    ("scattering.generate_key.self_s", "s"),
    ("scattering.optimal_mask.calls", "count"),
    ("scattering.optimal_mask.self_s", "s"),
    ("adversary.clone_key.calls", "count"),
    ("adversary.clone_key.self_s", "s"),
    ("adversary.false_key.calls", "count"),
    ("experiments.run_clone_experiments.calls", "count"),
    ("experiments.run_clone_experiments.self_s", "s"),
    ("experiments.verify_useful_ratio", "ratio"),
    ("experiments.run_response_cloud.self_s", "s"),
    ("experiments.run_campaign.self_s", "s"),
    ("experiments.artifact_bytes", "bytes"),
    ("jsonio.dump.calls", "count"),
    ("jsonio.dump.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)
UNITS = dict(END_TO_END + PER_LAYER)
COMPUTED = frozenset({
    "protocol.enroll_sampled.draws",
    "experiments.artifact_bytes",
})

SETUP_REPEATS = 5

# On a shared host the CPU's speed can drift 2-3x within minutes.  A fixed
# pure-Python kernel, timed just before every operation, measures the
# speed at that moment, and wall_s counts each operation in units of it:
# operation time / kernel time x NOMINAL_REFERENCE_S, the operation's time
# on a host where the kernel takes that long.  The kernel runs no cvpuk
# code, so every change to the program still shows in full.
REFERENCE_LOOPS = 1_000_000
NOMINAL_REFERENCE_S = 0.1


def time_reference() -> float:
    """Seconds the reference kernel takes on this host now."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i * i
    return time.perf_counter() - start


def import_program():
    """Import cvpuk from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "cvpuk" / "__init__.py").is_file():
        raise SystemExit(f"error: no cvpuk sources in {src}")
    sys.path.insert(0, str(src))
    import cvpuk
    import cvpuk.cli  # noqa: F401

    if Path(cvpuk.__file__).resolve().parent != (src / "cvpuk").resolve():
        raise SystemExit(f"error: imported cvpuk from {cvpuk.__file__}, not {src}")


@dataclass
class Op:
    """One operation of a pass: ``run`` is timed, ``check`` is not.

    ``check(result, out_dir)`` returns an error message, or None when the
    output is correct.
    """

    label: str
    run: Callable[[Path], object]
    check: Callable[[object, Path], str | None]


@dataclass
class Plan:
    """A workload's inputs: its operations and the work they deliver."""

    ops: list[Op]
    keys: int  # keys verified, or placed in phase space, per pass
    sessions: int  # homodyne draws the inputs call for, per pass
    verifications_needed: int  # verification outcomes the artifacts carry, per pass
    notes: dict


def run_cli(argv) -> tuple[int, str]:
    """Call ``cvpuk.cli.main`` in process, capturing what it prints."""
    from cvpuk import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli.main([str(arg) for arg in argv])
        except SystemExit as exc:
            code = exc.code
    return code, sink.getvalue()


def finite_numbers(document) -> bool:
    if isinstance(document, dict):
        return all(finite_numbers(v) for v in document.values())
    if isinstance(document, list):
        return all(finite_numbers(v) for v in document)
    if isinstance(document, float):
        return math.isfinite(document)
    return True


def read_json(path: Path):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def read_csv(path: Path) -> list[dict]:
    with open(path, "r", newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def p_in_closed_form(delta_over_sigma: float) -> float:
    """P_in = erf(delta / (2 sqrt2 sigma)) with delta in shot-noise units."""
    return math.erf(delta_over_sigma / (2.0 * math.sqrt(2.0)))


# ---------------------------------------------------------------- workloads

PHYSICS = {
    "n_modes": 121, "l_over_L": 0.2, "mu_p": 2500.0, "tau": 0.8,
    "eta": 0.55, "delta_over_sigma": 2.0, "n_probe_states": 11,
}


def plan_paper_verify(seed: int, work: Path, smoke: bool) -> Plan:
    """Keys, enrollment config and the enroll + 3 x verify CLI calls."""
    from cvpuk import jsonio
    from cvpuk.adversary import clone_key
    from cvpuk.scattering import generate_key
    from cvpuk.streams import substream

    if smoke:
        # M_th(0.05, 0.05)
        samples, epsilon, zeta, sessions = 1_000, 0.05, 0.05, 4_427
    else:
        # M_th(1e-3, 1e-3), the paper's high-assurance session count
        samples, epsilon, zeta, sessions = 1_000_000, 1e-3, 1e-3, 22_802_708
    n, l_over_L = PHYSICS["n_modes"], PHYSICS["l_over_L"]
    genuine = generate_key(n, l_over_L, substream(seed, 0))
    impostor = generate_key(n, l_over_L, substream(seed, 1))
    clone, _ = clone_key(genuine, 0.03, substream(seed, 2))
    keys = {}
    for name, key in (("genuine", genuine), ("false", impostor), ("clone", clone)):
        keys[name] = work / f"{name}_key.json"
        jsonio.dump(key.to_dict(), keys[name])
    config = work / "enroll.json"
    jsonio.dump({**PHYSICS, "key_path": str(keys["genuine"]), "enrollment": "sampled",
                 "per_quadrature_samples": samples, "seed": seed}, config)
    p_in = p_in_closed_form(PHYSICS["delta_over_sigma"])
    notes = {"clone_p_in": []}

    def enroll(out):
        return run_cli(["enroll", "--config", config, "--out", out / "enrolled"])

    def check_enroll(result, out):
        code, text = result
        if code != 0:
            return f"exit {code}: {text.strip()}"
        records = read_json(out / "enrolled" / "database.json")["records"]
        if len(records) != PHYSICS["n_probe_states"]:
            return f"{len(records)} records"
        return None

    def verifier(name, index):
        def run(out):
            return run_cli([
                "verify", "--database", out / "enrolled" / "database.json",
                "--key", keys[name], "--sessions", sessions, "--epsilon", epsilon,
                "--zeta", zeta, "--seed", seed * 4 + index, "--out", out / name,
            ])
        return run

    def report_of(result, out, name, codes):
        code, text = result
        if code not in codes:
            raise ValueError(f"exit {code}, expected {codes}: {text.strip()}")
        report = read_json(out / name / "report.json")
        if report["sessions"] != sessions:
            raise ValueError(f"{report['sessions']} sessions")
        if abs(report["p_in_expected"] - p_in) > 1e-12:
            raise ValueError(f"P_in {report['p_in_expected']} != erf form {p_in}")
        return report

    def check_genuine(result, out):
        report = report_of(result, out, "genuine", (0,))
        if not abs(report["p_in"] - p_in) < epsilon:
            return f"|p_in - P_in| = {abs(report['p_in'] - p_in)}"
        return None

    def check_false(result, out):
        report_of(result, out, "false", (1,))
        return None

    def check_clone(result, out):
        notes["clone_p_in"].append(report_of(result, out, "clone", (0, 1))["p_in"])
        return None

    ops = [
        Op("enroll", enroll, check_enroll),
        Op("verify_genuine", verifier("genuine", 1), check_genuine),
        Op("verify_false", verifier("false", 2), check_false),
        Op("verify_clone", verifier("clone", 3), check_clone),
    ]
    draws = 3 * sessions + 2 * PHYSICS["n_probe_states"] * samples
    # each CLI verification writes its verdict to its own report.json
    return Plan(ops, keys=3, sessions=draws, verifications_needed=3, notes=notes)


def campaign_op(config) -> Op:
    from cvpuk import experiments

    checks = {
        "clone_cloud": check_clone_cloud,
        "clone_histograms": check_clone_histograms,
        "cheating_curve": check_cheating_curve,
        "response_cloud": check_response_cloud,
    }[config.experiment_id]

    def run(out):
        return experiments.run_campaign(config, out / config.experiment_id)

    def check(paths, out):
        if not finite_numbers(read_json(paths["summary"])):
            return "non-finite number in summary.json"
        return checks(config, paths)

    return Op(config.experiment_id, run, check)


def check_clone_cloud(config, paths):
    for n in config.mode_counts:
        rows = read_csv(paths[f"cloud_n{n}"])
        if len(rows) != len(config.d_values) * config.trials:
            return f"n={n}: {len(rows)} cloud rows"
    return None


def check_clone_histograms(config, paths):
    for n in config.mode_counts:
        totals = {}
        for row in read_csv(paths[f"histograms_n{n}"]):
            totals[float(row["D"])] = totals.get(float(row["D"]), 0) + int(row["count"])
        if totals != {d: config.trials for d in config.d_values}:
            return f"n={n}: histogram totals {totals}"
    return None


def check_cheating_curve(config, paths):
    rows = read_csv(paths["cheating"])
    if len(rows) != len(config.d_values) * len(config.mode_counts):
        return f"{len(rows)} cheating rows"
    floor = 1.0 - 2.0 * config.zeta
    for row in rows:
        if float(row["D"]) == 0.0 and not float(row["accept_rate"]) >= floor:
            return f"n={row['n_modes']}: genuine accept rate {row['accept_rate']} < {floor}"
    return None


def check_response_cloud(config, paths):
    rows = read_csv(paths["cloud"])
    if len(rows) != config.trials:
        return f"{len(rows)} cloud rows"
    mean_sq = sum(float(r["x"]) ** 2 + float(r["y"]) ** 2 for r in rows) / len(rows)
    variance = (1.0 - config.l_over_L) / config.n_modes
    expected = 2.0 * config.mu_c * variance
    # |amplitude|^2 is exponential, so the sample mean has relative
    # deviation 1/sqrt(trials); 2% is about 6 of those at 1e5 keys
    tolerance = max(0.02, 6.0 / math.sqrt(config.trials))
    if not abs(mean_sq / expected - 1.0) < tolerance:
        return f"mean squared radius {mean_sq} vs 2 mu_c variance {expected}"
    return None


def plan_clone_sweep(seed: int, work: Path, smoke: bool) -> Plan:
    from cvpuk.experiments import CampaignConfig

    trials = 4 if smoke else 500
    configs = [CampaignConfig(experiment_id=e, trials=trials, seed=seed)
               for e in ("clone_cloud", "clone_histograms", "cheating_curve")]
    clones = {c.experiment_id: len(c.mode_counts) * len(c.d_values) * c.trials
              for c in configs}
    total = sum(clones.values())
    # the histograms and the cheating curve carry every clone's verification
    # outcome; the clone cloud writes phase-space points only
    needed = clones["clone_histograms"] + clones["cheating_curve"]
    return Plan([campaign_op(c) for c in configs], keys=total,
                sessions=total * configs[0].m_sessions, verifications_needed=needed,
                notes={})


def plan_false_key_cloud(seed: int, work: Path, smoke: bool) -> Plan:
    from cvpuk.experiments import CampaignConfig

    config = CampaignConfig(experiment_id="response_cloud",
                            trials=2_000 if smoke else 100_000, seed=seed)
    return Plan([campaign_op(config)], keys=config.trials, sessions=0,
                verifications_needed=0, notes={})


WORKLOADS = {
    "paper_verify": plan_paper_verify,
    "clone_sweep": plan_clone_sweep,
    "false_key_cloud": plan_false_key_cloud,
}


# ------------------------------------------------------------------ passes


@dataclass
class PassResult:
    op_s: list[float]  # time of each operation, in plan order
    reference_s: list[float]  # the reference kernel's time before each operation
    errors: list[str]
    artifact_bytes: int


def run_pass(plan: Plan, out: Path) -> PassResult:
    """Run every operation once, each timed, then check the outputs."""
    out.mkdir()
    results = []
    op_s = []
    reference_s = []
    for op in plan.ops:
        reference_s.append(time_reference())
        start = time.perf_counter()
        try:
            results.append(op.run(out))
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append(exc)
        op_s.append(time.perf_counter() - start)

    errors = []
    for op, result in zip(plan.ops, results):
        if isinstance(result, Exception):
            errors.append(f"{op.label}: {type(result).__name__}: {result}")
            continue
        try:
            problem = op.check(result, out)
        except Exception as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            errors.append(f"{op.label}: {problem}")
    size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    shutil.rmtree(out)
    return PassResult(op_s, reference_s, errors, size)


def typical_pass_s(passes: list[PassResult], scaled: bool) -> float:
    """Each operation's median time over the passes, summed; ``scaled``
    times each operation against the reference kernel run before it.

    The host's speed drifts over seconds, so each operation's median
    discards slow stretches that a whole pass would carry.
    """
    per_op = zip(*(
        [t / r * NOMINAL_REFERENCE_S for t, r in zip(p.op_s, p.reference_s)]
        if scaled else p.op_s
        for p in passes
    ))
    return sum(statistics.median(times) for times in per_op)


def environment() -> dict:
    import numpy

    import cvpuk

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cvpuk": cvpuk.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_caches": caches,
        "note": "timings on a shared machine are noisy; the benchmark changes "
                "no machine setting (CPU governor, caches, huge pages)",
    }


def layer_metrics(summary: dict, artifact_bytes: int, verifications_needed: int) -> dict:
    """Per-layer metrics of one traced pass from its span summary, all but
    ``protocol.verify.bytes_computed``, which comes from its own pass."""
    functions = summary["functions"]

    def stat(name, key):
        return functions.get(name, {}).get(key, 0)

    metrics = {}
    for name, _unit in PER_LAYER:
        function, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = stat(function, "calls")
        elif kind == "self_s":
            metrics[name] = stat(function, "self_ns") / 1e9
    sessions = stat("protocol.verify", "info")
    metrics["protocol.verify.sessions"] = sessions
    metrics["protocol.verify.ns_per_session"] = (
        stat("protocol.verify", "self_ns") / sessions if sessions else 0.0
    )
    metrics["protocol.enroll_sampled.draws"] = stat("protocol.enroll_sampled", "info")
    # the share of verification runs whose outcome an artifact needs; none
    # run wastes none
    calls = stat("protocol.verify", "calls")
    metrics["experiments.verify_useful_ratio"] = (
        min(calls, verifications_needed) / calls if calls else 1.0
    )
    metrics["experiments.artifact_bytes"] = artifact_bytes
    return metrics


@dataclass
class Measurement:
    passes: list[PassResult]  # untraced
    traced_passes: list[PassResult]
    layer_rows: list[dict]
    covered_s: list[float]
    attempted: int
    errors: list[str]
    verify_alloc_bytes: int = 0


def measure(plan: Plan, work: Path, seconds: float, trace: bool, once: bool,
            spans_path: Path) -> Measurement:
    """Run passes while another one ends before ``seconds`` are spent; with
    ``trace``, each untraced pass is followed by a traced one, and the last
    is an allocation pass.  At least one step always runs."""
    from tracing import AllocationMeter, Tracer, summarise, write_spans

    tracer = Tracer()
    result = Measurement([], [], [], [], 0, [])
    span_passes = []
    deadline = time.perf_counter() + seconds
    steps = []
    while True:
        started = time.perf_counter()
        untraced = run_pass(plan, work / f"pass{len(result.passes)}")
        result.passes.append(untraced)
        result.errors += untraced.errors
        result.attempted += len(plan.ops)
        if trace:
            with tracer.installed():
                traced = run_pass(plan, work / f"traced{len(result.traced_passes)}")
            spans = tracer.take()
            summary = summarise(spans)
            result.traced_passes.append(traced)
            result.errors += traced.errors
            result.attempted += len(plan.ops)
            result.layer_rows.append(
                layer_metrics(summary, traced.artifact_bytes, plan.verifications_needed)
            )
            result.covered_s.append(summary["top_level_ns"] / 1e9)
            span_passes.append(spans)
        steps.append(time.perf_counter() - started)
        # start no step that would, at the typical step time, end past the
        # deadline, so a run's length is known before it starts
        if once or time.perf_counter() + statistics.median(steps) > deadline:
            break
    if trace:
        write_spans(spans_path, span_passes)
        if result.layer_rows[-1]["protocol.verify.calls"]:
            meter = AllocationMeter("protocol", "verify")
            with meter.installed():
                metered = run_pass(plan, work / "allocations")
            result.errors += metered.errors
            result.attempted += len(plan.ops)
            result.verify_alloc_bytes = meter.peak_bytes
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one pass of each kind, every metric printed")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    import_program()
    sys.path.insert(0, str(HERE))
    imported = time.perf_counter() - _START
    make_plan = WORKLOADS[args.workload]
    trace = args.trace == 1 or args.smoke

    with tempfile.TemporaryDirectory(prefix=".tmp-", dir=HERE) as tmp:
        tmp = Path(tmp)
        setups = []
        for repeat in range(1 if args.smoke else SETUP_REPEATS):
            work = tmp / f"setup{repeat}"
            started = time.perf_counter()
            work.mkdir()
            plan = make_plan(args.seed, work, args.smoke)
            setups.append(time.perf_counter() - started)
        setup_s = _STARTUP_S + imported + statistics.median(setups)

        if not args.smoke:  # let lazy imports and allocator pools settle
            (tmp / "warmup").mkdir()
            run_pass(make_plan(args.seed, tmp / "warmup", True), tmp / "warmup" / "out")
        run = measure(plan, tmp, args.seconds, trace, args.smoke,
                      HERE / "out" / f"spans-{args.workload}.csv")

    wall_s = typical_pass_s(run.passes, scaled=True)
    failed = len(run.errors)
    end_to_end = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "keys_per_s": plan.keys / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sessions_per_s": plan.sessions / wall_s,
        "failed_frac": failed / run.attempted,
    }
    per_layer = {}
    if trace:
        traced_wall = typical_pass_s(run.traced_passes, scaled=True)
        measured = {
            "protocol.verify.bytes_computed": run.verify_alloc_bytes,
            "trace.overhead_frac": (traced_wall - wall_s) / wall_s,
        }
        for name, unit in PER_LAYER:
            # counts repeat exactly from pass to pass; keep them whole
            median = statistics.median_low if unit in ("count", "bytes") else statistics.median
            per_layer[name] = (measured[name] if name in measured
                               else median([row[name] for row in run.layer_rows]))

    print("env:", json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload}, seed {args.seed}: setup repeated {len(setups)} "
          f"times; {len(plan.ops)} operations per pass")
    print(f"wall_s as measured, unscaled: {typical_pass_s(run.passes, scaled=False)!r}")
    print("operations, s:", " ".join(f"{t:.4f}" for p in run.passes for t in p.op_s))
    print(f"reference kernel before each, s (nominal {NOMINAL_REFERENCE_S}):",
          " ".join(f"{r:.4f}" for p in run.passes for r in p.reference_s))
    if trace:
        print("traced passes, s:", " ".join(f"{sum(p.op_s):.4f}" for p in run.traced_passes))
        print(f"time inside traced cvpuk calls: {statistics.median(run.covered_s):.4f} s "
              f"of {typical_pass_s(run.traced_passes, scaled=False):.4f} s traced wall")
    for error in run.errors:
        print("FAILED", error)
    for key, values in plan.notes.items():
        if values:
            print(f"{key} = {statistics.median(values)!r} (recorded, not gated)")
    shown = per_layer if args.trace == 1 and not args.smoke else {**end_to_end, **per_layer}
    for name, value in shown.items():
        label = " (computed)" if name in COMPUTED else ""
        if name == "protocol.verify.bytes_computed":
            label = " (tracemalloc peak, summed over calls)"
        print(f"  {name:44s} {value!r} {UNITS[name]}{label}")

    if args.smoke:
        selected = shown
    elif args.trace == 1:
        selected = per_layer
    else:
        selected = {name: end_to_end[name] for name in BOUNDED_END_TO_END}
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in selected.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
