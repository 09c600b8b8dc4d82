"""Command-line front end: thresholds, enroll, verify and campaign."""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys
import warnings
from pathlib import Path

from . import jsonio
from .experiments import CampaignConfig, run_campaign
from .homodyne import HomodyneChannel, ProbeSet
from .protocol import (
    CrpDatabase,
    VerificationConfig,
    e_threshold,
    enroll_exact,
    enroll_sampled,
    m_threshold,
    public_p_in,
    radii,
    verify,
)
from .scattering import ScatteringKey, ensemble_variance, generate_key
from .streams import substream

__all__ = ["main"]


# a refusal names the flag the user typed, not the parameter that checks it
_THRESHOLDS_FLAGS = {"epsilon": "--epsilon", "zeta": "--zeta", "mean_challenge_photons": "--mu-c",
                     "mode_count": "--n-modes", "l_over_L": "--l-over-L", "efficiency": "--eta",
                     "delta_over_sigma": "--delta-over-sigma"}


def _cmd_thresholds(args) -> int:
    with jsonio.renamed_refusals(**_THRESHOLDS_FLAGS):
        sessions = m_threshold(args.epsilon, args.zeta)
        threshold = e_threshold(args.mu_c, args.n_modes, args.l_over_L)
        channel = HomodyneChannel.from_delta_ratio(args.eta, args.delta_over_sigma)
    expected_enhancement = math.pi * args.n_modes / 4.0
    rho_false, rho_true = radii(args.mu_c, ensemble_variance(args.n_modes, args.l_over_L),
                                expected_enhancement)
    lines = (
        f"sigma      = {channel.shot_noise!r}",
        f"delta      = {channel.bin_width!r}",
        f"P_in       = {public_p_in(channel, args.epsilon)!r}",
        f"M_th       = {sessions}",
        f"E_th       = {threshold!r}",
        f"E_expected = {expected_enhancement!r}  (mean optimal-mask enhancement)",
        f"rho_f      = {rho_false!r}",
        f"rho_t      = {rho_true!r}  (at E_expected)",
    )
    print("\n".join(lines))
    return 0


# the fields an enroll config may hold; any other field is refused
_ENROLL_FIELDS = ("n_modes", "l_over_L", "mu_p", "tau", "eta", "delta_over_sigma",
                  "n_probe_states", "seed", "key_path", "enrollment", "per_quadrature_samples")


def _cmd_enroll(args) -> int:
    config = jsonio.require_object("enroll config", jsonio.load(args.config), _ENROLL_FIELDS)
    if args.seed is None:
        seed = jsonio.require_int("seed", config.get("seed", 0), 0)
    else:
        seed = jsonio.require_int("--seed", args.seed, 0)
    n_modes = jsonio.require_int("n_modes", config["n_modes"])
    # a refusal names the config's field, not the consumer's parameter
    typed = {"size": "n_probe_states", "mean_photons": "mu_p", "mode_count": "n_modes",
             "efficiency": "eta"}
    with jsonio.renamed_refusals(**typed):
        probes = ProbeSet(config["n_probe_states"], config["mu_p"])
        channel = HomodyneChannel.from_delta_ratio(config["eta"], config["delta_over_sigma"])
    if "key_path" in config:
        if not isinstance(config["key_path"], str):
            raise TypeError(f"key_path must be a string, got {config['key_path']!r}")
        key = ScatteringKey.from_dict(jsonio.load(config["key_path"]))
        if key.mode_count != n_modes:
            raise ValueError(f"key has {key.mode_count} modes, config says {n_modes}")
        # like n_modes, a given l_over_L is compared, not consumed, so it is checked here
        if "l_over_L" in config and key.l_over_L != jsonio.require_real(
                "l_over_L", config["l_over_L"], jsonio.REAL_INTERVALS["l_over_L"]):
            raise ValueError(f"key has l_over_L {key.l_over_L!r}, "
                             f"config says {config['l_over_L']!r}")
    else:
        with jsonio.renamed_refusals(**typed):
            key = generate_key(n_modes, config["l_over_L"], substream(seed, 0))

    mode = config.get("enrollment", "exact")
    if mode == "sampled":
        database = enroll_sampled(key, config["tau"], probes, channel,
                                  config["per_quadrature_samples"], substream(seed, 1))
    elif mode != "exact":
        raise ValueError(f"unknown enrollment mode {mode!r}")
    elif "per_quadrature_samples" in config:
        raise ValueError(f"per_quadrature_samples is for sampled enrollment, not {mode!r}")
    else:
        database = enroll_exact(key, config["tau"], probes, channel)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    key_path = out_dir / "key.json"
    database_path = out_dir / "database.json"
    jsonio.dump(key.to_dict(), key_path)
    jsonio.dump(database.to_dict(), database_path)
    print(key_path)
    print(database_path)
    return 0


def _cmd_verify(args) -> int:
    seed = jsonio.require_int("--seed", args.seed, 0)
    database = CrpDatabase.from_dict(jsonio.load(args.database))
    key = ScatteringKey.from_dict(jsonio.load(args.key))
    with jsonio.renamed_refusals(sessions="--sessions", error_level="--epsilon",
                                 confidence_param="--zeta"):
        config = VerificationConfig(args.sessions, args.epsilon, args.zeta)
    report = verify(key, database, config, substream(seed, 0), trace=args.trace)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report_path = out_dir / "report.json"
    jsonio.dump(report.to_dict(), report_path)
    print(report_path)
    if args.trace:
        trace, trace_path = report.session_trace, out_dir / "trace.csv"
        # Python rows exist one block of 4,096 sessions at a time
        jsonio.write_csv(trace_path, trace.dtype.names, itertools.chain.from_iterable(
            trace[start:start + 4096].tolist() for start in range(0, len(trace), 4096)))
        print(trace_path)
    print(f"p_in = {report.p_in!r}  P_in = {report.p_in_expected!r}  "
          f"{'ACCEPT' if report.accepted else 'REJECT'}")
    return 0 if report.accepted else 1


def _cmd_campaign(args) -> int:
    overrides = {} if args.seed is None else {"seed": args.seed}
    config = CampaignConfig.from_dict(jsonio.load(args.config), **overrides)
    paths = run_campaign(config, args.out)
    for path in paths.values():
        print(path)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    about a millisecond, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cvpuk",
        description="Simulation of continuous-variable authentication of "
                    "optical scattering keys.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    thresholds = commands.add_parser(
        "thresholds", help="print the protocol constants for a parameter set"
    )
    thresholds.add_argument("--epsilon", type=float, default=0.05)
    thresholds.add_argument("--zeta", type=float, default=0.05)
    thresholds.add_argument("--mu-c", type=float, default=2000.0,
                            help="mean challenge photons after the modulator")
    thresholds.add_argument("--n-modes", type=int, default=121)
    thresholds.add_argument("--l-over-L", type=float, default=0.2)
    thresholds.add_argument("--delta-over-sigma", type=float, default=2.0)
    thresholds.add_argument("--eta", type=float, default=0.55)
    thresholds.set_defaults(func=_cmd_thresholds)

    enroll = commands.add_parser(
        "enroll", help="generate (or load) a key and write its record database"
    )
    enroll.add_argument("--config", required=True, help="JSON config path")
    enroll.add_argument("--out", required=True, help="output directory")
    enroll.add_argument("--seed", type=int, default=None, help="override the config seed")
    enroll.set_defaults(func=_cmd_enroll)

    verify_cmd = commands.add_parser(
        "verify", help="verify a key file against a database file"
    )
    verify_cmd.add_argument("--database", required=True)
    verify_cmd.add_argument("--key", required=True)
    verify_cmd.add_argument("--sessions", type=int, default=1000)
    verify_cmd.add_argument("--epsilon", type=float, default=0.05)
    verify_cmd.add_argument("--zeta", type=float, default=0.05)
    verify_cmd.add_argument("--seed", type=int, default=0)
    verify_cmd.add_argument("--out", default=".", help="directory for the report")
    verify_cmd.add_argument("--trace", action="store_true",
                            help="also write the per-session trace CSV")
    verify_cmd.set_defaults(func=_cmd_verify)

    campaign = commands.add_parser(
        "campaign", help="run a Monte Carlo campaign into an output directory"
    )
    campaign.add_argument("--config", required=True, help="JSON config path")
    campaign.add_argument("--out", required=True, help="output directory")
    campaign.add_argument("--seed", type=int, default=None, help="override the config seed")
    campaign.set_defaults(func=_cmd_campaign)

    return parser


def _advice_line(message, category, filename, lineno, line=None) -> str:
    """How the command line shows a warning: one ``warning:`` line, no source location."""
    return f"warning: {message}\n"


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # advice is still a UserWarning that filters and callers can record; only its text changes
    shown, warnings.formatwarning = warnings.formatwarning, _advice_line
    try:
        return args.func(args)
    except KeyError as exc:
        print(f"error: missing field {exc}", file=sys.stderr)
        return 2
    # JSONDecodeError is a ValueError; OverflowError is a number beyond the double range;
    # MemoryError is an array, such as a session trace, too large to allocate; a Warning
    # is advice that a filter such as ``-W error`` raises
    except (OSError, ValueError, TypeError, OverflowError, MemoryError, Warning) as exc:
        text = str(exc) or ("out of memory" if isinstance(exc, MemoryError) else "")
        print(f"error: {text}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = shown


if __name__ == "__main__":
    sys.exit(main())
