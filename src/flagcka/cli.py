"""Command line front end.

Exit codes: 0 for success (protocol completed, checks passed), 2 when
the protocol aborts or a verification check fails, 1 for usage or
config errors (`main` prints one `flagcka COMMAND: error:` line). Every
command accepts --seed, --output and --format and is deterministic.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import sys

import numpy as np

from . import __version__
from .bell import BELL_FUNCTIONALS, CHSH_QUANTUM_MAX, GENERATION_INPUTS, behavior_from_json, local_bound_bruteforce
from .checks import _SUITES, check_decoupling, check_random_strategies, reports_to_json, run_check_suite
from .protocol import (
    PARTY_NAMES,
    _BACKENDS,
    ProtocolConfig,
    apply_tamper,
    config_from_json,
    postprocess,
    result_to_json,
    run_rounds,
    write_transcript_jsonl,
)
from .rates import BoundMethod, curve_to_csv, no_flag_reference_rate, rate_report, robustness_curve
from .strategies import N_INPUTS, OUTCOME_LABELS, _HONEST_BUILDERS, honest_flagged_strategy

_METHODS = {"minH": "min_entropy_analytic", "vn": "von_neumann_analytic"}
_MODES = {"one-score": "one_score", "two-scores": "two_scores"}
_SLICE = 1 << 20


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _flatten(v, f"{prefix}{k}." if prefix else f"{k}.")
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), value


def _emit(doc, args, csv_text=None):
    """Write the result as JSON or key,value CSV to --output or stdout."""
    if args.format == "json":
        text = doc if isinstance(doc, str) else json.dumps(doc, indent=2)
    elif csv_text is not None:
        text = csv_text
    else:
        data = json.loads(doc) if isinstance(doc, str) else doc
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["key", "value"])
        for key, value in _flatten(data):
            writer.writerow([key, value])
        text = buf.getvalue()
    # 1 MiB slices, then the newline: the file never encodes a whole copy of the text.
    with open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout) as fh:
        fh.writelines(text[start:start + _SLICE] for start in range(0, len(text), _SLICE))
        if not text.endswith("\n"):
            fh.write("\n")


def _add_common(sub):
    sub.add_argument("--seed", type=int, default=0, help="seed for every random draw")
    sub.add_argument("--output", help="write the result to this file instead of stdout")
    sub.add_argument("--format", choices=("json", "csv"), default="json")


def _simulate(args) -> int:
    if args.config:
        with open(args.config) as fh:
            config = config_from_json(fh.read())
    else:
        config = ProtocolConfig()
    # Each config flag stores into the ProtocolConfig field of the same name.
    overrides = {
        f.name: getattr(args, f.name) for f in dataclasses.fields(ProtocolConfig) if getattr(args, f.name) is not None
    }
    config = dataclasses.replace(config, **overrides)
    transcript = run_rounds(config)
    if args.tamper:
        transcript = apply_tamper(transcript, args.tamper, np.random.default_rng([config.seed, 2]))
    result = postprocess(transcript, config)
    if args.transcript:
        with open(args.transcript, "wb") as fh:
            write_transcript_jsonl(transcript, fh)
    if args.keys_dir and result.outcome == "completed":
        import os

        os.makedirs(args.keys_dir, exist_ok=True)
        for party, key in result.keys.items():
            with open(os.path.join(args.keys_dir, f"{party}.key"), "w") as fh:
                fh.write(key + "\n")
    _emit(result_to_json(result), args)
    if result.outcome == "completed":
        return 0
    print(f"aborted: {result.abort_reason}", file=sys.stderr)
    return 2


def _rates(args) -> int:
    with open(args.behavior) as fh:
        behavior = behavior_from_json(fh.read())
    method = BoundMethod(selector=_METHODS[args.method], score_mode=_MODES[args.mode])
    report = rate_report(behavior, method)
    _emit(report.to_json(), args)
    return 0


def _curve(args) -> int:
    if args.points < 2:
        raise ValueError("--points must be at least 2")
    method = BoundMethod(selector=_METHODS[args.method], score_mode=_MODES[args.mode])
    points = robustness_curve(np.linspace(2.0, CHSH_QUANTUM_MAX, args.points), method)
    if args.format == "csv":
        _emit(None, args, csv_text=curve_to_csv(points, method))
    else:
        _emit(
            {
                "method": method.selector,
                "mode": method.score_mode,
                "points": [{"s": s, "entropy_bound": h} for s, h in points],
            },
            args,
        )
    return 0


def _local_bound(args) -> int:
    value, maximizer = local_bound_bruteforce()
    doc = {
        "max_value": value,
        "maximizer": {
            party: {str(x): list(out) for x, out in assignment.items()}
            for party, assignment in maximizer.items()
        },
    }
    _emit(doc, args)
    return 0


def _verify(args) -> int:
    if args.seeds < 0:
        raise ValueError("--seeds must be at least 0")
    honest = honest_flagged_strategy()
    reports = run_check_suite(honest, args.suite)
    # The random strategies share the honest strategy's state.
    reports += check_random_strategies(honest, range(args.seed, args.seed + args.seeds), args.suite)
    _emit(reports_to_json(reports), args)
    failed = [r for r in reports if not r.passed]
    for r in failed:
        print(f"FAIL {r.name}: residual {r.residual:.3e} > {r.tolerance:.1e}", file=sys.stderr)
    return 2 if failed else 0


def _info(args) -> int:
    honest = check_decoupling(honest_flagged_strategy(), 0)
    doc = {
        "package": "flagcka",
        "version": __version__,
        "scenario": {
            "parties": list(PARTY_NAMES),
            "inputs": list(N_INPUTS),
            "outputs_per_party": len(OUTCOME_LABELS),
            "generation_inputs": list(GENERATION_INPUTS),
        },
        "constants": {
            "local_bound": BELL_FUNCTIONALS["flagged"].local_bound,
            "quantum_maximum": BELL_FUNCTIONALS["flagged"].quantum_max,
            "honest_conference_rate": 0.5,
            "no_flag_reference_rate": no_flag_reference_rate(),
            "honest_decoupling_entropy": honest.details["conditional_entropy"],
        },
    }
    _emit(doc, args)
    return 0


def _simulate_args(sim):
    sim.add_argument("--config", help="run config JSON file")
    sim.add_argument("--rounds", type=int, dest="n_rounds", metavar="ROUNDS")
    sim.add_argument("--gamma", type=float, help="test round probability")
    sim.add_argument("--threshold", type=float, dest="bell_threshold", metavar="THRESHOLD", help="Bell abort threshold")
    sim.add_argument("--alignment-fraction", type=float, dest="alignment_fraction")
    sim.add_argument("--alignment-floor", type=float, dest="alignment_floor")
    sim.add_argument("--strategy", choices=tuple(_HONEST_BUILDERS), dest="strategy_kind")
    sim.add_argument("--visibility", type=float)
    sim.add_argument("--backend", choices=tuple(_BACKENDS))
    sim.add_argument("--tamper", help="fault injection, e.g. flag-flip:0.01 or flag-constant:0")
    sim.add_argument("--transcript", help="write per-round records as JSON lines")
    sim.add_argument("--keys-dir", dest="keys_dir", help="write one key file per party")
    # No --seed means the config file's seed (or the config default), not 0.
    sim.set_defaults(seed=None)


def _rates_args(rates):
    rates.add_argument("behavior", help="behavior JSON file")
    rates.add_argument("--method", choices=tuple(_METHODS), default="vn")
    rates.add_argument("--mode", choices=tuple(_MODES), default="two-scores")


def _curve_args(curve):
    curve.add_argument("--method", choices=tuple(_METHODS), default="vn")
    curve.add_argument("--mode", choices=tuple(_MODES), default="two-scores")
    curve.add_argument("--points", type=int, default=101)


def _verify_args(verify):
    verify.add_argument("--suite", choices=_SUITES, default="all")
    verify.add_argument("--seeds", type=int, default=5, help="number of randomized strategies")


# name -> (handler, help, adds the command's own arguments after _add_common)
_COMMANDS = {
    "simulate": (_simulate, "run the seven-step protocol", _simulate_args),
    "rates": (_rates, "asymptotic rate report for a behavior", _rates_args),
    "curve": (_curve, "entropy bound vs Bell value", _curve_args),
    "local-bound": (_local_bound, "exact classical maximum by enumeration", lambda sub: None),
    "verify": (_verify, "run the proof check suites", _verify_args),
    "info": (_info, "scenario facts and reference constants", lambda sub: None),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, or of `command` alone.

    A command's own parse is the same either way: `main` builds only the
    command its first argument names, because building all six costs
    more than most commands' own work.
    """
    parser = _Parser(prog="flagcka", description="Flag-based conference key agreement toolkit")
    parser.add_argument("--version", action="version", version=f"flagcka {__version__}")
    # The full choice list as metavar keeps the top-level usage line the
    # same; the full parser keeps the default so errors name "command".
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser, metavar=metavar)
    for name, (func, help_text, add_arguments) in _COMMANDS.items():
        if command in (None, name):
            cmd = sub.add_parser(name, help=help_text)
            _add_common(cmd)
            add_arguments(cmd)
            cmd.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"flagcka {args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
