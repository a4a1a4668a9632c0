"""Workloads of the flagcka CLI benchmark and the checks on their outputs.

A workload is a list of cases, in which a quick case can appear several
times. One pass runs the list once, in order, and a run is a whole number
of passes. Every `--seed` the program sees is derived from the workload
seed, the pass and the case's place in the list, so one workload seed
always gives the same invocations.

The checks test the documented contract: exit codes, outcome and abort
reason, equal and non-empty key files after a completed run, passed check reports and
exact constants. They never compare a hash of a transcript or key, so a
change in how rounds are drawn does not break them.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from flagcka.bell import behavior_from_strategy, behavior_to_json
from flagcka.strategies import honest_flagged_strategy

PARTIES = ("alice", "bob", "carole")
TOL = 1e-9

# Protocol rounds per simulate run, or randomized strategies per verify.
SIZES = {"sim_table": 100_000, "sim_collapse": 2_000, "certify": 50}
WORKLOADS = tuple(SIZES)
# Times each quick certify command (a few ms each) runs per pass, against
# one verify (seconds). One sample of a few ms lands in one speed state of
# the host or in a rare stall of tens of ms, so its per-run mean needs many.
QUICK_REPEATS = 20

# Failure kind of a completed noisy run whose parties hold different keys.
# The protocol has no error correction yet, so this is expected today; it
# is counted as a failed invocation but does not mark the run incorrect.
KEYS_DIFFER = "keys differ"


@dataclass(frozen=True)
class Case:
    name: str
    argv: tuple[str, ...]
    work: int = 0                     # protocol rounds, or strategies verified
    exit_code: int = 0
    abort_reason: str | None = None   # simulate: expected abort, None means completed
    noisy: bool = False               # simulate: visibility below 1

    @property
    def command(self) -> str:
        return self.argv[0]


def _simulate(name, backend, rounds, *flags, abort=None, noisy=False) -> Case:
    argv = ("simulate", "--backend", backend, "--rounds", str(rounds), *flags)
    return Case(name, argv, work=rounds, exit_code=2 if abort else 0, abort_reason=abort, noisy=noisy)


def build(workload: str, workdir: Path, size: int | None = None) -> list[Case]:
    """The cases of one pass. `size` overrides SIZES (the tests use it)."""
    n = SIZES[workload] if size is None else size
    if workload == "sim_table":
        return [
            _simulate("flagged_v1", "table", n, "--alignment-fraction", "0.05"),
            _simulate("flagged_v0.97", "table", n, "--visibility", "0.97", noisy=True),
            _simulate("parallel_v1", "table", n, "--strategy", "parallel"),
            _simulate("flag_flip", "table", n, "--tamper", "flag-flip:0.01", abort="FlagMismatch"),
            _simulate("flagged_v0.7", "table", n, "--visibility", "0.7", abort="BellBelowThreshold"),
        ]
    if workload == "sim_collapse":
        return [
            _simulate("flagged_v1", "collapse", n),
            _simulate("parallel_v0.97", "collapse", n, "--strategy", "parallel", "--visibility", "0.97", noisy=True),
        ]
    if workload == "certify":
        behavior = workdir / "honest_behavior.json"
        behavior.write_text(behavior_to_json(behavior_from_strategy(honest_flagged_strategy())))
        quick = [
            Case("local-bound", ("local-bound",)),
            Case("rates", ("rates", str(behavior))),
            Case("curve_minH", ("curve", "--points", "201", "--method", "minH")),
            Case("curve_vn", ("curve", "--points", "201", "--method", "vn")),
            Case("info", ("info",)),
        ]
        return [Case("verify", ("verify", "--suite", "all", "--seeds", str(n)), work=n), *quick * QUICK_REPEATS]
    raise ValueError(f"unknown workload {workload!r}")


def case_seed(workload_seed: int, pass_index: int, case_index: int) -> int:
    return random.Random(f"{workload_seed}/{pass_index}/{case_index}").getrandbits(31)


def argv_for(case: Case, seed: int, workdir: Path) -> list[str]:
    argv = [*case.argv, "--seed", str(seed), "--output", str(workdir / "out.json")]
    if case.command == "simulate":
        argv += ["--transcript", str(workdir / "transcript.jsonl"), "--keys-dir", str(workdir / "keys")]
    return argv


def check(case: Case, code, workdir: Path) -> tuple[list[str], dict]:
    """Problems with one invocation's outputs, and facts read from them.

    Facts: 'key_bits' and 'rounds' for a completed simulate run.
    """
    if code != case.exit_code:
        return [f"exit code {code}, expected {case.exit_code}"], {}
    try:
        doc = json.loads((workdir / "out.json").read_text())
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"], {}
    try:
        return _CHECKS[case.command](case, doc, workdir)
    except (AttributeError, KeyError, TypeError) as exc:
        return [f"malformed output: {exc!r}"], {}


def _check_simulate(case, doc, workdir):
    expected = "aborted" if case.abort_reason else "completed"
    if doc.get("outcome") != expected or doc.get("abort_reason") != case.abort_reason:
        return [f"outcome {doc.get('outcome')}/{doc.get('abort_reason')}, expected {expected}/{case.abort_reason}"], {}
    if case.abort_reason:
        return [], {}
    try:
        keys = [(workdir / "keys" / f"{p}.key").read_text() for p in PARTIES]
    except OSError as exc:
        return [f"missing key file: {exc}"], {}
    keys = [k.strip() for k in keys]
    problems = [] if keys[0] == keys[1] == keys[2] else [KEYS_DIFFER]
    if not all(keys):
        problems.append("empty key after a completed run")
    return problems, {"key_bits": len(keys[0]), "rounds": case.work}


def _check_verify(case, doc, workdir):
    if not doc:
        return ["no check reports"], {}
    failed = [r.get("name") for r in doc if r.get("passed") is not True]
    return ([f"{len(failed)} reports not passed, first {failed[0]}"] if failed else []), {}


def _check_local_bound(case, doc, workdir):
    value = doc.get("max_value")
    return ([] if value == 2.0 else [f"max_value {value}, expected 2.0"]), {}


def _check_rates(case, doc, workdir):
    r = doc.get("r_cka")
    ok = isinstance(r, (int, float)) and abs(r - 0.5) <= TOL
    return ([] if ok else [f"r_cka {r}, expected 0.5"]), {}


def _check_curve(case, doc, workdir):
    points = doc.get("points") or []
    if len(points) < 2:
        return ["curve has fewer than 2 points"], {}
    ends = [(p["s"], p["entropy_bound"]) for p in (points[0], points[-1])]
    want = [(2.0, 0.0), (2.0 * math.sqrt(2.0), 1.0)]
    ok = all(abs(a - b) <= TOL for got, exp in zip(ends, want) for a, b in zip(got, exp))
    return ([] if ok else [f"curve endpoints {ends}, expected {want}"]), {}


def _check_info(case, doc, workdir):
    return ([] if doc.get("package") == "flagcka" else ["info does not name the package"]), {}


_CHECKS = {
    "simulate": _check_simulate,
    "verify": _check_verify,
    "local-bound": _check_local_bound,
    "rates": _check_rates,
    "curve": _check_curve,
    "info": _check_info,
}


def tolerated(case: Case, problems: list[str]) -> bool:
    """True when every problem is a noisy run's key disagreement.

    Such an invocation counts as failed, but the run stays correct: the
    protocol reports 'completed' without error correction, so noisy keys
    differ until key reconciliation lands.
    """
    return case.noisy and problems == [KEYS_DIFFER]
