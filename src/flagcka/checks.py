"""Numerical verification of the security-proof building blocks.

Each check takes a strategy, evaluates one operator or state identity
that the key-rate argument relies on, and reports the residual against
a tolerance. The checks are:

  flag consistency    all coarse-grained flag expectations, single and
                      joint, agree on one branch weight p_T(t) > 0
  projection lemma    the flag coarse-grainings of different parties
                      act identically on the (purified) state
  sum of squares      the shifted CHSH block of a branch equals an
                      explicit sum of squares, hence the weighted
                      Tsirelson cap
  weighted Tsirelson  each branch block expectation is at most
                      2*sqrt(2) p_T(t)
  decoupling          at the maximal violation Alice's generation
                      outcome is uniform and product with the purifying
                      system, so H(A|E) = 1

`run_check_suite`, and so `verify`, runs all five. The projection lemma
also covers each branch's pair behavior: when every party's flag
coarse-graining acts alike on the state, that behavior does not depend
on the spectator's input, so it needs no check of its own.

The first four are kernels over a stack of strategies that share a state,
with each party's effects as a (K, inputs, 4, d, d) array. One strategy is
a stack of one; `check_random_strategies` runs `verify`'s random ones.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .bell import CHSH_QUANTUM_MAX, _BRANCH_CELLS, _PAIR_CELLS, _json_default
from .qops import SQRT2, check_effects_complete, identity, kron_stack, partial_trace, von_neumann_entropy
from .strategies import N_INPUTS, OUTCOME_LABELS, Strategy, random_projective_effects

__all__ = [
    "CheckReport",
    "check_flag_consistency",
    "check_projection_lemma",
    "check_sos_identity",
    "check_weighted_tsirelson",
    "check_decoupling",
    "run_check_suite",
    "check_random_strategies",
    "reports_to_json",
]

ATOL_IDENTITY = 1e-10
ATOL_STATE = 1e-10

# Strategies per kernel call in `check_random_strategies`: each adds ~0.13 MB
# to the kernels' peak, and a chunk of 8 is only ~10% faster than one of 4.
VERIFY_CHUNK = 4

# The suites `run_check_suite` and `verify --suite` take; "all" runs every check.
_SUITES = ("sos", "lemma", "tsirelson", "decoupling", "all")

# The (party, input) keys of the flag projectors, and the index pairs of
# keys of different parties, in itertools.combinations order.
_FLAG_KEYS = [(party, x) for party in range(3) for x in range(N_INPUTS[party])]
_EFFECT_KEYS = [(party, x, label) for party, x in _FLAG_KEYS for label in OUTCOME_LABELS]
_CROSS_PAIRS = np.array(
    [(i, j) for i, j in itertools.combinations(range(len(_FLAG_KEYS)), 2) if _FLAG_KEYS[i][0] != _FLAG_KEYS[j][0]]
).T


@dataclass(frozen=True)
class CheckReport:
    name: str
    residual: float
    tolerance: float
    passed: bool
    details: dict = field(default_factory=dict)


def _report(name: str, residual: float, tolerance: float, holds: bool = True, **details) -> CheckReport:
    return CheckReport(name, float(residual), float(tolerance), bool(residual <= tolerance and holds), details)


class _MemberError(ValueError):
    """ValueError(message, member): an invalid check input of one member of a stack."""
    def __str__(self):
        return self.args[0]


def _one(strategy: Strategy) -> tuple:
    """A strategy's effects as a stack of one member."""
    return tuple(stack[None] for stack in strategy.effects)


def _flag_projectors(effects: np.ndarray) -> np.ndarray:
    """(K, inputs, 4, d, d) effects -> (K, t, inputs, d, d) projectors M_(0,t)|x + M_(1,t)|x."""
    return (effects[:, :, :2] + effects[:, :, 2:]).swapaxes(1, 2)


def _apply_local(ops: np.ndarray, psi: np.ndarray, axis: int) -> np.ndarray:
    """Each operator of a stack applied to one subsystem axis of a state
    tensor; the stack axes come first, the state's axes keep their order."""
    lead = ops.ndim - 2
    return np.moveaxis(np.tensordot(ops, psi, axes=(-1, axis)), lead, lead + axis)


def _flag_consistency(state: np.ndarray, effects: tuple) -> list[CheckReport]:
    k, dims = len(effects[0]), [e.shape[-1] for e in effects]
    # Per party, member and t, the stack [I, P_0, P_1, ...]: the local
    # identity, then the flag-t projector per input.
    sa, sb, sc = (
        np.concatenate([np.broadcast_to(np.eye(d), (k, 2, 1, d, d)), _flag_projectors(e)], axis=2)
        for e, d in zip(effects, dims)
    )
    # Contract the state with Alice's stacks, then Bob's, then Carole's.
    path = ["einsum_path", (0, 3), (0, 2), (0, 1)]
    table = np.einsum("mtuai,mtvbj,mtwck,ijkabc->mtuvw", sa, sb, sc, state.reshape(dims * 2), optimize=path)
    values = np.ascontiguousarray(table.real.reshape(k, 2, -1)[:, :, 1:])
    reports = []
    for weights, spread in zip(values.mean(axis=2).tolist(), np.ptp(values, axis=2).max(axis=1).tolist()):
        # A vanishing branch weight ends the check at its branch.
        cut = next((t + 1 for t in (0, 1) if weights[t] <= 0.0), 0)
        why = {"reason": "vanishing branch weight"} if cut else {}
        p_t = dict(enumerate(weights[:cut or 2]))
        reports.append(_report("flag_consistency", np.inf if cut else spread, ATOL_IDENTITY, p_T=p_t, **why))
    return reports


def check_flag_consistency(strategy: Strategy) -> CheckReport:
    """All flag coarse-graining expectations match a single p_T(t) > 0.

    Evaluates, for each t, the expectation of every single-party flag
    projector (all inputs, generation settings included), every pairwise
    product and the triple product; the residual is the spread between
    the largest and smallest of these numbers over both t.

    The projectors are local, so all of them come from one contraction
    of the state tensor with each party's stack [I, P_0, P_1, ...]: entry
    (u, v, w) is Tr[(S_u (x) S_v (x) S_w) rho], and every entry but
    (0, 0, 0) = Tr rho is one of the single, pair or triple products.
    """
    return _flag_consistency(strategy.state, _one(strategy))[0]


def _projection_lemma(psi: np.ndarray, effects: tuple) -> list[CheckReport]:
    k = len(effects[0])
    psi = psi.reshape(*(e.shape[-1] for e in effects), -1)
    # rows[party][k, t, x] is the flattened P|psi> of the party's flag-t projector at input x.
    rows = [_apply_local(_flag_projectors(e), psi, party).reshape(k, 2, e.shape[1], -1) for party, e in enumerate(effects)]
    # gaps[k, t, n] is ||(P_i - P_j)|psi>|| at flag t for the n-th pair (i, j):
    # each key of Alice, then of Bob, against every key of the later parties.
    gaps = []
    for p in (0, 1):
        parts = (rows[p][:, :, :, None] - np.concatenate(rows[p + 1:], axis=2)[:, :, None]).view(float)
        gaps.append(np.sqrt(np.einsum("...i,...i->...", parts, parts)).reshape(k, 2, -1))
    gaps = np.concatenate(gaps, axis=2).reshape(k, -1)
    first, second = _CROSS_PAIRS
    reports = []
    # The first largest gap, in the order t, then pair, is the worst one.
    for member, worst in zip(gaps, np.argmax(gaps, axis=1).tolist()):
        t, n = divmod(worst, len(first))
        residual = float(member[worst])
        worst = (t, _FLAG_KEYS[first[n]], _FLAG_KEYS[second[n]]) if residual > 0.0 else None
        reports.append(_report("projection_lemma", residual, ATOL_STATE, worst=repr(worst)))
    return reports


def check_projection_lemma(strategy: Strategy) -> CheckReport:
    """Flag coarse-grainings of any two parties agree on the purified state.

    For every t and every input pair, || (P_party1 - P_party2) |psi> ||
    must vanish, where |psi> purifies the shared state and the
    projectors act as identity on the purifier. Each projector is
    applied to its party's axis of the (party, party, party, purifier)
    tensor of |psi>.
    """
    return _projection_lemma(strategy.purification, _one(strategy))[0]


def _branch_operators(effects: tuple, partner: int, t: int):
    """Signed observables, flag projectors and CHSH block of one branch,
    each with the stack's member axis first.

    All act on the (Alice, partner) space. The operator on the full space
    is each of them tensored with the spectator's identity, so entry
    deviations, eigenvalues and expectations on the reduced state of
    (Alice, partner) are those of the full operators.
    """
    def local(e):
        # Signed observables A_0, A_1, then flag projectors P_0, P_1.
        return np.concatenate([e[:, :2, t] - e[:, :2, 2 + t], _flag_projectors(e)[:, t, :2]], axis=1)

    # The Kronecker product of stacks embeds each operator of a stack at once.
    alice = kron_stack(local(effects[0]), identity(effects[partner].shape[-1]))
    other = kron_stack(identity(effects[0].shape[-1]), local(effects[partner]))
    a0, a1, b0, b1 = alice[:, 0], alice[:, 1], other[:, 0], other[:, 1]
    chsh = a0 @ (b0 + b1) + a1 @ (b0 - b1)
    return a0, a1, b0, b1, np.concatenate([alice[:, 2:], other[:, 2:]], axis=1), chsh


def check_sos_identity(strategy: Strategy, pair: str = "ab", t: int = 0) -> CheckReport:
    """Shifted CHSH block of a branch equals an explicit sum of squares.

    With signed flag-t observables A_x, B_y of Alice and the partner and
    their flag projectors P, the identity

      sqrt(2)/4 (A0 + A1 - sqrt(2) B0)^2 + sqrt(2)/4 (A0 - A1 - sqrt(2) B1)^2
        = sqrt(2)/2 (P_A0 + P_A1 + P_B0 + P_B1) - CHSH_block

    holds for projective measurements. Residual is the largest matrix
    entry deviation; the left side must also be positive semidefinite.
    Both are evaluated on the (Alice, partner) space, which leaves them
    unchanged (see `_branch_operators`).
    """
    if pair not in _PAIR_CELLS["flagged"] or t not in (0, 1):
        raise ValueError(f"pair must be 'ab' or 'ac' and t 0 or 1, got {pair!r}, {t!r}")
    return _branch_checks(strategy.state, _one(strategy), [(pair, t)], False)[0][0]


def _branch_checks(state: np.ndarray, effects: tuple, sos: list, tsirelson: bool) -> list[list[CheckReport]]:
    """The columns of SOS reports of the (pair, t) branches in `sos`, then
    the weighted Tsirelson column; each branch's operators are built once
    for both checks. SOS needs projective effects: the first member, then
    the first (party, input, label), with an effect that is not raises."""
    if sos:
        bad = np.concatenate(
            [(np.abs(e @ e - e).max(axis=(-2, -1)) > ATOL_IDENTITY).reshape(len(e), -1) for e in effects], axis=1
        )
        if bad.any():
            member, n = np.unravel_index(int(np.argmax(bad)), bad.shape)
            party, x, label = _EFFECT_KEYS[n]
            message = f"party {party} input {x} outcome {label} is not projective"
            raise _MemberError(message, member)
    columns, slacks = [], {}
    for (pair, cells), t in itertools.product(_PAIR_CELLS["flagged"].items(), (0, 1)):
        # The Tsirelson branches are the blocks: each pair at the flag its block gates on.
        tsirelson_branch = tsirelson and _BRANCH_CELLS[t] is cells
        if not ((pair, t) in sos or tsirelson_branch):
            continue
        partner = cells.index("w")
        a0, a1, b0, b1, flags, chsh = _branch_operators(effects, partner, t)
        if (pair, t) in sos:
            s1 = a0 + a1 - SQRT2 * b0
            s2 = a0 - a1 - SQRT2 * b1
            lhs = (SQRT2 / 4.0) * (s1 @ s1 + s2 @ s2)
            rhs = (SQRT2 / 2.0) * flags.sum(axis=1) - chsh
            columns.append([
                _report(f"sos_identity_{pair}_t{t}", r, ATOL_IDENTITY, m >= -ATOL_IDENTITY, min_eigenvalue_lhs=m)
                for r, m in zip(np.abs(lhs - rhs).max(axis=(-2, -1)).tolist(), np.linalg.eigvalsh(lhs)[:, 0].tolist())
            ])
        if tsirelson_branch:
            rho = partial_trace(state, [e.shape[-1] for e in effects], [0, partner])
            p_t = np.einsum("kfij,ji->kf", flags, rho).real.mean(axis=1)
            slacks[f"{pair}_t{t}"] = (CHSH_QUANTUM_MAX * p_t - np.einsum("kij,ji->k", chsh, rho).real).tolist()
    if tsirelson:
        members = [dict(zip(slacks, values)) for values in zip(*slacks.values())]
        columns.append(
            [_report("weighted_tsirelson", max(0.0, *(-s for s in m.values())), ATOL_IDENTITY, slacks=m) for m in members]
        )
    return columns


def check_weighted_tsirelson(strategy: Strategy) -> CheckReport:
    """Each branch block expectation obeys <block_t> <= 2*sqrt(2) p_T(t).

    Reports the slack per branch (Alice-Bob at t=0, Alice-Carole at
    t=1); the residual is the worst constraint violation, zero when both
    hold. A maximally violating strategy saturates with zero slack.
    Expectations are taken in the reduced state of Alice and the partner.
    """
    return _branch_checks(strategy.state, _one(strategy), [], True)[0][0]


def check_decoupling(strategy: Strategy, t: int = 0) -> CheckReport:
    """Alice's generation outcome decouples from the purifier at max violation.

    Alice's value a (input 0, branch t) is classical, so rho_AE is the
    direct sum of the purifier's normalized blocks rho_a, rho_E = sum_a
    rho_a, the trace distance to uniform (x) rho_E is 1/2 sum_a ||rho_a -
    rho_E/2||_1 and H(A|E) = sum_a S(rho_a) - S(rho_E). At visibility 1 the
    distance vanishes and H(A|E) = 1; below it the drop is informational.
    """
    if t not in (0, 1):
        raise ValueError(f"branch must be 0 or 1, got {t}")
    psi = strategy.purification.reshape(*strategy.party_dims, -1)
    env = psi.shape[-1]
    # Alice's input-0 effects of labels (0, t) and (1, t).
    effects = strategy.effects[0][0, [t, 2 + t]]
    # Purifier-side subnormalized state Tr_parties[(M (x) 1)|psi><psi|], with
    # M applied to Alice's axis of the (party, party, party, purifier) tensor.
    applied = _apply_local(effects, psi, 0).reshape(2, -1, env)
    blocks = [m.T @ psi.reshape(-1, env).conj() for m in applied]
    weight = float(sum(b.trace().real for b in blocks))
    if weight <= 1e-12:
        return _report(f"decoupling_t{t}", np.inf, ATOL_STATE, reason="vanishing branch weight")
    blocks = [(r + r.conj().T) / 2.0 for r in (b / weight for b in blocks)]
    rho_e = blocks[0] + blocks[1]
    distance = 0.5 * sum(np.abs(np.linalg.eigvalsh(b - rho_e / 2.0)).sum() for b in blocks)
    h_a_given_e = sum(von_neumann_entropy(b) for b in blocks) - von_neumann_entropy(rho_e)
    return _report(
        f"decoupling_t{t}",
        distance,
        ATOL_STATE,
        conditional_entropy=h_a_given_e,
        branch_weight=weight,
    )


def _stack_checks(base: Strategy, effects: tuple, suite: str) -> list[CheckReport]:
    """The reports of one suite but decoupling, member by member, from one
    kernel call per check; the members share `base`'s state."""
    if suite not in _SUITES:
        raise ValueError(f"unknown check suite {suite!r}")
    columns = []
    if suite in ("lemma", "all"):
        columns += [_flag_consistency(base.state, effects), _projection_lemma(base.purification, effects)]
    sos = list(itertools.product(_PAIR_CELLS["flagged"], (0, 1))) if suite in ("sos", "all") else []
    columns += _branch_checks(base.state, effects, sos, suite in ("tsirelson", "all"))
    return [report for member in zip(*columns) for report in member]


def run_check_suite(strategy: Strategy, suite: str = "all") -> list[CheckReport]:
    """Run one named suite of `_SUITES`."""
    reports = _stack_checks(strategy, _one(strategy), suite)
    if suite in ("decoupling", "all"):
        reports += [check_decoupling(strategy, t) for t in (0, 1)]
    return reports


def check_random_strategies(base: Strategy, seeds, suite: str = "all") -> list[CheckReport]:
    """`run_check_suite(random_projective_strategy(seed), suite)` for every seed,
    joined, but with `base`'s state (checked and purified once) and without
    decoupling, a property of the maximal violation only. Per VERIFY_CHUNK seeds
    the effects are built once, each member's checked complete by
    `check_effects_complete`, and each check is one kernel call. An invalid
    member raises a ValueError naming its seed."""
    seeds, reports = list(seeds), []
    for chunk in (seeds[start:start + VERIFY_CHUNK] for start in range(0, len(seeds), VERIFY_CHUNK)):
        effects = random_projective_effects(chunk)
        try:
            for member, stacks in enumerate(zip(*effects)):
                try:
                    # The three parties' families as one (8, 4, 4, 4) stack.
                    check_effects_complete(np.concatenate(stacks))
                except ValueError as exc:
                    raise _MemberError(str(exc), member) from None
            reports += _stack_checks(base, effects, suite)
        except _MemberError as exc:
            raise ValueError(f"random strategy seed {chunk[exc.args[1]]}: {exc}") from None
    return reports


def reports_to_json(reports) -> str:
    doc = [
        {"name": r.name, "residual": r.residual, "tolerance": r.tolerance, "passed": r.passed, "details": r.details}
        for r in reports
    ]
    return json.dumps(doc, default=_json_default)
