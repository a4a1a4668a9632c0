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
  conditional behavior the branch-conditioned pair behavior is a
                      well-formed CHSH behavior independent of the
                      spectator's input
  decoupling          at the maximal violation Alice's generation
                      outcome is uniform and product with the purifying
                      system, so H(A|E) = 1
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .bell import CHSH_QUANTUM_MAX, behavior_from_strategy
from .qops import SQRT2, identity, kron_stack, partial_trace, trace_distance, von_neumann_entropy
from .strategies import N_INPUTS, OUTCOME_LABELS, Strategy

__all__ = [
    "CheckReport",
    "check_flag_consistency",
    "check_projection_lemma",
    "check_sos_identity",
    "check_weighted_tsirelson",
    "extract_conditional_behavior",
    "check_decoupling",
    "run_check_suite",
    "reports_to_json",
]

ATOL_IDENTITY = 1e-10
ATOL_STATE = 1e-10

_PAIRS = (("ab", 1), ("ac", 2))

# The (party, input) keys of the flag projectors, and the index pairs of
# keys of different parties, in itertools.combinations order.
_FLAG_KEYS = [(party, x) for party in range(3) for x in range(N_INPUTS[party])]
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


def _report(name: str, residual: float, tolerance: float, **details) -> CheckReport:
    return CheckReport(
        name=name,
        residual=float(residual),
        tolerance=float(tolerance),
        passed=bool(residual <= tolerance),
        details=details,
    )


def _flag_stack(strategy: Strategy, party: int, t: int) -> np.ndarray:
    """[I, P_0, P_1, ...]: the local identity, then the flag-t projector per input."""
    projs = [strategy.flag_projector(party, x, t) for x in range(N_INPUTS[party])]
    return np.stack([identity(strategy.party_dims[party]), *projs])


def _apply_local(ops: np.ndarray, psi: np.ndarray, axis: int) -> np.ndarray:
    """Each operator of a stack applied to one subsystem axis of a state
    tensor; the stack axis comes first, the state's axes keep their order."""
    return np.moveaxis(np.tensordot(ops, psi, axes=(-1, axis)), 1, axis + 1)


def _expectation(rho: np.ndarray, op: np.ndarray) -> float:
    return float(np.einsum("ij,ji->", op, rho).real)


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
    rho = strategy.state.reshape(strategy.party_dims * 2)
    residual = 0.0
    branch_weights = {}
    for t in (0, 1):
        sa, sb, sc = (_flag_stack(strategy, party, t) for party in range(3))
        # Contract the state with Alice's stack, then Bob's, then Carole's.
        table = np.einsum("uai,vbj,wck,ijkabc->uvw", sa, sb, sc, rho, optimize=["einsum_path", (0, 3), (0, 2), (0, 1)])
        values = table.real.ravel()[1:]
        branch_weights[t] = float(np.mean(values))
        residual = max(residual, float(values.max() - values.min()))
        if branch_weights[t] <= 0.0:
            return _report("flag_consistency", np.inf, ATOL_IDENTITY, p_T=branch_weights, reason="vanishing branch weight")
    return _report("flag_consistency", residual, ATOL_IDENTITY, p_T=branch_weights)


def check_projection_lemma(strategy: Strategy) -> CheckReport:
    """Flag coarse-grainings of any two parties agree on the purified state.

    For every t and every input pair, || (P_party1 - P_party2) |psi> ||
    must vanish, where |psi> purifies the shared state and the
    projectors act as identity on the purifier. Each projector is
    applied to its party's axis of the (party, party, party, purifier)
    tensor of |psi>.
    """
    psi = strategy.purification.reshape(*strategy.party_dims, -1)
    first, second = _CROSS_PAIRS

    def projected(party):
        # Row (t, x) is the flattened P|psi> for the party's flag-t projector at input x.
        ops = np.stack([strategy.flag_projector(party, x, t) for t in (0, 1) for x in range(N_INPUTS[party])])
        return _apply_local(ops, psi, party).reshape(2, N_INPUTS[party], -1)

    rows = np.concatenate([projected(party) for party in range(3)], axis=1)
    # gaps[t, n] is ||(P_i - P_j)|psi>|| at flag t for the n-th pair (i, j).
    gaps = np.linalg.norm(rows[:, first] - rows[:, second], axis=-1)
    # The first largest gap, in the order t, then pair, is the worst one.
    t, n = np.unravel_index(int(np.argmax(gaps)), gaps.shape)
    residual = float(gaps[t, n])
    worst = (int(t), _FLAG_KEYS[first[n]], _FLAG_KEYS[second[n]]) if residual > 0.0 else None
    return _report("projection_lemma", residual, ATOL_STATE, worst=repr(worst))


def _require_projective(strategy: Strategy):
    for party, families in enumerate(strategy.measurements):
        keys = [(x, label) for x in range(N_INPUTS[party]) for label in OUTCOME_LABELS]
        e = np.stack([families[x][label] for x, label in keys])
        bad = np.abs(e @ e - e).max(axis=(1, 2)) > ATOL_IDENTITY
        if bad.any():
            x, label = keys[int(np.argmax(bad))]
            raise ValueError(
                f"party {party} input {x} outcome {label} is not projective; "
                "dilate with qops.naimark_dilation first"
            )


def _branch_operators(strategy: Strategy, partner: int, t: int):
    """Signed observables, flag projectors and CHSH block of one branch.

    All act on the (Alice, partner) space. The operator on the full space
    is each of them tensored with the spectator's identity, so entry
    deviations, eigenvalues and expectations on the reduced state of
    (Alice, partner) are those of the full operators.
    """
    def local(party):
        # Signed observables A_0, A_1, then flag projectors P_0, P_1.
        fams = [strategy.measurements[party][x] for x in (0, 1)]
        signed = [fam[(0, t)] - fam[(1, t)] for fam in fams]
        return np.stack(signed + [strategy.flag_projector(party, x, t) for x in (0, 1)])

    # The Kronecker product of stacks embeds each operator of a stack at once.
    a0, a1, *alice_flags = kron_stack(local(0), identity(strategy.party_dims[partner]))
    b0, b1, *partner_flags = kron_stack(identity(strategy.party_dims[0]), local(partner))
    flags = alice_flags + partner_flags
    chsh = a0 @ (b0 + b1) + a1 @ (b0 - b1)
    return a0, a1, b0, b1, flags, chsh


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
    if pair not in ("ab", "ac"):
        raise ValueError(f"pair must be 'ab' or 'ac', got {pair!r}")
    _require_projective(strategy)
    partner = 1 if pair == "ab" else 2
    a0, a1, b0, b1, flags, chsh = _branch_operators(strategy, partner, t)
    s1 = a0 + a1 - SQRT2 * b0
    s2 = a0 - a1 - SQRT2 * b1
    lhs = (SQRT2 / 4.0) * (s1 @ s1 + s2 @ s2)
    rhs = (SQRT2 / 2.0) * sum(flags) - chsh
    residual = float(np.abs(lhs - rhs).max())
    min_eig = float(np.linalg.eigvalsh(lhs)[0])
    ok = residual <= ATOL_IDENTITY and min_eig >= -ATOL_IDENTITY
    return CheckReport(
        name=f"sos_identity_{pair}_t{t}",
        residual=residual,
        tolerance=ATOL_IDENTITY,
        passed=ok,
        details={"min_eigenvalue_lhs": min_eig},
    )


def check_weighted_tsirelson(strategy: Strategy) -> CheckReport:
    """Each branch block expectation obeys <block_t> <= 2*sqrt(2) p_T(t).

    Reports the slack per branch (Alice-Bob at t=0, Alice-Carole at
    t=1); the residual is the worst constraint violation, zero when both
    hold. A maximally violating strategy saturates with zero slack.
    Expectations are taken in the reduced state of Alice and the partner.
    """
    slacks = {}
    for (pair, partner), t in zip(_PAIRS, (0, 1)):
        _, _, _, _, flags, chsh = _branch_operators(strategy, partner, t)
        rho = partial_trace(strategy.state, strategy.party_dims, [0, partner])
        p_t = float(np.mean([_expectation(rho, f) for f in flags]))
        value = _expectation(rho, chsh)
        slacks[f"{pair}_t{t}"] = CHSH_QUANTUM_MAX * p_t - value
    residual = max(0.0, *(-s for s in slacks.values()))
    return _report("weighted_tsirelson", residual, ATOL_IDENTITY, slacks=slacks)


def extract_conditional_behavior(strategy: Strategy, t: int) -> np.ndarray:
    """Branch-conditioned pair behavior p(a, partner | x, w, T = t).

    Returns a (2, 2, 2, 2) array over (x, w, a, partner_value), gated on
    all flags agreeing at t and normalized by the branch weight. Raises
    if the table depends on the spectator party's input beyond
    ATOL_IDENTITY or if the branch weight vanishes.
    """
    if t not in (0, 1):
        raise ValueError(f"branch must be 0 or 1, got {t}")
    table = behavior_from_strategy(strategy).table
    spectator_axis = 2 if t == 0 else 1
    tables = []
    for spec_input in range(N_INPUTS[spectator_axis]):
        out = np.empty((2, 2, 2, 2))
        for x in (0, 1):
            for w in (0, 1):
                idx = (x, w, spec_input) if t == 0 else (x, spec_input, w)
                cell = table[idx][:, t, :, t, :, t]
                joint = cell.sum(axis=2) if t == 0 else cell.sum(axis=1)
                out[x, w] = joint
        tables.append(out)
    spread = max(float(np.abs(tables[i] - tables[0]).max()) for i in range(1, len(tables)))
    if spread > ATOL_IDENTITY:
        raise ValueError(f"conditional behavior depends on the spectator input (drift {spread:.3e})")
    cond = tables[0]
    weight = float(cond[0, 0].sum())
    if weight <= 1e-12:
        raise ValueError(f"flag branch {t} has no weight")
    return cond / weight


def check_decoupling(strategy: Strategy, t: int = 0) -> CheckReport:
    """Alice's generation outcome decouples from the purifier at max violation.

    Builds the classical-quantum state of (Alice's value at input 0,
    branch t) and the purifier E, and reports the trace distance to
    uniform (x) reduced, together with H(A|E). At visibility 1 the
    distance vanishes and H(A|E) = 1; below it the entropy drop is
    informational.
    """
    if t not in (0, 1):
        raise ValueError(f"branch must be 0 or 1, got {t}")
    psi = strategy.purification.reshape(*strategy.party_dims, -1)
    env = psi.shape[-1]
    effects = np.stack([strategy.measurements[0][0][(a, t)] for a in (0, 1)])
    # Purifier-side subnormalized state Tr_parties[(M (x) 1)|psi><psi|], with
    # M applied to Alice's axis of the (party, party, party, purifier) tensor.
    applied = _apply_local(effects, psi, 0).reshape(2, -1, env)
    blocks = [m.T @ psi.reshape(-1, env).conj() for m in applied]
    weight = float(sum(b.trace().real for b in blocks))
    if weight <= 1e-12:
        return _report(f"decoupling_t{t}", np.inf, ATOL_STATE, reason="vanishing branch weight")
    rho_ae = np.zeros((2 * env, 2 * env), dtype=complex)
    for a, block in enumerate(blocks):
        rho_ae[a * env:(a + 1) * env, a * env:(a + 1) * env] = block / weight
    rho_ae = (rho_ae + rho_ae.conj().T) / 2.0
    rho_e = partial_trace(rho_ae, [2, env], [1])
    product = np.kron(np.eye(2) / 2.0, rho_e)
    distance = trace_distance(rho_ae, product)
    h_a_given_e = von_neumann_entropy(rho_ae) - von_neumann_entropy(rho_e)
    return _report(
        f"decoupling_t{t}",
        distance,
        ATOL_STATE,
        conditional_entropy=h_a_given_e,
        branch_weight=weight,
    )


def run_check_suite(strategy: Strategy, suite: str = "all") -> list[CheckReport]:
    """Run one named suite ('sos', 'lemma', 'tsirelson', 'decoupling', 'all')."""
    reports = []
    if suite in ("lemma", "all"):
        reports.append(check_flag_consistency(strategy))
        reports.append(check_projection_lemma(strategy))
    if suite in ("sos", "all"):
        for pair in ("ab", "ac"):
            for t in (0, 1):
                reports.append(check_sos_identity(strategy, pair, t))
    if suite in ("tsirelson", "all"):
        reports.append(check_weighted_tsirelson(strategy))
    if suite in ("decoupling", "all"):
        for t in (0, 1):
            reports.append(check_decoupling(strategy, t))
    if not reports:
        raise ValueError(f"unknown check suite {suite!r}")
    return reports


def reports_to_json(reports) -> str:
    def clean(value):
        if isinstance(value, dict):
            return {str(k): clean(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [clean(v) for v in value]
        if isinstance(value, (np.floating, float)):
            return float(value)
        if isinstance(value, (np.integer, int)):
            return int(value)
        return value

    return json.dumps(
        [
            {
                "name": r.name,
                "residual": clean(r.residual),
                "tolerance": r.tolerance,
                "passed": r.passed,
                "details": clean(r.details),
            }
            for r in reports
        ]
    )
