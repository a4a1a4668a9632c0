import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import flagcka.checks as checks_module
from flagcka.bell import BELL_FUNCTIONALS, _BLOCK_CELLS, _BRANCH_CELLS, _pair_joint, behavior_from_strategy, flag_stats
from flagcka.checks import (
    VERIFY_CHUNK,
    check_random_strategies,
    check_decoupling,
    check_flag_consistency,
    check_projection_lemma,
    check_sos_identity,
    check_weighted_tsirelson,
    reports_to_json,
    run_check_suite,
)
from flagcka.checks import _branch_operators, _one
from flagcka.qops import (
    basis_ket,
    haar_unitaries,
    identity,
    partial_trace,
    plus_ket,
    projector,
    purify,
    random_density_operator,
    tensor,
    von_neumann_entropy,
)
from flagcka.strategies import (
    N_INPUTS,
    OUTCOME_LABELS,
    NoiseParams,
    Strategy,
    honest_flagged_strategy,
    random_projective_effects,
    random_projective_strategy,
)

from devices import constant_flag_strategy, trace_distance

SQRT2 = np.sqrt(2.0)


def random_unitary(dim, rng):
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    return haar_unitaries(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


def _family(strategy, party, x):
    """One (party, input) family of a strategy as a dict label -> effect."""
    return dict(zip(OUTCOME_LABELS, strategy.effects[party][x]))


def _copied_effects(strategy):
    """Writable copies of a strategy's effect stacks, to build a variant from."""
    return [np.array(stack) for stack in strategy.effects]


def test_full_suite_passes_on_honest():
    reports = run_check_suite(honest_flagged_strategy(), "all")
    assert len(reports) == 9
    for r in reports:
        assert r.passed, f"{r.name}: residual {r.residual}"


def test_flag_consistency_honest_weights():
    r = check_flag_consistency(honest_flagged_strategy())
    assert r.passed
    assert r.details["p_T"][0] == pytest.approx(0.5, abs=1e-12)
    assert r.details["p_T"][1] == pytest.approx(0.5, abs=1e-12)


def test_flag_consistency_fails_on_vanishing_branch():
    r = check_flag_consistency(constant_flag_strategy(0))
    assert not r.passed
    assert np.isinf(r.residual)


def _independent_flag_strategy() -> Strategy:
    # Every qubit, flags included, is |+>: the three flags are uniform
    # and independent, so coarse-grainings of different parties disagree.
    ket = tensor(*([plus_ket()] * 6)).ravel()
    return Strategy(state=projector(ket), effects=honest_flagged_strategy().effects, kind="flagged")


def test_flag_consistency_catches_independent_flags():
    r = check_flag_consistency(_independent_flag_strategy())
    assert not r.passed
    # Singles give 1/2, pairs 1/4: the spread is macroscopic.
    assert r.residual > 0.2


def test_projection_lemma_honest_and_random():
    assert check_projection_lemma(honest_flagged_strategy()).passed
    for seed in range(5):
        assert check_projection_lemma(random_projective_strategy(seed)).passed


def test_projection_lemma_catches_independent_flags():
    r = check_projection_lemma(_independent_flag_strategy())
    assert not r.passed
    # ||(P_A - P_B)|psi>|| = sqrt(1/2) for independent uniform flags
    assert r.residual == pytest.approx(np.sqrt(0.5), abs=1e-9)


def test_sos_identity_all_blocks_honest():
    s = honest_flagged_strategy()
    for pair in ("ab", "ac"):
        for t in (0, 1):
            r = check_sos_identity(s, pair, t)
            assert r.passed, f"{pair} t={t}: {r.residual}"
            assert r.details["min_eigenvalue_lhs"] >= -1e-10


def test_sos_identity_holds_under_noise():
    # The identity is about the measurement operators, not the state.
    s = honest_flagged_strategy(NoiseParams(visibility=0.7))
    assert check_sos_identity(s, "ab", 0).passed


def test_sos_identity_rejects_povm():
    honest = honest_flagged_strategy()
    effects = _copied_effects(honest)
    effects[0][0] = 0.5 * effects[0][0] + 0.125 * identity(4)
    povm_strategy = Strategy(state=honest.state, effects=tuple(effects), kind="flagged")
    with pytest.raises(ValueError, match="not projective"):
        check_sos_identity(povm_strategy, "ab", 0)


def test_weighted_tsirelson_honest_saturates():
    r = check_weighted_tsirelson(honest_flagged_strategy())
    assert r.passed
    # Maximal violation in both branches leaves zero slack.
    for slack in r.details["slacks"].values():
        assert slack == pytest.approx(0.0, abs=1e-9)


def test_weighted_tsirelson_random_has_slack():
    for seed in range(10):
        r = check_weighted_tsirelson(random_projective_strategy(seed))
        assert r.passed
        assert all(s >= -1e-10 for s in r.details["slacks"].values())


def _spectator_tables(table, cells):
    """A block's pair behavior per spectator input: the (3, 2, 2, 2, 2)
    array over (s, x, w, a, partner_value) that bell._pair_joint reads
    off the block's cells, at the partner's test inputs w."""
    return _pair_joint(table, cells).transpose(cells.index("s"), 0, cells.index("w"), 3, 4)[:, :, :2]


def test_extract_conditional_behavior_honest():
    # Both branches' pair behaviors, at every spectator input, are the
    # CHSH-maximal two-party behavior p(a, b | x, w) = (1 + (-1)^(a + b + x w)
    # / sqrt(2)) / 4 at branch weight 1/2.
    table = behavior_from_strategy(honest_flagged_strategy()).table
    for cells in _BRANCH_CELLS.values():
        tables = _spectator_tables(table, cells)
        for s, x, w, a, b in itertools.product(range(3), (0, 1), (0, 1), (0, 1), (0, 1)):
            expected = (1.0 + ((-1.0) ** (a + b + x * w)) / SQRT2) / 8.0
            assert tables[s, x, w, a, b] == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_extract_conditional_behavior_reads_each_branch_slice(seed):
    table = behavior_from_strategy(random_projective_strategy(seed)).table
    for t, cells in _BRANCH_CELLS.items():
        expected = np.empty((3, 2, 2, 2, 2))
        for s, x, w in itertools.product(range(3), (0, 1), (0, 1)):
            if t == 0:  # Alice and Bob at Bob's input w, Carole at input s and summed out
                expected[s, x, w] = table[x, w, s, :, 0, :, 0, :, 0].sum(axis=2)
            else:  # Alice and Carole at Carole's input w, Bob at input s and summed out
                expected[s, x, w] = table[x, s, w, :, 1, :, 1, :, 1].sum(axis=1)
        np.testing.assert_array_equal(_spectator_tables(table, cells), expected)


def test_extract_conditional_behavior_raises_on_spectator_drift():
    # Rotate Carole's flag basis at input 1 only: the t = 0 gate then
    # passes different mass depending on her input. The projection lemma
    # and flag consistency fail on it, and flag_stats refuses its weights.
    honest = honest_flagged_strategy()
    effects = _copied_effects(honest)
    value = {0: projector(np.array([1.0, 1.0]) / SQRT2), 1: projector(np.array([1.0, -1.0]) / SQRT2)}
    flag = {0: projector(plus_ket()), 1: projector(np.array([1.0, -1.0]) / SQRT2)}
    effects[2][1] = [tensor(value[c], flag[t]) for c, t in OUTCOME_LABELS]
    tampered = Strategy(state=honest.state, effects=tuple(effects), kind="flagged")
    consistency, lemma = run_check_suite(tampered, "lemma")
    assert (consistency.name, consistency.passed) == ("flag_consistency", False)
    assert consistency.residual == pytest.approx(0.25, abs=1e-12)
    assert (lemma.name, lemma.passed) == ("projection_lemma", False)
    assert lemma.residual == pytest.approx(1.0 / SQRT2, abs=1e-12)
    behavior = behavior_from_strategy(tampered)
    tables = _spectator_tables(behavior.table, _BRANCH_CELLS[0])
    assert np.abs(tables[1] - tables[0]).max() == pytest.approx((1.0 + 1.0 / SQRT2) / 16.0, abs=1e-12)
    with pytest.raises(ValueError, match="varies with inputs"):
        flag_stats(behavior)


def test_decoupling_honest():
    for t in (0, 1):
        r = check_decoupling(honest_flagged_strategy(), t)
        assert r.passed
        assert r.residual < 1e-10
        assert r.details["conditional_entropy"] == pytest.approx(1.0, abs=1e-9)
        assert r.details["branch_weight"] == pytest.approx(0.5, abs=1e-12)


def test_decoupling_degrades_with_noise():
    r = check_decoupling(honest_flagged_strategy(NoiseParams(visibility=0.9)), 0)
    assert not r.passed
    assert r.residual > 0.01
    assert r.details["conditional_entropy"] < 1.0 - 1e-3


def test_decoupling_classical_copy_attack():
    # Dephasing the value qubits hands the purifier a classical copy of
    # Alice's generation outcome: H(A|E) collapses to zero.
    honest = honest_flagged_strategy()
    dims = (2, 2, 2, 2, 2, 2)
    rho = np.zeros_like(honest.state)
    for i in (0, 1):
        for j in (0, 1):
            p = tensor(
                projector(basis_ket(2, i)), identity(2),
                projector(basis_ket(2, j)), identity(2),
                identity(2), identity(2),
            )
            rho += p @ honest.state @ p
    dephased = Strategy(state=rho, effects=honest.effects, kind="flagged")
    r = check_decoupling(dephased, 0)
    assert not r.passed
    assert r.residual > 0.4
    assert r.details["conditional_entropy"] == pytest.approx(0.0, abs=1e-9)


def test_decoupling_vanishing_branch():
    r = check_decoupling(constant_flag_strategy(1), 0)
    assert not r.passed
    assert np.isinf(r.residual)


@pytest.mark.parametrize("t", [2, -1])
def test_decoupling_refuses_a_branch_that_is_not_0_or_1(t):
    with pytest.raises(ValueError, match=f"^branch must be 0 or 1, got {t}$"):
        check_decoupling(honest_flagged_strategy(), t)


def _decoupling_embedded(strategy, t):
    """check_decoupling's numbers with Alice's effect embedded into the full space."""
    dim = strategy.state.shape[0]
    psi_mat = strategy.purification.reshape(dim, -1)
    env = psi_mat.shape[1]
    blocks = [psi_mat.T @ _ref_effect(strategy, 0, 0, (a, t)).T @ psi_mat.conj() for a in (0, 1)]
    weight = float(sum(b.trace().real for b in blocks))
    rho_ae = np.zeros((2 * env, 2 * env), dtype=complex)
    for a, block in enumerate(blocks):
        rho_ae[a * env:(a + 1) * env, a * env:(a + 1) * env] = block / weight
    rho_ae = (rho_ae + rho_ae.conj().T) / 2.0
    rho_e = partial_trace(rho_ae, [2, env], [1])
    distance = trace_distance(rho_ae, np.kron(np.eye(2) / 2.0, rho_e))
    return distance, von_neumann_entropy(rho_ae) - von_neumann_entropy(rho_e), weight


def test_decoupling_matches_embedded_effect():
    # Unequal local dimensions (Alice 2, then 4 and 3) catch an effect
    # applied to the wrong axis of the purification tensor.
    rng = np.random.default_rng(12)
    dims = (2, 4, 3)

    def family(d):
        u = random_unitary(d, rng)
        return [projector(u[:, i]) for i in range(d)] + [np.zeros((d, d), dtype=complex)] * (4 - d)

    generic = Strategy(
        random_density_operator(24, rng),
        tuple(np.array([family(d) for x in range(N_INPUTS[p])]) for p, d in enumerate(dims)),
    )
    strategies = [
        honest_flagged_strategy(),
        honest_flagged_strategy(NoiseParams(visibility=0.9)),
        *(random_projective_strategy(seed, NoiseParams(visibility=0.95)) for seed in range(3)),
        generic,
    ]
    for strategy in strategies:
        for t in (0, 1):
            report = check_decoupling(strategy, t)
            distance, entropy, weight = _decoupling_embedded(strategy, t)
            assert report.residual == pytest.approx(distance, abs=1e-12)
            assert report.details["conditional_entropy"] == pytest.approx(entropy, abs=1e-12)
            assert report.details["branch_weight"] == pytest.approx(weight, abs=1e-12)


def test_random_strategies_pass_operator_checks():
    # Operator identities hold for any projective flag-preserving
    # strategy; only decoupling is specific to the maximal violation.
    for seed in range(20):
        s = random_projective_strategy(seed)
        for r in run_check_suite(s, "all"):
            if r.name.startswith("decoupling"):
                continue
            assert r.passed, f"seed {seed} {r.name}: residual {r.residual}"


def test_run_check_suite_names():
    with pytest.raises(ValueError):
        run_check_suite(honest_flagged_strategy(), "everything")
    assert len(run_check_suite(honest_flagged_strategy(), "sos")) == 4
    assert len(run_check_suite(honest_flagged_strategy(), "lemma")) == 2
    assert len(run_check_suite(honest_flagged_strategy(), "tsirelson")) == 1
    assert len(run_check_suite(honest_flagged_strategy(), "decoupling")) == 2


def test_reports_to_json():
    reports = run_check_suite(honest_flagged_strategy(), "tsirelson")
    doc = json.loads(reports_to_json(reports))
    assert doc[0]["name"] == "weighted_tsirelson"
    assert doc[0]["passed"] is True
    assert "slacks" in doc[0]["details"]


# Kronecker references: the four rewritten checks as they were first
# written, with every operator embedded into the full 64-dimensional
# space. The checks evaluate the same identities on the subsystems the
# operators act on; these pin that the numbers agree.


def _embedded(strategy, party, op):
    ops = [identity(d) for d in strategy.party_dims]
    ops[party] = op
    return tensor(*ops)


def _ref_effect(strategy, party, x, label):
    """The effect embedded into the full space (identity elsewhere)."""
    return _embedded(strategy, party, _family(strategy, party, x)[label])


def _local_flag_projector(strategy, party, x, t):
    """Local coarse-graining sum_a M_{(a,t)|x} for one party."""
    family = _family(strategy, party, x)
    return family[(0, t)] + family[(1, t)]


def _ref_flag_projector(strategy, party, x, t):
    return _embedded(strategy, party, _local_flag_projector(strategy, party, x, t))


def _ref_expectation(rho, op):
    return float(np.einsum("ij,ji->", op, rho).real)


def _ref_flag_consistency(strategy):
    rho = strategy.state
    residual, weights = 0.0, {}
    for t in (0, 1):
        projs = [[_ref_flag_projector(strategy, p, x, t) for x in range(N_INPUTS[p])] for p in range(3)]
        values = [_ref_expectation(rho, op) for party in projs for op in party]
        for pa, pb in itertools.combinations(range(3), 2):
            values += [_ref_expectation(rho, opa @ opb) for opa in projs[pa] for opb in projs[pb]]
        values += [
            _ref_expectation(rho, opa @ opb @ opc) for opa in projs[0] for opb in projs[1] for opc in projs[2]
        ]
        weights[t] = float(np.mean(values))
        residual = max(residual, max(values) - min(values))
        if weights[t] <= 0.0:
            return np.inf, weights
    return residual, weights


def _ref_projection_lemma(strategy):
    psi = purify(strategy.state)
    psi_mat = psi.reshape(strategy.state.shape[0], -1)
    residual = 0.0
    for t in (0, 1):
        projected = {
            (p, x): _ref_flag_projector(strategy, p, x, t) @ psi_mat for p in range(3) for x in range(N_INPUTS[p])
        }
        for k1, k2 in itertools.combinations(sorted(projected), 2):
            if k1[0] != k2[0]:
                residual = max(residual, float(np.linalg.norm(projected[k1] - projected[k2])))
    return residual


def _ref_branch_operators(strategy, partner, t):
    def signed(party, x):
        fam = _family(strategy, party, x)
        return _embedded(strategy, party, fam[(0, t)] - fam[(1, t)])

    a0, a1, b0, b1 = signed(0, 0), signed(0, 1), signed(partner, 0), signed(partner, 1)
    flags = [_ref_flag_projector(strategy, p, x, t) for p in (0, partner) for x in (0, 1)]
    return a0, a1, b0, b1, flags, a0 @ (b0 + b1) + a1 @ (b0 - b1)


def _ref_sos(strategy, partner, t):
    a0, a1, b0, b1, flags, chsh = _ref_branch_operators(strategy, partner, t)
    s1 = a0 + a1 - SQRT2 * b0
    s2 = a0 - a1 - SQRT2 * b1
    lhs = (SQRT2 / 4.0) * (s1 @ s1 + s2 @ s2)
    rhs = (SQRT2 / 2.0) * sum(flags) - chsh
    return float(np.abs(lhs - rhs).max()), float(np.linalg.eigvalsh(lhs)[0])


def _ref_tsirelson_slacks(strategy):
    slacks = {}
    for pair, partner, t in (("ab", 1, 0), ("ac", 2, 1)):
        _, _, _, _, flags, chsh = _ref_branch_operators(strategy, partner, t)
        p_t = float(np.mean([_ref_expectation(strategy.state, f) for f in flags]))
        slacks[f"{pair}_t{t}"] = 2.0 * SQRT2 * p_t - _ref_expectation(strategy.state, chsh)
    return slacks


def _generic_strategy(seed):
    # A random mixed state and, per party and input, the projectors onto
    # the columns of a random unitary: no flag structure at all, so every
    # check sees nonzero residuals that the reference must reproduce.
    rng = np.random.default_rng(seed)
    effects = []
    for party in range(3):
        families = []
        for x in range(N_INPUTS[party]):
            u = random_unitary(4, rng)
            families.append([projector(u[:, k]) for k in range(len(OUTCOME_LABELS))])
        effects.append(np.array(families))
    return Strategy(state=random_density_operator(64, rng), effects=tuple(effects), kind="flagged")


_REFERENCE_CASES = {
    "honest": lambda: honest_flagged_strategy(),
    "honest_v0.9": lambda: honest_flagged_strategy(NoiseParams(visibility=0.9)),
    **{f"random_{seed}": (lambda seed=seed: random_projective_strategy(seed)) for seed in range(5)},
    "independent_flags": _independent_flag_strategy,
    "generic_0": lambda: _generic_strategy(0),
    "generic_1": lambda: _generic_strategy(1),
}


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_local_checks_match_kronecker_reference(case):
    s = _REFERENCE_CASES[case]()
    tol = 1e-12

    r = check_flag_consistency(s)
    residual, weights = _ref_flag_consistency(s)
    assert r.residual == pytest.approx(residual, abs=tol)
    assert r.details["p_T"].keys() == weights.keys()
    for t in weights:
        assert r.details["p_T"][t] == pytest.approx(weights[t], abs=tol)

    assert check_projection_lemma(s).residual == pytest.approx(_ref_projection_lemma(s), abs=tol)

    for pair, partner in (("ab", 1), ("ac", 2)):
        for t in (0, 1):
            r = check_sos_identity(s, pair, t)
            residual, min_eig = _ref_sos(s, partner, t)
            assert r.residual == pytest.approx(residual, abs=tol), (pair, t)
            assert r.details["min_eigenvalue_lhs"] == pytest.approx(min_eig, abs=tol), (pair, t)

    slacks = _ref_tsirelson_slacks(s)
    r = check_weighted_tsirelson(s)
    assert r.details["slacks"].keys() == slacks.keys()
    for key, slack in slacks.items():
        assert r.details["slacks"][key] == pytest.approx(slack, abs=tol), key
    assert r.residual == pytest.approx(max(0.0, *(-v for v in slacks.values())), abs=tol)


def _ref_stacked_branch_operators(strategy, partner, t):
    # `_branch_operators` as first written: each party's stack embedded by
    # one `tensor` call with the other party's identity.
    def local(party):
        fams = [_family(strategy, party, x) for x in (0, 1)]
        signed = [fam[(0, t)] - fam[(1, t)] for fam in fams]
        return np.stack(signed + [_local_flag_projector(strategy, party, x, t) for x in (0, 1)])

    a0, a1, *alice_flags = tensor(local(0), identity(strategy.party_dims[partner])[None])
    b0, b1, *partner_flags = tensor(identity(strategy.party_dims[0])[None], local(partner))
    return a0, a1, b0, b1, alice_flags + partner_flags, a0 @ (b0 + b1) + a1 @ (b0 - b1)


_BLOCK_STRATEGIES = {
    **{f"honest_v{v}": (lambda v=v: honest_flagged_strategy(NoiseParams(visibility=v))) for v in (1.0, 0.9)},
    **{f"random_{seed}": (lambda seed=seed: random_projective_strategy(seed)) for seed in range(20)},
}


@pytest.mark.parametrize("name", list(_BLOCK_STRATEGIES))
def test_chsh_block_operator_gives_the_block_value(name):
    # The two statements of a flagged CHSH block agree: the expectation of
    # the checks' block operator on the (Alice, partner) state equals the
    # value of the Bell functional's coefficients on the behavior table.
    strategy = _BLOCK_STRATEGIES[name]()
    functional = BELL_FUNCTIONALS["flagged"]
    values = functional.block_values(behavior_from_strategy(strategy).table)
    for block, value in zip(functional.blocks, values.tolist()):
        cells = _BLOCK_CELLS["flagged"][block]
        partner, t = cells.index("w"), cells[4]  # the flag it fixes on Alice's axis, ta
        chsh = _branch_operators(_one(strategy), partner, t)[-1][0]
        rho = partial_trace(strategy.state, strategy.party_dims, [0, partner])
        assert abs(np.trace(rho @ chsh).real - value) <= 1e-12, (block, value)


@pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
def test_branch_operators_match_tensor_reference(case):
    s = _REFERENCE_CASES[case]()
    for partner in (1, 2):
        for t in (0, 1):
            a0, a1, b0, b1, flags, chsh = (op[0] for op in _branch_operators(_one(s), partner, t))
            ref = _ref_stacked_branch_operators(s, partner, t)
            assert len(flags) == len(ref[4]) == 4
            for k, (g, r) in enumerate(zip((a0, a1, b0, b1, *flags, chsh), (*ref[:4], *ref[4], ref[5]))):
                np.testing.assert_allclose(g, r, rtol=0, atol=0, err_msg=f"operator {k}, partner {partner}, t={t}")


def test_sos_names_the_first_non_projective_effect():
    # Two smeared families: (party 1, input 2) comes before (party 2, input 0)
    # in the (party, input, label) order, so it is the one named.
    honest = honest_flagged_strategy()
    effects = _copied_effects(honest)
    for party, x in ((2, 0), (1, 2)):
        effects[party][x] = 0.5 * effects[party][x] + 0.125 * identity(4)
    s = Strategy(state=honest.state, effects=tuple(effects), kind="flagged")
    with pytest.raises(ValueError, match=r"^party 1 input 2 outcome \(0, 0\) is not projective"):
        check_sos_identity(s, "ab", 0)
    # Within the family the first bad label is named: (1, 0), ahead of (1, 1).
    effects = _copied_effects(honest)
    fam = effects[1][2]  # labels (0, 0), (0, 1), (1, 0), (1, 1)
    fam[2], fam[3] = fam[2] + 0.5 * fam[3], 0.5 * fam[3]
    s = Strategy(state=honest.state, effects=tuple(effects), kind="flagged")
    with pytest.raises(ValueError, match=r"^party 1 input 2 outcome \(1, 0\) is not projective"):
        check_sos_identity(s, "ac", 1)


def test_generic_reference_cases_are_not_trivial():
    # The generic strategy must tell parties and branches apart, or the
    # reference comparison above could not catch a check reading the wrong
    # ones. The SOS identity holds for any projective family, so there its
    # minimum eigenvalue is what depends on the partner.
    s = _generic_strategy(0)
    assert _ref_flag_consistency(s)[0] > 0.1
    assert _ref_projection_lemma(s) > 0.1
    min_eigs = {(partner, t): _ref_sos(s, partner, t)[1] for partner in (1, 2) for t in (0, 1)}
    assert abs(min_eigs[1, 0] - min_eigs[2, 0]) > 1e-3 and abs(min_eigs[1, 1] - min_eigs[2, 1]) > 1e-3
    slacks = _ref_tsirelson_slacks(s)
    assert abs(slacks["ab_t0"] - slacks["ac_t1"]) > 1e-3


def test_purification_is_computed_once_per_strategy(monkeypatch):
    import flagcka.strategies as strategies_module

    calls = []
    real = strategies_module.purify
    monkeypatch.setattr(strategies_module, "purify", lambda rho: calls.append(1) or real(rho))
    s = honest_flagged_strategy()
    reports = run_check_suite(s, "all")
    assert len(calls) == 1
    assert all(r.passed for r in reports)
    assert not s.purification.flags.writeable


# Stacked checks: `check_random_strategies` against one strategy at a time.

_STACK_SUITES = ("all", "sos", "lemma", "tsirelson")


def _assert_same_reports(got, want):
    # Names, order and verdicts exactly; every number within 1e-15; the
    # projection lemma's worst pair only where the gap is not float dust.
    assert [r.name for r in got] == [r.name for r in want]
    assert [r.passed for r in got] == [r.passed for r in want]
    for g, w in zip(got, want):
        assert g.tolerance == w.tolerance
        assert abs(g.residual - w.residual) <= 1e-15, (w.name, g.residual, w.residual)
        assert g.details.keys() == w.details.keys()
        for key, value in w.details.items():
            if isinstance(value, dict):
                assert g.details[key].keys() == value.keys()
                for k, v in value.items():
                    assert abs(g.details[key][k] - v) <= 1e-15, (w.name, key, k)
            elif isinstance(value, float):
                assert abs(g.details[key] - value) <= 1e-15, (w.name, key)
            elif key != "worst" or w.residual >= 1e-15:
                assert g.details[key] == value, (w.name, key)


@settings(derandomize=True, deadline=None, max_examples=12)
@given(
    seeds=hst.one_of(
        hst.lists(hst.integers(0, 2**63 - 1), min_size=0, max_size=2 * VERIFY_CHUNK + 3),
        hst.integers(0, 10**6).flatmap(
            lambda first: hst.sampled_from([1, VERIFY_CHUNK, VERIFY_CHUNK + 1, 2 * VERIFY_CHUNK + 3]).map(
                lambda n: list(range(first, first + n))
            )
        ),
    ),
    suite=hst.sampled_from(_STACK_SUITES),
)
def test_stacked_reports_equal_one_strategy_at_a_time(seeds, suite):
    got = check_random_strategies(honest_flagged_strategy(), seeds, suite)
    # Decoupling is a property of the maximal violation only: left out.
    want = [
        r for seed in seeds for r in run_check_suite(random_projective_strategy(seed), suite)
        if not r.name.startswith("decoupling")
    ]
    _assert_same_reports(got, want)


def test_stacked_reports_leave_out_decoupling():
    assert check_random_strategies(honest_flagged_strategy(), range(3), "decoupling") == []
    with pytest.raises(ValueError, match="unknown check suite"):
        check_random_strategies(honest_flagged_strategy(), range(3), "everything")


def test_stacked_checks_share_the_base_state():
    # A noisy base state is what the random strategies of that noise have.
    noise = NoiseParams(visibility=0.8)
    base = honest_flagged_strategy(noise)
    got = check_random_strategies(base, [3, 4], "all")
    want = [r for seed in (3, 4) for r in run_check_suite(random_projective_strategy(seed, noise), "all")[:7]]
    _assert_same_reports(got, want)


def _spoil(monkeypatch, bad_seeds, fault):
    # Wrap the stack builder so that every seed in bad_seeds gets Carole's
    # input-1 family spoiled: scaled off the identity by 1e-9, or smeared
    # into a complete but not projective family.
    real = checks_module.random_projective_effects

    def spoiled(chunk):
        stacks = [stack.copy() for stack in real(chunk)]
        for k, seed in enumerate(chunk):
            if seed in bad_seeds:
                family = stacks[2][k, 1]
                if fault == "incomplete":
                    family[3] *= 1 + 1e-9
                else:
                    family[:] = 0.5 * family + 0.125 * identity(4)
        return tuple(stacks)

    monkeypatch.setattr(checks_module, "random_projective_effects", spoiled)


@pytest.mark.parametrize("member", [0, VERIFY_CHUNK - 2, VERIFY_CHUNK + 2])
@pytest.mark.parametrize("fault", ["incomplete", "non_projective"])
def test_invalid_stack_member_names_its_seed(monkeypatch, member, fault):
    seeds = list(range(500, 500 + 2 * VERIFY_CHUNK + 3))
    # Later bad members, in the same chunk and in the last one: the first
    # bad member is named.
    _spoil(monkeypatch, {seeds[member], seeds[member + 1], seeds[-1]}, fault)
    message = (
        r"effects do not sum to identity \(max deviation"
        if fault == "incomplete"
        else r"party 2 input 1 outcome \(0, 0\) is not projective"
    )
    for suite in ("all", "sos"):
        with pytest.raises(ValueError, match=f"^random strategy seed {seeds[member]}: {message}"):
            check_random_strategies(honest_flagged_strategy(), seeds, suite)
    if fault == "non_projective":
        # As for one strategy, only SOS needs projective effects.
        reports = check_random_strategies(honest_flagged_strategy(), seeds, "lemma")
        assert len(reports) == 2 * len(seeds)
    else:
        with pytest.raises(ValueError, match=f"^random strategy seed {seeds[member]}: {message}"):
            check_random_strategies(honest_flagged_strategy(), seeds, "lemma")


def test_strategy_effect_stacks_are_the_checked_families():
    s = random_projective_strategy(11)
    built = random_projective_effects([11])
    for party, stack in enumerate(s.effects):
        assert not stack.flags.writeable
        assert stack.shape == (N_INPUTS[party], 4, 4, 4)
        assert np.array_equal(stack, built[party][0])


@pytest.mark.parametrize("suite", _STACK_SUITES)
def test_stack_of_generic_members_equals_each_member_alone(suite):
    # Random projective members agree on much (p_T = 1/2, zero gaps); the
    # generic ones differ in every check, so a kernel that mixes members up
    # fails here.
    base = _generic_strategy(0)
    members = [Strategy(base.state, _generic_strategy(seed).effects) for seed in range(1, 6)]
    effects = tuple(np.stack([m.effects[party] for m in members]) for party in range(3))
    want = [r for m in members for r in run_check_suite(m, suite) if not r.name.startswith("decoupling")]
    if suite in ("all", "lemma"):
        assert len({r.residual for r in want if r.name == "flag_consistency"}) == len(members)
    _assert_same_reports(checks_module._stack_checks(base, effects, suite), want)


def test_sos_identity_rejects_unknown_branches():
    for pair, t in (("bc", 0), ("ab", 2), ("ac", -1)):
        with pytest.raises(ValueError, match="^pair must be 'ab' or 'ac' and t 0 or 1"):
            check_sos_identity(honest_flagged_strategy(), pair, t)
