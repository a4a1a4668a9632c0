import hashlib
import json

import numpy as np
import pytest

from flagcka.qops import (
    basis_ket,
    haar_unitaries,
    identity,
    partial_trace,
    permute_subsystems,
    phi_plus,
    plus_ket,
    projector,
    tensor,
)
from flagcka.strategies import (
    ALICE_OBSERVABLES,
    N_INPUTS,
    NoiseParams,
    OUTCOME_LABELS,
    PARTNER_OBSERVABLES,
    Strategy,
    _FLAG_PROJECTORS,
    _FLAG_TRIPLES,
    _FLAGGED_EFFECTS,
    _PARALLEL_EFFECTS,
    _value_projectors,
    depolarize,
    honest_flagged_strategy,
    honest_parallel_strategy,
    random_projective_effects,
    random_projective_strategy,
    strategy_from_json,
    strategy_to_json,
)

from devices import constant_flag_strategy

SQRT2 = np.sqrt(2.0)


def random_unitary(dim, rng):
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    return haar_unitaries(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


def _flag_projector(strategy, party, x, t):
    """Local coarse-graining sum_a M_{(a,t)|x} of one party's family."""
    family = dict(zip(OUTCOME_LABELS, strategy.effects[party][x]))
    return family[(0, t)] + family[(1, t)]


def test_observables_square_to_identity():
    for obs in ALICE_OBSERVABLES + PARTNER_OBSERVABLES:
        np.testing.assert_allclose(obs @ obs, identity(2), atol=1e-12)


def test_binary_observable_effects():
    (effects,) = _value_projectors([np.diag([1.0, -1.0])])
    np.testing.assert_allclose(effects[0], np.diag([1.0, 0.0]), atol=1e-15)
    np.testing.assert_allclose(effects[1], np.diag([0.0, 1.0]), atol=1e-15)
    with pytest.raises(ValueError):
        _value_projectors([np.diag([1.0, -2.0])])  # not an involution


def test_noise_params_validation():
    NoiseParams(visibility=0.5)
    with pytest.raises(ValueError):
        NoiseParams(visibility=1.5)
    with pytest.raises(ValueError):
        NoiseParams(visibility=-0.1)


def test_depolarize_limits():
    rho = projector(plus_ket())
    np.testing.assert_allclose(depolarize(rho, 1.0), rho)
    np.testing.assert_allclose(depolarize(rho, 0.0), identity(2) / 2)


def test_honest_flagged_state_structure():
    s = honest_flagged_strategy()
    assert s.kind == "flagged"
    assert s.party_dims == (4, 4, 4)
    rho = s.state
    np.testing.assert_allclose(np.trace(rho).real, 1.0, atol=1e-12)

    # Flag sector weights: half in 000, half in 111, nothing mixed.
    dims = (2, 2, 2, 2, 2, 2)  # value A, flag A, value B, flag B, value C, flag C
    flags = partial_trace(rho, dims, keep=(1, 3, 5))
    np.testing.assert_allclose(np.diag(flags).real, [0.5, 0, 0, 0, 0, 0, 0, 0.5], atol=1e-12)

    # Branch t=0: conditioning the flags on 000 leaves phi+ on AB, |+> on C.
    p000 = tensor(identity(2), projector(np.array([1.0, 0.0])))
    proj = tensor(p000, p000, p000)
    branch = proj @ rho @ proj
    branch = branch / np.trace(branch).real
    values = partial_trace(branch, dims, keep=(0, 2, 4))
    expected = tensor(projector(phi_plus()), projector(plus_ket()))
    # expected lives on (A, B) (x) C which is already the kept order
    np.testing.assert_allclose(values, expected, atol=1e-12)

    # Branch t=1: phi+ on AC, |+> on B.
    p111 = tensor(identity(2), projector(np.array([0.0, 1.0])))
    proj = tensor(p111, p111, p111)
    branch = proj @ rho @ proj
    branch = branch / np.trace(branch).real
    values = partial_trace(branch, dims, keep=(0, 2, 4))
    # |phi+>_AC (x) |+>_B written in (A, B, C) order
    ket = np.einsum("ac,b->abc", phi_plus().reshape(2, 2), plus_ket()).ravel()
    np.testing.assert_allclose(values, projector(ket), atol=1e-12)


def test_honest_measurements_are_projective_and_complete():
    s = honest_flagged_strategy()
    for party in range(3):
        n_inputs = (2, 3, 3)[party]
        for x in range(n_inputs):
            total = np.zeros((4, 4), dtype=complex)
            for e in s.effects[party][x]:
                np.testing.assert_allclose(e @ e, e, atol=1e-12)
                total += e
            np.testing.assert_allclose(total, identity(4), atol=1e-12)


def test_flag_projector_sums_effects():
    s = honest_flagged_strategy()
    pi0 = _flag_projector(s, 1, 2, 0)
    expected = s.effects[1][2, OUTCOME_LABELS.index((0, 0))] + s.effects[1][2, OUTCOME_LABELS.index((1, 0))]
    np.testing.assert_allclose(pi0, expected, atol=1e-15)
    np.testing.assert_allclose(pi0, tensor(identity(2), projector(basis_ket(2, 0))), atol=1e-15)


def test_constant_flag_strategy_sits_in_one_sector():
    for t in (0, 1):
        s = constant_flag_strategy(t)
        dims = (2, 2, 2, 2, 2, 2)
        flags = partial_trace(s.state, dims, keep=(1, 3, 5))
        expected = np.zeros(8)
        expected[7 * t] = 1.0  # 000 -> index 0, 111 -> index 7
        np.testing.assert_allclose(np.diag(flags).real, expected, atol=1e-12)


def test_parallel_strategy_structure():
    s = honest_parallel_strategy()
    assert s.kind == "parallel"
    assert s.party_dims == (4, 4, 4)
    dims = (2, 2, 2, 2, 2, 2)  # A1, A2, B1, B2, C1, C2
    # First slots: phi+ between A1 and B1.
    ab = partial_trace(s.state, dims, keep=(0, 2))
    np.testing.assert_allclose(ab, projector(phi_plus()), atol=1e-12)
    # Second slots: phi+ between A2 and C2.
    ac = partial_trace(s.state, dims, keep=(1, 5))
    np.testing.assert_allclose(ac, projector(phi_plus()), atol=1e-12)
    # Spectator slots are |+>.
    for slot in (3, 4):  # B2, C1
        np.testing.assert_allclose(partial_trace(s.state, dims, keep=(slot,)), projector(plus_ket()), atol=1e-12)


def test_strategy_validation_rejects_garbage():
    s = honest_flagged_strategy()
    with pytest.raises(ValueError):
        Strategy(state=np.eye(64) / 63.9, effects=s.effects, kind=s.kind)  # trace != 1
    bad_effects = [np.array(e) for e in s.effects]
    bad_effects[0][0, OUTCOME_LABELS.index((0, 0))] = np.eye(4) * 0.5  # breaks completeness
    with pytest.raises(ValueError):
        Strategy(state=s.state, effects=tuple(bad_effects), kind=s.kind)


def test_random_projective_strategy_keeps_flag_sectors():
    # Haar rotations act within each flag sector, so the flag marginals
    # stay (1/2, 1/2) and measurements stay projective.
    for seed in range(5):
        s = random_projective_strategy(seed)
        dims = (2, 2, 2, 2, 2, 2)
        flags = partial_trace(s.state, dims, keep=(1, 3, 5))
        np.testing.assert_allclose(np.diag(flags).real, [0.5, 0, 0, 0, 0, 0, 0, 0.5], atol=1e-10)
        for party in range(3):
            for effects in s.effects[party]:
                total = sum(effects)
                np.testing.assert_allclose(total, identity(4), atol=1e-10)
                for e in effects:
                    np.testing.assert_allclose(e @ e, e, atol=1e-10)


def test_random_projective_strategy_is_seeded():
    # The state is shared; the per-seed randomness lives in the measurements.
    a = random_projective_strategy(42)
    b = random_projective_strategy(42)
    c = random_projective_strategy(43)
    np.testing.assert_allclose(a.state, b.state, atol=0)
    key = OUTCOME_LABELS.index((0, 0))
    np.testing.assert_allclose(a.effects[0][0, key], b.effects[0][0, key], atol=0)
    assert not np.allclose(a.effects[0][0, key], c.effects[0][0, key])


def test_strategy_json_roundtrip():
    for build in (honest_flagged_strategy, honest_parallel_strategy):
        s = build()
        blob = strategy_to_json(s)
        back = strategy_from_json(blob)
        assert back.kind == s.kind
        assert back.party_dims == s.party_dims
        np.testing.assert_allclose(back.state, s.state, atol=1e-15)
        for party in range(3):
            assert back.effects[party].shape == s.effects[party].shape
            np.testing.assert_allclose(back.effects[party], s.effects[party], atol=1e-15)


# Reference builders: the measurement families as first written, one
# `tensor` call per effect. The builders make each party's effects as one
# stacked array; these pin that every effect is the same to the last bit.


def _ref_values(obs):
    """The value-a projectors (I + (-1)^a O)/2 of one observable."""
    return [(identity(2) + (-1) ** a * obs) / 2 for a in (0, 1)]


def _ref_flagged_families(observables, rotations=None):
    families = {}
    for x, obs in enumerate(observables):
        value = _ref_values(obs)
        families[x] = {}
        for a in (0, 1):
            for t in (0, 1):
                v = value[a] if rotations is None else rotations[t] @ value[a] @ rotations[t].conj().T
                families[x][(a, t)] = tensor(v, projector(basis_ket(2, t)))
    return families


def _ref_parallel_families(observables):
    families = {}
    for x, obs in enumerate(observables):
        value = _ref_values(obs)
        families[x] = {(o1, o2): tensor(value[o1], value[o2]) for o1 in (0, 1) for o2 in (0, 1)}
    return families


def _ref_random_measurements(seed):
    rng = np.random.default_rng(seed)
    meas = []
    for party in range(3):
        rotations = {t: random_unitary(2, rng) for t in (0, 1)}
        meas.append(_ref_flagged_families(ALICE_OBSERVABLES if party == 0 else PARTNER_OBSERVABLES, rotations))
    return meas


def _ref_measurements(kind):
    ref = _ref_flagged_families if kind == "flagged" else _ref_parallel_families
    return [ref(ALICE_OBSERVABLES), ref(PARTNER_OBSERVABLES), ref(PARTNER_OBSERVABLES)]


# Per flag branch t, the subsystem order (Q_A, T_A, Q_B, T_B, Q_C, T_C) read
# off a branch built as (Q_A, Q_partner, Q_spectator, T_A, T_B, T_C): Bob is
# the partner of branch 0, Carole of branch 1.
_REF_BRANCH_PERMS = ((0, 3, 1, 4, 2, 5), (0, 3, 2, 4, 1, 5))


def _ref_flagged_branch(t, v):
    flag = projector(basis_ket(2, t))
    rho = tensor(depolarize(projector(phi_plus()), v), projector(plus_ket()), flag, flag, flag)
    return permute_subsystems(rho, [2] * 6, _REF_BRANCH_PERMS[t])


def _ref_state(kind, v):
    """The state built factor by factor and permuted as a whole: flagged as
    the even mixture of both branches, "t0"/"t1" as one branch."""
    if kind == "parallel":
        pair, spectator = depolarize(projector(phi_plus()), v), projector(plus_ket())
        # Built as (A1, B1, C1, A2, C2, B2), target order (A1, A2, B1, B2, C1, C2).
        return permute_subsystems(tensor(pair, spectator, pair, spectator), [2] * 6, [0, 3, 1, 5, 2, 4])
    if kind == "flagged":
        return 0.5 * _ref_flagged_branch(0, v) + 0.5 * _ref_flagged_branch(1, v)
    return _ref_flagged_branch(int(kind[1]), v)


_BUILDERS = {
    "flagged": honest_flagged_strategy,
    "parallel": honest_parallel_strategy,
    "t0": lambda noise: constant_flag_strategy(0, noise),
    "t1": lambda noise: constant_flag_strategy(1, noise),
}

_BUILDER_CASES = {
    **{
        f"{kind}_v{v}": (
            lambda kind=kind, v=v: (
                _BUILDERS[kind](NoiseParams(visibility=v)),
                _ref_state(kind, v),
                _ref_measurements("parallel" if kind == "parallel" else "flagged"),
            )
        )
        for kind in _BUILDERS
        for v in (1.0, 0.9, 0.0, 0.123456789, 0.5, 0.97)
    },
    **{
        f"random_{seed}": (
            lambda seed=seed: (random_projective_strategy(seed), _ref_state("flagged", 1.0), _ref_random_measurements(seed))
        )
        for seed in range(5)
    },
}


@pytest.mark.parametrize("case", sorted(_BUILDER_CASES))
def test_stacked_builders_match_tensor_reference(case):
    s, ref_state, ref = _BUILDER_CASES[case]()
    assert s.state.dtype == ref_state.dtype and np.array_equal(s.state, ref_state)
    for party in range(3):
        assert list(range(len(s.effects[party]))) == list(ref[party])
        for x, effects in ref[party].items():
            assert s.effects[party].shape[1] == len(effects) and list(effects) == list(OUTCOME_LABELS)
            for n, e in enumerate(effects.values()):
                np.testing.assert_allclose(s.effects[party][x, n], e, rtol=0, atol=0)


def test_module_stacks_are_read_only_and_copied():
    # Built once at import; every strategy holds its own read-only copy.
    for array in (_FLAG_PROJECTORS, _FLAG_TRIPLES, *_FLAGGED_EFFECTS, *_PARALLEL_EFFECTS):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    for s, stacks in ((honest_flagged_strategy(), _FLAGGED_EFFECTS), (honest_parallel_strategy(), _PARALLEL_EFFECTS)):
        for held, module in zip(s.effects, stacks):
            assert np.array_equal(held, module) and not np.shares_memory(held, module)


_FAMILY_SLOTS = [(party, x) for party in range(3) for x in range(N_INPUTS[party])]


@pytest.mark.parametrize("party, x", _FAMILY_SLOTS)
def test_one_incomplete_family_fails_the_strategy(party, x):
    # Each party's families are checked complete together; a bad family
    # at any (party, input) must still be caught.
    honest = honest_flagged_strategy()
    effects = [np.array(stack) for stack in honest.effects]
    effects[party][x, 3] = 1.01 * effects[party][x, 3]  # label (1, 1)
    with pytest.raises(ValueError, match="effects do not sum to identity \\(max deviation"):
        Strategy(honest.state, tuple(effects))


@pytest.mark.parametrize("bad", range(3))
def test_one_non_involution_fails_the_value_projectors(bad):
    observables = list(PARTNER_OBSERVABLES)
    observables[bad] = 1.01 * observables[bad]
    with pytest.raises(ValueError, match="observable must square to the identity"):
        _value_projectors(observables)
    stacked = _value_projectors(PARTNER_OBSERVABLES)
    for obs, value in zip(PARTNER_OBSERVABLES, stacked):
        effects = _ref_values(obs)
        assert np.array_equal(value[0], effects[0]) and np.array_equal(value[1], effects[1])


def test_observable_squared_off_by_8e_6_is_rejected():
    # The square is (1 + 8e-6) I: np.allclose's default rtol let it pass.
    with pytest.raises(ValueError, match="observable must square to the identity"):
        _value_projectors([np.sqrt(1 + 8e-6) * ALICE_OBSERVABLES[0]])


def test_family_off_the_identity_by_4e_6_fails_the_strategy():
    honest = honest_flagged_strategy()
    effects = [np.array(stack) for stack in honest.effects]
    # Alice's (1, 1) effect at input 0 is |1><1| (x) |1><1|, diagonal entry 3.
    effects[0][0, 3] = effects[0][0, 3] + 4e-6 * projector(basis_ket(4, 3))
    with pytest.raises(ValueError, match=r"effects do not sum to identity \(max deviation 4\.000e-06\)"):
        Strategy(honest.state, tuple(effects))


@pytest.mark.parametrize("seeds", [[], [0], [5, 1, 5], list(range(100, 113))])
def test_random_effects_stack_each_seeds_strategy(seeds):
    stacks = random_projective_effects(seeds)
    assert [stack.shape for stack in stacks] == [(len(seeds), n, 4, 4, 4) for n in N_INPUTS]
    for k, seed in enumerate(seeds):
        s = random_projective_strategy(seed)
        for party in range(3):
            assert np.array_equal(stacks[party][k], s.effects[party])


def _sha256(stacks):
    digest = hashlib.sha256()
    for stack in stacks:
        digest.update(stack.tobytes())
    return digest.hexdigest()


def test_flagged_effect_stacks_are_pinned():
    # Digests of the complex128 bytes, party after party, of the honest
    # stacks and of the random ones of seeds 0-8.
    assert _sha256(_FLAGGED_EFFECTS) == "ec2e0539f7f1c3b01f75204bbdcf4325199a1f803e85c1875eaf5f4515baf6be"
    assert _sha256(random_projective_effects(range(9))) == (
        "adc3a38d069b6c8255b2a2634e8915fe2606906bbd37b489189e045538685e25"
    )


def test_strategy_arrays_are_read_only():
    s = honest_flagged_strategy()
    for party in range(3):
        with pytest.raises(ValueError, match="read-only"):
            s.effects[party][0, 0] = s.effects[party][0, 1]
    with pytest.raises(ValueError, match="read-only"):
        s.state[0, 0] = 0.0
    # What the purification was computed from cannot change under it.
    psi = s.purification
    assert not psi.flags.writeable
    assert np.array_equal(s.purification, psi)


def test_strategy_copies_what_the_caller_passed():
    honest = honest_flagged_strategy()
    state, effects = np.array(honest.state), [np.array(stack) for stack in honest.effects]
    s = Strategy(state, tuple(effects))
    # Swapping two labels keeps each family complete; the strategy must not see it.
    effects[1][2, [0, 1]] = effects[1][2, [1, 0]]
    state[:] = np.eye(64) / 64
    assert all(np.array_equal(a, b) for a, b in zip(s.effects, honest.effects))
    assert np.array_equal(s.state, honest.state)


@pytest.mark.parametrize(
    "shape, message",
    [
        ((3, 4, 4, 4), "party 0 effects must be \\(2, 4, d, d\\), got shape \\(3, 4, 4, 4\\)"),
        ((2, 3, 4, 4), "party 0 effects must be \\(2, 4, d, d\\)"),
        ((2, 4, 4), "party 0 effects must be \\(2, 4, d, d\\)"),
        ((2, 4, 4, 3), "effects must be square, got shape \\(4, 3\\)"),
    ],
)
def test_effect_stack_of_the_wrong_shape_is_rejected(shape, message):
    honest = honest_flagged_strategy()
    with pytest.raises(ValueError, match=message):
        Strategy(honest.state, (np.zeros(shape), *honest.effects[1:]))


def test_local_dimensions_that_disagree_with_the_state_are_rejected():
    honest = honest_flagged_strategy()
    # Carole's effects of dimension 2 make 4 * 4 * 2 = 32 against a 64 x 64 state.
    carole = np.broadcast_to(np.eye(2) / 4, (3, 4, 2, 2))
    with pytest.raises(ValueError, match="does not match party_dims \\(4, 4, 2\\)"):
        Strategy(honest.state, (*honest.effects[:2], carole))


def _not_positive(doc):
    """+I/2 on label (0, 0) and -I/2 on (1, 1) of Carole's input 1: still complete."""
    families = doc["measurements"][2]["1"]
    for i in range(len(families["0,0"])):
        families["0,0"][i][i][0] += 0.5
        families["1,1"][i][i][0] -= 0.5


_ENTRY_RULE = r"^matrix entries must be \[re, im\] pairs of numbers that fit a float$"


def _edited_json(edit):
    doc = json.loads(strategy_to_json(honest_flagged_strategy()))
    edit(doc)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.pop("state"), "lacks \\['state'\\]"),
        (lambda doc: doc.pop("measurements"), "lacks \\['measurements'\\]"),
        (lambda doc: doc.pop("kind"), "lacks \\['kind'\\]"),
        (lambda doc: doc.update(party_dims=[2, 8, 4]), "party_dims \\[2, 8, 4\\] contradict"),
        (lambda doc: doc["measurements"][0].pop("1"), "party 0 must define exactly the inputs"),
        (lambda doc: doc["measurements"][1].update({"3": doc["measurements"][1]["0"]}), "party 1 must define exactly the inputs"),
        (lambda doc: doc["measurements"][2]["2"].pop("1,1"), "party 2 input 2 must define exactly the labels"),
        (lambda doc: doc["measurements"][2]["0"].update({"2,0": doc["measurements"][2]["0"]["0,0"]}), "party 2 input 0"),
        (lambda doc: doc["measurements"].pop(), "exactly three parties"),
        (lambda doc: doc["state"][0].__setitem__(0, 0.5), "matrix entries must be \\[re, im\\] pairs"),
        (lambda doc: doc["measurements"][0]["1"]["0,1"][2].__setitem__(1, ["0", 0]), "matrix entries must be"),
        (_not_positive, "party 2 input 1 label \\(1, 1\\): effect is not positive"),
        # The config and behavior readers' rule: ints and floats, never bools, that fit a float.
        pytest.param(lambda doc: doc["state"][1].__setitem__(1, [False, False]), _ENTRY_RULE, id="entry-of-bools"),
        pytest.param(lambda doc: doc["state"][1].__setitem__(1, [10**400, 0]), _ENTRY_RULE, id="entry-int-too-large"),
        pytest.param(lambda doc: doc["state"][1].__setitem__(1, [1.0, 0.0, 0.0]), _ENTRY_RULE, id="entry-triple"),
    ],
)
def test_strategy_json_from_elsewhere_is_checked(edit, message):
    with pytest.raises(ValueError, match=message):
        strategy_from_json(_edited_json(edit))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda s: Strategy(s.state, s.effects, kind="triangle"), "unknown strategy kind 'triangle'", id="kind"
        ),
        pytest.param(lambda s: Strategy(s.state, s.effects[:2]), "strategy needs exactly three parties", id="two-parties"),
        pytest.param(lambda s: depolarize(s.state, 1.5), r"visibility must be in \[0, 1\], got 1\.5", id="visibility"),
        pytest.param(lambda s: strategy_from_json("[]"), "strategy JSON must be an object", id="json-array"),
    ],
)
def test_strategy_inputs_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(honest_flagged_strategy())


def test_strategy_json_text_is_keyed_by_input_and_label():
    doc = json.loads(strategy_to_json(honest_parallel_strategy()))
    assert list(doc) == ["kind", "party_dims", "state", "measurements"]
    assert [list(families) for families in doc["measurements"]] == [["0", "1"], ["0", "1", "2"], ["0", "1", "2"]]
    for families in doc["measurements"]:
        assert all(list(effects) == ["0,0", "0,1", "1,0", "1,1"] for effects in families.values())


def _alice_moved(x, to, away, delta):
    """The honest strategy's state and effects, with delta moved from one
    label of Alice's input x to another: every family still sums to I."""
    honest = honest_flagged_strategy()
    alice = np.array(honest.effects[0])
    alice[x, to] += delta
    alice[x, away] -= delta
    return honest.state, (alice, *honest.effects[1:])


_EYE = np.eye(4)
_UPPER = np.triu(np.ones((4, 4)), 1)


@pytest.mark.parametrize(
    "x, to, away, delta, message",
    [
        (0, 0, 3, _EYE / 2, "party 0 input 0 label \\(1, 1\\): effect is not positive \\(eigenvalue -5.000e-01\\)"),
        (1, 1, 0, 1e-11 * _EYE, "party 0 input 1 label \\(0, 0\\): effect is not positive"),
        # eigvalsh reads one triangle only: this shift leaves the lower one alone.
        (1, 2, 1, 1e-3 * _UPPER, "party 0 input 1 label \\(0, 1\\): effect is not Hermitian"),
    ],
)
def test_effects_that_are_not_positive_are_rejected(x, to, away, delta, message):
    with pytest.raises(ValueError, match=message):
        Strategy(*_alice_moved(x, to, away, delta))


def test_effects_negative_within_the_tolerance_are_accepted():
    Strategy(*_alice_moved(1, 1, 0, 1e-13 * _EYE))
