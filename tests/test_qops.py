import re

import numpy as np
import pytest

from flagcka.qops import (
    assert_density_operator,
    basis_ket,
    born_rows,
    check_effects_complete,
    haar_unitaries,
    identity,
    is_hermitian,
    measure_collapse,
    outcome_distribution,
    partial_trace,
    permute_subsystems,
    phi_plus,
    plus_ket,
    projector,
    purify,
    random_density_operator,
    select_outcome,
    sum_deviation,
    tensor,
    von_neumann_entropy,
    PAULI_X,
    PAULI_Z,
)
from flagcka.strategies import honest_flagged_strategy

from devices import trace_distance


def test_kets_and_projectors():
    np.testing.assert_allclose(basis_ket(2, 0), [1, 0])
    np.testing.assert_allclose(plus_ket(), np.array([1, 1]) / np.sqrt(2))
    p = projector(plus_ket())
    np.testing.assert_allclose(p @ p, p, atol=1e-15)
    assert is_hermitian(p)
    np.testing.assert_allclose(np.trace(p), 1.0)


def test_phi_plus_is_maximally_entangled():
    psi = phi_plus()
    rho = projector(psi)
    reduced = partial_trace(rho, (2, 2), keep=(0,))
    np.testing.assert_allclose(reduced, identity(2) / 2, atol=1e-15)
    assert von_neumann_entropy(reduced) == pytest.approx(1.0)


def test_tensor_matches_kron_chain():
    # Equal to the np.kron chain bit for bit, not within a tolerance.
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    c = rng.standard_normal((2, 2))
    assert np.array_equal(tensor(a, b, c), np.kron(np.kron(a, b), c))
    # Kets alone give a ket.
    kets = [rng.standard_normal(d) + 1j * rng.standard_normal(d) for d in (2, 3, 2, 2)]
    chain = tensor(*kets)
    assert chain.shape == (24,)
    assert np.array_equal(chain, np.kron(np.kron(np.kron(kets[0], kets[1]), kets[2]), kets[3]))
    # A (1, d, d) stack operand pairs with each matrix of the other stack.
    stack = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    one = rng.standard_normal((1, 3, 3))
    for left, right in ((stack, one), (one, stack)):
        product = tensor(left, right)
        assert product.shape == (4, 6, 6)
        assert np.array_equal(product, np.kron(left, right))


def test_pauli_observables():
    np.testing.assert_allclose(PAULI_Z @ PAULI_Z, identity(2))
    np.testing.assert_allclose(PAULI_X @ PAULI_X, identity(2))
    np.testing.assert_allclose(PAULI_X.conj().T, PAULI_X)


def test_outcome_distribution_born_rule():
    # |+> measured in the computational basis: both outcomes 1/2.
    rho = projector(plus_ket())
    effects = {0: projector(basis_ket(2, 0)), 1: projector(basis_ket(2, 1))}
    assert check_effects_complete([[effects[0], effects[1]]]).shape == (1, 2, 2, 2)
    dist = outcome_distribution(rho, effects)
    assert dist[0] == pytest.approx(0.5)
    assert dist[1] == pytest.approx(0.5)


def test_outcome_distribution_rejects_bad_effects():
    rho = identity(2) / 2
    with pytest.raises(ValueError):
        outcome_distribution(rho, {0: identity(2) * 0.3})  # does not sum to I


def _qubit_basis_family():
    return {0: projector(basis_ket(2, 0)), 1: projector(basis_ket(2, 1))}


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: basis_ket(2, 2), "basis index 2 out of range for dimension 2", id="basis-index"),
        pytest.param(lambda: tensor(), "tensor() needs at least one factor", id="no-factor"),
        pytest.param(
            lambda: assert_density_operator(np.zeros((2, 3))), "state must be a square matrix, got shape (2, 3)", id="not-square"
        ),
        pytest.param(
            lambda: outcome_distribution(identity(4) / 4, _qubit_basis_family()),
            "state dimension (4, 4) does not match effects (2)",
            id="effects-dimension",
        ),
        pytest.param(
            lambda: measure_collapse(identity(2) / 2, _qubit_basis_family(), 1.0), "draw must lie in [0, 1), got 1.0", id="draw"
        ),
        pytest.param(
            lambda: partial_trace(identity(4) / 4, (2, 3), keep=(0,)),
            "state shape (4, 4) does not match dims [2, 3]",
            id="trace-dims",
        ),
        pytest.param(
            lambda: partial_trace(identity(4) / 4, (2, 2), keep=(0, 0)),
            "invalid keep list [0, 0] for 2 subsystems",
            id="keep-twice",
        ),
        pytest.param(
            lambda: partial_trace(identity(4) / 4, (2, 2), keep=(2,)), "invalid keep list [2] for 2 subsystems", id="keep-range"
        ),
        pytest.param(
            lambda: permute_subsystems(identity(4), (2, 2), (0, 0)), "perm (0, 0) is not a permutation of 0..1", id="perm"
        ),
        pytest.param(
            lambda: von_neumann_entropy(np.diag([1.5, -0.5])), "negative eigenvalue -0.5 in entropy input", id="entropy-negative"
        ),
    ],
)
def test_qops_inputs_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_measure_collapse_deterministic_on_eigenstate():
    rho = projector(basis_ket(2, 0))
    effects = {0: projector(basis_ket(2, 0)), 1: projector(basis_ket(2, 1))}
    for draw in (0.0, 0.3, 0.999999):
        label, post = measure_collapse(rho, effects, draw)
        assert label == 0
        np.testing.assert_allclose(post, rho, atol=1e-15)


def test_measure_collapse_never_returns_zero_probability_outcome():
    # The top of the cumulative grid carries float dust; the draw at 1.0-eps
    # must still land on a supported outcome.
    rho = projector(basis_ket(2, 0))
    effects = {0: projector(basis_ket(2, 0)), 1: projector(basis_ket(2, 1))}
    label, _ = measure_collapse(rho, effects, 1.0 - 1e-16)
    assert label == 0


def test_measure_collapse_updates_state():
    rho = projector(plus_ket())
    effects = {0: projector(basis_ket(2, 0)), 1: projector(basis_ket(2, 1))}
    label, post = measure_collapse(rho, effects, 0.75)
    assert label == 1
    np.testing.assert_allclose(post, projector(basis_ket(2, 1)), atol=1e-15)


def test_measure_collapse_frequencies_match_born(n_samples=20000):
    # Three-outcome measurement on a random qutrit state, 3 sigma band.
    rng = np.random.default_rng(7)
    rho = random_density_operator(3, rng)
    effects = {k: projector(basis_ket(3, k)) for k in range(3)}
    expected = outcome_distribution(rho, effects)
    draws = rng.random(n_samples)
    counts = {k: 0 for k in range(3)}
    for d in draws:
        label, _ = measure_collapse(rho, effects, float(d))
        counts[label] += 1
    for k in range(3):
        p = expected[k]
        sigma = np.sqrt(p * (1 - p) / n_samples)
        assert abs(counts[k] / n_samples - p) < 3 * sigma + 1e-12


def test_partial_trace_pairs():
    rng = np.random.default_rng(3)
    rho_a = random_density_operator(2, rng)
    rho_b = random_density_operator(3, rng)
    joint = tensor(rho_a, rho_b)
    np.testing.assert_allclose(partial_trace(joint, (2, 3), keep=(0,)), rho_a, atol=1e-12)
    np.testing.assert_allclose(partial_trace(joint, (2, 3), keep=(1,)), rho_b, atol=1e-12)
    # keep both = identity map
    np.testing.assert_allclose(partial_trace(joint, (2, 3), keep=(0, 1)), joint, atol=1e-12)


def test_partial_trace_three_parties():
    rng = np.random.default_rng(4)
    parts = [random_density_operator(2, rng) for _ in range(3)]
    joint = tensor(*parts)
    got = partial_trace(joint, (2, 2, 2), keep=(0, 2))
    np.testing.assert_allclose(got, tensor(parts[0], parts[2]), atol=1e-12)


def test_permute_subsystems_swap():
    rng = np.random.default_rng(5)
    rho_a = random_density_operator(2, rng)
    rho_b = random_density_operator(3, rng)
    swapped = permute_subsystems(tensor(rho_a, rho_b), (2, 3), (1, 0))
    np.testing.assert_allclose(swapped, tensor(rho_b, rho_a), atol=1e-12)


def test_permute_subsystems_cycle_roundtrip():
    rng = np.random.default_rng(6)
    dims = (2, 3, 2)
    rho = random_density_operator(12, rng)
    fwd = permute_subsystems(rho, dims, (2, 0, 1))
    # inverse permutation restores the original
    back = permute_subsystems(fwd, (2, 2, 3), (1, 2, 0))
    np.testing.assert_allclose(back, rho, atol=1e-12)


def test_purify_roundtrip():
    rng = np.random.default_rng(8)
    for dim in (2, 3, 4):
        rho = random_density_operator(dim, rng)
        psi = purify(rho)
        mat = psi.reshape(dim, psi.size // dim)
        np.testing.assert_allclose(mat @ mat.conj().T, rho, atol=1e-10)


def test_purify_is_deterministic():
    rng = np.random.default_rng(9)
    rho = random_density_operator(4, rng)
    np.testing.assert_allclose(purify(rho), purify(rho.copy()), atol=0)


def test_purify_pure_state_env_is_trivial():
    rho = projector(plus_ket())
    psi = purify(rho)
    assert psi.size == 2  # purifier has rank 1
    np.testing.assert_allclose(np.abs(psi), np.abs(plus_ket()), atol=1e-12)


def _ref_purify(rho):
    # Purify as first written: one tuple key per eigenvector, built with
    # round(), sorted with the eigenvalue. Pins purify's np.lexsort ranking.
    vals, vecs = np.linalg.eigh(rho)
    pairs = []
    for i in range(len(vals)):
        if vals[i] > 1e-12:
            v = vecs[:, i]
            x = next(c for c in v if abs(c) > 1e-12)
            v = v * (abs(x) / x)
            key = tuple(part for c in v for part in (round(c.real, 12), round(c.imag, 12)))
            pairs.append((-vals[i], key, v))
    pairs.sort(key=lambda p: (p[0], p[1]))
    psi = np.zeros((rho.shape[0], len(pairs)), dtype=complex)
    for j, (neg, _, v) in enumerate(pairs):
        psi[:, j] = np.sqrt(-neg) * v
    psi = psi.ravel()
    return psi / np.linalg.norm(psi)


def _purify_cases():
    from flagcka.strategies import honest_flagged_strategy

    # The honest state has a 2-fold tied top eigenvalue, identity(4)/4 is all ties.
    yield "honest", honest_flagged_strategy().state
    yield "maximally_mixed", identity(4) / 4
    for seed in range(5):
        yield f"random_{seed}", random_density_operator(6, np.random.default_rng(seed))


@pytest.mark.parametrize("name, rho", list(_purify_cases()))
def test_purify_matches_tuple_key_reference(name, rho):
    psi, ref = purify(rho), _ref_purify(rho)
    assert psi.shape == ref.shape
    np.testing.assert_allclose(psi, ref, rtol=0, atol=0)


def test_von_neumann_entropy_values():
    assert von_neumann_entropy(projector(basis_ket(2, 0))) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(identity(2) / 2) == pytest.approx(1.0)
    assert von_neumann_entropy(identity(4) / 4) == pytest.approx(2.0)
    rho = np.diag([0.25, 0.75])
    expected = -0.25 * np.log2(0.25) - 0.75 * np.log2(0.75)
    assert von_neumann_entropy(rho) == pytest.approx(expected)


def test_trace_distance():
    r0 = projector(basis_ket(2, 0))
    r1 = projector(basis_ket(2, 1))
    assert trace_distance(r0, r1) == pytest.approx(1.0)
    assert trace_distance(r0, r0) == pytest.approx(0.0, abs=1e-15)
    assert trace_distance(r0, identity(2) / 2) == pytest.approx(0.5)


def random_unitary(dim, rng):
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    return haar_unitaries(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(12)
    for dim in (2, 4):
        u = random_unitary(dim, rng)
        np.testing.assert_allclose(u.conj().T @ u, identity(dim), atol=1e-12)


def test_random_density_operator_is_state():
    rng = np.random.default_rng(13)
    rho = random_density_operator(3, rng)
    assert is_hermitian(rho)
    assert np.trace(rho).real == pytest.approx(1.0)
    assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_select_outcome_on_arrays_matches_each_draw():
    pvals = [0.5, 0.0, 0.5 - 1e-12, 0.0]
    draws = np.array([0.0, 0.25, 0.5, 0.75, 1.0 - 1e-13])
    picked = select_outcome(pvals, draws)
    assert picked.tolist() == [int(select_outcome(pvals, d)) for d in draws] == [0, 0, 2, 2, 2]
    with pytest.raises(ValueError):
        select_outcome(pvals, np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        select_outcome([0.0, 0.0], 0.5)


def _computational_family():
    return np.array([projector(basis_ket(2, 0)), projector(basis_ket(2, 1)), np.zeros((2, 2)), np.zeros((2, 2))])


# One bad row each, as (state, effects): complete effects that give outcome
# 1 of |0><0| a probability of -1e-9, or whose probabilities on a state of
# trace 1 + 1e-9 sum to 1 + 1e-9. (Effects that sum to 1 + 1e-9 would stop
# at the completeness check of `outcome_distribution` first.)
_BAD_BORN_ROWS = {
    "negative": (
        np.diag([1.0, 0]),
        np.array([np.diag([1 + 1e-9, 0]), np.diag([-1e-9, 0]), np.diag([0, 1]), np.zeros((2, 2))]),
    ),
    "total": (
        np.diag([1 + 1e-9, 0]),
        np.array([np.diag([0.5, 0]), np.diag([0.5, 1]), np.zeros((2, 2)), np.zeros((2, 2))]),
    ),
}


@pytest.mark.parametrize("fault", list(_BAD_BORN_ROWS))
@pytest.mark.parametrize("bad_row", [1, 4, 8])
def test_born_rows_checks_each_row_as_outcome_distribution_does(fault, bad_row):
    rng = np.random.default_rng(bad_row)
    rhos = np.array([random_density_operator(2, rng) for _ in range(9)])
    effects = np.repeat(_computational_family()[None], 9, axis=0).astype(complex)
    labels = (0, 1, 2, 3)
    good = born_rows(rhos, effects, labels)
    family = dict(enumerate(_computational_family()))
    for rho, row in zip(rhos, good):
        np.testing.assert_allclose(row, list(outcome_distribution(rho, family).values()), atol=1e-15)
    rhos[bad_row], effects[bad_row] = _BAD_BORN_ROWS[fault]
    with pytest.raises(ValueError) as reference:
        outcome_distribution(rhos[bad_row], dict(enumerate(effects[bad_row])))
    assert ("negative probability" if fault == "negative" else "probabilities sum to") in str(reference.value)
    with pytest.raises(ValueError, match=f"^{re.escape(str(reference.value))}$"):
        born_rows(rhos, effects, labels)


def test_check_effects_complete_checks_every_family():
    family = np.array(_computational_family())
    stack = check_effects_complete([family] * 5)
    assert stack.shape == (5, 4, 2, 2)
    assert np.array_equal(stack[3], _computational_family())
    for bad in range(5):
        families = np.array([family] * 5)
        families[bad, 1] = 1.01 * family[1]
        with pytest.raises(ValueError, match="max deviation 1.000e-02"):
            check_effects_complete(families)
    with pytest.raises(ValueError, match="effects must be square, got shape \\(2, 3\\)"):
        check_effects_complete(np.zeros((2, 4, 2, 3)))
    with pytest.raises(ValueError, match="measurement family is empty"):
        check_effects_complete(np.zeros((2, 0, 2, 2)))
    # Effects of different dimensions make no stack: numpy refuses the ragged list.
    with pytest.raises(ValueError):
        check_effects_complete([[*family[:3], np.zeros((3, 3))]])


def test_born_rows_rejects_nan():
    # NaN compares false with both the -1e-12 bound and the 1e-10 total
    # bound, so only an explicit finiteness check stops it, in a state
    # or in an effect.
    family = {0: projector(basis_ket(2, 0)), 1: projector(basis_ket(2, 1))}
    effects = np.stack(list(family.values()))[None]
    nan_state = np.full((2, 2), np.nan, dtype=complex)
    message = "^non-finite probability nan for outcome 0$"
    with pytest.raises(ValueError, match=message):
        born_rows(nan_state[None], effects, (0, 1))
    with pytest.raises(ValueError, match=message):
        outcome_distribution(nan_state, family)
    with pytest.raises(ValueError, match=message):
        born_rows(family[0][None], effects * np.nan, (0, 1))


# The 1e-12 checks compare the largest absolute deviation with 1e-12.
# np.allclose, which they used before, adds rtol * |reference| = 1e-5 on
# each entry of size 1, so every deviation below passed it.


def test_effects_off_the_identity_by_4e_6_are_incomplete():
    family = {0: np.diag([1.0, 0.0]), 1: np.diag([4e-6, 1.0])}
    with pytest.raises(ValueError, match=r"^effects do not sum to identity \(max deviation 4\.000e-06\)$"):
        check_effects_complete([list(family.values())])
    check_effects_complete([[np.diag([1.0, 0.0]), np.diag([1e-13, 1.0])]])


def test_is_hermitian_sees_an_off_diagonal_gap_of_3e_6():
    assert not is_hermitian(np.array([[1.0, 0.5], [0.5 + 3e-6, 0.0]]))
    assert is_hermitian(np.array([[1.0, 0.5], [0.5 + 1e-13, 0.0]]))
    assert not is_hermitian(np.array([[np.nan]]))
    assert is_hermitian(np.zeros((0, 0)))
    rho = np.array([[0.5, 0.25], [0.25 + 3e-6, 0.5]])
    with pytest.raises(ValueError, match="^state is not Hermitian"):
        assert_density_operator(rho)
    with pytest.raises(ValueError, match="^purify input is not Hermitian"):
        purify(rho)


def test_sum_deviation_is_per_family():
    good = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    stack = np.array([[good, good], [good, good + np.diag([0.0, 2e-9])[None]]])
    np.testing.assert_allclose(sum_deviation(stack), [[0.0, 0.0], [0.0, 4e-9]], rtol=1e-6, atol=0)


def _eigvalsh_counter(monkeypatch):
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or real(a))
    return calls


def test_purify_takes_positivity_from_its_own_eigh(monkeypatch):
    calls = _eigvalsh_counter(monkeypatch)
    rho = random_density_operator(4, np.random.default_rng(3))
    psi = purify(rho)
    assert calls == []
    mat = psi.reshape(4, -1)
    np.testing.assert_allclose(mat @ mat.conj().T, rho, atol=1e-10)
    # The threshold and the message are those of assert_density_operator.
    negative = np.diag([0.5 + 1e-9, 0.5, -1e-9]).astype(complex)
    with pytest.raises(ValueError) as reference:
        assert_density_operator(negative, name="purify input")
    with pytest.raises(ValueError, match=f"^{re.escape(str(reference.value))}$"):
        purify(negative)
    assert purify(np.diag([0.5 + 1e-11, 0.5, -1e-11])).size == 3 * 2
    with pytest.raises(ValueError, match="^purify input has trace"):
        purify(0.5 * rho)


def test_state_positivity_is_certified_without_eigvalsh(monkeypatch):
    def lowest(value):
        return np.diag([0.5 - value / 2, 0.5 - value / 2, value])

    # Rank 2 of 64, rank 2 of 3, full rank, a smallest eigenvalue of -5e-11,
    # and one 5e-14 above -1e-10 (a diagonal's shift and factor are exact).
    states = (
        np.array(honest_flagged_strategy().state),
        np.diag([0.5, 0.5, 0.0]),
        random_density_operator(8, np.random.default_rng(0)),
        lowest(-5e-11),
        lowest(-1e-10 + 5e-14),
    )
    calls = _eigvalsh_counter(monkeypatch)
    for rho in states:
        np.testing.assert_array_equal(assert_density_operator(rho), rho)
    assert calls == []
    # Below -1e-10 the factorization fails and eigvalsh names the eigenvalue.
    with pytest.raises(ValueError, match=r"^state has negative eigenvalue -2e-10$"):
        assert_density_operator(lowest(-2e-10))
    below = -1e-10 - 5e-14
    with pytest.raises(ValueError, match=f"^state has negative eigenvalue {re.escape(str(np.float64(below)))}$"):
        assert_density_operator(lowest(below))
    assert calls == [1, 1]


def positivity_sweep(n_states: int, seed: int) -> tuple[int, int, list]:
    """Random states of dimension 2-64 whose smallest eigenvalue is drawn
    from [-3e-10, 1e-10], some with further zero eigenvalues. Returns the
    count, how many lie within 1e-14 of -1e-10 by `eigvalsh` (not judged),
    and the (index, eigenvalue) of each state whose `assert_density_operator`
    verdict disagrees with `eigvalsh(rho)[0] >= -1e-10`."""
    rng = np.random.default_rng(seed)
    band, disagree = 0, []
    for k in range(n_states):
        dim = int(rng.integers(2, 65))
        u = haar_unitaries(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        vals = rng.random(dim) * (rng.random(dim) < rng.random())
        vals[1] += vals[1] == 0.0
        vals[0] = rng.uniform(-3e-10, 1e-10)
        vals[1:] *= (1.0 - vals[0]) / vals[1:].sum()
        rho = (u * vals) @ u.conj().T
        rho = (rho + rho.conj().T) / 2.0
        lowest = np.linalg.eigvalsh(rho)[0]
        if abs(lowest + 1e-10) <= 1e-14:
            band += 1
            continue
        try:
            assert_density_operator(rho)
            passed = True
        except ValueError as exc:
            assert str(exc) == f"state has negative eigenvalue {lowest}", exc
            passed = False
        if passed != (lowest >= -1e-10):
            disagree.append((k, float(lowest)))
    return n_states, band, disagree


def test_state_positivity_agrees_with_the_spectrum():
    count, band, disagree = positivity_sweep(300, seed=11)
    assert disagree == [] and band < count // 10, (band, disagree)
