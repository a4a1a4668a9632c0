import numpy as np
import pytest

from flagcka.qops import (
    basis_ket,
    check_effects_complete,
    dagger,
    identity,
    is_hermitian,
    measure_collapse,
    naimark_dilation,
    outcome_distribution,
    partial_trace,
    permute_subsystems,
    phi_plus,
    plus_ket,
    projector,
    purify,
    random_density_operator,
    random_unitary,
    select_outcome,
    tensor,
    trace_distance,
    von_neumann_entropy,
    PAULI_X,
    PAULI_Z,
)


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
    rng = np.random.default_rng(0)
    a = rng.standard_normal((2, 2))
    b = rng.standard_normal((3, 3))
    c = rng.standard_normal((2, 2))
    np.testing.assert_allclose(tensor(a, b, c), np.kron(np.kron(a, b), c))


def test_pauli_observables():
    np.testing.assert_allclose(PAULI_Z @ PAULI_Z, identity(2))
    np.testing.assert_allclose(PAULI_X @ PAULI_X, identity(2))
    np.testing.assert_allclose(dagger(PAULI_X), PAULI_X)


def test_outcome_distribution_born_rule():
    # |+> measured in the computational basis: both outcomes 1/2.
    rho = projector(plus_ket())
    effects = {0: projector(basis_ket(2, 0)), 1: projector(basis_ket(2, 1))}
    assert check_effects_complete(effects) == 2
    dist = outcome_distribution(rho, effects)
    assert dist[0] == pytest.approx(0.5)
    assert dist[1] == pytest.approx(0.5)


def test_outcome_distribution_rejects_bad_effects():
    rho = identity(2) / 2
    with pytest.raises(ValueError):
        outcome_distribution(rho, {0: identity(2) * 0.3})  # does not sum to I


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
        np.testing.assert_allclose(mat @ dagger(mat), rho, atol=1e-10)


def test_purify_is_deterministic():
    rng = np.random.default_rng(9)
    rho = random_density_operator(4, rng)
    np.testing.assert_allclose(purify(rho), purify(rho.copy()), atol=0)


def test_purify_pure_state_env_is_trivial():
    rho = projector(plus_ket())
    psi = purify(rho)
    assert psi.size == 2  # purifier has rank 1
    np.testing.assert_allclose(np.abs(psi), np.abs(plus_ket()), atol=1e-12)


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


def test_naimark_dilation_preserves_statistics():
    rng = np.random.default_rng(11)
    rho = random_density_operator(2, rng)
    # A three-outcome qubit POVM (trine), not projective.
    kets = [basis_ket(2, 0)]
    for angle in (2 * np.pi / 3, 4 * np.pi / 3):
        kets.append(np.array([np.cos(angle / 2), np.sin(angle / 2)]))
    effects = {k: 2.0 / 3.0 * projector(ket) for k, ket in enumerate(kets)}
    assert check_effects_complete(effects) == 2
    original = outcome_distribution(rho, effects)

    isometry, dilated = naimark_dilation(effects)
    big_rho = isometry @ rho @ dagger(isometry)
    lifted = outcome_distribution(big_rho, dilated)
    for k in effects:
        assert lifted[k] == pytest.approx(original[k], abs=1e-10)
        proj = dilated[k]
        np.testing.assert_allclose(proj @ proj, proj, atol=1e-10)


def test_random_unitary_is_unitary():
    rng = np.random.default_rng(12)
    for dim in (2, 4):
        u = random_unitary(dim, rng)
        np.testing.assert_allclose(dagger(u) @ u, identity(dim), atol=1e-12)


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
