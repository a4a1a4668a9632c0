"""Quantum strategies for the three-party flagged Bell scenario.

A strategy bundles a shared state with one measurement family per party
and per input. Outcome labels are always pairs of bits: for the flagged
strategies the pair is (value, flag) where the flag is read off a
dedicated classical register; for the parallel two-pair strategy the
pair is the two value bits (one per EPR pair) and there is no flag
register at all.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .qops import (
    PAULI_X,
    PAULI_Z,
    SQRT2,
    assert_density_operator,
    basis_ket,
    check_effects_complete,
    haar_unitaries,
    identity,
    kron_stack,
    permute_subsystems,
    phi_plus,
    plus_ket,
    projector,
    purify,
    tensor,
)

__all__ = [
    "ALICE_OBSERVABLES",
    "PARTNER_OBSERVABLES",
    "OUTCOME_LABELS",
    "N_INPUTS",
    "NoiseParams",
    "Strategy",
    "binary_observable_effects",
    "depolarize",
    "honest_flagged_strategy",
    "constant_flag_strategy",
    "honest_parallel_strategy",
    "random_projective_strategy",
    "random_projective_effects",
    "strategy_to_json",
    "strategy_from_json",
]

# Input counts are fixed by the scenario: Alice has two settings, Bob and
# Carole three (the third is the key-generation setting).
N_INPUTS = (2, 3, 3)
OUTCOME_LABELS = ((0, 0), (0, 1), (1, 0), (1, 1))

ALICE_OBSERVABLES = (PAULI_Z, PAULI_X)
PARTNER_OBSERVABLES = (
    (PAULI_Z + PAULI_X) / SQRT2,
    (PAULI_Z - PAULI_X) / SQRT2,
    PAULI_Z,
)


@dataclass(frozen=True)
class NoiseParams:
    """Depolarizing noise on each entangled pair; flags stay noiseless."""

    visibility: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must be in [0, 1], got {self.visibility}")


@dataclass(frozen=True, eq=False)
class Strategy:
    """Shared state plus per-party, per-input measurement families.

    measurements[party][x] maps each outcome label (a two-bit tuple) to a
    positive effect on that party's local space; each family sums to the
    local identity. kind is "flagged" (labels are (value, flag)) or
    "parallel" (labels are the two per-pair value bits). effect_stacks are
    the checked (inputs, 4, d, d) effects per party in OUTCOME_LABELS order.
    """

    state: np.ndarray
    party_dims: tuple[int, ...]
    measurements: tuple[dict, ...]
    kind: str = "flagged"
    effect_stacks: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in ("flagged", "parallel"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if len(self.party_dims) != 3 or len(self.measurements) != 3:
            raise ValueError("strategy needs exactly three parties")
        dim = int(np.prod(self.party_dims))
        assert_density_operator(self.state, name="strategy state")
        if self.state.shape != (dim, dim):
            raise ValueError(f"state dimension {self.state.shape} does not match party_dims {self.party_dims}")
        stacks = []
        for party, families in enumerate(self.measurements):
            if sorted(families) != list(range(N_INPUTS[party])):
                raise ValueError(f"party {party} must define inputs 0..{N_INPUTS[party] - 1}")
            for x, effects in families.items():
                if sorted(effects) != list(OUTCOME_LABELS):
                    raise ValueError(f"party {party} input {x} must define all four outcome labels")
            stacks.append(check_effects_complete([families[x] for x in sorted(families)]))
            stacks[-1].flags.writeable = False
        object.__setattr__(self, "effect_stacks", tuple(stacks))

    def effect(self, party: int, x: int, label: tuple[int, int]) -> np.ndarray:
        """The effect embedded into the full space (identity elsewhere)."""
        ops = [identity(d) for d in self.party_dims]
        ops[party] = self.measurements[party][x][label]
        return tensor(*ops)

    def flag_projector(self, party: int, x: int, t: int) -> np.ndarray:
        """Local coarse-graining sum_a M_{(a,t)|x} for one party."""
        family = self.measurements[party][x]
        return family[(0, t)] + family[(1, t)]

    @cached_property
    def purification(self) -> np.ndarray:
        """`qops.purify` of the state, computed on first use and kept (read-only)."""
        psi = purify(self.state)
        psi.flags.writeable = False
        return psi


def binary_observable_effects(obs: np.ndarray) -> dict[int, np.ndarray]:
    """Eigenprojectors {a: (I + (-1)^a O)/2} of a +-1-valued observable."""
    return dict(enumerate(_value_projectors([obs])[0]))


def depolarize(rho: np.ndarray, visibility: float) -> np.ndarray:
    """v * rho + (1 - v) * I/d."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError(f"visibility must be in [0, 1], got {visibility}")
    rho = np.asarray(rho, dtype=complex)
    d = rho.shape[0]
    return visibility * rho + (1.0 - visibility) * np.eye(d) / d


def _value_projectors(observables) -> np.ndarray:
    """(inputs, 2, d, d) array: the value-a projector (I + (-1)^a O)/2 of
    each input's observable O, each checked to square to I within 1e-12."""
    obs = np.array(observables, dtype=complex)
    eye = np.eye(obs.shape[-1], dtype=complex)
    if not np.abs(obs @ obs - eye).max() <= 1e-12:
        raise ValueError("observable must square to the identity")
    return np.stack(((eye + obs) / 2.0, (eye - obs) / 2.0), axis=1)


def _families(effects: np.ndarray) -> dict:
    """Per-input dicts of label -> effect, views of an (inputs, 2, 2, d, d) array."""
    return {x: {label: effects[(x, *label)] for label in OUTCOME_LABELS} for x in range(len(effects))}


# Flag-t projector |t><t| of the flag register, stacked over t.
_FLAG_PROJECTORS = np.array([projector(basis_ket(2, t)) for t in (0, 1)])


def _flagged_measurements() -> tuple[dict, ...]:
    # Party space = qubit (x) flag qubit. The value observable acts on the
    # qubit, the flag is always read in the computational basis.
    return tuple(
        _families(kron_stack(_value_projectors(observables)[:, :, None], _FLAG_PROJECTORS))
        for observables in (ALICE_OBSERVABLES, PARTNER_OBSERVABLES, PARTNER_OBSERVABLES)
    )


def _flagged_branch(t: int, visibility: float) -> np.ndarray:
    """One branch of the flagged state, ordered (qubit, flag) per party.

    Branch t = 0 entangles Alice with Bob and hands Carole a |+> qubit,
    branch t = 1 entangles Alice with Carole and hands Bob the |+>; all
    three flag registers carry |t>. Depolarizing noise acts on the
    entangled pair only.
    """
    pair = depolarize(projector(phi_plus()), visibility)
    spectator = projector(plus_ket())
    flag = projector(basis_ket(2, t))
    flags = tensor(flag, flag, flag)
    if t == 0:
        # Build as (Q_A, Q_B, Q_C, T_A, T_B, T_C), then interleave.
        rho = tensor(pair, spectator, flags)
        perm = [0, 3, 1, 4, 2, 5]
    else:
        # Build as (Q_A, Q_C, Q_B, T_A, T_B, T_C).
        rho = tensor(pair, spectator, flags)
        perm = [0, 3, 2, 4, 1, 5]
    return permute_subsystems(rho, [2] * 6, perm)


def honest_flagged_strategy(noise: NoiseParams = NoiseParams()) -> Strategy:
    """Honest flagged strategy: an even mixture of two flagged branches.

    The source emits, with probability 1/2 each, a maximally entangled
    pair between Alice and the partner named by the flag branch while
    the other partner receives an uncorrelated |+>. Every party holds a
    qubit and a flag register (local dimension 4); flags agree across
    parties within each branch. Alice measures sigma_Z or sigma_X, the
    partners measure (sigma_Z +- sigma_X)/sqrt(2) on their first two
    inputs and sigma_Z on the generation input.
    """
    rho = 0.5 * _flagged_branch(0, noise.visibility) + 0.5 * _flagged_branch(1, noise.visibility)
    return Strategy(state=rho, party_dims=(4, 4, 4), measurements=_flagged_measurements(), kind="flagged")


def constant_flag_strategy(t: int = 0, noise: NoiseParams = NoiseParams()) -> Strategy:
    """Degenerate single-branch variant: every flag reads t in every round."""
    if t not in (0, 1):
        raise ValueError(f"flag value must be 0 or 1, got {t}")
    rho = _flagged_branch(t, noise.visibility)
    return Strategy(state=rho, party_dims=(4, 4, 4), measurements=_flagged_measurements(), kind="flagged")


def honest_parallel_strategy(noise: NoiseParams = NoiseParams()) -> Strategy:
    """Two-pair strategy: both partner links run in every round.

    Each party holds two qubits. Alice shares one maximally entangled
    pair with Bob (first qubits) and one with Carole (second qubits);
    the unused partner qubits are |+>. All measurements factor across
    the two qubits and the four-outcome label is the pair of per-qubit
    results, so each round can serve both pairwise keys at once.
    """
    pair = depolarize(projector(phi_plus()), noise.visibility)
    spectator = projector(plus_ket())
    # Built as (A1, B1, C1, A2, C2, B2), target order (A1, A2, B1, B2, C1, C2).
    rho = tensor(pair, spectator, pair, spectator)
    rho = permute_subsystems(rho, [2] * 6, [0, 3, 1, 5, 2, 4])

    def families(observables):
        value = _value_projectors(observables)
        return _families(kron_stack(value[:, :, None], value[:, None, :]))

    meas = (
        families(ALICE_OBSERVABLES),
        families(PARTNER_OBSERVABLES),
        families(PARTNER_OBSERVABLES),
    )
    return Strategy(state=rho, party_dims=(4, 4, 4), measurements=meas, kind="parallel")


def random_projective_strategy(seed: int, noise: NoiseParams = NoiseParams()) -> Strategy:
    """Randomized projective strategy preserving the flag structure.

    Starts from the honest flagged strategy and conjugates every value
    projector by a Haar-random single-qubit unitary drawn per party and
    per flag sector. The flag register and branch weights are untouched,
    so the flag-consistency constraints still hold exactly with
    p_T(0) = p_T(1) = 1/2 while the Bell value wanders below the quantum
    maximum. Deterministic for a given seed.
    """
    rho = 0.5 * _flagged_branch(0, noise.visibility) + 0.5 * _flagged_branch(1, noise.visibility)
    meas = tuple(_families(stack[0].reshape(-1, 2, 2, 4, 4)) for stack in random_projective_effects([seed]))
    return Strategy(state=rho, party_dims=(4, 4, 4), measurements=meas, kind="flagged")


def random_projective_effects(seeds) -> tuple[np.ndarray, ...]:
    """Per party, the (K, inputs, 4, 4, 4) effects of `random_projective_strategy`
    for each of K seeds, labels in OUTCOME_LABELS order. Each seed makes one
    draw, the numbers of one `random_unitary(2, rng)` per party and flag sector,
    and one QR makes all unitaries U; value projector V becomes (U V) U^H."""
    z = np.reshape([np.random.default_rng(s).standard_normal((3, 2, 2, 2, 2)) for s in seeds], (-1, 3, 2, 2, 2, 2))
    rotations = haar_unitaries(z[:, :, :, 0] + 1j * z[:, :, :, 1])[:, :, None, None]
    stacks = []
    for party, observables in enumerate((ALICE_OBSERVABLES, PARTNER_OBSERVABLES, PARTNER_OBSERVABLES)):
        u = rotations[:, party]
        rotated = (u @ _value_projectors(observables)[:, :, None]) @ u.conj().swapaxes(-1, -2)
        stacks.append(kron_stack(rotated, _FLAG_PROJECTORS).reshape(len(z), len(observables), 4, 4, 4))
    return tuple(stacks)


def _matrix_to_json(m: np.ndarray) -> list:
    # Row-major nested lists of [re, im] pairs.
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _matrix_from_json(rows: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def strategy_to_json(strategy: Strategy) -> str:
    doc = {
        "kind": strategy.kind,
        "party_dims": list(strategy.party_dims),
        "state": _matrix_to_json(strategy.state),
        "measurements": [
            {
                str(x): {f"{a},{t}": _matrix_to_json(m) for (a, t), m in effects.items()}
                for x, effects in families.items()
            }
            for families in strategy.measurements
        ],
    }
    return json.dumps(doc)


def strategy_from_json(text: str) -> Strategy:
    doc = json.loads(text)
    meas = []
    for families in doc["measurements"]:
        fams = {}
        for x, effects in families.items():
            fams[int(x)] = {
                tuple(int(b) for b in label.split(",")): _matrix_from_json(m)
                for label, m in effects.items()
            }
        meas.append(fams)
    return Strategy(
        state=_matrix_from_json(doc["state"]),
        party_dims=tuple(doc["party_dims"]),
        measurements=tuple(meas),
        kind=doc["kind"],
    )
