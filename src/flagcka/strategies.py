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
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qops import (
    ATOL_OPERATOR,
    PAULI_X,
    PAULI_Z,
    SQRT2,
    assert_density_operator,
    basis_ket,
    check_effects_complete,
    haar_unitaries,
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
    "depolarize",
    "honest_flagged_strategy",
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
    """Shared state plus one stack of effects per party.

    effects[party] is an (inputs, 4, d, d) array: per input, the four
    positive effects of that party's family in OUTCOME_LABELS order, each
    family summing to the local identity. kind is "flagged" (labels are
    (value, flag)) or "parallel" (labels are the two per-pair value bits).
    The state and the stacks are checked once (shapes, completeness, each
    effect Hermitian and positive) and kept as read-only copies.
    """

    state: np.ndarray
    effects: tuple
    kind: str = "flagged"

    def __post_init__(self):
        if self.kind not in _HONEST_BUILDERS:
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        if len(self.effects) != 3:
            raise ValueError("strategy needs exactly three parties")
        stacks = tuple(np.array(stack, dtype=complex) for stack in self.effects)
        for party, stack in enumerate(stacks):
            if stack.ndim != 4 or stack.shape[:2] != (N_INPUTS[party], len(OUTCOME_LABELS)):
                raise ValueError(f"party {party} effects must be ({N_INPUTS[party]}, 4, d, d), got shape {stack.shape}")
            check_effects_complete(stack)
            _check_effects_positive(party, stack)
        object.__setattr__(self, "effects", stacks)
        state = assert_density_operator(np.array(self.state, dtype=complex), name="strategy state")
        dim = math.prod(self.party_dims)
        if state.shape != (dim, dim):
            raise ValueError(f"state dimension {state.shape} does not match party_dims {self.party_dims}")
        object.__setattr__(self, "state", state)
        for array in (state, *stacks):
            array.flags.writeable = False

    @property
    def party_dims(self) -> tuple[int, ...]:
        """Each party's local dimension, read off its effects."""
        return tuple(stack.shape[-1] for stack in self.effects)

    @cached_property
    def purification(self) -> np.ndarray:
        """`qops.purify` of the state, computed on first use and kept (read-only)."""
        psi = purify(self.state)
        psi.flags.writeable = False
        return psi


def _check_effects_positive(party: int, stack: np.ndarray) -> None:
    """Raise unless every effect of one party's (inputs, 4, d, d) stack is
    Hermitian with no eigenvalue below -ATOL_OPERATOR (one eigvalsh call)."""
    skew = np.abs(stack - stack.conj().swapaxes(-2, -1)).max(axis=(-2, -1))
    lowest = np.linalg.eigvalsh(stack)[..., 0]
    bad = (skew > ATOL_OPERATOR) | (lowest < -ATOL_OPERATOR)
    if bad.any():
        x, k = np.argwhere(bad)[0]
        if skew[x, k] > ATOL_OPERATOR:
            why = f"is not Hermitian (deviation {skew[x, k]:.3e})"
        else:
            why = f"is not positive (eigenvalue {lowest[x, k]:.3e})"
        raise ValueError(f"party {party} input {x} label {OUTCOME_LABELS[k]}: effect {why}")


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


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.flags.writeable = False
    return arrays


# Flag-t projector |t><t| of the flag register, and |ttt><ttt| of the three
# flag registers, each stacked over t.
_FLAG_PROJECTORS = np.array([projector(basis_ket(2, t)) for t in (0, 1)])
_FLAG_TRIPLES = kron_stack(kron_stack(_FLAG_PROJECTORS, _FLAG_PROJECTORS), _FLAG_PROJECTORS)
_read_only(_FLAG_PROJECTORS, _FLAG_TRIPLES)

# Each party's (inputs, 2, 2, 2) value projectors. No visibility enters an
# effect, so both kinds' effect stacks are built here once, read-only.
_PARTY_VALUES = tuple(_value_projectors(obs) for obs in (ALICE_OBSERVABLES, PARTNER_OBSERVABLES, PARTNER_OBSERVABLES))


def _flagged_effects(rotations: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """Per party, the (inputs, 4, 4, 4) flagged effects V (x) |t><t| of value
    projector V and flag t. Given (K, 3, 2, 2, 2) unitaries U per member,
    party and flag t, V becomes (U V) U^H and each stack gains axis K first."""
    stacks = []
    for party, values in enumerate(_PARTY_VALUES):
        values = values[:, :, None]
        if rotations is not None:
            u = rotations[:, party, None, None]
            values = (u @ values) @ u.conj().swapaxes(-1, -2)
        stacks.append(kron_stack(values, _FLAG_PROJECTORS).reshape(*values.shape[:-4], 4, 4, 4))
    return tuple(stacks)


_FLAGGED_EFFECTS = _read_only(*_flagged_effects())
# Parallel: party space = first qubit (x) second qubit, one value bit each.
_PARALLEL_EFFECTS = _read_only(
    *(kron_stack(values[:, :, None], values[:, None, :]).reshape(-1, 4, 4, 4) for values in _PARTY_VALUES)
)

# A branch is built as (Q_A, Q_B, Q_C, T_A, T_B, T_C), qubits then flags;
# party order (Q_A, T_A, Q_B, T_B, Q_C, T_C) reads these subsystems.
_PARTY_ORDER = (0, 3, 1, 4, 2, 5)


def _flagged_state(visibility: float) -> np.ndarray:
    """The even mixture of the two branches of the flagged state, ordered
    (qubit, flag) per party.

    Branch t = 0 entangles Alice with Bob and hands Carole a |+> qubit,
    branch t = 1 entangles Alice with Carole and hands Bob the |+>; all
    three flag registers carry |t>. Depolarizing noise acts on the
    entangled pair only. Branch 1's qubits are branch 0's with Bob's and
    Carole's swapped. One product pairs each branch's qubits with its flag
    triple, whose entries are 0 or 1, so every entry is exact; one
    transpose puts both branches in party order. The mixture's weight is
    a power of two, so it too is exact up to the one rounding of the sum.
    """
    qubits = tensor(depolarize(projector(phi_plus()), visibility), projector(plus_ket()))
    swapped = qubits.reshape((2,) * 6).transpose(0, 2, 1, 3, 5, 4).reshape(8, 8)
    branches = kron_stack(np.array([qubits, swapped]), _FLAG_TRIPLES)
    axes = (0, *(1 + k for k in _PARTY_ORDER), *(7 + k for k in _PARTY_ORDER))
    branches = branches.reshape(2, *(2,) * 12).transpose(axes).reshape(2, 64, 64)
    return branches.sum(axis=0) / 2


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
    return Strategy(_flagged_state(noise.visibility), _FLAGGED_EFFECTS, "flagged")


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
    # |+><+| has entries 0.4999999999999999, so the chain keeps its order:
    # each entry is ((pair * |+>) * pair) * |+>, rounded at each step.
    rho = tensor(pair, spectator, pair, spectator)
    rho = permute_subsystems(rho, [2] * 6, [0, 3, 1, 5, 2, 4])
    return Strategy(rho, _PARALLEL_EFFECTS, "parallel")


# Each strategy kind and its honest builder: the one list of the kinds.
# Each builder is called through its module name, so a rebinding of that
# name, as the bench's span tracer makes, is the one called.
_HONEST_BUILDERS = {
    "flagged": lambda noise: honest_flagged_strategy(noise),
    "parallel": lambda noise: honest_parallel_strategy(noise),
}


def random_projective_strategy(seed: int, noise: NoiseParams = NoiseParams()) -> Strategy:
    """Randomized projective strategy preserving the flag structure.

    Starts from the honest flagged strategy and conjugates every value
    projector by a Haar-random single-qubit unitary drawn per party and
    per flag sector. The flag register and branch weights are untouched,
    so the flag-consistency constraints still hold exactly with
    p_T(0) = p_T(1) = 1/2 while the Bell value wanders below the quantum
    maximum. Deterministic for a given seed.
    """
    effects = tuple(stack[0] for stack in random_projective_effects([seed]))
    return Strategy(_flagged_state(noise.visibility), effects, "flagged")


def random_projective_effects(seeds) -> tuple[np.ndarray, ...]:
    """Per party, the (K, inputs, 4, 4, 4) effects of `random_projective_strategy`
    for each of K seeds, labels in OUTCOME_LABELS order. Each seed makes one
    draw: per party and flag sector, the real and then the imaginary part of
    a 2 x 2 complex Gaussian matrix. One QR (`haar_unitaries`) makes all
    unitaries, and `_flagged_effects` rotates the value projectors by them."""
    z = np.reshape([np.random.default_rng(s).standard_normal((3, 2, 2, 2, 2)) for s in seeds], (-1, 3, 2, 2, 2, 2))
    return _flagged_effects(haar_unitaries(z[:, :, :, 0] + 1j * z[:, :, :, 1]))


# JSON keys of OUTCOME_LABELS.
_LABEL_KEYS = tuple(f"{a},{t}" for a, t in OUTCOME_LABELS)


def _matrix_to_json(m: np.ndarray) -> list:
    # Row-major nested lists of [re, im] pairs.
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, dtype=complex)]


def _matrix_from_json(rows: list) -> np.ndarray:
    # The config and behavior readers' rule: an int or float, never a bool, that fits a float.
    try:
        if all(isinstance(z, list) and len(z) == 2 and all(type(v) in (int, float) for v in z) for row in rows for z in row):
            return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)
    except (TypeError, OverflowError):
        pass
    raise ValueError("matrix entries must be [re, im] pairs of numbers that fit a float")


def strategy_to_json(strategy: Strategy) -> str:
    """JSON text of a strategy; each input's effects keyed by label "a,t"."""
    doc = {
        "kind": strategy.kind,
        "party_dims": list(strategy.party_dims),
        "state": _matrix_to_json(strategy.state),
        "measurements": [
            {str(x): {key: _matrix_to_json(m) for key, m in zip(_LABEL_KEYS, family)} for x, family in enumerate(stack)}
            for stack in strategy.effects
        ],
    }
    return json.dumps(doc)


def strategy_from_json(text: str) -> Strategy:
    """The strategy `strategy_to_json` wrote. Input from elsewhere is checked:
    a missing key, an input or label key other than the format's, or
    party_dims that contradict the effects raise ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("strategy JSON must be an object")
    missing = [key for key in ("kind", "party_dims", "state", "measurements") if key not in doc]
    if missing:
        raise ValueError(f"strategy JSON lacks {missing}")
    if not isinstance(doc["measurements"], list) or len(doc["measurements"]) != 3:
        raise ValueError("strategy needs exactly three parties")
    effects = []
    for party, families in enumerate(doc["measurements"]):
        inputs = [str(x) for x in range(N_INPUTS[party])]
        if not isinstance(families, dict) or sorted(families) != inputs:
            raise ValueError(f"party {party} must define exactly the inputs {inputs}")
        for x in inputs:
            if not isinstance(families[x], dict) or sorted(families[x]) != list(_LABEL_KEYS):
                raise ValueError(f"party {party} input {x} must define exactly the labels {list(_LABEL_KEYS)}")
        effects.append([[_matrix_from_json(families[x][key]) for key in _LABEL_KEYS] for x in inputs])
    strategy = Strategy(_matrix_from_json(doc["state"]), tuple(effects), doc["kind"])
    if doc["party_dims"] != list(strategy.party_dims):
        raise ValueError(f"party_dims {doc['party_dims']} contradict the effects' {list(strategy.party_dims)}")
    return strategy
