"""Exact linear algebra for small multipartite quantum systems.

Everything works on dense complex numpy arrays. Pure states are unit
vectors, mixed states are density matrices, measurements are families of
positive effects keyed by outcome label. All Hilbert spaces in this
package have dimension at most 128, so nothing here attempts sparsity.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from functools import reduce

import numpy as np

__all__ = [
    "PAULI_X",
    "PAULI_Z",
    "SQRT2",
    "basis_ket",
    "plus_ket",
    "phi_plus",
    "projector",
    "tensor",
    "dagger",
    "identity",
    "is_hermitian",
    "assert_density_operator",
    "check_effects_complete",
    "outcome_distribution",
    "born_probabilities",
    "select_outcome",
    "measure_collapse",
    "partial_trace",
    "permute_subsystems",
    "purify",
    "von_neumann_entropy",
    "trace_distance",
    "naimark_dilation",
    "random_unitary",
    "random_density_operator",
]

SQRT2 = math.sqrt(2.0)

# Default tolerances. Operator identities are exact up to accumulation of
# float rounding, so 1e-12 on inputs and 1e-10 on derived spectra.
ATOL_OPERATOR = 1e-12
ATOL_EIG = 1e-10
ENTROPY_EIG_CUTOFF = 1e-12

PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


def basis_ket(dim: int, index: int) -> np.ndarray:
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    ket = np.zeros(dim, dtype=complex)
    ket[index] = 1.0
    return ket


def plus_ket() -> np.ndarray:
    return np.array([1.0, 1.0], dtype=complex) / SQRT2


def phi_plus() -> np.ndarray:
    """Maximally entangled two-qubit vector (|00> + |11>)/sqrt(2)."""
    return np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / SQRT2


def projector(vec: np.ndarray) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex).ravel()
    return np.outer(vec, vec.conj())


def tensor(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more vectors or operators."""
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    return reduce(np.kron, (np.asarray(f, dtype=complex) for f in factors))


def dagger(op: np.ndarray) -> np.ndarray:
    return np.asarray(op).conj().T


def is_hermitian(op: np.ndarray) -> bool:
    op = np.asarray(op)
    return op.ndim == 2 and op.shape[0] == op.shape[1] and np.allclose(op, op.conj().T, atol=ATOL_OPERATOR)


def assert_density_operator(rho: np.ndarray, name: str = "state") -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity (eigenvalues >= -1e-10)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {rho.shape}")
    if not is_hermitian(rho):
        raise ValueError(f"{name} is not Hermitian within {ATOL_OPERATOR}")
    tr = rho.trace().real
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"{name} has trace {tr}, expected 1")
    lo = np.linalg.eigvalsh(rho)[0]
    if lo < -ATOL_EIG:
        raise ValueError(f"{name} has negative eigenvalue {lo}")
    return rho


def check_effects_complete(effects: Mapping[object, np.ndarray]) -> int:
    """Check that the effects sum to the identity; return the dimension."""
    if not effects:
        raise ValueError("measurement family is empty")
    mats = [np.asarray(m, dtype=complex) for m in effects.values()]
    dim = mats[0].shape[0]
    for m in mats:
        if m.shape != (dim, dim):
            raise ValueError(f"effect shape {m.shape} does not match dimension {dim}")
    total = sum(mats)
    if not np.allclose(total, np.eye(dim), atol=ATOL_OPERATOR):
        gap = np.abs(total - np.eye(dim)).max()
        raise ValueError(f"effects do not sum to identity (max deviation {gap:.3e})")
    return dim


def outcome_distribution(rho: np.ndarray, effects: Mapping[object, np.ndarray]) -> dict:
    """Born-rule outcome distribution p(label) = Tr(E_label rho).

    The family must be complete. Probabilities are clipped to [0, 1];
    anything below -1e-12 or a total off from 1 by more than 1e-10
    signals a malformed input and raises.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = check_effects_complete(effects)
    if rho.shape != (dim, dim):
        raise ValueError(f"state dimension {rho.shape} does not match effects ({dim})")
    return born_probabilities(rho, effects)


def born_probabilities(rho: np.ndarray, effects: Mapping[object, np.ndarray]) -> dict:
    """`outcome_distribution` for a family already checked complete.

    Callers that measure many states with one family check it once with
    `check_effects_complete` and call this per state. The per-state checks
    stay: a probability below -1e-12 or a total off from 1 by more than
    1e-10 raises.
    """
    probs = {}
    for label in sorted(effects):
        p = np.einsum("ij,ji->", np.asarray(effects[label], dtype=complex), rho).real
        if p < -ATOL_OPERATOR:
            raise ValueError(f"negative probability {p:.3e} for outcome {label}")
        probs[label] = float(min(max(p, 0.0), 1.0))
    total = sum(probs.values())
    if abs(total - 1.0) > 1e-10:
        raise ValueError(f"outcome probabilities sum to {total}, expected 1")
    return probs


def select_outcome(pvals: Sequence[float], draws):
    """Indices of the outcomes that uniform draws select from one distribution.

    `pvals` are the outcome probabilities in ascending label order and
    cum their cumulative sums. Outcome k is chosen when a draw lands in
    [cum[k-1], cum[k]), so a zero-probability outcome has an empty
    interval and is never chosen; a draw in the float dust above cum[-1]
    takes the last outcome of positive probability. `draws` may be a
    float or an array; the result has its shape.
    """
    draws = np.asarray(draws, dtype=float)
    if not ((draws >= 0.0) & (draws < 1.0)).all():
        raise ValueError(f"draws must lie in [0, 1), got {draws}")
    positive = np.asarray(pvals) > 0.0
    nearest = np.maximum.accumulate(np.where(positive, np.arange(len(positive)), -1))
    idx = nearest[np.minimum(np.searchsorted(np.cumsum(pvals), draws, side="right"), len(positive) - 1)]
    if (idx < 0).any():
        raise ValueError("selected outcome has zero probability (malformed family)")
    return idx


def measure_collapse(rho: np.ndarray, projectors: Mapping[object, np.ndarray], draw: float):
    """Sample an outcome and return (label, post-measurement state).

    The outcome is picked by `select_outcome` from the Born distribution,
    labels in ascending order. The family must consist of orthogonal
    projectors summing to the identity; the collapsed state is
    P rho P / p.
    """
    if not 0.0 <= draw < 1.0:
        raise ValueError(f"draw must lie in [0, 1), got {draw}")
    probs = outcome_distribution(rho, projectors)
    labels = sorted(probs)
    pvals = [probs[l] for l in labels]
    label = labels[int(select_outcome(pvals, draw))]
    proj = np.asarray(projectors[label], dtype=complex)
    return label, proj @ rho @ proj / probs[label]


def partial_trace(rho: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Trace out every subsystem not listed in `keep` (order preserved)."""
    dims = list(dims)
    n = len(dims)
    rho = np.asarray(rho, dtype=complex)
    full = int(np.prod(dims))
    if rho.shape != (full, full):
        raise ValueError(f"state shape {rho.shape} does not match dims {dims}")
    keep = list(keep)
    if sorted(set(keep)) != sorted(keep) or any(not 0 <= k < n for k in keep):
        raise ValueError(f"invalid keep list {keep} for {n} subsystems")
    tens = rho.reshape(dims + dims)
    row = list(range(n))
    col = [n + i if i in keep else i for i in range(n)]
    out = [i for i in keep] + [n + i for i in keep]
    return np.einsum(tens, row + col, out).reshape(
        int(np.prod([dims[k] for k in keep])), -1
    )


def permute_subsystems(op: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors so new subsystem k is old subsystem perm[k]."""
    dims = list(dims)
    n = len(dims)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"perm {perm} is not a permutation of 0..{n - 1}")
    op = np.asarray(op, dtype=complex)
    full = int(np.prod(dims))
    axes = list(perm) + [n + p for p in perm]
    return op.reshape(dims + dims).transpose(axes).reshape(full, full)


def _phase_fixed(vec: np.ndarray) -> np.ndarray:
    # Global phase chosen so the first non-negligible component is real positive.
    for x in vec:
        if abs(x) > 1e-12:
            return vec * (abs(x) / x)
    return vec


def purify(rho: np.ndarray) -> np.ndarray:
    """Purification |psi> = sum_i sqrt(l_i) |v_i>|i> with purifier dim = rank.

    Eigenvalues are sorted descending; exact ties are broken by the
    lexicographic order of the phase-fixed eigenvectors (compare real
    then imaginary parts of the first differing component), so the
    output is deterministic. Eigenvalues at or below ENTROPY_EIG_CUTOFF
    are treated as zero. Tracing out the purifier recovers the input.
    """
    rho = assert_density_operator(rho, name="purify input")
    vals, vecs = np.linalg.eigh(rho)
    pairs = []
    for i in range(len(vals)):
        if vals[i] > ENTROPY_EIG_CUTOFF:
            v = _phase_fixed(vecs[:, i])
            key = tuple(x for c in v for x in (round(c.real, 12), round(c.imag, 12)))
            pairs.append((-vals[i], key, v))
    pairs.sort(key=lambda t: (t[0], t[1]))
    rank = len(pairs)
    if rank == 0:
        raise ValueError("state has no eigenvalue above the cutoff")
    dim = rho.shape[0]
    psi = np.zeros((dim, rank), dtype=complex)
    for j, (neg, _, v) in enumerate(pairs):
        psi[:, j] = math.sqrt(-neg) * v
    psi = psi.ravel()
    return psi / np.linalg.norm(psi)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Base-2 entropy -sum l log2 l; eigenvalues below 1e-12 contribute zero."""
    rho = np.asarray(rho, dtype=complex)
    vals = np.linalg.eigvalsh(rho)
    if vals[0] < -ATOL_EIG:
        raise ValueError(f"negative eigenvalue {vals[0]} in entropy input")
    vals = vals[vals > ENTROPY_EIG_CUTOFF]
    return float(max(0.0, -np.sum(vals * np.log2(vals))))


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())


def naimark_dilation(effects: Mapping[object, np.ndarray]):
    """Dilate a POVM to projectors on H (x) C^n.

    Returns (V, projectors) where V = sum_i sqrt(E_i) (x) |i> is an
    isometry from H into H (x) C^n and projectors maps each label to
    I (x) |i><i|, so that V^dag P_i V = E_i. Labels index i in ascending
    order. Useful for feeding non-projective families into checks that
    require projective measurements.
    """
    dim = check_effects_complete(effects)
    labels = sorted(effects)
    n = len(labels)
    v = np.zeros((dim, n, dim), dtype=complex)
    for i, label in enumerate(labels):
        e = np.asarray(effects[label], dtype=complex)
        w, u = np.linalg.eigh(e)
        if w[0] < -ATOL_EIG:
            raise ValueError(f"effect {label} is not positive semidefinite")
        v[:, i, :] = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.conj().T
    v = v.reshape(dim * n, dim)
    projs = {label: tensor(identity(dim), projector(basis_ket(n, i))) for i, label in enumerate(labels)}
    return v, projs


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_density_operator(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random mixed state from a partial-traced Haar vector (test fodder)."""
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / rho.trace()
