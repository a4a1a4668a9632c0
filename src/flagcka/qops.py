"""Exact linear algebra for small multipartite quantum systems.

Everything works on dense complex numpy arrays. Pure states are unit
vectors, mixed states are density matrices, measurements are families of
positive effects, stacked as arrays or keyed by outcome label. All
Hilbert spaces in this package have dimension at most 128, so nothing
here attempts sparsity.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

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
    "kron_stack",
    "identity",
    "is_hermitian",
    "assert_density_operator",
    "check_effects_complete",
    "sum_deviation",
    "outcome_distribution",
    "born_rows",
    "select_outcome",
    "measure_collapse",
    "partial_trace",
    "permute_subsystems",
    "purify",
    "von_neumann_entropy",
    "haar_unitaries",
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
    """Kronecker product of one or more vectors or operators, equal to the
    `np.kron` chain bit for bit.

    One `kron_stack` per factor; a vector enters as a one-row matrix, as
    `np.kron` pads it, and vectors alone give a vector. Stacks of matrices
    broadcast their leading axes, so a (1, d, d) operand pairs with every
    matrix of the other stack, as in `np.kron`; two longer stacks pair
    matrix by matrix, where `np.kron` would pair every two.
    """
    if not factors:
        raise ValueError("tensor() needs at least one factor")
    arrays = [np.asarray(f, dtype=complex) for f in factors]
    product = np.atleast_2d(arrays[0])
    for factor in arrays[1:]:
        product = kron_stack(product, np.atleast_2d(factor))
    return product.ravel() if all(a.ndim == 1 for a in arrays) else product


def kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of each pair of matrices of two broadcastable stacks.

    The last two axes of `a` and `b` are matrices, the leading axes
    broadcast. Each entry is one product a[..., i, j] * b[..., k, l], the
    product `np.kron` takes, so every result matrix equals `np.kron` of its
    pair bit for bit.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(*out.shape[:-4], m * p, n * q)


def is_hermitian(op: np.ndarray) -> bool:
    op = np.asarray(op)
    return op.ndim == 2 and op.shape[0] == op.shape[1] and np.abs(op - op.conj().T).max(initial=0.0) <= ATOL_OPERATOR


def _check_state(rho: np.ndarray, name: str) -> np.ndarray:
    """Validate Hermiticity and unit trace; the caller checks the spectrum."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {rho.shape}")
    if not is_hermitian(rho):
        raise ValueError(f"{name} is not Hermitian within {ATOL_OPERATOR}")
    tr = rho.trace().real
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"{name} has trace {tr}, expected 1")
    return rho


def assert_density_operator(rho: np.ndarray, name: str = "state") -> np.ndarray:
    """Validate Hermiticity, unit trace and positivity (eigenvalues >= -1e-10).

    rho + 1e-10 I has a Cholesky factor exactly when no eigenvalue of rho
    is below -1e-10, so a factor certifies the state; only when the
    factorization fails does `eigvalsh` decide and name the eigenvalue.
    """
    rho = _check_state(rho, name)
    try:
        np.linalg.cholesky(rho + ATOL_EIG * np.eye(len(rho)))
    except np.linalg.LinAlgError:
        lo = np.linalg.eigvalsh(rho)[0]
        if lo < -ATOL_EIG:
            raise ValueError(f"{name} has negative eigenvalue {lo}") from None
    return rho


def check_effects_complete(stack) -> np.ndarray:
    """Check that each family of an (..., L, d, d) stack of effects sums to
    the identity within ATOL_OPERATOR; return the stack as a complex array."""
    stack = np.asarray(stack, dtype=complex)
    if stack.ndim < 3 or 0 in stack.shape[-3:]:
        raise ValueError(f"measurement family is empty or not a stack of matrices (shape {stack.shape})")
    if stack.shape[-2] != stack.shape[-1]:
        raise ValueError(f"effects must be square, got shape {stack.shape[-2:]}")
    gap = sum_deviation(stack).max()
    # Written so that a NaN deviation fails too.
    if not gap <= ATOL_OPERATOR:
        raise ValueError(f"effects do not sum to identity (max deviation {gap:.3e})")
    return stack


def sum_deviation(stack: np.ndarray) -> np.ndarray:
    """(..., L, d, d) -> (...): each family's largest entry deviation from I."""
    return np.abs(stack.sum(axis=-3) - np.eye(stack.shape[-1])).max(axis=(-2, -1))


def outcome_distribution(rho: np.ndarray, effects: Mapping[object, np.ndarray]) -> dict:
    """Born-rule outcome distribution p(label) = Tr(E_label rho).

    The family must be complete. This is `born_rows` on one row, so
    probabilities are clipped to [0, 1], and a probability that is not
    finite or is below -1e-12, or a total off from 1 by more than 1e-10,
    signals a malformed input and raises.
    """
    rho = np.asarray(rho, dtype=complex)
    labels = sorted(effects)
    stack = check_effects_complete([[effects[label] for label in labels]])
    if rho.shape != stack.shape[-2:]:
        raise ValueError(f"state dimension {rho.shape} does not match effects ({stack.shape[-1]})")
    return dict(zip(labels, born_rows(rho[None], stack, labels)[0].tolist()))


def born_rows(rhos: np.ndarray, effects: np.ndarray, labels: Sequence) -> np.ndarray:
    """(K, L) Born probabilities Tr(E rho) of K states, each with its own family.

    `rhos` is (K, d, d), `effects` (K, L, d, d) with the families' effects
    in the order of the L `labels`, which only name outcomes in errors.
    Each row is checked as one distribution: a probability that is not
    finite or is below -1e-12 raises, the rest are clipped to [0, 1], and
    a row total off from 1 by more than 1e-10 raises.
    """
    probs = np.einsum("klij,kji->kl", effects, rhos).real
    # NaN passes every comparison below, and +inf would be clipped to 1.
    # Each test is one reduction; the first offending entry is located only
    # on the way to an error.
    finite = np.isfinite(probs)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(f"non-finite probability {probs[row, col]} for outcome {labels[col]}")
    negative = probs < -ATOL_OPERATOR
    if negative.any():
        row, col = np.argwhere(negative)[0]
        raise ValueError(f"negative probability {probs[row, col]:.3e} for outcome {labels[col]}")
    probs = np.clip(probs, 0.0, 1.0)
    totals = probs.sum(axis=1)
    off = np.abs(totals - 1.0) > 1e-10
    if off.any():
        raise ValueError(f"outcome probabilities sum to {totals[off.argmax()]}, expected 1")
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


def purify(rho: np.ndarray) -> np.ndarray:
    """Purification |psi> = sum_i sqrt(l_i) |v_i>|i> with purifier dim = rank.

    Eigenvalues are sorted descending; exact ties are broken by the
    lexicographic order of the phase-fixed eigenvectors (compare real
    then imaginary parts of the first differing component, each rounded
    to 12 decimals), so the output is deterministic. Each eigenvector's
    global phase makes its first component of modulus above 1e-12 real
    positive. Eigenvalues at or below ENTROPY_EIG_CUTOFF are treated as
    zero. Tracing out the purifier recovers the input.
    """
    rho = _check_state(rho, "purify input")
    vals, vecs = np.linalg.eigh(rho)
    if vals[0] < -ATOL_EIG:
        raise ValueError(f"purify input has negative eigenvalue {vals[0]}")
    # A unit-trace state has an eigenvalue of at least 1/dim, so one is kept.
    kept = vals > ENTROPY_EIG_CUTOFF
    vals, vecs = vals[kept], vecs[:, kept]
    rank = len(vals)
    first = vecs[np.argmax(np.abs(vecs) > 1e-12, axis=0), np.arange(rank)]
    vecs = vecs * (np.abs(first) / first)
    # Row j of parts is eigenvector j as (re, im) of each component in turn.
    # np.lexsort reads its last key first: -eigenvalue, then the parts.
    parts = np.round(np.ascontiguousarray(vecs.T).view(float), 12)
    order = np.lexsort([*parts.T[::-1], -vals])
    psi = (np.sqrt(vals[order]) * vecs[:, order]).ravel()
    return psi / np.linalg.norm(psi)


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Base-2 entropy -sum l log2 l; eigenvalues below 1e-12 contribute zero."""
    rho = np.asarray(rho, dtype=complex)
    vals = np.linalg.eigvalsh(rho)
    if vals[0] < -ATOL_EIG:
        raise ValueError(f"negative eigenvalue {vals[0]} in entropy input")
    vals = vals[vals > ENTROPY_EIG_CUTOFF]
    return float(max(0.0, -np.sum(vals * np.log2(vals))))


def haar_unitaries(g: np.ndarray) -> np.ndarray:
    """Haar unitaries from a (..., d, d) stack of complex Gaussian matrices."""
    q, r = np.linalg.qr(g)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def random_density_operator(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random mixed state from a partial-traced Haar vector (test fodder)."""
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / rho.trace()
