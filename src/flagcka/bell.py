"""Behaviors and Bell functionals for the flagged three-party scenario.

Alice chooses from two inputs, Bob and Carole from three; every party
outputs a pair of bits. A behavior is the full conditional table
p(outputs | inputs), stored dense with axes (x, y, z, a, ta, b, tb, c, tc).

Each strategy kind's Bell functional is a sum of two CHSH blocks, and it
is stored once: BELL_FUNCTIONALS[kind].coeffs is a tensor of shape
(2, *TABLE_SHAPE) whose slice k holds block k's coefficient on every cell
of the table. A block's value is the full contraction of its slice with
the table; the functional is linear in the behavior. Term (x, w, a, b) of
a block, with x Alice's input, w the partner's input and a, b the two
bits compared, carries the CHSH sign (-1)^(a + b + x*w):

  flagged   ab_t0    Alice's and Bob's values on cells where all three
                     flags read 0; Carole's value is summed out
            ac_t1    Alice's and Carole's values, all three flags 1
  parallel  pair_ab  Alice's and Bob's first bits; the rest summed out
            pair_ac  Alice's and Carole's second bits

Cells with disagreeing flags carry no coefficient in the flagged tensor,
so that mass can only lower the value. The same tensors give the values
(bell_value, parallel_bell_value), the standard error of an estimate
(bell_value_stderr) and the local bound by enumeration
(local_bound_bruteforce).

Each block pools over the third party's (the spectator's) test inputs:
a term reads the cells at spectator input 0 and at 1, with half its sign
on each. For an exact no-signalling behavior the spectator's input leaves
the pair's marginal unchanged, so this is the same value as reading one
input; on sampled data every test round feeds every block, which halves
the range of a round's contribution and narrows the estimate. Test
rounds never use the generation input 2.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .qops import SQRT2
from .strategies import N_INPUTS, OUTCOME_LABELS, Strategy

__all__ = [
    "CHSH_QUANTUM_MAX",
    "GENERATION_INPUTS",
    "Behavior",
    "FlagStats",
    "BellReport",
    "ParallelBellReport",
    "BellFunctional",
    "BELL_FUNCTIONALS",
    "BehaviorEstimate",
    "behavior_from_strategy",
    "deterministic_behavior",
    "flag_stats",
    "bell_value",
    "parallel_bell_value",
    "local_bound_bruteforce",
    "estimate_behavior",
    "bell_value_stderr",
    "behavior_to_json",
    "behavior_from_json",
]

CHSH_QUANTUM_MAX = 2.0 * SQRT2
GENERATION_INPUTS = (0, 2, 2)
TABLE_SHAPE = (2, 3, 3, 2, 2, 2, 2, 2, 2)
# Weights of a round's nine columns (x, y, z, a, ta, b, tb, c, tc) in the
# flat index of its cell of a C-ordered TABLE_SHAPE table.
CELL_WEIGHTS = np.array([math.prod(TABLE_SHAPE[k + 1:]) for k in range(len(TABLE_SHAPE))], dtype=np.int32)

# Per kind and block, the table cells read by CHSH term (x, w, a, b) at
# spectator input s, one entry per table axis: a term letter, a fixed
# index, or ":" to sum out.
_BLOCK_CELLS = {
    "flagged": {
        "ab_t0": ("x", "w", "s", "a", 0, "b", 0, ":", 0),
        "ac_t1": ("x", "s", "w", "a", 1, ":", 1, "b", 1),
    },
    "parallel": {
        "pair_ab": ("x", "w", "s", "a", ":", "b", ":", ":", ":"),
        "pair_ac": ("x", "s", "w", ":", "a", ":", ":", ":", "b"),
    },
}


def _chsh_tensors() -> dict:
    """Kind -> read-only (2, *TABLE_SHAPE) coefficient tensor, one slice per block."""
    tensors = {kind: np.zeros((len(cells), *TABLE_SHAPE)) for kind, cells in _BLOCK_CELLS.items()}
    for x, w, s, a, b in itertools.product((0, 1), repeat=5):
        term = {"x": x, "w": w, "s": s, "a": a, "b": b, ":": slice(None)}
        coeff = (-1.0) ** (a + b + x * w) / 2
        for kind, cells in _BLOCK_CELLS.items():
            for k, cell in enumerate(cells.values()):
                tensors[kind][(k, *(term.get(v, v) for v in cell))] = coeff
    for tensor in tensors.values():
        tensor.setflags(write=False)
    return tensors


@dataclass(frozen=True, eq=False)
class BellFunctional:
    """One strategy kind's Bell functional and its reference values."""

    blocks: tuple[str, ...]   # block names, in slice order
    coeffs: np.ndarray        # (len(blocks), *TABLE_SHAPE)
    local_bound: float        # maximum over local (deterministic) behaviors
    quantum_max: float

    def block_values(self, table: np.ndarray) -> np.ndarray:
        return np.tensordot(self.coeffs, table, axes=table.ndim)


_TENSORS = _chsh_tensors()
BELL_FUNCTIONALS = {
    "flagged": BellFunctional(tuple(_BLOCK_CELLS["flagged"]), _TENSORS["flagged"], 2.0, CHSH_QUANTUM_MAX),
    "parallel": BellFunctional(tuple(_BLOCK_CELLS["parallel"]), _TENSORS["parallel"], 4.0, 2.0 * CHSH_QUANTUM_MAX),
}


@dataclass(frozen=True, eq=False)
class Behavior:
    """Dense conditional probability table p(a,ta,b,tb,c,tc | x,y,z)."""

    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float)
        if table.shape != TABLE_SHAPE:
            raise ValueError(f"behavior table must have shape {TABLE_SHAPE}, got {table.shape}")
        object.__setattr__(self, "table", table)

    def normalization_deviation(self) -> float:
        sums = self.table.reshape(2, 3, 3, -1).sum(axis=-1)
        return float(np.abs(sums - 1.0).max())

    def no_signalling_deviation(self) -> float:
        """Largest drift of any single-party marginal across the others' inputs."""
        t = self.table
        dev = 0.0
        marg_a = t.sum(axis=(5, 6, 7, 8))          # x,y,z,a,ta
        dev = max(dev, float(np.ptp(marg_a, axis=(1, 2)).max()))
        marg_b = t.sum(axis=(3, 4, 7, 8))          # x,y,z,b,tb
        dev = max(dev, float(np.ptp(marg_b, axis=(0, 2)).max()))
        marg_c = t.sum(axis=(3, 4, 5, 6))          # x,y,z,c,tc
        dev = max(dev, float(np.ptp(marg_c, axis=(0, 1)).max()))
        return dev

    def validate(self) -> "Behavior":
        lo, hi = float(self.table.min()), float(self.table.max())
        if lo < -1e-12 or hi > 1.0 + 1e-12:
            raise ValueError(f"behavior entries outside [0, 1]: min {lo}, max {hi}")
        dn = self.normalization_deviation()
        if dn > 1e-10:
            raise ValueError(f"behavior not normalized (max deviation {dn:.3e})")
        ds = self.no_signalling_deviation()
        if ds > 1e-9:
            raise ValueError(f"behavior signals (max marginal drift {ds:.3e})")
        return self


@dataclass(frozen=True)
class FlagStats:
    """Flag branch weights and the probability all three flags agree."""

    p0: float
    p1: float
    agreement_prob: float

    def __post_init__(self):
        if self.p0 + self.p1 > 1.0 + 1e-10:
            raise ValueError(f"branch weights sum to {self.p0 + self.p1} > 1")


@dataclass(frozen=True)
class BellReport:
    """Flag-gated CHSH blocks, raw and normalized by branch weight.

    Normalized entries are None when the corresponding branch weight
    vanishes (the block is then undefined, not zero).
    """

    chsh_ab_t0: float
    chsh_ac_t1: float
    normalized_ab: float | None
    normalized_ac: float | None
    total: float


@dataclass(frozen=True)
class ParallelBellReport:
    """Marginal CHSH per pair for the two-pair strategy (no flags)."""

    chsh_pair_ab: float
    chsh_pair_ac: float
    total: float


def behavior_from_strategy(strategy: Strategy) -> Behavior:
    """Born-rule behavior of a strategy, validated."""
    da, db, dc = strategy.party_dims
    rho = strategy.state.reshape(da, db, dc, da, db, dc)
    stacks = []
    for party, d in enumerate(strategy.party_dims):
        per_input = []
        for x in range(N_INPUTS[party]):
            fam = strategy.measurements[party][x]
            per_input.append(np.stack([fam[label] for label in OUTCOME_LABELS]))
        stacks.append(per_input)
    table = np.empty(TABLE_SHAPE, dtype=float)
    flat = table.reshape(2, 3, 3, 4, 4, 4)
    for x in range(2):
        for y in range(3):
            for z in range(3):
                # p(alpha,beta,gamma) = Tr[rho (A (x) B (x) C)]
                p = np.einsum(
                    "abcdef,ida,jeb,kfc->ijk",
                    rho,
                    stacks[0][x],
                    stacks[1][y],
                    stacks[2][z],
                    optimize=True,
                )
                flat[x, y, z] = p.real
    return Behavior(table).validate()


def deterministic_behavior(alice: dict, bob: dict, carole: dict) -> Behavior:
    """Indicator behavior for deterministic outcome maps input -> (bit, bit)."""
    table = np.zeros(TABLE_SHAPE)
    for x in range(2):
        for y in range(3):
            for z in range(3):
                a, ta = alice[x]
                b, tb = bob[y]
                c, tc = carole[z]
                table[x, y, z, a, ta, b, tb, c, tc] = 1.0
    return Behavior(table)


def _all_flags_mass(table: np.ndarray, x: int, y: int, z: int, t: int) -> float:
    return float(table[x, y, z, :, t, :, t, :, t].sum())


def flag_stats(behavior: Behavior) -> FlagStats:
    """Branch weights read at inputs (0,0,0) after an input-independence check.

    Raises when the all-flags-agree mass or any single-party flag
    marginal drifts with the inputs beyond 1e-9: flags that signal
    have no well-defined branch weights.
    """
    t = behavior.table
    agree = np.empty((2, 3, 3, 2))
    for ft in (0, 1):
        agree[..., ft] = t[:, :, :, :, ft, :, ft, :, ft].sum(axis=(3, 4, 5))
    agreement = agree.sum(axis=-1)
    if float(np.ptp(agreement)) > 1e-9:
        raise ValueError(f"flag agreement probability varies with inputs by {np.ptp(agreement):.3e}")
    flag_a = t.sum(axis=(3, 5, 6, 7, 8))  # x,y,z,ta
    flag_b = t.sum(axis=(3, 4, 5, 7, 8))
    flag_c = t.sum(axis=(3, 4, 5, 6, 7))
    for name, marg in (("Alice", flag_a), ("Bob", flag_b), ("Carole", flag_c)):
        if float(np.ptp(marg, axis=(0, 1, 2)).max()) > 1e-9:
            raise ValueError(f"{name} flag marginal depends on the inputs beyond 1e-9")
    return FlagStats(
        p0=float(agree[0, 0, 0, 0]),
        p1=float(agree[0, 0, 0, 1]),
        agreement_prob=float(agreement[0, 0, 0]),
    )


def bell_value(behavior: Behavior) -> BellReport:
    """Evaluate both flag-gated CHSH blocks of the Bell functional.

    Branch weights for normalization are read at inputs (0,0,0); a
    vanishing weight leaves that normalized entry undefined (None).
    """
    t = behavior.table
    ab, ac = BELL_FUNCTIONALS["flagged"].block_values(t).tolist()
    p0 = _all_flags_mass(t, 0, 0, 0, 0)
    p1 = _all_flags_mass(t, 0, 0, 0, 1)
    return BellReport(
        chsh_ab_t0=ab,
        chsh_ac_t1=ac,
        normalized_ab=ab / p0 if p0 > 0.0 else None,
        normalized_ac=ac / p1 if p1 > 0.0 else None,
        total=ab + ac,
    )


def parallel_bell_value(behavior: Behavior) -> ParallelBellReport:
    """Sum of the two marginal CHSH values for the two-pair strategy.

    Outcome labels are read as (first-pair bit, second-pair bit): the
    Alice-Bob CHSH uses each party's first bit, the Alice-Carole CHSH
    the second bits. No flag gating is involved.
    """
    ab, ac = BELL_FUNCTIONALS["parallel"].block_values(behavior.table).tolist()
    return ParallelBellReport(chsh_pair_ab=ab, chsh_pair_ac=ac, total=ab + ac)


# Every deterministic assignment as rows of per-input outcome indices
# o = 2*value + flag, in lexicographic order: 16 for Alice, 64 for a partner.
_ALICE_ASSIGNMENTS = np.array(list(itertools.product(range(4), repeat=2)))
_PARTNER_ASSIGNMENTS = np.array(list(itertools.product(range(4), repeat=3)))


def _deterministic_values(coeffs: np.ndarray) -> np.ndarray:
    """Value of a functional on every deterministic assignment.

    `coeffs` has TABLE_SHAPE; entry [i, j, k] of the (16, 64, 64) result
    is the value on Alice's i-th, Bob's j-th and Carole's k-th assignment.
    A one-hot (value, flag) per input gathers the coefficient of each
    triple's single nonzero cell.
    """
    one_hot = np.eye(4)
    alice = one_hot[_ALICE_ASSIGNMENTS].reshape(-1, 2, 2, 2)
    partner = one_hot[_PARTNER_ASSIGNMENTS].reshape(-1, 3, 2, 2)
    return np.einsum("xyzabcdef,ixab,jycd,kzef->ijk", coeffs, alice, partner, partner, optimize=True)


def local_bound_bruteforce() -> tuple[float, dict]:
    """Exact local (classical) maximum of the Bell functional.

    Enumerates all 16 * 64 * 64 deterministic assignments of a four-way
    outcome to every input of every party and evaluates the functional
    directly. Returns the maximum and the first maximizer in
    lexicographic (Alice, Bob, Carole) enumeration order.
    """
    values = _deterministic_values(BELL_FUNCTIONALS["flagged"].coeffs.sum(axis=0))
    ia, ib, ic = np.unravel_index(int(values.argmax()), values.shape)

    def outputs(row):
        return {i: (int(o >> 1), int(o & 1)) for i, o in enumerate(row)}

    maximizer = {
        "alice": outputs(_ALICE_ASSIGNMENTS[ia]),
        "bob": outputs(_PARTNER_ASSIGNMENTS[ib]),
        "carole": outputs(_PARTNER_ASSIGNMENTS[ic]),
    }
    return float(values[ia, ib, ic]), maximizer


@dataclass(frozen=True, eq=False)
class BehaviorEstimate:
    """Plug-in estimate from counts; zero-count input triples are flagged."""

    behavior: Behavior
    counts: np.ndarray                      # same 9-axis shape, integer counts
    missing_inputs: tuple[tuple[int, int, int], ...]

    def triple_totals(self) -> np.ndarray:
        return self.counts.reshape(2, 3, 3, -1).sum(axis=-1)


def estimate_behavior(rows: np.ndarray) -> BehaviorEstimate:
    """Empirical conditional frequencies from an (N, 9) integer array.

    Each row is one round in the columns (x, y, z, a, ta, b, tb, c, tc),
    counted at its cell's flat index: one code per row is the only
    temporary that grows with N. Cells of input triples that never occur
    are left at zero and the triple is reported in missing_inputs.
    """
    if not np.issubdtype(rows.dtype, np.integer) or rows.ndim != 2 or rows.shape[1] != len(TABLE_SHAPE):
        raise ValueError(f"rows must be an integer array of shape (N, 9), got {rows.dtype} of shape {rows.shape}")
    counts = np.zeros(TABLE_SHAPE, dtype=np.int64)
    if len(rows):
        if (rows.min(axis=0) < 0).any() or (rows.max(axis=0) >= TABLE_SHAPE).any():
            raise ValueError(f"row values must lie below {TABLE_SHAPE} column by column")
        # einsum, unlike matmul, casts the rows in buffered chunks, not as a
        # whole copy; intp codes are what bincount reads without a copy.
        codes = np.einsum("ij,j->i", rows, CELL_WEIGHTS, dtype=np.intp)
        counts = np.bincount(codes, minlength=counts.size).reshape(TABLE_SHAPE)
    totals = counts.reshape(2, 3, 3, -1).sum(axis=-1)
    table = np.zeros(TABLE_SHAPE)
    nz = totals > 0
    table[nz] = counts[nz] / totals[nz].reshape(-1, 1, 1, 1, 1, 1, 1)
    missing = tuple(
        (int(x), int(y), int(z)) for x, y, z in np.argwhere(~nz)
    )
    return BehaviorEstimate(behavior=Behavior(table), counts=counts, missing_inputs=missing)


def bell_value_stderr(estimate: BehaviorEstimate, kind: str = "flagged") -> float:
    """Multinomial delta-method standard error of the estimated Bell value.

    The Bell value of strategy kind `kind` is linear in the per-triple
    conditionals, so with c its summed coefficient tensor its variance is
    the sum over input triples of (sum c^2 p - (sum c p)^2) / N. Returns
    inf if a triple the functional depends on was never sampled.
    """
    coeff = BELL_FUNCTIONALS[kind].coeffs.sum(axis=0).reshape(18, -1)
    p = estimate.behavior.table.reshape(18, -1)
    totals = estimate.triple_totals().ravel()
    used = coeff.any(axis=1)
    if (totals[used] == 0).any():
        return math.inf
    mean = (coeff * p).sum(axis=1)
    second = (coeff * coeff * p).sum(axis=1)
    return math.sqrt(float((np.maximum(second - mean * mean, 0.0)[used] / totals[used]).sum()))


def behavior_to_json(behavior: Behavior) -> str:
    doc = {}
    t = behavior.table
    for x in range(2):
        for y in range(3):
            for z in range(3):
                cell = {}
                for a in (0, 1):
                    for ta in (0, 1):
                        for b in (0, 1):
                            for tb in (0, 1):
                                for c in (0, 1):
                                    for tc in (0, 1):
                                        key = f"{a} {ta} {b} {tb} {c} {tc}"
                                        cell[key] = float(t[x, y, z, a, ta, b, tb, c, tc])
                doc[f"{x},{y},{z}"] = cell
    return json.dumps(doc)


def behavior_from_json(text: str) -> Behavior:
    doc = json.loads(text)
    table = np.zeros(TABLE_SHAPE)
    for triple, cell in doc.items():
        x, y, z = (int(v) for v in triple.split(","))
        for key, p in cell.items():
            a, ta, b, tb, c, tc = (int(v) for v in key.split())
            table[x, y, z, a, ta, b, tb, c, tc] = float(p)
    return Behavior(table)
