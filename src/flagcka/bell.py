"""Behaviors and Bell functionals for the flagged three-party scenario.

Alice chooses from two inputs, Bob and Carole from three; every party
outputs a pair of bits. A behavior is the full conditional table
p(outputs | inputs), stored dense with axes (x, y, z, a, ta, b, tb, c, tc).

Each strategy kind's Bell functional is a sum of two CHSH blocks, one per
pairwise key, Alice-Bob and Alice-Carole. `_BLOCK_CELLS` is the one table
of the cells each block reads, and so of which rounds and bits feed each
key: flagged blocks gate on all three flags reading 0 (ab_t0) or 1
(ac_t1) and compare the values, parallel blocks (pair_ab, pair_ac)
compare the first or the second bits. Term (x, w, a, b) of a block, with
x Alice's input, w the partner's and a, b the two bits compared, carries
the CHSH sign (-1)^(a + b + x*w). Its readers: BELL_FUNCTIONALS[kind].coeffs,
a (2, *TABLE_SHAPE) tensor whose slice k holds block k's coefficient on
every cell (the values, bell_value_stderr and local_bound_bruteforce
contract it); the branch masses of `_branch_masses`, which flag_stats
checks and bell_value reads; protocol's route tables;
rates.conditional_entropy_classical; and the branches of checks. Cells
with disagreeing flags carry no coefficient, so that mass can only lower
the value.

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
from .strategies import Strategy

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
_N_CELLS = math.prod(TABLE_SHAPE)
# Cells counted per bincount call, which copies cells of a narrower type
# than intp: 512 KB at a time.
_COUNT_ROWS = 1 << 16

# Per kind and block, the table cells read by CHSH term (x, w, a, b) at
# spectator input s, one entry per table axis: a term letter, a fixed
# index, or ":" to sum out. The partner's input axis "w" is its party
# index, the fixed indices are the flags the block gates on, and the "a"
# and "b" axes hold Alice's and the partner's key bit.
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
# Per kind, pair ("ab", "ac") -> its block's cells; per flagged branch t,
# the cells of the block that gates Alice's flag (axis 4) on t.
_PAIR_CELLS = {kind: {"a" + "abc"[c.index("w")]: c for c in blocks.values()} for kind, blocks in _BLOCK_CELLS.items()}
_BRANCH_CELLS = {cells[4]: cells for cells in _BLOCK_CELLS["flagged"].values()}


def _gate(cells: tuple) -> tuple:
    """A block's index on the outcome axes (a, ta, b, tb, c, tc): its
    fixed flags, every other axis whole."""
    return tuple(v if isinstance(v, int) else slice(None) for v in cells[3:])


def _pair_joint(table: np.ndarray, cells: tuple) -> np.ndarray:
    """p(a, b | x, y, z) on a block's cells: a (2, 3, 3, 2, 2) array over
    the inputs and Alice's and the partner's key bit, the block's other
    bits summed out."""
    kept = [v for v in cells[3:] if not isinstance(v, int)]
    return table[(..., *_gate(cells))].sum(axis=tuple(3 + i for i, v in enumerate(kept) if v == ":"))


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
        marg_a = t.sum(axis=(5, 6, 7, 8))          # x,y,z,a,ta
        marg_b = t.sum(axis=(3, 4, 7, 8))          # x,y,z,b,tb
        marg_c = t.sum(axis=(3, 4, 5, 6))          # x,y,z,c,tc
        # np.max, unlike the builtin, keeps a NaN drift.
        drifts = (np.ptp(marg_a, axis=(1, 2)), np.ptp(marg_b, axis=(0, 2)), np.ptp(marg_c, axis=(0, 1)))
        return float(np.max([drift.max() for drift in drifts]))

    def validate(self) -> "Behavior":
        # Each bound is written so that a NaN fails it.
        lo, hi = float(self.table.min()), float(self.table.max())
        if not (lo >= -1e-12 and hi <= 1.0 + 1e-12):
            raise ValueError(f"behavior entries outside [0, 1]: min {lo}, max {hi}")
        dn = self.normalization_deviation()
        if not dn <= 1e-10:
            raise ValueError(f"behavior not normalized (max deviation {dn:.3e})")
        ds = self.no_signalling_deviation()
        if not ds <= 1e-9:
            raise ValueError(f"behavior signals (max marginal drift {ds:.3e})")
        return self


@dataclass(frozen=True)
class FlagStats:
    """Flag branch weights and the probability all three flags agree."""

    p0: float
    p1: float
    agreement_prob: float

    def __post_init__(self):
        # Written so that a NaN weight fails it.
        if not self.p0 + self.p1 <= 1.0 + 1e-10:
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
    """Born-rule behavior of a strategy, validated.

    p(alpha, beta, gamma | x, y, z) = Tr[rho (A (x) B (x) C)] for every
    input triple at once: one contraction of the state with each party's
    effects stacked as (inputs, outcomes, d, d).
    """
    da, db, dc = strategy.party_dims
    rho = strategy.state.reshape(da, db, dc, da, db, dc)
    alice, bob, carole = strategy.effects
    p = np.einsum("abcdef,xida,yjeb,zkfc->xyzijk", rho, alice, bob, carole, optimize=True)
    return Behavior(np.ascontiguousarray(p.real).reshape(TABLE_SHAPE)).validate()


def _branch_masses(table: np.ndarray) -> np.ndarray:
    """Per input triple and flagged branch t, the mass of the cells of the
    block that gates on t: a (2, 3, 3, 2) array."""
    return np.stack([table[(..., *_gate(cells))].sum(axis=(3, 4, 5)) for cells in _BRANCH_CELLS.values()], axis=-1)


def flag_stats(behavior: Behavior) -> FlagStats:
    """Branch weights read at inputs (0,0,0) after an input-independence check.

    Raises when the all-flags-agree mass or any single-party flag
    marginal drifts with the inputs beyond 1e-9, or is NaN: flags that
    signal have no well-defined branch weights.
    """
    t = behavior.table
    agree = _branch_masses(t)
    agreement = agree.sum(axis=-1)
    # Each bound is written so that a NaN fails it.
    if not float(np.ptp(agreement)) <= 1e-9:
        raise ValueError(f"flag agreement probability varies with inputs by {np.ptp(agreement):.3e}")
    flag_a = t.sum(axis=(3, 5, 6, 7, 8))  # x,y,z,ta
    flag_b = t.sum(axis=(3, 4, 5, 7, 8))
    flag_c = t.sum(axis=(3, 4, 5, 6, 7))
    for name, marg in (("Alice", flag_a), ("Bob", flag_b), ("Carole", flag_c)):
        if not float(np.ptp(marg, axis=(0, 1, 2)).max()) <= 1e-9:
            raise ValueError(f"{name} flag marginal depends on the inputs beyond 1e-9")
    return FlagStats(
        p0=float(agree[0, 0, 0, 0]),
        p1=float(agree[0, 0, 0, 1]),
        agreement_prob=float(agreement[0, 0, 0]),
    )


def bell_value(behavior: Behavior) -> BellReport:
    """Evaluate both flag-gated CHSH blocks of the Bell functional.

    Branch weights for normalization are `flag_stats`' masses at inputs
    (0,0,0), read unchecked; a vanishing weight leaves that normalized
    entry undefined (None).
    """
    ab, ac = BELL_FUNCTIONALS["flagged"].block_values(behavior.table).tolist()
    p0, p1 = _branch_masses(behavior.table)[0, 0, 0].tolist()
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


def estimate_behavior(cells: np.ndarray) -> BehaviorEstimate:
    """Empirical conditional frequencies of sampled rounds.

    `cells` is a 1-D integer array of each round's cell: its flat index in
    a C-ordered TABLE_SHAPE table, row @ CELL_WEIGHTS for the round's
    columns (x, y, z, a, ta, b, tb, c, tc). The cells are counted
    _COUNT_ROWS at a time. Cells of input triples that never occur are
    left at zero and the triple is reported in missing_inputs.
    """
    if not np.issubdtype(cells.dtype, np.integer) or cells.ndim != 1:
        raise ValueError(f"cells must be a 1-D integer array, got {cells.dtype} of shape {cells.shape}")
    if len(cells) and (cells.min() < 0 or cells.max() >= _N_CELLS):
        raise ValueError(f"cells must lie in [0, {_N_CELLS})")
    counts = np.zeros(_N_CELLS, dtype=np.int64)
    for start in range(0, len(cells), _COUNT_ROWS):
        counts += np.bincount(cells[start : start + _COUNT_ROWS], minlength=_N_CELLS)
    counts = counts.reshape(TABLE_SHAPE)
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


# Key of each input triple and of each outcome in behavior JSON, mapped to
# its offset in a flattened TABLE_SHAPE table.
_CELL_SIZE = math.prod(TABLE_SHAPE[3:])
_TRIPLE_OFFSETS = {",".join(map(str, k)): _CELL_SIZE * i for i, k in enumerate(np.ndindex(TABLE_SHAPE[:3]))}
_OUTCOME_OFFSETS = {" ".join(map(str, k)): i for i, k in enumerate(np.ndindex(TABLE_SHAPE[3:]))}


def _json_default(value):
    """The `default` hook of json.dumps for the result and report documents:
    a numpy scalar as its Python value, anything else as its repr."""
    return value.item() if isinstance(value, np.generic) else repr(value)


def behavior_to_json(behavior: Behavior) -> str:
    """The table as an object keyed by input triple 'x,y,z', each an object
    keyed by outcome 'a ta b tb c tc', both in C order."""
    flat = behavior.table.ravel().tolist()
    doc = {
        triple: {key: flat[base + offset] for key, offset in _OUTCOME_OFFSETS.items()}
        for triple, base in _TRIPLE_OFFSETS.items()
    }
    return json.dumps(doc)


def behavior_from_json(text: str) -> Behavior:
    """Inverse of `behavior_to_json`. Absent cells are zero; a key that is
    not one `behavior_to_json` writes, or a table that `Behavior.validate`
    rejects, raises ValueError."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("behavior JSON must be an object keyed by input triple 'x,y,z'")
    flat = [0.0] * math.prod(TABLE_SHAPE)
    for triple, cell in doc.items():
        base = _TRIPLE_OFFSETS.get(triple)
        if base is None:
            raise ValueError(f"behavior JSON: {triple!r} is not an input triple 'x,y,z' (x in 0..1, y and z in 0..2)")
        if not isinstance(cell, dict):
            raise ValueError(f"behavior JSON: cell {triple!r} must be an object keyed by outcome")
        for key, p in cell.items():
            offset = _OUTCOME_OFFSETS.get(key)
            if offset is None:
                raise ValueError(f"behavior JSON: {key!r} in cell {triple!r} is not an outcome 'a ta b tb c tc' of six bits")
            # float() would read false as 0.0 and "0.5" as 0.5; json gives
            # every number as an int or a float, and true as a bool.
            if not isinstance(p, float) and type(p) is not int:
                raise ValueError(f"behavior JSON: probability {p!r} at {triple!r} {key!r} is not a number")
            flat[base + offset] = p
    return Behavior(np.array(flat).reshape(TABLE_SHAPE)).validate()
