"""Simulation of the conference key agreement protocol.

One run proceeds in seven steps:

  1. the source distributes a fresh share of the strategy state; every
     party stores it before anything about the round is decided
  2. Alice announces the round type (test with probability gamma);
     parties pick inputs, uniformly from the first two settings on test
     rounds and the fixed generation settings otherwise
  3. parties measure; each measurement device sees only its input and
     the shared state handle, never the round type
  4. flags are announced; the run aborts if they differ anywhere
     (FlagMismatch) or if the common string is constant (FlagConstant).
     check_flag_agreement counts the rounds per flag class from the
     codes' histogram and scans the codes only for a first mismatch
  5. test-round data is announced, the Bell value estimated from the
     histogram's test half and compared against the threshold
     (BellBelowThreshold on failure)
  6. generation rounds are sifted, once, into the Alice-Bob key (the
     rounds the flag-0 block gates) and the Alice-Carole key (flag 1);
     optionally a fraction of each sifted key is sampled, compared in
     public and dropped (AlignmentFailure below the floor)
  7. Alice announces the XOR of her two sifted keys so Carole can
     recover the Alice-Bob string as the conference key

All announcements are deferred to after the last round, so devices can
gain nothing from the public transcript. The rounds are iid, so a
round's code has one law, p_code over the 2304 codes (`_p_code`): the
test half is gamma/8 times the strategy's table p(outcomes | x, y, z)
on the eight test input triples, the generation half 1 - gamma times it
at GENERATION_INPUTS, and every other cell, and every cell at or below
_P_CUTOFF, is 0. Steps 1-3 draw each round's code from p_code with one
uniform, default_rng(seed).random(n_rounds), drawn BLOCK_ROWS at a time
(the generator fills in stream order, so the codes do not depend on the
block size), by the inverse CDF: the positive cells in ascending code
order, their cumulative masses normalised and the last edge set above
1, and the round's code the cell whose index is the number of edges at
or below its uniform. A guide table (Chen & Asau 1974) starts each
draw at its bucket's first candidate cell (`_sampler`, `_draw_codes`).

The two device backends differ only in how they build the table:
`table` reads it off the exact behavior, `collapse` as the leaf masses
of a walk over the measurement prefixes by projective collapse of the
strategy state. Their tables agree to rounding, so they agree draw for
draw: a draw changes only if it lies within their difference of an
edge, and a zero cell is never listed. Post-round sampling (the
alignment spot check, Alice-Bob pair before Alice-Carole) uses the
stream default_rng([seed, 1]), so it is insensitive to how the
transcript was produced or restored. Two runs with the same config are
bit-identical.

A transcript stores each round as one uint16 code, the flat index of its
(round type, row) cell: row @ CELL_WEIGHTS + 1152 * test, one of 2304
slots. Every step after sampling reads a round only through its code:
the flags and key bits are per-COLUMNS tables over the slots; steps 4
and 5 read the codes' histogram, made once per postprocess call, step 4
through a table of each slot's flag class (t when all three flags read
t, 2 when they differ) and step 5 through its test half, the
test rounds' cell counts; each strategy kind's routing is a table per
pair of the slots that feed the pair's key, read off the pair's block in
bell._BLOCK_CELLS (the one table of which rounds and bits feed each key;
its readers are listed in bell); and the JSONL writer copies each code's
line bytes from one table.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .bell import (
    BELL_FUNCTIONALS,
    CELL_WEIGHTS,
    GENERATION_INPUTS,
    TABLE_SHAPE,
    _PAIR_CELLS,
    _json_default,
    bell_value_stderr,
    estimate_behavior,
)
from .qops import born_rows
from .strategies import N_INPUTS, OUTCOME_LABELS, _HONEST_BUILDERS, NoiseParams, Strategy

__all__ = [
    "ABORT_REASONS",
    "PARTY_NAMES",
    "ProtocolConfig",
    "Message",
    "Transcript",
    "AlignmentResult",
    "ProtocolResult",
    "run_rounds",
    "postprocess",
    "run_protocol",
    "check_flag_agreement",
    "sift_pair_keys",
    "xor_reconcile",
    "alignment_test",
    "apply_tamper",
    "config_to_json",
    "config_from_json",
    "transcript_to_jsonl",
    "write_transcript_jsonl",
    "result_to_json",
]

PARTY_NAMES = ("alice", "bob", "carole")
ABORT_REASONS = ("FlagMismatch", "FlagConstant", "BellBelowThreshold", "AlignmentFailure")
# A round's row: inputs, then (value, flag) per party.
COLUMNS = ("x", "y", "z", "a", "ta", "b", "tb", "c", "tc")
_ROUND_TYPES = ("generation", "test")
# Rounds drawn, sampled and selected per block, and JSONL lines rendered
# per block, so that a run's temporaries are bounded by a block whatever
# the number of rounds. A JSONL block's three buffers, about 100 KB each,
# stay below glibc's default 128 KB mmap threshold, so the heap reuses
# them; at 4096 lines each is mapped and faulted in afresh, which cost
# up to 40% of the writer's time.
BLOCK_ROWS = 1 << 12
_JSONL_ROWS = 1 << 10
# A code law's cell at or below this is zero (`_p_code`).
_P_CUTOFF = 1e-15
# The guide table's buckets over [0, 1), a power of two so that a draw's
# bucket is exact, and the forward steps a draw takes from its bucket's
# start before the searchsorted fallback (`_draw_codes`).
_GUIDE_BUCKETS = 1 << 12
_GUIDE_STEPS = 2
# A round's code is the flat index of its (round type, row) cell in a
# C-ordered _CODE_SHAPE array: row @ CELL_WEIGHTS + test * _TEST_WEIGHT.
_CODE_SHAPE = (2, *TABLE_SHAPE)
_N_CODES = math.prod(_CODE_SHAPE)
_TEST_WEIGHT = _N_CODES // 2
# The COLUMNS row of each cell of a C-ordered TABLE_SHAPE table, the inverse
# of row @ CELL_WEIGHTS, and the cell weights of Alice's, Bob's and
# Carole's flags.
_CELL_ROWS = np.ascontiguousarray(np.indices(TABLE_SHAPE, dtype=np.int8).reshape(len(TABLE_SHAPE), -1).T)
_FLAG_WEIGHTS = CELL_WEIGHTS[COLUMNS.index("ta") :: 2]
# Per COLUMNS entry, its value in every code: (9, _N_CODES) uint8.
_CODE_COLUMNS = np.ascontiguousarray(np.tile(_CELL_ROWS, (2, 1)).T.view(np.uint8))
# Per party, the COLUMNS of its input, value and flag.
_PARTY_COLUMNS = ((0, 3, 4), (1, 5, 6), (2, 7, 8))
# Per code, Alice's, Bob's and Carole's flags; its flag class (uint8): t
# when all three read t, 2 when they differ; and whether they differ.
_CODE_FLAGS = _CODE_COLUMNS[COLUMNS.index("ta") :: 2]
_FLAG_CLASS = np.where((_CODE_FLAGS == _CODE_FLAGS[0]).all(axis=0), _CODE_FLAGS[0], 2).astype(np.uint8)
_MISMATCHED = _FLAG_CLASS == 2


def _route_tables(cells: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Per code: whether the round feeds the key of a block's pair (bool),
    and Alice's and the partner's key bits packed as alice << 1 | partner
    (uint8). A generation round feeds it if every flag the block fixes has
    the block's value: the table marks exactly the block's generation
    cells."""
    feeds = np.arange(_N_CODES) < _TEST_WEIGHT
    for column, value in zip(_CODE_COLUMNS, cells):
        if isinstance(value, int):
            feeds &= column == value
    return feeds, _CODE_COLUMNS[cells.index("a")] << 1 | _CODE_COLUMNS[cells.index("b")]


_ROUTE_TABLES = {kind: {pair: _route_tables(cells) for pair, cells in pairs.items()} for kind, pairs in _PAIR_CELLS.items()}


@dataclass(frozen=True)
class ProtocolConfig:
    n_rounds: int = 1000
    gamma: float = 0.2
    # None: q*(1 - 10/sqrt(n_test)), q the kind's quantum maximum (2*sqrt(2)
    # flagged, 4*sqrt(2) parallel), clamped to [local bound, q].
    bell_threshold: float | None = None
    alignment_fraction: float = 0.0
    alignment_floor: float = 0.98
    seed: int = 0
    strategy_kind: str = "flagged"
    visibility: float = 1.0
    backend: str = "table"

    def __post_init__(self):
        if self.n_rounds < 1:
            raise ValueError(f"n_rounds must be positive, got {self.n_rounds}")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.strategy_kind not in _HONEST_BUILDERS:
            raise ValueError(f"unknown strategy kind {self.strategy_kind!r}")
        if self.bell_threshold is not None:
            functional = BELL_FUNCTIONALS[self.strategy_kind]
            lo, hi = functional.local_bound, functional.quantum_max
            if not lo - 1e-12 <= self.bell_threshold <= hi + 1e-9:
                raise ValueError(f"bell_threshold must lie in [{lo}, {hi:.6f}], got {self.bell_threshold}")
        if not 0.0 <= self.alignment_fraction < 1.0:
            raise ValueError(f"alignment_fraction must be in [0, 1), got {self.alignment_fraction}")
        if not 0.0 < self.alignment_floor <= 1.0:
            raise ValueError(f"alignment_floor must be in (0, 1], got {self.alignment_floor}")
        if not 0.0 <= self.visibility <= 1.0:
            raise ValueError(f"visibility must be in [0, 1], got {self.visibility}")
        if self.backend not in _BACKENDS:
            raise ValueError(f"backend must be {' or '.join(map(repr, _BACKENDS))}, got {self.backend!r}")


@dataclass(frozen=True, slots=True)
class Message:
    sender: str
    kind: str
    payload: object


class Transcript:
    """A run's public record: one code per round, and the announcements.

    `codes` (N,) uint16 holds each round's code, row @ CELL_WEIGHTS +
    test * 1152 with `row` the round's nine COLUMNS values and `test` its
    round type: the flat index of its cell in a C-ordered _CODE_SHAPE
    array, one of 2304 slots. Every later step reads a round through
    tables over these slots, so a code at or above 2304 is rejected here.
    `announcements` collects the messages of steps 4-7, all made after
    the last round; the flag and test-data announcements hold `codes`
    itself and the COLUMNS they announce, not copies.
    """

    def __init__(self, strategy_kind: str, codes: np.ndarray):
        if codes.dtype != np.uint16 or codes.ndim != 1:
            raise ValueError(f"codes must be a 1-D uint16 array, got {codes.dtype} of shape {codes.shape}")
        if len(codes) and codes.max() >= _N_CODES:
            raise ValueError(f"codes must lie below {_N_CODES}, got {codes.max()}")
        self.strategy_kind = strategy_kind
        self.codes = codes
        self.announcements: list[Message] = []


@dataclass(frozen=True)
class AlignmentResult:
    ok: bool
    match_rates: dict
    kept: dict                                # pair -> keys without the sampled bits


@dataclass(frozen=True)
class ProtocolResult:
    outcome: str                              # "completed" | "aborted"
    abort_reason: str | None
    keys: dict                                # party -> '0'/'1' string
    k_xor: str
    stats: dict


def _p_code(table: np.ndarray, gamma: float) -> np.ndarray:
    """The law of a round's code: (2304,) masses over the _CODE_SHAPE cells.

    `table` is p(outcomes | x, y, z), of TABLE_SHAPE. A test round
    (probability gamma) draws each of the eight input triples below 2
    with probability 1/8, a generation round the inputs GENERATION_INPUTS,
    so the test half is gamma/8 times the table on those eight triples and
    the generation half 1 - gamma times the table at GENERATION_INPUTS.
    Every other cell is 0, and so is every cell at or below _P_CUTOFF: the
    one rule on what a round can be, whichever backend gave the table.
    """
    law = np.zeros(_CODE_SHAPE)
    law[(0, *GENERATION_INPUTS)] = (1.0 - gamma) * table[GENERATION_INPUTS]
    law[1, :2, :2, :2] = gamma / 8.0 * table[:2, :2, :2]
    law[law <= _P_CUTOFF] = 0.0
    return law.ravel()


def _sampler(law: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The guide-table inverse CDF of a code law (Chen & Asau, AIIE Trans.
    6(2), 1974): (edges, guide, cells).

    `cells` lists the positive cells in ascending code order, as uint16
    codes, and `edges` their cumulative masses, normalised, with the last
    edge set to 2 so that no draw below 1 passes it. A draw u takes the
    cell whose index is the number of edges at or below u, so a zero cell,
    never listed, is never drawn, and a draw exactly at an edge takes the
    next cell. `guide` holds that number at each of the _GUIDE_BUCKETS
    bucket starts j / _GUIDE_BUCKETS, where a draw of bucket j starts.
    Not Walker's alias method: its pairing branches on comparisons with 1,
    so a last-bit difference between the backends' laws could pair other
    cells and change many draws, where here a draw changes only if it lies
    within that difference of an edge.
    """
    cells = np.flatnonzero(law).astype(np.uint16)
    edges = np.cumsum(law[cells])
    edges /= edges[-1]
    edges[-1] = 2.0
    guide = np.searchsorted(edges, np.arange(_GUIDE_BUCKETS) / _GUIDE_BUCKETS, side="right")
    return edges, guide, cells


def _draw_codes(sampler, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each draw's code, as `_sampler` says, written to the uint16 `out`.

    A draw starts at its bucket's guide entry, which u * _GUIDE_BUCKETS
    gives exactly since the bucket count is a power of two, and takes
    _GUIDE_STEPS forward steps past the edges at or below it; the few
    draws still short of their cell then take np.searchsorted's count.
    """
    edges, guide, cells = sampler
    index = guide.take((u * _GUIDE_BUCKETS).astype(np.intp))
    for _ in range(_GUIDE_STEPS):
        index += edges.take(index) <= u
    short = np.flatnonzero(edges.take(index) <= u)
    if len(short):
        index[short] = np.searchsorted(edges, u[short], side="right")
    return cells.take(index, out=out)


def _behavior_table(strategy: Strategy) -> np.ndarray:
    """p(outcomes | x, y, z) of TABLE_SHAPE, read off the exact behavior."""
    from .bell import behavior_from_strategy

    return behavior_from_strategy(strategy).table


def _collapse_table(strategy: Strategy) -> np.ndarray:
    """`_behavior_table`'s table, by explicit projective collapse.

    The state a party measures depends only on the inputs and outcomes of
    the parties before it: the prefix (x) for Alice, (x, oa, y) for Bob and
    (x, oa, y, ob, z) for Carole. The prefixes are built one party at a
    time. A level holds, per followed prefix, the reduced state of the
    parties still to measure and its probability given the inputs; the
    Born distribution of every (prefix, input) pair, each of the party's
    inputs after each prefix, is one `born_rows` call on the prefix's
    local state. Alice measures Tr_BC rho; her outcome, of projector P,
    leaves rho_BC proportional to Tr_A[(P (x) I) rho], which is Tr_A of
    the collapsed state (P (x) I) rho (P (x) I) since P^2 = P. Bob
    measures Tr_C rho_BC and leaves Carole Tr_B[(P (x) I) rho_BC]. Each
    reduced state is normalised by its own trace, and only prefixes whose
    probability is above _P_CUTOFF are followed: a cell after any other
    prefix has at most its probability, which `_p_code` zeroes anyway, so
    it stays zero here. The table holds the leaves' probabilities, the
    product of the Born probabilities along each. The effects are the
    strategy's own stacks, checked complete when it was built.
    """
    rhos, rows, masses = strategy.state[None], np.zeros(1, dtype=np.intp), np.ones(1)
    for party, (d, stack) in enumerate(zip(strategy.party_dims, strategy.effects)):
        rhos = rhos.reshape(len(rhos), d, rhos.shape[1] // d, d, -1)
        # Every (prefix, input) pair of the level, and its row.
        prefix, x = np.divmod(np.arange(len(rows) * N_INPUTS[party]), N_INPUTS[party])
        rows = rows[prefix] * N_INPUTS[party] + x
        # Each prefix extended by an input and an outcome: its probability
        # given the inputs.
        joint = masses[prefix, None] * born_rows(np.einsum("nijkj->nik", rhos)[prefix], stack[x], OUTCOME_LABELS)
        if party < 2:
            pair, o = np.nonzero(joint > _P_CUTOFF)
            # Contracted for every (input, outcome, prefix) in one BLAS product
            # and then picked, so that no prefix's state is copied once per
            # followed outcome.
            reduced = np.tensordot(stack, rhos, axes=([2, 3], [3, 1]))[x[pair], o, prefix[pair]]
            rhos = reduced / np.trace(reduced, axis1=1, axis2=2).real[:, None, None]
            rows, masses = rows[pair] * 4 + o, joint[pair, o]
    # Leaves by (x, oa, y, ob, z, oc), reordered to TABLE_SHAPE's (x, y, z, oa, ob, oc).
    leaves = np.zeros((N_INPUTS[0], 4, N_INPUTS[1], 4, N_INPUTS[2], 4))
    leaves.reshape(-1, 4)[rows] = joint
    return leaves.transpose(0, 2, 4, 1, 3, 5).reshape(TABLE_SHAPE)


# Each device backend and its builder of p(outcomes | x, y, z).
_BACKENDS = {"table": _behavior_table, "collapse": _collapse_table}


def _build_strategy(config: ProtocolConfig) -> Strategy:
    return _HONEST_BUILDERS[config.strategy_kind](NoiseParams(visibility=config.visibility))


def run_rounds(config: ProtocolConfig, strategy: Strategy | None = None) -> Transcript:
    """Steps 1-3: distribute, announce round type, choose inputs, measure.

    The backend builds the strategy's table once, and `_p_code` and
    `_sampler` make its code law's sampler; each block of BLOCK_ROWS
    rounds then draws one uniform per round and stores each round's code.
    Announcements of flags and test data happen in postprocess.
    """
    strategy = _build_strategy(config) if strategy is None else strategy
    if strategy.kind != config.strategy_kind:
        raise ValueError(f"strategy kind {strategy.kind!r} does not match config {config.strategy_kind!r}")
    n = config.n_rounds
    rng = np.random.default_rng(config.seed)
    codes = np.empty(n, dtype=np.uint16)
    sampler = _sampler(_p_code(_BACKENDS[config.backend](strategy), config.gamma))
    uniforms = np.empty(min(n, BLOCK_ROWS))
    for start in range(0, n, BLOCK_ROWS):
        block = codes[start : start + BLOCK_ROWS]
        u = uniforms[: len(block)]
        rng.random(out=u)
        _draw_codes(sampler, u, block)
    return Transcript(strategy.kind, codes)


def _bit_string(bits: np.ndarray) -> str:
    """The '0'/'1' text of a bit array, as the completed result holds it."""
    return (bits | 48).tobytes().decode("ascii")


def _code_counts(codes: np.ndarray) -> np.ndarray:
    """(2304,) int64: the number of rounds of each code. bincount copies
    the codes to intp, so it counts BLOCK_ROWS of them at a time."""
    counts = np.zeros(_N_CODES, dtype=np.int64)
    for start in range(0, len(codes), BLOCK_ROWS):
        counts += np.bincount(codes[start : start + BLOCK_ROWS], minlength=_N_CODES)
    return counts


def check_flag_agreement(codes: np.ndarray, counts: np.ndarray) -> tuple[str, dict]:
    """Step 4 on a flagged run's codes: the verdict, 'ok', 'FlagMismatch'
    or 'FlagConstant', and its stats.

    The rounds are counted by flag class from `counts`, the codes'
    histogram as `_code_counts(codes)` gives it. Any round whose three
    flags differ is a mismatch: the stats name the first, which only this
    abort path scans the codes for, the parties off its majority flag,
    and the number of such rounds. Flags that agree everywhere on one
    value mean the source never alternated, and the run aborts too;
    otherwise the stats hold the branch weights, None when there are no
    rounds.
    """
    # Float sums, exact for counts below 2**53.
    n, (n0, n1, mismatches) = len(codes), map(int, np.bincount(_FLAG_CLASS, weights=counts, minlength=3))
    if mismatches:
        for start in range(0, n, BLOCK_ROWS):
            mismatched = _MISMATCHED.take(codes[start : start + BLOCK_ROWS])
            if mismatched.any():
                first = start + int(np.argmax(mismatched))
                break
        flags = _CODE_FLAGS[:, codes[first]]
        majority = int(flags.sum() > 1)
        return "FlagMismatch", {
            "flag_mismatch_round": first,
            "flag_mismatch_parties": [name for name, f in zip(PARTY_NAMES, flags) if f != majority],
            "flag_mismatch_count": mismatches,
        }
    if n and n0 in (0, n):
        return "FlagConstant", {"flag_constant_value": int(n1 == n)}
    return "ok", {"p_t0_estimate": n0 / n if n else None, "p_t1_estimate": n1 / n if n else None}


def _bell_score(estimate, kind: str) -> tuple[float, dict]:
    """Step-5 Bell value of a strategy kind's test data, and its stats."""
    functional = BELL_FUNCTIONALS[kind]
    blocks = functional.block_values(estimate.behavior.table).tolist()
    return sum(blocks), {
        "bell_stderr": bell_value_stderr(estimate, kind),
        "bell_branches": dict(zip(functional.blocks, blocks)),
    }


def _select(codes: np.ndarray, keep) -> np.ndarray:
    """The codes the bool masks `keep(block)` mark, BLOCK_ROWS rounds at a
    time. Unlike a boolean index, compress does not branch on every round,
    and neither a mask nor compress's index array spans more than a block."""
    blocks = (codes[s : s + BLOCK_ROWS] for s in range(0, len(codes), BLOCK_ROWS))
    return np.concatenate([codes[:0], *(np.compress(keep(block), block) for block in blocks)])


def sift_pair_keys(transcript: Transcript) -> dict:
    """Step-6 sifting into the two pairwise raw keys.

    The one selection of each pair's rounds: rounds and key bits follow
    the strategy kind's routing tables. Flagged strategies route a
    generation round by its flags, Alice-Bob when all three read 0,
    Alice-Carole when all read 1; the two-pair strategy has no flags and
    every generation round feeds both keys, first output bits for
    Alice-Bob, second bits for Alice-Carole. Returns pair -> (Alice's
    bits, the partner's bits), "ab" then "ac", as uint8 arrays of 0/1.
    """
    keys = {}
    for pair, (feeds, bits) in _ROUTE_TABLES[transcript.strategy_kind].items():
        # One gather per pair. A fancy index reads the uint16 codes as they
        # are, where take would first copy them to intp. The low bit is the
        # partner's; shifting in place leaves Alice's.
        alice = bits[_select(transcript.codes, feeds.take)]
        partner = alice & 1
        alice >>= 1
        keys[pair] = alice, partner
    return keys


def xor_reconcile(k_ab: np.ndarray, k_ac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Step-7 announcement: truncate the two bit arrays to the shorter, XOR them.

    Returns (k_xor, k_cka) where k_cka is the truncated Alice-Bob key;
    anyone holding the Alice-Carole key recovers k_cka as
    k_xor ^ k_ac. Two empty keys give two empty arrays.
    """
    m = min(len(k_ab), len(k_ac))
    return k_ab[:m] ^ k_ac[:m], k_ab[:m]


def alignment_test(keys: dict, fraction: float, floor: float, rng) -> AlignmentResult:
    """Optional spot check on the sifted keys, before the XOR.

    For each pair of `keys`, pair -> (Alice's bits, the partner's bits),
    ceil(fraction * n_pair) positions of the pair's key are sampled (in
    the mapping's order, Alice-Bob first, consuming draws in that order),
    Alice's and the partner's bits there compared in public, and the
    sampled bits dropped from both keys. The result holds the kept keys
    in the same mapping; a pair with nothing sampled, as every pair at
    fraction 0, keeps its arrays themselves and draws nothing.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must be in [0, 1), got {fraction}")
    rates, kept = dict.fromkeys(keys), {}
    for pair, (alice, partner) in keys.items():
        k = math.ceil(fraction * len(alice))
        if k:
            sampled = rng.choice(len(alice), size=k, replace=False)
            rates[pair] = int(np.count_nonzero(alice[sampled] == partner[sampled])) / k
            keep = np.ones(len(alice), dtype=bool)
            keep[sampled] = False
            alice, partner = alice[keep], partner[keep]
            # Freed before the next pair's mask is made.
            del keep
        kept[pair] = alice, partner
    ok = all(rate >= floor for rate in rates.values() if rate is not None)
    return AlignmentResult(ok=ok, match_rates=rates, kept=kept)


def _default_threshold(kind: str, n_test: int) -> float:
    functional = BELL_FUNCTIONALS[kind]
    lo, hi = functional.local_bound, functional.quantum_max
    if n_test <= 0:
        return hi
    return min(max(hi * (1.0 - 10.0 / math.sqrt(n_test)), lo), hi)


def postprocess(transcript: Transcript, config: ProtocolConfig) -> ProtocolResult:
    """Steps 4-7 on a finished transcript: announcements, checks, keys."""
    codes = transcript.codes
    # Steps 4 and 5 read the rounds only through the codes' histogram; its
    # test half counts the test rounds' cells, their announced data.
    counts = _code_counts(codes)
    test_counts = counts[_TEST_WEIGHT:]
    n_test = int(test_counts.sum())
    stats = {
        "n_rounds": len(codes),
        "n_test": n_test,
        "n_gen": len(codes) - n_test,
        "strategy_kind": transcript.strategy_kind,
        "backend": config.backend,
    }
    # This call's record replaces any earlier call's.
    transcript.announcements = []
    announce = transcript.announcements.append

    def aborted(reason):
        announce(Message("alice", "AbortNotice", reason))
        return ProtocolResult(outcome="aborted", abort_reason=reason, keys={}, k_xor="", stats=stats)

    if transcript.strategy_kind == "flagged":
        for name, columns in zip(PARTY_NAMES, _PARTY_COLUMNS):
            announce(Message(name, "FlagAnnounce", (codes, columns[2])))
        verdict, flag_stats = check_flag_agreement(codes, counts)
        stats.update(flag_stats)
        if verdict != "ok":
            return aborted(verdict)

    for name, columns in zip(PARTY_NAMES, _PARTY_COLUMNS):
        # The codes, and the party's input, value and flag columns of the test rounds.
        announce(Message(name, "TestDataAnnounce", (codes, columns)))
    estimate = estimate_behavior(test_counts.reshape(TABLE_SHAPE))
    observed, bell_stats = _bell_score(estimate, transcript.strategy_kind)
    stats.update(bell_stats)
    threshold = config.bell_threshold
    if threshold is None:
        threshold = _default_threshold(transcript.strategy_kind, n_test)
    stats["bell_estimate"] = observed
    stats["bell_threshold"] = threshold
    stderr = stats["bell_stderr"]
    stats["bell_margin_stderr"] = (observed - threshold) / stderr if 0.0 < stderr < math.inf else None
    stats["missing_test_inputs"] = [t for t in estimate.missing_inputs if all(v < 2 for v in t)]
    if observed < threshold:
        return aborted("BellBelowThreshold")

    rng = np.random.default_rng([config.seed, 1])  # derived post-round stream
    alignment = alignment_test(sift_pair_keys(transcript), config.alignment_fraction, config.alignment_floor, rng)
    stats["alignment_match_rates"] = alignment.match_rates
    if not alignment.ok:
        return aborted("AlignmentFailure")

    kept = alignment.kept
    lengths = {pair: len(alice) for pair, (alice, _) in kept.items()}
    mismatches = {pair: int(np.count_nonzero(alice != partner)) for pair, (alice, partner) in kept.items()}
    mismatch_rates = {pair: count / lengths[pair] if lengths[pair] else None for pair, count in mismatches.items()}
    for name, per_pair in (("len", lengths), ("mismatch", mismatches), ("mismatch_rate", mismatch_rates)):
        stats.update({f"{name}_{pair}": value for pair, value in per_pair.items()})
    (alice_ab, bob_ab), (alice_ac, carole_ac) = kept["ab"], kept["ac"]
    k_xor, k_cka = xor_reconcile(alice_ab, alice_ac)
    m = len(k_cka)
    # Carole recovers the conference key from the announced XOR and her Alice-Carole key.
    bits = {"alice": k_cka, "bob": bob_ab[:m], "carole": k_xor ^ carole_ac[:m]}
    keys = {party: _bit_string(b) for party, b in bits.items()}
    k_xor = _bit_string(k_xor)
    announce(Message("alice", "XorAnnounce", k_xor))
    stats["key_length"] = m
    stats["sifted_rate"] = m / stats["n_gen"] if stats["n_gen"] else None
    return ProtocolResult(outcome="completed", abort_reason=None, keys=keys, k_xor=k_xor, stats=stats)


def run_protocol(config: ProtocolConfig, strategy: Strategy | None = None) -> tuple[ProtocolResult, Transcript]:
    """Run all seven steps; returns the result and the full transcript."""
    transcript = run_rounds(config, strategy)
    return postprocess(transcript, config), transcript


def apply_tamper(transcript: Transcript, spec: str, rng) -> Transcript:
    """Transcript-level fault injection, applied before postprocessing.

    'flag-flip:RATE' flips Bob's flag bit in ceil(RATE * n) distinct
    random rounds; 'flag-constant:T' rewrites every party's flag to T.
    Only meaningful for flagged strategies. Returns a new transcript and
    leaves `transcript` untouched.
    """
    if transcript.strategy_kind != "flagged":
        raise ValueError("tampering with flags requires a flagged strategy")
    kind, _, arg = spec.partition(":")
    codes = transcript.codes.copy()
    if kind == "flag-flip":
        try:
            rate = float(arg)
        except ValueError:
            raise ValueError(f"bad tamper rate {arg!r}") from None
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"tamper rate must be in (0, 1], got {rate}")
        n_flip = math.ceil(rate * len(codes))
        codes[rng.choice(len(codes), size=n_flip, replace=False)] ^= np.uint16(_FLAG_WEIGHTS[1])
    elif kind == "flag-constant":
        if arg not in ("0", "1"):
            raise ValueError(f"tamper flag value must be 0 or 1, got {arg!r}")
        flags = np.uint16(_FLAG_WEIGHTS.sum())
        codes &= ~flags
        codes |= flags * int(arg)
    else:
        raise ValueError(f"unknown tamper kind {kind!r}")
    return Transcript(transcript.strategy_kind, codes)


def _optional_float(value) -> float | None:
    return None if value is None else float(value)


# The config JSON, in output order: (JSON path, ProtocolConfig field, parser).
_CONFIG_JSON = (
    (("n_rounds",), "n_rounds", int),
    (("gamma",), "gamma", float),
    (("threshold",), "bell_threshold", _optional_float),
    (("alignment_fraction",), "alignment_fraction", float),
    (("alignment_floor",), "alignment_floor", float),
    (("seed",), "seed", int),
    (("strategy", "kind"), "strategy_kind", str),
    (("strategy", "visibility"), "visibility", float),
    (("backend",), "backend", str),
)
# The noun of the JSON values a parser reads, where it is not "a number"
# (the threshold may also be null, for the default).
_CONFIG_NOUNS = {int: "an integer", str: "a string"}


def _config_value_ok(value, parse) -> bool:
    """Whether a config JSON value has the type its parser reads: int()
    would truncate 1.5 and read true as 1 and "7" as 7, float() would read
    true as 1.0 and "0.9" as 0.9; an integral number such as 1e6 is an
    integer."""
    if parse is str:
        return isinstance(value, str)
    if value is None:
        return parse is _optional_float
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and not (parse is int and isinstance(value, float) and not value.is_integer())


def config_to_json(config: ProtocolConfig) -> str:
    doc = {}
    for (*parents, key), field, _ in _CONFIG_JSON:
        node = doc
        for parent in parents:
            node = node.setdefault(parent, {})
        node[key] = getattr(config, field)
    return json.dumps(doc)


def config_from_json(text: str) -> ProtocolConfig:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("config JSON must be an object")
    unknown = set(doc) - {path[0] for path, _, _ in _CONFIG_JSON}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    strategy = doc.get("strategy", {})
    strategy_keys = {path[-1] for path, _, _ in _CONFIG_JSON if path[0] == "strategy"}
    if not isinstance(strategy, dict) or set(strategy) - strategy_keys:
        raise ValueError("config 'strategy' must be an object with keys 'kind' and 'visibility'")
    kwargs = {}
    for (*parents, key), field, parse in _CONFIG_JSON:
        node = doc
        for parent in parents:
            node = node.get(parent, {})
        if key in node:
            value = node[key]
            if not _config_value_ok(value, parse):
                raise ValueError(f"config {key!r} must be {_CONFIG_NOUNS.get(parse, 'a number')}, got {json.dumps(value)}")
            try:
                kwargs[field] = parse(value)
            except OverflowError:
                raise ValueError(f"config {key!r} is an integer too large for a float") from None
    return ProtocolConfig(**kwargs)


_LINE_HEAD = '{"index": 0'
_INDEX_KEY = np.frombuffer(_LINE_HEAD[:-1].encode(), dtype=np.uint8)


@functools.cache
def _line_rows(digits: int) -> np.ndarray:
    """(2304, W) uint8: per code, its JSONL line with a NUL slot for an
    index of up to `digits` digits, NUL-padded to a common width.

    A row is the index key, the slot, and the text after the index: the
    json.dumps line of the code's round type with every digit 0, plus the
    code's nine COLUMNS values at the line's nine digits, ending in a
    newline.
    """
    docs = ({"index": 0, "type": t, "inputs": [0] * 3, "outputs": [[0, 0]] * 3} for t in _ROUND_TYPES)
    tails = [json.dumps(doc).encode()[len(_LINE_HEAD) :] + b"\n" for doc in docs]
    width = max(map(len, tails))
    head = len(_INDEX_KEY) + digits
    rows = np.zeros((len(tails), len(_CELL_ROWS), head + width), dtype=np.uint8)
    rows[..., : len(_INDEX_KEY)] = _INDEX_KEY
    for half, tail in zip(rows[..., head:], tails):
        template = np.frombuffer(tail.ljust(width, b"\0"), dtype=np.uint8)
        half[:] = template
        half[:, template == ord("0")] += _CELL_ROWS.view(np.uint8)
    rows = rows.reshape(-1, head + width)
    rows.flags.writeable = False
    return rows


@functools.cache
def _four_digits() -> np.ndarray:
    """(2, 10000) uint32: the four ASCII digits of 0000 to 9999, each as
    one word in memory order; in row 1 the leading zeros are NULs, so that
    0 to 9999 read right-aligned."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
    padded = digits.copy()
    padded[:, :3][np.logical_and.accumulate(digits[:, :3] == ord("0"), axis=1)] = 0
    return np.stack((digits, padded)).view(np.uint32)[..., 0]


def _write_index_digits(slots: np.ndarray, start: int) -> None:
    """Right-align the ASCII digits of the indices start, start + 1, ...
    in the rows, at least four bytes wide, of the uint8 array `slots`,
    leaving the rest of each row.

    The indices go in pieces that share all but their last four digits:
    the last four are written as one unaligned word per row, a slice of
    `_four_digits`, the others as one string broadcast down the piece.
    """
    table = _four_digits()
    words = slots[:, -4:].view(np.uint32)[:, 0]
    stop = start + len(slots)
    lo = start
    while lo < stop:
        high, low = divmod(lo, 10_000)
        hi = min(stop, (high + 1) * 10_000)
        piece = slice(lo - start, hi - start)
        words[piece] = table[int(high == 0), low : low + hi - lo]
        if high:
            text = str(high).encode()
            slots[piece, -4 - len(text) : -4] = np.frombuffer(text, dtype=np.uint8)
        lo = hi


def _jsonl_blocks(transcript: Transcript):
    """The JSONL bytes of a transcript, _JSONL_ROWS lines at a time.

    A line depends on the round only through its index and its code. A
    block takes each round's row of the `_line_rows` table, built once
    per process and index width from the two round types' json.dumps
    lines, writes the index digits at the end of the row's index slot,
    and drops every NUL of the slots and the padding from the block's
    bytes. No Python code runs per line.
    """
    n = len(transcript.codes)
    # Index slots at least four bytes wide, as _write_index_digits needs.
    width = max(len(str(n - 1)), 4)
    table = _line_rows(width)
    slot = slice(len(_INDEX_KEY), len(_INDEX_KEY) + width)
    for start in range(0, n, _JSONL_ROWS):
        rows = table.take(transcript.codes[start : start + _JSONL_ROWS], axis=0)
        _write_index_digits(rows[:, slot], start)
        yield rows.tobytes().replace(b"\0", b"")


def transcript_to_jsonl(transcript: Transcript) -> str:
    """One line per round: json.dumps of {"index", "type", "inputs", "outputs"}."""
    return b"".join(_jsonl_blocks(transcript)).decode("ascii")


def write_transcript_jsonl(transcript: Transcript, fh) -> None:
    """Write transcript_to_jsonl's text, ASCII-encoded, to the binary file
    `fh`, one block at a time."""
    for block in _jsonl_blocks(transcript):
        fh.write(block)


def result_to_json(result: ProtocolResult) -> str:
    doc = {
        "outcome": result.outcome,
        "abort_reason": result.abort_reason,
        "keys": result.keys,
        "k_xor": result.k_xor,
        "stats": result.stats,
    }
    return json.dumps(doc, default=_json_default)
