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
     (FlagMismatch) or if the common string is constant (FlagConstant)
  5. test-round data is announced, the Bell value estimated and compared
     against the threshold (BellBelowThreshold on failure); optionally a
     fraction of generation rounds is sacrificed to an alignment check
     (AlignmentFailure below the floor)
  6. generation rounds are sifted into the Alice-Bob key (flag 0) and
     the Alice-Carole key (flag 1)
  7. Alice announces the XOR of her two sifted keys so Carole can
     recover the Alice-Bob string as the conference key

All announcements are deferred to after the last round, so devices can
gain nothing from the public transcript. Steps 1-3 of a run read the
uniforms default_rng(seed).random((n_rounds, 7)), drawn BLOCK_ROWS rows
at a time (the generator fills in stream order, so the numbers do not
depend on the block size); row r serves round r:

  column 0     round type: a test round when the draw is below gamma
  columns 1-3  test-round inputs of Alice, Bob and Carole: 1 when the
               draw is below 0.5, else 0 (unread on generation rounds)
  columns 4-6  one collapse draw each for Alice, Bob and Carole, who
               measure in that order: the outcome is the first label, in
               ascending order, whose cumulative probability exceeds it

The two device backends differ only in how they build the cumulative
conditional tables these draws sample: `table` reads them off the exact
behavior, `collapse` fills them by projective collapse of the strategy
state. Both sample every block with one loop and one rule, so they
agree draw for draw.
Post-round sampling (the alignment spot check, Alice-Bob pair before
Alice-Carole) uses the stream default_rng([seed, 1]), so it is
insensitive to how the transcript was produced or restored. Two runs
with the same config are bit-identical.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .bell import (
    BELL_FUNCTIONALS,
    CELL_WEIGHTS,
    GENERATION_INPUTS,
    TABLE_SHAPE,
    bell_value_stderr,
    estimate_behavior,
)
from .qops import born_probabilities, check_effects_complete
from .strategies import (
    OUTCOME_LABELS,
    NoiseParams,
    Strategy,
    honest_flagged_strategy,
    honest_parallel_strategy,
)

__all__ = [
    "ABORT_REASONS",
    "PARTY_NAMES",
    "ProtocolConfig",
    "Message",
    "Transcript",
    "SiftResult",
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
PARALLEL_QUANTUM_MAX = BELL_FUNCTIONALS["parallel"].quantum_max
# Columns of Transcript.data: inputs, then (value, flag) per party.
COLUMNS = ("x", "y", "z", "a", "ta", "b", "tb", "c", "tc")
_A, _TA, _B, _TB, _C, _TC = range(3, 9)
_ROUND_TYPES = ("generation", "test")
# Rounds drawn, sampled and rendered as JSONL per block, so that a run's
# temporaries are bounded by a block whatever the number of rounds.
BLOCK_ROWS = 1 << 14
# The (x, y, z) triples the protocol draws: test rounds' {0, 1}^3, then
# the generation inputs.
PROTOCOL_INPUTS = (*itertools.product((0, 1), repeat=3), GENERATION_INPUTS)
# A conditioning of probability at or below this leaves its table row at zero.
_P_CUTOFF = 1e-15


@dataclass(frozen=True)
class ProtocolConfig:
    n_rounds: int = 1000
    gamma: float = 0.2
    bell_threshold: float | None = None      # None: 2*sqrt(2)*(1 - 10/sqrt(n_test))
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
        if self.strategy_kind not in ("flagged", "parallel"):
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
        if self.backend not in ("table", "collapse"):
            raise ValueError(f"backend must be 'table' or 'collapse', got {self.backend!r}")


@dataclass(frozen=True, slots=True)
class Message:
    sender: str
    kind: str
    payload: object


class Transcript:
    """A run's public record: its rounds as two arrays, and the announcements.

    `test` (N,) bool marks the test rounds and `data` (N, 9) int8 holds
    one row per round in the COLUMNS layout, which estimate_behavior
    reads directly. `announcements` collects the messages of steps 4-7,
    all made after the last round; their payloads hold `test` itself,
    views of `data` and column indices, not copies.
    """

    def __init__(self, strategy_kind: str, test: np.ndarray, data: np.ndarray):
        if test.dtype != bool or test.ndim != 1:
            raise ValueError(f"test must be a 1-D bool array, got {test.dtype} of shape {test.shape}")
        shape = (len(test), len(COLUMNS))
        if data.dtype != np.int8 or data.shape != shape:
            raise ValueError(f"data must be an int8 array of shape {shape}, got {data.dtype} of shape {data.shape}")
        self.strategy_kind = strategy_kind
        self.test = test
        self.data = data
        self.announcements: list[Message] = []


@dataclass(frozen=True)
class SiftResult:
    alice_ab: np.ndarray                      # uint8 key bits, one per sifted round
    partner_ab: np.ndarray
    alice_ac: np.ndarray
    partner_ac: np.ndarray
    mismatch_ab: int
    mismatch_ac: int


@dataclass(frozen=True)
class AlignmentResult:
    ok: bool
    match_rates: dict
    excluded_ab: np.ndarray                   # indices of the rounds sampled, excluded from the key
    excluded_ac: np.ndarray


@dataclass(frozen=True)
class ProtocolResult:
    outcome: str                              # "completed" | "aborted"
    abort_reason: str | None
    keys: dict                                # party -> '0'/'1' string
    k_xor: str
    stats: dict


def _pick(cum: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Outcome index per row of cumulative distributions `cum` (N, 4).

    Bins are the label intervals in ascending order: outcome i is chosen
    when the draw lands in [cum[i-1], cum[i]), so a zero-width bin is
    never chosen. A draw in the float dust above the last edge takes the
    last positive-width bin among 1-3, else bin 0.
    """
    below = draws[:, None] < cum
    idx = below.argmax(axis=1)
    dust = ~below.any(axis=1)
    if dust.any():
        rising = cum[dust, 1:] > cum[dust, :-1]
        idx[dust] = np.where(rising.any(axis=1), 3 - rising[:, ::-1].argmax(axis=1), 0)
    return idx


def _cumulative_tables(strategy: Strategy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cumulative conditional tables of the sequential Born chain.

    One row of four per conditioning, from the strategy behavior: Alice's
    given x, Bob's given (x, oa, y), Carole's given (x, oa, y, ob, z).
    """
    from .bell import behavior_from_strategy

    b6 = behavior_from_strategy(strategy).table.reshape(2, 3, 3, 4, 4, 4)
    p_a = b6[:, 0, 0].sum(axis=(2, 3))                      # (x, oa)
    joint_ab = b6[:, :, 0].sum(axis=4)                      # (x, y, oa, ob)
    cond_b = np.divide(
        joint_ab,
        p_a[:, None, :, None],
        out=np.zeros_like(joint_ab),
        where=p_a[:, None, :, None] > _P_CUTOFF,
    )
    cond_c = np.divide(
        b6,
        joint_ab[:, :, None, :, :, None],
        out=np.zeros_like(b6),
        where=joint_ab[:, :, None, :, :, None] > _P_CUTOFF,
    )
    cum_a = np.cumsum(p_a, axis=-1)
    cum_b = np.cumsum(cond_b, axis=-1).transpose(0, 2, 1, 3).reshape(-1, 4)
    cum_c = np.cumsum(cond_c, axis=-1).transpose(0, 3, 1, 4, 2, 5).reshape(-1, 4)
    return cum_a, cum_b, cum_c


def _table_outcomes(tables, inputs: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Outcome indices (N, 3) picked from the `_cumulative_tables` rows the
    inputs and earlier outcomes select. Given the same draws this
    reproduces the explicit-collapse outcomes."""
    cum_a, cum_b, cum_c = tables
    x, y, z = inputs.astype(np.intp).T
    oa = _pick(cum_a[x], draws[:, 0])
    row_b = (x * 4 + oa) * 3 + y
    ob = _pick(cum_b[row_b], draws[:, 1])
    oc = _pick(cum_c[(row_b * 4 + ob) * 3 + z], draws[:, 2])
    return np.stack((oa, ob, oc), axis=1)


def _collapse_tables(strategy: Strategy) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_cumulative_tables`' rows, by explicit projective collapse.

    The state a party measures depends only on the inputs and outcomes of
    the parties before it: the prefix (x) for Alice, (x, oa, y) for Bob and
    (x, oa, y, ob, z) for Carole. The prefixes of PROTOCOL_INPUTS are
    walked as a tree, and each prefix's row is the cumulative Born
    distribution of the state it leaves. A level of the tree holds the
    reduced state of the parties still to measure. Alice measures
    Tr_BC rho; her outcome, of projector P, leaves rho_BC proportional to
    Tr_A[(P (x) I) rho], which is Tr_A of the collapsed state
    (P (x) I) rho (P (x) I) since P^2 = P. Bob measures Tr_C rho_BC and
    leaves Carole Tr_B[(P (x) I) rho_BC]. Each reduced state is normalised
    by its own trace, and only outcomes of probability above _P_CUTOFF
    are followed; the rows of the others stay zero, as in
    `_cumulative_tables`. Each local (party, input) family is checked
    complete once.
    """
    for families in strategy.measurements:
        for family in families.values():
            check_effects_complete(family)
    tables = (np.zeros((2, 4)), np.zeros((2 * 4 * 3, 4)), np.zeros((2 * 4 * 3 * 4 * 3, 4)))
    _walk_prefixes(0, (), 0, strategy.state, strategy, tables)
    return tables


def _walk_prefixes(party, inputs, row, rho, strategy, tables) -> None:
    """Fill the rows of `party` and the parties after it below one prefix.

    `inputs` are the earlier parties' inputs, `row` the prefix's index
    before `party`'s input, and `rho` the state of `party` and the
    parties after it.
    """
    d = strategy.party_dims[party]
    rho = rho.reshape(d, rho.shape[0] // d, d, -1)
    local = np.einsum("ijkj->ik", rho)
    for x in sorted({t[party] for t in PROTOCOL_INPUTS if t[:party] == inputs}):
        family = strategy.measurements[party][x]
        pvals = np.array(list(born_probabilities(local, family).values()))
        tables[party][row * 3 + x] = np.cumsum(pvals)
        if party < 2:
            for o in np.flatnonzero(pvals > _P_CUTOFF).tolist():
                reduced = np.einsum("ki,ibkc->bc", family[OUTCOME_LABELS[o]], rho)
                next_row = (row * 3 + x) * 4 + o
                _walk_prefixes(party + 1, (*inputs, x), next_row, reduced / np.trace(reduced).real, strategy, tables)


def _build_strategy(config: ProtocolConfig) -> Strategy:
    noise = NoiseParams(visibility=config.visibility)
    if config.strategy_kind == "parallel":
        return honest_parallel_strategy(noise)
    return honest_flagged_strategy(noise)


def run_rounds(config: ProtocolConfig, strategy: Strategy | None = None) -> Transcript:
    """Steps 1-3: distribute, announce round type, choose inputs, measure.

    The backend chooses the builder of the cumulative tables, once; each
    block of BLOCK_ROWS rounds then draws its uniforms (laid out as the
    module docstring says) and picks its outcomes from those tables.
    Announcements of flags and test data happen in postprocess.
    """
    strategy = _build_strategy(config) if strategy is None else strategy
    if strategy.kind != config.strategy_kind:
        raise ValueError(f"strategy kind {strategy.kind!r} does not match config {config.strategy_kind!r}")
    n = config.n_rounds
    rng = np.random.default_rng(config.seed)
    test = np.empty(n, dtype=bool)
    data = np.empty((n, len(COLUMNS)), dtype=np.int8)
    tables = (_cumulative_tables if config.backend == "table" else _collapse_tables)(strategy)
    for start in range(0, n, BLOCK_ROWS):
        u = rng.random((min(BLOCK_ROWS, n - start), 7))
        block = slice(start, start + len(u))
        test[block] = u[:, 0] < config.gamma
        data[block, :3] = np.where(test[block, None], u[:, 1:4] < 0.5, GENERATION_INPUTS)
        _set_outcomes(data[block], _table_outcomes(tables, data[block, :3], u[:, 4:]))
    return Transcript(strategy.kind, test, data)


def _set_outcomes(rows: np.ndarray, outcomes: np.ndarray) -> None:
    """Write outcome indices o = 2*value + flag into the (value, flag) columns of `rows`."""
    rows[:, _A::2] = outcomes >> 1
    rows[:, _TA::2] = outcomes & 1


def _bit_string(bits: np.ndarray) -> str:
    """The '0'/'1' text of a bit array, as the completed result holds it."""
    return (bits | 48).tobytes().decode("ascii")


def check_flag_agreement(flags_a, flags_b, flags_c) -> str:
    """Step-4 verdict: 'ok', 'FlagMismatch' or 'FlagConstant'.

    Takes the three announced flag columns. Any position where they
    differ is a mismatch; identical but constant flags mean the source
    never alternated and the run must abort too.
    """
    a, b, c = (np.asarray(f) for f in (flags_a, flags_b, flags_c))
    if not (len(a) == len(b) == len(c)):
        raise ValueError("flag columns must have equal length")
    if not (np.array_equal(a, b) and np.array_equal(a, c)):
        return "FlagMismatch"
    if len(a) and (a == a[0]).all():
        return "FlagConstant"
    return "ok"


def _flag_abort_stats(verdict: str, flags) -> dict:
    """Where step 4 failed, for the result's stats.

    FlagMismatch: the first round whose three flags differ, the parties
    whose flag there is off that round's majority flag, and the number of
    such rounds. FlagConstant: the one flag value every round carries.
    """
    flags = np.stack(flags)
    if verdict == "FlagConstant":
        return {"flag_constant_value": int(flags[0, 0])}
    rounds = np.flatnonzero((flags != flags[0]).any(axis=0))
    first = flags[:, rounds[0]]
    majority = np.bincount(first).argmax()
    return {
        "flag_mismatch_round": int(rounds[0]),
        "flag_mismatch_parties": [name for name, f in zip(PARTY_NAMES, first) if f != majority],
        "flag_mismatch_count": len(rounds),
    }


def _bell_score(estimate, kind: str) -> tuple[float, dict]:
    """Step-5 Bell value of a strategy kind's test data, and its stats."""
    functional = BELL_FUNCTIONALS[kind]
    blocks = functional.block_values(estimate.behavior.table).tolist()
    return sum(blocks), {
        "bell_stderr": bell_value_stderr(estimate, kind),
        "bell_branches": dict(zip(functional.blocks, blocks)),
    }


@dataclass(frozen=True)
class _Routing:
    """Per strategy kind: which generation rounds feed each pairwise key
    and which output columns hold the key bits."""

    by_flag: bool      # flags are announced and checked; Alice's flag 0 feeds "ab", 1 feeds "ac"
    key_columns: dict  # pair -> (Alice's column, partner's column)


_ROUTING = {
    "flagged": _Routing(True, {"ab": (_A, _B), "ac": (_A, _C)}),
    "parallel": _Routing(False, {"ab": (_A, _B), "ac": (_TA, _TC)}),
}


def _pair_rounds(transcript: Transcript, pair: str) -> tuple[np.ndarray, tuple[int, int]]:
    """A fresh bool mask of the generation rounds feeding `pair`'s key,
    and its (Alice's, partner's) key-bit columns."""
    routing = _ROUTING[transcript.strategy_kind]
    feeds = ~transcript.test
    if routing.by_flag:
        feeds &= transcript.data[:, _TA] == ("ab", "ac").index(pair)
    return feeds, routing.key_columns[pair]


def sift_pair_keys(transcript: Transcript, exclude_ab=None, exclude_ac=None) -> SiftResult:
    """Step-6 sifting into the two pairwise raw keys.

    Rounds and key bits follow the strategy kind's routing: flagged
    strategies route generation rounds by the (verified common) flag,
    Alice-Bob on flag 0, Alice-Carole on flag 1; the two-pair strategy
    has no flags and every generation round feeds both keys, first
    output bits for Alice-Bob, second bits for Alice-Carole. Mismatch
    counts compare Alice's bit against the partner's. The exclusions are
    arrays of round indices, such as AlignmentResult's; None excludes
    nothing. The keys are uint8 arrays of 0/1.
    """
    bits = {}
    for pair, exclude in (("ab", exclude_ab), ("ac", exclude_ac)):
        feeds, (alice, partner) = _pair_rounds(transcript, pair)
        if exclude is not None:
            feeds[exclude] = False
        # Column first, then the mask: indexing data[feeds, col] would build an index array.
        bits[pair] = tuple(transcript.data[:, col][feeds].view(np.uint8) for col in (alice, partner))
    (ab_alice, ab_partner), (ac_alice, ac_partner) = bits["ab"], bits["ac"]
    return SiftResult(
        alice_ab=ab_alice,
        partner_ab=ab_partner,
        alice_ac=ac_alice,
        partner_ac=ac_partner,
        mismatch_ab=int(np.count_nonzero(ab_alice != ab_partner)),
        mismatch_ac=int(np.count_nonzero(ac_alice != ac_partner)),
    )


def xor_reconcile(k_ab: np.ndarray, k_ac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Step-7 announcement: truncate the two bit arrays to the shorter, XOR them.

    Returns (k_xor, k_cka) where k_cka is the truncated Alice-Bob key;
    anyone holding the Alice-Carole key recovers k_cka as
    k_xor ^ k_ac. Raises if both keys are empty.
    """
    if not len(k_ab) and not len(k_ac):
        raise ValueError("both pair keys are empty; nothing to reconcile")
    m = min(len(k_ab), len(k_ac))
    return k_ab[:m] ^ k_ac[:m], k_ab[:m]


def alignment_test(transcript: Transcript, fraction: float, floor: float, rng) -> AlignmentResult:
    """Optional step-5 spot check on matched generation rounds.

    For each pair, ceil(fraction * n_pair) of that pair's generation
    rounds are sampled (Alice-Bob first, then Alice-Carole, consuming
    draws in that order), their key bits compared in public, and the
    sampled rounds excluded from key material. fraction 0 passes
    vacuously.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError(f"fraction must be in [0, 1), got {fraction}")
    rates = {}
    excluded = {}
    ok = True
    for pair in ("ab", "ac"):
        feeds, (alice, partner) = _pair_rounds(transcript, pair)
        k = math.ceil(fraction * np.count_nonzero(feeds))
        if k == 0:
            rates[pair] = None
            excluded[pair] = np.empty(0, dtype=np.intp)
            continue
        rows = np.flatnonzero(feeds)
        sampled = rows[rng.choice(len(rows), size=k, replace=False)]
        data = transcript.data[sampled]
        rates[pair] = int(np.count_nonzero(data[:, alice] == data[:, partner])) / k
        excluded[pair] = sampled
        if rates[pair] < floor:
            ok = False
    return AlignmentResult(ok=ok, match_rates=rates, excluded_ab=excluded["ab"], excluded_ac=excluded["ac"])


def _default_threshold(kind: str, n_test: int) -> float:
    functional = BELL_FUNCTIONALS[kind]
    lo, hi = functional.local_bound, functional.quantum_max
    if n_test <= 0:
        return hi
    return min(max(hi * (1.0 - 10.0 / math.sqrt(n_test)), lo), hi)


def postprocess(transcript: Transcript, config: ProtocolConfig) -> ProtocolResult:
    """Steps 4-7 on a finished transcript: announcements, checks, keys."""
    test, data = transcript.test, transcript.data
    n_test = int(np.count_nonzero(test))
    stats = {
        "n_rounds": len(test),
        "n_test": n_test,
        "n_gen": len(test) - n_test,
        "strategy_kind": transcript.strategy_kind,
        "backend": config.backend,
    }
    announce = transcript.announcements.append

    def aborted(reason):
        announce(Message("alice", "AbortNotice", reason))
        return ProtocolResult(outcome="aborted", abort_reason=reason, keys={}, k_xor="", stats=stats)

    routing = _ROUTING[transcript.strategy_kind]
    if routing.by_flag:
        flags = [data[:, col] for col in (_TA, _TB, _TC)]
        for name, party_flags in zip(PARTY_NAMES, flags):
            announce(Message(name, "FlagAnnounce", party_flags))
        verdict = check_flag_agreement(*flags)
        if verdict != "ok":
            stats.update(_flag_abort_stats(verdict, flags))
            return aborted(verdict)
        n_t0 = int(np.count_nonzero(flags[0] == 0))
        stats["p_t0_estimate"] = n_t0 / len(test)
        stats["p_t1_estimate"] = (len(test) - n_t0) / len(test)

    for i, name in enumerate(PARTY_NAMES):
        # The test-round mask, and the party's input, value and flag columns.
        announce(Message(name, "TestDataAnnounce", (test, (i, _A + 2 * i, _TA + 2 * i))))
    estimate = estimate_behavior(data[test])
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
    alignment = alignment_test(transcript, config.alignment_fraction, config.alignment_floor, rng)
    stats["alignment_match_rates"] = alignment.match_rates
    if not alignment.ok:
        return aborted("AlignmentFailure")

    sift = sift_pair_keys(transcript, alignment.excluded_ab, alignment.excluded_ac)
    len_ab, len_ac = len(sift.alice_ab), len(sift.alice_ac)
    stats["len_ab"], stats["len_ac"] = len_ab, len_ac
    stats["mismatch_ab"] = sift.mismatch_ab
    stats["mismatch_ac"] = sift.mismatch_ac
    stats["mismatch_rate_ab"] = sift.mismatch_ab / len_ab if len_ab else None
    stats["mismatch_rate_ac"] = sift.mismatch_ac / len_ac if len_ac else None
    if len_ab or len_ac:
        k_xor, k_cka = xor_reconcile(sift.alice_ab, sift.alice_ac)
    else:
        k_xor = k_cka = sift.alice_ab
    m = len(k_cka)
    # Carole recovers the conference key from the announced XOR and her Alice-Carole key.
    bits = {"alice": k_cka, "bob": sift.partner_ab[:m], "carole": k_xor ^ sift.partner_ac[:m]}
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
    data = transcript.data.copy()
    if kind == "flag-flip":
        try:
            rate = float(arg)
        except ValueError:
            raise ValueError(f"bad tamper rate {arg!r}") from None
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"tamper rate must be in (0, 1], got {rate}")
        n_flip = math.ceil(rate * len(data))
        data[rng.choice(len(data), size=n_flip, replace=False), _TB] ^= 1
    elif kind == "flag-constant":
        t = int(arg) if arg else 0
        if t not in (0, 1):
            raise ValueError(f"tamper flag value must be 0 or 1, got {arg!r}")
        data[:, _TA::2] = t
    else:
        raise ValueError(f"unknown tamper kind {kind!r}")
    return Transcript(transcript.strategy_kind, transcript.test.copy(), data)


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
            kwargs[field] = parse(node[key])
    return ProtocolConfig(**kwargs)


# Per row code: the flat index of the round's (round type, row) cell in a
# C-ordered (2, *TABLE_SHAPE) array, row @ CELL_WEIGHTS + test * _TEST_WEIGHT.
_CODE_SHAPE = (2, *TABLE_SHAPE)
_TEST_WEIGHT = np.int32(math.prod(TABLE_SHAPE))
_LINE_HEAD = '{"index": 0'


def _line_tail(code: int) -> str:
    """The JSONL line of a (round type, row) code, after its index."""
    t, x, y, z, a, ta, b, tb, c, tc = (int(v) for v in np.unravel_index(code, _CODE_SHAPE))
    line = json.dumps({"index": 0, "type": _ROUND_TYPES[t], "inputs": [x, y, z], "outputs": [[a, ta], [b, tb], [c, tc]]})
    return line[len(_LINE_HEAD):] + "\n"


def _jsonl_blocks(transcript: Transcript):
    """The JSONL text of a transcript, BLOCK_ROWS lines at a time.

    A line depends on the round only through its index and its (round
    type, row) code, of which there are 1152, so each code's line is
    rendered by json.dumps once per run, the first time a block holds it,
    and reused after the index.
    """
    n = len(transcript.test)
    if n == 0:
        yield "\n"
        return
    tails = [None] * int(np.prod(_CODE_SHAPE))
    rendered = np.zeros(len(tails), dtype=bool)
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        codes = transcript.data[start:stop] @ CELL_WEIGHTS + transcript.test[start:stop] * _TEST_WEIGHT
        present = np.zeros_like(rendered)
        present[codes] = True
        for code in np.flatnonzero(present & ~rendered).tolist():
            tails[code] = _line_tail(code)
        rendered |= present
        yield "".join([f'{{"index": {i}{tails[k]}' for i, k in zip(range(start, stop), codes.tolist())])


def transcript_to_jsonl(transcript: Transcript) -> str:
    """One line per round: json.dumps of {"index", "type", "inputs", "outputs"}."""
    return "".join(_jsonl_blocks(transcript))


def write_transcript_jsonl(transcript: Transcript, fh) -> None:
    """Write transcript_to_jsonl's text to the text file `fh`, one block at a time."""
    for block in _jsonl_blocks(transcript):
        fh.write(block)


def result_to_json(result: ProtocolResult) -> str:
    def clean(v):
        if isinstance(v, dict):
            return {str(k): clean(x) for k, x in v.items()}
        if isinstance(v, (list, tuple)):
            return [clean(x) for x in v]
        if isinstance(v, (np.floating,)):
            return float(v)
        if isinstance(v, (np.integer,)):
            return int(v)
        if v is None or isinstance(v, (str, int, float, bool)):
            return v
        return repr(v)

    return json.dumps(
        {
            "outcome": result.outcome,
            "abort_reason": result.abort_reason,
            "keys": result.keys,
            "k_xor": result.k_xor,
            "stats": clean(result.stats),
        }
    )
