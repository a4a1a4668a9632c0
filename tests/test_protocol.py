import hashlib
import io
import itertools
import json
import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from flagcka.bell import CELL_WEIGHTS, CHSH_QUANTUM_MAX, GENERATION_INPUTS, TABLE_SHAPE, behavior_from_strategy
from flagcka.bell import BELL_FUNCTIONALS, _BLOCK_CELLS, bell_value_stderr, estimate_behavior
from flagcka.protocol import (
    ABORT_REASONS,
    BLOCK_ROWS,
    COLUMNS,
    PARTY_NAMES,
    ProtocolConfig,
    Transcript,
    alignment_test,
    apply_tamper,
    check_flag_agreement,
    config_from_json,
    config_to_json,
    postprocess,
    result_to_json,
    run_protocol,
    run_rounds,
    sift_pair_keys,
    transcript_to_jsonl,
    write_transcript_jsonl,
    xor_reconcile,
    _BACKENDS,
    _build_strategy,
    _behavior_table,
    _collapse_table,
    _CELL_ROWS,
    _CODE_SHAPE,
    _GUIDE_BUCKETS,
    _GUIDE_STEPS,
    _P_CUTOFF,
    _ROUND_TYPES,
    _ROUTE_TABLES,
    _bit_string,
    _code_counts,
    _default_threshold,
    _draw_codes,
    _p_code,
    _sampler,
    _write_index_digits,
)
from flagcka.qops import (
    haar_unitaries,
    measure_collapse,
    outcome_distribution,
    projector,
    random_density_operator,
    select_outcome,
    tensor,
)
from flagcka.strategies import N_INPUTS, OUTCOME_LABELS, NoiseParams, Strategy, random_projective_strategy

from devices import constant_flag_strategy


def random_unitary(dim, rng):
    """Haar-random unitary via QR of a complex Gaussian matrix."""
    return haar_unitaries(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))


def _family(strategy, party, x):
    """One (party, input) family of a strategy as a dict label -> effect."""
    return dict(zip(OUTCOME_LABELS, strategy.effects[party][x]))


def _rounds(transcript):
    """A transcript's codes decoded: the (N,) bool test mask and the
    (N, 9) int8 COLUMNS rows."""
    test, cells = np.divmod(transcript.codes, len(_CELL_ROWS))
    return test.astype(bool), _CELL_ROWS[cells]


def _transcript(kind, test, data):
    """The transcript whose codes decode to `test` and `data`."""
    codes = np.asarray(data, dtype=np.intp) @ CELL_WEIGHTS + np.asarray(test) * len(_CELL_ROWS)
    return Transcript(kind, codes.astype(np.uint16))


def test_config_validation():
    ProtocolConfig()
    with pytest.raises(ValueError):
        ProtocolConfig(n_rounds=0)
    with pytest.raises(ValueError):
        ProtocolConfig(gamma=0.0)
    with pytest.raises(ValueError):
        ProtocolConfig(gamma=1.0)
    with pytest.raises(ValueError):
        ProtocolConfig(bell_threshold=1.5)  # below the local bound
    with pytest.raises(ValueError):
        ProtocolConfig(bell_threshold=3.0)  # above the quantum maximum
    with pytest.raises(ValueError):
        ProtocolConfig(strategy_kind="parallel", bell_threshold=2.5)  # parallel range is [4, 4 sqrt 2]
    ProtocolConfig(strategy_kind="parallel", bell_threshold=5.0)
    with pytest.raises(ValueError):
        ProtocolConfig(backend="gpu")
    with pytest.raises(ValueError):
        ProtocolConfig(visibility=1.5)
    with pytest.raises(ValueError, match=r"^alignment_fraction must be in \[0, 1\), got 1\.0$"):
        ProtocolConfig(alignment_fraction=1.0)
    with pytest.raises(ValueError, match=r"^alignment_floor must be in \(0, 1\], got nan$"):
        ProtocolConfig(alignment_floor=math.nan)


def test_runs_are_deterministic():
    cfg = ProtocolConfig(n_rounds=400, seed=3)
    res1, tr1 = run_protocol(cfg)
    res2, tr2 = run_protocol(cfg)
    assert res1.keys == res2.keys
    assert res1.stats == res2.stats
    (test1, data1), (test2, data2) = _rounds(tr1), _rounds(tr2)
    assert np.array_equal(test1, test2) and np.array_equal(data1, data2)
    res3, _ = run_protocol(ProtocolConfig(n_rounds=400, seed=4))
    assert res3.keys != res1.keys


def test_backends_agree_draw_for_draw():
    # The conditional-table device consumes the same uniform draws as the
    # explicit-collapse device and must produce identical transcripts.
    for seed in (0, 11):
        _, tr_table = run_protocol(ProtocolConfig(n_rounds=300, seed=seed, backend="table"))
        _, tr_collapse = run_protocol(ProtocolConfig(n_rounds=300, seed=seed, backend="collapse"))
        (test_table, data_table), (test_collapse, data_collapse) = _rounds(tr_table), _rounds(tr_collapse)
        assert np.array_equal(test_table, test_collapse)
        assert np.array_equal(data_table, data_collapse)


def test_backends_agree_under_noise_and_parallel():
    _, a = run_protocol(ProtocolConfig(n_rounds=200, seed=5, visibility=0.85, bell_threshold=2.0, backend="table"))
    _, b = run_protocol(ProtocolConfig(n_rounds=200, seed=5, visibility=0.85, bell_threshold=2.0, backend="collapse"))
    (test_a, data_a), (test_b, data_b) = _rounds(a), _rounds(b)
    assert np.array_equal(test_a, test_b) and np.array_equal(data_a, data_b)
    _, c = run_protocol(ProtocolConfig(n_rounds=200, seed=5, strategy_kind="parallel", backend="table"))
    _, d = run_protocol(ProtocolConfig(n_rounds=200, seed=5, strategy_kind="parallel", backend="collapse"))
    (test_c, data_c), (test_d, data_d) = _rounds(c), _rounds(d)
    assert np.array_equal(test_c, test_d) and np.array_equal(data_c, data_d)


def _codes_of(law, draws):
    """`_draw_codes` on the sampler of `law`, for an array of draws."""
    return _draw_codes(_sampler(law), draws, np.empty(len(draws), dtype=np.uint16))


def test_table_codes_take_narrow_inputs():
    # The sampler keeps its cells as uint16 codes, the transcript's type,
    # and gathers them with intp indices. A law on every one of the 2304
    # cells, with draws at every edge, gives codes above 255 and in the
    # test half, each the cell a plain searchsorted on the edges names.
    law = np.random.default_rng(11).random(len(_CELL_ROWS) * 2)
    edges, _, cells = _sampler(law)
    assert cells.dtype == np.uint16 and np.array_equal(cells, np.arange(len(law)))
    draws = np.concatenate((edges[:-1], np.random.default_rng(12).random(4096)))
    codes = _codes_of(law, draws)
    assert np.array_equal(codes, np.searchsorted(edges, draws, side="right"))
    assert codes.max() == len(law) - 1 and (codes > 255).any() and (codes >= len(_CELL_ROWS)).any()


def _collapse_outcomes_reference(strategy):
    """p(outcomes | x, y, z) of TABLE_SHAPE, per input triple: the product
    of the sequential Born probabilities, each party measuring with
    outcome_distribution the full state its predecessors' measure_collapse
    left. Outcomes of a prefix probability at or below the cutoff are not
    followed, as in the memoised walk; the cells after them stay 0."""
    def embedded(p, effect):
        ops = [np.eye(d) for d in strategy.party_dims]
        ops[p] = effect
        return tensor(*ops)

    effects = [
        [{label: embedded(p, e) for label, e in _family(strategy, p, x).items()} for x in range(N_INPUTS[p])]
        for p in range(3)
    ]
    table = np.zeros((*N_INPUTS, 4, 4, 4))

    def walk(inputs, rho, outcomes, mass):
        p = len(outcomes)
        family = effects[p][inputs[p]]
        probs = outcome_distribution(rho, family)
        cum = np.cumsum([probs[label] for label in OUTCOME_LABELS])
        for o, label in enumerate(OUTCOME_LABELS):
            if p == 2:
                table[(*inputs, *outcomes, o)] = mass * probs[label]
            elif mass * probs[label] > _P_CUTOFF:
                # A draw inside the outcome's bin collapses onto it.
                picked, post = measure_collapse(rho, family, cum[o] - probs[label] / 2)
                assert picked == label
                walk(inputs, post, (*outcomes, o), mass * probs[label])

    for inputs in itertools.product(*map(range, N_INPUTS)):
        walk(inputs, strategy.state, (), 1.0)
    return table.reshape(TABLE_SHAPE)


@pytest.mark.parametrize("kind, visibility", [("flagged", 1.0), ("flagged", 0.85), ("parallel", 0.97)])
@pytest.mark.parametrize("seed", [0, 7, 21])
def test_memoised_collapse_matches_round_by_round_loop(kind, visibility, seed):
    # The law-level reference gives the collapse table, and every round a
    # seeded collapse run draws is a cell of positive reference mass.
    config = ProtocolConfig(n_rounds=2000, seed=seed, strategy_kind=kind, visibility=visibility, backend="collapse")
    strategy = _build_strategy(config)
    expected = _collapse_outcomes_reference(strategy)
    assert np.abs(_collapse_table(strategy) - expected).max() <= 1e-12
    assert (_p_code(expected, config.gamma)[run_rounds(config, strategy).codes] > 0).all()


def test_memoised_collapse_matches_loop_on_a_generic_strategy():
    # Honest strategies make Carole's outcome independent of Bob's given
    # Alice's; a random state and random projective families do not, so a
    # walk that lost part of a prefix would show here.
    rng = np.random.default_rng(5)

    def family():
        u = random_unitary(4, rng)
        return [projector(u[:, i]) for i in range(len(OUTCOME_LABELS))]

    effects = tuple(np.array([family() for x in range(N_INPUTS[p])]) for p in range(3))
    strategy = Strategy(random_density_operator(64, rng), effects)
    assert np.abs(_collapse_table(strategy) - _collapse_outcomes_reference(strategy)).max() <= 1e-12


def _unequal_dims_strategy(seed):
    # Local dimensions 2, 4 and 3: each family is a random orthonormal
    # basis, padded with zero projectors at random labels up to the four
    # outcomes. A reshape or an axis-order slip that all-4 dimensions
    # would hide mixes up the parties' spaces here.
    rng = np.random.default_rng(seed)
    dims = (2, 4, 3)

    def family(d):
        u = random_unitary(d, rng)
        effects = [projector(u[:, i]) for i in range(d)] + [np.zeros((d, d), dtype=complex)] * (4 - d)
        return [effects[i] for i in rng.permutation(4)]

    effects = tuple(np.array([family(d) for x in range(N_INPUTS[p])]) for p, d in enumerate(dims))
    return Strategy(random_density_operator(int(np.prod(dims)), rng), effects)


def test_memoised_collapse_matches_loop_with_unequal_local_dims():
    strategy = _unequal_dims_strategy(8)
    expected = _collapse_outcomes_reference(strategy)
    assert np.abs(_collapse_table(strategy) - expected).max() <= 1e-12
    # Each (party, input) gives exactly the labels of its nonzero
    # projectors positive marginal probability.
    table = expected.reshape(*N_INPUTS, 4, 4, 4)
    marginals = (table[:, 0, 0].sum(axis=(2, 3)), table[0, :, 0].sum(axis=(1, 3)), table[0, 0, :].sum(axis=(1, 2)))
    for p, marginal in enumerate(marginals):
        for x, family in enumerate(strategy.effects[p]):
            nonzero = {o for o, effect in enumerate(family) if np.any(effect)}
            assert set(np.flatnonzero(marginal[x] > _P_CUTOFF).tolist()) == nonzero


def test_collapse_measures_reduced_local_states(monkeypatch):
    # The walk measures each party's d x d reduced state with its local
    # family: it never embeds an effect into the full space.
    import flagcka.protocol as protocol
    import flagcka.qops as qops
    import flagcka.strategies as strategies

    strategy = _unequal_dims_strategy(8)

    def forbidden(*args, **kwargs):
        raise AssertionError("the collapse path embedded an operator")

    monkeypatch.setattr(strategies, "tensor", forbidden)
    monkeypatch.setattr(qops, "tensor", forbidden)
    shapes = []
    original = protocol.born_rows

    def recording(rhos, effects, labels):
        # One (state, effect) shape pair per row: (d, d) each.
        shapes.extend([(rhos.shape[1:], effects.shape[2:])] * len(rhos))
        return original(rhos, effects, labels)

    monkeypatch.setattr(protocol, "born_rows", recording)
    run_rounds(ProtocolConfig(n_rounds=2000, seed=2, backend="collapse"), strategy)
    assert shapes and all(state == effect for state, effect in shapes)
    assert {state for state, _ in shapes} == {(d, d) for d in strategy.party_dims}


@pytest.mark.parametrize("party, x", [(party, x) for party in range(3) for x in range(N_INPUTS[party])])
def test_collapse_tables_check_each_family(party, x):
    # No family can be spoiled after the strategy was built, at any (party,
    # input): its stack is read-only, and a strategy built from a spoiled
    # copy is refused.
    strategy = _build_strategy(ProtocolConfig())
    family = strategy.effects[party][x]
    with pytest.raises(ValueError, match="read-only"):
        family[1] = 1.01 * family[1]  # label (0, 1)
    effects = [np.array(stack) for stack in strategy.effects]
    effects[party][x, 1] = 1.01 * effects[party][x, 1]
    with pytest.raises(ValueError, match="effects do not sum to identity \\(max deviation"):
        Strategy(strategy.state, tuple(effects))


@pytest.mark.parametrize("kind", ["flagged", "parallel"])
def test_backends_read_the_strategy_not_the_callers_arrays(kind):
    # Swapping two labels' effects keeps a family complete; done to the
    # arrays the strategy was built from, neither backend may see it.
    honest = _build_strategy(ProtocolConfig(strategy_kind=kind))
    state, effects = np.array(honest.state), [np.array(stack) for stack in honest.effects]
    strategy = Strategy(state, tuple(effects), kind)
    effects[1][2, [0, 1]] = effects[1][2, [1, 0]]
    state[:] = np.eye(64) / 64
    table = _behavior_table(strategy)
    assert np.abs(_collapse_table(strategy) - table).max() <= 1e-12
    assert np.array_equal(table, _behavior_table(honest))


def _followed_prefixes(table):
    """The number of (prefix, input) pairs the collapse walk measures:
    Alice's inputs, then each of the party's inputs after every prefix of
    probability above the cutoff given the inputs, read off `table`."""
    b6 = table.reshape(*N_INPUTS, 4, 4, 4)
    alice = b6[:, 0, 0].sum(axis=(2, 3))                  # (x, oa)
    alice_bob = b6[:, :, 0].sum(axis=4)                   # (x, y, oa, ob)
    return N_INPUTS[0] + N_INPUTS[1] * np.count_nonzero(alice > _P_CUTOFF) + N_INPUTS[2] * np.count_nonzero(
        alice_bob > _P_CUTOFF
    )


def test_collapse_computes_one_distribution_per_prefix(monkeypatch):
    import flagcka.protocol as protocol

    calls = []
    original = protocol.born_rows
    # One entry per Born row: one distribution of one state.
    monkeypatch.setattr(
        protocol, "born_rows", lambda rhos, effects, labels: calls.extend([1] * len(rhos)) or original(rhos, effects, labels)
    )
    config = ProtocolConfig(n_rounds=2000, seed=0, backend="collapse")
    table = _behavior_table(_build_strategy(config))
    law = _p_code(table, config.gamma)
    # The table is built before any round is drawn: one distribution per
    # followed prefix and input, however many rounds follow and whichever
    # cells they reach.
    for n_rounds in (2000, 20000):
        calls.clear()
        transcript = run_rounds(replace(config, n_rounds=n_rounds))
        assert len(calls) == _followed_prefixes(table) < 2 + 24 + 288
        assert (law[transcript.codes] > 0).all()


_TABLE_STRATEGIES = {
    **{
        f"{kind}-{v}": lambda kind=kind, v=v: _build_strategy(ProtocolConfig(strategy_kind=kind, visibility=v))
        for kind in ("flagged", "parallel")
        for v in (1.0, 0.9)
    },
    **{f"random-{seed}": lambda seed=seed: random_projective_strategy(seed) for seed in range(5)},
    "dims-2-4-3": lambda: _unequal_dims_strategy(8),
}


def _behavior_table_per_triple(strategy):
    """The Born table Tr[rho (A (x) B (x) C)], one contraction per input triple."""
    da, db, dc = strategy.party_dims
    rho = strategy.state.reshape(da, db, dc, da, db, dc)
    alice, bob, carole = strategy.effects
    table = np.empty((2, 3, 3, 4, 4, 4))
    for x, y, z in itertools.product(range(2), range(3), range(3)):
        p = np.einsum("abcdef,ida,jeb,kfc->ijk", rho, alice[x], bob[y], carole[z], optimize=True)
        table[x, y, z] = p.real
    return table.reshape(TABLE_SHAPE)


@pytest.mark.parametrize("name", list(_TABLE_STRATEGIES))
def test_stacked_behavior_matches_per_triple_contractions(name):
    strategy = _TABLE_STRATEGIES[name]()
    assert np.array_equal(behavior_from_strategy(strategy).table, _behavior_table_per_triple(strategy))


@pytest.mark.parametrize("name", list(_TABLE_STRATEGIES))
def test_collapse_tables_match_behavior_tables(name):
    strategy = _TABLE_STRATEGIES[name]()
    collapse, table = _collapse_table(strategy), _behavior_table(strategy)
    # The same table, and so the same cells above the cutoff in each code law.
    assert np.abs(collapse - table).max() <= 1e-12
    for gamma in (0.2, 0.9):
        assert np.array_equal(_p_code(collapse, gamma) > 0, _p_code(table, gamma) > 0)


def _rare_outcome_strategy(seed, delta):
    # A product of one projector of each party's input-0 family, mixed with
    # delta of a random state: most outcomes have probability of order
    # delta, where a state normalised by its Born probability instead of
    # its trace is off by a relative error of order 1e-16 / delta. Below
    # the cutoff, delta is rounding error, and a walk that followed such
    # outcomes would measure states that are not positive.
    rng = np.random.default_rng(seed)
    effects = random_projective_strategy(seed).effects
    product = effects[0][0, 0]  # label (0, 0)
    for party in (1, 2):
        product = np.kron(product, effects[party][0, 0])
    state = (1 - delta) * product + delta * random_density_operator(64, rng)
    return Strategy(state, effects)


@pytest.mark.parametrize("delta", [1e-18, 1e-16, 1e-14, 1e-12, 1e-10])
@pytest.mark.parametrize("seed", [0, 1])
def test_backends_agree_on_rare_outcomes(seed, delta):
    strategy = _rare_outcome_strategy(seed, delta)
    table, collapse = (
        run_rounds(ProtocolConfig(n_rounds=2000, seed=seed, bell_threshold=2.0, backend=backend), strategy)
        for backend in ("table", "collapse")
    )
    (test_table, data_table), (test_collapse, data_collapse) = _rounds(table), _rounds(collapse)
    assert np.array_equal(test_table, test_collapse)
    assert np.array_equal(data_table, data_collapse)
    # The tables hold joint probabilities given the inputs, with no
    # division by a conditioning's probability, so they agree as wholes,
    # the cells of order delta among them.
    assert np.abs(_collapse_table(strategy) - _behavior_table(strategy)).max() <= 1e-12


@pytest.mark.parametrize("kind, visibility", [("flagged", 1.0), ("flagged", 0.9), ("parallel", 0.97)])
def test_backends_agree_draw_for_draw_at_scale(kind, visibility):
    table, collapse = (
        run_rounds(ProtocolConfig(n_rounds=20000, seed=31, strategy_kind=kind, visibility=visibility, backend=backend))
        for backend in ("table", "collapse")
    )
    (test_table, data_table), (test_collapse, data_collapse) = _rounds(table), _rounds(collapse)
    assert np.array_equal(test_table, test_collapse)
    assert np.array_equal(data_table, data_collapse)


@settings(derandomize=True, deadline=None, max_examples=10)
@given(
    seed=hst.integers(0, 2**32 - 1),
    visibility=hst.sampled_from([1.0, 0.9]),
    n_rounds=hst.sampled_from([BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 7]),
    gamma=hst.floats(0.01, 0.99),
)
def test_backends_agree_draw_for_draw_on_random_strategies(seed, visibility, n_rounds, gamma):
    strategy = random_projective_strategy(seed, NoiseParams(visibility=visibility))
    table, collapse = (
        run_rounds(ProtocolConfig(n_rounds=n_rounds, gamma=gamma, seed=seed, backend=backend), strategy)
        for backend in ("table", "collapse")
    )
    (test_table, data_table), (test_collapse, data_collapse) = _rounds(table), _rounds(collapse)
    assert np.array_equal(test_table, test_collapse)
    assert np.array_equal(data_table, data_collapse)


def test_round_records_use_protocol_inputs():
    tr = run_rounds(ProtocolConfig(n_rounds=300, seed=1))
    test, data = _rounds(tr)
    assert test.shape == (300,) and data.shape == (300, len(COLUMNS))
    assert np.isin(data[:, 3:], (0, 1)).all()
    assert (data[~test, :3] == GENERATION_INPUTS).all()
    assert np.isin(data[test, :3], (0, 1)).all()
    assert test.any() and not test.all()


def test_message_schedule_through_completion():
    cfg = ProtocolConfig(n_rounds=2000, seed=6)
    result, tr = run_protocol(cfg)
    assert result.outcome == "completed"
    # After the last round: the flag and test-data announcements, then the XOR.
    kinds = [m.kind for m in tr.announcements]
    assert kinds == ["FlagAnnounce"] * 3 + ["TestDataAnnounce"] * 3 + ["XorAnnounce"]
    flags = [m for m in tr.announcements if m.kind == "FlagAnnounce"]
    assert [m.sender for m in flags] == ["alice", "bob", "carole"]
    # Payloads hold the transcript's codes and the column announced, not copies.
    _, data = _rounds(tr)
    for m, col in zip(flags, ("ta", "tb", "tc")):
        codes, column = m.payload
        assert np.array_equal(_rounds(Transcript("flagged", codes))[1][:, column], data[:, COLUMNS.index(col)])
        assert np.shares_memory(codes, tr.codes)
    test_data = [m.payload for m in tr.announcements if m.kind == "TestDataAnnounce"]
    assert all(codes is tr.codes for codes, _ in test_data)
    assert [columns for _, columns in test_data] == [
        tuple(COLUMNS.index(c) for c in party) for party in (("x", "a", "ta"), ("y", "b", "tb"), ("z", "c", "tc"))
    ]
    assert tr.announcements[-1].payload == result.k_xor


def test_postprocess_again_replaces_the_announcements():
    # The announcements are the record of the last postprocess call: a
    # second call's record replaces the first's, as if it were the only one.
    # At v = 0.85 the Bell value is 2.404, 0.40 above the local bound and
    # 0.42 below the quantum maximum; at 1800 expected test rounds its
    # estimate's standard error is about 0.075, so the first call completes
    # and the second aborts but with probability about 4e-8 (normal tails at
    # 5.4 and 5.6 standard errors).
    tr = run_rounds(ProtocolConfig(n_rounds=2000, seed=7, gamma=0.9, visibility=0.85))
    first = postprocess(tr, ProtocolConfig(n_rounds=2000, seed=7, bell_threshold=2.0))
    config = ProtocolConfig(n_rounds=2000, seed=7, bell_threshold=CHSH_QUANTUM_MAX)
    second = postprocess(tr, config)
    assert (first.outcome, second.abort_reason) == ("completed", "BellBelowThreshold")
    once = Transcript(tr.strategy_kind, tr.codes)
    postprocess(once, config)
    assert tr.announcements == once.announcements
    assert [m.kind for m in tr.announcements] == ["FlagAnnounce"] * 3 + ["TestDataAnnounce"] * 3 + ["AbortNotice"]


def _bits(text):
    return np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")


def _flag_codes(alice, bob, carole, test=0):
    """Codes of rounds whose three flags are the bit strings given, every
    other column 0."""
    flags = np.stack([_bits(f) for f in (alice, bob, carole)]).T.astype(np.intp)
    return (flags @ CELL_WEIGHTS[[COLUMNS.index(c) for c in ("ta", "tb", "tc")]] + test * len(_CELL_ROWS)).astype(np.uint16)


def _check_flags(codes):
    """check_flag_agreement on codes and their histogram, as postprocess calls it."""
    return check_flag_agreement(codes, _code_counts(codes))


def test_check_flag_agreement_verdicts():
    assert _check_flags(_flag_codes("0101", "0101", "0101")) == ("ok", {"p_t0_estimate": 0.5, "p_t1_estimate": 0.5})
    assert _check_flags(_flag_codes("0001", "0001", "0001", test=1)) == ("ok", {"p_t0_estimate": 0.75, "p_t1_estimate": 0.25})
    assert _check_flags(np.empty(0, np.uint16)) == ("ok", {"p_t0_estimate": None, "p_t1_estimate": None})
    mismatch = {"flag_mismatch_round": 2, "flag_mismatch_parties": ["alice"], "flag_mismatch_count": 2}
    assert _check_flags(_flag_codes("0111", "0100", "0101")) == ("FlagMismatch", mismatch)
    for t in "01":
        assert _check_flags(_flag_codes(t * 4, t * 4, t * 4)) == ("FlagConstant", {"flag_constant_value": int(t)})


def test_check_flag_agreement_reads_every_code_slot():
    # One round per code: a mismatch naming the party off the majority flag
    # when the decoded flags differ, else a constant at their value.
    flags = np.tile(_CELL_ROWS, (2, 1))[:, COLUMNS.index("ta") :: 2]
    for code, f in enumerate(flags.tolist()):
        verdict, stats = _check_flags(np.array([code], dtype=np.uint16))
        if len(set(f)) == 1:
            assert (verdict, stats) == ("FlagConstant", {"flag_constant_value": f[0]})
        else:
            odd = [name for name, flag in zip(PARTY_NAMES, f) if f.count(flag) == 1]
            assert (verdict, stats["flag_mismatch_parties"], stats["flag_mismatch_round"]) == ("FlagMismatch", odd, 0)


def test_check_flag_agreement_finds_a_mismatch_in_a_later_block():
    n = 3 * BLOCK_ROWS + 5
    flags = "01" * (n // 2) + "0"
    carole = list(flags)
    for r in (BLOCK_ROWS, 2 * BLOCK_ROWS + 3):
        carole[r] = "10"[int(carole[r])]
    verdict, stats = _check_flags(_flag_codes(flags, flags, "".join(carole)))
    assert verdict == "FlagMismatch"
    assert stats == {"flag_mismatch_round": BLOCK_ROWS, "flag_mismatch_parties": ["carole"], "flag_mismatch_count": 2}


def test_flag_step_holds_no_array_over_the_rounds():
    # Step 4 reads the codes a block at a time, so its temporaries are a
    # block's, tens of KB; one whole flag column would take 0.95 MiB here.
    tr = run_rounds(ProtocolConfig(n_rounds=1_000_000, seed=7))
    transcripts = {
        "ok": tr,
        "FlagMismatch": apply_tamper(tr, "flag-flip:0.01", np.random.default_rng(0)),
        "FlagConstant": apply_tamper(tr, "flag-constant:1", np.random.default_rng(0)),
    }
    for verdict, transcript in transcripts.items():
        counts = _code_counts(transcript.codes)
        assert check_flag_agreement(transcript.codes, counts)[0] == verdict
        peak_mb = _traced_peak(lambda: check_flag_agreement(transcript.codes, counts)) / 1e6
        assert peak_mb < 0.25, (verdict, peak_mb)


def _per_block_flag_step(codes):
    """Reference step 4: each BLOCK_ROWS block of codes mapped through a
    flag-class table decoded from _CELL_ROWS (t when all three flags read
    t, 2 when they differ) and counted, the first mismatch noted in the
    block that holds it."""
    flags = np.tile(_CELL_ROWS, (2, 1))[:, COLUMNS.index("ta") :: 2].T
    classes_of = np.where((flags == flags[0]).all(axis=0), flags[0], 2)
    counts, first = np.zeros(3, dtype=np.int64), None
    for start in range(0, len(codes), BLOCK_ROWS):
        classes = classes_of[codes[start : start + BLOCK_ROWS]]
        if first is None and (classes == 2).any():
            first = start + int(np.flatnonzero(classes == 2)[0])
        counts += np.bincount(classes, minlength=3)
    n, (n0, n1, mismatches) = len(codes), counts.tolist()
    if mismatches:
        f = flags[:, codes[first]].tolist()
        majority = int(sum(f) > 1)
        return "FlagMismatch", {
            "flag_mismatch_round": first,
            "flag_mismatch_parties": [name for name, flag in zip(PARTY_NAMES, f) if flag != majority],
            "flag_mismatch_count": mismatches,
        }
    if n and n0 in (0, n):
        return "FlagConstant", {"flag_constant_value": int(n1 == n)}
    return "ok", {"p_t0_estimate": n0 / n if n else None, "p_t1_estimate": n1 / n if n else None}


def _per_block_steps_4_5(transcript, config):
    """Reference steps 4 and 5: the abort reason they reach (None if the
    run goes on to step 6) and every stat they write. The test rounds'
    cells are selected block by block and counted one decoded row at a
    time."""
    codes, kind = transcript.codes, transcript.strategy_kind
    blocks = np.split(codes, range(BLOCK_ROWS, len(codes), BLOCK_ROWS))
    cells = np.concatenate([block[block >= len(_CELL_ROWS)] for block in blocks]).astype(np.intp) - len(_CELL_ROWS)
    stats = {"n_rounds": len(codes), "n_test": len(cells), "n_gen": len(codes) - len(cells), "strategy_kind": kind, "backend": config.backend}
    if kind == "flagged":
        verdict, flag_stats = _per_block_flag_step(codes)
        stats.update(flag_stats)
        if verdict != "ok":
            return verdict, stats
    counts = np.zeros(TABLE_SHAPE, dtype=np.int64)
    np.add.at(counts, tuple(_CELL_ROWS[cells].T), 1)
    estimate = estimate_behavior(counts)
    functional = BELL_FUNCTIONALS[kind]
    blocks = functional.block_values(estimate.behavior.table).tolist()
    observed, stderr = sum(blocks), bell_value_stderr(estimate, kind)
    threshold = _default_threshold(kind, len(cells)) if config.bell_threshold is None else config.bell_threshold
    stats.update(
        bell_stderr=stderr,
        bell_branches=dict(zip(functional.blocks, blocks)),
        bell_estimate=observed,
        bell_threshold=threshold,
        bell_margin_stderr=(observed - threshold) / stderr if 0.0 < stderr < math.inf else None,
        missing_test_inputs=[t for t in estimate.missing_inputs if all(v < 2 for v in t)],
    )
    return ("BellBelowThreshold" if observed < threshold else None), stats


def _steps_4_5_cases():
    """(name, transcript, config) cases for steps 4 and 5."""
    n = 3 * BLOCK_ROWS + 17
    config = ProtocolConfig(n_rounds=n, seed=8, visibility=0.97)
    tr = run_rounds(config)
    tb = CELL_WEIGHTS[COLUMNS.index("tb")]
    # Bob's flag flipped at one round, and at that round and the last.
    for rounds in ([0], [0, n - 1], [BLOCK_ROWS - 1], [BLOCK_ROWS - 1, n - 1], [BLOCK_ROWS], [BLOCK_ROWS, n - 1], [n - 1]):
        codes = tr.codes.copy()
        codes[rounds] ^= np.uint16(tb)
        yield f"mismatch-at-{rounds}", Transcript("flagged", codes), config
    for t in "01":
        yield f"constant-{t}", apply_tamper(tr, f"flag-constant:{t}", np.random.default_rng(0)), config
    yield "completed", tr, config
    for kind in ("flagged", "parallel"):
        for m in (0, 1):
            yield f"{kind}-{m}-rounds", Transcript(kind, run_rounds(replace(config, n_rounds=1, strategy_kind=kind)).codes[:m]), config
        run_config = replace(config, strategy_kind=kind, n_rounds=2 * BLOCK_ROWS + 1, visibility=0.9)
        run = run_rounds(run_config)
        yield f"{kind}-run", run, run_config
        yield f"{kind}-below-threshold", run, replace(run_config, bell_threshold=BELL_FUNCTIONALS[kind].quantum_max)


@pytest.mark.parametrize("transcript, config", [pytest.param(tr, config, id=name) for name, tr, config in _steps_4_5_cases()])
def test_code_histogram_gives_the_per_block_steps_4_5(transcript, config):
    # Steps 4 and 5 read the rounds only through the codes' histogram; a
    # per-block reference gives the same abort reason and the same stats,
    # every one of them, and check_flag_agreement its per-block verdict.
    reason, expected = _per_block_steps_4_5(transcript, config)
    result = postprocess(transcript, config)
    if reason is None:
        assert result.outcome == "completed"
        got = {key: result.stats[key] for key in expected}
    else:
        assert (result.outcome, result.abort_reason) == ("aborted", reason)
        got = result.stats
    assert got == expected
    if transcript.strategy_kind == "flagged":
        assert _check_flags(transcript.codes) == _per_block_flag_step(transcript.codes)


@pytest.mark.parametrize("kind", ["flagged", "parallel"])
def test_empty_transcript_aborts_below_threshold(kind):
    # No test rounds: the Bell value 0 is below every threshold, and a
    # flagged run's branch weights are undefined.
    result = postprocess(Transcript(kind, np.empty(0, np.uint16)), ProtocolConfig(strategy_kind=kind))
    assert (result.outcome, result.abort_reason) == ("aborted", "BellBelowThreshold")
    assert result.stats["n_rounds"] == result.stats["n_test"] == 0
    assert result.stats["bell_estimate"] == 0.0
    if kind == "flagged":
        assert result.stats["p_t0_estimate"] is None and result.stats["p_t1_estimate"] is None
    else:
        assert "p_t0_estimate" not in result.stats
    json.loads(result_to_json(result))


def _synthetic_transcript(rows, kind="flagged"):
    test = np.array([rt == "test" for rt, _, _ in rows], dtype=bool)
    data = np.array([(*inputs, *(bit for out in outputs for bit in out)) for _, inputs, outputs in rows], dtype=np.int8)
    return _transcript(kind, test, data.reshape(len(rows), len(COLUMNS)))


def test_sift_routes_by_flag():
    rows = [
        ("generation", (0, 2, 2), ((1, 0), (1, 0), (0, 0))),   # ab, match
        ("test", (1, 1, 0), ((0, 0), (1, 0), (0, 0))),          # ignored
        ("generation", (0, 2, 2), ((1, 1), (0, 1), (1, 1))),   # ac, match
        ("generation", (0, 2, 2), ((0, 0), (1, 0), (1, 0))),   # ab, mismatch
        ("generation", (0, 2, 2), ((1, 1), (1, 1), (0, 1))),   # ac, mismatch
    ]
    keys = sift_pair_keys(_synthetic_transcript(rows))
    assert list(keys) == ["ab", "ac"]
    assert [key.tolist() for key in keys["ab"]] == [[1, 0], [1, 1]]
    assert [key.tolist() for key in keys["ac"]] == [[1, 1], [1, 0]]
    assert all(np.count_nonzero(alice != partner) == 1 for alice, partner in keys.values())
    assert all(key.dtype == np.uint8 for pair in keys.values() for key in pair)


def test_alignment_drops_the_sampled_bits():
    # Per pair, choice(n_pair, k) picks the positions of the sifted key
    # that are compared and dropped; the other bits stay, in order.
    keys = sift_pair_keys(run_rounds(ProtocolConfig(n_rounds=2000, seed=3, visibility=0.8)))
    res = alignment_test(keys, 0.1, 0.5, np.random.default_rng(4))
    assert list(res.kept) == ["ab", "ac"]
    draws = np.random.default_rng(4)
    for pair, (alice, partner) in keys.items():
        sampled = draws.choice(len(alice), size=math.ceil(0.1 * len(alice)), replace=False)
        keep = np.setdiff1d(np.arange(len(alice)), sampled)
        kept_alice, kept_partner = res.kept[pair]
        assert np.array_equal(kept_alice, alice[keep])
        assert np.array_equal(kept_partner, partner[keep])
        assert res.match_rates[pair] == np.count_nonzero(alice[sampled] == partner[sampled]) / len(sampled) < 1.0
    assert res.ok


def test_sift_parallel_feeds_both_keys():
    rows = [
        ("generation", (0, 2, 2), ((1, 0), (1, 1), (1, 0))),
        ("generation", (0, 2, 2), ((0, 1), (0, 0), (0, 1))),
    ]
    keys = sift_pair_keys(_synthetic_transcript(rows, kind="parallel"))
    # First bits go to Alice-Bob, second bits to Alice-Carole.
    assert list(keys) == ["ab", "ac"]
    assert [key.tolist() for key in keys["ab"]] == [[1, 0], [1, 0]]
    assert [key.tolist() for key in keys["ac"]] == [[0, 1], [0, 1]]
    assert all(np.array_equal(alice, partner) for alice, partner in keys.values())


def test_xor_reconcile():
    k_xor, k_cka = xor_reconcile(_bits("1010"), _bits("0110"))
    assert k_cka.tolist() == [1, 0, 1, 0]
    assert k_xor.tolist() == [1, 1, 0, 0]
    # Carole's side: k_xor XOR k_ac recovers the conference key.
    recovered = k_xor ^ _bits("0110")
    assert np.array_equal(recovered, k_cka)
    # truncation to the shorter key
    k_xor, k_cka = xor_reconcile(_bits("10101"), _bits("011"))
    assert len(k_xor) == len(k_cka) == 3
    # Two empty keys, as after a run with no generation round.
    k_xor, k_cka = xor_reconcile(_bits(""), _bits(""))
    assert k_xor.dtype == k_cka.dtype == np.uint8
    assert len(k_xor) == len(k_cka) == 0


# Per strategy kind and pair: the (Alice's, partner's) key-bit columns.
_KEY_COLUMNS = {"flagged": {"ab": ("a", "b"), "ac": ("a", "c")}, "parallel": {"ab": ("a", "b"), "ac": ("ta", "tc")}}


def test_route_tables_read_each_pairs_bell_block():
    # protocol's routing is read off bell's block table: per kind and pair,
    # the generation codes marked are exactly those whose cells the pair's
    # block gates, on every flag it fixes, and the key bits are the block's
    # "a" and "b" columns.
    codes = np.arange(2 * len(_CELL_ROWS))
    test, rows = codes >= len(_CELL_ROWS), _CELL_ROWS[codes % len(_CELL_ROWS)]
    for kind, blocks in _BLOCK_CELLS.items():
        pairs = dict(zip(("ab", "ac"), blocks.values()))
        assert list(_ROUTE_TABLES[kind]) == list(pairs)
        for pair, cells in pairs.items():
            feeds, bits = _ROUTE_TABLES[kind][pair]
            assert bits.dtype == np.uint8
            alice, partner = bits >> 1, bits & 1
            gated = np.ones(len(codes), dtype=bool)
            for axis, value in enumerate(cells):
                if isinstance(value, int):
                    gated &= rows[:, axis] == value
            assert feeds.dtype == bool and np.array_equal(feeds, ~test & gated)
            assert alice.dtype == partner.dtype == np.uint8
            assert np.array_equal(alice, rows[:, cells.index("a")])
            assert np.array_equal(partner, rows[:, cells.index("b")])
            # The block's partner, bits and flags are the ones the protocol routes:
            # Alice-Bob on flag 0, Alice-Carole on flag 1, or every round.
            assert cells.index("w") == PARTY_NAMES.index({"b": "bob", "c": "carole"}[pair[1]])
            assert [COLUMNS[cells.index(v)] for v in "ab"] == list(_KEY_COLUMNS[kind][pair])
            fixed = {COLUMNS[axis]: v for axis, v in enumerate(cells) if isinstance(v, int)}
            t = ("ab", "ac").index(pair)
            assert fixed == ({"ta": t, "tb": t, "tc": t} if kind == "flagged" else {})


def test_sift_without_exclusions_keeps_every_routed_round():
    for kind in ("flagged", "parallel"):
        tr = run_rounds(ProtocolConfig(n_rounds=2000, seed=13, strategy_kind=kind))
        keys = sift_pair_keys(tr)
        test, data = _rounds(tr)
        gen = ~test
        if kind == "flagged":
            flags = data[:, [COLUMNS.index(c) for c in ("ta", "tb", "tc")]]
            routed = {"ab": gen & (flags == 0).all(axis=1), "ac": gen & (flags == 1).all(axis=1)}
        else:
            routed = {"ab": gen, "ac": gen}
        assert list(keys) == list(routed)
        for pair, (alice_key, partner_key) in keys.items():
            alice, partner = (COLUMNS.index(c) for c in _KEY_COLUMNS[kind][pair])
            assert np.array_equal(alice_key, data[routed[pair], alice])
            assert np.array_equal(partner_key, data[routed[pair], partner])


def _reference_bit_string(bits):
    return (np.asarray(bits, dtype=np.uint8) | 48).tobytes().decode("ascii")


def _reference_xor_strings(u, v):
    return _reference_bit_string(np.frombuffer(u.encode(), dtype=np.uint8) ^ np.frombuffer(v.encode(), dtype=np.uint8))


def _reference_sift(tr, pair):
    """The pair's (Alice's, partner's) key as '0'/'1' strings, routed round
    by round: a flagged round feeds the pair whose flag all three carry."""
    alice, partner = (COLUMNS.index(c) for c in _KEY_COLUMNS[tr.strategy_kind][pair])
    flag = ("ab", "ac").index(pair)
    flags = [COLUMNS.index(c) for c in ("ta", "tb", "tc")]
    test, data = _rounds(tr)
    rows = [
        r
        for r in range(len(test))
        if not test[r] and (tr.strategy_kind == "parallel" or all(data[r, c] == flag for c in flags))
    ]
    return _reference_bit_string(data[rows, alice]), _reference_bit_string(data[rows, partner])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    seed=hst.integers(0, 2**32 - 1),
    kind=hst.sampled_from(["flagged", "parallel"]),
    n_rounds=hst.integers(0, 60),
    fraction=hst.sampled_from([0.0, 0.3, 0.9]),
)
def test_array_keys_match_the_string_reference(seed, kind, n_rounds, fraction):
    rng = np.random.default_rng(seed)
    test = rng.random(n_rounds) < 0.3
    data = np.empty((n_rounds, len(COLUMNS)), dtype=np.int8)
    data[:, :3] = np.where(test[:, None], rng.integers(0, 2, (n_rounds, 3)), GENERATION_INPUTS)
    data[:, 3:] = rng.integers(0, 2, (n_rounds, 6))
    tr = _transcript(kind, test, data)
    keys = sift_pair_keys(tr)
    reference = {pair: _reference_sift(tr, pair) for pair in ("ab", "ac")}
    assert {pair: tuple(map(_bit_string, key)) for pair, key in keys.items()} == reference
    # The spot check drops the bits at choice(n_pair, k), Alice-Bob first.
    kept = alignment_test(keys, fraction, 1.0, np.random.default_rng(seed)).kept
    draws = np.random.default_rng(seed)
    for pair, (alice, partner) in reference.items():
        k = math.ceil(fraction * len(alice))
        dropped = set(draws.choice(len(alice), size=k, replace=False).tolist()) if k else set()
        reference[pair] = tuple("".join(bit for i, bit in enumerate(key) if i not in dropped) for key in (alice, partner))
    assert {pair: tuple(map(_bit_string, key)) for pair, key in kept.items()} == reference
    (ab_alice, ab_partner), (ac_alice, ac_partner) = reference.values()
    k_xor, k_cka = xor_reconcile(kept["ab"][0], kept["ac"][0])
    m = min(len(ab_alice), len(ac_alice))
    reference_xor = _reference_xor_strings(ab_alice[:m], ac_alice[:m])
    assert _bit_string(k_xor) == reference_xor
    assert _bit_string(k_cka) == ab_alice[:m]
    # The rendered keys of Bob and of Carole, who recovers hers from the announced XOR.
    assert _bit_string(kept["ab"][1][:m]) == ab_partner[:m]
    assert _bit_string(k_xor ^ kept["ac"][1][:m]) == _reference_xor_strings(reference_xor, ac_partner[:m])


def test_alignment_vacuous_at_fraction_zero():
    keys = sift_pair_keys(run_rounds(ProtocolConfig(n_rounds=200, seed=8)))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    res = alignment_test(keys, 0.0, 0.98, rng)
    assert res.ok
    assert res.match_rates == {"ab": None, "ac": None}
    assert list(res.kept) == ["ab", "ac"]
    for pair, (alice, partner) in keys.items():
        assert res.kept[pair][0] is alice and res.kept[pair][1] is partner
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("fraction", [-0.1, 1.0, math.nan])
def test_alignment_refuses_a_fraction_outside_its_range(fraction):
    keys = sift_pair_keys(run_rounds(ProtocolConfig(n_rounds=200, seed=8)))
    with pytest.raises(ValueError, match=rf"^fraction must be in \[0, 1\), got {fraction}$"):
        alignment_test(keys, fraction, 0.98, np.random.default_rng(0))


@pytest.mark.parametrize("kind", ["flagged", "parallel"])
def test_vacuous_alignment_keeps_no_round_arrays(kind):
    # At fraction 0 the check keeps each pair's sifted arrays themselves,
    # not copies (0.16-0.32 MB per pair at 1e5 rounds), and draws nothing.
    keys = sift_pair_keys(run_rounds(ProtocolConfig(n_rounds=100_000, seed=31, strategy_kind=kind)))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    tracemalloc.start()
    try:
        res = alignment_test(keys, 0.0, 0.98, rng)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.ok and res.match_rates == {"ab": None, "ac": None}
    for pair, (alice, partner) in keys.items():
        assert res.kept[pair][0] is alice and res.kept[pair][1] is partner
    assert rng.bit_generator.state == state
    assert kept < 4096, kept
    assert peak < 64 * 1024, peak


def test_alignment_passes_on_honest_run():
    keys = sift_pair_keys(run_rounds(ProtocolConfig(n_rounds=400, seed=8)))
    res = alignment_test(keys, 0.25, 0.98, np.random.default_rng(1))
    assert res.ok
    assert res.match_rates["ab"] == 1.0
    assert res.match_rates["ac"] == 1.0
    for pair, (alice, partner) in res.kept.items():
        n_pair = len(keys[pair][0])
        assert len(alice) == len(partner) == n_pair - math.ceil(0.25 * n_pair)
        assert np.array_equal(alice, partner)


def test_alignment_catches_value_corruption():
    tr = run_rounds(ProtocolConfig(n_rounds=400, seed=9))
    test, data = _rounds(tr)
    data[~test, COLUMNS.index("b")] ^= 1  # Bob's value on every generation round
    bad = _transcript("flagged", test, data)
    res = alignment_test(sift_pair_keys(bad), 0.3, 0.98, np.random.default_rng(2))
    assert not res.ok
    assert res.match_rates["ab"] == pytest.approx(0.0)


def test_default_threshold_clamps():
    assert _default_threshold("flagged", 0) == CHSH_QUANTUM_MAX
    assert _default_threshold("flagged", 4) == 2.0  # 1 - 10/2 < 0 clamps to the local bound
    n = 10_000
    expected = CHSH_QUANTUM_MAX * (1.0 - 10.0 / math.sqrt(n))
    assert _default_threshold("flagged", n) == pytest.approx(expected)
    assert _default_threshold("parallel", 4) == 4.0
    assert _default_threshold("parallel", 0) == BELL_FUNCTIONALS["parallel"].quantum_max


def test_honest_runs_complete_with_identical_keys():
    for seed in range(5):
        result, _ = run_protocol(ProtocolConfig(n_rounds=2000, gamma=0.2, seed=seed))
        assert result.outcome == "completed"
        assert result.keys["alice"] == result.keys["bob"] == result.keys["carole"]
        assert result.stats["mismatch_ab"] == 0
        assert result.stats["mismatch_ac"] == 0
        assert len(result.keys["alice"]) == result.stats["key_length"] > 0


def test_flag_flip_tamper_aborts():
    cfg = ProtocolConfig(n_rounds=1000, seed=13)
    tr = run_rounds(cfg)
    for rate in (0.001, 0.05, 1.0):
        bad = apply_tamper(tr, f"flag-flip:{rate}", np.random.default_rng(0))
        res = postprocess(bad, cfg)
        assert res.outcome == "aborted"
        assert res.abort_reason == "FlagMismatch"
        assert res.keys == {}


def test_flag_constant_tamper_aborts():
    cfg = ProtocolConfig(n_rounds=1000, seed=13)
    tr = run_rounds(cfg)
    for t in (0, 1):
        bad = apply_tamper(tr, f"flag-constant:{t}", np.random.default_rng(0))
        res = postprocess(bad, cfg)
        assert res.outcome == "aborted"
        assert res.abort_reason == "FlagConstant"


def test_tamper_validation():
    tr = run_rounds(ProtocolConfig(n_rounds=50, seed=0))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        apply_tamper(tr, "flag-flip:0", rng)
    with pytest.raises(ValueError):
        apply_tamper(tr, "flag-flip:abc", rng)
    with pytest.raises(ValueError):
        apply_tamper(tr, "flag-constant:2", rng)
    with pytest.raises(ValueError, match="tamper flag value must be 0 or 1, got 'x'"):
        apply_tamper(tr, "flag-constant:x", rng)
    # One spelling per value: the value is never implied.
    for spec in ("flag-constant", "flag-constant:"):
        with pytest.raises(ValueError, match="tamper flag value must be 0 or 1, got ''$"):
            apply_tamper(tr, spec, rng)
    with pytest.raises(ValueError):
        apply_tamper(tr, "bit-flip:0.1", rng)
    tr_par = run_rounds(ProtocolConfig(n_rounds=50, seed=0, strategy_kind="parallel"))
    with pytest.raises(ValueError):
        apply_tamper(tr_par, "flag-flip:0.1", rng)


def test_tamper_does_not_mutate_original():
    cfg = ProtocolConfig(n_rounds=200, seed=14)
    tr = run_rounds(cfg)
    test_before, data_before = _rounds(tr)
    apply_tamper(tr, "flag-constant:0", np.random.default_rng(0))
    test_after, data_after = _rounds(tr)
    assert np.array_equal(test_after, test_before) and np.array_equal(data_after, data_before)
    assert postprocess(tr, cfg).outcome == "completed"


def test_low_visibility_aborts_below_threshold():
    res, _ = run_protocol(ProtocolConfig(n_rounds=3000, seed=2, visibility=0.5))
    assert res.outcome == "aborted"
    assert res.abort_reason == "BellBelowThreshold"
    assert res.stats["bell_estimate"] < res.stats["bell_threshold"]


# A spot check of a fifth of each sifted key, with a floor above the match
# rate that v = 0.9 gives (about 0.95).
_MISALIGNED = dict(n_rounds=20000, seed=7, visibility=0.9, alignment_fraction=0.2, alignment_floor=0.99)


def test_every_abort_reason_is_reached():
    # One seeded run per reason, AlignmentFailure for both kinds: each
    # reason the protocol names is one that some run ends with.
    tampered = ProtocolConfig(n_rounds=1000, seed=13)
    runs = [
        ("FlagMismatch", tampered, "flag-flip:0.01"),
        ("FlagConstant", tampered, "flag-constant:0"),
        # At v = 0.3 the Bell value is 0.85; at 1000 expected test rounds the
        # default threshold is the local bound 2 and the estimate's standard
        # error about 0.13, so the run completes with probability below 1e-18
        # (the normal tail at 9 standard errors).
        ("BellBelowThreshold", ProtocolConfig(n_rounds=5000, seed=4, visibility=0.3), None),
        ("AlignmentFailure", ProtocolConfig(**_MISALIGNED, bell_threshold=2.0), None),
        ("AlignmentFailure", ProtocolConfig(**_MISALIGNED, strategy_kind="parallel", bell_threshold=4.0), None),
    ]
    reached = set()
    for reason, cfg, tamper in runs:
        transcript = run_rounds(cfg)
        if tamper is not None:
            transcript = apply_tamper(transcript, tamper, np.random.default_rng(0))
        result = postprocess(transcript, cfg)
        assert (result.outcome, result.abort_reason) == ("aborted", reason), (reason, cfg)
        if reason == "AlignmentFailure":
            rates = result.stats["alignment_match_rates"]
            assert 0.9 < min(rates.values()) < cfg.alignment_floor, rates
        reached.add(reason)
    assert reached == set(ABORT_REASONS)


def test_mismatch_rate_tracks_visibility():
    v = 0.9
    res, _ = run_protocol(ProtocolConfig(n_rounds=30000, seed=2, visibility=v, bell_threshold=2.0))
    assert res.outcome == "completed"
    expected = (1.0 - v) / 2.0
    for pair in ("ab", "ac"):
        n = res.stats[f"len_{pair}"]
        rate = res.stats[f"mismatch_rate_{pair}"]
        sigma = math.sqrt(expected * (1.0 - expected) / n)
        assert abs(rate - expected) < 3.0 * sigma


def test_sifted_rate_near_half():
    res, _ = run_protocol(ProtocolConfig(n_rounds=10000, gamma=0.2, seed=21))
    assert res.outcome == "completed"
    assert abs(res.stats["sifted_rate"] - 0.5) < 0.02


def test_parallel_protocol_completes():
    res, tr = run_protocol(ProtocolConfig(n_rounds=3000, seed=9, strategy_kind="parallel"))
    assert res.outcome == "completed"
    assert res.keys["alice"] == res.keys["bob"] == res.keys["carole"]
    # No flag register: the flag steps are skipped entirely.
    assert not any(m.kind == "FlagAnnounce" for m in tr.announcements)
    assert "p_t0_estimate" not in res.stats
    # Every generation round feeds both pair keys.
    assert res.stats["len_ab"] == res.stats["len_ac"] == res.stats["n_gen"]
    assert res.stats["bell_threshold"] >= 4.0


def test_parallel_run_reports_bell_stderr():
    res, _ = run_protocol(ProtocolConfig(n_rounds=3000, seed=9, strategy_kind="parallel"))
    se = res.stats["bell_stderr"]
    assert math.isfinite(se) and 0.0 < se < 1.0
    assert set(res.stats["bell_branches"]) == {"pair_ab", "pair_ac"}
    assert sum(res.stats["bell_branches"].values()) == res.stats["bell_estimate"]


def test_config_json_roundtrip():
    cfg = ProtocolConfig(
        n_rounds=5000,
        gamma=0.25,
        bell_threshold=2.4,
        alignment_fraction=0.1,
        alignment_floor=0.95,
        seed=77,
        strategy_kind="flagged",
        visibility=0.97,
        backend="collapse",
    )
    back = config_from_json(config_to_json(cfg))
    assert back == cfg
    # default threshold survives as null
    assert config_from_json(config_to_json(ProtocolConfig())).bell_threshold is None


def test_config_json_rejects_unknown_keys():
    with pytest.raises(ValueError):
        config_from_json('{"n_rounds": 100, "rounds": 7}')


def test_config_json_text_is_pinned():
    config = ProtocolConfig(seed=3, strategy_kind="parallel", visibility=0.9, backend="collapse")
    assert config_to_json(config) == (
        '{"n_rounds": 1000, "gamma": 0.2, "threshold": null, "alignment_fraction": 0.0, "alignment_floor": 0.98, '
        '"seed": 3, "strategy": {"kind": "parallel", "visibility": 0.9}, "backend": "collapse"}'
    )
    partial = config_from_json('{"threshold": null, "strategy": {"visibility": 0.5}}')
    assert partial == ProtocolConfig(visibility=0.5)
    # An integral JSON number is an integer, whatever its notation.
    assert config_from_json('{"n_rounds": 1e6, "seed": 3.0}') == ProtocolConfig(n_rounds=1_000_000, seed=3)


_STRATEGY_OBJECT = "config 'strategy' must be an object with keys 'kind' and 'visibility'"


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"rounds": 7, "n_rounds": 1, "kind": 0}', "unknown config keys: ['kind', 'rounds']"),
        ('{"strategy": 3}', _STRATEGY_OBJECT),
        ('{"strategy": {"kind": "flagged", "noise": 0}}', _STRATEGY_OBJECT),
        ('{"threshold": "high"}', "config 'threshold' must be a number, got \"high\""),
        ('{"n_rounds": "1.5"}', "config 'n_rounds' must be an integer, got \"1.5\""),
        ('{"n_rounds": 1.5}', "config 'n_rounds' must be an integer, got 1.5"),
        ('{"n_rounds": true}', "config 'n_rounds' must be an integer, got true"),
        ('{"seed": 2.7}', "config 'seed' must be an integer, got 2.7"),
        ('{"seed": false}', "config 'seed' must be an integer, got false"),
        ('{"gamma": true}', "config 'gamma' must be a number, got true"),
        ('{"threshold": true}', "config 'threshold' must be a number, got true"),
        ('{"alignment_fraction": false}', "config 'alignment_fraction' must be a number, got false"),
        ('{"alignment_floor": true}', "config 'alignment_floor' must be a number, got true"),
        ('{"strategy": {"visibility": true}}', "config 'visibility' must be a number, got true"),
        ('{"strategy": {"kind": "ghz"}}', "unknown strategy kind 'ghz'"),
        ('{"seed": null}', "config 'seed' must be an integer, got null"),
        ('{"n_rounds": [1000]}', "config 'n_rounds' must be an integer, got [1000]"),
        ('{"gamma": null}', "config 'gamma' must be a number, got null"),
        ('{"alignment_floor": {"floor": 0.9}}', "config 'alignment_floor' must be a number, got {\"floor\": 0.9}"),
        ('{"strategy": {"visibility": "0.9"}}', "config 'visibility' must be a number, got \"0.9\""),
        ('{"strategy": {"kind": null}}', "config 'kind' must be a string, got null"),
        ('{"backend": 1}', "config 'backend' must be a string, got 1"),
        ('[{"n_rounds": 100}]', "config JSON must be an object"),
    ],
)
def test_config_json_error_messages(text, message):
    with pytest.raises(ValueError) as excinfo:
        config_from_json(text)
    assert str(excinfo.value) == message


def test_transcript_jsonl():
    tr = run_rounds(ProtocolConfig(n_rounds=40, seed=1))
    lines = transcript_to_jsonl(tr).strip().splitlines()
    assert len(lines) == 40
    first = json.loads(lines[0])
    assert first["index"] == 0
    assert first["type"] in ("test", "generation")
    assert len(first["outputs"]) == 3


def test_result_json():
    res, _ = run_protocol(ProtocolConfig(n_rounds=2000, seed=4))
    doc = json.loads(result_to_json(res))
    assert doc["outcome"] == "completed"
    assert set(doc["keys"]) == {"alice", "bob", "carole"}
    assert doc["stats"]["key_length"] == len(doc["keys"]["alice"])
    # The per-pair key stats, in their output order.
    per_pair = [key for key in doc["stats"] if key.startswith(("len_", "mismatch_"))]
    assert per_pair == ["len_ab", "len_ac", "mismatch_ab", "mismatch_ac", "mismatch_rate_ab", "mismatch_rate_ac"]


def test_run_rounds_rejects_mismatched_strategy():
    from flagcka.strategies import honest_parallel_strategy

    with pytest.raises(ValueError):
        run_rounds(ProtocolConfig(n_rounds=10, strategy_kind="flagged"), honest_parallel_strategy())


def _diagonal_family():
    labels = [(0, 0), (0, 1), (1, 0), (1, 1)]
    return {label: np.diag(np.eye(4)[i]).astype(complex) for i, label in enumerate(labels)}


@pytest.mark.parametrize(
    "probs, draw, expected",
    [
        ([0.25, 0.25, 0.25, 0.25], 0.0, 0),
        ([0.25, 0.25, 0.25, 0.25], 0.25, 1),           # exactly on an edge: the upper bin
        ([0.25, 0.25, 0.25, 0.25], 0.75, 3),
        ([0.5, 0.0, 0.5, 0.0], 0.5, 2),                 # edge shared with a zero-width bin
        ([0.0, 0.5, 0.5, 0.0], 0.0, 1),                 # zero-width first bin
        ([0.5, 0.5 - 1e-12, 0.0, 0.0], 1.0 - 1e-13, 1),  # dust, trailing zero-width bins
        ([1.0 - 1e-12, 0.0, 0.0, 0.0], 1.0 - 1e-13, 0),  # dust, only the first bin is wide
        ([0.25, 0.25, 0.25, 0.25 - 1e-12], 1.0 - 1e-13, 3),
    ],
)
def test_vectorised_pick_follows_collapse_rule(probs, draw, expected):
    picked = int(_codes_of(np.array(probs), np.array([draw]))[0])
    (value, flag), _ = measure_collapse(np.diag(probs).astype(complex), _diagonal_family(), draw)
    assert picked == 2 * value + flag == select_outcome(probs, draw) == expected
    assert probs[picked] > 0.0


def _three_comparison_pick(sampler, draws):
    """The guided pick without its fallback: the bucket's start and
    _GUIDE_STEPS forward steps, one comparison each; the check for draws
    still short makes three."""
    edges, guide, _ = sampler
    index = guide[(draws * _GUIDE_BUCKETS).astype(np.intp)]
    for _ in range(_GUIDE_STEPS):
        index += edges[index] <= draws
    return index


def _crowded_law():
    """A law of 2304 cells, 2000 of them crowded into the first bucket of
    the guide table, so most draws there need the searchsorted fallback."""
    law = np.zeros(len(_CELL_ROWS) * 2)
    law[:2000] = 1e-9
    law[2000:2300:3] = 1.0
    return law


def test_pick_is_row_wise():
    # Each draw takes the cell it takes alone, whatever else its block
    # holds: guided draws and draws that fall back to searchsorted, here
    # in the crowded first bucket, mixed in one block.
    law = _crowded_law()
    edges, _, _ = _sampler(law)
    draws = np.concatenate((np.random.default_rng(3).random(500), edges[:-1:7], np.nextafter(edges[:-1:5], 0.0)))
    draws = draws[draws < 1.0]
    assert (draws < 1.0 / _GUIDE_BUCKETS).sum() > 100
    alone = [int(_codes_of(law, draws[k : k + 1])[0]) for k in range(len(draws))]
    assert _codes_of(law, draws).tolist() == alone


def test_searchsorted_fallback_on_a_crowded_bucket(monkeypatch):
    # Draws short of their cell after the guided steps take searchsorted's
    # count, in one call for just those draws. In the crowded first bucket
    # almost every draw is short by about 2000 cells.
    law = _crowded_law()
    sampler = _sampler(law)
    edges, guide, cells = sampler
    assert guide[1] - guide[0] == 2000
    draws = np.random.default_rng(4).random(4096) / _GUIDE_BUCKETS
    index = np.searchsorted(edges, draws, side="right")
    short = np.count_nonzero(_three_comparison_pick(sampler, draws) < index)
    calls = []
    original = np.searchsorted
    monkeypatch.setattr(np, "searchsorted", lambda a, v, side: calls.append(len(v)) or original(a, v, side=side))
    codes = _draw_codes(sampler, draws, np.empty(len(draws), dtype=np.uint16))
    monkeypatch.undo()
    assert codes.tolist() == cells[index].tolist()
    assert calls == [short] and short > 4000


def _argmax_pick(edges, draws):
    """Reference pick over the closed edges: the first edge above the draw,
    by argmax."""
    return (draws[:, None] < edges).argmax(axis=1)


# Cell masses with zero cells, masses below float resolution at 1 (which
# leave an edge equal to the one before) and laws whose total falls short
# of 1 or exceeds it by rounding, as a behavior table's may.
_BIN_WIDTHS = hst.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0 / 3.0, 1.0, 1e-12, 1e-14, 1e-300, 0.5 - 1e-12, 1.0 - 1e-12])
_DRAWS = hst.one_of(
    hst.floats(0.0, 1.0, exclude_max=True),
    hst.sampled_from([0.0, 1e-12, 0.25, 1.0 / 3.0, 0.5, 1.0 - 1e-12, 1.0 - 1e-13, 1.0 - 2.0**-53]),
)
_LAWS = hst.lists(_BIN_WIDTHS, min_size=1, max_size=24).filter(lambda widths: max(widths) > 0.0)


def _near_edges(edges):
    """Every edge below 1 of a sampler, the floats just below and above it,
    and every guide bucket start and the float below it, as draws."""
    starts = np.arange(_GUIDE_BUCKETS) / _GUIDE_BUCKETS
    near = np.concatenate((np.nextafter(edges, -1.0), edges, np.nextafter(edges, 2.0), starts, np.nextafter(starts, -1.0)))
    return near[(near >= 0.0) & (near < 1.0)]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(widths=_LAWS, draws=hst.lists(_DRAWS, min_size=1, max_size=20))
def test_pick_counts_passed_edges_as_argmax_does(widths, draws):
    law = np.array(widths)
    edges, _, cells = _sampler(law)
    draws = np.concatenate((draws, _near_edges(edges)))
    assert np.array_equal(_codes_of(law, draws), cells[_argmax_pick(edges, draws)])


@settings(derandomize=True, deadline=None, max_examples=300)
@given(widths=_LAWS, draws=hst.lists(_DRAWS, min_size=1, max_size=20))
def test_closed_tables_pick_as_the_per_block_dust_rule(widths, draws):
    # The float dust: the draws at or above the last edge below the top,
    # up to the last float below 1, all take the last positive cell, so
    # no draw falls off the end of a law that sums short of 1.
    law = np.array(widths)
    edges, _, cells = _sampler(law)
    top = edges[-2] if len(edges) > 1 else 0.0
    dust = np.array([top, np.nextafter(top, 2.0), 1.0 - 2.0**-53, *(top + np.array(draws) * (1.0 - top))])
    dust = dust[(dust >= top) & (dust < 1.0)]
    assert (_codes_of(law, dust) == np.flatnonzero(law)[-1]).all()
    assert cells[-1] == np.flatnonzero(law)[-1]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(widths=_LAWS, draws=hst.lists(_DRAWS, min_size=1, max_size=20))
def test_closed_tables_end_in_one_and_pick_with_three_comparisons(widths, draws):
    # The edges rise to 1, the last is closed above it, and the cells are
    # the positive ones in ascending order. A draw with at most
    # _GUIDE_STEPS edges between its bucket's start and itself is at its
    # cell after the guided steps; any other is short of it, and only
    # those fall back.
    law = np.array(widths)
    sampler = _sampler(law)
    edges, guide, cells = sampler
    assert np.array_equal(cells, np.flatnonzero(law)) and cells.dtype == np.uint16
    assert edges[-1] == 2.0 and (np.diff(edges) >= 0.0).all() and (edges[:-1] <= 1.0).all()
    cumulative = np.cumsum(law[cells])
    assert np.array_equal(edges[:-1], (cumulative / cumulative[-1])[:-1])
    draws = np.concatenate((draws, _near_edges(edges)))
    index = np.searchsorted(edges, draws, side="right")
    guided = _three_comparison_pick(sampler, draws)
    within = index - guide[(draws * _GUIDE_BUCKETS).astype(np.intp)] <= _GUIDE_STEPS
    assert np.array_equal(guided[within], index[within])
    assert (guided[~within] < index[~within]).all()


@pytest.mark.parametrize("seed", range(4))
def test_strategy_samplers_close_the_last_edge(seed):
    # A random strategy's sampler on both backends: the same cells, edges
    # within 1e-12, each closed by a last edge above 1.
    strategy = random_projective_strategy(seed)
    (table_edges, _, table_cells), (collapse_edges, _, collapse_cells) = (
        _sampler(_p_code(build(strategy), 0.2)) for build in (_behavior_table, _collapse_table)
    )
    assert np.array_equal(table_cells, collapse_cells)
    assert np.abs(table_edges - collapse_edges).max() <= 1e-12
    assert table_edges[-1] == collapse_edges[-1] == 2.0


_RARE_CASES = [(seed, delta) for seed in (0, 1) for delta in (1e-18, 1e-16, 1e-14, 1e-12, 1e-10)]


@pytest.mark.parametrize(
    "strategy",
    [pytest.param(lambda s=s, d=d: _rare_outcome_strategy(s, d), id=f"rare-{s}-{d}") for s, d in _RARE_CASES]
    + [pytest.param(lambda t=t: constant_flag_strategy(t), id=f"constant-flag-{t}") for t in (0, 1)],
)
@pytest.mark.parametrize("backend", ["table", "collapse"])
def test_no_zero_cell_is_drawn(strategy, backend):
    # Every round is a cell of positive mass in the law it is drawn from,
    # on strategies where most cells have mass of order delta or none.
    strategy = strategy()
    config = ProtocolConfig(n_rounds=200_000, seed=5, backend=backend)
    law = _p_code(_BACKENDS[backend](strategy), config.gamma)
    counts = np.bincount(run_rounds(config, strategy).codes, minlength=len(law))
    assert (law[counts > 0] > 0.0).all()


@pytest.mark.parametrize("name", list(_TABLE_STRATEGIES))
@pytest.mark.parametrize("gamma", [0.2, 0.9, 1e-3])
def test_p_code_halves_are_the_table_at_the_drawn_inputs(name, gamma):
    table = _behavior_table(_TABLE_STRATEGIES[name]())
    law = _p_code(table, gamma)
    assert law.shape == (math.prod(_CODE_SHAPE),) and abs(law.sum() - 1.0) <= 1e-12
    generation, test = law.reshape(_CODE_SHAPE)
    cut = lambda cells: np.where(cells > _P_CUTOFF, cells, 0.0)
    expected_test = np.zeros(TABLE_SHAPE)
    expected_test[:2, :2, :2] = cut(gamma / 8 * table[:2, :2, :2])
    expected_generation = np.zeros(TABLE_SHAPE)
    expected_generation[GENERATION_INPUTS] = cut((1 - gamma) * table[GENERATION_INPUTS])
    assert np.array_equal(test, expected_test) and np.array_equal(generation, expected_generation)


def test_a_draw_at_an_edge_takes_the_next_cell():
    law = np.zeros(len(_CELL_ROWS) * 2)
    law[[3, 700, 1152, 2303]] = [0.25, 0.25, 0.25, 0.25]
    edges, _, _ = _sampler(law)
    assert edges[:-1].tolist() == [0.25, 0.5, 0.75]
    draws = np.array([0.0, np.nextafter(0.25, 0.0), 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)])
    assert _codes_of(law, draws).tolist() == [3, 3, 700, 1152, 2303, 2303]


def test_transcript_jsonl_bytes():
    rows = [
        ("test", (1, 0, 1), ((0, 1), (1, 0), (1, 1))),
        ("generation", (0, 2, 2), ((1, 0), (1, 0), (0, 0))),
        ("test", (1, 0, 1), ((0, 1), (1, 0), (1, 1))),
    ]
    assert transcript_to_jsonl(_synthetic_transcript(rows)) == (
        '{"index": 0, "type": "test", "inputs": [1, 0, 1], "outputs": [[0, 1], [1, 0], [1, 1]]}\n'
        '{"index": 1, "type": "generation", "inputs": [0, 2, 2], "outputs": [[1, 0], [1, 0], [0, 0]]}\n'
        '{"index": 2, "type": "test", "inputs": [1, 0, 1], "outputs": [[0, 1], [1, 0], [1, 1]]}\n'
    )


def test_jsonl_renders_every_code_slot_as_json_dumps():
    # Every (round type, row) code slot. The first block holds test rounds
    # only, so the longer generation lines arrive in a later block; then
    # every slot comes back in reverse code order.
    slots = list(itertools.product(*map(range, _CODE_SHAPE)))
    assert len(slots) == 2304
    generation, test = slots[:1152], slots[1152:]
    order = test * math.ceil(BLOCK_ROWS / len(test)) + generation + slots[::-1]
    rows = [(_ROUND_TYPES[t], row[:3], [row[3:5], row[5:7], row[7:9]]) for t, *row in order]
    expected = "".join(
        json.dumps({"index": r, "type": t, "inputs": inputs, "outputs": outputs}) + "\n"
        for r, (t, inputs, outputs) in enumerate(rows)
    )
    assert transcript_to_jsonl(_synthetic_transcript(rows)) == expected


def test_transcript_jsonl_matches_json_dumps():
    tr = run_rounds(ProtocolConfig(n_rounds=400, seed=4, visibility=0.8))
    records = [
        {"index": r, "type": _ROUND_TYPES[t], "inputs": row[:3], "outputs": [row[3:5], row[5:7], row[7:9]]}
        for r, (t, row) in enumerate(zip(*(a.tolist() for a in _rounds(tr))))
    ]
    assert transcript_to_jsonl(tr).splitlines(keepends=True) == [json.dumps(record) + "\n" for record in records]


def test_transcript_text_across_digit_and_block_boundaries():
    # The rounds cross every digit boundary up to 10^5, that one inside a
    # block, and end three rounds into a block.
    n_rounds = (10**5 // BLOCK_ROWS + 1) * BLOCK_ROWS + 3
    assert 10**5 % BLOCK_ROWS
    tr = run_rounds(ProtocolConfig(n_rounds=n_rounds, seed=4, strategy_kind="parallel", visibility=0.8))
    expected = "".join(
        json.dumps({"index": r, "type": _ROUND_TYPES[t], "inputs": row[:3], "outputs": [row[3:5], row[5:7], row[7:9]]})
        + "\n"
        for r, (t, row) in enumerate(zip(*(a.tolist() for a in _rounds(tr))))
    )
    assert transcript_to_jsonl(tr) == expected


@pytest.mark.parametrize("start, count", [(0, 10_123), (9_990, 20), (99_999_990, 20_011), (123_456_789_995, 10), (0, 12), (995, 10)])
def test_index_digits_match_str(start, count):
    # Pieces cross every group of four digits and every change in the
    # number of digits, up to indices no transcript test reaches. A slot
    # is at least four bytes wide.
    width = max(4, len(str(start + count - 1)))
    slots = np.zeros((count, width), dtype=np.uint8)
    _write_index_digits(slots, start)
    assert [row.tobytes().lstrip(b"\0").decode() for row in slots] == [str(i) for i in range(start, start + count)]


def test_flag_flip_tamper_changes_only_bobs_flags():
    tr = run_rounds(ProtocolConfig(n_rounds=1000, seed=13))
    test_before, data_before = _rounds(tr)
    tb = COLUMNS.index("tb")
    for rate in (0.001, 0.05, 0.333, 1.0):
        bad = apply_tamper(tr, f"flag-flip:{rate}", np.random.default_rng(0))
        bad_test, bad_data = _rounds(bad)
        changed = bad_data != data_before
        assert np.count_nonzero(changed[:, tb]) == math.ceil(rate * 1000)
        assert not np.delete(changed, tb, axis=1).any()
        assert np.array_equal(bad_test, test_before)
    test_after, data_after = _rounds(tr)
    assert np.array_equal(data_after, data_before) and np.array_equal(test_after, test_before)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(
    seed=hst.integers(0, 2**32 - 1),
    spec=hst.sampled_from(["flag-flip:0.001", "flag-flip:0.3", "flag-flip:1.0", "flag-constant:0", "flag-constant:1"]),
)
def test_tamper_code_toggles_flip_the_decoded_flag_columns(seed, spec):
    tr = run_rounds(ProtocolConfig(n_rounds=300, seed=seed % 1000))
    test, data = _rounds(tr)
    kind, _, arg = spec.partition(":")
    if kind == "flag-flip":
        rounds = np.random.default_rng(seed).choice(len(data), size=math.ceil(float(arg) * len(data)), replace=False)
        data[rounds, COLUMNS.index("tb")] ^= 1
    else:
        data[:, [COLUMNS.index(c) for c in ("ta", "tb", "tc")]] = int(arg)
    bad_test, bad_data = _rounds(apply_tamper(tr, spec, np.random.default_rng(seed)))
    assert np.array_equal(bad_test, test)
    assert np.array_equal(bad_data, data)


def test_transcript_validates_its_arrays():
    tr = run_rounds(ProtocolConfig(n_rounds=200, seed=3))
    again = Transcript("flagged", tr.codes)
    assert again.codes is tr.codes and again.announcements == []
    bad = [
        tr.codes.astype(np.int16),                     # not uint16
        tr.codes.astype(np.int64),                     # not uint16
        tr.codes[:, None],                             # not 1-D
    ]
    for codes in bad:
        with pytest.raises(ValueError):
            Transcript("flagged", codes)


@pytest.mark.parametrize("code", [2304, 65535])
def test_transcript_rejects_codes_beyond_the_slots(code):
    # Every code below 2304 names a line; a code at or above it would
    # render as another code's line or read past the tail table.
    assert Transcript("flagged", np.array([2303], dtype=np.uint16)).codes.tolist() == [2303]
    with pytest.raises(ValueError, match="codes must lie below 2304"):
        Transcript("flagged", np.array([code], dtype=np.uint16))
    with pytest.raises(ValueError, match="codes must lie below 2304"):
        Transcript("flagged", np.array([0, code, 5], dtype=np.uint16))


def test_flag_mismatch_abort_reports_where():
    cfg = ProtocolConfig(n_rounds=1000, seed=13)
    tr = run_rounds(cfg)
    tb = COLUMNS.index("tb")
    for rate in (0.001, 0.05, 1.0):
        bad = apply_tamper(tr, f"flag-flip:{rate}", np.random.default_rng(0))
        res = postprocess(bad, cfg)
        assert res.abort_reason == "FlagMismatch"
        flipped = np.flatnonzero(_rounds(bad)[1][:, tb] != _rounds(tr)[1][:, tb])
        assert res.stats["flag_mismatch_round"] == flipped[0]
        assert res.stats["flag_mismatch_parties"] == ["bob"]
        assert res.stats["flag_mismatch_count"] == len(flipped) == math.ceil(rate * 1000)
        assert "bell_margin_stderr" not in res.stats
        assert json.loads(result_to_json(res))["stats"]["flag_mismatch_parties"] == ["bob"]


def test_flag_mismatch_names_the_odd_party_out():
    cfg = ProtocolConfig(n_rounds=500, seed=3)
    test, data = _rounds(run_rounds(cfg))
    ta = COLUMNS.index("ta")
    data[[7, 40], ta] ^= 1
    res = postprocess(_transcript("flagged", test, data), cfg)
    assert res.abort_reason == "FlagMismatch"
    assert res.stats["flag_mismatch_round"] == 7
    assert res.stats["flag_mismatch_parties"] == ["alice"]
    assert res.stats["flag_mismatch_count"] == 2


def test_flag_constant_abort_reports_value():
    cfg = ProtocolConfig(n_rounds=1000, seed=13)
    tr = run_rounds(cfg)
    for t in (0, 1):
        res = postprocess(apply_tamper(tr, f"flag-constant:{t}", np.random.default_rng(0)), cfg)
        assert res.abort_reason == "FlagConstant"
        assert res.stats["flag_constant_value"] == t
        assert "flag_mismatch_round" not in res.stats


def test_bell_margin_in_standard_errors():
    low, _ = run_protocol(ProtocolConfig(n_rounds=3000, seed=2, visibility=0.5))
    assert low.abort_reason == "BellBelowThreshold"
    s = low.stats
    assert s["bell_margin_stderr"] == (s["bell_estimate"] - s["bell_threshold"]) / s["bell_stderr"]
    assert s["bell_margin_stderr"] < 0.0
    honest, _ = run_protocol(ProtocolConfig(n_rounds=3000, seed=2))
    assert honest.outcome == "completed"
    assert honest.stats["bell_margin_stderr"] > 0.0


def test_pooled_bell_estimate_spread():
    # Every test round feeds both blocks of the pooled functional; reading
    # the spectator's input 0 only, the spread at 2000 rounds is ~0.23.
    estimates = [run_protocol(ProtocolConfig(n_rounds=2000, seed=seed))[0].stats["bell_estimate"] for seed in range(200)]
    assert np.std(estimates) < 0.2


def _one_block_codes(config):
    """run_rounds' codes with all uniforms drawn as one block, each the
    cell a plain searchsorted on the sampler's edges names."""
    edges, _, cells = _sampler(_p_code(_BACKENDS[config.backend](_build_strategy(config)), config.gamma))
    return cells[np.searchsorted(edges, np.random.default_rng(config.seed).random(config.n_rounds), side="right")]


# Run lengths at and across block boundaries: one block, then the 2^14-row
# sizes the blocks once had, which now span four and twelve blocks.
_BLOCK_SPANS = [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 7, 16383, 16384, 16385, 49159]


@pytest.mark.parametrize("n_rounds", _BLOCK_SPANS)
@pytest.mark.parametrize("backend", ["table", "collapse"])
def test_block_draws_match_one_block(backend, n_rounds):
    config = ProtocolConfig(n_rounds=n_rounds, seed=17, visibility=0.9, backend=backend)
    assert np.array_equal(run_rounds(config).codes, _one_block_codes(config))


@pytest.mark.parametrize("block_rows", [1, 7, 1000, 1 << 16])
def test_codes_do_not_depend_on_the_block_size(monkeypatch, block_rows):
    import flagcka.protocol as protocol

    config = ProtocolConfig(n_rounds=3 * BLOCK_ROWS + 5, seed=19, visibility=0.9)
    expected = run_rounds(config).codes
    monkeypatch.setattr(protocol, "BLOCK_ROWS", block_rows)
    assert np.array_equal(run_rounds(config).codes, expected)


# sha256 of run_rounds(config).codes.tobytes(), per (kind, visibility,
# n_rounds), with seed _PINNED_SEEDS[n_rounds]; both backends give the same
# codes. Any change to the draws, their layout or the sampling rule shows
# here.
_PINNED_SEEDS = {4095: 11, 4097: 12, 16385: 13, 100000: 14}
_PINNED_CODES = {
    ("flagged", 1.0, 4095): "2dee573ebc3f9bb2e053a26c29f1a09db493594631b19df6e6f476aa5bb66e32",
    ("flagged", 1.0, 4097): "ae2a9d27c6362ad2a57e970d784aabe87b6f40f3a1e977ccff67c7a06020ebec",
    ("flagged", 1.0, 16385): "bcfbabe1d5d896035b5d6c95c786dfecfa8bd3443b9c126451fd5f907f794a17",
    ("flagged", 1.0, 100000): "dce2329a7d44b023d4a07ed97901db7d56f9bc1c4243b3d37d852a7afe9169ca",
    ("flagged", 0.97, 4095): "584e284ddfdf5c13bfb9d36aa92a0e66a3d7051d1aabb2318972bf58cd5c46f7",
    ("flagged", 0.97, 4097): "b845153dc3f1feb6e11f485aec6b277764dc9558231939a6076eb0143325d96a",
    ("flagged", 0.97, 16385): "ee2a0592e12ff8064d1405124fdec4cd6be6354e2ff776c12ef890211cda3faf",
    ("flagged", 0.97, 100000): "eae7f6199ed7b31e89775ab2299c14a3a1a1a68568b093268ccf94a2dbbf4210",
    ("flagged", 0.7, 4095): "8bdc3ab5cc02d60ed8d856c6373f8af877a654c9d6264da9df13819412f10931",
    ("flagged", 0.7, 4097): "d36542f445b07edbcc8b1f48ccf6e0234a89684e0a123f8ad3679492d95584ab",
    ("flagged", 0.7, 16385): "cb30728eca4eabe4cb571cbc37bcb8a288474df05f6b7ac79ce796de0e7bb972",
    ("flagged", 0.7, 100000): "05ec5fb031e77b226e830098f17f5354a13c6776eb655bb26c55cf8b0bf47920",
    ("parallel", 1.0, 4095): "74a09893f80be561796ac3d73c78f44f78ab279e8632593365d366eecf57bc2e",
    ("parallel", 1.0, 4097): "86eeb65937f02d61c7fd063ee8b3b6607e1cb4b3c2a7623e31c21170a825dfe0",
    ("parallel", 1.0, 16385): "825df541bbc9023a3daa01ada79edfd64e27fab3b96e83be9238f350ed99872d",
    ("parallel", 1.0, 100000): "3b75634a4bd8aaf8b82308dd21330b52aa816e47d027a4f2f9c92ef3035883fb",
    ("parallel", 0.97, 4095): "a5353f664a09de222ef46076de3baab2cf9de7238e4f94e58ace4badaf2aaba0",
    ("parallel", 0.97, 4097): "4414409051c609f0d3ae900583dde5e3020c3d0d276dce10487c1b8538491525",
    ("parallel", 0.97, 16385): "a17e9238adbcf7fafbd137d18264b034d6a0f6a6ffa92f1bf62e0dc4425ca992",
    ("parallel", 0.97, 100000): "1ae248a9b80344de7c22ca52521244d95f6c0bbfc4638ad09ae19adf333f070f",
    ("parallel", 0.7, 4095): "39c8dd7ca2026fc58d34c51afb40ca0801075cbee3563195b1e046fb6df92828",
    ("parallel", 0.7, 4097): "b0a4f971a37759d6738a59206ca120f099109c5624dad8e71ffef9274ac286e8",
    ("parallel", 0.7, 16385): "c972e5cc2a3d6df81b6a0e8f1e85c2ab53833afb4e643d6f33537bd4b9ee945a",
    ("parallel", 0.7, 100000): "2fea82d1caa0d877579131ccfd03202d2f07dbd1c7e212eb64d109bff0c0e239",
}


@pytest.mark.parametrize("n_rounds", list(_PINNED_SEEDS))
@pytest.mark.parametrize("visibility", [1.0, 0.97, 0.7])
@pytest.mark.parametrize("backend", ["table", "collapse"])
@pytest.mark.parametrize("kind", ["flagged", "parallel"])
def test_round_codes_are_pinned(kind, backend, visibility, n_rounds):
    config = ProtocolConfig(
        n_rounds=n_rounds, seed=_PINNED_SEEDS[n_rounds], strategy_kind=kind, visibility=visibility, backend=backend
    )
    digest = hashlib.sha256(run_rounds(config).codes.tobytes()).hexdigest()
    assert digest == _PINNED_CODES[kind, visibility, n_rounds]


@pytest.mark.parametrize("n_rounds", [1, *_BLOCK_SPANS[1:]])
def test_written_jsonl_matches_joined_text(n_rounds):
    tr = run_rounds(ProtocolConfig(n_rounds=n_rounds, seed=23, visibility=0.8))
    fh = io.BytesIO()
    write_transcript_jsonl(tr, fh)
    text = transcript_to_jsonl(tr)
    assert fh.getvalue() == text.encode("ascii")
    assert text.count("\n") == n_rounds and text.endswith("\n")
    lines = text.splitlines(keepends=True)
    test, data = _rounds(tr)
    for r in (0, n_rounds // 2, n_rounds - 1):
        record = {"index": r, "type": ("generation", "test")[int(test[r])], "inputs": data[r, :3].tolist()}
        record["outputs"] = data[r, 3:].reshape(3, 2).tolist()
        assert lines[r] == json.dumps(record) + "\n"


@pytest.mark.parametrize("kind", ["flagged", "parallel"])
def test_empty_transcript_is_empty_jsonl(kind):
    # No rounds, no lines: not even a blank one, which no JSON reader parses.
    transcript = Transcript(kind, np.empty(0, np.uint16))
    fh = io.BytesIO()
    write_transcript_jsonl(transcript, fh)
    assert transcript_to_jsonl(transcript) == ""
    assert fh.getvalue() == b""


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("backend", ["table", "collapse"])
def test_memory_is_flat_in_rounds(backend):
    # Twice the rounds may add the 2 bytes per round a transcript keeps,
    # 0.2 MB here, but no temporary that grows with the rounds.
    configs = [ProtocolConfig(n_rounds=n_rounds, seed=29, backend=backend) for n_rounds in (100_000, 200_000)]
    sampled = [_traced_peak(lambda: run_rounds(config)) for config in configs]
    with open(os.devnull, "wb") as sink:
        written = [_traced_peak(lambda: write_transcript_jsonl(tr, sink)) for tr in map(run_rounds, configs)]
    growth_mb = [(peaks[1] - peaks[0]) / 2**20 for peaks in (sampled, written)]
    assert max(growth_mb) <= 2.0, growth_mb


@pytest.mark.parametrize("kind", ["flagged", "parallel"])
def test_sift_builds_no_mask_over_the_rounds(kind):
    # Sifting selects each pair's codes a block at a time. Its traced peak
    # is the keys it returns plus the selected codes, 2 bytes per key bit
    # held twice while the blocks are joined: about twice the keys. An
    # N-byte mask per pair would add 1 MB at 1e6 rounds.
    n_rounds = 1_000_000
    tr = run_rounds(ProtocolConfig(n_rounds=n_rounds, seed=7, strategy_kind=kind))
    tracemalloc.start()
    try:
        keys = sift_pair_keys(tr)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = sum(key.nbytes for pair in keys.values() for key in pair)
    assert peak <= 2 * nbytes + n_rounds // 2, (peak, nbytes)


def test_transcript_keeps_two_bytes_per_round():
    # One uint16 code per round, and nothing else that grows with the
    # rounds. A first run fills the one-time caches, 0.75 MB, which would
    # otherwise count against the smaller run.
    run_rounds(ProtocolConfig(n_rounds=1000, seed=29))
    kept = []
    for n_rounds in (100_000, 200_000):
        tracemalloc.start()
        try:
            transcript = run_rounds(ProtocolConfig(n_rounds=n_rounds, seed=29))
            kept.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert transcript.codes.nbytes == 2 * n_rounds
    assert (kept[1] - kept[0]) / 100_000 <= 2.2, kept


def test_postprocess_keeps_no_copy_of_the_transcript():
    # What postprocess leaves behind (the announcements and the result)
    # grows with the rounds by the key strings, 0.15 MB from 1e5 to 2e5
    # rounds, but not by copies of the codes or of columns decoded from
    # them: 0.2 MB for the codes, 0.29 MB for the three flag columns,
    # 0.1 MB for a test mask.
    kept = []
    for n_rounds in (100_000, 200_000):
        config = ProtocolConfig(n_rounds=n_rounds, seed=29)
        transcript = run_rounds(config)
        tracemalloc.start()
        try:
            result = postprocess(transcript, config)
            kept.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert result.outcome == "completed"
    growth_mb = (kept[1] - kept[0]) / 2**20
    assert growth_mb <= 0.2, growth_mb


@settings(derandomize=True, deadline=None, max_examples=12)
@given(
    seed=hst.integers(0, 2**32 - 1),
    kind=hst.sampled_from(["flagged", "parallel"]),
    visibility=hst.sampled_from([1.0, 0.8]),
    n_rounds=hst.sampled_from([1, 2, 97, BLOCK_ROWS - 1, BLOCK_ROWS + 1]),
)
def test_parsed_jsonl_gives_back_the_arrays(seed, kind, visibility, n_rounds):
    tr = run_rounds(ProtocolConfig(n_rounds=n_rounds, seed=seed, strategy_kind=kind, visibility=visibility))
    fh = io.BytesIO()
    write_transcript_jsonl(tr, fh)
    records = [json.loads(line) for line in fh.getvalue().splitlines()]
    assert [record["index"] for record in records] == list(range(n_rounds))
    test = np.array([_ROUND_TYPES.index(record["type"]) for record in records], dtype=bool)
    data = np.array([record["inputs"] + sum(record["outputs"], []) for record in records], dtype=np.int8)
    tr_test, tr_data = _rounds(tr)
    assert np.array_equal(test, tr_test)
    assert np.array_equal(data, tr_data)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    seed=hst.integers(0, 2**32 - 1),
    party=hst.integers(0, 2),
    flipped=hst.sets(hst.integers(0, 599), min_size=1, max_size=20),
)
def test_any_flipped_flag_is_a_mismatch_at_the_earliest_flip(seed, party, flipped):
    config = ProtocolConfig(n_rounds=600, seed=seed)
    test, data = _rounds(run_rounds(config))
    data[sorted(flipped), COLUMNS.index(("ta", "tb", "tc")[party])] ^= 1
    result = postprocess(_transcript("flagged", test, data), config)
    assert result.abort_reason == "FlagMismatch"
    assert result.stats["flag_mismatch_round"] == min(flipped)
    assert result.stats["flag_mismatch_parties"] == [PARTY_NAMES[party]]
    assert result.stats["flag_mismatch_count"] == len(flipped)
