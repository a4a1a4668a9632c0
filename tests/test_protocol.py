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
    PROTOCOL_INPUTS,
    _build_strategy,
    _collapse_tables,
    _cumulative_tables,
    _CELL_ROWS,
    _CODE_SHAPE,
    _P_CUTOFF,
    _ROUND_TYPES,
    _ROUTE_TABLES,
    _bit_string,
    _code_counts,
    _default_threshold,
    _edge_tables,
    _pick,
    _table_codes,
    _write_index_digits,
)
from flagcka.qops import haar_unitaries, measure_collapse, projector, random_density_operator, select_outcome, tensor
from flagcka.strategies import N_INPUTS, OUTCOME_LABELS, NoiseParams, Strategy, random_projective_strategy


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


def _layout_rows(n_rounds, seed, gamma=0.2):
    # Inputs and collapse draws as run_rounds takes them from its block of uniforms.
    u = np.random.default_rng(seed).random((n_rounds, 7))
    inputs = np.where((u[:, 0] < gamma)[:, None], u[:, 1:4] < 0.5, GENERATION_INPUTS)
    return inputs, u[:, 4:]


def _chain_outcomes(tables, inputs, draws):
    """The (N, 3) outcome indices that run_rounds' kernel picks from the
    cumulative `tables` for rows of inputs and draws, read back from the
    codes it returns, which must also hold the inputs given."""
    rows = _CELL_ROWS[_table_codes(_edge_tables(tables), inputs.T, draws.T) % len(_CELL_ROWS)]
    assert np.array_equal(rows[:, :3], inputs)
    return 2 * rows[:, 3::2] + rows[:, 4::2]


def test_table_codes_take_narrow_inputs():
    # run_rounds passes uint8 inputs; the chain's rows, up to 287, must not
    # wrap in them. Every input triple, as uint8 and as intp, with draws
    # that reach Carole's rows above 255.
    tables = _edge_tables(_cumulative_tables(random_projective_strategy(3)))
    triples = np.array(list(itertools.product(*map(range, N_INPUTS))))
    inputs = np.repeat(triples, 64, axis=0)
    draws = np.random.default_rng(11).random((len(inputs), 3))
    codes = _table_codes(tables, inputs.T.astype(np.uint8), draws.T)
    assert np.array_equal(codes, _table_codes(tables, inputs.T.astype(np.intp), draws.T))
    rows = _CELL_ROWS[codes % len(_CELL_ROWS)]
    assert np.array_equal(rows[:, :3], inputs)
    x, y, z, a, ta, b, tb = rows[:, :7].T.astype(np.intp)
    assert ((((x * 4 + 2 * a + ta) * 3 + y) * 4 + 2 * b + tb) * 3 + z).max() > 255


def _collapse_outcomes_reference(strategy, inputs, draws):
    """Round by round: each party measures the state its predecessors left with measure_collapse."""
    def embedded(p, effect):
        ops = [np.eye(d) for d in strategy.party_dims]
        ops[p] = effect
        return tensor(*ops)

    effects = [
        [{label: embedded(p, e) for label, e in _family(strategy, p, x).items()} for x in range(N_INPUTS[p])]
        for p in range(3)
    ]
    out = np.empty(inputs.shape, dtype=np.intp)
    for r, (row_inputs, row_draws) in enumerate(zip(inputs.tolist(), draws.tolist())):
        rho = strategy.state
        for p in range(3):
            (value, flag), rho = measure_collapse(rho, effects[p][row_inputs[p]], row_draws[p])
            out[r, p] = 2 * value + flag
    return out


@pytest.mark.parametrize("kind, visibility", [("flagged", 1.0), ("flagged", 0.85), ("parallel", 0.97)])
@pytest.mark.parametrize("seed", [0, 7, 21])
def test_memoised_collapse_matches_round_by_round_loop(kind, visibility, seed):
    strategy = _build_strategy(ProtocolConfig(strategy_kind=kind, visibility=visibility))
    inputs, draws = _layout_rows(2000, seed)
    expected = _collapse_outcomes_reference(strategy, inputs, draws)
    assert np.array_equal(_chain_outcomes(_collapse_tables(strategy), inputs, draws), expected)


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
    inputs, draws = _layout_rows(2000, 3)
    outcomes = _chain_outcomes(_collapse_tables(strategy), inputs, draws)
    assert np.array_equal(outcomes, _collapse_outcomes_reference(strategy, inputs, draws))


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
    inputs, draws = _layout_rows(2000, 4)
    expected = _collapse_outcomes_reference(strategy, inputs, draws)
    assert np.array_equal(_chain_outcomes(_collapse_tables(strategy), inputs, draws), expected)
    # Each (party, input) picks exactly the labels of its nonzero projectors.
    for p in range(3):
        for x, family in enumerate(strategy.effects[p]):
            nonzero = {o for o, effect in enumerate(family) if np.any(effect)}
            assert set(expected[inputs[:, p] == x, p].tolist()) == nonzero


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
    # Rows the walk leaves at zero are of inputs the protocol never draws.
    tables = zip(_collapse_tables(strategy), _cumulative_tables(strategy), _cumulative_tables(honest))
    for collapse, table, reference in tables:
        filled = collapse.any(axis=1)
        assert filled.any() and np.abs(collapse[filled] - table[filled]).max() <= 1e-12
        assert np.array_equal(table, reference)


def _prefixes(transcript):
    _, data = _rounds(transcript)
    x, y, z = data[:, :3].T.tolist()
    oa, ob, _ = (2 * data[:, 3:9:2] + data[:, 4:9:2]).T.tolist()
    return set(zip(x)) | set(zip(x, oa, y)) | set(zip(x, oa, y, ob, z))


def test_collapse_computes_one_distribution_per_prefix(monkeypatch):
    import flagcka.protocol as protocol

    calls = []
    original = protocol.born_rows
    # One entry per Born row: one distribution of one state.
    monkeypatch.setattr(
        protocol, "born_rows", lambda rhos, effects, labels: calls.extend([1] * len(rhos)) or original(rhos, effects, labels)
    )
    config = ProtocolConfig(n_rounds=2000, seed=0, backend="collapse")
    # Prefixes with positive probability under the protocol's input support.
    b6 = behavior_from_strategy(_build_strategy(config)).table.reshape(2, 3, 3, 4, 4, 4)
    triples = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)] + [GENERATION_INPUTS]
    reachable = {(x,) for x, _, _ in triples}
    for x, y, z in triples:
        reachable |= {(x, oa, y) for oa in range(4) if b6[x, y, z, oa].sum() > 1e-12}
        reachable |= {(x, oa, y, ob, z) for oa in range(4) for ob in range(4) if b6[x, y, z, oa, ob].sum() > 1e-12}
    assert set(PROTOCOL_INPUTS) == set(triples)
    # The tables are built before any round is drawn: one distribution per
    # reachable prefix, however many rounds follow and whichever they reach.
    for n_rounds in (2000, 20000):
        calls.clear()
        transcript = run_rounds(replace(config, n_rounds=n_rounds))
        assert _prefixes(transcript) <= reachable
        assert len(calls) == len(reachable) < 2 + 24 + 288


def _table_rows():
    """Per party, the table rows of the protocol's inputs: row -> (x, y, z, oa, ob)."""
    rows = ({}, {}, {})
    for (x, y, z), oa, ob in itertools.product(PROTOCOL_INPUTS, range(4), range(4)):
        row_b = (x * 4 + oa) * 3 + y
        rows[0][x] = rows[1][row_b] = rows[2][(row_b * 4 + ob) * 3 + z] = (x, y, z, oa, ob)
    return rows


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
    b6 = behavior_from_strategy(strategy).table.reshape(2, 3, 3, 4, 4, 4)
    expected = _cumulative_tables(strategy)
    for party, (collapse, rows) in enumerate(zip(_collapse_tables(strategy), _table_rows())):
        filled = collapse.any(axis=1)
        assert np.abs(collapse[filled] - expected[party][filled]).max() <= 1e-12
        # A row left at zero is of an input the protocol never draws, or
        # of a conditioning (oa, or oa and ob) at or below the cutoff.
        for row in np.flatnonzero(~filled).tolist():
            if row in rows:
                assert party > 0 and b6[rows[row][: party + 3]].sum() <= _P_CUTOFF


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
    tr = run_rounds(ProtocolConfig(n_rounds=2000, seed=7))
    first = postprocess(tr, ProtocolConfig(n_rounds=2000, seed=7, bell_threshold=2.0))
    config = ProtocolConfig(n_rounds=2000, seed=7, bell_threshold=2.82)
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
    with pytest.raises(ValueError):
        xor_reconcile(_bits(""), _bits(""))


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
    if not ab_alice and not ac_alice:
        with pytest.raises(ValueError):
            xor_reconcile(kept["ab"][0], kept["ac"][0])
        return
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
        ("BellBelowThreshold", ProtocolConfig(n_rounds=5000, seed=4, visibility=0.7), None),
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
    picked = int(_picked(np.cumsum(probs)[None], np.array([0]), np.array([draw]))[0])
    (value, flag), _ = measure_collapse(np.diag(probs).astype(complex), _diagonal_family(), draw)
    assert picked == 2 * value + flag == select_outcome(probs, draw) == expected
    assert probs[picked] > 0.0


def test_pick_is_row_wise():
    # The last row is not monotone: its raw running maxima are all 0.9, so
    # a draw above them is in the float dust, where the rule takes the
    # last rising bin of the raw edges (bin 2), not the flat maxima's bin 0.
    cum = np.cumsum([[0.5, 0.0, 0.5, 0.0], [0.0, 0.5, 0.5, 0.0], [0.5, 0.5 - 1e-12, 0.0, 0.0]], axis=1)
    cum = np.vstack((cum, [0.9, 0.8, 0.85, 0.85]))
    draws = np.array([0.5, 0.0, 1.0 - 1e-13, 0.95])
    assert _picked(cum, np.arange(4), draws).tolist() == [2, 1, 1, 2]


def _picked(cum, rows, draws):
    """_pick on the rows `rows` of the cumulative table `cum` (R, 4)."""
    maxima, = _edge_tables([cum])
    return _pick(maxima, rows, draws)


def _argmax_pick(cum, draws):
    """Reference pick over rows of cumulative distributions `cum` (N, 4):
    the first edge above the draw, by argmax, with _pick's dust rule."""
    below = draws[:, None] < cum
    idx = below.argmax(axis=1)
    dust = ~below.any(axis=1)
    if dust.any():
        rising = cum[dust, 1:] > cum[dust, :-1]
        idx[dust] = np.where(rising.any(axis=1), 3 - rising[:, ::-1].argmax(axis=1), 0)
    return idx


# Bin widths with zero-width bins, shared edges, rows that fall short of 1
# (dust above the last edge) and entries down to -1e-12, which
# Behavior.validate admits and which make a row's edges non-monotone.
_BIN_WIDTHS = hst.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0 / 3.0, 1.0, 1e-12, -1e-12, 0.5 - 1e-12, 1.0 - 1e-12])
_DRAWS = hst.one_of(
    hst.floats(0.0, 1.0, exclude_max=True),
    hst.sampled_from([0.0, 1e-12, 0.25, 1.0 / 3.0, 0.5, 1.0 - 1e-12, 1.0 - 1e-13, 1.0 - 2.0**-53]),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    widths=hst.lists(hst.lists(_BIN_WIDTHS, min_size=4, max_size=4), min_size=1, max_size=6),
    picks=hst.lists(hst.tuples(hst.integers(0, 5), _DRAWS), min_size=1, max_size=20),
)
def test_pick_counts_passed_edges_as_argmax_does(widths, picks):
    cum = np.cumsum(widths, axis=1)
    rows = np.array([r % len(cum) for r, _ in picks])
    draws = np.array([d for _, d in picks])
    # Every edge of every row as a draw, and the floats just below and above it.
    edges = cum.ravel()
    near = np.concatenate((np.nextafter(edges, -1.0), edges, np.nextafter(edges, 2.0)))
    keep = (near >= 0.0) & (near < 1.0)
    rows = np.concatenate((rows, np.tile(np.repeat(np.arange(len(cum)), 4), 3)[keep]))
    draws = np.concatenate((draws, near[keep]))
    assert np.array_equal(_picked(cum, rows, draws), _argmax_pick(cum[rows], draws))


def _per_block_dust_pick(cum, rows, draws):
    """Reference pick that applies the float-dust rule to each block's
    draws instead of to the tables: the running maxima count the passed
    edges, and the draws above every edge take the last positive-width
    bin among 1-3 of the raw edges, else bin 0."""
    edges, maxima = cum.T, np.maximum.accumulate(cum, axis=1).T
    passed = draws >= maxima.take(rows, axis=1)
    idx = passed.sum(axis=0, dtype=np.uint8)
    dust = passed[3]
    if dust.any():
        raw = edges[:, rows[dust]].T
        rising = raw[:, 1:] > raw[:, :-1]
        idx[dust] = np.where(rising.any(axis=1), 3 - rising[:, ::-1].argmax(axis=1), 0)
    return idx


# Rows every example adds: rows that are not monotone, with zero-width
# bins, all zero (as an unfollowed prefix leaves its row) and flat.
_FIXED_ROWS = np.array(
    [[0.9, 0.8, 0.85, 0.85], [0.6, 0.4, 0.7, 0.5], [0.5, 0.5 - 1e-12, 0.0, 0.0], [0.0] * 4, [0.5] * 4, [1.0] * 4]
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    widths=hst.lists(hst.lists(_BIN_WIDTHS, min_size=4, max_size=4), min_size=0, max_size=6),
    picks=hst.lists(hst.tuples(hst.integers(0, 11), _DRAWS), min_size=1, max_size=20),
)
def test_closed_tables_pick_as_the_per_block_dust_rule(widths, picks):
    cum = np.vstack((np.cumsum(np.reshape(widths, (-1, 4)), axis=1), _FIXED_ROWS))
    rows = np.array([r % len(cum) for r, _ in picks])
    draws = np.array([d for _, d in picks])
    # Per row, draws in the float dust [max edge, 1): the largest edge, the
    # float above it, the last float below 1, and each pick's draw mapped
    # into the interval.
    top = np.maximum(cum.max(axis=1), 0.0)
    dust_rows = np.concatenate((np.tile(np.arange(len(cum)), 3), rows))
    dust = np.concatenate(
        (top, np.nextafter(top, 2.0), np.full(len(cum), 1.0 - 2.0**-53), top[rows] + draws * (1.0 - top[rows]))
    )
    keep = (dust >= top[dust_rows]) & (dust < 1.0)
    rows, draws = np.concatenate((rows, dust_rows[keep])), np.concatenate((draws, dust[keep]))
    assert np.array_equal(_picked(cum, rows, draws), _per_block_dust_pick(cum, rows, draws))


def _four_comparison_pick(maxima, rows, draws):
    """Reference pick that counts all four comparisons with the closed
    running maxima, the last of which no draw below 1 passes."""
    return (draws >= maxima.take(rows, axis=1)).sum(axis=0, dtype=np.uint8)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    widths=hst.lists(hst.lists(_BIN_WIDTHS, min_size=4, max_size=4), min_size=0, max_size=6),
    picks=hst.lists(hst.tuples(hst.integers(0, 11), _DRAWS), min_size=1, max_size=20),
)
def test_closed_tables_end_in_one_and_pick_with_three_comparisons(widths, picks):
    # Rows that fall short of 1 (dust), flat, all-zero and non-monotone
    # rows among them; each table also reversed, and as a lone row.
    cum = np.vstack((np.cumsum(np.reshape(widths, (-1, 4)), axis=1), _FIXED_ROWS))
    tables = (cum, cum[::-1], cum[:1])
    for table, maxima in zip(tables, _edge_tables(tables)):
        assert maxima.shape == (4, len(table))
        assert (maxima[3] == 1.0).all()
    maxima, = _edge_tables([cum])
    rows = np.array([r % len(cum) for r, _ in picks])
    draws = np.array([d for _, d in picks])
    # Every closed edge below 1 as a draw, and the floats just below and above it.
    edges = maxima.T.ravel()
    near = np.concatenate((np.nextafter(edges, -1.0), edges, np.nextafter(edges, 2.0)))
    keep = (near >= 0.0) & (near < 1.0)
    rows = np.concatenate((rows, np.tile(np.repeat(np.arange(len(cum)), 4), 3)[keep]))
    draws = np.concatenate((draws, near[keep]))
    assert np.array_equal(_pick(maxima, rows, draws), _four_comparison_pick(maxima, rows, draws))


@pytest.mark.parametrize("seed", range(4))
def test_strategy_tables_close_row_three(seed):
    # The tables of a random strategy on both backends, each row closed at 1.
    strategy = random_projective_strategy(seed)
    for build in (_cumulative_tables, _collapse_tables):
        for maxima in _edge_tables(build(strategy)):
            assert (maxima[3] == 1.0).all()


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


def _one_block_rounds(config):
    """run_rounds' decoded (test, data) with all uniforms drawn as one block."""
    u = np.random.default_rng(config.seed).random((config.n_rounds, 7))
    test = u[:, 0] < config.gamma
    inputs = np.where(test[:, None], u[:, 1:4] < 0.5, GENERATION_INPUTS)
    outcomes = _chain_outcomes(_cumulative_tables(_build_strategy(config)), inputs, u[:, 4:])
    bits = np.stack((outcomes >> 1, outcomes & 1), axis=2).reshape(-1, 6)
    return test, np.column_stack((inputs, bits)).astype(np.int8)


# Run lengths at and across block boundaries: one block, then the 2^14-row
# sizes the blocks once had, which now span four and twelve blocks.
_BLOCK_SPANS = [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 7, 16383, 16384, 16385, 49159]


@pytest.mark.parametrize("n_rounds", _BLOCK_SPANS)
@pytest.mark.parametrize("backend", ["table", "collapse"])
def test_block_draws_match_one_block(backend, n_rounds):
    config = ProtocolConfig(n_rounds=n_rounds, seed=17, visibility=0.9, backend=backend)
    transcript_test, transcript_data = _rounds(run_rounds(config))
    test, data = _one_block_rounds(config)
    assert np.array_equal(transcript_test, test)
    assert np.array_equal(transcript_data, data)


# sha256 of run_rounds(config).codes.tobytes(), per (kind, visibility,
# n_rounds), with seed _PINNED_SEEDS[n_rounds]; both backends give the same
# codes. Any change to the draws, their layout or the sampling rule shows
# here.
_PINNED_SEEDS = {4095: 11, 4097: 12, 16385: 13, 100000: 14}
_PINNED_CODES = {
    ("flagged", 1.0, 4095): "e38b677ed144a0b5907c027b906be7116e8e0a5edd2fe05971dcf32c46d7439c",
    ("flagged", 1.0, 4097): "7919dd22aa795c34ce6cae3654b355d68fb3d0d6e7b7fc999a12c626d6c4055e",
    ("flagged", 1.0, 16385): "b5f4cb2614ab0a46f01865da773d9387e9341e542f51a8a28f868343bff0aaf5",
    ("flagged", 1.0, 100000): "8a2295ede7676f4e6e401e5d2c3bbd4b5fbad4f2037aeaba0c25fc1b3c9fc5cd",
    ("flagged", 0.97, 4095): "538843c8706963ea656e1d7a378e16fd523c51b3e92521393ea7fc569bfea159",
    ("flagged", 0.97, 4097): "b3b80e94db3ad8eb7c1c86e77042dfae7d0e375be84e9e958a4360f54d47a391",
    ("flagged", 0.97, 16385): "4cb13318152399eeeaa7f45bfb52b37cbccba1d45ca3fe3e1de5c2e47616c85b",
    ("flagged", 0.97, 100000): "b30633193ea7ef9353ad416dce4b0c18a31eead54c27bda342d87bfe02a4d4a1",
    ("flagged", 0.7, 4095): "dc72deabdc3a6cd388bb6703fbdf78929875c582524796e1a66a71a83a78acb8",
    ("flagged", 0.7, 4097): "2ff88b8d9e46670c00c507261248e91fb7e497ec06ffd7eafe1548c27d60801d",
    ("flagged", 0.7, 16385): "d632158cac442035df763cff876a5031c9a8e4d76e175e6b7ffedacb8dcaac9c",
    ("flagged", 0.7, 100000): "f6c65707f171ea5317d39fb2aa5a875e4aaa6f1bdf91066b9fd8f3957cf53dae",
    ("parallel", 1.0, 4095): "b4cf36f8403b66b2238c25cb1dd8eac304d637dd3a46d6861f43bd21be2979bb",
    ("parallel", 1.0, 4097): "6e03dd33d88ba83ef9f22a1a61c4855d295a9ea8ccc1c8f12499f08a54b8852d",
    ("parallel", 1.0, 16385): "aee07a15722c82dad926c9411820b4d299f5654f460bd96b4a4135530e19f244",
    ("parallel", 1.0, 100000): "846e38809c9c62dc72bcaa1b5f53b4404c2c631060008b433bad1328a8ff1b52",
    ("parallel", 0.97, 4095): "eb28c407a5c5dcb0864b7c7f4d4be2713fe81b3772db35b8c187c74edadef759",
    ("parallel", 0.97, 4097): "1f6c3590b6bcd16f164ac3f6cafc640f4976ee2f32e8d830b39f913f2aecc003",
    ("parallel", 0.97, 16385): "2c249ac95218e6fb0b1a5165c5f33197fc75d716849355f90c43feaff5a067a6",
    ("parallel", 0.97, 100000): "f0f697dc48a29391f70176095e9864ea983860c65e7ea682de8ce640933c41bf",
    ("parallel", 0.7, 4095): "86a6ba1db58ec30f0267f9df5510a234469e2fe13954f4fc5823444ec60a4a6f",
    ("parallel", 0.7, 4097): "091b97859ef75f49ed269ca764e0c47fed5cc582d4546e6868f175b47151494d",
    ("parallel", 0.7, 16385): "c163a07e957e041a7c88a9f88712f0b320ccb98aaf55e2f0282fdb765665fa6d",
    ("parallel", 0.7, 100000): "4ae9b185d76d3455786ad5dc7527d22794a2eb1c62df913beccd4fac1e59b2fb",
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
