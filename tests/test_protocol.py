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

from flagcka.bell import CHSH_QUANTUM_MAX, GENERATION_INPUTS, behavior_from_strategy
from flagcka.protocol import (
    BLOCK_ROWS,
    PARALLEL_QUANTUM_MAX,
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
    _P_CUTOFF,
    _ROUND_TYPES,
    _bit_string,
    _default_threshold,
    _table_outcomes,
)
from flagcka.qops import measure_collapse, projector, random_density_operator, random_unitary, select_outcome
from flagcka.strategies import N_INPUTS, OUTCOME_LABELS, NoiseParams, Strategy, random_projective_strategy


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
    assert np.array_equal(tr1.test, tr2.test) and np.array_equal(tr1.data, tr2.data)
    res3, _ = run_protocol(ProtocolConfig(n_rounds=400, seed=4))
    assert res3.keys != res1.keys


def test_backends_agree_draw_for_draw():
    # The conditional-table device consumes the same uniform draws as the
    # explicit-collapse device and must produce identical transcripts.
    for seed in (0, 11):
        _, tr_table = run_protocol(ProtocolConfig(n_rounds=300, seed=seed, backend="table"))
        _, tr_collapse = run_protocol(ProtocolConfig(n_rounds=300, seed=seed, backend="collapse"))
        assert np.array_equal(tr_table.test, tr_collapse.test)
        assert np.array_equal(tr_table.data, tr_collapse.data)


def test_backends_agree_under_noise_and_parallel():
    _, a = run_protocol(ProtocolConfig(n_rounds=200, seed=5, visibility=0.85, bell_threshold=2.0, backend="table"))
    _, b = run_protocol(ProtocolConfig(n_rounds=200, seed=5, visibility=0.85, bell_threshold=2.0, backend="collapse"))
    assert np.array_equal(a.test, b.test) and np.array_equal(a.data, b.data)
    _, c = run_protocol(ProtocolConfig(n_rounds=200, seed=5, strategy_kind="parallel", backend="table"))
    _, d = run_protocol(ProtocolConfig(n_rounds=200, seed=5, strategy_kind="parallel", backend="collapse"))
    assert np.array_equal(c.test, d.test) and np.array_equal(c.data, d.data)


def _layout_rows(n_rounds, seed, gamma=0.2):
    # Inputs and collapse draws as run_rounds takes them from its block of uniforms.
    u = np.random.default_rng(seed).random((n_rounds, 7))
    inputs = np.where((u[:, 0] < gamma)[:, None], u[:, 1:4] < 0.5, GENERATION_INPUTS)
    return inputs, u[:, 4:]


def _collapse_outcomes_reference(strategy, inputs, draws):
    """Round by round: each party measures the state its predecessors left with measure_collapse."""
    effects = [
        [{label: strategy.effect(p, x, label) for label in strategy.measurements[p][x]} for x in range(N_INPUTS[p])]
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
    assert np.array_equal(_table_outcomes(_collapse_tables(strategy), inputs, draws), expected)


def test_memoised_collapse_matches_loop_on_a_generic_strategy():
    # Honest strategies make Carole's outcome independent of Bob's given
    # Alice's; a random state and random projective families do not, so a
    # walk that lost part of a prefix would show here.
    rng = np.random.default_rng(5)

    def family():
        u = random_unitary(4, rng)
        return {label: projector(u[:, i]) for i, label in enumerate(OUTCOME_LABELS)}

    measurements = tuple({x: family() for x in range(N_INPUTS[p])} for p in range(3))
    strategy = Strategy(random_density_operator(64, rng), (4, 4, 4), measurements)
    inputs, draws = _layout_rows(2000, 3)
    outcomes = _table_outcomes(_collapse_tables(strategy), inputs, draws)
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
        return {label: effects[i] for label, i in zip(OUTCOME_LABELS, rng.permutation(4))}

    measurements = tuple({x: family(d) for x in range(N_INPUTS[p])} for p, d in enumerate(dims))
    return Strategy(random_density_operator(int(np.prod(dims)), rng), dims, measurements)


def test_memoised_collapse_matches_loop_with_unequal_local_dims():
    strategy = _unequal_dims_strategy(8)
    inputs, draws = _layout_rows(2000, 4)
    expected = _collapse_outcomes_reference(strategy, inputs, draws)
    assert np.array_equal(_table_outcomes(_collapse_tables(strategy), inputs, draws), expected)
    # Each (party, input) picks exactly the labels of its nonzero projectors.
    for p in range(3):
        for x, family in strategy.measurements[p].items():
            nonzero = {o for o, label in enumerate(OUTCOME_LABELS) if np.any(family[label])}
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

    monkeypatch.setattr(Strategy, "effect", forbidden)
    monkeypatch.setattr(strategies, "tensor", forbidden)
    monkeypatch.setattr(qops, "tensor", forbidden)
    shapes = []
    original = protocol.born_probabilities

    def recording(rho, family):
        shapes.append((rho.shape, next(iter(family.values())).shape))
        return original(rho, family)

    monkeypatch.setattr(protocol, "born_probabilities", recording)
    run_rounds(ProtocolConfig(n_rounds=2000, seed=2, backend="collapse"), strategy)
    assert shapes and all(state == effect for state, effect in shapes)
    assert {state for state, _ in shapes} == {(d, d) for d in strategy.party_dims}


def _prefixes(transcript):
    x, y, z = transcript.data[:, :3].T.tolist()
    oa, ob, _ = (2 * transcript.data[:, 3:9:2] + transcript.data[:, 4:9:2]).T.tolist()
    return set(zip(x)) | set(zip(x, oa, y)) | set(zip(x, oa, y, ob, z))


def test_collapse_computes_one_distribution_per_prefix(monkeypatch):
    import flagcka.protocol as protocol

    calls = []
    original = protocol.born_probabilities
    monkeypatch.setattr(protocol, "born_probabilities", lambda rho, family: calls.append(1) or original(rho, family))
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
    **{f"random-{seed}": lambda seed=seed: random_projective_strategy(seed) for seed in (0, 1, 2)},
    "dims-2-4-3": lambda: _unequal_dims_strategy(8),
}


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
    families = random_projective_strategy(seed).measurements
    product = families[0][0][(0, 0)]
    for party in (1, 2):
        product = np.kron(product, families[party][0][(0, 0)])
    state = (1 - delta) * product + delta * random_density_operator(64, rng)
    return Strategy(state, (4, 4, 4), families)


@pytest.mark.parametrize("delta", [1e-18, 1e-16, 1e-14, 1e-12, 1e-10])
@pytest.mark.parametrize("seed", [0, 1])
def test_backends_agree_on_rare_outcomes(seed, delta):
    strategy = _rare_outcome_strategy(seed, delta)
    table, collapse = (
        run_rounds(ProtocolConfig(n_rounds=2000, seed=seed, bell_threshold=2.0, backend=backend), strategy)
        for backend in ("table", "collapse")
    )
    assert np.array_equal(table.test, collapse.test)
    assert np.array_equal(table.data, collapse.data)


@pytest.mark.parametrize("kind, visibility", [("flagged", 1.0), ("flagged", 0.9), ("parallel", 0.97)])
def test_backends_agree_draw_for_draw_at_scale(kind, visibility):
    table, collapse = (
        run_rounds(ProtocolConfig(n_rounds=20000, seed=31, strategy_kind=kind, visibility=visibility, backend=backend))
        for backend in ("table", "collapse")
    )
    assert np.array_equal(table.test, collapse.test)
    assert np.array_equal(table.data, collapse.data)


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
    assert np.array_equal(table.test, collapse.test)
    assert np.array_equal(table.data, collapse.data)


def test_round_records_use_protocol_inputs():
    tr = run_rounds(ProtocolConfig(n_rounds=300, seed=1))
    assert tr.test.shape == (300,) and tr.data.shape == (300, len(COLUMNS))
    assert np.isin(tr.data[:, 3:], (0, 1)).all()
    assert (tr.data[~tr.test, :3] == GENERATION_INPUTS).all()
    assert np.isin(tr.data[tr.test, :3], (0, 1)).all()
    assert tr.test.any() and not tr.test.all()


def test_message_schedule_through_completion():
    cfg = ProtocolConfig(n_rounds=2000, seed=6)
    result, tr = run_protocol(cfg)
    assert result.outcome == "completed"
    # After the last round: the flag and test-data announcements, then the XOR.
    kinds = [m.kind for m in tr.announcements]
    assert kinds == ["FlagAnnounce"] * 3 + ["TestDataAnnounce"] * 3 + ["XorAnnounce"]
    flags = [m for m in tr.announcements if m.kind == "FlagAnnounce"]
    assert [m.sender for m in flags] == ["alice", "bob", "carole"]
    # Payloads are what is announced, held as views of the transcript.
    for m, col in zip(flags, ("ta", "tb", "tc")):
        assert np.array_equal(m.payload, tr.data[:, COLUMNS.index(col)])
        assert np.shares_memory(m.payload, tr.data)
    test_data = [m.payload for m in tr.announcements if m.kind == "TestDataAnnounce"]
    assert all(rounds is tr.test for rounds, _ in test_data)
    assert [columns for _, columns in test_data] == [
        tuple(COLUMNS.index(c) for c in party) for party in (("x", "a", "ta"), ("y", "b", "tb"), ("z", "c", "tc"))
    ]
    assert tr.announcements[-1].payload == result.k_xor


def _bits(text):
    return np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")


def test_check_flag_agreement_verdicts():
    assert check_flag_agreement(_bits("0101"), _bits("0101"), _bits("0101")) == "ok"
    assert check_flag_agreement(_bits("0101"), _bits("0100"), _bits("0101")) == "FlagMismatch"
    assert check_flag_agreement(_bits("0000"), _bits("0000"), _bits("0000")) == "FlagConstant"
    assert check_flag_agreement(_bits("1111"), _bits("1111"), _bits("1111")) == "FlagConstant"
    with pytest.raises(ValueError):
        check_flag_agreement(_bits("01"), _bits("011"), _bits("01"))


def _synthetic_transcript(rows, kind="flagged"):
    test = np.array([rt == "test" for rt, _, _ in rows], dtype=bool)
    data = np.array([(*inputs, *(bit for out in outputs for bit in out)) for _, inputs, outputs in rows], dtype=np.int8)
    return Transcript(kind, test, data)


def test_sift_routes_by_flag():
    rows = [
        ("generation", (0, 2, 2), ((1, 0), (1, 0), (0, 0))),   # ab, match
        ("test", (1, 1, 0), ((0, 0), (1, 0), (0, 0))),          # ignored
        ("generation", (0, 2, 2), ((1, 1), (0, 1), (1, 1))),   # ac, match
        ("generation", (0, 2, 2), ((0, 0), (1, 0), (1, 0))),   # ab, mismatch
        ("generation", (0, 2, 2), ((1, 1), (1, 1), (0, 1))),   # ac, mismatch
    ]
    sift = sift_pair_keys(_synthetic_transcript(rows))
    assert sift.alice_ab.tolist() == [1, 0] and sift.partner_ab.tolist() == [1, 1]
    assert sift.alice_ac.tolist() == [1, 1] and sift.partner_ac.tolist() == [1, 0]
    assert sift.mismatch_ab == 1 and sift.mismatch_ac == 1
    assert sift.alice_ab.dtype == sift.partner_ac.dtype == np.uint8


def test_sift_respects_exclusions():
    rows = [
        ("generation", (0, 2, 2), ((1, 0), (1, 0), (0, 0))),
        ("generation", (0, 2, 2), ((0, 0), (0, 0), (0, 0))),
    ]
    sift = sift_pair_keys(_synthetic_transcript(rows), exclude_ab=np.array([0]))
    assert sift.alice_ab.tolist() == [0]


def test_sift_parallel_feeds_both_keys():
    rows = [
        ("generation", (0, 2, 2), ((1, 0), (1, 1), (1, 0))),
        ("generation", (0, 2, 2), ((0, 1), (0, 0), (0, 1))),
    ]
    sift = sift_pair_keys(_synthetic_transcript(rows, kind="parallel"))
    # First bits go to Alice-Bob, second bits to Alice-Carole.
    assert sift.alice_ab.tolist() == [1, 0] and sift.partner_ab.tolist() == [1, 0]
    assert sift.alice_ac.tolist() == [0, 1] and sift.partner_ac.tolist() == [0, 1]
    assert sift.mismatch_ab == 0 and sift.mismatch_ac == 0


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


def test_sift_without_exclusions_keeps_every_routed_round():
    for kind in ("flagged", "parallel"):
        tr = run_rounds(ProtocolConfig(n_rounds=2000, seed=13, strategy_kind=kind))
        sift = sift_pair_keys(tr)
        gen = ~tr.test
        if kind == "flagged":
            flag = tr.data[:, COLUMNS.index("ta")]
            routed = {"ab": gen & (flag == 0), "ac": gen & (flag == 1)}
        else:
            routed = {"ab": gen, "ac": gen}
        for pair, alice_key, partner_key in (("ab", sift.alice_ab, sift.partner_ab), ("ac", sift.alice_ac, sift.partner_ac)):
            alice, partner = (COLUMNS.index(c) for c in _KEY_COLUMNS[kind][pair])
            assert np.array_equal(alice_key, tr.data[routed[pair], alice])
            assert np.array_equal(partner_key, tr.data[routed[pair], partner])


def _reference_bit_string(bits):
    return (np.asarray(bits, dtype=np.uint8) | 48).tobytes().decode("ascii")


def _reference_xor_strings(u, v):
    return _reference_bit_string(np.frombuffer(u.encode(), dtype=np.uint8) ^ np.frombuffer(v.encode(), dtype=np.uint8))


def _reference_sift(tr, pair, exclude):
    """The pair's (Alice's, partner's) key as '0'/'1' strings, routed round by round."""
    alice, partner = (COLUMNS.index(c) for c in _KEY_COLUMNS[tr.strategy_kind][pair])
    excluded = set() if exclude is None else set(exclude.tolist())
    flag = ("ab", "ac").index(pair)
    rows = [
        r
        for r in range(len(tr.test))
        if not tr.test[r] and (tr.strategy_kind == "parallel" or tr.data[r, COLUMNS.index("ta")] == flag)
        and r not in excluded
    ]
    return _reference_bit_string(tr.data[rows, alice]), _reference_bit_string(tr.data[rows, partner])


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    seed=hst.integers(0, 2**32 - 1),
    kind=hst.sampled_from(["flagged", "parallel"]),
    n_rounds=hst.integers(0, 60),
    exclude_fraction=hst.sampled_from([None, 0.0, 0.3, 1.0]),
)
def test_array_keys_match_the_string_reference(seed, kind, n_rounds, exclude_fraction):
    rng = np.random.default_rng(seed)
    test = rng.random(n_rounds) < 0.3
    data = np.empty((n_rounds, len(COLUMNS)), dtype=np.int8)
    data[:, :3] = np.where(test[:, None], rng.integers(0, 2, (n_rounds, 3)), GENERATION_INPUTS)
    data[:, 3:] = rng.integers(0, 2, (n_rounds, 6))
    tr = Transcript(kind, test, data)
    exclude = {
        pair: None if exclude_fraction is None else rng.choice(n_rounds, size=int(exclude_fraction * n_rounds), replace=False)
        for pair in ("ab", "ac")
    }
    sift = sift_pair_keys(tr, exclude["ab"], exclude["ac"])
    (ab_alice, ab_partner), (ac_alice, ac_partner) = (_reference_sift(tr, pair, exclude[pair]) for pair in ("ab", "ac"))
    assert (_bit_string(sift.alice_ab), _bit_string(sift.partner_ab)) == (ab_alice, ab_partner)
    assert (_bit_string(sift.alice_ac), _bit_string(sift.partner_ac)) == (ac_alice, ac_partner)
    assert sift.mismatch_ab == sum(a != b for a, b in zip(ab_alice, ab_partner))
    assert sift.mismatch_ac == sum(a != b for a, b in zip(ac_alice, ac_partner))
    if not ab_alice and not ac_alice:
        with pytest.raises(ValueError):
            xor_reconcile(sift.alice_ab, sift.alice_ac)
        return
    k_xor, k_cka = xor_reconcile(sift.alice_ab, sift.alice_ac)
    m = min(len(ab_alice), len(ac_alice))
    reference_xor = _reference_xor_strings(ab_alice[:m], ac_alice[:m])
    assert _bit_string(k_xor) == reference_xor
    assert _bit_string(k_cka) == ab_alice[:m]
    # The rendered keys of Bob and of Carole, who recovers hers from the announced XOR.
    assert _bit_string(sift.partner_ab[:m]) == ab_partner[:m]
    assert _bit_string(k_xor ^ sift.partner_ac[:m]) == _reference_xor_strings(reference_xor, ac_partner[:m])


def test_alignment_vacuous_at_fraction_zero():
    tr = run_rounds(ProtocolConfig(n_rounds=200, seed=8))
    res = alignment_test(tr, 0.0, 0.98, np.random.default_rng(0))
    assert res.ok
    assert res.match_rates == {"ab": None, "ac": None}
    assert len(res.excluded_ab) == 0 and len(res.excluded_ac) == 0


@pytest.mark.parametrize("kind", ["flagged", "parallel"])
def test_vacuous_alignment_keeps_no_round_arrays(kind):
    # At fraction 0 the exclusions are new empty arrays, not views that
    # pin a pair's index array (0.3-0.6 MB each at 1e5 rounds).
    tr = run_rounds(ProtocolConfig(n_rounds=100_000, seed=31, strategy_kind=kind))
    tracemalloc.start()
    try:
        res = alignment_test(tr, 0.0, 0.98, np.random.default_rng(0))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(res.excluded_ab) == len(res.excluded_ac) == 0
    assert kept < 4096, kept


def test_alignment_passes_on_honest_run():
    tr = run_rounds(ProtocolConfig(n_rounds=400, seed=8))
    res = alignment_test(tr, 0.25, 0.98, np.random.default_rng(1))
    assert res.ok
    assert res.match_rates["ab"] == 1.0
    assert res.match_rates["ac"] == 1.0
    ab_rounds = np.flatnonzero(~tr.test & (tr.data[:, COLUMNS.index("ta")] == 0))
    assert len(res.excluded_ab) == len(set(res.excluded_ab.tolist())) == math.ceil(0.25 * len(ab_rounds))
    assert np.isin(res.excluded_ab, ab_rounds).all()


def test_alignment_catches_value_corruption():
    tr = run_rounds(ProtocolConfig(n_rounds=400, seed=9))
    data = tr.data.copy()
    data[~tr.test, COLUMNS.index("b")] ^= 1  # Bob's value on every generation round
    bad = Transcript("flagged", tr.test, data)
    res = alignment_test(bad, 0.3, 0.98, np.random.default_rng(2))
    assert not res.ok
    assert res.match_rates["ab"] == pytest.approx(0.0)


def test_default_threshold_clamps():
    assert _default_threshold("flagged", 0) == CHSH_QUANTUM_MAX
    assert _default_threshold("flagged", 4) == 2.0  # 1 - 10/2 < 0 clamps to the local bound
    n = 10_000
    expected = CHSH_QUANTUM_MAX * (1.0 - 10.0 / math.sqrt(n))
    assert _default_threshold("flagged", n) == pytest.approx(expected)
    assert _default_threshold("parallel", 4) == 4.0
    assert _default_threshold("parallel", 0) == PARALLEL_QUANTUM_MAX


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
    with pytest.raises(ValueError):
        apply_tamper(tr, "bit-flip:0.1", rng)
    tr_par = run_rounds(ProtocolConfig(n_rounds=50, seed=0, strategy_kind="parallel"))
    with pytest.raises(ValueError):
        apply_tamper(tr_par, "flag-flip:0.1", rng)


def test_tamper_does_not_mutate_original():
    cfg = ProtocolConfig(n_rounds=200, seed=14)
    tr = run_rounds(cfg)
    test_before, data_before = tr.test.copy(), tr.data.copy()
    apply_tamper(tr, "flag-constant:0", np.random.default_rng(0))
    assert np.array_equal(tr.test, test_before) and np.array_equal(tr.data, data_before)
    assert postprocess(tr, cfg).outcome == "completed"


def test_low_visibility_aborts_below_threshold():
    res, _ = run_protocol(ProtocolConfig(n_rounds=3000, seed=2, visibility=0.5))
    assert res.outcome == "aborted"
    assert res.abort_reason == "BellBelowThreshold"
    assert res.stats["bell_estimate"] < res.stats["bell_threshold"]


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


_STRATEGY_OBJECT = "config 'strategy' must be an object with keys 'kind' and 'visibility'"


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"rounds": 7, "n_rounds": 1, "kind": 0}', "unknown config keys: ['kind', 'rounds']"),
        ('{"strategy": 3}', _STRATEGY_OBJECT),
        ('{"strategy": {"kind": "flagged", "noise": 0}}', _STRATEGY_OBJECT),
        ('{"threshold": "high"}', "could not convert string to float: 'high'"),
        ('{"n_rounds": "1.5"}', "invalid literal for int() with base 10: '1.5'"),
        ('{"strategy": {"kind": "ghz"}}', "unknown strategy kind 'ghz'"),
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
    from flagcka.protocol import _pick

    picked = int(_pick(np.cumsum(probs)[None, :], np.array([draw]))[0])
    (value, flag), _ = measure_collapse(np.diag(probs).astype(complex), _diagonal_family(), draw)
    assert picked == 2 * value + flag == select_outcome(probs, draw) == expected
    assert probs[picked] > 0.0


def test_pick_is_row_wise():
    from flagcka.protocol import _pick

    cum = np.cumsum([[0.5, 0.0, 0.5, 0.0], [0.0, 0.5, 0.5, 0.0], [0.5, 0.5 - 1e-12, 0.0, 0.0]], axis=1)
    draws = np.array([0.5, 0.0, 1.0 - 1e-13])
    assert _pick(cum, draws).tolist() == [2, 1, 1]


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


def test_transcript_jsonl_matches_json_dumps():
    tr = run_rounds(ProtocolConfig(n_rounds=400, seed=4, visibility=0.8))
    records = [
        {"index": r, "type": _ROUND_TYPES[t], "inputs": row[:3], "outputs": [row[3:5], row[5:7], row[7:9]]}
        for r, (t, row) in enumerate(zip(tr.test.tolist(), tr.data.tolist()))
    ]
    assert transcript_to_jsonl(tr).splitlines(keepends=True) == [json.dumps(record) + "\n" for record in records]


def test_flag_flip_tamper_changes_only_bobs_flags():
    from flagcka.protocol import COLUMNS

    tr = run_rounds(ProtocolConfig(n_rounds=1000, seed=13))
    data_before, test_before = tr.data.copy(), tr.test.copy()
    tb = COLUMNS.index("tb")
    for rate in (0.001, 0.05, 0.333, 1.0):
        bad = apply_tamper(tr, f"flag-flip:{rate}", np.random.default_rng(0))
        changed = bad.data != tr.data
        assert np.count_nonzero(changed[:, tb]) == math.ceil(rate * 1000)
        assert not np.delete(changed, tb, axis=1).any()
        assert np.array_equal(bad.test, tr.test)
    assert np.array_equal(tr.data, data_before) and np.array_equal(tr.test, test_before)


def test_transcript_validates_its_arrays():
    tr = run_rounds(ProtocolConfig(n_rounds=200, seed=3))
    again = Transcript("flagged", tr.test, tr.data)
    assert again.test is tr.test and again.data is tr.data and again.announcements == []
    bad = [
        (tr.test.astype(np.int8), tr.data),            # test not bool
        (tr.test[:, None], tr.data),                   # test not 1-D
        (tr.test, tr.data.astype(np.int64)),           # data not int8
        (tr.test, tr.data[:, :8]),                     # a column short
        (tr.test[:-1], tr.data),                       # lengths differ
    ]
    for test, data in bad:
        with pytest.raises(ValueError):
            Transcript("flagged", test, data)


def test_flag_mismatch_abort_reports_where():
    from flagcka.protocol import COLUMNS

    cfg = ProtocolConfig(n_rounds=1000, seed=13)
    tr = run_rounds(cfg)
    tb = COLUMNS.index("tb")
    for rate in (0.001, 0.05, 1.0):
        bad = apply_tamper(tr, f"flag-flip:{rate}", np.random.default_rng(0))
        res = postprocess(bad, cfg)
        assert res.abort_reason == "FlagMismatch"
        flipped = np.flatnonzero(bad.data[:, tb] != tr.data[:, tb])
        assert res.stats["flag_mismatch_round"] == flipped[0]
        assert res.stats["flag_mismatch_parties"] == ["bob"]
        assert res.stats["flag_mismatch_count"] == len(flipped) == math.ceil(rate * 1000)
        assert "bell_margin_stderr" not in res.stats
        assert json.loads(result_to_json(res))["stats"]["flag_mismatch_parties"] == ["bob"]


def test_flag_mismatch_names_the_odd_party_out():
    from flagcka.protocol import COLUMNS

    cfg = ProtocolConfig(n_rounds=500, seed=3)
    tr = run_rounds(cfg)
    ta = COLUMNS.index("ta")
    tr.data[[7, 40], ta] ^= 1
    res = postprocess(tr, cfg)
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
    """run_rounds' (test, data) with all uniforms drawn as one block."""
    u = np.random.default_rng(config.seed).random((config.n_rounds, 7))
    test = u[:, 0] < config.gamma
    inputs = np.where(test[:, None], u[:, 1:4] < 0.5, GENERATION_INPUTS)
    outcomes = _table_outcomes(_cumulative_tables(_build_strategy(config)), inputs, u[:, 4:])
    bits = np.stack((outcomes >> 1, outcomes & 1), axis=2).reshape(-1, 6)
    return test, np.column_stack((inputs, bits)).astype(np.int8)


@pytest.mark.parametrize("n_rounds", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 7])
@pytest.mark.parametrize("backend", ["table", "collapse"])
def test_block_draws_match_one_block(backend, n_rounds):
    config = ProtocolConfig(n_rounds=n_rounds, seed=17, visibility=0.9, backend=backend)
    transcript = run_rounds(config)
    test, data = _one_block_rounds(config)
    assert np.array_equal(transcript.test, test)
    assert np.array_equal(transcript.data, data)


@pytest.mark.parametrize("n_rounds", [1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 7])
def test_written_jsonl_matches_joined_text(n_rounds):
    tr = run_rounds(ProtocolConfig(n_rounds=n_rounds, seed=23, visibility=0.8))
    fh = io.StringIO()
    write_transcript_jsonl(tr, fh)
    text = transcript_to_jsonl(tr)
    assert fh.getvalue() == text
    assert text.count("\n") == n_rounds and text.endswith("\n")
    lines = text.splitlines(keepends=True)
    for r in (0, n_rounds // 2, n_rounds - 1):
        record = {"index": r, "type": ("generation", "test")[int(tr.test[r])], "inputs": tr.data[r, :3].tolist()}
        record["outputs"] = tr.data[r, 3:].reshape(3, 2).tolist()
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
    # Twice the rounds may add the 10 bytes per round a transcript keeps,
    # 1 MB here, but no temporary that grows with the rounds.
    configs = [ProtocolConfig(n_rounds=n_rounds, seed=29, backend=backend) for n_rounds in (100_000, 200_000)]
    sampled = [_traced_peak(lambda: run_rounds(config)) for config in configs]
    with open(os.devnull, "w") as sink:
        written = [_traced_peak(lambda: write_transcript_jsonl(tr, sink)) for tr in map(run_rounds, configs)]
    growth_mb = [(peaks[1] - peaks[0]) / 2**20 for peaks in (sampled, written)]
    assert max(growth_mb) <= 2.0, growth_mb


def test_postprocess_keeps_no_copy_of_the_transcript():
    # What postprocess leaves behind (the announcements and the result)
    # grows with the rounds by the key strings, 0.15 MB from 1e5 to 2e5
    # rounds, but not by copies of the transcript's columns (2.3 MB when
    # each party's test data was copied, 0.3 MB with an index array).
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
    assert growth_mb <= 1.0, growth_mb


@settings(derandomize=True, deadline=None, max_examples=12)
@given(
    seed=hst.integers(0, 2**32 - 1),
    kind=hst.sampled_from(["flagged", "parallel"]),
    visibility=hst.sampled_from([1.0, 0.8]),
    n_rounds=hst.sampled_from([1, 2, 97, BLOCK_ROWS - 1, BLOCK_ROWS + 1]),
)
def test_parsed_jsonl_gives_back_the_arrays(seed, kind, visibility, n_rounds):
    tr = run_rounds(ProtocolConfig(n_rounds=n_rounds, seed=seed, strategy_kind=kind, visibility=visibility))
    fh = io.StringIO()
    write_transcript_jsonl(tr, fh)
    records = [json.loads(line) for line in fh.getvalue().splitlines()]
    assert [record["index"] for record in records] == list(range(n_rounds))
    test = np.array([_ROUND_TYPES.index(record["type"]) for record in records], dtype=bool)
    data = np.array([record["inputs"] + sum(record["outputs"], []) for record in records], dtype=np.int8)
    assert np.array_equal(test, tr.test)
    assert np.array_equal(data, tr.data)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(
    seed=hst.integers(0, 2**32 - 1),
    party=hst.integers(0, 2),
    flipped=hst.sets(hst.integers(0, 599), min_size=1, max_size=20),
)
def test_any_flipped_flag_is_a_mismatch_at_the_earliest_flip(seed, party, flipped):
    config = ProtocolConfig(n_rounds=600, seed=seed)
    tr = run_rounds(config)
    data = tr.data.copy()
    data[sorted(flipped), COLUMNS.index(("ta", "tb", "tc")[party])] ^= 1
    result = postprocess(Transcript("flagged", tr.test, data), config)
    assert result.abort_reason == "FlagMismatch"
    assert result.stats["flag_mismatch_round"] == min(flipped)
    assert result.stats["flag_mismatch_parties"] == [PARTY_NAMES[party]]
    assert result.stats["flag_mismatch_count"] == len(flipped)
