import io
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
    ProtocolConfig,
    RoundRecord,
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
    _build_strategy,
    _collapse_outcomes,
    _cumulative_tables,
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
    assert tr1.rounds == tr2.rounds
    res3, _ = run_protocol(ProtocolConfig(n_rounds=400, seed=4))
    assert res3.keys != res1.keys


def test_backends_agree_draw_for_draw():
    # The conditional-table device consumes the same uniform draws as the
    # explicit-collapse device and must produce identical transcripts.
    for seed in (0, 11):
        _, tr_table = run_protocol(ProtocolConfig(n_rounds=300, seed=seed, backend="table"))
        _, tr_collapse = run_protocol(ProtocolConfig(n_rounds=300, seed=seed, backend="collapse"))
        assert tr_table.rounds == tr_collapse.rounds


def test_backends_agree_under_noise_and_parallel():
    _, a = run_protocol(ProtocolConfig(n_rounds=200, seed=5, visibility=0.85, bell_threshold=2.0, backend="table"))
    _, b = run_protocol(ProtocolConfig(n_rounds=200, seed=5, visibility=0.85, bell_threshold=2.0, backend="collapse"))
    assert a.rounds == b.rounds
    _, c = run_protocol(ProtocolConfig(n_rounds=200, seed=5, strategy_kind="parallel", backend="table"))
    _, d = run_protocol(ProtocolConfig(n_rounds=200, seed=5, strategy_kind="parallel", backend="collapse"))
    assert c.rounds == d.rounds


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
    assert np.array_equal(_collapse_outcomes(strategy, inputs, draws), expected)


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
    assert np.array_equal(_collapse_outcomes(strategy, inputs, draws), _collapse_outcomes_reference(strategy, inputs, draws))


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
    assert np.array_equal(_collapse_outcomes(strategy, inputs, draws), expected)
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
    counts = []
    for n_rounds in (2000, 20000):
        calls.clear()
        transcript = run_rounds(replace(config, n_rounds=n_rounds))
        assert len(calls) == len(_prefixes(transcript)) <= 2 + 24 + 288
        counts.append(len(calls))
    # Ten times the rounds only fills in the few prefixes the shorter run
    # missed: the count is capped by the reachable set, not by the rounds.
    assert counts[0] <= counts[1] == len(reachable) < 2 + 24 + 288


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
    assert len(tr.rounds) == 300
    saw_test = saw_gen = False
    for r in tr.rounds:
        assert all(len(out) == 2 for out in r.outputs)
        assert all(bit in (0, 1) for out in r.outputs for bit in out)
        if r.round_type == "generation":
            assert r.inputs == GENERATION_INPUTS
            saw_gen = True
        else:
            x, y, z = r.inputs
            assert x in (0, 1) and y in (0, 1) and z in (0, 1)
            saw_test = True
    assert saw_test and saw_gen


def test_per_round_event_schedule():
    # Devices only ever see (input, state): the round type is announced
    # before inputs are chosen, and every measurement happens after all
    # three inputs exist.
    tr = run_rounds(ProtocolConfig(n_rounds=50, seed=2))
    per_round = 1 + 3 + 1 + 3 + 3  # distribute, receipts, round_type, inputs, measures
    assert len(tr.events) == 50 * per_round
    for r in range(50):
        chunk = tr.events[r * per_round:(r + 1) * per_round]
        kinds = [e[0] for e in chunk]
        assert kinds == ["distribute"] + ["receipt"] * 3 + ["round_type"] + ["input"] * 3 + ["measure"] * 3
        assert all(e[1] == r for e in chunk)


def test_message_schedule_through_completion():
    cfg = ProtocolConfig(n_rounds=2000, seed=6)
    result, tr = run_protocol(cfg)
    assert result.outcome == "completed"
    kinds = [m.kind for m in tr.messages]
    # Per-round receipts and announcements first ...
    assert kinds[:4] == ["Receipt", "Receipt", "Receipt", "RoundTypeAnnounce"]
    # ... then the deferred flag and test-data announcements, then the XOR.
    tail = kinds[-7:]
    assert tail == ["FlagAnnounce"] * 3 + ["TestDataAnnounce"] * 3 + ["XorAnnounce"]
    senders = [m.sender for m in tr.messages if m.kind == "FlagAnnounce"]
    assert senders == ["alice", "bob", "carole"]


def test_check_flag_agreement_verdicts():
    assert check_flag_agreement("0101", "0101", "0101") == "ok"
    assert check_flag_agreement("0101", "0100", "0101") == "FlagMismatch"
    assert check_flag_agreement("0000", "0000", "0000") == "FlagConstant"
    assert check_flag_agreement("1111", "1111", "1111") == "FlagConstant"
    with pytest.raises(ValueError):
        check_flag_agreement("01", "011", "01")


def _synthetic_transcript(rows, kind="flagged"):
    rounds = [
        RoundRecord(index=i, round_type=rt, inputs=inputs, outputs=outputs)
        for i, (rt, inputs, outputs) in enumerate(rows)
    ]
    return Transcript(strategy_kind=kind, n_rounds=len(rounds), rounds=rounds)


def test_sift_routes_by_flag():
    rows = [
        ("generation", (0, 2, 2), ((1, 0), (1, 0), (0, 0))),   # ab, match
        ("test", (1, 1, 0), ((0, 0), (1, 0), (0, 0))),          # ignored
        ("generation", (0, 2, 2), ((1, 1), (0, 1), (1, 1))),   # ac, match
        ("generation", (0, 2, 2), ((0, 0), (1, 0), (1, 0))),   # ab, mismatch
        ("generation", (0, 2, 2), ((1, 1), (1, 1), (0, 1))),   # ac, mismatch
    ]
    sift = sift_pair_keys(_synthetic_transcript(rows))
    assert sift.alice_ab == "10" and sift.partner_ab == "11"
    assert sift.alice_ac == "11" and sift.partner_ac == "10"
    assert sift.mismatch_ab == 1 and sift.mismatch_ac == 1


def test_sift_respects_exclusions():
    rows = [
        ("generation", (0, 2, 2), ((1, 0), (1, 0), (0, 0))),
        ("generation", (0, 2, 2), ((0, 0), (0, 0), (0, 0))),
    ]
    sift = sift_pair_keys(_synthetic_transcript(rows), exclude_ab=frozenset({0}))
    assert sift.alice_ab == "0"


def test_sift_parallel_feeds_both_keys():
    rows = [
        ("generation", (0, 2, 2), ((1, 0), (1, 1), (1, 0))),
        ("generation", (0, 2, 2), ((0, 1), (0, 0), (0, 1))),
    ]
    sift = sift_pair_keys(_synthetic_transcript(rows, kind="parallel"))
    # First bits go to Alice-Bob, second bits to Alice-Carole.
    assert sift.alice_ab == "10" and sift.partner_ab == "10"
    assert sift.alice_ac == "01" and sift.partner_ac == "01"
    assert sift.mismatch_ab == 0 and sift.mismatch_ac == 0


def test_xor_reconcile():
    k_xor, k_cka = xor_reconcile("1010", "0110")
    assert k_cka == "1010"
    assert k_xor == "1100"
    # Carole's side: k_xor XOR k_ac recovers the conference key.
    recovered = "".join("1" if a != b else "0" for a, b in zip(k_xor, "0110"))
    assert recovered == k_cka
    # truncation to the shorter key
    k_xor, k_cka = xor_reconcile("10101", "011")
    assert len(k_xor) == len(k_cka) == 3
    with pytest.raises(ValueError):
        xor_reconcile("", "")


def test_alignment_vacuous_at_fraction_zero():
    tr = run_rounds(ProtocolConfig(n_rounds=200, seed=8))
    res = alignment_test(tr, 0.0, 0.98, np.random.default_rng(0))
    assert res.ok
    assert res.match_rates == {"ab": None, "ac": None}
    assert res.excluded_ab == frozenset() and res.excluded_ac == frozenset()


def test_alignment_passes_on_honest_run():
    tr = run_rounds(ProtocolConfig(n_rounds=400, seed=8))
    res = alignment_test(tr, 0.25, 0.98, np.random.default_rng(1))
    assert res.ok
    assert res.match_rates["ab"] == 1.0
    assert res.match_rates["ac"] == 1.0
    n_ab = sum(1 for r in tr.rounds if r.round_type == "generation" and r.outputs[0][1] == 0)
    assert len(res.excluded_ab) == math.ceil(0.25 * n_ab)


def test_alignment_catches_value_corruption():
    tr = run_rounds(ProtocolConfig(n_rounds=400, seed=9))
    rounds = [
        replace(r, outputs=((r.outputs[0][0], r.outputs[0][1]), (1 - r.outputs[1][0], r.outputs[1][1]), r.outputs[2]))
        if r.round_type == "generation"
        else r
        for r in tr.rounds
    ]
    bad = Transcript(strategy_kind="flagged", n_rounds=tr.n_rounds, rounds=rounds)
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
    before = list(tr.rounds)
    apply_tamper(tr, "flag-constant:0", np.random.default_rng(0))
    assert tr.rounds == before
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
    assert not any(m.kind == "FlagAnnounce" for m in tr.messages)
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
    assert picked == 2 * value + flag == select_outcome(probs, np.cumsum(probs), draw) == expected
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
        {"index": r.index, "type": r.round_type, "inputs": list(r.inputs), "outputs": [list(o) for o in r.outputs]}
        for r in tr.rounds
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


def test_transcript_from_records_matches_columns():
    tr = run_rounds(ProtocolConfig(n_rounds=200, seed=3))
    again = Transcript(strategy_kind="flagged", n_rounds=200, rounds=tr.rounds)
    assert np.array_equal(again.data, tr.data) and np.array_equal(again.test, tr.test)
    assert again.rounds == tr.rounds
    with pytest.raises(ValueError):
        Transcript(strategy_kind="flagged", n_rounds=2, rounds=[replace(r, index=r.index + 1) for r in tr.rounds[:2]])
    with pytest.raises(ValueError):
        Transcript(strategy_kind="flagged", n_rounds=1, rounds=[replace(tr.rounds[0], round_type="other")])


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


def test_memory_is_flat_in_rounds():
    # Twice the rounds may add the 10 bytes per round a transcript keeps,
    # 1 MB here, but no temporary that grows with the rounds.
    configs = [ProtocolConfig(n_rounds=n_rounds, seed=29) for n_rounds in (100_000, 200_000)]
    sampled = [_traced_peak(lambda: run_rounds(config)) for config in configs]
    with open(os.devnull, "w") as sink:
        written = [_traced_peak(lambda: write_transcript_jsonl(tr, sink)) for tr in map(run_rounds, configs)]
    growth_mb = [(peaks[1] - peaks[0]) / 2**20 for peaks in (sampled, written)]
    assert max(growth_mb) <= 2.0, growth_mb
