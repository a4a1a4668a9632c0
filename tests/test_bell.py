import itertools
import tracemalloc

import numpy as np
import pytest

from flagcka.bell import (
    BELL_FUNCTIONALS,
    CHSH_QUANTUM_MAX,
    GENERATION_INPUTS,
    Behavior,
    TABLE_SHAPE,
    behavior_from_json,
    behavior_from_strategy,
    behavior_to_json,
    bell_value,
    bell_value_stderr,
    deterministic_behavior,
    estimate_behavior,
    flag_stats,
    local_bound_bruteforce,
    parallel_bell_value,
)
from flagcka.bell import _deterministic_values
from flagcka.strategies import (
    N_INPUTS,
    NoiseParams,
    constant_flag_strategy,
    honest_flagged_strategy,
    honest_parallel_strategy,
    random_projective_strategy,
)


def test_scenario_singleton():
    assert N_INPUTS == (2, 3, 3)
    assert GENERATION_INPUTS == (0, 2, 2)


def test_honest_behavior_is_valid():
    b = behavior_from_strategy(honest_flagged_strategy())
    assert b.normalization_deviation() < 1e-12
    assert b.no_signalling_deviation() < 1e-12
    b.validate()


def test_behavior_rejects_signalling_table():
    table = np.zeros(TABLE_SHAPE)
    # Alice's marginal depends on Bob's input: deterministic but signalling.
    for x, y, z in itertools.product(range(2), range(3), range(3)):
        a = y % 2
        table[x, y, z, a, 0, 0, 0, 0, 0] = 1.0
    b = Behavior(table)
    assert b.no_signalling_deviation() > 0.5
    with pytest.raises(ValueError):
        b.validate()


def test_behavior_rejects_unnormalized_table():
    table = np.zeros(TABLE_SHAPE)
    table[..., 0, 0, 0, 0, 0, 0] = 0.7
    with pytest.raises(ValueError):
        Behavior(table).validate()


def test_honest_bell_value_is_quantum_max():
    b = behavior_from_strategy(honest_flagged_strategy())
    rep = bell_value(b)
    assert rep.total == pytest.approx(CHSH_QUANTUM_MAX, abs=1e-9)
    # Each gated block carries half the weight; normalizing by the
    # branch weight 1/2 restores the full two-party violation.
    assert rep.chsh_ab_t0 == pytest.approx(CHSH_QUANTUM_MAX / 2, abs=1e-9)
    assert rep.chsh_ac_t1 == pytest.approx(CHSH_QUANTUM_MAX / 2, abs=1e-9)
    assert rep.normalized_ab == pytest.approx(CHSH_QUANTUM_MAX, abs=1e-9)
    assert rep.normalized_ac == pytest.approx(CHSH_QUANTUM_MAX, abs=1e-9)


def test_bell_value_scales_with_visibility():
    for v in (0.95, 0.9, 0.8, 0.5):
        b = behavior_from_strategy(honest_flagged_strategy(NoiseParams(visibility=v)))
        rep = bell_value(b)
        assert rep.total == pytest.approx(CHSH_QUANTUM_MAX * v, abs=1e-9)


def test_constant_flag_strategy_kills_one_block():
    b0 = behavior_from_strategy(constant_flag_strategy(0))
    rep0 = bell_value(b0)
    assert rep0.chsh_ab_t0 == pytest.approx(CHSH_QUANTUM_MAX, abs=1e-9)
    assert rep0.chsh_ac_t1 == pytest.approx(0.0, abs=1e-12)
    assert rep0.normalized_ac is None  # branch weight zero

    b1 = behavior_from_strategy(constant_flag_strategy(1))
    rep1 = bell_value(b1)
    assert rep1.chsh_ab_t0 == pytest.approx(0.0, abs=1e-12)
    assert rep1.chsh_ac_t1 == pytest.approx(CHSH_QUANTUM_MAX, abs=1e-9)


def test_flag_stats_honest():
    fs = flag_stats(behavior_from_strategy(honest_flagged_strategy()))
    assert fs.p0 == pytest.approx(0.5, abs=1e-12)
    assert fs.p1 == pytest.approx(0.5, abs=1e-12)
    assert fs.agreement_prob == pytest.approx(1.0, abs=1e-12)


def test_flag_stats_independent_uniform_flags():
    # Flags drawn independently and uniformly agree with probability 1/4.
    table = np.zeros(TABLE_SHAPE)
    for x, y, z in itertools.product(range(2), range(3), range(3)):
        for ta, tb, tc in itertools.product(range(2), repeat=3):
            table[x, y, z, 0, ta, 0, tb, 0, tc] = 1.0 / 8.0
    fs = flag_stats(Behavior(table))
    assert fs.p0 == pytest.approx(1 / 8)
    assert fs.p1 == pytest.approx(1 / 8)
    assert fs.agreement_prob == pytest.approx(1 / 4)


def test_flag_stats_rejects_signalling_flags():
    table = np.zeros(TABLE_SHAPE)
    for x, y, z in itertools.product(range(2), range(3), range(3)):
        t = 1 if y == 2 else 0  # Bob's flag leaks his input
        table[x, y, z, 0, t, 0, t, 0, t] = 1.0
    with pytest.raises(ValueError):
        flag_stats(Behavior(table))


def test_local_bound_is_two():
    value, maximizer = local_bound_bruteforce()
    assert value == 2.0
    # The returned assignment must reproduce the bound.
    b = deterministic_behavior(**maximizer)
    assert bell_value(b).total == pytest.approx(2.0, abs=1e-12)


def test_local_bound_spot_checks():
    # All-zero outputs with agreeing flags: only the t=0 block
    # contributes, and constant outputs give CHSH = 2.
    alice = {x: (0, 0) for x in range(2)}
    bob = {y: (0, 0) for y in range(3)}
    carole = {z: (0, 0) for z in range(3)}
    b = deterministic_behavior(alice, bob, carole)
    assert bell_value(b).total == pytest.approx(2.0, abs=1e-12)

    # Disagreeing constant flags: both blocks are empty.
    bob = {y: (0, 1) for y in range(3)}
    b = deterministic_behavior(alice, bob, carole)
    assert bell_value(b).total == pytest.approx(0.0, abs=1e-12)

    # A sign pattern that would break CHSH if the gate let it through:
    # anti-aligned outputs still cannot beat 2.
    alice = {0: (0, 0), 1: (1, 0)}
    bob = {0: (0, 0), 1: (1, 0), 2: (0, 0)}
    carole = {z: (0, 0) for z in range(3)}
    b = deterministic_behavior(alice, bob, carole)
    assert bell_value(b).total <= 2.0 + 1e-12


def test_local_bound_exhaustive_matches_convex_combination():
    # Mixing two deterministic strategies stays below the bound.
    rng = np.random.default_rng(17)
    value, _ = local_bound_bruteforce()
    for _ in range(20):
        alice = {x: (int(rng.integers(2)), int(rng.integers(2))) for x in range(2)}
        bob = {y: (int(rng.integers(2)), int(rng.integers(2))) for y in range(3)}
        carole = {z: (int(rng.integers(2)), int(rng.integers(2))) for z in range(3)}
        b = deterministic_behavior(alice, bob, carole)
        assert bell_value(b).total <= value + 1e-12


def test_quantum_value_beats_local_bound():
    value, _ = local_bound_bruteforce()
    honest = bell_value(behavior_from_strategy(honest_flagged_strategy())).total
    assert honest > value + 0.8  # 2 sqrt(2) - 2 ~ 0.83


def test_parallel_bell_value():
    b = behavior_from_strategy(honest_parallel_strategy())
    rep = parallel_bell_value(b)
    assert rep.chsh_pair_ab == pytest.approx(CHSH_QUANTUM_MAX, abs=1e-9)
    assert rep.chsh_pair_ac == pytest.approx(CHSH_QUANTUM_MAX, abs=1e-9)
    assert rep.total == pytest.approx(2 * CHSH_QUANTUM_MAX, abs=1e-9)


def test_random_strategies_respect_tsirelson():
    for seed in range(10):
        b = behavior_from_strategy(random_projective_strategy(seed))
        rep = bell_value(b)
        assert rep.total <= CHSH_QUANTUM_MAX + 1e-9


def _pair_rows(records):
    """(N, 9) int8 rows of ((x, y, z), ((a, ta), (b, tb), (c, tc))) pairs."""
    return np.array([(*inputs, *(bit for out in outputs for bit in out)) for inputs, outputs in records], dtype=np.int8)


def test_estimate_behavior_from_pairs():
    records = [
        ((0, 0, 0), ((0, 0), (0, 0), (0, 0))),
        ((0, 0, 0), ((0, 0), (0, 0), (0, 0))),
        ((0, 0, 0), ((1, 1), (1, 1), (1, 1))),
        ((1, 2, 2), ((0, 0), (1, 0), (0, 0))),
    ]
    est = estimate_behavior(_pair_rows(records))
    t = est.behavior.table
    assert t[0, 0, 0, 0, 0, 0, 0, 0, 0] == pytest.approx(2 / 3)
    assert t[0, 0, 0, 1, 1, 1, 1, 1, 1] == pytest.approx(1 / 3)
    assert t[1, 2, 2, 0, 0, 1, 0, 0, 0] == pytest.approx(1.0)
    assert est.counts.sum() == 4
    assert (0, 1, 0) in est.missing_inputs
    assert (0, 0, 0) not in est.missing_inputs


def test_estimate_behavior_array_input_matches_pairs():
    rng = np.random.default_rng(23)
    rows = np.column_stack(
        [
            rng.integers(2, size=50),
            rng.integers(3, size=50),
            rng.integers(3, size=50),
            rng.integers(2, size=(50, 6)),
        ]
    )
    # Counted one (inputs, outputs) pair at a time.
    counts = np.zeros(TABLE_SHAPE)
    for (x, y, z), outputs in (((r[0], r[1], r[2]), r[3:]) for r in rows.tolist()):
        counts[(x, y, z, *outputs)] += 1
    totals = counts.reshape(18, -1).sum(axis=1).reshape(2, 3, 3, 1, 1, 1, 1, 1, 1)
    expected = np.divide(counts, totals, out=np.zeros(TABLE_SHAPE), where=totals > 0)
    for array in (rows, rows.astype(np.int8)):
        est = estimate_behavior(array)
        np.testing.assert_array_equal(est.counts, counts)
        np.testing.assert_allclose(est.behavior.table, expected, atol=0)


def test_estimate_behavior_rejects_out_of_range_rows():
    row = np.zeros((1, 9), dtype=np.int8)
    bad = []
    for column, value in ((1, 3), (0, 2), (4, 2), (8, -1)):
        # (y = 3, x = 0) would otherwise count as (x = 1, y = 0).
        rows = row.copy()
        rows[0, column] = value
        bad.append(rows)
    bad += [row[:, :8], row[0], row.astype(float)]
    for rows in bad:
        with pytest.raises(ValueError):
            estimate_behavior(rows)
    assert estimate_behavior(row[:0]).counts.sum() == 0


def test_estimate_behavior_makes_no_copy_of_the_rows():
    # One 8-byte code per row and fixed-size buffers; a cast copy of the
    # rows would add 36 (int32) or 72 (int64) bytes per row, and a code
    # that bincount has to cast, 8 more.
    rows = np.random.default_rng(5).integers(2, size=(200_000, 9)).astype(np.int8)
    tracemalloc.start()
    try:
        estimate_behavior(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(rows) < 10, peak


def test_estimate_behavior_converges_to_born():
    # 10^6 samples per input triple: total variation within 0.01 and
    # the plugged-in Bell value within 4 standard errors of exact.
    strategy = honest_flagged_strategy(NoiseParams(visibility=0.9))
    behavior = behavior_from_strategy(strategy)
    rng = np.random.default_rng(31)
    n_per = 1_000_000
    blocks = []
    for x in range(2):
        for y in range(3):
            for z in range(3):
                p = behavior.table[x, y, z].ravel()
                outcomes = rng.choice(p.size, size=n_per, p=p / p.sum())
                rows = np.empty((n_per, 9), dtype=np.int64)
                rows[:, 0] = x
                rows[:, 1] = y
                rows[:, 2] = z
                for k in range(6):
                    rows[:, 3 + k] = (outcomes >> (5 - k)) & 1
                blocks.append(rows)
    est = estimate_behavior(np.vstack(blocks))
    assert est.missing_inputs == ()
    tv = 0.5 * np.abs(est.behavior.table - behavior.table).reshape(18, -1).sum(axis=1).max()
    assert tv < 0.01
    exact = bell_value(behavior).total
    got = bell_value(est.behavior).total
    se = bell_value_stderr(est)
    assert se < 0.01
    assert abs(got - exact) < 4 * se


def test_bell_value_stderr_unsampled_triple_is_inf():
    est = estimate_behavior(_pair_rows([((0, 0, 0), ((0, 0), (0, 0), (0, 0)))]))
    assert bell_value_stderr(est) == np.inf


def test_behavior_json_roundtrip():
    b = behavior_from_strategy(honest_flagged_strategy(NoiseParams(visibility=0.93)))
    blob = behavior_to_json(b)
    back = behavior_from_json(blob)
    np.testing.assert_allclose(back.table, b.table, atol=1e-12)
    assert bell_value(back).total == pytest.approx(bell_value(b).total, abs=1e-9)


def _chsh(joint):
    """CHSH from correlators, E00 + E01 + E10 - E11; joint(x, w) is the
    2x2 table of the two compared bits at Alice's input x, partner's w."""

    def corr(x, w):
        p = joint(x, w)
        return p[0, 0] - p[0, 1] - p[1, 0] + p[1, 1]

    return corr(0, 0) + corr(0, 1) + corr(1, 0) - corr(1, 1)


def _reference_blocks(t):
    """Every block of both kinds, written out term by term: the mean of
    its CHSH values at the spectator's test inputs 0 and 1; `t` need not
    be a normalized behavior."""

    def pooled(joint):
        return (_chsh(lambda x, w: joint(x, w, 0)) + _chsh(lambda x, w: joint(x, w, 1))) / 2

    return {
        # all three flags 0; sum Carole's value -> p(a, b)
        "ab_t0": pooled(lambda x, w, s: t[x, w, s, :, 0, :, 0, :, 0].sum(axis=2)),
        # all three flags 1; sum Bob's value -> p(a, c)
        "ac_t1": pooled(lambda x, w, s: t[x, s, w, :, 1, :, 1, :, 1].sum(axis=1)),
        # first bits of Alice and Bob -> p(a, b)
        "pair_ab": pooled(lambda x, w, s: t[x, w, s].sum(axis=(1, 3, 4, 5))),
        # second bits of Alice and Carole -> p(ta, tc)
        "pair_ac": pooled(lambda x, w, s: t[x, s, w].sum(axis=(0, 2, 3, 4))),
    }


def test_coefficient_tensors_match_reference_chsh_sums():
    rng = np.random.default_rng(41)
    for _ in range(20):
        table = rng.random(TABLE_SHAPE)
        ref = _reference_blocks(table)
        flagged = bell_value(Behavior(table))
        parallel = parallel_bell_value(Behavior(table))
        assert flagged.chsh_ab_t0 == pytest.approx(ref["ab_t0"], abs=1e-12)
        assert flagged.chsh_ac_t1 == pytest.approx(ref["ac_t1"], abs=1e-12)
        assert parallel.chsh_pair_ab == pytest.approx(ref["pair_ab"], abs=1e-12)
        assert parallel.chsh_pair_ac == pytest.approx(ref["pair_ac"], abs=1e-12)
        for functional in BELL_FUNCTIONALS.values():
            values = functional.block_values(table)
            for name, value in zip(functional.blocks, values):
                assert value == pytest.approx(ref[name], abs=1e-12)


def test_enumeration_matches_bell_value_on_deterministic_behaviors():
    rng = np.random.default_rng(43)
    flagged = _deterministic_values(BELL_FUNCTIONALS["flagged"].coeffs.sum(axis=0))
    parallel = _deterministic_values(BELL_FUNCTIONALS["parallel"].coeffs.sum(axis=0))
    for _ in range(250):
        # Outcome index o = 2*value + flag per input, as the enumeration orders them.
        outs = [rng.integers(4, size=n) for n in (2, 3, 3)]
        idx = tuple(int(np.ravel_multi_index(o, (4,) * len(o))) for o in outs)
        alice, bob, carole = ({i: (int(o >> 1), int(o & 1)) for i, o in enumerate(row)} for row in outs)
        b = deterministic_behavior(alice, bob, carole)
        assert flagged[idx] == bell_value(b).total
        assert parallel[idx] == parallel_bell_value(b).total


def test_enumerated_local_bound_per_kind():
    # The floors ProtocolConfig and the default threshold take from
    # BELL_FUNCTIONALS: one CHSH block's 2 when flags gate, two otherwise.
    expected = {"flagged": 2.0, "parallel": 4.0}
    for kind, functional in BELL_FUNCTIONALS.items():
        values = _deterministic_values(functional.coeffs.sum(axis=0))
        assert values.max() == functional.local_bound == expected[kind]
        assert functional.local_bound < functional.quantum_max



def test_bell_value_stderr_matches_loop_reference():
    # Coefficients recovered cell by cell from the written-out blocks
    # (the functional is linear), then the per-triple variance loop.
    names = {"flagged": ("ab_t0", "ac_t1"), "parallel": ("pair_ab", "pair_ac")}
    coeff = {kind: np.zeros(TABLE_SHAPE) for kind in names}
    for cell in itertools.product(*map(range, TABLE_SHAPE)):
        unit = np.zeros(TABLE_SHAPE)
        unit[cell] = 1.0
        ref = _reference_blocks(unit)
        for kind, blocks in names.items():
            coeff[kind][cell] = sum(ref[b] for b in blocks)
    rng = np.random.default_rng(47)
    rows = np.column_stack(
        [rng.integers(2, size=3000), rng.integers(2, size=3000), rng.integers(2, size=3000), rng.integers(2, size=(3000, 6))]
    )
    est = estimate_behavior(rows)
    for kind, c in coeff.items():
        var = 0.0
        for x, y, z in itertools.product(range(2), range(3), range(3)):
            if c[x, y, z].any():
                p = est.behavior.table[x, y, z]
                mean = (c[x, y, z] * p).sum()
                var += ((c[x, y, z] ** 2 * p).sum() - mean**2) / est.triple_totals()[x, y, z]
        assert bell_value_stderr(est, kind) == pytest.approx(np.sqrt(var), rel=1e-12)
