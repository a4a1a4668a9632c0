import itertools
import math
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from flagcka.bell import (
    BELL_FUNCTIONALS,
    CELL_WEIGHTS,
    CHSH_QUANTUM_MAX,
    GENERATION_INPUTS,
    Behavior,
    FlagStats,
    TABLE_SHAPE,
    behavior_from_json,
    behavior_from_strategy,
    behavior_to_json,
    bell_value,
    bell_value_stderr,
    estimate_behavior,
    flag_stats,
    local_bound_bruteforce,
    parallel_bell_value,
)
from flagcka.bell import _deterministic_values
from flagcka.strategies import (
    N_INPUTS,
    NoiseParams,
    honest_flagged_strategy,
    honest_parallel_strategy,
    random_projective_strategy,
)

from devices import constant_flag_strategy, deterministic_behavior


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


@pytest.mark.parametrize("shape", [(2, 3, 3), (2, 3, 3, 4, 4, 4), (*TABLE_SHAPE, 1)])
def test_behavior_rejects_a_table_of_the_wrong_shape(shape):
    message = f"^behavior table must have shape {re.escape(str(TABLE_SHAPE))}, got {re.escape(str(shape))}$"
    with pytest.raises(ValueError, match=message):
        Behavior(np.zeros(shape))


def test_behavior_rejects_unnormalized_table():
    table = np.zeros(TABLE_SHAPE)
    table[..., 0, 0, 0, 0, 0, 0] = 0.7
    with pytest.raises(ValueError):
        Behavior(table).validate()


def _one_nan_cell_table():
    table = behavior_from_strategy(honest_flagged_strategy()).table.copy()
    table[1, 2, 0, 0, 0, 0, 0, 1, 1] = np.nan
    return table


@pytest.mark.parametrize("table", [lambda: np.full(TABLE_SHAPE, np.nan), _one_nan_cell_table], ids=["all", "one_cell"])
def test_behavior_rejects_nan(table):
    # NaN fails every comparison, so each bound is written to fail on it.
    b = Behavior(table())
    assert np.isnan(b.normalization_deviation()) and np.isnan(b.no_signalling_deviation())
    with pytest.raises(ValueError, match=r"^behavior entries outside \[0, 1\]: min nan, max nan$"):
        b.validate()
    with pytest.raises(ValueError, match=r"^behavior entries outside \[0, 1\]"):
        behavior_from_json(behavior_to_json(b))


@pytest.mark.parametrize("table", [lambda: np.full(TABLE_SHAPE, np.nan), _one_nan_cell_table], ids=["all", "one_cell"])
def test_flag_stats_rejects_nan(table):
    # A NaN anywhere makes some flag marginal NaN, and NaN fails each bound.
    with pytest.raises(ValueError, match="varies with inputs by nan|flag marginal depends on the inputs"):
        flag_stats(Behavior(table()))


def test_flag_stats_weights_reject_nan():
    for weights in [(np.nan, 0.5), (0.5, np.nan), (np.nan, np.nan)]:
        with pytest.raises(ValueError, match="^branch weights sum to nan"):
            FlagStats(*weights, agreement_prob=1.0)
    FlagStats(0.5, 0.5 + 1e-10, agreement_prob=1.0)
    with pytest.raises(ValueError, match=r"^branch weights sum to 1\.0000000002 > 1$"):
        FlagStats(0.5, 0.5 + 2e-10, agreement_prob=1.0)


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


def _cells(rows):
    """The cells of (N, 9) integer rows in the columns (x, y, z, a, ta, b, tb, c, tc)."""
    return rows.astype(np.intp) @ CELL_WEIGHTS


def _counts(cells):
    """The per-cell counts of an array of cells, of TABLE_SHAPE as estimate_behavior reads them."""
    return np.bincount(cells, minlength=math.prod(TABLE_SHAPE)).reshape(TABLE_SHAPE)


def _pair_counts(records):
    """The cell counts of ((x, y, z), ((a, ta), (b, tb), (c, tc))) pairs."""
    return _counts(_cells(np.array([(*inputs, *(bit for out in outputs for bit in out)) for inputs, outputs in records])))


def test_estimate_behavior_from_pairs():
    records = [
        ((0, 0, 0), ((0, 0), (0, 0), (0, 0))),
        ((0, 0, 0), ((0, 0), (0, 0), (0, 0))),
        ((0, 0, 0), ((1, 1), (1, 1), (1, 1))),
        ((1, 2, 2), ((0, 0), (1, 0), (0, 0))),
    ]
    est = estimate_behavior(_pair_counts(records))
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
    # Of any integer type.
    counted = _counts(_cells(rows))
    for cell_counts in (counted, counted.astype(np.uint16)):
        est = estimate_behavior(cell_counts)
        np.testing.assert_array_equal(est.counts, counts)
        np.testing.assert_allclose(est.behavior.table, expected, atol=0)


def test_estimate_behavior_counts_cells_as_it_counts_rows():
    rng = np.random.default_rng(29)
    rows = np.column_stack([rng.integers(n, size=200) for n in TABLE_SHAPE]).astype(np.int8)
    cells = _cells(rows).astype(np.uint16)
    # Counted one row at a time.
    counts = np.zeros(TABLE_SHAPE, dtype=np.int64)
    np.add.at(counts, tuple(rows.T), 1)
    estimate = estimate_behavior(_counts(cells))
    np.testing.assert_array_equal(estimate.counts, counts)
    assert estimate.counts.dtype == np.int64
    assert estimate_behavior(_counts(cells[:0])).counts.sum() == 0
    flat = _counts(cells).ravel()
    negative = flat.copy()
    negative[7] = -1
    # Only TABLE_SHAPE counts are read: a flat array is refused, and so is
    # an array of cells, even one of exactly as many rounds as there are cells.
    one_per_cell = _cells(np.tile(rows, (len(flat) // len(rows) + 1, 1))[: len(flat)])
    for bad in (flat, one_per_cell, flat.astype(float), flat[:, None], np.append(flat, 0), negative.reshape(TABLE_SHAPE), flat.reshape(2, -1)):
        with pytest.raises(ValueError):
            estimate_behavior(bad)


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
                # The outcome's six bits (a, ta, b, tb, c, tc) are its cell within the triple's.
                blocks.append((CELL_WEIGHTS[:3] @ (x, y, z) + outcomes).astype(np.uint16))
    est = estimate_behavior(_counts(np.concatenate(blocks)))
    assert est.missing_inputs == ()
    tv = 0.5 * np.abs(est.behavior.table - behavior.table).reshape(18, -1).sum(axis=1).max()
    assert tv < 0.01
    exact = bell_value(behavior).total
    got = bell_value(est.behavior).total
    se = bell_value_stderr(est)
    assert se < 0.01
    assert abs(got - exact) < 4 * se


def test_bell_value_stderr_unsampled_triple_is_inf():
    est = estimate_behavior(_pair_counts([((0, 0, 0), ((0, 0), (0, 0), (0, 0)))]))
    assert bell_value_stderr(est) == np.inf


def test_behavior_json_roundtrip():
    b = behavior_from_strategy(honest_flagged_strategy(NoiseParams(visibility=0.93)))
    blob = behavior_to_json(b)
    back = behavior_from_json(blob)
    np.testing.assert_allclose(back.table, b.table, atol=1e-12)
    assert bell_value(back).total == pytest.approx(bell_value(b).total, abs=1e-9)


def _loop_behavior_json(behavior):
    """The six-loop writer that behavior_to_json replaced, kept as the
    reference for its text."""
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


@pytest.mark.parametrize("seed", range(4))
def test_behavior_json_text_matches_the_loop_writer(seed):
    # Random tables, with exact zeros, negative zero, ones, and subnormal
    # and tiny values in random cells: every float's repr and every key's
    # place must be the loop writer's.
    rng = np.random.default_rng(seed)
    table = rng.random(TABLE_SHAPE) * 10.0 ** rng.integers(-20, 1, TABLE_SHAPE)
    specials = np.array([0.0, -0.0, 1.0, 5e-324, 1e-300, 0.1, 1.0 / 3.0])
    spots = rng.choice(table.size, size=60, replace=False)
    table.ravel()[spots] = specials[rng.integers(0, len(specials), len(spots))]
    b = Behavior(table)
    assert behavior_to_json(b) == _loop_behavior_json(b)
    honest = behavior_from_strategy(honest_flagged_strategy(NoiseParams(visibility=0.97)))
    assert behavior_to_json(honest) == _loop_behavior_json(honest)


def test_behavior_json_roundtrip_is_exact():
    b = behavior_from_strategy(random_projective_strategy(3, NoiseParams(visibility=0.93)))
    np.testing.assert_array_equal(behavior_from_json(behavior_to_json(b)).table, b.table)


@pytest.mark.parametrize(
    "text, named",
    [
        # Negative indices used to wrap around to z=2 and outcome bit 1.
        ('{"0,0,-1": {"0 0 0 0 0 -1": 0.25}}', "'0,0,-1'"),
        ('{"0,0,0": {"0 0 0 0 0 -1": 1.0}}', "'0 0 0 0 0 -1'"),
        ('{"0,0,9": {"0 0 0 0 0 0": 1.0}}', "'0,0,9'"),
        ('{"0,0": {}}', "'0,0'"),
        ('{"0, 0, 0": {}}', "'0, 0, 0'"),
        ('{"0,0,0": {"0 0 0 0 0 2": 1.0}}', "'0 0 0 0 0 2'"),
        ('{"0,0,0": {"0 0 0 0 0": 1.0}}', "'0 0 0 0 0'"),
        ('[0.5, 0.5]', "not an object|must be an object"),
        ('{"0,0,0": [1.0]}', "'0,0,0'"),
        ('{"0,0,0": {"0 0 0 0 0 0": [1.0]}}', "not a number"),
        # float() would read these as 0.0 and 1.0.
        ('{"0,0,0": {"0 0 0 0 0 0": false}}', "probability False .* not a number"),
        ('{"0,0,0": {"0 0 0 0 0 0": "1.0"}}', "probability '1.0' .* not a number"),
    ],
)
def test_behavior_from_json_rejects_keys_it_cannot_place(text, named):
    with pytest.raises(ValueError, match=named):
        behavior_from_json(text)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(alice=hst.integers(0, 15), bob=hst.integers(0, 63), carole=hst.integers(0, 63))
def test_deterministic_behaviors_respect_the_enumerated_local_bound(alice, bob, carole):
    # One of the 16 * 64 * 64 deterministic assignments: index i's base-4
    # digits are the outcomes o = 2 * value + flag per input, first input first.
    def outputs(index, n_inputs):
        digits = np.unravel_index(index, (4,) * n_inputs)
        return {i: (int(o) >> 1, int(o) & 1) for i, o in enumerate(digits)}

    b = deterministic_behavior(outputs(alice, 2), outputs(bob, 3), outputs(carole, 3))
    assert bell_value(b).total <= local_bound_bruteforce()[0]
    assert parallel_bell_value(b).total <= BELL_FUNCTIONALS["parallel"].local_bound


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
    est = estimate_behavior(_counts(_cells(rows)))
    for kind, c in coeff.items():
        var = 0.0
        for x, y, z in itertools.product(range(2), range(3), range(3)):
            if c[x, y, z].any():
                p = est.behavior.table[x, y, z]
                mean = (c[x, y, z] * p).sum()
                var += ((c[x, y, z] ** 2 * p).sum() - mean**2) / est.triple_totals()[x, y, z]
        assert bell_value_stderr(est, kind) == pytest.approx(np.sqrt(var), rel=1e-12)
