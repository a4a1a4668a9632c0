import math
import re

import numpy as np
import pytest

from flagcka.bell import (
    CHSH_QUANTUM_MAX,
    GENERATION_INPUTS,
    TABLE_SHAPE,
    Behavior,
    BellReport,
    behavior_from_strategy,
    bell_value,
    flag_stats,
)
from flagcka.rates import (
    BOUND_METHODS,
    SCORE_MODES,
    BoundMethod,
    RateReport,
    binary_entropy,
    branch_scores,
    chsh_min_entropy_bound,
    chsh_von_neumann_bound,
    conditional_entropy_classical,
    curve_to_csv,
    no_flag_reference_rate,
    rate_report,
    robustness_curve,
)
from flagcka.strategies import NoiseParams, honest_flagged_strategy, random_projective_strategy

# Frozen reference values, computed once with 60-digit mpmath arithmetic:
#   1 - log2(1 + sqrt(2 - 2.5^2/4))      = 0.26756769267675204545...
#   1 - h2(1/2 + sqrt(2.5^2/4 - 1)/2)    = 0.45643555680040359401...
#   1 - h2(1/4)                          = 0.18872187554086717...
MIN_ENTROPY_AT_2_5 = 0.26756769267675207
VON_NEUMANN_AT_2_5 = 0.4564355568004036
REFERENCE_RATE = 0.18872187554086717


def test_binary_entropy():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == pytest.approx(1.0)
    assert binary_entropy(0.25) == pytest.approx(0.8112781244591328)
    with pytest.raises(ValueError):
        binary_entropy(1.2)


def test_min_entropy_bound_endpoints():
    assert chsh_min_entropy_bound(2.0) == pytest.approx(0.0, abs=1e-12)
    assert chsh_min_entropy_bound(CHSH_QUANTUM_MAX) == pytest.approx(1.0, abs=1e-12)
    # Below the local bound nothing is certified.
    assert chsh_min_entropy_bound(1.3) == 0.0
    with pytest.raises(ValueError):
        chsh_min_entropy_bound(CHSH_QUANTUM_MAX + 1e-6)


def test_von_neumann_bound_endpoints():
    assert chsh_von_neumann_bound(2.0) == pytest.approx(0.0, abs=1e-12)
    assert chsh_von_neumann_bound(CHSH_QUANTUM_MAX) == pytest.approx(1.0, abs=1e-12)
    assert chsh_von_neumann_bound(1.9) == 0.0
    with pytest.raises(ValueError):
        chsh_von_neumann_bound(3.0)


def test_bound_frozen_values():
    assert chsh_min_entropy_bound(2.5) == pytest.approx(MIN_ENTROPY_AT_2_5, abs=1e-12)
    assert chsh_von_neumann_bound(2.5) == pytest.approx(VON_NEUMANN_AT_2_5, abs=1e-12)


def test_bounds_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    for s in (2.1, 2.3, 2.5, 2.7, 2.8):
        ms = mp.mpf(s)
        exact_min = 1 - mp.log(1 + mp.sqrt(2 - ms**2 / 4), 2)
        assert chsh_min_entropy_bound(s) == pytest.approx(float(exact_min), abs=1e-14)
        q = mp.mpf(1) / 2 + mp.sqrt(ms**2 / 4 - 1) / 2
        exact_vn = 1 + q * mp.log(q, 2) + (1 - q) * mp.log(1 - q, 2)
        assert chsh_von_neumann_bound(s) == pytest.approx(float(exact_vn), abs=1e-14)


def test_von_neumann_dominates_min_entropy():
    for s in np.linspace(2.0, CHSH_QUANTUM_MAX, 57):
        assert chsh_von_neumann_bound(float(s)) >= chsh_min_entropy_bound(float(s)) - 1e-12


def test_bounds_are_monotone():
    grid = np.linspace(2.0, CHSH_QUANTUM_MAX, 201)
    for fn in (chsh_min_entropy_bound, chsh_von_neumann_bound):
        vals = [fn(float(s)) for s in grid]
        assert all(b - a > -1e-12 for a, b in zip(vals, vals[1:]))


def test_bound_method_validation():
    for sel in BOUND_METHODS:
        for mode in SCORE_MODES:
            BoundMethod(selector=sel, score_mode=mode)
    with pytest.raises(ValueError):
        BoundMethod(selector="magic")
    with pytest.raises(ValueError):
        BoundMethod(score_mode="three_scores")


def test_conditional_entropy_honest_branches():
    b = behavior_from_strategy(honest_flagged_strategy())
    # Perfect correlation with the branch partner: zero leak to correct.
    assert conditional_entropy_classical(b, 0) == pytest.approx(0.0, abs=1e-9)
    assert conditional_entropy_classical(b, 1) == pytest.approx(0.0, abs=1e-9)


def test_conditional_entropy_under_noise():
    # Depolarization leaves the pair anticorrelated with prob (1-v)/2 on
    # ZZ, so H(A|partner) = h2((1-v)/2) in each branch.
    v = 0.9
    b = behavior_from_strategy(honest_flagged_strategy(NoiseParams(visibility=v)))
    expected = binary_entropy((1.0 - v) / 2.0)
    assert conditional_entropy_classical(b, 0) == pytest.approx(expected, abs=1e-9)
    assert conditional_entropy_classical(b, 1) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_conditional_entropy_reads_each_branch_slice(seed):
    # Random projective strategies leave Alice and her partner correlated
    # differently in the two branches, so a swapped branch, partner or
    # gate changes the value.
    b = behavior_from_strategy(random_projective_strategy(seed, NoiseParams(visibility=0.9)))
    x, y, z = GENERATION_INPUTS
    slices = {
        0: b.table[x, y, z, :, 0, :, 0, :, 0].sum(axis=2),  # (a, b), all flags 0, Carole summed out
        1: b.table[x, y, z, :, 1, :, 1, :, 1].sum(axis=1),  # (a, c), all flags 1, Bob summed out
    }
    for t, joint in slices.items():
        joint = joint / joint.sum()
        h_joint = -sum(p * math.log2(p) for p in joint.ravel() if p > 1e-15)
        h_partner = -sum(p * math.log2(p) for p in joint.sum(axis=0) if p > 1e-15)
        assert conditional_entropy_classical(b, t) == pytest.approx(h_joint - h_partner, abs=1e-12)


def test_branch_scores_two_scores_honest():
    b = behavior_from_strategy(honest_flagged_strategy())
    rep = bell_value(b)
    fs = flag_stats(b)
    s0, s1 = branch_scores(rep, fs.p0, fs.p1, "two_scores")
    assert s0 == pytest.approx(CHSH_QUANTUM_MAX, abs=1e-9)
    assert s1 == pytest.approx(CHSH_QUANTUM_MAX, abs=1e-9)


def test_branch_scores_one_score_floor():
    # With equal branch weights the floor for each branch is
    # max(2, 2 s - 2 sqrt(2)): the other branch is assumed maximal.
    b = behavior_from_strategy(honest_flagged_strategy(NoiseParams(visibility=0.95)))
    rep = bell_value(b)
    s = rep.total
    s0, s1 = branch_scores(rep, 0.5, 0.5, "one_score")
    expected = max(2.0, 2.0 * s - CHSH_QUANTUM_MAX)
    assert s0 == pytest.approx(expected, abs=1e-9)
    assert s1 == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("mode", SCORE_MODES)
def test_branch_scores_divide_by_the_weights_given(mode):
    # Weights other than a behavior's own, and no normalized entries: both
    # modes read the blocks or the total and the two weights they are given.
    report = BellReport(chsh_ab_t0=0.6, chsh_ac_t1=1.8, normalized_ab=None, normalized_ac=None, total=2.4)
    s0, s1 = branch_scores(report, 0.25, 0.75, mode)
    if mode == "two_scores":
        assert (s0, s1) == (0.6 / 0.25, 1.8 / 0.75)
    else:
        assert (s0, s1) == (2.0, max(2.0, (2.4 - CHSH_QUANTUM_MAX * 0.25) / 0.75))
    with pytest.raises(ValueError, match=r"^branch weights must be positive, got \(0\.0, 0\.75\)$"):
        branch_scores(report, 0.0, 0.75, mode)


def test_one_score_floor_matches_grid_search():
    # The floor is the worst branch score consistent with the observed
    # total: minimize s0 subject to p0 s0 + p1 s1 = s, s1 <= 2 sqrt(2).
    p0, p1 = 0.5, 0.5
    for s in (2.4, 2.6, 2.8):
        floor = max(2.0, (s - CHSH_QUANTUM_MAX * p1) / p0)
        best = np.inf
        for s1 in np.linspace(2.0, CHSH_QUANTUM_MAX, 20001):
            s0 = (s - p1 * s1) / p0
            if 2.0 - 1e-9 <= s0 <= CHSH_QUANTUM_MAX + 1e-12:
                best = min(best, s0)
        assert floor == pytest.approx(max(2.0, best), abs=1e-3)


def test_rate_report_honest():
    b = behavior_from_strategy(honest_flagged_strategy())
    rep = rate_report(b, BoundMethod(selector="von_neumann_analytic", score_mode="two_scores"))
    assert rep.r0 == pytest.approx(1.0, abs=1e-9)
    assert rep.r1 == pytest.approx(1.0, abs=1e-9)
    assert rep.r_cka == pytest.approx(0.5, abs=1e-9)
    assert rep.ec_cost0 == pytest.approx(0.0, abs=1e-9)
    assert rep.ec_cost1 == pytest.approx(0.0, abs=1e-9)
    # The min-entropy bound has a square-root kink at the quantum
    # maximum, so a few ulps of score error inflate to ~1e-7 there.
    rep_m = rate_report(b, BoundMethod(selector="min_entropy_analytic", score_mode="two_scores"))
    assert rep_m.r0 == pytest.approx(1.0, abs=1e-6)
    assert rep_m.r1 == pytest.approx(1.0, abs=1e-6)
    assert rep_m.r_cka == pytest.approx(0.5, abs=1e-6)


def test_rate_report_noisy_is_consistent():
    v = 0.92
    b = behavior_from_strategy(honest_flagged_strategy(NoiseParams(visibility=v)))
    method = BoundMethod(selector="von_neumann_analytic", score_mode="two_scores")
    rep = rate_report(b, method)
    expected_ec = binary_entropy((1.0 - v) / 2.0)
    assert rep.ec_cost0 == pytest.approx(expected_ec, abs=1e-9)
    assert rep.entropy_bound0 == pytest.approx(chsh_von_neumann_bound(CHSH_QUANTUM_MAX * v), abs=1e-9)
    assert rep.r0_raw == pytest.approx(rep.entropy_bound0 - rep.ec_cost0, abs=1e-12)
    assert rep.r_cka == pytest.approx(min(rep.p0 * rep.r0, rep.p1 * rep.r1), abs=1e-12)
    # one_score certifies less (or the same) than two_scores
    rep_one = rate_report(b, BoundMethod(selector="von_neumann_analytic", score_mode="one_score"))
    assert rep_one.r_cka <= rep.r_cka + 1e-12


def test_rate_report_clamps_negative_rates():
    b = behavior_from_strategy(honest_flagged_strategy(NoiseParams(visibility=0.75)))
    rep = rate_report(b, BoundMethod(selector="min_entropy_analytic", score_mode="one_score"))
    assert rep.r0 == 0.0
    assert rep.r0_raw < 0.0
    assert rep.r_cka == 0.0


def test_rate_report_json():
    import json

    b = behavior_from_strategy(honest_flagged_strategy())
    rep = rate_report(b)
    doc = json.loads(rep.to_json())
    assert doc["r_cka"] == pytest.approx(0.5, abs=1e-9)
    assert doc["method"] == "von_neumann_analytic"


def _reference_rate_report(behavior, method):
    """rate_report as first written: two_scores reads bell_value's blocks
    normalized by its own branch weights at inputs (0,0,0), one_score the
    weights of flag_stats, and each branch is written out."""
    report = bell_value(behavior)
    stats = flag_stats(behavior)
    p0, p1 = stats.p0, stats.p1
    if method.score_mode == "two_scores":
        s0, s1 = report.normalized_ab, report.normalized_ac
    else:
        s0 = (report.total - CHSH_QUANTUM_MAX * p1) / p0
        s1 = (report.total - CHSH_QUANTUM_MAX * p0) / p1
    s0, s1 = min(max(s0, 2.0), CHSH_QUANTUM_MAX), min(max(s1, 2.0), CHSH_QUANTUM_MAX)
    h0, h1 = method.bound(s0), method.bound(s1)
    ec0 = conditional_entropy_classical(behavior, 0)
    ec1 = conditional_entropy_classical(behavior, 1)
    r0_raw, r1_raw = h0 - ec0, h1 - ec1
    r0, r1 = max(r0_raw, 0.0), max(r1_raw, 0.0)
    return RateReport(
        method=method.selector,
        score_mode=method.score_mode,
        p0=p0,
        p1=p1,
        score0=s0,
        score1=s1,
        entropy_bound0=h0,
        entropy_bound1=h1,
        ec_cost0=ec0,
        ec_cost1=ec1,
        r0_raw=r0_raw,
        r1_raw=r1_raw,
        r0=r0,
        r1=r1,
        r_cka=min(p0 * r0, p1 * r1),
    )


_RATE_CASES = {
    **{
        f"honest_v{v}": (lambda v=v: honest_flagged_strategy(NoiseParams(visibility=v)))
        for v in (1.0, 0.97, 0.95, 0.9, 0.85, 0.75)
    },
    **{
        f"random_{seed}": (lambda seed=seed: random_projective_strategy(seed, NoiseParams(visibility=0.9)))
        for seed in range(10)
    },
}


@pytest.mark.parametrize("case", list(_RATE_CASES))
def test_rate_report_matches_the_reference(case):
    behavior = behavior_from_strategy(_RATE_CASES[case]())
    for selector in BOUND_METHODS:
        for mode in SCORE_MODES:
            method = BoundMethod(selector, mode)
            assert rate_report(behavior, method).to_json() == _reference_rate_report(behavior, method).to_json()


def _nan_tables():
    yield np.full(TABLE_SHAPE, np.nan)
    table = behavior_from_strategy(honest_flagged_strategy()).table.copy()
    table[0, 1, 2, 1, 0, 1, 0, 0, 0] = np.nan
    yield table


@pytest.mark.parametrize("table", _nan_tables(), ids=["all", "one_cell"])
def test_rate_report_refuses_nan_at_the_flag_weights(table):
    with pytest.raises(ValueError) as raised:
        rate_report(Behavior(table))
    assert raised.traceback[-1].name == "flag_stats"


@pytest.mark.parametrize("bound", [chsh_min_entropy_bound, chsh_von_neumann_bound])
def test_entropy_bounds_refuse_a_nan_score(bound):
    # The score check raises, not a NaN bound or binary_entropy further on.
    with pytest.raises(ValueError, match=r"^CHSH score nan exceeds the quantum maximum"):
        bound(math.nan)


@pytest.mark.parametrize("mode", SCORE_MODES)
def test_branch_scores_refuse_a_nan_weight(mode):
    report = bell_value(behavior_from_strategy(honest_flagged_strategy()))
    for p0, p1 in [(math.nan, 0.5), (0.5, math.nan)]:
        with pytest.raises(ValueError, match=r"^branch weights must be positive, got \((nan, 0\.5|0\.5, nan)\)$"):
            branch_scores(report, p0, p1, mode)


def _all_flags_zero_behavior():
    """Every party outputs value 0 with flag 0 on every input: branch 1 has no weight."""
    table = np.zeros(TABLE_SHAPE)
    table[..., 0, 0, 0, 0, 0, 0] = 1.0
    return Behavior(table)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: conditional_entropy_classical(behavior_from_strategy(honest_flagged_strategy()), 2),
            "branch must be 0 or 1, got 2",
            id="branch",
        ),
        pytest.param(
            lambda: conditional_entropy_classical(_all_flags_zero_behavior(), 1),
            "flag branch 1 has no weight at the generation inputs",
            id="weightless-branch",
        ),
        pytest.param(
            lambda: branch_scores(bell_value(behavior_from_strategy(honest_flagged_strategy())), 0.5, 0.5, "three_scores"),
            f"mode must be one of {re.escape(str(SCORE_MODES))}, got 'three_scores'",
            id="mode",
        ),
    ],
)
def test_rate_inputs_are_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("selector", BOUND_METHODS)
@pytest.mark.parametrize("mode", SCORE_MODES)
def test_robustness_curve_refuses_a_nan_value(selector, mode):
    with pytest.raises(ValueError, match=r"^total Bell value nan outside \[2, 2\*sqrt\(2\)\]$"):
        robustness_curve([math.nan], BoundMethod(selector, mode))


def test_robustness_curve_endpoints_and_shape():
    for sel in BOUND_METHODS:
        for mode in SCORE_MODES:
            method = BoundMethod(selector=sel, score_mode=mode)
            pts = robustness_curve(np.linspace(2.0, CHSH_QUANTUM_MAX, 33), method)
            s_vals = [s for s, _ in pts]
            h_vals = [h for _, h in pts]
            assert s_vals[0] == pytest.approx(2.0)
            assert s_vals[-1] == pytest.approx(CHSH_QUANTUM_MAX)
            assert h_vals[0] == pytest.approx(0.0, abs=1e-9)
            assert h_vals[-1] == pytest.approx(1.0, abs=1e-9)
            assert all(b - a > -1e-12 for a, b in zip(h_vals, h_vals[1:]))


def test_robustness_curve_orderings():
    grid = np.linspace(2.0, CHSH_QUANTUM_MAX, 65)
    vn_two = robustness_curve(grid, BoundMethod("von_neumann_analytic", "two_scores"))
    mh_two = robustness_curve(grid, BoundMethod("min_entropy_analytic", "two_scores"))
    vn_one = robustness_curve(grid, BoundMethod("von_neumann_analytic", "one_score"))
    for (_, v), (_, m) in zip(vn_two, mh_two):
        assert v >= m - 1e-12  # von Neumann dominates min-entropy
    for (_, two), (_, one) in zip(vn_two, vn_one):
        assert two >= one - 1e-12  # per-branch scores certify at least the floor


def test_curve_to_csv_roundtrip():
    method = BoundMethod("min_entropy_analytic", "one_score")
    pts = robustness_curve([2.0, 2.5, CHSH_QUANTUM_MAX], method)
    text = curve_to_csv(pts, method)
    lines = text.strip().splitlines()
    assert lines[0] == "s,entropy_bound,method,mode"
    assert len(lines) == 4
    s, h, sel, mode = lines[2].split(",")
    assert float(s) == pytest.approx(2.5)
    assert sel == "min_entropy_analytic"
    assert mode == "one_score"
    # repr round-trip keeps full precision
    assert float(h) == pts[1][1]


def test_no_flag_reference_rate():
    assert no_flag_reference_rate() == pytest.approx(REFERENCE_RATE, abs=1e-12)
    assert no_flag_reference_rate() == pytest.approx(1.0 - binary_entropy(0.25), abs=1e-15)
    # The flagged honest protocol beats the flagless reference.
    b = behavior_from_strategy(honest_flagged_strategy())
    assert rate_report(b).r_cka > no_flag_reference_rate()
