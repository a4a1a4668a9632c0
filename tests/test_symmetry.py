"""The mirror M as an exact oracle: exchange Bob and Carole (y<->z, b<->c,
tb<->tc) and flip every flag. On a flagged behavior or run it exchanges
the two branches and so the two pairwise keys, whatever the code that
computes them, so a swapped pair, branch or column in a table that every
reader shares shows up as a broken relation."""

import math

import numpy as np
import pytest

from flagcka.bell import Behavior, bell_value, behavior_from_strategy, flag_stats
from flagcka.protocol import _CODE_SHAPE, ProtocolConfig, Transcript, postprocess, run_rounds
from flagcka.rates import BOUND_METHODS, SCORE_MODES, BoundMethod, rate_report
from flagcka.strategies import NoiseParams, honest_flagged_strategy


def _mirror_codes() -> np.ndarray:
    """M on round codes: the 2304-entry table of each code's mirror, from
    the (test, x, y, z, a, ta, b, tb, c, tc) axes of _CODE_SHAPE."""
    test, x, y, z, a, ta, b, tb, c, tc = np.indices(_CODE_SHAPE).reshape(len(_CODE_SHAPE), -1)
    mirrored = (test, x, z, y, a, 1 - ta, c, 1 - tc, b, 1 - tb)
    return np.ravel_multi_index(mirrored, _CODE_SHAPE).astype(np.uint16)


def _mirror_table(table: np.ndarray) -> np.ndarray:
    """M on a (x, y, z, a, ta, b, tb, c, tc) behavior table: a transpose
    and a flip of each flag axis."""
    return table.transpose(0, 2, 1, 3, 4, 7, 8, 5, 6)[:, :, :, :, ::-1, :, ::-1, :, ::-1]


def _skewed_honest_behavior() -> Behavior:
    """The honest behavior at v = 0.97 with branch 0 scaled by 1.2 and
    branch 1 by 0.8, so that the two branches differ in weight."""
    table = behavior_from_strategy(honest_flagged_strategy(NoiseParams(visibility=0.97))).table.copy()
    table[..., :, 0, :, 0, :, 0] *= 1.2
    table[..., :, 1, :, 1, :, 1] *= 0.8
    return Behavior(table).validate()


def test_mirror_is_one_involution_on_codes_and_tables():
    perm = _mirror_codes()
    assert np.array_equal(perm[perm], np.arange(len(perm)))
    table = _skewed_honest_behavior().table
    # The code map restricted to the generation half is the table map.
    assert np.array_equal(_mirror_table(table).ravel()[perm[: table.size]], table.ravel())
    assert np.array_equal(_mirror_table(_mirror_table(table)), table)


# The RateReport fields of branch 0 and of branch 1.
_BRANCH_FIELDS = (
    ("p0", "p1"),
    ("score0", "score1"),
    ("entropy_bound0", "entropy_bound1"),
    ("ec_cost0", "ec_cost1"),
    ("r0_raw", "r1_raw"),
    ("r0", "r1"),
)


def test_mirror_exchanges_the_branches_of_a_behavior():
    behavior = _skewed_honest_behavior()
    mirrored = Behavior(_mirror_table(behavior.table)).validate()
    stats, stats_m = flag_stats(behavior), flag_stats(mirrored)
    assert (stats.p0, stats.p1) == pytest.approx((0.6, 0.4), abs=1e-12)
    assert (stats_m.p0, stats_m.p1, stats_m.agreement_prob) == (stats.p1, stats.p0, stats.agreement_prob)
    report, report_m = bell_value(behavior), bell_value(mirrored)
    assert (report_m.chsh_ab_t0, report_m.chsh_ac_t1) == (report.chsh_ac_t1, report.chsh_ab_t0)
    assert (report_m.normalized_ab, report_m.normalized_ac) == (report.normalized_ac, report.normalized_ab)
    assert report_m.total == report.total
    for selector in BOUND_METHODS:
        for mode in SCORE_MODES:
            method = BoundMethod(selector, mode)
            rates, rates_m = rate_report(behavior, method), rate_report(mirrored, method)
            for n0, n1 in _BRANCH_FIELDS:
                assert (getattr(rates_m, n0), getattr(rates_m, n1)) == (getattr(rates, n1), getattr(rates, n0)), n0
            assert rates_m.r_cka == rates.r_cka > 0.0


# bell_branches and bell_estimate sum the same cell frequencies in another
# order after M, so they may differ in the last bits: at most 4 ulp.
_ULPS = 4


@pytest.mark.parametrize("backend, visibility, seed", [("table", 0.97, 5), ("collapse", 0.9, 6)])
def test_mirror_exchanges_the_pairs_of_a_run(backend, visibility, seed):
    # Fraction 0 only: at a fraction above 0 the spot check draws for the
    # "ab" pair first, so M, which exchanges the pairs, does not commute
    # with its draws.
    config = ProtocolConfig(n_rounds=20_000, seed=seed, visibility=visibility, bell_threshold=2.0, backend=backend)
    transcript = run_rounds(config)
    result = postprocess(transcript, config)
    result_m = postprocess(Transcript("flagged", _mirror_codes()[transcript.codes]), config)
    stats, stats_m = result.stats, result_m.stats
    assert result.outcome == result_m.outcome == "completed"
    for ab, ac in (("p_t0_estimate", "p_t1_estimate"), ("len_ab", "len_ac"), ("mismatch_ab", "mismatch_ac")):
        assert (stats_m[ab], stats_m[ac]) == (stats[ac], stats[ab])
    assert stats_m["key_length"] == stats["key_length"] == min(stats["len_ab"], stats["len_ac"])
    branches, branches_m = stats["bell_branches"], stats_m["bell_branches"]
    for value, value_m in ((branches["ab_t0"], branches_m["ac_t1"]), (branches["ac_t1"], branches_m["ab_t0"])):
        assert abs(value_m - value) <= _ULPS * math.ulp(value)
    assert abs(stats_m["bell_estimate"] - stats["bell_estimate"]) <= _ULPS * math.ulp(stats["bell_estimate"])
