"""Asymptotic key-rate bounds from Bell-value statistics.

Eavesdropper entropies are bounded through the standard single-CHSH
trade-off curves, one per flag branch, after converting the observed
Bell data into a per-branch CHSH score:

  two_scores  each branch is certified by its own flag-gated block,
              normalized by the branch weight: s_t = <block_t>/p_T(t).
  one_score   only the total Bell value s is certified. The adversary
              may split it adversarially between branches, but the
              other branch's block can never exceed its own weighted
              Tsirelson cap 2*sqrt(2)*p_T(1-t), so branch t is floored
              at s_t >= (s - 2*sqrt(2)*p_T(1-t)) / p_T(t), clamped to
              the classical value 2 from below.

The per-branch rate is the certified entropy minus the error-correction
cost of the generation data; the conference rate is the worse of the
two branches weighted by how often each branch occurs.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .bell import CHSH_QUANTUM_MAX, GENERATION_INPUTS, _BRANCH_CELLS, Behavior, BellReport, _pair_joint, bell_value, flag_stats

__all__ = [
    "BOUND_METHODS",
    "SCORE_MODES",
    "BoundMethod",
    "RateReport",
    "binary_entropy",
    "conditional_entropy_classical",
    "chsh_min_entropy_bound",
    "chsh_von_neumann_bound",
    "branch_scores",
    "rate_report",
    "robustness_curve",
    "curve_to_csv",
    "no_flag_reference_rate",
]

BOUND_METHODS = ("min_entropy_analytic", "von_neumann_analytic")
SCORE_MODES = ("one_score", "two_scores")


@dataclass(frozen=True)
class BoundMethod:
    """Selector for the entropy bound and the branch-score mode."""

    selector: str = "von_neumann_analytic"
    score_mode: str = "two_scores"

    def __post_init__(self):
        if self.selector not in BOUND_METHODS:
            raise ValueError(f"selector must be one of {BOUND_METHODS}, got {self.selector!r}")
        if self.score_mode not in SCORE_MODES:
            raise ValueError(f"score_mode must be one of {SCORE_MODES}, got {self.score_mode!r}")

    def bound(self, score: float) -> float:
        if self.selector == "min_entropy_analytic":
            return chsh_min_entropy_bound(score)
        return chsh_von_neumann_bound(score)


def binary_entropy(p: float) -> float:
    """h2(p) in bits; h2(0) = h2(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return float(-p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p))


def _normalize_score(s: float) -> float:
    # Written so that a NaN score fails it.
    if not s <= CHSH_QUANTUM_MAX + 1e-9:
        raise ValueError(f"CHSH score {s} exceeds the quantum maximum {CHSH_QUANTUM_MAX}")
    return min(max(s, 2.0), CHSH_QUANTUM_MAX)


def chsh_min_entropy_bound(score: float) -> float:
    """Certified min-entropy of the key bit: 1 - log2(1 + sqrt(2 - s^2/4)).

    Valid for CHSH scores s in [2, 2*sqrt(2)]; scores below 2 certify
    nothing and clamp to 2 (bound 0). Scores above the quantum maximum
    raise.
    """
    s = _normalize_score(score)
    return 1.0 - math.log2(1.0 + math.sqrt(max(2.0 - s * s / 4.0, 0.0)))


def chsh_von_neumann_bound(score: float) -> float:
    """Certified von Neumann entropy: 1 - h2(1/2 + sqrt(s^2/4 - 1)/2).

    Same domain handling as the min-entropy bound; pointwise at least as
    large, with the same endpoints 0 at s = 2 and 1 at s = 2*sqrt(2).
    """
    s = _normalize_score(score)
    return 1.0 - binary_entropy(0.5 + math.sqrt(max(s * s / 4.0 - 1.0, 0.0)) / 2.0)


def conditional_entropy_classical(behavior: Behavior, t: int) -> float:
    """H(value_A | value_partner) in branch t at the generation inputs.

    The partner and the cells are those of branch t's block (Bob for
    t = 0, Carole for t = 1; all flags t). The joint distribution is read
    from the generation input triple and normalized by the branch weight;
    a vanishing weight raises.
    """
    if t not in (0, 1):
        raise ValueError(f"branch must be 0 or 1, got {t}")
    joint = _pair_joint(behavior.table, _BRANCH_CELLS[t])[GENERATION_INPUTS]
    weight = float(joint.sum())
    if weight <= 1e-12:
        raise ValueError(f"flag branch {t} has no weight at the generation inputs")
    joint = joint / weight

    def ent(p):
        p = p[p > 1e-15]
        return float(-(p * np.log2(p)).sum())

    return ent(joint.ravel()) - ent(joint.sum(axis=0))


def branch_scores(report: BellReport, p0: float, p1: float, mode: str) -> tuple[float, float]:
    """Per-branch normalized CHSH scores under the chosen certification mode.

    Both modes divide by the branch weights given: two_scores each
    branch's block, one_score the floor derived in the module docstring.
    Raises unless both weights are positive.
    """
    if mode not in SCORE_MODES:
        raise ValueError(f"mode must be one of {SCORE_MODES}, got {mode!r}")
    # Written so that a NaN weight fails it.
    if not (p0 > 0.0 and p1 > 0.0):
        raise ValueError(f"branch weights must be positive, got ({p0}, {p1})")
    if mode == "two_scores":
        return (_normalize_score(report.chsh_ab_t0 / p0), _normalize_score(report.chsh_ac_t1 / p1))
    s = report.total
    return (_normalize_score(_one_score_floor(s, p0, p1)), _normalize_score(_one_score_floor(s, p1, p0)))


def _one_score_floor(s: float, p_t: float, p_other: float) -> float:
    """one_score's floor on a branch of weight p_t: (s - 2*sqrt(2)*p_other) / p_t."""
    return (s - CHSH_QUANTUM_MAX * p_other) / p_t


@dataclass(frozen=True)
class RateReport:
    """Per-branch certified entropies, costs and rates, plus the conference rate.

    r0/r1 are clamped at zero; the raw differences are kept alongside.
    """

    method: str
    score_mode: str
    p0: float
    p1: float
    score0: float
    score1: float
    entropy_bound0: float
    entropy_bound1: float
    ec_cost0: float
    ec_cost1: float
    r0_raw: float
    r1_raw: float
    r0: float
    r1: float
    r_cka: float

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def rate_report(behavior: Behavior, method: BoundMethod = BoundMethod()) -> RateReport:
    """Asymptotic rate report for a behavior under the chosen bound.

    The branch weights are read once, by `flag_stats`, and checked by
    `branch_scores`; each branch's score, bound, cost and rate follow.
    """
    stats = flag_stats(behavior)
    scores = branch_scores(bell_value(behavior), stats.p0, stats.p1, method.score_mode)
    branches = {}
    for t, score in enumerate(scores):
        h = method.bound(score)
        ec = conditional_entropy_classical(behavior, t)
        branches.update(
            {f"score{t}": score, f"entropy_bound{t}": h, f"ec_cost{t}": ec, f"r{t}_raw": h - ec, f"r{t}": max(h - ec, 0.0)}
        )
    return RateReport(
        method=method.selector,
        score_mode=method.score_mode,
        p0=stats.p0,
        p1=stats.p1,
        **branches,
        r_cka=min(stats.p0 * branches["r0"], stats.p1 * branches["r1"]),
    )


def robustness_curve(scores, method: BoundMethod = BoundMethod()) -> list[tuple[float, float]]:
    """Entropy bound as a function of the total Bell value, p_T = (1/2, 1/2).

    In two_scores mode each branch block scales with the total, so the
    normalized branch score equals the total Bell value itself. In
    one_score mode the branch floor (s - sqrt(2))/0.5 applies.
    """
    out = []
    for s in scores:
        s = float(s)
        if not 2.0 - 1e-12 <= s <= CHSH_QUANTUM_MAX + 1e-9:
            raise ValueError(f"total Bell value {s} outside [2, 2*sqrt(2)]")
        out.append((s, method.bound(s if method.score_mode == "two_scores" else _one_score_floor(s, 0.5, 0.5))))
    return out


def curve_to_csv(points, method: BoundMethod) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["s", "entropy_bound", "method", "mode"])
    for s, h in points:
        writer.writerow([repr(float(s)), repr(float(h)), method.selector, method.score_mode])
    return buf.getvalue()


def no_flag_reference_rate() -> float:
    """Rate of the comparison variant that corrects instead of discarding.

    Without flag communication each pairwise key sees a 1/4 error rate
    from the rounds where that partner held the uncorrelated qubit, so
    the whole-string error-correction cost is h2(1/4) per round.
    """
    return 1.0 - binary_entropy(0.25)
