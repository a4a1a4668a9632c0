"""Devices the tests build and the package does not: a deterministic
behavior and the single-branch flagged strategy; and the trace distance
of the tests' full-matrix decoupling reference.

Imported as `from devices import ...`; pytest puts this directory on
sys.path.
"""

import numpy as np

from flagcka.bell import TABLE_SHAPE, Behavior
from flagcka.qops import basis_ket, identity, projector, tensor
from flagcka.strategies import NoiseParams, Strategy, honest_flagged_strategy


def deterministic_behavior(alice: dict, bob: dict, carole: dict) -> Behavior:
    """Indicator behavior for deterministic outcome maps input -> (bit, bit)."""
    table = np.zeros(TABLE_SHAPE)
    for x in range(2):
        for y in range(3):
            for z in range(3):
                a, ta = alice[x]
                b, tb = bob[y]
                c, tc = carole[z]
                table[x, y, z, a, ta, b, tb, c, tc] = 1.0
    return Behavior(table)


def constant_flag_strategy(t: int = 0, noise: NoiseParams = NoiseParams()) -> Strategy:
    """Degenerate single-branch variant: every flag reads t in every round.

    The honest state's branch t, 2 P rho P with P = (I (x) |t><t|) on every
    party. The two branches have disjoint flag support and every product
    is by 0, 1 or 2, so each entry is the branch's own, bit for bit.
    """
    if t not in (0, 1):
        raise ValueError(f"flag value must be 0 or 1, got {t}")
    honest = honest_flagged_strategy(noise)
    party = tensor(identity(2), projector(basis_ket(2, t)))
    keep = tensor(party, party, party)
    return Strategy(2 * (keep @ honest.state @ keep), honest.effects, "flagged")


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Half the trace norm of a - b, from the spectrum of the Hermitian difference."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    return float(0.5 * np.abs(np.linalg.eigvalsh(diff)).sum())
