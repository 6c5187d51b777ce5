"""Defuzzification checks against a scalar reference that shares no code
with ``hubnet.fuzzy``: one trapezoidal fuzzy number at a time, where the
package collapses a whole ``(..., 4)`` component array in one pass."""

from dataclasses import dataclass

import numpy as np
import pytest

from hubnet.fuzzy import defuzzify_components


@dataclass(frozen=True)
class TrapezoidalFuzzyNumber:
    """Fuzzy quantity described by four ascending support points."""

    q1: float
    q2: float
    q3: float
    q4: float


def expected_interval(q: TrapezoidalFuzzyNumber) -> tuple[float, float]:
    """Expected interval endpoints ``((q1+q2)/2, (q3+q4)/2)``."""
    return ((q.q1 + q.q2) / 2.0, (q.q3 + q.q4) / 2.0)


def defuzzify(q: TrapezoidalFuzzyNumber, alpha_prime: float) -> float:
    """``(1 - alpha_prime) * lower + alpha_prime * upper`` over the
    expected interval; a ValueError for a rate outside ``[0, 1]``."""
    if not 0.0 <= alpha_prime <= 1.0:
        raise ValueError(f"uncertainty rate must lie in [0, 1], got {alpha_prime!r}")
    lo, hi = expected_interval(q)
    return (1.0 - alpha_prime) * lo + alpha_prime * hi


Q = TrapezoidalFuzzyNumber(60.0, 62.0, 64.0, 66.0)


def test_expected_interval_midpoints():
    assert expected_interval(Q) == (61.0, 65.0)


def test_defuzzify_endpoints_and_midpoint():
    assert defuzzify(Q, 0.0) == 61.0
    assert defuzzify(Q, 1.0) == 65.0
    assert defuzzify(Q, 0.5) == 63.0


def test_defuzzify_is_the_affine_interpolant():
    lo, hi = expected_interval(Q)
    for r in np.linspace(0.0, 1.0, 21):
        assert defuzzify(Q, float(r)) == (1.0 - r) * lo + r * hi


def test_defuzzify_nondecreasing_in_rate():
    rates = np.linspace(0.0, 1.0, 11)
    vals = [defuzzify(Q, float(r)) for r in rates]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_degenerate_trapezoid_is_rate_independent():
    crisp = TrapezoidalFuzzyNumber(42.0, 42.0, 42.0, 42.0)
    assert {defuzzify(crisp, r) for r in (0.0, 0.3, 1.0)} == {42.0}


@pytest.mark.parametrize("rate", [-0.1, 1.0000001, 2.0, -5.0])
def test_rate_outside_unit_interval_rejected(rate):
    with pytest.raises(ValueError):
        defuzzify(Q, rate)
    with pytest.raises(ValueError):
        defuzzify_components(np.zeros((2, 2, 4)), rate)


def test_components_requires_trailing_axis_of_four():
    with pytest.raises(ValueError):
        defuzzify_components(np.zeros((3, 3, 3)), 0.5)


def test_components_matches_scalar_path():
    rng = np.random.default_rng(0)
    comp = np.sort(rng.uniform(0.0, 100.0, size=(4, 5, 4)), axis=-1)
    for rate in (0.0, 0.25, 0.5, 1.0):
        grid = defuzzify_components(comp, rate)
        for i in range(4):
            for j in range(5):
                assert grid[i, j] == defuzzify(TrapezoidalFuzzyNumber(*comp[i, j]), rate)
