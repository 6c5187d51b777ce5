"""Trapezoidal fuzzy demand and its crisp collapse.

Cargo demand between nodes is uncertain and modelled as a four-point
trapezoidal quantity.  All downstream computation is crisp: a demand is
collapsed to a single value through an uncertainty rate ``alpha_prime``
that interpolates between the lower and upper endpoints of the expected
interval.  The collapse is affine and nondecreasing in the rate, which is
what the sensitivity analyses in :mod:`hubnet.workbench` rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TrapezoidalFuzzyNumber",
    "expected_interval",
    "defuzzify",
    "defuzzify_components",
]


@dataclass(frozen=True)
class TrapezoidalFuzzyNumber:
    """Fuzzy quantity described by four ascending support points.

    Valid points satisfy ``0 <= q1 <= q2 <= q3 <= q4``; construction does
    not check them.  Instances hold demand as an ``(n, n, 4)`` component
    array, which :func:`hubnet.model.validate_instance` checks and
    :func:`defuzzify_components` collapses; this scalar form is the
    reference that function is tested against.
    """

    q1: float
    q2: float
    q3: float
    q4: float


def expected_interval(q: TrapezoidalFuzzyNumber) -> tuple[float, float]:
    """Expected interval endpoints ``((q1+q2)/2, (q3+q4)/2)``."""
    return ((q.q1 + q.q2) / 2.0, (q.q3 + q.q4) / 2.0)


def _check_rate(alpha_prime: float) -> None:
    if not 0.0 <= alpha_prime <= 1.0:
        raise ValueError(f"uncertainty rate must lie in [0, 1], got {alpha_prime!r}")


def defuzzify(q: TrapezoidalFuzzyNumber, alpha_prime: float) -> float:
    """Crisp value of ``q`` at uncertainty rate ``alpha_prime``.

    Computes ``(1 - alpha_prime) * lower + alpha_prime * upper`` over the
    expected interval.  Affine in the rate, hence nondecreasing, and equal
    to the interval endpoints at rates 0 and 1.

    Raises:
        ValueError: if ``alpha_prime`` is outside ``[0, 1]``.
    """
    _check_rate(alpha_prime)
    lo, hi = expected_interval(q)
    return (1.0 - alpha_prime) * lo + alpha_prime * hi


def defuzzify_components(components: np.ndarray, alpha_prime: float) -> np.ndarray:
    """Vectorised :func:`defuzzify` over a ``(..., 4)`` component array."""
    _check_rate(alpha_prime)
    comp = np.asarray(components, dtype=float)
    if comp.shape[-1] != 4:
        raise ValueError(f"expected trailing axis of 4 components, got shape {comp.shape}")
    lo = (comp[..., 0] + comp[..., 1]) / 2.0
    hi = (comp[..., 2] + comp[..., 3]) / 2.0
    return (1.0 - alpha_prime) * lo + alpha_prime * hi
