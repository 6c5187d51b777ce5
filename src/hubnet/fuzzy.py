"""Trapezoidal fuzzy demand and its crisp collapse.

Cargo demand between nodes is uncertain and modelled as a four-point
trapezoidal quantity.  All downstream computation is crisp: a demand is
collapsed to a single value through an uncertainty rate ``alpha_prime``
that interpolates between the lower and upper endpoints of the expected
interval.  The collapse is affine and nondecreasing in the rate, which is
what the sensitivity analyses in :mod:`hubnet.workbench` rely on.
"""

from __future__ import annotations

import numpy as np

__all__ = ["check_rate", "defuzzify_components"]


def check_rate(alpha_prime: float) -> None:
    """Refuse an uncertainty rate outside [0, 1] (NaN included) with a ValueError."""
    if not 0.0 <= alpha_prime <= 1.0:
        raise ValueError(f"uncertainty rate must lie in [0, 1], got {alpha_prime!r}")


def defuzzify_components(components: np.ndarray, alpha_prime: float) -> np.ndarray:
    """Crisp demand of a ``(..., 4)`` array of trapezoid support points.

    Each trapezoid's expected interval runs from ``(q1+q2)/2`` to
    ``(q3+q4)/2``; the crisp value is ``(1 - alpha_prime) * lower +
    alpha_prime * upper``, affine in the rate, hence nondecreasing, and
    equal to the interval endpoints at rates 0 and 1.

    Raises:
        ValueError: if ``alpha_prime`` is outside ``[0, 1]`` or the
            trailing axis does not hold four components.
    """
    check_rate(alpha_prime)
    comp = np.asarray(components, dtype=float)
    if comp.shape[-1] != 4:
        raise ValueError(f"expected trailing axis of 4 components, got shape {comp.shape}")
    lo = (comp[..., 0] + comp[..., 1]) / 2.0
    hi = (comp[..., 2] + comp[..., 3]) / 2.0
    return (1.0 - alpha_prime) * lo + alpha_prime * hi
