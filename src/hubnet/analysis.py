"""Front quality indicators and the multi-criteria ranking of solvers.

Indicators over one front:

* NPF: member count.
* MSI: euclidean diagonal of the objective bounding box, larger = wider
  coverage.
* SM: Schott spacing, the standard deviation of nearest-neighbour
  L1 distances, smaller = more even.
* CPT: wall-clock seconds the producing solver spent, recorded by the
  caller.

``hypervolume`` is the exact dominated volume against a reference point,
computed by sweeping the first objective and accumulating 2D staircase
areas, so no Monte Carlo noise enters quality gates.

``topsis_rank`` holds the one ranking policy (TOPSIS, Hwang & Yoon 1981):
NPF and MSI are benefits, SM and CPT costs, all four weighted equally.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence, Union

import numpy as np

from .fronts import ParetoFront, nondominated_mask

__all__ = ["FrontMetrics", "compute_metrics", "hypervolume", "topsis_rank"]


@dataclass(frozen=True)
class FrontMetrics:
    npf: int
    msi: float
    sm: float
    cpt: float


_INDICATORS = tuple(f.name for f in fields(FrontMetrics))
_BENEFIT = np.array([True, True, False, False])    # larger npf, msi better
_WEIGHTS = np.full(len(_INDICATORS), 0.25)


def _rows(front: Union[ParetoFront, Sequence]) -> np.ndarray:
    if isinstance(front, ParetoFront):
        return front.objective_rows()
    return np.array([tuple(map(float, r)) for r in front], dtype=float)


def compute_metrics(front: Union[ParetoFront, Sequence], elapsed_seconds: float) -> FrontMetrics:
    rows = _rows(front)
    if len(rows) == 0:
        raise ValueError("cannot score an empty front")
    if elapsed_seconds < 0:
        raise ValueError(f"elapsed time must be >= 0, got {elapsed_seconds}")
    spread = float(np.sqrt(((rows.max(axis=0) - rows.min(axis=0)) ** 2).sum()))
    if len(rows) == 1:
        spacing = 0.0
    else:
        dists = np.abs(rows[:, None, :] - rows[None, :, :]).sum(axis=2)
        np.fill_diagonal(dists, np.inf)
        nearest = dists.min(axis=1)
        spacing = float(np.sqrt(((nearest - nearest.mean()) ** 2).sum() / (len(rows) - 1)))
    return FrontMetrics(npf=len(rows), msi=spread, sm=spacing, cpt=float(elapsed_seconds))


def _staircase_area(points: np.ndarray, r2: float, r3: float) -> float:
    """Area of the union of [z2, r2] x [z3, r3] rectangles."""
    order = np.lexsort((points[:, 1], points[:, 0]))
    area = 0.0
    best = r3
    for z2, z3 in points[order]:
        if z3 < best:
            area += (r2 - z2) * (best - z3)
            best = z3
    return area


def hypervolume(front: Union[ParetoFront, Sequence], reference: Sequence[float]) -> float:
    """Exact volume dominated by the front and bounded by ``reference``.

    Every member must be at or below the reference in all three
    objectives, otherwise the volume would be ill-defined.
    """
    rows = _rows(front)
    ref = np.asarray(tuple(map(float, reference)))
    if ref.shape != (3,):
        raise ValueError("reference must have three components")
    if len(rows) == 0:
        return 0.0
    if np.any(rows > ref[None, :]):
        worst = rows.max(axis=0)
        raise ValueError(f"reference {tuple(ref)} does not cover front maxima {tuple(worst)}")
    rows = rows[nondominated_mask(rows)]
    z1_levels = np.unique(rows[:, 0])
    bounds = np.append(z1_levels, ref[0])
    volume = 0.0
    for t in range(len(z1_levels)):
        width = bounds[t + 1] - bounds[t]
        if width <= 0.0:
            continue
        active = rows[rows[:, 0] <= z1_levels[t], 1:]
        volume += width * _staircase_area(active, ref[1], ref[2])
    return float(volume)


def topsis_rank(values: Union[np.ndarray, Sequence]) -> tuple[np.ndarray, list[int]]:
    """TOPSIS closeness of each alternative, plus the descending ranking.

    ``values`` holds one row of averaged indicators per alternative, in
    ``FrontMetrics`` field order; rows that are not finite or not that
    wide, or an indicator that is zero in every row, raise ValueError.
    Vector (root-sum-square) normalization per indicator, weighted by
    ``_WEIGHTS``; the ideal takes the best value under each indicator's
    direction (``_BENEFIT``), the anti-ideal the worst.  Closeness is
    d-/(d+ + d-); an alternative at zero distance from both extremes
    scores 0.5.  Ties rank by row index.
    """
    V = np.asarray(values, dtype=float)
    if V.ndim != 2 or V.shape[1] != len(_INDICATORS):
        raise ValueError(f"values shaped {V.shape}, expected (alternatives, {len(_INDICATORS)})")
    if not np.all(np.isfinite(V)):
        raise ValueError("criteria values must be finite")
    norms = np.sqrt((V ** 2).sum(axis=0))
    if np.any(norms == 0.0):
        dead = [_INDICATORS[int(c)] for c in np.where(norms == 0.0)[0]]
        raise ValueError(f"criteria with all-zero columns cannot be normalized: {dead}")
    W = V / norms[None, :] * _WEIGHTS[None, :]
    ideal = np.where(_BENEFIT, W.max(axis=0), W.min(axis=0))
    anti = np.where(_BENEFIT, W.min(axis=0), W.max(axis=0))
    d_plus = np.sqrt(((W - ideal[None, :]) ** 2).sum(axis=1))
    d_minus = np.sqrt(((W - anti[None, :]) ** 2).sum(axis=1))
    both = d_plus + d_minus
    ci = np.where(both == 0.0, 0.5, d_minus / np.where(both == 0.0, 1.0, both))
    order = sorted(range(len(ci)), key=lambda a: (-ci[a], a))
    return ci, order
