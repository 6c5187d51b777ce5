"""Pareto dominance utilities and the front container.

All comparisons are minimisation over (z1, z2, z3) triples that were
rounded to 1e-6 at construction, so dominance is an exact float
comparison.  ``ParetoFront.from_candidates`` is deterministic regardless
of candidate order: it sorts by a full solution key before deduplicating
and filtering.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .model import EvaluatedSolution, plan_routes

__all__ = [
    "dominates",
    "nondominated_mask",
    "nondominated_sort",
    "crowding_distance",
    "ParetoFront",
    "solution_sort_key",
]


def dominates(a, b) -> np.ndarray:
    """Pareto dominance of minimisation vectors along the last axis.

    True where ``a`` is no worse than ``b`` in every component and better
    in one.  ``a`` and ``b`` are array-likes that broadcast against each
    other: two vectors give one boolean, two (N, m) arrays a row-wise test,
    and ``rows[:, None]`` against ``rows[None]`` the (S, S) matrix whose
    entry (i, j) says row i dominates row j.
    """
    a, b = np.asarray(a), np.asarray(b)
    return (a <= b).all(axis=-1) & (a < b).any(axis=-1)


def nondominated_mask(rows: np.ndarray) -> np.ndarray:
    """Keep-mask of nondominated minimisation rows; one survivor per duplicate set.

    For duplicated rows the survivor is the first in input order (the row
    sort is stable), which callers exploit for deterministic representatives.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError(f"expected a 2-D row array, got shape {rows.shape}")
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    keep_sorted = np.ones(len(rows), dtype=bool)
    for i in range(len(rows) - 1):
        if keep_sorted[i]:
            later = rows[i + 1:]
            keep_sorted[i + 1:] &= ~(dominates(rows[i], later) | np.all(later == rows[i], axis=1))
    keep = np.zeros(len(rows), dtype=bool)
    keep[order] = keep_sorted
    return keep


def _objective_rows(objectives: np.ndarray) -> np.ndarray:
    rows = np.asarray(objectives, dtype=float)
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise ValueError(f"expected (S, 3) objective rows, got shape {rows.shape}")
    return rows


def nondominated_sort(objectives: np.ndarray) -> list[list[int]]:
    """Fast nondominated sorting of (S, 3) rows into fronts of indices (rank 0 first).

    Nonfinite components are legal and sink to the worst fronts (any
    finite vector dominates the all-infinite penalty vector).
    """
    rows = _objective_rows(objectives)
    s = len(rows)
    if s == 0:
        return []
    with np.errstate(invalid="ignore"):
        dom = dominates(rows[:, None, :], rows[None, :, :])
    n_dominators = dom.sum(axis=0)
    fronts: list[list[int]] = []
    remaining = n_dominators.copy()
    assigned = np.zeros(s, dtype=bool)
    while not assigned.all():
        current = np.where(~assigned & (remaining == 0))[0]
        fronts.append([int(i) for i in current])
        assigned[current] = True
        remaining = remaining - dom[current].sum(axis=0)
    return fronts


def crowding_distance(objectives: np.ndarray) -> np.ndarray:
    """Crowding distances within one front of (S, 3) rows; boundary members get +inf.

    Objectives with zero (or nonfinite) spread contribute nothing to the
    interior distances.
    """
    rows = _objective_rows(objectives)
    s = len(rows)
    dist = np.zeros(s)
    if s <= 2:
        dist[:] = np.inf
        return dist
    for mcol in range(rows.shape[1]):
        vals = rows[:, mcol]
        order = np.argsort(vals, kind="stable")
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        with np.errstate(invalid="ignore"):   # all-inf penalty columns
            span = vals[order[-1]] - vals[order[0]]
        if span <= 0 or not np.isfinite(span):
            continue
        gaps = (vals[order[2:]] - vals[order[:-2]]) / span
        interior = order[1:-1]
        finite = np.isfinite(dist[interior])
        dist[interior] = np.where(finite, dist[interior] + gaps, dist[interior])
    return dist


def solution_sort_key(sol: EvaluatedSolution):
    """Objectives, hubs, assignment, then each pair's route: 0 direct, 1 hub."""
    codes = tuple(1 if route else 0 for _, _, route in plan_routes(sol.design, sol.plan))
    return (sol.objectives.as_tuple(), sol.design.hubs, sol.design.assignment, codes)


@dataclass(frozen=True)
class ParetoFront:
    """Mutually nondominated solutions, sorted by (z1, z2, z3)."""

    solutions: tuple[EvaluatedSolution, ...]

    @classmethod
    def from_candidates(cls, candidates: Iterable[EvaluatedSolution]) -> "ParetoFront":
        """Deduplicate by objective triple, drop dominated, sort. Order-independent.

        Of several candidates with one triple, the first by
        ``solution_sort_key`` stays: ``nondominated_mask`` keeps the first
        copy in input order.
        """
        pool = sorted(candidates, key=solution_sort_key)
        if not pool:
            return cls(solutions=())
        keep = nondominated_mask(np.array([s.objectives.as_tuple() for s in pool]))
        return cls(solutions=tuple(s for s, k in zip(pool, keep) if k))

    def objective_rows(self) -> np.ndarray:
        return np.array([s.objectives.as_tuple() for s in self.solutions], dtype=float)

    def __len__(self) -> int:
        return len(self.solutions)

    def __iter__(self) -> Iterator[EvaluatedSolution]:
        return iter(self.solutions)
