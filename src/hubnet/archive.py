"""Bounded external archive with adaptive-grid density control.

Keeps only mutually nondominated entries.  Objective space is cut into
``divisions`` equal slices per objective between the current extremes;
leaders come from sparsely populated cells (roulette with weight 1/count),
evictions from the fullest cell.  Duplicate objective vectors are rejected
so the archive cannot silt up with copies of one solution.

The objectives are also kept as one ``(k, 3)`` array beside the entries,
so an offer is tested against the whole archive in a few array
comparisons.  The leader roulette (cells, weights and their running sums)
is priced once per change of the archive: ``add`` and ``_evict`` are the
only mutators and both drop it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

__all__ = ["ArchiveEntry", "GridArchive"]


@dataclass(eq=False)
class ArchiveEntry:
    objectives: tuple[float, float, float]
    vector: np.ndarray          # genome that produced the point
    payload: object             # decoded (assignment, mask)


@dataclass
class GridArchive:
    capacity: int
    divisions: int = 7
    entries: list[ArchiveEntry] = field(default_factory=list)
    _objs: np.ndarray = field(init=False, repr=False, compare=False)
    _roulette: Optional[tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("archive capacity must be >= 1")
        if self.divisions < 1:
            raise ValueError("grid divisions must be >= 1")
        self._objs = np.array([e.objectives for e in self.entries], dtype=float).reshape(-1, 3)
        self._roulette = None

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, objectives: tuple[float, float, float], vector: np.ndarray,
            payload: object, rng: np.random.Generator) -> bool:
        """Try to insert; False when dominated, duplicate, or evicted back out."""
        if not all(np.isfinite(objectives)):
            return False
        z = np.array(objectives, dtype=float)
        # an entry no worse everywhere is a duplicate or dominates the offer
        if (self._objs <= z).all(axis=1).any():
            return False
        # no entry equals the offer, so no worse everywhere means dominated
        keep = ~(z <= self._objs).all(axis=1)
        entry = ArchiveEntry(tuple(z.tolist()), np.array(vector), payload)
        self.entries = [e for e, k in zip(self.entries, keep) if k]
        self.entries.append(entry)
        self._objs = np.vstack([self._objs[keep], z])
        self._roulette = None
        if len(self.entries) > self.capacity:
            self._evict(rng)
            return any(e is entry for e in self.entries)
        return True

    def _cell_members(self) -> dict[tuple[int, ...], list[int]]:
        """Entry positions per occupied grid cell under the current adaptive bounds."""
        rows = self._objs
        lo = rows.min(axis=0)
        hi = rows.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        idx = np.floor((rows - lo) / span * self.divisions).astype(int)
        idx = np.minimum(idx, self.divisions - 1)
        members: dict[tuple[int, ...], list[int]] = {}
        for pos, row in enumerate(idx.tolist()):
            members.setdefault(tuple(row), []).append(pos)
        return members

    def _evict(self, rng: np.random.Generator) -> None:
        counts = self._cell_members()
        # fullest cell loses a random member; key order breaks count ties
        worst_key = min(counts, key=lambda k: (-len(counts[k]), k))
        members = counts[worst_key]
        victim = members[int(rng.integers(len(members)))]
        del self.entries[victim]
        self._objs = np.delete(self._objs, victim, axis=0)
        self._roulette = None

    def select_leader(self, rng: np.random.Generator) -> Optional[ArchiveEntry]:
        """Sparse-cell roulette, then a uniform member of the chosen cell."""
        if not self.entries:
            return None
        if self._roulette is None:
            counts = self._cell_members()
            cells = [counts[k] for k in sorted(counts)]
            weights = np.array([1.0 / len(m) for m in cells])
            # running sums in the order a left-to-right ``acc += w`` walk adds
            self._roulette = (cells, weights.sum(), np.cumsum(weights))
        cells, total, acc = self._roulette
        r = rng.random() * total
        # the first cell whose running sum exceeds r; the last when rounding
        # leaves r at or above every running sum
        pick = min(int(np.searchsorted(acc, r, side="right")), len(cells) - 1)
        members = cells[pick]
        return self.entries[members[int(rng.integers(len(members)))]]
