"""Bounded external archive with adaptive-grid density control.

Keeps only mutually nondominated entries.  Objective space is cut into
``divisions`` equal slices per objective between the current extremes;
leaders come from sparsely populated cells (roulette with weight 1/count),
evictions from the fullest cell.  Duplicate objective vectors are rejected
so the archive cannot silt up with copies of one solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .fronts import dominates

__all__ = ["ArchiveEntry", "GridArchive"]


@dataclass(eq=False)
class ArchiveEntry:
    objectives: tuple[float, float, float]
    vector: np.ndarray          # genome that produced the point
    payload: object             # decoded (assignment, hubs, mask)


@dataclass
class GridArchive:
    capacity: int
    divisions: int = 7
    entries: list[ArchiveEntry] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("archive capacity must be >= 1")
        if self.divisions < 1:
            raise ValueError("grid divisions must be >= 1")

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, objectives: tuple[float, float, float], vector: np.ndarray,
            payload: object, rng: np.random.Generator) -> bool:
        """Try to insert; False when dominated, duplicate, or evicted back out."""
        if not all(np.isfinite(objectives)):
            return False
        for e in self.entries:
            if e.objectives == tuple(objectives) or dominates(e.objectives, objectives):
                return False
        self.entries = [e for e in self.entries if not dominates(objectives, e.objectives)]
        entry = ArchiveEntry(tuple(float(z) for z in objectives), np.array(vector), payload)
        self.entries.append(entry)
        if len(self.entries) > self.capacity:
            self._evict(rng)
            return any(e is entry for e in self.entries)
        return True

    def _cell_members(self) -> dict[tuple[int, ...], list[int]]:
        """Entry positions per occupied grid cell under the current adaptive bounds."""
        rows = np.array([e.objectives for e in self.entries])
        lo = rows.min(axis=0)
        hi = rows.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)
        idx = np.floor((rows - lo) / span * self.divisions).astype(int)
        idx = np.minimum(idx, self.divisions - 1)
        members: dict[tuple[int, ...], list[int]] = {}
        for pos, row in enumerate(idx):
            members.setdefault(tuple(int(v) for v in row), []).append(pos)
        return members

    def _evict(self, rng: np.random.Generator) -> None:
        counts = self._cell_members()
        # fullest cell loses a random member; key order breaks count ties
        worst_key = min(counts, key=lambda k: (-len(counts[k]), k))
        members = counts[worst_key]
        victim = members[int(rng.integers(len(members)))]
        del self.entries[victim]

    def select_leader(self, rng: np.random.Generator) -> Optional[ArchiveEntry]:
        """Sparse-cell roulette, then a uniform member of the chosen cell."""
        if not self.entries:
            return None
        counts = self._cell_members()
        keys = sorted(counts)
        weights = np.array([1.0 / len(counts[k]) for k in keys])
        total = weights.sum()
        r = rng.random() * total
        acc = 0.0
        chosen = keys[-1]
        for k, w in zip(keys, weights):
            acc += w
            if r < acc:
                chosen = k
                break
        members = counts[chosen]
        return self.entries[members[int(rng.integers(len(members)))]]
