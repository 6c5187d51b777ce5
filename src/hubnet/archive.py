"""Bounded external archive with adaptive-grid density control.

Keeps only mutually nondominated entries, each with its own copy of the
genome and payload it was offered, so callers may offer views into
arrays they go on to overwrite.  Objective space is cut into
``divisions`` equal slices per objective between the current extremes;
leaders come from sparsely populated cells (roulette with weight 1/count),
evictions from the fullest cell.  Duplicate objective vectors are rejected
so the archive cannot silt up with copies of one solution.

The objectives are also kept as one ``(k, 3)`` array beside the entries,
so an offer is tested against the whole archive in a few array
comparisons.  ``feed`` offers a batch in order and first tests the whole
batch against the entries held when it starts: an offer one of them
covers (no worse everywhere) is refused without an ``add`` call, until an
offer goes to ``add`` while the archive is full.  Before that no entry
has been evicted, and an entry leaves otherwise only for a new one that
dominates it, so the offer is still covered when its turn comes and
``add`` would refuse it too.  The leader roulette (cells, total weight and
running sums as a list, searched with ``bisect``) is priced once per
change of the archive: ``add`` and ``_evict`` are the only mutators and
both drop it.
"""

from __future__ import annotations

import copy
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

__all__ = ["ArchiveEntry", "GridArchive"]


@dataclass(eq=False)
class ArchiveEntry:
    objectives: tuple[float, float, float]
    vector: np.ndarray          # genome that produced the point
    payload: object             # decoded (assignment, mask), the archive's own copy


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
        entry = ArchiveEntry(tuple(z.tolist()), np.array(vector), copy.deepcopy(payload))
        self.entries = [e for e, k in zip(self.entries, keep) if k]
        self.entries.append(entry)
        self._objs = np.vstack([self._objs[keep], z])
        self._roulette = None
        if len(self.entries) > self.capacity:
            self._evict(rng)
            return any(e is entry for e in self.entries)
        return True

    def feed(self, objectives: np.ndarray, vectors: Sequence[np.ndarray],
             payloads: Sequence[object], rng: np.random.Generator) -> list[bool]:
        """Offer each row in order, as one ``add`` per row would; the outcome per row."""
        rows = np.asarray(objectives, dtype=float).reshape(-1, 3)
        covered = (self._objs[None, :, :] <= rows[:, None, :]).all(axis=2).any(axis=1).tolist()
        screening = True
        outcome = []
        for i, z in enumerate(rows.tolist()):
            if screening and covered[i]:
                outcome.append(False)
                continue
            # an add into a full archive may evict a covering entry
            screening = screening and len(self.entries) < self.capacity
            outcome.append(self.add(tuple(z), vectors[i], payloads[i], rng))
        return outcome

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
            self._roulette = (cells, weights.sum(), np.cumsum(weights).tolist())
        cells, total, acc = self._roulette
        r = rng.random() * total
        # the first cell whose running sum exceeds r; the last when rounding
        # leaves r at or above every running sum
        pick = min(bisect_right(acc, r), len(cells) - 1)
        members = cells[pick]
        return self.entries[members[int(rng.integers(len(members)))]]
