"""Population solvers over the random-key encoding.

Three algorithms share one evaluation pipeline (decode, capacity repair,
vectorized objectives): an elitist genetic algorithm with nondominated
sorting and crowding (NSGA-II style), a particle swarm with a grid
archive of leaders (MOPSO style), and a whale-optimization variant with
the same archive (MOWOA style).  Undecodable or unrepairable genomes
score (+inf, +inf, +inf) and can never enter fronts or archives.

Everything is single threaded and driven by one seeded generator whose
draws happen in a fixed order, so a (instance, algorithm, seed) triple
always reproduces the same front.  Evaluation consumes no randomness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .archive import GridArchive
from .encoding import _decode_arrays, _repair_mask, genome_length
from .evaluation import EvalContext, evaluate_mask, loads_from_mask, make_context, plan_from_mask
from .fronts import ParetoFront, crowding_distance, dominates, nondominated_sort
from .model import EvaluatedSolution, NetworkDesign, ObjectiveVector, ProblemInstance

__all__ = ["AlgorithmParams", "run_nsga2", "run_mopso", "run_mowoa", "ALGORITHMS"]

_UPPER = np.nextafter(1.0, 0.0)
_PENALTY = (math.inf, math.inf, math.inf)
_SBX_ETA = 15.0
_V_MAX = 0.2    # swarm speed cap, fraction of the unit box per step
_SPIRAL_B = 1.0   # whale: logarithmic spiral pitch
_CHUNK_CELLS = 2 ** 20   # pair cells per decode-and-price chunk of a population


@dataclass(frozen=True)
class AlgorithmParams:
    """Shared knob set; defaults are the tuned values of the benchmark study."""

    max_iterations: int = 125
    population_size: int = 100
    crossover_prob: float = 0.05      # genetic: per-pair blend probability
    mutation_prob: float = 0.9        # genetic: per-offspring mutation probability
    inertia: float = 0.9              # swarm: velocity carry-over
    cognitive: float = 1.0            # swarm: pull toward personal best
    social: float = 1.0               # swarm: pull toward archive leader
    whale_a_max: float = 2.0          # whale: initial encircling amplitude
    whale_c_range: float = 3.0        # whale: wobble coefficient upper bound
    archive_capacity: Optional[int] = None   # None: population size
    grid_divisions: int = 7

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        for name in ("crossover_prob", "mutation_prob"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        for name in ("inertia", "cognitive", "social", "whale_a_max", "whale_c_range"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be a finite number >= 0, got {v}")
        # a whale move scales a gap of at most 1 + whale_c_range / 2 between
        # genes in [0, 1) by up to whale_a_max; that step must stay finite
        if not math.isfinite(float(self.whale_a_max) * (1.0 + float(self.whale_c_range) / 2.0)):
            raise ValueError(f"whale_a_max * (1 + whale_c_range / 2) must be finite, got "
                             f"whale_a_max={self.whale_a_max}, whale_c_range={self.whale_c_range}")
        if self.archive_capacity is not None and self.archive_capacity < 1:
            raise ValueError("archive_capacity must be >= 1")
        if self.grid_divisions < 1:
            raise ValueError("grid_divisions must be >= 1")


def _evaluate_population(ctx: EvalContext, X: np.ndarray, memo: Optional[dict] = None
                         ) -> tuple[np.ndarray, list, list]:
    """Objective rows (+inf rows for failures), (assignment, mask) payloads and repair keys.

    Decoding, hub loads and pricing run on row chunks of at most
    ``_CHUNK_CELLS`` pair cells, which bounds the (rows, n, n) tables on
    large instances; repair runs genome by genome on its chunk's loads.
    Given a ``memo``, a decoded row is repaired only if its key, the bytes
    of its assignment and packed pre-repair mask, is not there yet, and
    its repair (a mask, or None) is stored under the key.  Keys come back
    per row, None for undecodable rows or without a memo.  NSGA-II prunes
    its memo to its survivors' keys after each selection, so it holds at
    most twice the population.  Repair draws no randomness, so the memo
    changes no result.
    """
    step = max(1, _CHUNK_CELLS // ctx.inst.n ** 2)
    objs = np.empty((len(X), 3))
    payloads: list = []
    keys: list = []
    for start in range(0, len(X), step):
        assignment, masks, tables, bad = _decode_arrays(ctx, X[start:start + step])
        loads = loads_from_mask(ctx, assignment, masks)
        for r in range(len(bad)):
            key = mask = None
            if not bad[r]:
                if memo is None:
                    mask = _repair_mask(ctx, assignment[r], masks[r], loads[r])
                else:
                    key = assignment[r].tobytes() + np.packbits(masks[r]).tobytes()
                    if key not in memo:
                        memo[key] = _repair_mask(ctx, assignment[r], masks[r], loads[r])
                    mask = memo[key]
            keys.append(key)
            if mask is None:
                bad[r] = True
                payloads.append(None)
            else:
                masks[r] = mask
                payloads.append((assignment[r].copy(), masks[r].copy()))
        chunk = objs[start:start + len(bad)]
        chunk[:] = evaluate_mask(ctx, tables, assignment, masks)
        chunk[bad] = _PENALTY
    return objs, payloads, keys


def _payload_solution(ctx: EvalContext, objectives, payload) -> EvaluatedSolution:
    assignment, mask = payload
    return EvaluatedSolution(
        design=NetworkDesign(tuple(assignment.tolist())),
        plan=plan_from_mask(mask),
        objectives=ObjectiveVector(*objectives),
        alpha_prime=ctx.alpha_prime,
    )


# --- genetic algorithm -------------------------------------------------------


def _tournament(rng: np.random.Generator, rank: np.ndarray,
                crowd: np.ndarray, count: int) -> np.ndarray:
    draws = rng.integers(0, len(rank), size=(count, 2))
    out = np.empty(count, dtype=int)
    for t, (a, b) in enumerate(draws):
        ka = (rank[a], -crowd[a], a)
        kb = (rank[b], -crowd[b], b)
        out[t] = a if ka <= kb else b
    return out


def _sbx_pair(rng: np.random.Generator, p1: np.ndarray, p2: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    u = rng.random(len(p1))
    beta = np.where(u <= 0.5,
                    (2.0 * u) ** (1.0 / (_SBX_ETA + 1.0)),
                    (1.0 / (2.0 * (1.0 - u))) ** (1.0 / (_SBX_ETA + 1.0)))
    c1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    c2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    return c1, c2


def _variation(rng: np.random.Generator, parents: np.ndarray,
               pc: float, pm: float) -> np.ndarray:
    # pm gates whether an offspring mutates at all; a mutating offspring
    # resets one guaranteed gene plus each other gene at rate 1/L, so a
    # mutation step is a small uniform jump rather than a reshuffle
    N, L = parents.shape
    children = parents.copy()
    for a in range(0, N - 1, 2):
        if rng.random() < pc:
            children[a], children[a + 1] = _sbx_pair(rng, parents[a], parents[a + 1])
    mutating = rng.random(N) < pm
    reset_mask = mutating[:, None] & (rng.random((N, L)) < 1.0 / L)
    forced = rng.integers(0, L, size=N)
    reset_mask[np.arange(N), forced] |= mutating
    resets = rng.random((N, L))
    children = np.where(reset_mask, resets, children)
    return np.clip(children, 0.0, _UPPER)


def _select(objs: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Survivor indices into ``objs`` with their rank and crowding, ``count`` of them.

    Whole fronts are kept in rank order; the first front that does not fit
    keeps its most crowded-apart members (lower index on ties).  A
    survivor's level in this sort is also its level among the survivors,
    since all its dominators sit in earlier fronts, which are kept whole;
    its crowding is taken within its level's block of survivors, in
    survivor order, as a fresh sort of the survivors would take it.
    """
    keep: list[int] = []
    rank = np.empty(count, dtype=int)
    crowd = np.empty(count)
    for level, front in enumerate(nondominated_sort(objs)):
        room = count - len(keep)
        if room == 0:
            break
        arr = np.asarray(front)
        if len(arr) > room:
            c = crowding_distance(objs[arr])
            arr = arr[np.lexsort((arr, -c))[:room]]
        block = slice(len(keep), len(keep) + len(arr))
        rank[block] = level
        crowd[block] = crowding_distance(objs[arr])
        keep.extend(arr.tolist())
    return np.asarray(keep), rank, crowd


def run_nsga2(inst: ProblemInstance, params: AlgorithmParams = AlgorithmParams(),
              seed: int = 0, alpha_prime: float = 0.5) -> ParetoFront:
    """Elitist nondominated-sorting genetic algorithm; returns its final front.

    Rank and crowding are assigned once per generation, during survivor
    selection, as Deb, Pratap, Agarwal & Meyarivan (2002, *IEEE TEC* 6)
    state the algorithm; only the initial population is ranked on its own.
    """
    ctx = make_context(inst, alpha_prime)
    rng = np.random.default_rng(seed)
    N = params.population_size
    L = genome_length(inst.n)
    X = rng.random((N, L))
    memo: dict = {}
    objs, data, keys = _evaluate_population(ctx, X, memo)
    # the initial population keeps its order: every row survives, and the
    # ranks and crowding come back to its own indices
    order, ranked, crowded = _select(objs, N)
    rank, crowd = np.empty_like(ranked), np.empty_like(crowded)
    rank[order], crowd[order] = ranked, crowded
    for _ in range(params.max_iterations):
        parents = X[_tournament(rng, rank, crowd, N)]
        Y = _variation(rng, parents, params.crossover_prob, params.mutation_prob)
        objs_y, data_y, keys_y = _evaluate_population(ctx, Y, memo)
        merged_objs = np.vstack([objs, objs_y])
        keep, rank, crowd = _select(merged_objs, N)
        X = np.vstack([X, Y])[keep]
        objs = merged_objs[keep]
        merged_data, merged_keys = data + data_y, keys + keys_y
        data = [merged_data[k] for k in keep]
        keys = [merged_keys[k] for k in keep]
        memo = {key: memo[key] for key in keys if key is not None}
    sols = [_payload_solution(ctx, objs[k], data[k])
            for k in np.flatnonzero(rank == 0) if data[k] is not None]
    return ParetoFront.from_candidates(sols)


# --- particle swarm ----------------------------------------------------------


def _feed(archive: GridArchive, objs: np.ndarray, X: np.ndarray, data: list,
          rng: np.random.Generator) -> None:
    """Offer every decodable member of the population to the archive, in order."""
    for i, payload in enumerate(data):
        if payload is not None:
            archive.add(tuple(objs[i]), X[i], payload, rng)


def _archive_front(ctx: EvalContext, archive: GridArchive) -> ParetoFront:
    sols = [_payload_solution(ctx, e.objectives, e.payload) for e in archive.entries]
    return ParetoFront.from_candidates(sols)


def run_mopso(inst: ProblemInstance, params: AlgorithmParams = AlgorithmParams(),
              seed: int = 0, alpha_prime: float = 0.5) -> ParetoFront:
    """Grid-archive particle swarm; returns the archive contents as a front."""
    ctx = make_context(inst, alpha_prime)
    rng = np.random.default_rng(seed)
    N = params.population_size
    L = genome_length(inst.n)
    X = rng.random((N, L))
    V = np.zeros((N, L))
    objs, data, _ = _evaluate_population(ctx, X)
    pbest_x = X.copy()
    pbest = objs.copy()
    archive = GridArchive(capacity=params.archive_capacity or N,
                          divisions=params.grid_divisions)
    _feed(archive, objs, X, data, rng)
    T = params.max_iterations
    for t in range(T):
        # turbulence in the style of the classic archive-based swarm:
        # early on every particle gets one gene rerolled, fading to none
        p_turb = 1.0 - t / max(T - 1, 1)
        for i in range(N):
            leader = archive.select_leader(rng)
            lvec = leader.vector if leader is not None else pbest_x[i]
            r1 = rng.random(L)
            r2 = rng.random(L)
            V[i] = (params.inertia * V[i]
                    + params.cognitive * r1 * (pbest_x[i] - X[i])
                    + params.social * r2 * (lvec - X[i]))
            np.clip(V[i], -_V_MAX, _V_MAX, out=V[i])
            X[i] = np.clip(X[i] + V[i], 0.0, _UPPER)
            if rng.random() < p_turb:
                X[i][int(rng.integers(L))] = rng.random()
        objs, data, _ = _evaluate_population(ctx, X)
        new_wins = dominates(objs, pbest)
        better = new_wins.copy()
        for i in np.flatnonzero(~new_wins & ~dominates(pbest, objs)):
            better[i] = rng.random() < 0.5   # incomparable: coin flip
        pbest[better] = objs[better]
        pbest_x[better] = X[better]
        _feed(archive, objs, X, data, rng)
    return _archive_front(ctx, archive)


# --- whale optimization ------------------------------------------------------


def run_mowoa(inst: ProblemInstance, params: AlgorithmParams = AlgorithmParams(),
              seed: int = 0, alpha_prime: float = 0.5) -> ParetoFront:
    """Whale-style encircle/explore/spiral moves guided by the grid archive."""
    ctx = make_context(inst, alpha_prime)
    rng = np.random.default_rng(seed)
    N = params.population_size
    L = genome_length(inst.n)
    T = params.max_iterations
    X = rng.random((N, L))
    objs, data, _ = _evaluate_population(ctx, X)
    archive = GridArchive(capacity=params.archive_capacity or N,
                          divisions=params.grid_divisions)
    _feed(archive, objs, X, data, rng)
    for t in range(T):
        # encircling amplitude decays linearly to zero over the run
        a = params.whale_a_max * (1.0 - t / max(T - 1, 1))
        for i in range(N):
            leader = archive.select_leader(rng)
            lvec = leader.vector if leader is not None else X[int(rng.integers(N))]
            if rng.random() < 0.5:
                # per-gene amplitudes: a gene encircles the leader while its
                # |A| < 1 and explores toward the random agent otherwise.
                # Cubed draws concentrate both coefficients near zero wobble
                # so most genes sit still and a few move decisively, which
                # suits a thresholded decode far better than uniform noise.
                A = a * (2.0 * rng.random(L) - 1.0) ** 3
                C = 1.0 + params.whale_c_range * (4.0 * (rng.random(L) - 0.5) ** 3)
                target = np.where(np.abs(A) < 1.0, lvec, X[int(rng.integers(N))])
                X[i] = target - A * np.abs(C * target - X[i])
            else:
                spiral = rng.uniform(-1.0, 1.0)
                gain = math.exp(_SPIRAL_B * spiral) * math.cos(2.0 * math.pi * spiral)
                X[i] = np.abs(lvec - X[i]) * gain + lvec
            X[i] = np.clip(X[i], 0.0, _UPPER)
        objs, data, _ = _evaluate_population(ctx, X)
        _feed(archive, objs, X, data, rng)
    return _archive_front(ctx, archive)


ALGORITHMS = {
    "nsga2": run_nsga2,
    "mopso": run_mopso,
    "mowoa": run_mowoa,
}
