"""Population solvers over the random-key encoding.

Three algorithms share one evaluation pipeline (decode, capacity repair,
vectorized objectives): an elitist genetic algorithm with nondominated
sorting and crowding (NSGA-II style), a particle swarm with a grid
archive of leaders (MOPSO style), and a whale-optimization variant with
the same archive (MOWOA style).  A population stays in arrays, a row
per genome, from decode to front; an undecodable or unrepairable genome
scores (+inf, +inf, +inf) and can never enter a front or an archive.

Everything is single threaded and driven by one seeded generator whose
draws happen in a fixed order, so a (instance, algorithm, seed) triple
always reproduces the same front.  Evaluation consumes no randomness.
The swarms draw agent by agent, in the order an agent-by-agent move
would, and then move the whole population in one array step per
iteration; every move is elementwise, so the array step gives the bits
of the agent-by-agent one.
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
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Objective rows, assignments, repaired masks and repair keys, a row per genome.

    A failed genome's objective row is +inf and its other rows are
    meaningless.  Decoding, hub loads and pricing run on row chunks of at
    most ``_CHUNK_CELLS`` pair cells, which bounds the (rows, n, n) tables
    on large instances; repair runs genome by genome.  Given a ``memo``, a
    decoded row is repaired only if its key, the bytes of its assignment
    and packed pre-repair mask, is not there yet, and its repair (a mask,
    or None) is stored under the key.  Keys are None for undecodable rows
    or without a memo.  NSGA-II prunes its memo to its survivors' keys
    after each selection, so it holds at most twice the population.
    Repair draws no randomness, so the memo changes no result.
    """
    n = ctx.inst.n
    step = max(1, _CHUNK_CELLS // n ** 2)
    objs = np.empty((len(X), 3))
    assignment = np.empty((len(X), n), dtype=np.intp)
    masks = np.empty((len(X), n, n), dtype=bool)
    keys: list = []
    for start in range(0, len(X), step):
        rows = slice(start, start + step)
        a, m, tables, bad = _decode_arrays(ctx, X[rows])
        loads = loads_from_mask(ctx, a, m)
        for r in range(len(bad)):
            key = mask = None
            if not bad[r]:
                if memo is None:
                    mask = _repair_mask(ctx, a[r], m[r], loads[r])
                else:
                    key = a[r].tobytes() + np.packbits(m[r]).tobytes()
                    if key not in memo:
                        memo[key] = _repair_mask(ctx, a[r], m[r], loads[r])
                    mask = memo[key]
            keys.append(key)
            if mask is None:
                bad[r] = True
            else:
                m[r] = mask
        objs[rows] = evaluate_mask(ctx, tables, a, m)
        objs[rows][bad] = _PENALTY
        assignment[rows], masks[rows] = a, m
    return objs, assignment, masks, keys


def _solution(ctx: EvalContext, objectives, assignment, mask) -> EvaluatedSolution:
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
    objs, A, M, keys = _evaluate_population(ctx, X, memo)
    # the initial population keeps its order: every row survives, and the
    # ranks and crowding come back to its own indices
    order, ranked, crowded = _select(objs, N)
    rank, crowd = np.empty_like(ranked), np.empty_like(crowded)
    rank[order], crowd[order] = ranked, crowded
    for _ in range(params.max_iterations):
        parents = X[_tournament(rng, rank, crowd, N)]
        Y = _variation(rng, parents, params.crossover_prob, params.mutation_prob)
        objs_y, A_y, M_y, keys_y = _evaluate_population(ctx, Y, memo)
        keep, rank, crowd = _select(np.vstack([objs, objs_y]), N)
        pairs = ((X, Y), (objs, objs_y), (A, A_y), (M, M_y))
        X, objs, A, M = (np.concatenate(pair)[keep] for pair in pairs)
        merged_keys = keys + keys_y
        keys = [merged_keys[k] for k in keep]
        memo = {key: memo[key] for key in keys if key is not None}
    front = (rank == 0) & np.isfinite(objs).all(axis=1)
    return ParetoFront.from_candidates(
        _solution(ctx, objs[k], A[k], M[k]) for k in np.flatnonzero(front))


# --- particle swarm ----------------------------------------------------------


def _feed(archive: GridArchive, objs: np.ndarray, X: np.ndarray, A: np.ndarray,
          M: np.ndarray, rng: np.random.Generator) -> None:
    """Offer the finite rows in order, with views into ``A`` and ``M`` as payloads."""
    rows = np.flatnonzero(np.isfinite(objs).all(axis=1))
    archive.feed(objs[rows], X[rows], [(A[r], M[r]) for r in rows], rng)


def _archive_front(ctx: EvalContext, archive: GridArchive) -> ParetoFront:
    return ParetoFront.from_candidates(
        _solution(ctx, e.objectives, *e.payload) for e in archive.entries)


def _swarm_step(archive: GridArchive, X: np.ndarray, V: np.ndarray, pbest_x: np.ndarray,
                p_turb: float, params: AlgorithmParams, rng: np.random.Generator
                ) -> tuple[np.ndarray, np.ndarray]:
    """New positions and velocities after one swarm iteration.

    Each particle draws its leader, its cognitive and social weights and
    its turbulence coin; on heads the new gene value is drawn before its
    position.  No particle reads another's position, so all of them then
    move in one array step.
    """
    N, L = X.shape
    leaders = []
    R = np.empty((N, 2, L))
    turb_rows, turb_genes, turb_values = [], [], []
    for i in range(N):
        leader = archive.select_leader(rng)
        leaders.append(leader.vector if leader is not None else pbest_x[i])
        rng.random(out=R[i])
        if rng.random() < p_turb:
            turb_values.append(rng.random())
            turb_genes.append(int(rng.integers(L)))
            turb_rows.append(i)
    V = (params.inertia * V
         + params.cognitive * R[:, 0] * (pbest_x - X)
         + params.social * R[:, 1] * (np.array(leaders) - X))
    np.clip(V, -_V_MAX, _V_MAX, out=V)
    X = np.clip(X + V, 0.0, _UPPER)
    X[turb_rows, turb_genes] = turb_values
    return X, V


def run_mopso(inst: ProblemInstance, params: AlgorithmParams = AlgorithmParams(),
              seed: int = 0, alpha_prime: float = 0.5) -> ParetoFront:
    """Grid-archive particle swarm; returns the archive contents as a front."""
    ctx = make_context(inst, alpha_prime)
    rng = np.random.default_rng(seed)
    N = params.population_size
    L = genome_length(inst.n)
    X = rng.random((N, L))
    V = np.zeros((N, L))
    objs, A, M, _ = _evaluate_population(ctx, X)
    pbest_x = X.copy()
    pbest = objs.copy()
    archive = GridArchive(capacity=params.archive_capacity or N,
                          divisions=params.grid_divisions)
    _feed(archive, objs, X, A, M, rng)
    T = params.max_iterations
    for t in range(T):
        # turbulence in the style of the classic archive-based swarm:
        # early on every particle gets one gene rerolled, fading to none
        p_turb = 1.0 - t / max(T - 1, 1)
        X, V = _swarm_step(archive, X, V, pbest_x, p_turb, params, rng)
        objs, A, M, _ = _evaluate_population(ctx, X)
        new_wins = dominates(objs, pbest)
        better = new_wins.copy()
        tied = np.flatnonzero(~new_wins & ~dominates(pbest, objs))
        better[tied] = rng.random(len(tied)) < 0.5   # incomparable: coin flip
        pbest[better] = objs[better]
        pbest_x[better] = X[better]
        _feed(archive, objs, X, A, M, rng)
    return _archive_front(ctx, archive)


# --- whale optimization ------------------------------------------------------


def _encircle(x: np.ndarray, lead: np.ndarray, other: np.ndarray,
              A: np.ndarray, C: np.ndarray) -> np.ndarray:
    # per-gene amplitudes: a gene encircles the leader while its |A| < 1
    # and explores toward the other whale otherwise
    target = np.where(np.abs(A) < 1.0, lead, other)
    return target - A * np.abs(C * target - x)


def _spiral(x: np.ndarray, lead: np.ndarray, gain) -> np.ndarray:
    return np.abs(lead - x) * gain + lead


def _whale_step(archive: GridArchive, X: np.ndarray, a: float,
                params: AlgorithmParams, rng: np.random.Generator) -> np.ndarray:
    """New positions after one whale iteration.

    Whale by whale, the draws are: the leader (a random whale when the
    archive is empty), the branch coin, then the two coefficient rows and
    the whale to explore toward (encircle) or the spiral offset.  Moved
    one at a time, whale i reads whales j < i at their new positions; here
    every whale moves from the old positions in one array step, and each
    whale that read a whale j < i (leaderless, or exploring toward it on
    some gene) is moved again afterwards, in ascending order, from the new
    rows.  Every move is elementwise, so both give the same bits.
    """
    N, L = X.shape
    leads, follows = [], []          # follows[i]: the whale leading whale i, or -1
    encircling, others, spiraling, gains = [], [], [], []
    U = np.empty((N, 2, L))
    for i in range(N):
        leader = archive.select_leader(rng)
        k = -1 if leader is not None else int(rng.integers(N))
        leads.append(leader.vector if leader is not None else X[k])
        follows.append(k)
        if rng.random() < 0.5:
            rng.random(out=U[len(encircling)])
            encircling.append(i)
            others.append(int(rng.integers(N)))
        else:
            spiral = rng.uniform(-1.0, 1.0)
            spiraling.append(i)
            gains.append(math.exp(_SPIRAL_B * spiral) * math.cos(2.0 * math.pi * spiral))
    lead = np.array(leads)
    # cubed draws concentrate both coefficients near zero wobble, so most
    # genes sit still and a few move decisively, which suits a
    # thresholded decode far better than uniform noise
    U = U[:len(encircling)]
    A = a * (2.0 * U[:, 0] - 1.0) ** 3
    C = 1.0 + params.whale_c_range * (4.0 * (U[:, 1] - 0.5) ** 3)
    new = np.empty_like(X)
    new[encircling] = _encircle(X[encircling], lead[encircling], X[others], A, C)
    new[spiraling] = _spiral(X[spiraling], lead[spiraling], np.array(gains).reshape(-1, 1))
    np.clip(new, 0.0, _UPPER, out=new)
    explores = (np.abs(A) >= 1.0).any(axis=1).tolist()
    again = sorted({i for e, i in enumerate(encircling) if others[e] < i and explores[e]}
                   | {i for i, k in enumerate(follows) if 0 <= k < i})
    encircle_pos = {i: e for e, i in enumerate(encircling)}
    spiral_pos = {i: s for s, i in enumerate(spiraling)}
    for i in again:
        k = follows[i]
        lvec = new[k] if 0 <= k < i else lead[i]
        if i in encircle_pos:
            e = encircle_pos[i]
            j = others[e]
            row = _encircle(X[i], lvec, new[j] if j < i else X[j], A[e], C[e])
        else:
            row = _spiral(X[i], lvec, gains[spiral_pos[i]])
        new[i] = np.clip(row, 0.0, _UPPER)
    return new


def run_mowoa(inst: ProblemInstance, params: AlgorithmParams = AlgorithmParams(),
              seed: int = 0, alpha_prime: float = 0.5) -> ParetoFront:
    """Whale-style encircle/explore/spiral moves guided by the grid archive."""
    ctx = make_context(inst, alpha_prime)
    rng = np.random.default_rng(seed)
    N = params.population_size
    L = genome_length(inst.n)
    T = params.max_iterations
    X = rng.random((N, L))
    objs, A, M, _ = _evaluate_population(ctx, X)
    archive = GridArchive(capacity=params.archive_capacity or N,
                          divisions=params.grid_divisions)
    _feed(archive, objs, X, A, M, rng)
    for t in range(T):
        # encircling amplitude decays linearly to zero over the run
        a = params.whale_a_max * (1.0 - t / max(T - 1, 1))
        X = _whale_step(archive, X, a, params, rng)
        objs, A, M, _ = _evaluate_population(ctx, X)
        _feed(archive, objs, X, A, M, rng)
    return _archive_front(ctx, archive)


ALGORITHMS = {
    "nsga2": run_nsga2,
    "mopso": run_mopso,
    "mowoa": run_mowoa,
}
