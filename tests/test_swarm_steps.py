"""The swarms' array steps against the agent-by-agent loops they replace.

``_reference_swarm_step`` and ``_reference_whale_step`` move one agent at
a time as its draws arrive, and ``_reference_feed`` makes one ``add`` per
offer.  The package's steps draw in the same order and move the whole
population at once, so every row, every front and the generator's state
must come out with the same bits.
"""

import copy
import math

import numpy as np
import pytest

from hubnet import metaheuristics
from hubnet.archive import GridArchive
from hubnet.encoding import genome_length
from hubnet.evaluation import make_context
from hubnet.fronts import dominates, solution_sort_key
from hubnet.generator import GeneratorSpec, generate, preset
from hubnet.metaheuristics import AlgorithmParams, run_mopso, run_mowoa

_UPPER = np.nextafter(1.0, 0.0)
C7 = GeneratorSpec(n=10, p=3, seed=7)


def _reference_feed(archive, objs, X, A, M, rng):
    for i, row in enumerate(objs):
        if np.isfinite(row).all():
            archive.add(tuple(row), X[i], (A[i], M[i]), rng)


def _reference_swarm_step(archive, X, V, pbest_x, p_turb, params, rng):
    X, V = X.copy(), V.copy()
    N, L = X.shape
    for i in range(N):
        leader = archive.select_leader(rng)
        lvec = leader.vector if leader is not None else pbest_x[i]
        r1 = rng.random(L)
        r2 = rng.random(L)
        V[i] = (params.inertia * V[i]
                + params.cognitive * r1 * (pbest_x[i] - X[i])
                + params.social * r2 * (lvec - X[i]))
        np.clip(V[i], -metaheuristics._V_MAX, metaheuristics._V_MAX, out=V[i])
        X[i] = np.clip(X[i] + V[i], 0.0, _UPPER)
        if rng.random() < p_turb:
            X[i][int(rng.integers(L))] = rng.random()
    return X, V


def _reference_whale_step(archive, X, a, params, rng):
    """New positions and the number of whales that read a whale moved before them."""
    X = X.copy()
    N, L = X.shape
    read_moved = 0
    for i in range(N):
        leader = archive.select_leader(rng)
        if leader is not None:
            lvec, reads = leader.vector, False
        else:
            k = int(rng.integers(N))
            lvec, reads = X[k], k < i
        if rng.random() < 0.5:
            A = a * (2.0 * rng.random(L) - 1.0) ** 3
            C = 1.0 + params.whale_c_range * (4.0 * (rng.random(L) - 0.5) ** 3)
            j = int(rng.integers(N))
            reads = reads or (j < i and bool((np.abs(A) >= 1.0).any()))
            target = np.where(np.abs(A) < 1.0, lvec, X[j])
            X[i] = target - A * np.abs(C * target - X[i])
        else:
            spiral = rng.uniform(-1.0, 1.0)
            gain = math.exp(metaheuristics._SPIRAL_B * spiral) * math.cos(2.0 * math.pi * spiral)
            X[i] = np.abs(lvec - X[i]) * gain + lvec
        X[i] = np.clip(X[i], 0.0, _UPPER)
        read_moved += reads
    return X, read_moved


def _reference_mopso(inst, params, seed, step=_reference_swarm_step):
    ctx = make_context(inst, 0.5)
    rng = np.random.default_rng(seed)
    N = params.population_size
    L = genome_length(inst.n)
    X = rng.random((N, L))
    V = np.zeros((N, L))
    objs, A, M, _ = metaheuristics._evaluate_population(ctx, X)
    pbest_x = X.copy()
    pbest = objs.copy()
    archive = GridArchive(capacity=params.archive_capacity or N, divisions=params.grid_divisions)
    _reference_feed(archive, objs, X, A, M, rng)
    T = params.max_iterations
    for t in range(T):
        p_turb = 1.0 - t / max(T - 1, 1)
        X, V = step(archive, X, V, pbest_x, p_turb, params, rng)
        objs, A, M, _ = metaheuristics._evaluate_population(ctx, X)
        new_wins = dominates(objs, pbest)
        better = new_wins.copy()
        for i in np.flatnonzero(~new_wins & ~dominates(pbest, objs)):
            better[i] = rng.random() < 0.5
        pbest[better] = objs[better]
        pbest_x[better] = X[better]
        _reference_feed(archive, objs, X, A, M, rng)
    return metaheuristics._archive_front(ctx, archive)


def _reference_mowoa(inst, params, seed, step=_reference_whale_step):
    ctx = make_context(inst, 0.5)
    rng = np.random.default_rng(seed)
    N = params.population_size
    T = params.max_iterations
    X = rng.random((N, genome_length(inst.n)))
    objs, A, M, _ = metaheuristics._evaluate_population(ctx, X)
    archive = GridArchive(capacity=params.archive_capacity or N, divisions=params.grid_divisions)
    _reference_feed(archive, objs, X, A, M, rng)
    for t in range(T):
        a = params.whale_a_max * (1.0 - t / max(T - 1, 1))
        X, _ = step(archive, X, a, params, rng)
        objs, A, M, _ = metaheuristics._evaluate_population(ctx, X)
        _reference_feed(archive, objs, X, A, M, rng)
    return metaheuristics._archive_front(ctx, archive)


CASES = {
    "c7": (C7, AlgorithmParams(max_iterations=40)),
    "c10": (GeneratorSpec(n=5, p=2, seed=100), AlgorithmParams(max_iterations=10,
                                                               population_size=20)),
    "preset1": (preset(1), AlgorithmParams(max_iterations=15)),
    "n8": (GeneratorSpec(n=8, p=3, seed=0), AlgorithmParams(max_iterations=10)),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("run, reference", [(run_mopso, _reference_mopso),
                                            (run_mowoa, _reference_mowoa)],
                         ids=["mopso", "mowoa"])
def test_swarm_fronts_match_the_agent_loops(run, reference, case, seed):
    spec, params = CASES[case]
    inst = generate(spec)
    got = run(inst, params, seed=seed)
    want = reference(inst, params, seed)
    assert [solution_sort_key(s) for s in got] == [solution_sort_key(s) for s in want]
    assert got.objective_rows().tobytes() == want.objective_rows().tobytes()


def _assert_same_step(got, want, rng_got, rng_want):
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()
    assert rng_got.bit_generator.state == rng_want.bit_generator.state


@pytest.mark.parametrize("seed", [0, 1])
def test_every_swarm_step_of_a_run_matches_the_particle_loop(seed):
    def checked(archive, X, V, pbest_x, p_turb, params, rng):
        twin = copy.deepcopy(rng)
        got = metaheuristics._swarm_step(copy.deepcopy(archive), X, V, pbest_x, p_turb,
                                         params, twin)
        want = _reference_swarm_step(archive, X, V, pbest_x, p_turb, params, rng)
        _assert_same_step(got, want, twin, rng)
        return want

    _reference_mopso(generate(C7), AlgorithmParams(max_iterations=20), seed, step=checked)


@pytest.mark.parametrize("seed", [0, 1])
def test_every_whale_step_of_a_run_matches_the_whale_loop(seed):
    moved_again = []

    def checked(archive, X, a, params, rng):
        twin = copy.deepcopy(rng)
        got = metaheuristics._whale_step(copy.deepcopy(archive), X, a, params, twin)
        want, read_moved = _reference_whale_step(archive, X, a, params, rng)
        _assert_same_step([got], [want], twin, rng)
        moved_again.append(read_moved)
        return want, read_moved

    _reference_mowoa(generate(C7), AlgorithmParams(max_iterations=20), seed, step=checked)
    # whales that read a whale moved before them are moved again by the step
    assert sum(moved_again) > 0
    assert sum(moved_again[10:]) == 0   # |A| < 1 everywhere once a < 1


@pytest.mark.parametrize("a", [2.0, 1.2, 0.4])
def test_steps_without_a_leader_match_the_agent_loops(a):
    # an empty archive: a particle follows its personal best, a whale a
    # random whale, possibly one moved before it
    rng = np.random.default_rng(4)
    X = rng.random((30, 21))
    V = (rng.random(X.shape) - 0.5) * 0.4
    pbest_x = rng.random(X.shape)
    params = AlgorithmParams(population_size=30)
    archive = GridArchive(capacity=30)
    for seed in range(3):
        r_got, r_want = np.random.default_rng(seed), np.random.default_rng(seed)
        got = metaheuristics._swarm_step(archive, X, V, pbest_x, 0.5, params, r_got)
        want = _reference_swarm_step(archive, X, V, pbest_x, 0.5, params, r_want)
        _assert_same_step(got, want, r_got, r_want)
        got = metaheuristics._whale_step(archive, X, a, params, r_got)
        want, read_moved = _reference_whale_step(archive, X, a, params, r_want)
        _assert_same_step([got], [want], r_got, r_want)
        assert read_moved > 0
