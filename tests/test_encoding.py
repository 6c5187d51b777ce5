import dataclasses
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubnet import metaheuristics
from hubnet.encoding import _decode_arrays, _repair_mask, genome_length
from hubnet.evaluation import (
    _hub_route,
    check,
    compute_objectives,
    loads_from_mask,
    make_context,
    plan_from_mask,
)
from hubnet.generator import GeneratorSpec, generate, preset
from hubnet.metaheuristics import _evaluate_population, _solution
from hubnet.model import FEAS_TOL, NetworkDesign, round6


def test_genome_length():
    assert genome_length(3) == 1 + 6 + 9
    assert genome_length(10) == 1 + 20 + 100


def _check_population(inst, seed, count):
    # the population pipeline the metaheuristics run: decode, repair, price
    ctx = make_context(inst, 0.5)
    X = np.random.default_rng(seed).random((count, genome_length(inst.n)))
    objs, A, M, _ = _evaluate_population(ctx, X)
    again, A_again, M_again, _ = _evaluate_population(ctx, X)
    assert np.array_equal(objs, again)
    feasible_seen = 0
    for r, row in enumerate(objs):
        if not np.isfinite(row).all():
            assert np.all(np.isinf(row))
            continue
        feasible_seen += 1
        assert np.array_equal(A[r], A_again[r]) and np.array_equal(M[r], M_again[r])
        sol = _solution(ctx, row, A[r], M[r])
        assert check(inst, sol.design, sol.plan, 0.5)[0] == []
        assert compute_objectives(inst, sol.design, sol.plan, 0.5) == tuple(row)
    assert feasible_seen > 0


def test_decode_is_deterministic_and_feasible(gen6):
    _check_population(gen6, 5, 40)


def test_decode_matches_generated_instances():
    _check_population(generate(GeneratorSpec(n=9, p=3, seed=4)), 1, 20)


def test_count_gene_opens_hubs(tiny):
    n = tiny.n
    ctx = make_context(tiny, 0.5)
    vec = np.zeros(genome_length(n))
    vec[1:1 + n] = [0.2, 0.9, 0.1]     # node 1 has the best hub key
    vec[1 + 2 * n:] = 0.9              # prefer hub routes
    vec2 = vec.copy()
    vec2[0] = 0.6                       # 1 + floor(0.6 * 2) = 2 hubs
    assignment, _, _, bad = _decode_arrays(ctx, np.array([vec, vec2]))
    assert not bad.any()
    is_hub = assignment == np.arange(n)                 # hubs serve themselves
    assert list(np.flatnonzero(is_hub[0])) == [1]      # count gene 0.0 -> one hub
    assert list(np.flatnonzero(is_hub[1])) == [0, 1]


def test_route_keys_choose_hub_vs_direct(tiny):
    n = tiny.n
    vec = np.zeros(genome_length(n))
    vec[1:1 + n] = [0.2, 0.9, 0.1]
    _, mask, _, bad = _decode_arrays(make_context(tiny, 0.5), vec[None])   # route keys 0
    assert not bad[0]
    assert not mask[0].any()                                                  # -> direct


def test_decode_none_when_uncoverable(tiny):
    isolated = dataclasses.replace(tiny, omega=40.0)
    vec = np.full(genome_length(3), 0.3)
    assert _decode_arrays(make_context(isolated, 0.5), vec[None])[3][0]


def test_a_non_finite_gene_fails_to_decode_and_leaves_other_rows_alone(gen6):
    ctx = make_context(gen6, 0.5)
    n = gen6.n
    X = np.random.default_rng(3).random((6, genome_length(n)))
    want = _decode_arrays(ctx, X)
    flagged = want[3].copy()
    flagged[2] = True
    keep = np.arange(6) != 2
    # count gene, hub key, assignment key, route key
    for col, value in ((0, np.nan), (1, np.inf), (1 + n, np.nan), (1 + 2 * n + 1, -np.inf)):
        Y = X.copy()
        Y[2, col] = value
        got = _decode_arrays(ctx, Y)
        assert (got[3] == flagged).all()
        for a, b in zip(got[:3], want[:3]):
            assert a[keep].tobytes() == b[keep].tobytes()


def test_repair_flips_heaviest_pairs(tiny):
    # hub 1 sees load 290 when everything routes through it; with capacity
    # 150 the three heaviest pairs (55, 52, 50) must fall back to direct
    squeezed = dataclasses.replace(tiny, capacity=np.array([1e9, 150.0, 1e9]))
    ctx = make_context(squeezed, 0.5)
    a = np.array([1, 1, 1])
    mask = ctx.offdiag.copy()
    repaired = _repair_mask(ctx, a, mask, loads_from_mask(ctx, a, mask))
    assert repaired is not None
    direct_pairs = {(int(i), int(j)) for i, j in np.argwhere(ctx.offdiag & ~repaired)}
    assert direct_pairs == {(1, 2), (2, 0), (0, 2)}
    design = NetworkDesign(tuple(a.tolist()))
    assert check(squeezed, design, plan_from_mask(repaired), 0.5)[0] == []


def test_repair_returns_none_when_stuck(tiny):
    # hub legs through node 1 stay inside the 26-unit cap, the direct (0,2)
    # legs do not, so the overloaded hub cannot shed the (0,2) demand
    tt = np.array([[0.0, 10.0, 30.0], [10.0, 0.0, 12.0], [30.0, 12.0, 0.0]])
    no_direct = dataclasses.replace(
        tiny,
        capacity=np.array([1e9, 100.0, 1e9]),
        max_transfer_time=np.where(np.eye(3), 0.0, 26.0),
        travel_time=tt,
    )
    ctx = make_context(no_direct, 0.5)
    a = np.array([1, 1, 1])
    assert _repair_mask(ctx, a, ctx.offdiag, loads_from_mask(ctx, a, ctx.offdiag)) is None


def _reference_repair(ctx, a, mask):
    # the rescanning loop _repair_mask replaced: after every flip it
    # recomputes the most overloaded hub and argmaxes its movable pairs
    inst = ctx.inst
    mask = mask.copy()
    loads = loads_from_mask(ctx, a, mask)
    while True:
        over = loads - inst.capacity
        worst = int(np.argmax(over))
        if over[worst] <= FEAS_TOL:
            return mask
        same_hub = a[:, None] == a[None, :]
        touches = mask & ((a[:, None] == worst) | (~same_hub & (a[None, :] == worst)))
        movable = touches & np.isfinite(ctx.direct[..., 0])
        if not movable.any():
            return None
        qs = np.where(movable, ctx.q, -np.inf)
        flat = int(np.argmax(qs))          # max demand, ties lowest pair index
        i, j = divmod(flat, inst.n)
        mask[i, j] = False
        q = ctx.q[i, j]
        loads[a[i]] -= q
        if a[j] != a[i]:
            loads[a[j]] -= q


def test_repair_matches_the_rescanning_loop():
    seen = Counter()

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(n=st.integers(4, 15), hub_budget=st.integers(1, 6), seed=st.integers(0, 2**16),
           demand=st.sampled_from(["generated", "coarse", "uniform", "zero"]),
           capacity=st.sampled_from(["scaled", "equal", "below-smallest-demand"]),
           scale=st.floats(0.05, 1.0), thin=st.sampled_from([0.0, 0.2, 0.6]))
    def check(n, hub_budget, seed, demand, capacity, scale, thin):
        inst = generate(GeneratorSpec(n=n, p=min(hub_budget, n), seed=seed))
        # equal demands and equal capacities exercise both tie rules
        if demand == "coarse":       # components of 60 or 70
            inst = dataclasses.replace(inst, demand=inst.demand.round(-1))
        elif demand == "uniform":
            inst = dataclasses.replace(inst, demand=np.where(inst.demand > 0, 65.0, 0.0))
        elif demand == "zero":
            inst = dataclasses.replace(inst, demand=np.zeros_like(inst.demand))
        if capacity == "scaled":
            cap = inst.capacity * scale
        elif capacity == "equal":
            cap = np.full(n, 2500.0 * scale)
        else:
            q = make_context(inst, 0.5).q
            cap = np.full(n, 0.9 * q[q > 0].min() if (q > 0).any() else 1.0)
        inst = dataclasses.replace(inst, capacity=cap)
        ctx = make_context(inst, 0.5)
        rng = np.random.default_rng(seed)
        # pairs that may not fly direct leave some overloads unrepairable
        keep = rng.random((n, n)) >= thin
        thinned = dataclasses.replace(ctx, direct=np.where(keep[..., None], ctx.direct, np.inf))
        assignment, masks, _, bad = _decode_arrays(ctx, rng.random((8, genome_length(n))))
        for r in np.flatnonzero(~bad):
            mask, a = masks[r], assignment[r]
            before = mask.copy()
            got = _repair_mask(thinned, a, mask, loads_from_mask(thinned, a, mask))
            want = _reference_repair(thinned, a, mask)
            assert np.array_equal(mask, before)
            assert (got is None) == (want is None)
            if want is None:
                seen["none"] += 1
            else:
                assert np.array_equal(got, want)
                seen["flips"] += int(before.sum() - want.sum())

    check()
    # the examples reach both exits and move pairs on the way
    assert seen["flips"] > 0 and seen["none"] > 0


# --- the batched population path against a genome-by-genome reference -------


def _reference_decode(ctx, vec):
    # one genome at a time, as the solvers decoded before the population
    # was batched: (assignment, hubs, mask, tables), or None
    inst = ctx.inst
    n = inst.n
    h = min(1 + int(vec[0] * inst.p), inst.p)
    ranked = np.lexsort((np.arange(n), -vec[1:1 + n]))
    hubs = np.sort(ranked[:h])
    dist = inst.distance[:, hubs]
    feasible = dist <= inst.omega + FEAS_TOL
    if not feasible.any(axis=1).all():
        return None
    order = np.argsort(np.where(feasible, dist, np.inf), axis=1, kind="stable")
    counts = feasible.sum(axis=1)
    rank = np.minimum((vec[1 + n:1 + 2 * n] ** 6 * counts).astype(np.intp), counts - 1)
    assignment = hubs[order[np.arange(n), rank]]
    assignment[hubs] = hubs
    idx = np.arange(n)
    tables = _hub_route(ctx, idx[:, None], idx[None, :], assignment[:, None],
                        assignment[None, :], np.s_[:, :])
    fh = np.isfinite(tables[..., 0])
    fd = np.isfinite(ctx.direct[..., 0])
    if np.any(ctx.offdiag & ~fh & ~fd):
        return None
    mask = np.where(vec[1 + 2 * n:].reshape(n, n) >= 0.5, fh, fh & ~fd) & ctx.offdiag
    return assignment, hubs, mask, tables


def _reference_price(ctx, tables, hubs, mask):
    use_hub = mask & ctx.offdiag
    use_dir = ~mask & ctx.offdiag
    z1 = (float(ctx.inst.fixed_cost[hubs].sum())
          + float(np.sum(ctx.direct[..., 0], where=use_dir))
          + float(np.sum(tables[..., 0], where=use_hub)))
    z2 = (float(np.sum(ctx.direct[..., 1], where=use_dir))
          + float(np.sum(tables[..., 1], where=use_hub)))
    z3 = (float(np.sum(ctx.direct[..., 2], where=use_dir))
          + float(np.sum(tables[..., 2], where=use_hub)))
    return round6(z1), round6(z2), round6(z3)


def _reference_population(ctx, X):
    objs = np.full((len(X), 3), np.inf)
    payloads = []
    for r, vec in enumerate(X):
        dec = _reference_decode(ctx, vec)
        mask = None if dec is None else _repair_mask(
            ctx, dec[0], dec[2], loads_from_mask(ctx, dec[0], dec[2]))
        if mask is None:
            payloads.append(None)
            continue
        assignment, hubs, _, tables = dec
        objs[r] = _reference_price(ctx, tables, hubs, mask)
        payloads.append((assignment, mask))
    return objs, payloads


def _hub_heavy(inst, rows, seed):
    # random genomes, a third of them asking for every hub the budget allows
    X = np.random.default_rng(seed).random((rows, genome_length(inst.n)))
    X[::3, 0] = metaheuristics._UPPER
    return X


@pytest.mark.parametrize("name", ["c7", "preset1", "gen6", "p11", "short-range", "squeezed"])
def test_population_path_matches_the_genome_by_genome_reference(name, gen6, monkeypatch):
    c7 = generate(GeneratorSpec(n=10, p=3, seed=7))
    inst = {
        "c7": c7,
        "preset1": generate(preset(1)),
        "gen6": gen6,
        "p11": generate(GeneratorSpec(n=14, p=11, seed=5)),   # up to 11 open hubs
        # spokes out of every hub's range: undecodable genomes
        "short-range": dataclasses.replace(c7, omega=float(np.percentile(c7.distance, 25))),
        # with a fifth of the pairs unable to fly direct, some rows cannot be repaired
        "squeezed": dataclasses.replace(c7, capacity=c7.capacity * 0.3),
    }[name]
    X = _hub_heavy(inst, 60, 11)
    repair = metaheuristics._repair_mask
    calls = []

    def recorded(ctx, assignment, mask, loads):
        # the chunk's batched loads, row by row
        assert loads.tobytes() == loads_from_mask(ctx, assignment, mask).tobytes()
        calls.append(mask.tobytes())
        return repair(ctx, assignment, mask, loads)

    monkeypatch.setattr(metaheuristics, "_repair_mask", recorded)
    for rate in (0.0, 0.5, 1.0):
        ctx = make_context(inst, rate)
        if name == "squeezed":
            keep = np.random.default_rng(3).random(ctx.q.shape) >= 0.2
            ctx = dataclasses.replace(ctx, direct=np.where(keep[..., None], ctx.direct, np.inf))
        want, want_payloads = _reference_population(ctx, X)
        decoded = [dec is not None for dec in (_reference_decode(ctx, vec) for vec in X)]
        memo = {}
        _evaluate_population(ctx, X[::2], memo)      # a memo an earlier call filled
        # one chunk, then chunks of seven rows with a short last one
        for cells in (metaheuristics._CHUNK_CELLS, 7 * inst.n ** 2):
            monkeypatch.setattr(metaheuristics, "_CHUNK_CELLS", cells)
            for m in (None, memo):
                calls.clear()
                entries = None if m is None else len(m)
                got, A, M, keys = _evaluate_population(ctx, X, m)
                assert got.tobytes() == want.tobytes()
                assert len(A) == len(M) == len(want_payloads)
                for g, w in zip(zip(A, M), want_payloads):
                    if w is not None:
                        assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                                   for a, b in zip(g, w))
                # every decoded row is repaired, but with a memo only on the
                # first row of each key the memo does not hold yet
                if m is None:
                    assert len(calls) == sum(decoded) and keys == [None] * len(X)
                else:
                    assert len(calls) == len(m) - entries
                    assert [k is not None for k in keys] == decoded
                    assert set(m) == {k for k in keys if k is not None}
                # the returned masks are not the memo's: scribbling on them leaves it intact
                M[...] = ~M
        if name == "squeezed":
            repairs = [v is None for v in memo.values()]
            assert any(repairs) and not all(repairs)
    if name == "short-range":
        assert not all(decoded)
    if name == "p11":
        assert max(int((p[0] == np.arange(inst.n)).sum())
                   for p in want_payloads if p is not None) >= 8


def test_nsga2_memo_stays_within_twice_the_population(monkeypatch):
    # the memo is pruned to the survivors' keys after every selection
    inst = generate(preset(1))
    evaluate = metaheuristics._evaluate_population
    sizes = []

    def recorded(ctx, X, memo=None):
        out = evaluate(ctx, X, memo)
        sizes.append(len(memo))
        return out

    monkeypatch.setattr(metaheuristics, "_evaluate_population", recorded)
    params = metaheuristics.AlgorithmParams(max_iterations=15, population_size=20)
    metaheuristics.run_nsga2(inst, params)
    assert len(sizes) == 16 and 0 < max(sizes) <= 2 * params.population_size


def test_population_memory_stays_bounded():
    # n = 150: in row chunks the pass peaks near 110 MB, in one (100, n, n)
    # chunk near 180 MB; capacities scaled by 1e6 make repair a no-op
    inst = generate(preset(10))
    inst = dataclasses.replace(inst, capacity=inst.capacity * 1e6)
    ctx = make_context(inst, 0.5)
    X = np.random.default_rng(0).random((100, genome_length(inst.n)))
    tracemalloc.start()
    try:
        objs, A, M, _ = _evaluate_population(ctx, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150 * 2 ** 20
    n = inst.n
    assert objs.shape == (100, 3) and A.shape == (100, n) and M.shape == (100, n, n)
    finite = np.isfinite(objs).all(axis=1)
    assert finite.any() and np.isposinf(objs[~finite]).all()
