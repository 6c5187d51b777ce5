import dataclasses
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hubnet.encoding import _decode_arrays, _repair_mask, genome_length
from hubnet.evaluation import (
    compute_objectives,
    hub_tables,
    loads_from_mask,
    make_context,
    plan_from_mask,
)
from hubnet.generator import GeneratorSpec, generate
from hubnet.metaheuristics import _evaluate_population, _payload_solution
from hubnet.model import FEAS_TOL, NetworkDesign, feasibility_violations


def test_genome_length():
    assert genome_length(3) == 1 + 6 + 9
    assert genome_length(10) == 1 + 20 + 100


def _check_population(inst, seed, count):
    # the population pipeline the metaheuristics run: decode, repair, price
    ctx = make_context(inst, 0.5)
    X = np.random.default_rng(seed).random((count, genome_length(inst.n)))
    objs, payloads = _evaluate_population(ctx, X)
    again, payloads_again = _evaluate_population(ctx, X)
    assert np.array_equal(objs, again)
    feasible_seen = 0
    for row, payload, other in zip(objs, payloads, payloads_again):
        assert (payload is None) == (other is None)
        if payload is None:
            assert np.all(np.isinf(row))
            continue
        feasible_seen += 1
        assert all(np.array_equal(a, b) for a, b in zip(payload, other))
        sol = _payload_solution(ctx, row, payload)
        assert feasibility_violations(inst, sol.design, sol.plan, 0.5) == []
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
    dec = _decode_arrays(ctx, vec)
    assert dec is not None
    assert list(dec[1]) == [1]         # count gene 0.0 -> one hub

    vec2 = vec.copy()
    vec2[0] = 0.6                       # 1 + floor(0.6 * 2) = 2 hubs
    assert list(_decode_arrays(ctx, vec2)[1]) == [0, 1]


def test_route_keys_choose_hub_vs_direct(tiny):
    n = tiny.n
    vec = np.zeros(genome_length(n))
    vec[1:1 + n] = [0.2, 0.9, 0.1]
    dec = _decode_arrays(make_context(tiny, 0.5), vec)   # all route keys 0 -> direct
    assert dec is not None
    assert not dec[2].any()


def test_decode_none_when_uncoverable(tiny):
    isolated = dataclasses.replace(tiny, omega=40.0)
    vec = np.full(genome_length(3), 0.3)
    assert _decode_arrays(make_context(isolated, 0.5), vec) is None


def test_repair_flips_heaviest_pairs(tiny):
    # hub 1 sees load 290 when everything routes through it; with capacity
    # 150 the three heaviest pairs (55, 52, 50) must fall back to direct
    squeezed = dataclasses.replace(tiny, capacity=np.array([1e9, 150.0, 1e9]))
    ctx = make_context(squeezed, 0.5)
    a = np.array([1, 1, 1])
    repaired = _repair_mask(ctx, hub_tables(ctx, a), ctx.offdiag.copy())
    assert repaired is not None
    direct_pairs = {(int(i), int(j)) for i, j in np.argwhere(ctx.offdiag & ~repaired)}
    assert direct_pairs == {(1, 2), (2, 0), (0, 2)}
    design = NetworkDesign.from_hubs(3, [1], a)
    assert feasibility_violations(squeezed, design, plan_from_mask(design, repaired), 0.5) == []


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
    tables = hub_tables(ctx, np.array([1, 1, 1]))
    assert _repair_mask(ctx, tables, ctx.offdiag.copy()) is None


def _reference_repair(ctx, tables, mask):
    # the rescanning loop _repair_mask replaced: after every flip it
    # recomputes the most overloaded hub and argmaxes its movable pairs
    inst = ctx.inst
    mask = mask.copy()
    loads = loads_from_mask(ctx, tables, mask)
    a = tables.assignment
    while True:
        over = loads - inst.capacity
        worst = int(np.argmax(over))
        if over[worst] <= FEAS_TOL:
            return mask
        touches = mask & ((a[:, None] == worst) | (~tables.same_hub & (a[None, :] == worst)))
        movable = touches & ctx.direct_feasible
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
        thinned = dataclasses.replace(
            ctx, direct_feasible=ctx.direct_feasible & (rng.random((n, n)) >= thin))
        for vec in rng.random((8, genome_length(n))):
            dec = _decode_arrays(ctx, vec)
            if dec is None:
                continue
            _, _, mask, tables = dec
            before = mask.copy()
            got = _repair_mask(thinned, tables, mask)
            want = _reference_repair(thinned, tables, mask)
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
