import dataclasses

import numpy as np

from hubnet.encoding import _decode_arrays, _repair_mask, genome_length
from hubnet.evaluation import compute_objectives, hub_tables, make_context, plan_from_mask
from hubnet.generator import GeneratorSpec, generate
from hubnet.metaheuristics import _evaluate_population, _payload_solution
from hubnet.model import NetworkDesign, feasibility_violations


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
