"""Objective oracles with hand-derived totals on the 3-node instance.

Derivations for the all-hub plan under hubs={1}, assignment=(1,1,1):

  cost    per pair (beta=0.8, u1=1): (0,1) 81*40, (1,0) 81*45,
          (1,2) 121*55, (2,1) 121*48, (0,2) 201*50, (2,0) 201*52;
          sum 39850, +400 fixed = 40250
  z2      lto sum 4, rate sum 2.5, phi=50 so m=1 except q=55,52 -> 2:
          258+258+766+383+633+1266 = 3564
  z3      hub times 10,10,15,15,25,25 against [12,22] at 1.2/1.3:
          2.4+2.4+0+0+3.9+3.9 = 12.6
"""

import dataclasses
import itertools

import numpy as np
import pytest

from conftest import make_instance
from hubnet.encoding import genome_length
from hubnet.evaluation import (
    compute_objectives,
    evaluate,
    evaluate_mask,
    hub_tables,
    loads_from_mask,
    make_context,
    plan_from_mask,
)
from hubnet.generator import GeneratorSpec, generate, preset
from hubnet.metaheuristics import _evaluate_population, _solution
from hubnet.model import (
    FEAS_TOL,
    NetworkDesign,
    validate_instance,
)
from oracle import hub_loads, implied_route, plan_objectives, plan_routes, route_time
from test_model import all_hub_plan, direct_plan


def test_aircraft_count_boundaries():
    # the context's per-pair aircraft counts at phi = 50: zero demand flies
    # none, and a demand within snapping tolerance of a multiple of 50
    # (here 0 and 50) snaps down to it
    demand = np.array([[0.0, 0.0, 49.9, 50.0],
                       [50.0 + 4e-8, 0.0, 50.001, 100.0],
                       [0.001, 150.0, 0.0, 0.0],
                       [1e-12, 0.0, 0.0, 0.0]])
    inst = make_instance(4, 2, distance=np.where(np.eye(4), 0.0, 100.0), demand=demand,
                         phi=50.0)
    m = make_context(inst, 0.5).m
    assert m.tolist() == [[0, 0, 1, 1], [1, 0, 2, 2], [1, 3, 0, 0], [0, 0, 0, 0]]
    # a capacity of zero and negative demand never reach pricing
    broken = dataclasses.replace(inst, aircraft_capacity=0.0,
                                 demand=np.where(inst.demand > 100.0, -1.0, inst.demand))
    assert {"aircraft_capacity must be > 0, got 0.0",
            "demand has negative components"} <= set(validate_instance(broken))


def test_all_hub_plan_totals(tiny):
    design = NetworkDesign((1, 1, 1))
    plan = all_hub_plan(3)
    z = compute_objectives(tiny, design, plan, 0.5)
    assert z[0] == 40250.0
    assert z[1] == 3564.0
    assert z[2] == 12.6


def test_mixed_plan_totals(tiny):
    # (0,2)/(2,0) go direct: d=200 so z1 swaps 201*q for 200*q,
    # z2 swaps 633-per-aircraft for 504, z3 drops both 3.9 penalties
    design = NetworkDesign((1, 1, 1))
    plan = direct_plan(3, (0, 1), (1, 0), (1, 2), (2, 1))
    assert compute_objectives(tiny, design, plan, 0.5) == (40148.0, 3177.0, 4.8)


def test_two_hub_route_totals(tiny):
    # all pairs direct except (1,2) via hubs (0, 2):
    #   direct baseline: z1 44350+800, z2 3157, z3 4.8
    #   swap for (1,2): unit cost 182.5 (80+100+2.5), dist 300 legs 3 m=2,
    #   time 30 -> lateness 8*1.3
    design = NetworkDesign((0, 0, 2))
    base = direct_plan(3)
    assert compute_objectives(tiny, design, base, 0.5) == (45150.0, 3157.0, 4.8)

    swapped = direct_plan(3, (1, 2))
    assert compute_objectives(tiny, design, swapped, 0.5) == (46937.5, 3923.0, 15.2)


def test_penalty_ignores_demand_rate(tiny):
    design = NetworkDesign((1, 1, 1))
    plan = all_hub_plan(3)
    vals = {compute_objectives(tiny, design, plan, r)[2] for r in (0.0, 0.3, 1.0)}
    assert vals == {12.6}


def test_defuzzified_demand_scales_cost():
    fuzzy = np.zeros((3, 3, 4))
    fuzzy[0, 1] = [30.0, 40.0, 50.0, 60.0]   # interval [35, 55]
    inst = make_instance(3, 2, distance=np.where(np.eye(3), 0.0, 100.0),
                         demand=fuzzy, fixed=0.0, handling=0.0)
    design = NetworkDesign((0, 0, 0))
    plan = direct_plan(3)
    assert compute_objectives(inst, design, plan, 0.0)[0] == 100.0 * 35.0
    assert compute_objectives(inst, design, plan, 1.0)[0] == 100.0 * 55.0
    assert compute_objectives(inst, design, plan, 0.5)[0] == 100.0 * 45.0


def test_evaluate_rejects_infeasible(tiny):
    starved = dataclasses.replace(tiny, capacity=np.array([0.0, 10.0, 0.0]))
    design = NetworkDesign((1, 1, 1))
    plan = all_hub_plan(3)
    with pytest.raises(ValueError, match="exceeds capacity"):
        evaluate(starved, design, plan, 0.5)
    assert evaluate(tiny, design, plan, 0.5).as_tuple() == (40250.0, 3564.0, 12.6)


def test_mask_path_matches_the_oracle_reference():
    # the array path and the oracle's pair-by-pair scalar sum add in
    # different orders; both round to 1e-6, so a total may differ by one
    # step of that rounding (atol 1.5e-6), and rtol 1e-13 covers order
    # drift in large totals.  Loads are sums of demands, held to 1e-9.
    # Row 181 of the 8-node draw at rate 1 is a plan whose cost differs
    # by that one step.
    draws = [(GeneratorSpec(n=8, p=3, seed=0), 1.0, 0, 200)]
    draws += [(GeneratorSpec(n=n, p=max(2, n // 3), seed=n), rate, n, 40)
              for n in range(5, 16) for rate in (0.0, 0.5, 1.0)]
    checked = last_digit = 0
    for spec, rate, seed, count in draws:
        inst = generate(spec)
        ctx = make_context(inst, rate)
        X = np.random.default_rng(seed).random((count, genome_length(inst.n)))
        objs, A, M, _ = _evaluate_population(ctx, X)
        for row, a, mask in zip(objs, A, M):
            if not np.isfinite(row).all():
                continue
            sol = _solution(ctx, row, a, mask)
            ref = plan_objectives(inst, sol.design, sol.plan, rate)
            alone = evaluate_mask(ctx, hub_tables(ctx, a[None]), a[None], mask[None])[0]
            assert np.array_equal(alone, row)
            np.testing.assert_allclose(alone, ref, rtol=1e-13, atol=1.5e-6)
            np.testing.assert_allclose(loads_from_mask(ctx, a, mask),
                                       hub_loads(inst, sol.design, sol.plan, rate),
                                       rtol=1e-12, atol=1e-9)
            assert compute_objectives(inst, sol.design, sol.plan, rate) == tuple(row)
            assert np.array_equal(_direct_pairs(sol.design, sol.plan), ctx.offdiag & ~mask)
            checked += 1
            last_digit += tuple(row) != ref
    assert checked > 500 and last_digit >= 1
    row181 = _evaluate_population(make_context(generate(draws[0][0]), 1.0),
                                  np.random.default_rng(0).random((200, genome_length(8)))[181:182])
    assert row181[0][0, 0] == 2001270.346123


@pytest.mark.parametrize("name", ["gen6", "preset1", "preset4", "squeezed"])
def test_batched_loads_equal_the_one_plan_loads(name, gen6):
    # row r of the (N, n) form is the one-plan call on row r, byte for byte,
    # over designs with one-hub, two-hub and (masked-out) diagonal cells
    inst = {
        "gen6": gen6,
        "preset1": generate(preset(1)),
        "preset4": generate(preset(4)),
        "squeezed": dataclasses.replace(gen6, capacity=gen6.capacity * 0.1),
    }[name]
    n = inst.n
    ctx = make_context(inst, 0.5)
    rng = np.random.default_rng(n)
    rows = []
    for h in [1] + [inst.p] * 3 + list(rng.integers(1, inst.p + 1, size=8)):
        hubs = np.sort(rng.choice(n, size=int(h), replace=False))
        a = hubs[rng.integers(0, len(hubs), size=n)]
        a[hubs] = hubs
        rows.append(a)
    assignment = np.array(rows)
    masks = rng.random((len(rows), n, n)) < 0.7
    masks[:, np.arange(n), np.arange(n)] = True
    batch = loads_from_mask(ctx, assignment, masks)
    assert batch.shape == (len(rows), n)
    for a, mask, got in zip(assignment, masks, batch):
        assert got.tobytes() == loads_from_mask(ctx, a, mask).tobytes()
    same_hub = assignment[:, :, None] == assignment[:, None, :]
    assert (masks & same_hub & ctx.offdiag).any() and (masks & ~same_hub).any()
    assert (batch > 0).any()


def test_time_cap_sets_inf_exactly_where_the_typed_route_time_breaks_it():
    # caps at 1.3x the median flight time cut some direct and some hub
    # routes; _price must mark those, and only those, with inf
    inst = generate(GeneratorSpec(n=7, p=3, seed=3))
    offdiag = ~np.eye(7, dtype=bool)
    limit = 1.3 * np.median(inst.travel_time[offdiag])
    inst = dataclasses.replace(inst, max_transfer_time=np.where(offdiag, limit, 0.0))
    ctx = make_context(inst, 0.5)
    cap = inst.max_transfer_time + FEAS_TOL
    late_direct = np.array([[route_time(inst, (), i, j) > cap[i, j] for j in range(7)]
                            for i in range(7)])
    assert np.array_equal(np.isinf(ctx.direct), np.repeat(late_direct[..., None], 3, axis=-1))
    rng = np.random.default_rng(3)
    cut = 0
    for _ in range(10):
        hubs = np.sort(rng.choice(7, size=3, replace=False))
        a = hubs[rng.integers(0, 3, size=7)]
        a[hubs] = hubs
        routes = [[implied_route(a[i], a[j]) for j in range(7)] for i in range(7)]
        late_hub = np.array([[route_time(inst, routes[i][j], i, j) > cap[i, j] for j in range(7)]
                             for i in range(7)])
        tables = hub_tables(ctx, a)
        assert np.array_equal(np.isinf(tables), np.repeat(late_hub[..., None], 3, axis=-1))
        cut += int((late_hub & offdiag).sum())
    assert late_direct.any() and (~late_direct & offdiag).any() and cut > 0


def _direct_pairs(design, plan):
    out = np.zeros((design.n, design.n), dtype=bool)
    for i, j, route in plan_routes(design, plan):
        out[i, j] = route == ()
    return out


def test_plan_mask_roundtrip(tiny):
    design = NetworkDesign((0, 0, 2))
    for bits in itertools.product([False, True], repeat=6):
        mask = np.zeros((3, 3), dtype=bool)
        mask[~np.eye(3, dtype=bool)] = bits
        plan = plan_from_mask(mask)
        # direct exactly where the mask is False, off the diagonal
        assert np.array_equal(_direct_pairs(design, plan), ~mask & ~np.eye(3, dtype=bool))
        assert plan.hub == bits
