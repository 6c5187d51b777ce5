import dataclasses
import math

import numpy as np
import pytest

from conftest import TINY_DISTANCE, TINY_DEMAND, make_instance
from hubnet.evaluation import (
    check,
    loads_from_mask,
    make_context,
    plan_from_mask,
)
from hubnet.generator import GeneratorSpec, generate
from hubnet.model import (
    NetworkDesign,
    ObjectiveVector,
    RoutePlan,
    design_violations,
    round6,
    validate_instance,
)
from oracle import plan_routes


def all_hub_plan(n):
    """Every pair flies its endpoints' hubs."""
    return plan_from_mask(np.ones((n, n), dtype=bool))


def direct_plan(n, *hub_pairs):
    """Every pair flies direct but ``hub_pairs``, which fly their hubs."""
    mask = np.zeros((n, n), dtype=bool)
    for i, j in hub_pairs:
        mask[i, j] = True
    return plan_from_mask(mask)


def test_round6():
    assert round6(1.23456789) == 1.234568
    assert round6(2.0) == 2.0


def test_objective_vector_rounds_and_rejects():
    v = ObjectiveVector(1.23456789, 0.0, 5.0000001)
    assert v.as_tuple() == (1.234568, 0.0, 5.0)
    for bad in [(-1.0, 0, 0), (math.nan, 0, 0), (0, math.inf, 0)]:
        with pytest.raises(ValueError):
            ObjectiveVector(*bad)


def test_network_design_hubs_are_the_self_assigned_nodes():
    d = NetworkDesign((0, 0, 2, 2))
    assert d.hubs == (0, 2)
    assert d.n == 4
    assert NetworkDesign((1, 1, 1)).hubs == (1,)


def test_route_plan_accessors():
    # a set bit flies the hubs the endpoints are assigned to, in row-major order
    design = NetworkDesign((0, 0, 2))
    plan = RoutePlan(hub=(True, True, False, True, True, False))
    assert list(plan_routes(design, plan)) == [
        (0, 1, (0,)), (0, 2, (0, 2)), (1, 0, ()), (1, 2, (0, 2)), (2, 0, (2, 0)), (2, 1, ())]
    # the diagonal is never a pair, whatever its bit
    assert plan_from_mask(np.eye(3, dtype=bool)) == direct_plan(3)
    assert [r for _, _, r in plan_routes(design, direct_plan(3))] == [()] * 6


def test_validate_instance_accepts_tiny(tiny):
    assert validate_instance(tiny) == []


def test_validate_instance_reports_each_break(tiny):
    asym = np.array(TINY_DISTANCE)
    asym[0, 1] = 99.0
    assert any("symmetric" in v for v in
               validate_instance(dataclasses.replace(tiny, distance=asym)))

    diag = np.array(TINY_DISTANCE)
    diag[1, 1] = 5.0
    assert any("diagonal" in v for v in
               validate_instance(dataclasses.replace(tiny, distance=diag)))

    assert any("hub budget" in v for v in
               validate_instance(dataclasses.replace(tiny, p=4)))
    assert any("alpha_discount" in v for v in
               validate_instance(dataclasses.replace(tiny, alpha_discount=1.5)))
    assert "beta_discount must lie in (0, 1], got 0.0" in validate_instance(
        dataclasses.replace(tiny, beta_discount=0.0))
    assert "lto_p1 must be >= 0" in validate_instance(dataclasses.replace(tiny, lto_p1=-1.0))
    assert any("aircraft_capacity" in v for v in
               validate_instance(dataclasses.replace(tiny, aircraft_capacity=0.0)))

    neg = np.array(tiny.fixed_cost)
    neg[0] = -1.0
    assert any("fixed_cost" in v for v in
               validate_instance(dataclasses.replace(tiny, fixed_cost=neg)))

    crossed = dataclasses.replace(
        tiny,
        window_lower=np.full((3, 3), 30.0),
        window_upper=np.full((3, 3), 20.0),
    )
    assert any("exceeds" in v for v in validate_instance(crossed))

    dem = np.array(tiny.demand)
    dem[0, 1] = [4.0, 3.0, 2.0, 1.0]
    assert any("ascending" in v for v in
               validate_instance(dataclasses.replace(tiny, demand=dem)))

    dem2 = np.array(tiny.demand)
    dem2[0, 0, 0] = 7.0
    assert any("demand diagonal" in v for v in
               validate_instance(dataclasses.replace(tiny, demand=dem2)))

    dem3 = np.array(tiny.demand)
    dem3[0, 1] = [-2.0, -1.0, 1.0, 2.0]   # ascending, but below zero
    assert "demand has negative components" in validate_instance(
        dataclasses.replace(tiny, demand=dem3))

    # one node leaves no pair to route
    lone = make_instance(1, 1, distance=np.zeros((1, 1)), demand=np.zeros((1, 1)))
    assert validate_instance(lone) == ["node count must be >= 2, got 1"]

    # NaN slips past every sign and order check, so finiteness is its own test
    nan_time = np.array(tiny.travel_time)
    nan_time[0, 1] = math.nan
    for name, value in (("travel_time", nan_time), ("aircraft_capacity", math.nan),
                        ("capacity", np.full(3, math.inf)), ("omega", -math.inf)):
        report = validate_instance(dataclasses.replace(tiny, **{name: value}))
        assert f"{name} has non-finite values" in report, report


def test_validate_instance_refuses_data_whose_prices_overflow(tiny):
    # finite data whose products overflow: both prices of the tiny
    # instance, or only the hub routes of a generated one
    huge = dataclasses.replace(tiny, demand=tiny.demand * 1e300,
                               unit_transport_cost=np.full((3, 3), 1e10))
    assert "objective z1 (cost) can overflow a float on this data" in validate_instance(huge)
    gen = generate(GeneratorSpec(n=6, p=2, seed=0))
    handled = dataclasses.replace(gen, handling_cost=np.full(6, 1e307))
    assert validate_instance(handled) == [
        "objective z1 (cost) can overflow a float on this data"]
    # rounding to 1e-6 scales by 1e6, so a cost near 1e303 is refused too
    assert validate_instance(dataclasses.replace(gen, fixed_cost=np.full(6, 1e303))) == [
        "objective z1 (cost) can overflow a float on this data"]
    # a zero rate times an overflowing route length is nan, and refused too
    long = dataclasses.replace(gen, distance=np.where(np.eye(6), 0.0, 1e308), omega=1e308,
                               ccd_rate_p1=0.0, ccd_rate_p2=0.0,
                               unit_transport_cost=np.zeros((6, 6)))
    assert validate_instance(long) == [
        "objective z2 (emissions) can overflow a float on this data"]


def test_instance_shape_checks():
    with pytest.raises(ValueError):
        make_instance(3, 2, distance=np.zeros((2, 2)), demand=TINY_DEMAND)


def test_design_violations(tiny):
    ok = NetworkDesign((1, 1, 1))
    assert design_violations(tiny, ok) == []

    # node 0 is assigned to hub 1, so node 2 is assigned to a spoke
    closed = NetworkDesign((1, 1, 0))
    assert design_violations(tiny, closed) == ["node 2 assigned to non-hub 0"]

    too_many = NetworkDesign((0, 1, 2))
    assert any("outside" in v for v in design_violations(tiny, too_many))

    short_reach = dataclasses.replace(tiny, omega=120.0)
    far = NetworkDesign((1, 1, 1))   # spoke 2 at distance 150
    assert any("omega" in v for v in design_violations(short_reach, far))

    four = NetworkDesign((1, 1, 1, 1))
    assert design_violations(tiny, four) == ["design sized for 4 nodes, instance has 3"]

    stray = NetworkDesign((1, 1, 5))
    assert "assignment[2]=5 is not a node" in design_violations(tiny, stray)


def test_plan_violations(tiny):
    design = NetworkDesign((1, 1, 1))
    assert check(tiny, design, all_hub_plan(3), 0.5)[0] == []

    slow = dataclasses.replace(tiny, max_transfer_time=np.full((3, 3), 21.0))
    msgs = check(slow, design, direct_plan(3, (0, 2)), 0.5)[0]
    assert msgs == ["pair (0, 2) route time exceeds cap 21.0"]

    long = direct_plan(4)
    assert check(tiny, design, long, 0.5)[0] == ["plan has 12 pair bits, instance has 6 pairs"]
    # a short plan would leave its last pairs unpriced
    short = RoutePlan(hub=(True,) * 5)
    assert check(tiny, design, short, 0.5)[0] == ["plan has 5 pair bits, instance has 6 pairs"]


def test_route_time_and_feasible_routes(tiny):
    # a route fits a cap equal to its legs' summed time and breaks one a
    # hair below it
    for assignment, (i, j), hub, time in (
            ((1, 1, 1), (0, 2), False, 20.0),     # direct
            ((1, 1, 1), (0, 1), True, 10.0),      # via its own hub: 10 + 0
            ((1, 1, 1), (0, 2), True, 25.0),      # one hub: 10 + 15
            ((0, 0, 2), (1, 2), True, 30.0)):     # two hubs: 10 + 20 + 0
        plan = direct_plan(3, (i, j)) if hub else direct_plan(3)
        for cap, findings in ((time, []),
                              (time - 1e-6, [f"pair ({i}, {j}) route time exceeds cap {time - 1e-6}"])):
            capped = np.full((3, 3), 100.0)
            capped[i, j] = cap
            inst = dataclasses.replace(tiny, max_transfer_time=capped)
            assert check(inst, NetworkDesign(assignment), plan, 0.5)[0] == findings

    design = NetworkDesign((1, 1, 1))
    # pairs originating or ending at the hub still have a legal one-hub route
    direct = direct_plan(3)
    hub = all_hub_plan(3)
    assert check(tiny, design, direct, 0.5)[0] == []
    assert check(tiny, design, hub, 0.5)[0] == []

    # a 24 h cap keeps every direct flight but not the 25 h route 0 -> 1 -> 2
    capped = dataclasses.replace(tiny, max_transfer_time=np.full((3, 3), 24.0))
    assert check(capped, design, direct, 0.5)[0] == []
    assert check(capped, design, hub, 0.5)[0] == [
        "pair (0, 2) route time exceeds cap 24.0", "pair (2, 0) route time exceeds cap 24.0"]


def test_hub_loads(tiny):
    ctx = make_context(tiny, 0.5)
    every = np.ones((3, 3), dtype=bool)
    loads = loads_from_mask(ctx, np.array([1, 1, 1]), every)
    # every pair's demand lands on hub 1 exactly once
    assert loads[1] == TINY_DEMAND.sum()
    assert loads[0] == 0.0 and loads[2] == 0.0

    loads2 = loads_from_mask(ctx, np.array([0, 0, 2]), every)
    # (0,1)/(1,0) stay on hub 0; every pair touching node 2 loads both hubs
    assert loads2[0] == TINY_DEMAND.sum()
    assert loads2[2] == 50.0 + 55.0 + 52.0 + 48.0
    # a direct pair loads nothing
    assert not loads_from_mask(ctx, np.array([0, 0, 2]), ~every).any()


def test_check_reports_capacity(tiny):
    small = dataclasses.replace(tiny, capacity=np.array([0.0, 100.0, 0.0]))
    design = NetworkDesign((1, 1, 1))
    plan = all_hub_plan(3)
    msgs = check(small, design, plan, 0.5)[0]
    assert any("exceeds capacity" in v for v in msgs)
    assert check(tiny, design, plan, 0.5)[0] == []
    # an illegal design is reported alone: its plan implies no routes to check
    capped = dataclasses.replace(small, max_transfer_time=np.full((3, 3), 21.0))
    assert check(capped, NetworkDesign((1, 1, 0)), plan, 0.5)[0] == [
        "node 2 assigned to non-hub 0"]
