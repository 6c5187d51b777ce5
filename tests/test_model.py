import dataclasses
import math

import numpy as np
import pytest

from conftest import TINY_DISTANCE, TINY_DEMAND, make_instance
from hubnet.model import (
    NetworkDesign,
    ObjectiveVector,
    RoutePlan,
    design_violations,
    feasibility_violations,
    hub_loads,
    implied_route,
    plan_violations,
    round6,
    route_time,
    validate_instance,
)


def all_hub_plan(inst, design):
    a = design.assignment
    return RoutePlan.from_dict(inst.n, {
        (i, j): implied_route(a[i], a[j]) for i, j in inst.pairs()
    })


def test_round6():
    assert round6(1.23456789) == 1.234568
    assert round6(2.0) == 2.0


def test_objective_vector_rounds_and_rejects():
    v = ObjectiveVector(1.23456789, 0.0, 5.0000001)
    assert v.as_tuple() == (1.234568, 0.0, 5.0)
    for bad in [(-1.0, 0, 0), (math.nan, 0, 0), (0, math.inf, 0)]:
        with pytest.raises(ValueError):
            ObjectiveVector(*bad)


def test_network_design_from_hubs():
    d = NetworkDesign.from_hubs(4, [2, 0], [0, 0, 2, 2])
    assert d.hubs == (0, 2)
    assert d.n == 4
    assert d.hub_open == (True, False, True, False)


def test_route_plan_accessors():
    plan = RoutePlan.from_dict(3, {(0, 1): (), (1, 0): (1,)})
    assert plan.route(0, 1) == ()
    assert plan.route(1, 0) == (1,)
    with pytest.raises(KeyError):
        plan.route(0, 2)
    assert sorted((i, j) for i, j, _ in plan.items()) == [(0, 1), (1, 0)]
    with pytest.raises(ValueError):
        RoutePlan.from_dict(3, {(1, 1): ()})


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


def test_instance_shape_checks():
    with pytest.raises(ValueError):
        make_instance(3, 2, distance=np.zeros((2, 2)), demand=TINY_DEMAND)


def test_design_violations(tiny):
    ok = NetworkDesign.from_hubs(3, [1], [1, 1, 1])
    assert design_violations(tiny, ok) == []

    closed = NetworkDesign.from_hubs(3, [1], [0, 1, 1])
    assert any("closed" in v for v in design_violations(tiny, closed))

    not_self = NetworkDesign(hub_open=(True, True, False), assignment=(1, 1, 1))
    assert any("self-assigned" in v for v in design_violations(tiny, not_self))

    too_many = NetworkDesign.from_hubs(3, [0, 1, 2], [0, 1, 2])
    assert any("outside" in v for v in design_violations(tiny, too_many))

    short_reach = dataclasses.replace(tiny, omega=120.0)
    far = NetworkDesign.from_hubs(3, [1], [1, 1, 1])   # spoke 2 at distance 150
    assert any("omega" in v for v in design_violations(short_reach, far))

    four = NetworkDesign.from_hubs(4, [1], [1, 1, 1, 1])
    assert design_violations(tiny, four) == ["design sized for 4 nodes, instance has 3"]

    stray = NetworkDesign.from_hubs(3, [1], [1, 1, 5])
    assert "assignment[2]=5 is not a node" in design_violations(tiny, stray)


def test_plan_violations(tiny):
    design = NetworkDesign.from_hubs(3, [1], [1, 1, 1])
    good = all_hub_plan(tiny, design)
    assert plan_violations(tiny, design, good) == []

    wrong_hub = RoutePlan.from_dict(3, {
        **{(i, j): (1,) for i, j in tiny.pairs()},
        (0, 1): (0,),
    })
    assert plan_violations(tiny, design, wrong_hub) == [
        "pair (0, 1) flies hubs (0,) but its endpoints' hubs are (1, 1)"]

    missing = RoutePlan.from_dict(3, {(0, 1): (1,)})
    assert any("no route" in v for v in plan_violations(tiny, design, missing))

    design2 = NetworkDesign.from_hubs(3, [0, 2], [0, 0, 2])
    stray = RoutePlan.from_dict(3, {
        **{(i, j): () for i, j in tiny.pairs()},
        (1, 2): (2, 0),
    })
    assert plan_violations(tiny, design2, stray) == [
        "pair (1, 2) flies hubs (2, 0) but its endpoints' hubs are (0, 2)"]

    twin = RoutePlan.from_dict(3, {
        **{(i, j): () for i, j in tiny.pairs()},
        (1, 2): (0, 0),
    })
    assert plan_violations(tiny, design2, twin) == [
        "pair (1, 2) flies hubs (0, 0) but its endpoints' hubs are (0, 2)"]

    slow = dataclasses.replace(tiny, max_transfer_time=np.full((3, 3), 21.0))
    late_plan = RoutePlan.from_dict(3, {
        **{(i, j): () for i, j in tiny.pairs()},
        (0, 2): (1,),   # needs a matching design; legality reported separately
    })
    design3 = NetworkDesign.from_hubs(3, [1], [1, 1, 1])
    msgs = plan_violations(slow, design3, late_plan)
    assert any("exceeds cap" in v for v in msgs)

    wide = RoutePlan.from_dict(4, {(0, 3): ()})
    assert plan_violations(tiny, design, wide) == ["plan sized for 4 nodes, instance has 3"]


def test_route_time_and_feasible_routes(tiny):
    design = NetworkDesign.from_hubs(3, [1], [1, 1, 1])
    assert route_time(tiny, (), 0, 2) == 20.0
    assert route_time(tiny, (1,), 0, 2) == 25.0
    assert route_time(tiny, (0, 2), 1, 2) == 30.0

    # pairs originating or ending at the hub still have a legal one-hub route
    direct = RoutePlan.from_dict(3, {pair: () for pair in tiny.pairs()})
    hub = all_hub_plan(tiny, design)
    assert plan_violations(tiny, design, direct) == []
    assert plan_violations(tiny, design, hub) == []

    # a 24 h cap keeps every direct flight but not the 25 h route 0 -> 1 -> 2
    capped = dataclasses.replace(tiny, max_transfer_time=np.full((3, 3), 24.0))
    assert plan_violations(capped, design, direct) == []
    assert "pair (0, 2) route time 25.0 exceeds cap 24.0" in plan_violations(capped, design, hub)


def test_hub_loads(tiny):
    design = NetworkDesign.from_hubs(3, [1], [1, 1, 1])
    plan = all_hub_plan(tiny, design)
    loads = hub_loads(tiny, plan, 0.5)
    # every pair's demand lands on hub 1 exactly once
    assert loads[1] == TINY_DEMAND.sum()
    assert loads[0] == 0.0 and loads[2] == 0.0

    design2 = NetworkDesign.from_hubs(3, [0, 2], [0, 0, 2])
    plan2 = all_hub_plan(tiny, design2)
    loads2 = hub_loads(tiny, plan2, 0.5)
    # (0,1)/(1,0) stay on hub 0; every pair touching node 2 loads both hubs
    assert loads2[0] == TINY_DEMAND.sum()
    assert loads2[2] == 50.0 + 55.0 + 52.0 + 48.0


def test_feasibility_violations_capacity(tiny):
    small = dataclasses.replace(tiny, capacity=np.array([0.0, 100.0, 0.0]))
    design = NetworkDesign.from_hubs(3, [1], [1, 1, 1])
    plan = all_hub_plan(tiny, design)
    msgs = feasibility_violations(small, design, plan, 0.5)
    assert any("exceeds capacity" in v for v in msgs)
    assert feasibility_violations(tiny, design, plan, 0.5) == []
