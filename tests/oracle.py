"""Exhaustive Pareto oracle for tiny instances, the ground truth of the exact solver.

It shares no search, route or pricing code with ``hubnet``: designs come
from ``itertools`` and the omega rule (``naive_designs``), a plan's routes
from this module's own walk (``plan_routes``), and each pair's two
options, the direct flight and the hub route its endpoints' assignments
imply, are priced by this module's scalar reference (``route_objectives``)
and timed by ``route_time`` against the pair's cap.  The package prices on
one array path (``evaluation._price``); a pricing slip there therefore
shows up as a gap between the solver and this oracle instead of hitting
both sides at once.  ``plan_objectives`` and ``hub_loads`` total a whole
plan pair by pair in row-major order, the reference the array path's
tests compare against within a stated tolerance (the two sum in
different orders, so they may differ in the last rounded digit).

Per design the oracle walks the pairs in canonical order, branching into
every option within its time cap (direct before hub), and merges the
partial states, pruning only those dominated in objectives and, whenever
a hub's capacity could bind, in hub loads.  That pruning keeps the exact
front.
"""

import itertools
import math
from typing import Optional

import numpy as np

from hubnet.evaluation import evaluate
from hubnet.fronts import ParetoFront, nondominated_mask
from hubnet.model import (
    FEAS_TOL,
    EvaluatedSolution,
    NetworkDesign,
    ProblemInstance,
    RoutePlan,
    round6,
)

MAX_NODES = 6

# the hubs a flow visits, in flight order: () direct, (k,) or (k, l)
Route = tuple[int, ...]


def implied_route(k: int, l: int) -> Route:
    """The hub route of a pair whose endpoints are assigned to ``k`` and ``l``."""
    return (k,) if k == l else (k, l)


def plan_routes(design: NetworkDesign, plan: RoutePlan):
    """``(i, j, route)`` of every ordered pair, i != j, in row-major order."""
    a = design.assignment
    for (i, j), hub in zip(canonical_pairs(len(a)), plan.hub):
        yield i, j, implied_route(a[i], a[j]) if hub else ()


def canonical_pairs(n: int) -> list[tuple[int, int]]:
    """Ordered node pairs (i, j), i != j, in row-major (canonical) order."""
    return list(itertools.permutations(range(n), 2))


def aircraft_count(q: float, phi: float) -> int:
    """Aircraft needed to move quantity ``q`` with per-aircraft capacity ``phi``.

    Zero demand needs zero aircraft; otherwise the count is the ceiling of
    ``q / phi``.  Quantities within 1e-9 of an integer multiple snap down
    so float noise cannot add a phantom aircraft.
    """
    if phi <= 0:
        raise ValueError(f"aircraft capacity must be > 0, got {phi}")
    if q < 0:
        raise ValueError(f"demand must be >= 0, got {q}")
    return max(0, math.ceil(q / phi - FEAS_TOL))


def route_time(inst: ProblemInstance, route: Route, i: int, j: int) -> float:
    """Total flight time of a route between origin i and destination j."""
    stops = (i, *route, j)
    return float(sum(inst.travel_time[a, b] for a, b in zip(stops, stops[1:])))


def route_objectives(inst: ProblemInstance, q: np.ndarray, cd: np.ndarray, i: int, j: int,
                     route: Route) -> tuple[float, float, float]:
    """Unrounded (cost, emissions, penalty) of pair (i, j) flown on ``route``.

    ``q`` is the crisp demand matrix and ``cd`` the unit transport cost
    times distance; ``cd[k, k]`` is 0, so one formula prices both hub
    routes.  The penalty depends only on the route's time, never on
    demand, so it is constant in the uncertainty rate.
    """
    d, tt, u = inst.distance, inst.travel_time, inst.handling_cost
    stops = (i, *route, j)
    dist = t = 0.0
    for a, b in zip(stops, stops[1:]):
        dist += d[a, b]
        t += tt[a, b]
    unit = cd[i, j]
    if route:
        k, l = route[0], route[-1]
        unit = inst.beta_discount * (cd[i, k] + cd[l, j]) + inst.alpha_discount * cd[k, l]
        for h in route:
            unit += u[h]
    legs = len(route) + 1
    m = aircraft_count(q[i, j], inst.aircraft_capacity)
    emissions = ((legs * inst.lto_p1 + inst.ccd_rate_p1 * dist) * m
                 + (legs * inst.lto_p2 + inst.ccd_rate_p2 * dist) * m)
    penalty = (inst.early_penalty[i, j] * max(0.0, inst.window_lower[i, j] - t)
               + inst.late_penalty[i, j] * max(0.0, t - inst.window_upper[i, j]))
    return unit * q[i, j], emissions, penalty


def plan_objectives(inst: ProblemInstance, design: NetworkDesign, plan: RoutePlan,
                    alpha_prime: float) -> tuple[float, float, float]:
    """Rounded objective triple of a plan, summed pair by pair.

    Cost opens with the fixed cost of the open hubs; each total adds
    ``route_objectives`` in row-major pair order and is rounded once.
    Time caps are not checked.
    """
    q = inst.demand_matrix(alpha_prime)
    cd = inst.unit_transport_cost * inst.distance
    z1 = float(inst.fixed_cost[list(design.hubs)].sum())
    z2 = z3 = 0.0
    for i, j, route in plan_routes(design, plan):
        c, e, p = route_objectives(inst, q, cd, i, j, route)
        z1 += c
        z2 += e
        z3 += p
    return round6(z1), round6(z2), round6(z3)


def hub_loads(inst: ProblemInstance, design: NetworkDesign, plan: RoutePlan,
              alpha_prime: float) -> np.ndarray:
    """Crisp throughput processed at each node under the plan.

    Every hub on a route carries the pair's full demand; a direct route
    loads nothing.
    """
    q = inst.demand_matrix(alpha_prime)
    loads = np.zeros(inst.n)
    for i, j, route in plan_routes(design, plan):
        for k in route:
            loads[k] += q[i, j]
    return loads


def naive_designs(inst: ProblemInstance):
    """Every legal design: 1..p hubs, each spoke on an open hub within omega.

    Product order over the nodes (hubs serve themselves) is the canonical
    configuration order: hub subsets by size then lexicographically, spokes'
    candidate hubs ascending."""
    n = inst.n
    for h in range(1, inst.p + 1):
        for hubs in itertools.combinations(range(n), h):
            options = [[i] if i in hubs else [k for k in hubs if inst.distance[i, k] <= inst.omega]
                       for i in range(n)]
            for assignment in itertools.product(*options):
                yield NetworkDesign(assignment)


def _hub_route(design: NetworkDesign, i: int, j: int):
    return implied_route(design.assignment[i], design.assignment[j])


def config_states(inst: ProblemInstance, design: NetworkDesign,
                  alpha_prime: float = 0.5) -> Optional[tuple[np.ndarray, list[int]]]:
    """All nondominated (unrounded objectives, hub-route bitmask) states of a design.

    Bit t of a mask set means canonical pair t flies its hub route.  None
    when some pair has no option within its time cap, or no routing fits
    the hub capacities.
    """
    q = inst.demand_matrix(alpha_prime)
    cd = inst.unit_transport_cost * inst.distance
    pairs = canonical_pairs(inst.n)
    hubs = list(design.hubs)
    pos = {k: x for x, k in enumerate(hubs)}
    options = []             # per pair: [(objectives or None) for direct, hub]
    for i, j in pairs:
        row = []
        for route in ((), _hub_route(design, i, j)):
            fits = route_time(inst, route, i, j) <= inst.max_transfer_time[i, j] + FEAS_TOL
            row.append(np.array(route_objectives(inst, q, cd, i, j, route)) if fits else None)
        if row[0] is None and row[1] is None:
            return None
        options.append(row)

    h = len(hubs)
    touched = [(pos[design.assignment[i]], pos[design.assignment[j]]) for i, j in pairs]
    # worst-case per-hub load decides whether loads must join the dominance test
    worst = np.zeros(h)
    for t, (i, j) in enumerate(pairs):
        if options[t][1] is not None:
            for x in set(touched[t]):
                worst[x] += q[i, j]
    caps = inst.capacity[hubs]
    track_loads = bool(np.any(worst > caps + FEAS_TOL))

    objs = np.array([[float(inst.fixed_cost[hubs].sum()), 0.0, 0.0]])
    masks = [0]
    loads = np.zeros((1, h))
    for t, (i, j) in enumerate(pairs):
        direct, hub = options[t]
        parts = []
        if direct is not None:
            parts.append((objs + direct, masks, loads))
        if hub is not None:
            delta = np.zeros(h)
            for x in set(touched[t]):
                delta[x] += q[i, j]
            parts.append((objs + hub, [mk | 1 << t for mk in masks], loads + delta))
        objs = np.concatenate([p[0] for p in parts])
        masks = [mk for p in parts for mk in p[1]]
        loads = np.concatenate([p[2] for p in parts])
        if track_loads:
            ok = np.all(loads <= caps + FEAS_TOL, axis=1)
            if not ok.any():
                return None
            objs, loads = objs[ok], loads[ok]
            masks = [mk for mk, k in zip(masks, ok) if k]
            keep = nondominated_mask(np.concatenate([objs, loads], axis=1))
        else:
            keep = nondominated_mask(objs)
        objs, loads = objs[keep], loads[keep]
        masks = [mk for mk, k in zip(masks, keep) if k]
    return objs, masks


def _plan_of(inst: ProblemInstance, mask: int) -> RoutePlan:
    """The plan whose canonical pair t flies its hub route where bit t is set."""
    return RoutePlan(hub=tuple(bool(mask >> t & 1) for t in range(inst.n * (inst.n - 1))))


def oracle_front(inst: ProblemInstance, alpha_prime: float = 0.5) -> ParetoFront:
    """Ground-truth Pareto front by exhausting designs and route combinations.

    Guarded to tiny instances (n <= 6).
    """
    if inst.n > MAX_NODES:
        raise ValueError(f"oracle is limited to n <= {MAX_NODES} nodes, got n={inst.n}")
    rows = []
    refs = []
    for design in naive_designs(inst):
        states = config_states(inst, design, alpha_prime)
        if states is None:
            continue
        rows.append(states[0])
        refs.extend((design, mk) for mk in states[1])
    if not refs:
        return ParetoFront(solutions=())
    keep = nondominated_mask(np.round(np.concatenate(rows), 6))
    plans = [(design, _plan_of(inst, mk)) for flag, (design, mk) in zip(keep, refs) if flag]
    return ParetoFront.from_candidates([
        EvaluatedSolution(design=design, plan=plan, alpha_prime=alpha_prime,
                          objectives=evaluate(inst, design, plan, alpha_prime))
        for design, plan in plans])
