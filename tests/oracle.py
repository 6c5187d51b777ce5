"""Exhaustive Pareto oracle for tiny instances, the ground truth of the exact solver.

It shares no search code with ``hubnet.exact``: designs come from
``itertools`` and the omega rule (``naive_designs``), and each pair's two
options, the direct flight and the hub route its endpoints' assignments
imply, are priced by the typed path (``evaluation._route_objectives``) and
timed by ``model.route_time`` against the pair's cap.  A pricing slip in
the array path therefore shows up as a gap between the solver and this
oracle instead of hitting both sides at once.

Per design the oracle walks the pairs in canonical order, branching into
every option within its time cap (direct before hub), and merges the
partial states, pruning only those dominated in objectives and, whenever
a hub's capacity could bind, in hub loads.  That pruning keeps the exact
front.
"""

import itertools
from typing import Optional

import numpy as np

from hubnet.evaluation import _route_objectives, solution_from_plan
from hubnet.fronts import ParetoFront, nondominated_mask
from hubnet.model import (
    FEAS_TOL,
    NetworkDesign,
    ProblemInstance,
    RoutePlan,
    implied_route,
    route_time,
)

MAX_NODES = 6


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
                yield NetworkDesign.from_hubs(n, hubs, assignment)


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
    pairs = list(inst.pairs())
    hubs = list(design.hubs)
    pos = {k: x for x, k in enumerate(hubs)}
    options = []             # per pair: [(objectives or None) for direct, hub]
    for i, j in pairs:
        row = []
        for route in ((), _hub_route(design, i, j)):
            fits = route_time(inst, route, i, j) <= inst.max_transfer_time[i, j] + FEAS_TOL
            row.append(np.array(_route_objectives(inst, q, cd, i, j, route)) if fits else None)
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


def _plan_of(inst: ProblemInstance, design: NetworkDesign, mask: int) -> RoutePlan:
    """The plan whose canonical pair t flies its hub route where bit t is set."""
    return RoutePlan.from_dict(inst.n, {
        (i, j): _hub_route(design, i, j) if mask >> t & 1 else ()
        for t, (i, j) in enumerate(inst.pairs())})


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
    return ParetoFront.from_candidates([
        solution_from_plan(inst, design, _plan_of(inst, design, mk), alpha_prime)
        for flag, (design, mk) in zip(keep, refs) if flag])
