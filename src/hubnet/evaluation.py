"""Objective evaluation: cost, emissions and time-window penalty.

Two equivalent code paths are kept on purpose.  The typed path
(:func:`compute_objectives`, :func:`evaluate`) walks a ``RoutePlan`` of hub
tuples with plain scalar arithmetic and serves as the readable reference;
it prices every route with one formula, :func:`_route_objectives`.  The array path
(:class:`EvalContext`, :func:`hub_tables`, :func:`evaluate_mask`) expresses
a plan as a boolean hub-route mask over the pair grid, prices a whole
population of masks at once, and is what the solvers use; a property test
pins the two paths to each other.  The array path prices a route in one
place: the kernel :func:`_price`, with :func:`_hub_route` for the hub-route
geometry, returns (..., 3) objective triples with inf over the pair's time
cap.  The direct table of :func:`make_context`, :func:`hub_tables` and the
exact solver's per-hub-set option arrays are its output as it is.

Objective semantics, per ordered pair with crisp demand ``q``:

* cost -- direct flights pay full transport cost; spoke-hub legs are
  discounted by ``beta``, the hub-hub leg by ``alpha``; every visited hub
  charges its per-unit handling cost; open hubs add fixed costs once.
* emissions -- the pair needs ``ceil(q / aircraft_capacity)`` aircraft;
  each aircraft emits one landing/take-off dose per leg plus a
  per-distance climb/cruise/descent dose, for two pollutant types.
* time-window penalty -- earliness below the pair's lower window edge and
  lateness above the upper edge are charged per time unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    FEAS_TOL,
    EvaluatedSolution,
    NetworkDesign,
    ObjectiveVector,
    ProblemInstance,
    Route,
    RoutePlan,
    feasibility_violations,
    implied_route,
    round6,
)

__all__ = [
    "aircraft_count",
    "evaluate",
    "compute_objectives",
    "solution_from_plan",
    "EvalContext",
    "make_context",
    "hub_tables",
    "evaluate_mask",
    "loads_from_mask",
    "plan_from_mask",
]


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


def _route_objectives(inst: ProblemInstance, q: np.ndarray, cd: np.ndarray, i: int, j: int,
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


def compute_objectives(inst: ProblemInstance, design: NetworkDesign, plan: RoutePlan,
                       alpha_prime: float) -> tuple[float, float, float]:
    """Objective triple without feasibility enforcement (sweeps use this).

    Cost opens with the fixed cost of the open hubs; each total sums
    :func:`_route_objectives` over the plan and is rounded once.
    """
    q = inst.demand_matrix(alpha_prime)
    cd = inst.unit_transport_cost * inst.distance
    z1 = float(inst.fixed_cost[list(design.hubs)].sum())
    z2 = z3 = 0.0
    for i, j, route in plan.items():
        c, e, p = _route_objectives(inst, q, cd, i, j, route)
        z1 += c
        z2 += e
        z3 += p
    return round6(z1), round6(z2), round6(z3)


def evaluate(inst: ProblemInstance, design: NetworkDesign, plan: RoutePlan,
             alpha_prime: float) -> ObjectiveVector:
    """Objectives of a feasible (design, plan); raises on any violation."""
    violations = feasibility_violations(inst, design, plan, alpha_prime)
    if violations:
        raise ValueError("infeasible solution:\n" + "\n".join(violations))
    return ObjectiveVector(*compute_objectives(inst, design, plan, alpha_prime))


def solution_from_plan(inst: ProblemInstance, design: NetworkDesign, plan: RoutePlan,
                       alpha_prime: float) -> EvaluatedSolution:
    """Canonical constructor keeping the objectives-match-reevaluation invariant."""
    return EvaluatedSolution(design=design, plan=plan,
                             objectives=evaluate(inst, design, plan, alpha_prime),
                             alpha_prime=alpha_prime)


# --- array path -----------------------------------------------------------
#
# A plan under a fixed design is fully described by one boolean per ordered
# pair: False = direct, True = the unique hub route implied by the endpoint
# assignments.  Everything below works on that mask representation.


@dataclass(frozen=True)
class EvalContext:
    """Design-independent per-instance arrays at one uncertainty rate."""

    inst: ProblemInstance
    alpha_prime: float
    q: np.ndarray              # (n, n) crisp demand
    m: np.ndarray              # (n, n) aircraft counts
    offdiag: np.ndarray        # (n, n) bool, True off the diagonal
    cd: np.ndarray             # unit_transport_cost * distance
    direct: np.ndarray         # (n, n, 3) direct routes, see _price


def _price(ctx: EvalContext, pair, unit_cost, dist, time, legs) -> np.ndarray:
    """Objective triples of one route per selected pair, inf over the time cap.

    ``pair`` selects the pairs from the (n, n) instance arrays: a basic
    slice (``np.s_[:, :]``, or ``np.s_[:, :, None, None]`` against
    (n, n, h, h) hub-pair tensors), so no gather is made, or a tuple of
    pair-index arrays.  ``unit_cost`` (money per cargo unit), ``dist``,
    ``time`` and ``legs`` describe the route and broadcast against the
    selection; ``time`` spans it.  Returns a ``time.shape + (3,)`` array of
    (z1, z2, z3), z3 zero on the diagonal, with every component inf where
    the route's time breaks the pair's cap; feasibility is
    ``np.isfinite(z[..., 0])``.
    """
    inst = ctx.inst
    lto, rate = inst.lto_p1 + inst.lto_p2, inst.ccd_rate_p1 + inst.ccd_rate_p2
    late = time > inst.max_transfer_time[pair] + FEAS_TOL
    z = np.empty(late.shape + (3,))
    np.multiply(unit_cost, ctx.q[pair], out=z[..., 0])
    np.multiply(legs * lto + rate * dist, ctx.m[pair], out=z[..., 1])
    z[..., 2] = np.where(
        ctx.offdiag[pair],
        inst.early_penalty[pair] * np.maximum(0.0, inst.window_lower[pair] - time)
        + inst.late_penalty[pair] * np.maximum(0.0, time - inst.window_upper[pair]),
        0.0,
    )
    z[late] = np.inf
    return z


def _hub_route(ctx: EvalContext, i, j, k, l, pair) -> np.ndarray:
    """:func:`_price` of the hub routes from origins ``i`` to destinations ``j``.

    ``k`` is the origin's hub and ``l`` the destination's; the route runs
    i -> k -> j where ``k == l`` and i -> k -> l -> j otherwise.  All four
    are broadcastable node-index arrays.
    """
    inst = ctx.inst
    d, t, cd, u = inst.distance, inst.travel_time, ctx.cd, inst.handling_cost
    two = k != l
    dist = d[i, k] + np.where(two, d[k, l], 0.0) + d[l, j]
    time = t[i, k] + np.where(two, t[k, l], 0.0) + t[l, j]
    unit_cost = (inst.beta_discount * (cd[i, k] + cd[l, j])
                 + np.where(two, inst.alpha_discount * cd[k, l] + u[l], 0.0) + u[k])
    return _price(ctx, pair, unit_cost, dist, time, 2.0 + two)


def make_context(inst: ProblemInstance, alpha_prime: float) -> EvalContext:
    q = inst.demand_matrix(alpha_prime)
    m = np.maximum(0, np.ceil(q / inst.aircraft_capacity - FEAS_TOL))
    cd = inst.unit_transport_cost * inst.distance
    ctx = EvalContext(inst=inst, alpha_prime=alpha_prime, q=q, m=m,
                      offdiag=~np.eye(inst.n, dtype=bool), cd=cd, direct=None)
    return replace(ctx, direct=_price(ctx, np.s_[:, :], cd, inst.distance, inst.travel_time, 1))


def hub_tables(ctx: EvalContext, assignment: np.ndarray) -> np.ndarray:
    """(..., n, n, 3) prices of the hub routes of an (n,) or (N, n) assignment."""
    a = np.asarray(assignment, dtype=np.intp)
    idx = np.arange(ctx.inst.n)
    return _hub_route(ctx, idx[:, None], idx[None, :], a[..., :, None], a[..., None, :],
                      np.s_[:, :])


def evaluate_mask(ctx: EvalContext, tables: np.ndarray, assignment: np.ndarray,
                  mask: np.ndarray) -> np.ndarray:
    """Objective rows (N, 3) of the plans encoded by (N, n, n) hub-route masks.

    ``tables`` are the :func:`hub_tables` of the (N, n) ``assignment``.  A
    row's open hubs, whose fixed costs open its cost, are the nodes
    assigned to themselves.  Every plan is summed as a flat row of its own,
    the order in which one (n, n) masked sum runs.
    """
    N = len(mask)
    use_hub = (mask & ctx.offdiag).reshape(N, -1)
    use_dir = (~mask & ctx.offdiag).reshape(N, -1)
    direct = [np.sum(np.broadcast_to(ctx.direct[..., c].ravel(), use_dir.shape), axis=1,
                     where=use_dir) for c in range(3)]
    hub = [np.sum(tables[..., c].reshape(N, -1), axis=1, where=use_hub) for c in range(3)]
    is_hub = assignment == np.arange(ctx.inst.n)
    fixed = np.array([ctx.inst.fixed_cost[row].sum() for row in is_hub], dtype=float)
    objs = np.column_stack([fixed + direct[0] + hub[0], direct[1] + hub[1], direct[2] + hub[2]])
    return np.round(objs, 6)


def loads_from_mask(ctx: EvalContext, assignment: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Per-node hub throughput of a masked plan (a two-hub route loads both).

    Takes one plan, ``(n,)`` and ``(n, n)``, or a batch, ``(N, n)`` and
    ``(N, n, n)``; row r of a batch equals the one-plan call on row r.
    """
    a = assignment
    n = ctx.inst.n
    qm = np.where(mask & ctx.offdiag, ctx.q, 0.0)
    rows = a.reshape(-1, n)
    slot = (np.arange(len(rows))[:, None] * n + rows).ravel()              # r*n + hub
    loads = np.zeros(rows.size)
    np.add.at(loads, slot, qm.sum(axis=-1).ravel())                          # origin-side hub
    np.add.at(loads, slot, np.where(a[..., :, None] != a[..., None, :], qm, 0.0)
              .sum(axis=-2).ravel())                                         # destination
    return loads.reshape(a.shape)


def plan_from_mask(design: NetworkDesign, mask: np.ndarray) -> RoutePlan:
    """Direct where ``mask`` is False, else the hub route of the pair's hubs."""
    a, n = design.assignment, design.n
    return RoutePlan.from_dict(n, {
        (i, j): implied_route(a[i], a[j]) if mask[i, j] else ()
        for i in range(n) for j in range(n) if i != j})
