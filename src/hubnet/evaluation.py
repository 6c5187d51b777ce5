"""Objective evaluation: cost, emissions and time-window penalty.

One pricer serves every caller.  A plan is a boolean hub-route mask over
the pair grid (:class:`EvalContext`, :func:`hub_tables`,
:func:`evaluate_mask`), and a whole population of masks is priced at
once.  A route is priced in one place: the kernel :func:`_price`, with
:func:`_hub_route` for the hub-route geometry, returns (..., 3) objective
triples with inf over the pair's time cap.  The direct table of
:func:`make_context`, :func:`hub_tables` and the exact solver's
route table are its output as it is.  :func:`check` is
the one judge of a stored (design, plan): it prices the plan as a
one-row batch and reads its findings off the same tables (a time-cap
breach is an inf in the chosen option, and hub loads come from
:func:`loads_from_mask`), so ``hubnet validate`` prices each row once
and recomputes exactly what the solvers store.  :func:`evaluate` raises
on its findings; :func:`compute_objectives` prices a frozen plan
without the assignment and capacity checks.  Every pricing path starts
at :func:`make_context`, which refuses an instance that
``validate_instance`` rejects.  The tests keep a scalar pair-by-pair
pricer (``tests/oracle.py``) as an independent reference for this one.

Objective semantics, per ordered pair with crisp demand ``q``:

* cost -- direct flights pay full transport cost; spoke-hub legs are
  discounted by ``beta``, the hub-hub leg by ``alpha``; every visited hub
  charges its per-unit handling cost; open hubs add fixed costs once.
* emissions -- the pair needs ``ceil(q / aircraft_capacity)`` aircraft,
  a ratio within ``FEAS_TOL`` above an integer snapping down to it (so
  zero demand needs none); each aircraft emits one landing/take-off dose
  per leg plus a per-distance climb/cruise/descent dose, for two
  pollutant types.
* time-window penalty -- earliness below the pair's lower window edge and
  lateness above the upper edge are charged per time unit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .model import (
    FEAS_TOL,
    NetworkDesign,
    ObjectiveVector,
    ProblemInstance,
    RoutePlan,
    design_violations,
    validate_instance,
)

__all__ = [
    "check",
    "evaluate",
    "compute_objectives",
    "EvalContext",
    "make_context",
    "hub_tables",
    "evaluate_mask",
    "loads_from_mask",
    "plan_from_mask",
]


def _one_row(ctx: EvalContext, design: NetworkDesign, plan: RoutePlan
             ) -> tuple[np.ndarray, list[str], np.ndarray]:
    """The objective row, time-cap findings and hub loads of one plan.

    The (design, plan) is priced as a one-row batch on ``ctx``.  A pair
    whose chosen route breaks its time cap prices at inf in all three
    objectives and gets a finding naming the pair and its cap.  The design
    must name nodes and the plan hold one bit per pair.
    """
    a = np.array([design.assignment], dtype=np.intp)
    mask = np.zeros((1,) + ctx.offdiag.shape, dtype=bool)
    mask[:, ctx.offdiag] = plan.hub
    tables = hub_tables(ctx, a)
    chosen = np.where(mask[..., None], tables, ctx.direct)[0]
    late = np.isinf(chosen).all(axis=-1) & ctx.offdiag
    cap = ctx.inst.max_transfer_time
    breaks = [f"pair ({i}, {j}) route time exceeds cap {cap[i, j]}" for i, j in np.argwhere(late)]
    return evaluate_mask(ctx, tables, a, mask)[0], breaks, loads_from_mask(ctx, a[0], mask[0])


def _check(ctx: EvalContext, design: NetworkDesign, plan: RoutePlan
           ) -> tuple[list[str], Optional[np.ndarray]]:
    """:func:`check` on a context the caller already holds."""
    inst = ctx.inst
    n = inst.n
    out = design_violations(inst, design)
    if not out and len(plan.hub) != n * (n - 1):
        out = [f"plan has {len(plan.hub)} pair bits, instance has {n * (n - 1)} pairs"]
    if out:
        return out, None
    z, out, loads = _one_row(ctx, design, plan)
    if not out:
        out = [f"hub {k} throughput {loads[k]} exceeds capacity {inst.capacity[k]}"
               for k in design.hubs if loads[k] > inst.capacity[k] + FEAS_TOL]
    return out, z


def check(inst: ProblemInstance, design: NetworkDesign, plan: RoutePlan,
          alpha_prime: float) -> tuple[list[str], Optional[np.ndarray]]:
    """Constraint findings and objective row of one stored (design, plan).

    The findings list the assignment findings alone, as an illegal
    assignment implies no routes, then time caps, then capacity, which is
    checked only once every route fits its cap.  The row is None where
    the design or plan shape is illegal; otherwise it comes from the one
    pricing that the findings are read from.
    """
    return _check(make_context(inst, alpha_prime), design, plan)


def compute_objectives(inst: ProblemInstance, design: NetworkDesign, plan: RoutePlan,
                       alpha_prime: float) -> tuple[float, float, float]:
    """Objective triple without the assignment or capacity checks (sweeps use this).

    Raises:
        ValueError: naming the first pair whose route breaks its time
            cap, as such a route has no finite price.
    """
    z, breaks, _ = _one_row(make_context(inst, alpha_prime), design, plan)
    if breaks:
        raise ValueError(f"plan has no finite price: {breaks[0]}")
    return tuple(z.tolist())


def _evaluate(ctx: EvalContext, design: NetworkDesign, plan: RoutePlan) -> ObjectiveVector:
    """:func:`evaluate` on a context the caller already holds."""
    violations, z = _check(ctx, design, plan)
    if violations:
        raise ValueError("infeasible solution:\n" + "\n".join(violations))
    return ObjectiveVector(*z)


def evaluate(inst: ProblemInstance, design: NetworkDesign, plan: RoutePlan,
             alpha_prime: float) -> ObjectiveVector:
    """Objectives of a feasible (design, plan); raises on any finding of :func:`check`."""
    return _evaluate(make_context(inst, alpha_prime), design, plan)


# --- array path -----------------------------------------------------------
#
# A plan is one boolean per ordered pair: False = direct, True = the hub
# route implied by the endpoint assignments (``RoutePlan.hub``).  Everything
# below works on that mask as an array.


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
    """Pricing arrays at one rate; every pricing path starts here, so an
    instance that ``validate_instance`` rejects is refused with a
    ValueError naming every finding."""
    problems = validate_instance(inst)
    if problems:
        raise ValueError("invalid instance: " + "; ".join(problems))
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


def plan_from_mask(mask: np.ndarray) -> RoutePlan:
    """The plan of an (n, n) hub-route mask; its diagonal is ignored."""
    mask = np.asarray(mask, dtype=bool)
    return RoutePlan(hub=tuple(mask[~np.eye(len(mask), dtype=bool)].tolist()))
