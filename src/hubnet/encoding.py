"""Random-key genome shared by all population solvers.

Layout for an n-node instance, every gene in [0, 1):

    [0]                 hub-count gene: opens 1 + floor(g * p) hubs
    [1 : 1+n]           hub-choice keys: the h largest open (ties: lower node)
    [1+n : 1+2n]        assignment keys: pick a feasible hub by distance rank
    [1+2n : 1+2n+n*n]   route keys row-major: >= 0.5 prefers the hub route

The population solvers decode a genome with :func:`_decode_arrays` and
then fix capacity with :func:`_repair_mask`; both work on the array form
of :mod:`hubnet.evaluation` (assignment vector, hub-route mask).
Decoding never consumes randomness, so evaluation order cannot change
results.  A genome with an uncoverable spoke or an untimeable pair fails
to decode.  Repair takes the most overloaded hub (lowest index on ties)
and sends its heaviest hub-routed pair that may fly direct (lowest flat
pair index on ties) direct, until every hub fits or no pair can move.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .evaluation import DesignTables, EvalContext, hub_tables, loads_from_mask
from .model import FEAS_TOL

__all__ = ["genome_length"]


def genome_length(n: int) -> int:
    return 1 + 2 * n + n * n


def _decode_arrays(ctx: EvalContext, vec: np.ndarray
                   ) -> Optional[tuple[np.ndarray, np.ndarray, np.ndarray, DesignTables]]:
    """Vector -> (assignment, hubs, route mask, tables), or None if undecodable."""
    inst = ctx.inst
    n = inst.n
    h = 1 + int(vec[0] * inst.p)
    if h > inst.p:
        h = inst.p
    hub_keys = vec[1:1 + n]
    ranked = np.lexsort((np.arange(n), -hub_keys))
    hubs = np.sort(ranked[:h])

    dist = inst.distance[:, hubs]
    feasible = dist <= inst.omega + FEAS_TOL
    if not feasible.any(axis=1).all():
        return None
    # the key picks a feasible hub by distance rank; the sixth power keeps
    # most draws on the nearest hub while every coverable assignment stays
    # reachable
    order = np.argsort(np.where(feasible, dist, np.inf), axis=1, kind="stable")
    counts = feasible.sum(axis=1)
    keys = vec[1 + n:1 + 2 * n]
    rank = np.minimum((keys ** 6 * counts).astype(np.intp), counts - 1)
    assignment = hubs[order[np.arange(n), rank]]
    assignment[hubs] = hubs   # hubs serve themselves regardless of keys

    tables = hub_tables(ctx, assignment)
    route_keys = vec[1 + 2 * n:].reshape(n, n)
    fh = tables.hub_feasible
    fd = ctx.direct_feasible
    if np.any(ctx.offdiag & ~fh & ~fd):
        return None
    prefer_hub = route_keys >= 0.5
    mask = np.where(prefer_hub, fh, fh & ~fd)
    mask &= ctx.offdiag
    return assignment, hubs, mask, tables


def _repair_mask(ctx: EvalContext, tables: DesignTables,
                 mask: np.ndarray) -> Optional[np.ndarray]:
    """Flip hub-routed pairs to direct until every hub load fits, or None."""
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
