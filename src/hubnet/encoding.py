"""Random-key genome shared by all population solvers.

Layout for an n-node instance, every gene in [0, 1):

    [0]                 hub-count gene: opens 1 + floor(g * p) hubs
    [1 : 1+n]           hub-choice keys: the h largest open (ties: lower node)
    [1+n : 1+2n]        assignment keys: pick a feasible hub by distance rank
    [1+2n : 1+2n+n*n]   route keys row-major: >= 0.5 prefers the hub route

The population solvers decode a whole population at once with
:func:`_decode_arrays`, compute every row's hub loads in one batched
:func:`~hubnet.evaluation.loads_from_mask` call, and fix capacity genome
by genome with :func:`_repair_mask`, which returns a row that fits at
once; both work on the array form of :mod:`hubnet.evaluation`
(assignment vector, hub-route mask), and the solvers keep that form, the
repaired mask in place of the decoded one, until a row reaches a front.
The assignment alone fixes the open hubs: exactly the nodes assigned to
themselves.
Decoding never consumes randomness, so evaluation order cannot change
results.  A genome with a non-finite gene (an overflowing swarm or whale
move), an uncoverable spoke or an untimeable pair fails to decode.
Repair takes the most overloaded hub (lowest index on ties) and sends
its heaviest hub-routed pair that may fly direct (lowest flat pair index
on ties) direct, until every hub fits or no pair can move.
Since flips only remove candidates, repair sorts the movable pairs once
by (-demand, flat index) instead of rescanning the n x n grid after
every flip.  Each open hub ("slot") keeps the list of its entries in
that order and an integer cursor to its first live one, which only moves
forward.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .evaluation import EvalContext, hub_tables
from .model import FEAS_TOL

__all__ = ["genome_length"]


def genome_length(n: int) -> int:
    return 1 + 2 * n + n * n


def _decode_arrays(ctx: EvalContext, X: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Population (N, L) -> (assignment, mask, tables, bad), a row per genome.

    Hubs serve themselves and spokes never do, so a row's open hubs are
    where ``assignment == arange(n)``.  ``bad`` flags the genomes that fail
    to decode; their other rows are meaningless.
    """
    inst = ctx.inst
    n = inst.n
    N = len(X)
    finite = np.isfinite(X).all(axis=1)
    if not finite.all():
        # a NaN key would index out of range; such rows decode as zeros, then fail
        X = np.where(finite[:, None], X, 0.0)
    h = np.minimum(1 + (X[:, 0] * inst.p).astype(np.intp), inst.p)
    # the h largest hub keys open, lower node first on ties
    ranked = np.argsort(-X[:, 1:1 + n], axis=1, kind="stable")
    place = np.empty_like(ranked)
    place[np.arange(N)[:, None], ranked] = np.arange(n)
    is_hub = place < h[:, None]

    feasible = is_hub[:, None, :] & inst.coverage()
    counts = feasible.sum(axis=2)
    bad = (counts == 0).any(axis=1) | ~finite
    # the key picks a feasible hub by distance rank, lower hub on ties; the
    # sixth power keeps most draws on the nearest hub while every coverable
    # assignment stays reachable
    order = np.argsort(np.where(feasible, inst.distance, np.inf), axis=2, kind="stable")
    keys = X[:, 1 + n:1 + 2 * n]
    rank = np.minimum((keys ** 6 * counts).astype(np.intp), counts - 1)
    assignment = np.take_along_axis(order, rank[..., None], axis=2)[..., 0]
    assignment = np.where(is_hub, np.arange(n), assignment)   # hubs serve themselves

    tables = hub_tables(ctx, assignment)
    route_keys = X[:, 1 + 2 * n:].reshape(N, n, n)
    fh = np.isfinite(tables[..., 0])
    fd = np.isfinite(ctx.direct[..., 0])
    bad |= (ctx.offdiag & ~fh & ~fd).any(axis=(1, 2))
    prefer_hub = route_keys >= 0.5
    mask = np.where(prefer_hub, fh, fh & ~fd)
    mask &= ctx.offdiag
    return assignment, mask, tables, bad


def _repair_mask(ctx: EvalContext, assignment: np.ndarray, mask: np.ndarray,
                 loads: np.ndarray) -> Optional[np.ndarray]:
    """Flip hub-routed pairs to direct until every hub load fits, or None.

    ``loads`` is :func:`~hubnet.evaluation.loads_from_mask` of the plan;
    neither it nor ``mask`` is modified.
    """
    mask = mask.copy()
    if (loads - ctx.inst.capacity).max() <= FEAS_TOL:
        return mask
    n = ctx.inst.n
    # a non-hub carries no load and capacities are non-negative, so only an
    # open hub can be the most overloaded node; loads, capacities and their
    # excess are kept per open hub ("slot"), in ascending hub order.  The
    # open hubs are the self-assigned nodes.
    hubs = np.flatnonzero(assignment == np.arange(n))
    slot_of = np.empty(n, dtype=np.intp)
    slot_of[hubs] = np.arange(len(hubs))
    slot = slot_of[assignment]
    loads = loads[hubs].tolist()
    cap = ctx.inst.capacity[hubs].tolist()
    excess = [load - c for load, c in zip(loads, cap)]
    # flips only clear mask bits, so the movable pairs only shrink: sorted
    # once by (-q, flat index), a hub's first live entry is its heaviest
    # movable pair, lowest flat index on ties
    flat = np.flatnonzero(mask & np.isfinite(ctx.direct[..., 0]))
    flat = flat[np.argsort(-ctx.q.ravel()[flat], kind="stable")]
    src, dst = slot[flat // n], slot[flat % n]
    pairs = list(zip(flat.tolist(), ctx.q.ravel()[flat].tolist(), src.tolist(), dst.tolist()))
    live = [True] * len(pairs)
    # per slot: the indices into ``pairs`` that touch it (built when the
    # slot first tops the excesses) and a cursor to its first live entry;
    # entries before the cursor are dead, since flips only clear bits
    queues: list = [None] * len(hubs)
    cursors = [0] * len(hubs)
    cells = mask.reshape(-1)               # a view: clearing a cell clears the mask
    while True:
        top = max(excess)
        if top <= FEAS_TOL:
            return mask
        worst = excess.index(top)          # lowest hub index on ties
        queue = queues[worst]
        if queue is None:
            queue = queues[worst] = np.flatnonzero((src == worst) | (dst == worst)).tolist()
        c, end = cursors[worst], len(queue)
        while c < end and not live[queue[c]]:
            c += 1
        if c == end:
            return None
        k = queue[c]
        cursors[worst] = c + 1
        live[k] = False
        cell, q, hi, hj = pairs[k]
        cells[cell] = False
        # excess is taken afresh from the load: ``excess -= q`` would round
        # differently and could move a tie
        loads[hi] -= q
        excess[hi] = loads[hi] - cap[hi]
        if hj != hi:
            loads[hj] -= q
            excess[hj] = loads[hj] - cap[hj]
