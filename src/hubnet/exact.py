"""Exact solver: configuration enumeration and the epsilon-constraint front.

The main objective is cost; emissions and time-window penalty are turned
into inclusive upper bounds over a grid derived from the individual optima
of the three objectives.  Per grid cell the solver takes the minimum over
every configuration (hub set + assignment) of an exact routing
branch-and-bound; configurations are visited in order of a cost bound
conditioned on the cell's budgets, built only for those the scan reaches,
so most are pruned without search.  The scan prices each chunk's repairs
for all its configs at once, and also makes the search's root budget
checks for the chunk, so a config that the search would reject at its
root gets no search data and no search.  A solve whose bound is the stock
one (the payoff rows and the unconstrained cost row) needs no pricing: it
walks the stable sort of that bound as it stands.

Every cell's scan starts at the head of the cost order, so the cells of
one front reach many of the same configs and search some of the same.
Each front builds its own index, and the index carries the front's memo
(``_FrontMemo``); both die when the front returns.  The first scan to
reach a config builds its repair tables and prices them at every
emission and penalty value of the grid at once; the memo keeps only
those prices, and a later cell reads its own.  A searched config's
search data (``_PairData``) is built once and kept in the memo; the
search's budget and shed tables, O(P^2) per config, are still built per
search and dropped after it.

The index prices every pair's hub route over every hub pair a design can
use once, into one route table (``_ExactIndex.routes``).  A config's three
stock lower bounds sum, over the n x n pair grid in row-major order, each
pair's floor ``min(hub route, direct)`` (0 on the diagonal), taken from a
floor table built from the route table with one flat index per chunk of
configs (``_route_at``); the option tables of ``_options`` read hub routes
through the same index.  Each config's sum runs over its own contiguous
n x n block, so its bound has the same bits whichever chunk prices it.
Config ids turn into assignments through per-hub-set place-value and
choice tables (``_decode``), one gather for any ids across hub sets,
shared by the build and the option tables.

Determinism: ties between equal-objective routings break on the route
encoding (direct=0, hub route=1, canonical pair order).  Configurations
are visited once, in ascending (bound, canonical config id) order, and
the scan stops at the first bound at or above the incumbent's value, so
a configuration whose bound equals it is never searched.  The winner is
the least full key (objectives, then encoding) among the configurations
searched; on a full tie the first in visiting order is kept.

A cost search bounds each node by the suffix's cheapest options plus the
largest of three fractional repair prices: one per budget, and one per hub
that the cheapest options overload, shedding the excess by sending the
cheapest share of its demand direct (the continuous relaxation of the
single-assignment capacity rows; Contreras, Diaz & Fernandez 2009,
"Lagrangean relaxation for the capacitated hub location problem with
single assignment", OR Spectrum 31).  Each price is a valid lower bound,
so a stronger one prunes only subtrees that cannot hold the least key:
it cuts nodes, never moves a winner.

The routing search runs on Python floats copied out of each config's
arrays with ``.tolist()``.  They add, subtract and compare with the same
IEEE-754 double bits as ``np.float64`` scalars, so every bound, prune and
key is what a search over numpy scalars would give, at a fraction of the
cost per access.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Iterator, Optional, Sequence

import numpy as np

from .evaluation import (
    EvalContext,
    _evaluate,
    _hub_route,
    make_context,
)
from .fronts import ParetoFront
from .model import (
    FEAS_TOL,
    EvaluatedSolution,
    NetworkDesign,
    ProblemInstance,
    RoutePlan,
    round6,
)

__all__ = [
    "DEFAULT_BUDGET",
    "EnumerationBudgetError",
    "EpsilonGrid",
    "configuration_count",
    "epsilon_constraint_front",
]

# The index costs _INDEX_BYTES per configuration, a (3, total) float64
# bound array plus the int64 cost sort order, so this budget admits an
# index of about 3.2 GB; the conditioned cost bounds are priced in chunks
# along the scan and add no per-configuration memory.  A front holds the
# index with its memo (2 (G2 + G3) repair prices per config its scans
# reach and the O(P) search data of each config it searches) and one
# search's budget and shed tables at a time, built for that search and
# dropped after it.
DEFAULT_BUDGET = 10 ** 8
_INDEX_BYTES = 32

# Objectives are rounded to 1e-6; a bound within half that of an incumbent
# could still tie after rounding, so pruning leaves this much slack.
_ROUND_SLACK = 6e-7

# Hub loads summed in different orders differ by a few ulps; the capacity
# term lets a hub's limit exceed its capacity by this share of its scale.
_LOAD_DRIFT = 1e-12


class EnumerationBudgetError(RuntimeError):
    """Configuration space too large to enumerate exactly."""

    def __init__(self, count: int, budget: int):
        self.count = count
        self.budget = budget
        super().__init__(
            f"configuration count {count} exceeds enumeration budget {budget} "
            f"(an index of {_byte_size(count * _INDEX_BYTES)} at {_INDEX_BYTES} B per "
            "configuration); use a metaheuristic solver for this size"
        )

    def __reduce__(self):
        # two required init args: stock exception pickling rebuilds from the
        # formatted message alone and breaks process pools mid-transfer
        return (EnumerationBudgetError, (self.count, self.budget))


def _byte_size(nbytes: int) -> str:
    """``nbytes`` to three significant digits, in B up to PB."""
    for step, unit in enumerate(("B", "kB", "MB", "GB", "TB")):
        if nbytes < 999.5 * 1000 ** step:
            return f"{nbytes / 1000 ** step:.3g} {unit}"
    # a Decimal quotient: a count past the float range still formats
    return f"{Decimal(nbytes) / 10 ** 15:.3g} PB"


def configuration_count(n: int, p: int) -> int:
    """Upper bound sum_h C(n,h) * h^(n-h) on enumerable configurations."""
    return sum(math.comb(n, h) * h ** (n - h) for h in range(1, p + 1))


@dataclass(frozen=True)
class EpsilonGrid:
    """Bound grid over the secondary objectives (emissions, time penalty).

    ``segments`` splits of a range [lo, hi] yield the bound values
    ``lo + t*(hi-lo)/segments`` for t=1..segments: the upper edges of the
    segments.  A 1x1 grid therefore has exactly one, loosest cell whose
    optimum is the unconstrained minimum-cost solution.
    """

    segments_z2: int = 6
    segments_z3: int = 6

    def __post_init__(self) -> None:
        if self.segments_z2 < 1 or self.segments_z3 < 1:
            raise ValueError("grid segment counts must be >= 1")

    @staticmethod
    def bound_values(lo: float, hi: float, segments: int) -> list[float]:
        vals = [float(np.round(lo + t * (hi - lo) / segments, 6)) for t in range(1, segments + 1)]
        return sorted(set(vals))

    def cells(self, range_z2: tuple[float, float], range_z3: tuple[float, float]) -> list[tuple[float, float]]:
        v2 = self.bound_values(range_z2[0], range_z2[1], self.segments_z2)
        v3 = self.bound_values(range_z3[0], range_z3[1], self.segments_z3)
        return [(e2, e3) for e2 in v2 for e3 in v3]


# --- hub sets, route tables and the configuration index -------------------


def _route_at(n: int, stride: int, i, j, a_i, a_j):
    """Flat index into an (n, n, K) route table of pair (i, j)'s route from
    hub ``a_i`` to hub ``a_j``; the arguments broadcast.

    The hub pair (k, l) has code ``k * stride + l``: ``stride`` is n, and
    K = n^2, where a design may open two hubs; with at most one hub open
    k equals l, so ``stride`` is 0 and K = n.  The budget bounds n where
    p > 1 (24 n^4 bytes is 0.5 MB at n = 12) but not where p = 1, whose
    table so grows as n^3.
    """
    return (i * n + j) * (n * (stride or 1)) + (a_i * stride + a_j)


def _decode(offsets: np.ndarray, place: np.ndarray, radix: np.ndarray, choice: np.ndarray,
            g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block ids (m,) and (m, n) assignments (hub ids) of the config ids ``g``.

    A config's local id in its block is a mixed-radix number with one
    digit per node: node k's digit ``local // place[b, k] % radix[b, k]``
    picks its hub ``choice[b, k, digit]``.  A hub has radix 1 and itself
    as its one choice, so every node decodes in the same gather.
    """
    b = np.searchsorted(offsets, g, side="right") - 1
    digit = (g - offsets[b])[:, None] // place[b] % radix[b]
    return b, choice[b[:, None], np.arange(choice.shape[1]), digit]


@dataclass(frozen=True)
class _ExactIndex:
    """Enumerated configuration space with per-config objective lower bounds.

    One block per legal hub set holds the configs that open it, ids
    ``offsets[b]`` to ``offsets[b + 1]``; ``place``, ``radix`` and
    ``choice`` decode them (``_decode``).  ``routes[i, j, c]`` holds the
    (z1, z2, z3) of pair (i, j)'s hub route over the hub pair with code c
    (see ``_route_at``), inf over the pair's time cap, and ``direct[t]``
    canonical pair t's direct route, as in the option tables of
    ``_options``.  ``memo`` holds what the solves on the index share.
    """

    ctx: EvalContext
    offsets: np.ndarray           # (blocks + 1,) block start ids
    fixed: np.ndarray             # (blocks,) fixed cost of each block's hubs
    place: np.ndarray             # (blocks, n) place value of each node's digit
    radix: np.ndarray             # (blocks, n) hub choices of each node, 1 at a hub
    choice: np.ndarray            # (blocks, n, p) each node's hubs within omega, ascending
    lb: np.ndarray                # (3, total) objective lower bounds
    order: np.ndarray             # stable argsort of lb[0]
    i_arr: np.ndarray             # canonical off-diagonal pair rows
    j_arr: np.ndarray
    direct: np.ndarray            # (P, 3) direct routes in canonical pair order
    routes: np.ndarray            # (n, n, K, 3)
    stride: int                   # hub-pair code stride, see _route_at
    memo: _FrontMemo = field(repr=False, compare=False)

    @property
    def total(self) -> int:
        return int(self.offsets[-1])

    def pair_data(self, g: int) -> _PairData:
        """Config id -> its design and routing search data, built once
        (``_pair_data``) and kept in the memo for every later search.
        ``bench/tracer.py`` binds this method as the span
        ``exact.pair_data`` and ``_pair_data`` as its builds.
        """
        pd = self.memo.searched.get(g)
        if pd is None:
            pd = self.memo.searched[g] = _pair_data(self, g)
        return pd


def _options(index: _ExactIndex, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical (m, P, 2, 3) option tables of the configs ``g``, and their
    (m, n) assignments.

    Row t of a table holds canonical pair t's direct route (option 0) and
    hub route (option 1) as objective triples, inf where the option breaks
    the pair's time cap; a config with a pair whose both options are inf
    cannot be routed.
    """
    i_arr, j_arr = index.i_arr, index.j_arr
    _, A = _decode(index.offsets, index.place, index.radix, index.choice, g)
    opts = np.empty((len(g), len(i_arr), 2, 3))
    opts[:, :, 0] = index.direct
    at = _route_at(index.ctx.inst.n, index.stride, i_arr, j_arr, A[:, i_arr], A[:, j_arr])
    opts[:, :, 1] = index.routes.reshape(-1, 3)[at]
    return opts, A


_LB_CHUNK = 4096
# the index build's chunk: its (m, n, n) gathers of 8 m n^2 bytes each stay
# in cache, where at 4,096 configs of 10 nodes (3.3 MB) they do not
_INDEX_CHUNK = 1024


def _build_index(inst: ProblemInstance, alpha_prime: float, budget: int) -> _ExactIndex:
    """Every legal design with its objective lower bounds.

    Designs open 1..p hubs and link every spoke to a hub within omega.
    Config ids follow the canonical order: hub subsets by size, then in
    dictionary order; assignments in product order over the spokes (node
    order, candidate hubs ascending).

    Raises:
        ValueError: for an instance that ``make_context`` refuses.
        EnumerationBudgetError: when ``configuration_count`` exceeds ``budget``.
    """
    ctx = make_context(inst, alpha_prime)
    count = configuration_count(inst.n, inst.p)
    if count > budget:
        raise EnumerationBudgetError(count, budget)
    n = inst.n
    cover = inst.coverage()
    fixed, radix, choice = [], [], []
    for h in range(1, inst.p + 1):
        # every hub set of size h at once, one row per set
        H = np.array(list(itertools.combinations(range(n), h)), dtype=np.intp).reshape(-1, h)
        spoke = np.ones((len(H), n), dtype=bool)
        spoke[np.arange(len(H))[:, None], H] = False
        # reach[s, k, c]: node k is a spoke of set s within omega of its c-th hub
        reach = cover[:, H].transpose(1, 0, 2) & spoke[:, :, None]
        counts = np.where(spoke, reach.sum(axis=2), 1)
        legal = counts.all(axis=1)      # every spoke has a hub within omega
        H, spoke, reach = H[legal], spoke[legal], reach[legal]
        # a spoke's hubs within omega first, ascending; a hub chooses itself
        hubs = np.take_along_axis(np.broadcast_to(H[:, None, :], reach.shape),
                                  np.argsort(~reach, axis=2, kind="stable"), axis=2)
        hubs = np.where(spoke[:, :, None], hubs, np.arange(n)[:, None])
        fixed.append(inst.fixed_cost[H].sum(axis=1))
        radix.append(counts[legal])
        choice.append(np.pad(hubs, ((0, 0), (0, 0), (0, inst.p - h))))
    radix = np.concatenate(radix).astype(np.int64)
    choice = np.concatenate(choice)
    # the last node is the least significant digit
    place = np.ones_like(radix)
    place[:, :-1] = np.cumprod(radix[:, :0:-1], axis=1)[:, ::-1]
    offsets = np.zeros(len(radix) + 1, dtype=np.int64)
    np.cumsum(radix.prod(axis=1), out=offsets[1:])
    fixed = np.concatenate(fixed)

    i_arr, j_arr = np.where(ctx.offdiag)
    # every pair's route over every hub pair a design can use, in one table
    idx = np.arange(n)
    stride = n if inst.p > 1 else 0
    k, l = np.divmod(np.arange(n * n), n) if stride else (idx, idx)
    routes = _hub_route(ctx, idx[:, None, None], idx[None, :, None], k, l, np.s_[:, :, None])
    # each route's floor, min(hub route, direct), 0 on the diagonal: one
    # contiguous row per objective, read with one flat take per chunk
    floors = np.minimum(routes, ctx.direct[:, :, None])
    floors[idx, idx] = 0.0
    floors = np.ascontiguousarray(np.moveaxis(floors, -1, 0)).reshape(3, -1)

    # summed per config over a contiguous n x n grid of floors in pair order:
    # the bounds' bits depend on that order, not on the chunk.  A pair with
    # no option within its time cap makes the sum inf.
    total = int(offsets[-1])
    lb = np.empty((3, total))
    ii, jj = np.indices((n, n))
    for start in range(0, total, _INDEX_CHUNK):
        stop = min(start + _INDEX_CHUNK, total)
        b, A = _decode(offsets, place, radix, choice, np.arange(start, stop))
        flat = _route_at(n, stride, ii, jj, A[:, :, None], A[:, None, :])
        for row in range(3):
            lb[row, start:stop] = floors[row].take(flat).sum(axis=(1, 2))
        lb[0, start:stop] += fixed[b]
    return _ExactIndex(ctx=ctx, offsets=offsets, fixed=fixed, place=place, radix=radix,
                       choice=choice, lb=lb, order=np.argsort(lb[0], kind="stable"),
                       i_arr=i_arr, j_arr=j_arr, direct=ctx.direct[i_arr, j_arr],
                       routes=routes, stride=stride, memo=_FrontMemo())


def _repair_terms(opts: np.ndarray, v: int, b: int) -> tuple[np.ndarray, ...]:
    """Continuous-knapsack terms bounding objective ``v`` under a budget on ``b``.

    ``opts`` holds option tables (..., P, 2, 3) over any leading axes.
    Taking every pair's option that is cheapest in ``v`` gives v's floor
    but uses some amount of ``b``; honoring a budget on ``b`` means
    switching pairs to their other option, paying the pair's delta ``dv``
    in v for its saving ``db`` in b.  The cheapest total repair covering a
    given overuse is the continuous knapsack over the switches, greedy by
    cost/saving ratio (Dantzig 1957), a valid lower bound on any integral
    routing.  Returns, per pair, the floor option's use of b, ``dv``,
    ``db``, the ratio (inf where invalid) and the validity mask (both
    deltas finite and a positive saving); the greedy takes the switches
    in the stable order of the ratios along the pair axis.
    """
    hub = opts[..., 1, v] < opts[..., 0, v]

    def floor_and_other(c: int) -> tuple[np.ndarray, np.ndarray]:
        # one objective at a time: a where over whole (..., 3) triples,
        # through strided views, costs several times more
        return (np.where(hub, opts[..., 1, c], opts[..., 0, c]),
                np.where(hub, opts[..., 0, c], opts[..., 1, c]))

    base_v, alt_v = floor_and_other(v)
    base_b, alt_b = floor_and_other(b)
    with np.errstate(invalid="ignore"):
        dv = alt_v - base_v
        db = base_b - alt_b
    valid = np.isfinite(dv) & np.isfinite(db) & (db > 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(valid, dv / db, np.inf)
    return base_b, dv, db, ratio, valid


# (bounded objective, budget objective) of each fractional-repair table:
# cost under either budget, then the cross pair, emissions under the
# penalty budget and penalty under the emissions budget
_REPAIR_PAIRS = ((0, 1), (0, 2), (1, 2), (2, 1))


def _build_repair(index: _ExactIndex, g: np.ndarray,
                  low: tuple[float, float]) -> list[tuple[np.ndarray, ...]]:
    """Fractional-repair tables of the configs ``g``, one per (bounded,
    budget) pair of ``_REPAIR_PAIRS``.

    Read from the configs' option tables (``_options``) through
    ``_repair_terms``.  A table is ``(used, rows, cum_save, cum_cost,
    ratio)``: how much of the budget objective the bounded objective's
    floor uses, (m,), and the configs' rows that have a table, with, in
    ratio order, the cumulative savings and costs of their switches and
    the switches' ratios, (len(rows), P) each, invalid switches adding
    zero.  ``low`` holds the least emission and penalty budgets that the
    tables will be priced at (``_price_grid``): a row gets a table only
    where that budget prices its need (``_need``, ``_priced``), since no
    higher budget prices a need that the least one does not.
    """
    opts, _ = _options(index, g)
    tables = []
    for v, b in _REPAIR_PAIRS:
        base_b, dv, db, ratio, valid = _repair_terms(opts, v, b)
        # summed in pair order: .sum() adds a lone config's row pairwise but
        # a chunk's rows in pair order, which would tie a bound to its chunk
        used = np.cumsum(base_b, axis=1)[:, -1]
        rows = np.flatnonzero(_priced(_need(used, low[b - 1], v), v))
        dv, db, ratio, valid = dv[rows], db[rows], ratio[rows], valid[rows]
        order = np.argsort(ratio, axis=1, kind="stable")

        def ordered(x: np.ndarray) -> np.ndarray:
            return np.take_along_axis(np.where(valid, x, 0.0), order, axis=1)

        tables.append((used, rows, np.cumsum(ordered(db), axis=1),
                       np.cumsum(ordered(dv), axis=1), ordered(ratio)))
    return tables


def _need(used: np.ndarray, eps, v: int) -> np.ndarray:
    """Overuse of a budget ``eps`` by a table's ``used``, in the operand
    order of its check: the cost tables' (v = 0) bound check, the cross
    tables' root check of the routing search.  ``eps`` may be an array of
    budgets against a column of ``used``."""
    return used - (eps + _ROUND_SLACK) if v == 0 else used - eps - _ROUND_SLACK


def _priced(need: np.ndarray, v: int) -> np.ndarray:
    """Where a table prices a repair: a positive need, and for the cost
    tables a finite one.  An inf need comes from a pair with no option
    within its time cap, whose config has an inf stock bound."""
    return (need > 0) & np.isfinite(need) if v == 0 else need > 0


def _price_grid(index: _ExactIndex, g: np.ndarray, values2: Sequence[float],
                values3: Sequence[float]) -> np.ndarray:
    """Repair prices of the configs ``g`` at every emission budget of
    ``values2`` and penalty budget of ``values3`` (each ascending).

    One column per (table, budget), the tables in ``_REPAIR_PAIRS`` order,
    each against its own budget objective's values: cost under emissions,
    cost under penalty, emissions under penalty (cross-23) and penalty
    under emissions (cross-32).  A price is 0 where the need is not priced
    (``_priced``).  Each table is built only for the rows that the least
    budget prices, which covers every higher one.
    """
    values = (np.asarray(values2, dtype=float), np.asarray(values3, dtype=float))
    out = np.zeros((len(g), sum(len(values[b - 1]) for _, b in _REPAIR_PAIRS)))
    tables = _build_repair(index, g, (float(values[0][0]), float(values[1][0])))
    col = 0
    for (used, rows, cum_save, cum_cost, ratio), (v, b) in zip(tables, _REPAIR_PAIRS):
        vals = values[b - 1]
        need = _need(used[rows, None], vals, v)             # (rows, budgets)
        r, c = np.nonzero(_priced(need, v))
        out[rows[r], col + c] = _repair_prices(need[r, c], cum_save, cum_cost, ratio, r)
        col += len(vals)
    return out


def _conditional_lb(index: _ExactIndex, g: np.ndarray, eps2: float, eps3: float) -> np.ndarray:
    """Cost lower bounds of the configs ``g`` conditioned on the cell's budgets.

    The unconstrained bound plus the cheapest fractional repair (greedy
    over cost/saving ratios) that brings each budget objective's floor
    usage inside its bound.  The repairs for the two budgets are computed
    independently, so the max of the two penalties is still a valid joint
    bound.  Never below ``index.lb[0, g]``.

    inf marks configs that cannot fit the cell: those that no cost repair
    fits, and those that fail the routing search's root checks on the
    cross pair, where a budget objective's floor (``index.lb[v, g]``) plus
    the cheapest fractional repair that honors the other budget already
    exceeds its own bound.  ``_bb_routing`` returns None for such a config
    at its root, so it gets no search data.  The chunk adds in canonical
    pair order and the search in its own, so the two checks differ by a
    few ulps, and the chunk may reject a config whose root the search
    passes by an ulp.  That config still has no routing that fits: the
    check compares with the bound plus ``_ROUND_SLACK`` (6e-7), while a
    routing fits only within 5e-7 of the bound, since its rounded value
    must not exceed it.  A gap of 1e-7 is far beyond the drift of P
    summed floors (about P ulps: 1e-9 at values near 1e5).

    The repairs are priced per config and budget (``_price_grid``).  On
    the budgets of the front's grid, the prices come from the index's
    memo (``_FrontMemo.prices``), which prices each config once, the first
    time a cell's scan reaches it; on any other budgets the chunk is
    priced at these alone.  An empty chunk returns at once.
    """
    if not (len(g) and (math.isfinite(eps2) or math.isfinite(eps3))):
        return index.lb[0, g]
    if index.memo.on_grid(eps2, eps3):
        cost2, cost3, cross23, cross32 = index.memo.prices(index, g, eps2, eps3)
    else:
        cost2, cost3, cross23, cross32 = _price_grid(index, g, [eps2], [eps3]).T
    pen = np.maximum(cost2, cost3)
    # the search's root checks on the cross pair, with its operand order; a
    # config whose pen is already inf stays inf whatever its cross price
    pen[index.lb[1, g] + cross23 > eps2 + _ROUND_SLACK] = math.inf
    pen[index.lb[2, g] + cross32 > eps3 + _ROUND_SLACK] = math.inf
    return index.lb[0, g] + pen


class _FrontMemo:
    """What the solves on one index share, kept on the index (``memo``):
    each searched config's ``_PairData`` (``searched``, filled by
    ``_ExactIndex.pair_data``), and the repair prices of each config that
    a cell's scan has reached, at every budget of the front's grid.

    A config's prices are made the first time a cell's scan reaches it,
    for every emission and penalty value of the grid at once
    (``_price_grid``), and kept as one row of 2 (G2 + G3) floats; its
    repair tables are dropped.  The rows grow by doubling and are found by
    config id through the ascending ``ids`` (ending in a sentinel above
    every id) and their ``slots``.  Memory grows with the configs reached
    and searched, never with the index.  The memo holds no reference to
    its index, so the two die together, by refcount, when the front
    returns.
    """

    def __init__(self):
        self.searched: dict[int, _PairData] = {}
        self.values: tuple[list[float], list[float]] = ([], [])
        self.columns: tuple[dict[float, int], dict[float, int]] = ({}, {})
        self.starts: list[int] = []
        self.ids = np.array([np.iinfo(np.int64).max], dtype=np.int64)
        self.slots = np.array([-1], dtype=np.intp)
        self.rows = np.empty((0, 0))
        self.count = 0

    def set_grid(self, cells: Sequence[tuple[float, float]]) -> None:
        """The grid's emission and penalty values, from its cells; before
        this, no budget is on the grid."""
        self.values = tuple(sorted({cell[b] for cell in cells}) for b in (0, 1))
        self.columns = tuple({e: c for c, e in enumerate(vals)} for vals in self.values)
        # each table's first column, in the layout of _price_grid
        widths = [len(self.values[b - 1]) for _, b in _REPAIR_PAIRS]
        self.starts = [sum(widths[:t]) for t in range(len(widths))]
        self.rows = np.empty((16, sum(widths)))

    def on_grid(self, eps2: float, eps3: float) -> bool:
        return eps2 in self.columns[0] and eps3 in self.columns[1]

    def prices(self, index: _ExactIndex, g: np.ndarray, eps2: float, eps3: float) -> np.ndarray:
        """(4, m) prices of the configs ``g`` of ``index`` at the grid
        budgets ``eps2`` and ``eps3``, one row per table of
        ``_REPAIR_PAIRS``, pricing the configs not reached before."""
        at = np.searchsorted(self.ids, g)
        new = np.sort(g[self.ids[at] != g])
        if len(new):
            stop = self.count + len(new)
            if stop > len(self.rows):
                grown = np.empty((max(2 * len(self.rows), stop), self.rows.shape[1]))
                grown[:self.count] = self.rows[:self.count]
                self.rows = grown
            self.rows[self.count:stop] = _price_grid(index, new, *self.values)
            where = np.searchsorted(self.ids, new)
            self.ids = np.insert(self.ids, where, new)
            self.slots = np.insert(self.slots, where, np.arange(self.count, stop))
            self.count = stop
            at = np.searchsorted(self.ids, g)
        column = (self.columns[0][eps2], self.columns[1][eps3])
        cols = [start + column[b - 1] for start, (_, b) in zip(self.starts, _REPAIR_PAIRS)]
        return self.rows[self.slots[at][:, None], cols].T


def _repair_price(need: float, save: Sequence[float], cost: Sequence[float],
                  ratio: Sequence[float]) -> tuple[float, int]:
    """Price of the cheapest fractional repair covering an overuse ``need`` > 0,
    and its marginal switch k: the first k switches whole plus a share of
    switch k, along the cumulative ``save``/``cost`` of the switches in
    ratio order; (inf, k) when all of them together save too little.

    The rows may be numpy arrays or lists of Python floats: ``bisect_left``
    finds the index ``np.searchsorted`` would, and the price has the same
    double bits either way."""
    k = bisect.bisect_left(save, need)
    if k >= len(ratio):
        return math.inf, k
    p = cost[k - 1] + (need - save[k - 1]) * ratio[k] if k else need * ratio[k]
    # cumsum drift must never push the bound past the true cost
    return (p - 1e-9 if p > 1e-9 else 0.0), k


def _repair_prices(need: np.ndarray, save: np.ndarray, cost: np.ndarray, ratio: np.ndarray,
                   row: np.ndarray) -> np.ndarray:
    """``_repair_price`` of each overuse ``need`` (n,) > 0 against its row
    ``row`` (n,) of the (m, P) cumulative savings, costs and ratios of a
    repair table.

    The same double bits need by need.  ``save`` is nondecreasing along a
    row, so the count of its entries below a need is the index that
    ``bisect_left`` finds.  The arithmetic runs only on the needs that the
    scalar form prices, so a need that it leaves inf raises no warning.
    """
    k = (save[row] < need[:, None]).sum(axis=1)
    price = np.full(len(need), math.inf)
    fits = np.flatnonzero(k < save.shape[1])    # else all switches save too little
    r, k, need = row[fits], k[fits], need[fits]
    p = ratio[r, k]                 # the marginal switch's ratio
    first = k == 0
    p[first] *= need[first]
    rest = ~first
    r, k = r[rest], k[rest] - 1
    p[rest] = cost[r, k] + (need[rest] - save[r, k]) * p[rest]
    # cumsum drift must never push the bound past the true cost
    price[fits] = np.where(p > 1e-9, p - 1e-9, 0.0)
    return price


def _visiting_order(index: _ExactIndex, main: int, eps2: float,
                    eps3: float) -> Iterator[tuple[float, int]]:
    """Configs that fit the cell, as (bound, id) in ascending order, lazily.

    The bound on ``main`` is the budget-conditioned one (_conditional_lb)
    for a cost solve with a finite budget, and the stock ``index.lb[main]``
    otherwise.  Configs are read in growing chunks along the stable sort
    of ``index.lb[main]``.  Where the bound is the stock one, that sort
    already is the (bound, id) order, so each chunk is yielded as read.
    Otherwise the chunk is priced into a heap: no bound is below its
    stock bound, so the heap's top is final once it lies strictly below
    the next unread stock bound (on a tie, an unread config could still
    come first by id).  Configs over a budget on their stock bounds are
    dropped before pricing (a chunk that loses every config still makes
    its ``_conditional_lb`` call, which returns at once), and configs with
    an infinite bound are never yielded: for cost, those that no cost
    repair fits and those that fail the search's root checks on the cross
    pair (_conditional_lb).  None of them has a routing within the cell,
    so none gets search data.  A config's prices are made once, by the
    first cell whose scan reaches it, and later cells read them from the
    index's memo: the bounds, and so this order, keep the bits of pricing
    each chunk afresh.
    """
    floor = index.lb[main]
    order = index.order if main == 0 else np.argsort(floor, kind="stable")
    priced = main == 0 and (math.isfinite(eps2) or math.isfinite(eps3))
    heap: list[tuple[float, int]] = []
    start, size = 0, 16
    while True:
        nxt = floor[order[start]] if start < len(order) else math.inf
        while heap and heap[0][0] < nxt:
            yield heapq.heappop(heap)
        if not math.isfinite(nxt):
            return
        g = order[start:start + size]
        start, size = start + len(g), min(2 * size, _LB_CHUNK)
        g = g[(index.lb[1, g] <= eps2 + _ROUND_SLACK) & (index.lb[2, g] <= eps3 + _ROUND_SLACK)]
        if not priced:
            bound = floor[g]
            finite = np.isfinite(bound)     # a prefix: the chunk ascends
            yield from zip(bound[finite].tolist(), g[finite].tolist())
            continue
        for item in zip(_conditional_lb(index, g, eps2, eps3).tolist(), g.tolist()):
            heapq.heappush(heap, item)


# --- routing branch and bound ----------------------------------------------


@dataclass(frozen=True)
class _PairData:
    """One config's design and fixed cost, its per-pair route options in
    search order, and the bounding suffixes."""

    design: NetworkDesign
    fixed: float              # fixed cost of the open hubs
    contrib: np.ndarray       # (P, 2, 3) option contributions, inf = infeasible
    suffix_min: np.ndarray    # (P+1, 3) sum of per-pair best contributions below t
    load_nodes: np.ndarray    # (P, 2) nodes loaded by the hub option (-1 = none)
    load_q: np.ndarray        # (P,) demand added per loaded node
    canon_pos: np.ndarray     # (P,) canonical pair position of search position t


def _repair_tables(contrib: np.ndarray, v: int, b: int) -> tuple:
    """Fractional-repair table of ``_repair_terms`` per suffix of one config.

    ``used[t]`` is how much of ``b`` the suffix at t uses on v's floor;
    row t of the cumulative savings and costs runs over the valid switches
    in ratio order, those before t adding zero.  ``pos`` maps a pair to its
    place in that order (P when it has no valid switch).
    """
    P = len(contrib)
    base_b, dv, db, ratio, valid = _repair_terms(contrib, v, b)
    order = np.argsort(ratio, kind="stable")
    used = np.zeros(P + 1)
    used[:P] = base_b[::-1].cumsum()[::-1]
    ss = order[valid[order]]
    in_suffix = ss[None, :] >= np.arange(P + 1)[:, None]
    cum_save = np.cumsum(np.where(in_suffix, db[ss][None, :], 0.0), axis=1)
    cum_cost = np.cumsum(np.where(in_suffix, dv[ss][None, :], 0.0), axis=1)
    pos = np.full(P, P, dtype=np.intp)
    pos[ss] = np.arange(len(ss))
    return (used.tolist(), cum_save, cum_cost, ratio[ss], pos.tolist())


def _budget_tables(contrib: np.ndarray) -> list:
    """Repair tables used by the search, one per pair of ``_REPAIR_PAIRS``:
    cost under either budget, plus the cross pair (emissions under the
    penalty budget and vice versa), which prices out budget-infeasible
    subtrees before any incumbent exists."""
    return [_repair_tables(contrib, v, b) for v, b in _REPAIR_PAIRS]


def _capacity_tables(pd: _PairData, caps: list[float]) -> list[tuple]:
    """Shed tables of the hubs that the cost floor overloads at the root.

    With every pair on its cheapest option (a tie flies direct, as in
    ``suffix_min``), a hub may carry more than its capacity.  A routing
    must then shed the excess by sending some of those pairs direct, at
    (direct - hub) cost per unit of demand: a continuous knapsack, read
    from the ``_repair_tables`` of cost against the hub's load.  One
    ``(hub, limit, used, cum_save, cum_cost, ratio, pos)`` per overloaded
    hub, the rows as lists of Python floats for the search's per-node
    pricing.  ``limit`` is the load the hub may carry: its capacity plus
    ``FEAS_TOL``, as the search's load check allows, plus ``_LOAD_DRIFT``
    of its scale, so that a load summed in another order never makes a
    routing that lands on the limit look unfit.  Hubs that the floor fits
    get no table.
    """
    contrib = pd.contrib
    P = len(contrib)
    rows = np.arange(P)
    load = np.zeros((P, len(caps)))     # demand each pair's hub route puts on each node
    load[rows, pd.load_nodes[:, 0]] = pd.load_q
    second = pd.load_nodes[:, 1] >= 0
    load[rows[second], pd.load_nodes[second, 1]] = pd.load_q[second]
    floor_load = load[contrib[:, 1, 0] < contrib[:, 0, 0]].sum(axis=0)
    caps_arr = np.asarray(caps)
    limit = caps_arr + FEAS_TOL + _LOAD_DRIFT * (caps_arr + floor_load)
    opts = np.zeros((P, 2, 2))          # (cost, load on the hub) of each option
    opts[:, :, 0] = contrib[:, :, 0]
    tables = []
    for h in np.flatnonzero(floor_load > limit).tolist():
        opts[:, 1, 1] = load[:, h]
        used, cum_save, cum_cost, ratio, pos = _repair_tables(opts, 0, 1)
        tables.append((h, float(limit[h]), used, cum_save.tolist(), cum_cost.tolist(),
                       ratio.tolist(), pos))
    return tables


def _pair_order(contrib: np.ndarray) -> np.ndarray:
    """Search order over pairs: forced ones first, then descending spread.

    Pairs whose two options diverge the most (any objective, range
    normalized) decide the most, so branching on them near the root keeps
    the budget and bound pruning sharp; pairs with a single feasible
    option carry no branching at all and go first.
    """
    with np.errstate(invalid="ignore"):
        d = np.abs(contrib[:, 1, :] - contrib[:, 0, :])
    d = np.where(np.isfinite(d), d, 0.0)
    scale = d.max(axis=0)
    scale[scale == 0] = 1.0
    score = (d / scale).sum(axis=1)
    forced = ~np.isfinite(contrib[:, 0, 0]) | ~np.isfinite(contrib[:, 1, 0])
    score[forced] = np.inf
    return np.lexsort((np.arange(len(score)), -score))


def _pair_data(index: _ExactIndex, g: int) -> _PairData:
    """Config id -> its design, fixed cost and routing search data."""
    b = int(np.searchsorted(index.offsets, g, side="right")) - 1
    opts, assignments = _options(index, np.array([g]))
    order = _pair_order(opts[0])
    contrib = opts[0, order]
    assignment = assignments[0]
    first = assignment[index.i_arr[order]]
    second = assignment[index.j_arr[order]]
    best = np.minimum(contrib[:, 0, :], contrib[:, 1, :])
    suffix = np.zeros((len(contrib) + 1, 3))
    suffix[:-1] = best[::-1].cumsum(axis=0)[::-1]
    return _PairData(
        design=NetworkDesign(tuple(assignment.tolist())),
        fixed=float(index.fixed[b]), contrib=contrib, suffix_min=suffix,
        load_nodes=np.stack([first, np.where(first == second, -1, second)], axis=1),
        load_q=index.ctx.q[index.i_arr[order], index.j_arr[order]], canon_pos=order)


def _bb_routing(pd: _PairData, caps: Sequence[float], main: int,
                eps2: float, eps3: float,
                incumbent: tuple) -> Optional[tuple]:
    """Exact DFS over per-pair options minimising objective ``main``.

    The cost sum starts from the config's fixed cost ``pd.fixed``; ``caps``
    holds each node's hub capacity, as any sequence of floats.
    Emission/penalty bounds are inclusive on 1e-6-rounded values.  Returns
    the best key ``(z_main, z1, z2, z3, encoding)`` or None; ``key[4]`` is
    the route encoding, one 0/1 per pair in canonical order.
    ``incumbent`` primes the bound with a 4-component key prefix from a
    competitor found elsewhere (``(inf,) * 4`` for none); no key whose
    prefix exceeds it is returned.  A search on emissions or penalty
    returns only main values strictly below the prime's; a cost search
    prunes with ``>`` on the 4-tuple, so a routing whose prefix ties the
    prime can come back, and the caller settles that tie on the encoding.

    A cost search (``main == 0``) prunes by comparing the componentwise
    lower-bound tuple with the best key in tuple order: since every
    leaf key is >= that tuple in that order, a bound tuple already > the
    best key cannot contain an improvement.  A bound tuple equal to the
    best key's prefix can only win on the encoding, so once the search
    holds a leaf of its own it also prunes a node whose least encoding
    (the choices made so far, every undecided pair direct) is not below
    the best one.  Together these collapse tie plateaus (many routings
    sharing the same objectives, as with zero demand) that a plain value
    bound would fully enumerate.

    The cost bound is the suffix floor plus a penalty, the largest of
    the fractional repairs that the budgets need (``_budget_tables``) and
    of one shed per hub that the floor overloads (``_capacity_tables``):
    the load placed so far plus the suffix's floor load, less the hub's
    limit, priced as the cheapest fractional share of the suffix pairs
    whose floor loads the hub sent direct; a node whose pairs cannot
    shed it is pruned.  The hubs' prices are not summed, since one pair
    sent direct can unload two hubs at once.  Each price lies below every
    routing under the node that fits, so the bound tuple stays below
    every leaf key and the prunes above keep the least key: a stronger
    bound only visits fewer nodes.  Loads are put back, not subtracted,
    when the search backtracks, so a leaf's load check sees its path's
    sum whichever nodes a bound let the search skip.

    A search on emissions or penalty (``main != 0``) prunes on the main
    value alone and settles ties by first discovery: those solves only
    span the bound grid, and hunting, say, the cheapest among all
    zero-penalty routings is a hard subproblem the grid never uses.

    The search reads ``.tolist()`` copies of ``pd``'s option table, suffix
    floors and load data, and keeps hub loads as Python floats: the same
    double bits as the numpy scalars they stand for, so the keys are those
    of a numpy-scalar search (``tests/test_bb_routing.py`` keeps one as
    the reference).  Both kinds of repair table are built per call.  The
    budget tables, built only when a bound is finite, keep their numpy
    rows; they are unpacked once per call, and each node prices them
    inline, in a fixed operand order: ``need`` = the budget objective
    used so far + the suffix floor's use - the bound - ``_ROUND_SLACK``,
    and a repair is priced (``_repair_price``) only where ``need`` > 0.
    The hub shed tables are lists, built once the root passes the
    budget checks and only for hubs that the floor overloads, so a
    config whose floor fits searches as without them.  A cost solve
    builds no budget tables for a config that the root's cross checks
    reject: ``_conditional_lb`` makes the same checks for each chunk of
    configs, so such a config is never visited.  The root checks stay
    here for any caller, and for the configs a chunk passes by an ulp.
    """
    P = len(pd.contrib)
    contrib = pd.contrib.tolist()
    suffix = pd.suffix_min.tolist()
    load_nodes = pd.load_nodes.tolist()
    load_q = pd.load_q.tolist()
    caps = [float(c) for c in caps]
    loads = [0.0] * len(caps)
    choices = np.zeros(P, dtype=np.int8)
    best: Optional[tuple] = None
    best_prefix = incumbent
    canon = pd.canon_pos

    constrained = math.isfinite(eps2) or math.isfinite(eps3)
    if constrained:
        ((used2, save2, cost2, ratio2, pos2), (used3, save3, cost3, ratio3, pos3),
         (used23, save23, cost23, ratio23, _), (used32, save32, cost32, ratio32, _)) = \
            _budget_tables(pd.contrib)

    # greedy option order per pair: main value, cost breaks the frequent
    # main ties (zero-penalty plateaus), so early leaves are near-optimal
    opt_order = [(1, 0) if hub[main] < direct[main] or (hub[main] == direct[main]
                                                         and hub[0] < direct[0]) else (0, 1)
                 for direct, hub in contrib]

    def encoding(t: int) -> tuple:
        """The least encoding below a node at depth t: undecided pairs direct."""
        enc = np.zeros(P, dtype=np.int8)
        enc[canon[:t]] = choices[:t]
        return tuple(enc.tolist())

    shed = None

    def rec(t: int, s0: float, s1: float, s2: float) -> None:
        nonlocal best, best_prefix, shed
        floor = suffix[t]
        pen = 0.0
        k2 = k3 = -1
        shed_t = False
        if constrained:
            # budget-priced floors: each objective's suffix floor plus the
            # cheapest fractional repair honoring the other budgets
            need = s2 + used23[t] - eps3 - _ROUND_SLACK
            p23 = 0.0 if need <= 0.0 else _repair_price(need, save23[t], cost23[t], ratio23)[0]
            if s1 + floor[1] + p23 > eps2 + _ROUND_SLACK:
                return
            need = s1 + used32[t] - eps2 - _ROUND_SLACK
            p32 = 0.0 if need <= 0.0 else _repair_price(need, save32[t], cost32[t], ratio32)[0]
            if s2 + floor[2] + p32 > eps3 + _ROUND_SLACK:
                return
            need = s1 + used2[t] - eps2 - _ROUND_SLACK
            pen2, k2 = (0.0, -1) if need <= 0.0 else _repair_price(need, save2[t], cost2[t], ratio2)
            need = s2 + used3[t] - eps3 - _ROUND_SLACK
            pen3, k3 = (0.0, -1) if need <= 0.0 else _repair_price(need, save3[t], cost3[t], ratio3)
            pen = pen2 if pen2 >= pen3 else pen3
            if pen == math.inf:
                return
        sums = (s0, s1, s2)
        if main:
            if sums[main] + floor[main] >= best_prefix[0]:
                return
        else:
            if shed is None:
                shed = _capacity_tables(pd, caps)
            for h, limit, used, cum_save, cum_cost, ratio, pos in shed:
                need = loads[h] + used[t] - limit
                if need > 0.0:
                    p, k = _repair_price(need, cum_save[t], cum_cost[t], ratio)
                    if p == math.inf:
                        return
                    if p > pen:
                        pen = p
                    shed_t = shed_t or pos[t] <= k
            b1 = s0 + floor[0] + pen
            bound = (b1, b1, s1 + floor[1], s2 + floor[2])
            if bound > best_prefix or (bound == best_prefix and best is not None
                                       and encoding(t) >= best[4]):
                return
        if t == P:
            # bounds are inclusive on the rounded objective values
            if round6(s1) > eps2 or round6(s2) > eps3:
                return
            # at a leaf the bound is the key's prefix, so a leaf that got
            # past the prune beats every key found so far
            best = (sums[main], s0, s1, s2, encoding(P))
            best_prefix = best[:4]
            return
        opts = contrib[t]
        order_t = opt_order[t]
        if shed_t or (k2 >= 0 and pos2[t] <= k2) or (k3 >= 0 and pos3[t] <= k3):
            # a fractional repair or shed flips this pair, so follow it
            # first: the dive then lands near the relaxation's optimum
            order_t = (order_t[1], order_t[0])
        for opt in order_t:
            c0, c1, c2 = opts[opt]
            if not math.isfinite(c0):
                continue
            if opt == 1:
                a, b = load_nodes[t]
                q = load_q[t]
                # put the old loads back rather than subtract q: a load
                # is then its path's sum, whatever the search visited before
                la = loads[a]
                loads[a] = la + q
                ok = loads[a] <= caps[a] + FEAS_TOL
                if b >= 0:
                    lb = loads[b]
                    loads[b] = lb + q
                    ok = ok and loads[b] <= caps[b] + FEAS_TOL
                if ok:
                    choices[t] = 1
                    rec(t + 1, s0 + c0, s1 + c1, s2 + c2)
                loads[a] = la
                if b >= 0:
                    loads[b] = lb
            else:
                choices[t] = 0
                rec(t + 1, s0 + c0, s1 + c1, s2 + c2)

    rec(0, pd.fixed, 0.0, 0.0)
    # rec reaches itself through its closure; without this the cycle would
    # keep the search's lists alive until the cyclic collector runs
    del rec
    return best


def _solve_min(index: _ExactIndex, main: int, eps2: float, eps3: float,
               incumbent_value: float = math.inf) -> Optional[EvaluatedSolution]:
    """Global minimum of objective ``main`` under the bounds.

    ``incumbent_value`` is an upper bound (a 1e-6 multiple from an already
    known feasible solution); returns None when nothing at least ties it,
    in which case the caller's incumbent solution is already optimal.
    Configs are visited once, in _visiting_order, so a cost solve orders
    and cuts off on the budget-conditioned bound.  Each visited config's
    search data comes from ``index.pair_data``, which builds it once for
    all the solves on the index.
    """
    best: tuple = (incumbent_value, math.inf, math.inf, math.inf)
    design = None
    for lbm, g in _visiting_order(index, main, eps2, eps3):
        # a config whose bound reaches the best value could only tie it;
        # the scan stops rather than hunt a smaller key among the ties
        if lbm >= best[0]:
            break
        pd = index.pair_data(g)
        key = _bb_routing(pd, index.ctx.inst.capacity, main, eps2, eps3, best[:4])
        if key is not None and key < best:
            best, design = key, pd.design
    if design is None:
        return None
    plan = RoutePlan(hub=tuple(map(bool, best[4])))
    # checked and priced on the index's own context: an infeasible winner raises
    return EvaluatedSolution(design, plan, _evaluate(index.ctx, design, plan),
                             index.ctx.alpha_prime)


def epsilon_constraint_front(inst: ProblemInstance, grid: EpsilonGrid = EpsilonGrid(),
                             alpha_prime: float = 0.5,
                             budget: int = DEFAULT_BUDGET) -> ParetoFront:
    """Exact Pareto front approximation via the epsilon-constraint scheme.

    Five steps: enumerate configurations; find each objective's individual
    optimum (payoff rows); span the secondary ranges with the grid's
    inclusive bounds; solve the cost minimum per cell; filter dominated and
    duplicate cell optima.  The solves share the index's memo, which
    prices each config at every budget of the grid.
    """
    index = _build_index(inst, alpha_prime, budget)
    if not index.total:
        return ParetoFront(solutions=())
    payoff: list[EvaluatedSolution] = []
    for main in range(3):
        # rows 1 and 2 settle ties in their main objective by first
        # discovery (see _bb_routing), so the range maxima taken from
        # them can depend on the visiting order
        res = _solve_min(index, main, math.inf, math.inf)
        if res is None:
            return ParetoFront(solutions=())
        payoff.append(res)
    rows = np.array([s.objectives.as_tuple() for s in payoff])
    range2 = (float(rows[:, 1].min()), float(rows[:, 1].max()))
    range3 = (float(rows[:, 2].min()), float(rows[:, 2].max()))
    cells = grid.cells(range2, range3)
    index.memo.set_grid(cells)

    # cell winners seed later cells: any pooled solution inside a cell's
    # bounds primes the search with a proven-feasible cost
    pool: list[EvaluatedSolution] = list(payoff)
    candidates: list[EvaluatedSolution] = []
    for eps2, eps3 in cells:
        inc_sol = min((s for s in pool if s.objectives.z2 <= eps2 and s.objectives.z3 <= eps3),
                      key=lambda s: s.objectives.z1, default=None)
        inc_val = inc_sol.objectives.z1 if inc_sol is not None else math.inf
        res = _solve_min(index, 0, eps2, eps3, incumbent_value=inc_val)
        winner = res if res is not None else inc_sol
        if winner is not None:
            candidates.append(winner)
            pool.append(winner)
    return ParetoFront.from_candidates(candidates)
