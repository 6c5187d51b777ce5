"""Exact solver: configuration enumeration and the epsilon-constraint front.

The main objective is cost; emissions and time-window penalty are turned
into inclusive upper bounds over a grid derived from the individual optima
of the three objectives.  Per grid cell the solver takes the minimum over
every configuration (hub set + assignment) of an exact routing
branch-and-bound; configurations are visited in order of a cost bound
conditioned on the cell's budgets, built only for those the scan reaches,
so most are pruned without search.

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
from dataclasses import dataclass
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

# The index costs 32 bytes per configuration, a (3, total) float64 bound
# array plus the int64 cost sort order, so this budget admits an index of
# about 3.2 GB; the conditioned cost bounds are priced in chunks along the
# scan and add no per-configuration memory.  A front holds the index plus
# one search's tables at a time: a config's search data is built for the
# one search that uses it and dropped after it.
DEFAULT_BUDGET = 10 ** 8

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
            f"configuration count {count} exceeds enumeration budget {budget}; "
            "use a metaheuristic solver for this size"
        )

    def __reduce__(self):
        # two required init args: stock exception pickling rebuilds from the
        # formatted message alone and breaks process pools mid-transfer
        return (EnumerationBudgetError, (self.count, self.budget))


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


# --- per-hub-set options and the configuration index -----------------------


@dataclass
class _Block:
    """All configurations sharing one hub set, with its hub-route options.

    ``hub_opts[i, j, x, y]`` holds the (z1, z2, z3) of pair (i, j)'s hub
    route when x and y are the positions in ``hubs`` of the origin's and
    destination's hub; inf marks a route over the pair's time cap, as in
    the option tables of ``_options``.
    """

    hubs: tuple[int, ...]
    spokes: np.ndarray            # non-hub node ids
    choices: list[np.ndarray]     # per spoke: hub positions within omega
    n_configs: int
    fixed_total: float
    hub_opts: np.ndarray          # (n, n, h, h, 3)


def _build_block(ctx: EvalContext, hubs: tuple[int, ...]) -> Optional[_Block]:
    """The hub set's block, or None when some spoke has no hub within omega."""
    inst = ctx.inst
    idx = np.arange(inst.n)
    H = np.asarray(hubs, dtype=np.intp)
    spokes = np.setdiff1d(idx, H)
    reach = inst.coverage()[spokes[:, None], H]
    counts = reach.sum(axis=1)
    if not counts.all():
        return None
    hub_opts = _hub_route(ctx, idx[:, None, None, None], idx[None, :, None, None],
                          H[None, None, :, None], H[None, None, None, :], np.s_[:, :, None, None])
    return _Block(hubs=hubs, spokes=spokes, choices=[np.flatnonzero(row) for row in reach],
                  n_configs=int(np.prod(counts)), fixed_total=float(inst.fixed_cost[H].sum()),
                  hub_opts=hub_opts)


@dataclass(frozen=True)
class _ExactIndex:
    """Enumerated configuration space with per-config objective lower bounds."""

    ctx: EvalContext
    blocks: list[_Block]
    offsets: np.ndarray           # block start indices, len(blocks)+1
    lb: np.ndarray                # (3, total) objective lower bounds
    order: np.ndarray             # stable argsort of lb[0]
    i_arr: np.ndarray             # canonical off-diagonal pair rows
    j_arr: np.ndarray

    @property
    def total(self) -> int:
        return int(self.offsets[-1])

    def pair_data(self, g: int) -> _PairData:
        """Config id -> its design and routing search data, built afresh.

        A plain call of ``_pair_data``, kept as a method because
        ``bench/tracer.py`` binds it as the span ``exact.pair_data``, whose
        count ``bench/test_bench.py`` asserts is above 0.
        """
        return _pair_data(self, g)


def _assignment_chunk(block: _Block, local: np.ndarray) -> np.ndarray:
    """(m, n) hub-position assignments for the local config indices ``local``."""
    n = len(block.spokes) + len(block.hubs)
    out = np.empty((len(local), n), dtype=np.intp)
    for pos, k in enumerate(block.hubs):
        out[:, k] = pos
    local = np.array(local, dtype=np.intp)      # a copy: divided in place below
    for spoke, choices in zip(block.spokes[::-1], block.choices[::-1]):
        out[:, spoke] = choices[local % len(choices)]
        local //= len(choices)
    return out


def _options(index: _ExactIndex, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical (m, P, 2, 3) option tables of the configs ``g``, and their
    (m, n) assignments as positions in each config's ``block.hubs``.

    Row t of a table holds canonical pair t's direct route (option 0) and
    hub route (option 1) as objective triples, inf where the option breaks
    the pair's time cap; a config with a pair whose both options are inf
    cannot be routed.
    """
    i_arr, j_arr = index.i_arr, index.j_arr
    opts = np.empty((len(g), len(i_arr), 2, 3))
    opts[:, :, 0] = index.ctx.direct[i_arr, j_arr]
    positions = np.empty((len(g), index.ctx.inst.n), dtype=np.intp)
    block_of = np.searchsorted(index.offsets, g, side="right") - 1
    for b in np.unique(block_of):
        sel = block_of == b
        A = _assignment_chunk(index.blocks[b], g[sel] - index.offsets[b])
        opts[sel, :, 1] = index.blocks[b].hub_opts[i_arr, j_arr, A[:, i_arr], A[:, j_arr]]
        positions[sel] = A
    return opts, positions


_LB_CHUNK = 4096


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
    blocks: list[_Block] = []
    for h in range(1, inst.p + 1):
        for hubs in itertools.combinations(range(n), h):
            block = _build_block(ctx, hubs)
            if block is not None:
                blocks.append(block)

    i_arr, j_arr = np.where(ctx.offdiag)
    offsets = np.cumsum([0] + [block.n_configs for block in blocks], dtype=np.int64)

    # summed per config over the n x n grid: the bounds' bits depend on that order
    lb = np.empty((3, int(offsets[-1])))
    ii, jj = np.indices((n, n))
    diag = np.arange(n)
    for block, base in zip(blocks, offsets.tolist()):
        for start in range(0, block.n_configs, _LB_CHUNK):
            stop = min(start + _LB_CHUNK, block.n_configs)
            A = _assignment_chunk(block, np.arange(start, stop))
            at = (ii[None], jj[None], A[:, :, None], A[:, None, :])
            for row in range(3):
                best = np.minimum(block.hub_opts[at + (row,)], ctx.direct[None, :, :, row])
                best[:, diag, diag] = 0.0
                # a pair with no option within its time cap makes the sum inf
                lb[row, base + start:base + stop] = best.sum(axis=(1, 2))
            lb[0, base + start:base + stop] += block.fixed_total
    return _ExactIndex(ctx=ctx, blocks=blocks, offsets=offsets, lb=lb,
                       order=np.argsort(lb[0], kind="stable"),
                       i_arr=i_arr, j_arr=j_arr)


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
    ``db``, the ratio (inf where invalid), the validity mask (both deltas
    finite and a positive saving), and the stable ratio order along the
    pair axis.
    """
    hub = (opts[..., 1, v] < opts[..., 0, v])[..., None]
    base = np.where(hub, opts[..., 1, :], opts[..., 0, :])
    alt = np.where(hub, opts[..., 0, :], opts[..., 1, :])
    with np.errstate(invalid="ignore"):
        dv = alt[..., v] - base[..., v]
        db = base[..., b] - alt[..., b]
    valid = np.isfinite(dv) & np.isfinite(db) & (db > 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.where(valid, dv / db, np.inf)
    return base[..., b], dv, db, ratio, valid, np.argsort(ratio, axis=-1, kind="stable")


def _build_repair(index: _ExactIndex, g: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """Fractional-repair tables of the configs ``g``, one per budget objective.

    Read from the configs' option tables (``_options``) through
    ``_repair_terms`` with cost as the bounded objective.  A table holds
    how much of the budget objective the cost floor uses, (m,), and, in
    ratio order, the cumulative savings and costs of the switches and
    their ratios, (m, P) each, invalid switches adding zero.  See
    _conditional_lb.
    """
    opts, _ = _options(index, g)
    tables = []
    for c in (1, 2):
        base_b, dv, db, ratio, valid, order = _repair_terms(opts, 0, c)

        def ordered(x: np.ndarray) -> np.ndarray:
            return np.take_along_axis(np.where(valid, x, 0.0), order, axis=1)

        # summed in pair order: .sum() adds a lone config's row pairwise but
        # a chunk's rows in pair order, which would tie a bound to its chunk
        tables.append((np.cumsum(base_b, axis=1)[:, -1], np.cumsum(ordered(db), axis=1),
                       np.cumsum(ordered(dv), axis=1), ordered(ratio)))
    return tables


def _conditional_lb(index: _ExactIndex, g: np.ndarray, eps2: float, eps3: float) -> np.ndarray:
    """Cost lower bounds of the configs ``g`` conditioned on the cell's budgets.

    The unconstrained bound plus the cheapest fractional repair (greedy
    over cost/saving ratios) that brings each budget objective's floor
    usage inside its bound; inf marks configs that cannot fit the cell.
    The repairs for the two budgets are computed independently, so the
    max of the two penalties is still a valid joint bound.  Never below
    ``index.lb[0, g]``.
    """
    if not (math.isfinite(eps2) or math.isfinite(eps3)):
        return index.lb[0, g]
    pen = np.zeros(len(g))
    for (used, cum_save, cum_cost, ratio), eps in zip(_build_repair(index, g), (eps2, eps3)):
        if not math.isfinite(eps):
            continue
        need = used - (eps + _ROUND_SLACK)
        for r in np.flatnonzero((need > 0) & np.isfinite(need)):
            pen[r] = max(pen[r], _repair_price(need[r], cum_save[r], cum_cost[r], ratio[r])[0])
    return index.lb[0, g] + pen


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


def _visiting_order(index: _ExactIndex, main: int, eps2: float,
                    eps3: float) -> Iterator[tuple[float, int]]:
    """Configs that fit the cell, as (bound, id) in ascending order, lazily.

    The bound on ``main`` is the budget-conditioned one (_conditional_lb)
    for cost and the stock ``index.lb[main]`` otherwise.  Configs are
    priced in growing chunks along the stable sort of ``index.lb[main]``;
    no bound is below its stock bound, so the heap's top is final once it
    lies strictly below the next unpriced stock bound (on a tie, an
    unpriced config could still come first by id).  Configs with an
    infinite bound are never yielded.
    """
    floor = index.lb[main]
    order = index.order if main == 0 else np.argsort(floor, kind="stable")
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
        bound = _conditional_lb(index, g, eps2, eps3) if main == 0 else floor[g]
        for item in zip(bound.tolist(), g.tolist()):
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
    base_b, dv, db, ratio, valid, order = _repair_terms(contrib, v, b)
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
    """Repair tables used by the search: cost under either budget, plus the
    cross pair (emissions under the penalty budget and vice versa), which
    prices out budget-infeasible subtrees before any incumbent exists."""
    return [_repair_tables(contrib, 0, 1), _repair_tables(contrib, 0, 2),
            _repair_tables(contrib, 1, 2), _repair_tables(contrib, 2, 1)]


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
    block = index.blocks[int(np.searchsorted(index.offsets, g, side="right")) - 1]
    opts, positions = _options(index, np.array([g]))
    order = _pair_order(opts[0])
    contrib = opts[0, order]
    assignment = np.asarray(block.hubs, dtype=np.intp)[positions[0]]
    first = assignment[index.i_arr[order]]
    second = assignment[index.j_arr[order]]
    best = np.minimum(contrib[:, 0, :], contrib[:, 1, :])
    suffix = np.zeros((len(contrib) + 1, 3))
    suffix[:-1] = best[::-1].cumsum(axis=0)[::-1]
    return _PairData(
        design=NetworkDesign(tuple(assignment.tolist())),
        fixed=block.fixed_total, contrib=contrib, suffix_min=suffix,
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
    rows; the hub shed tables are lists, built once the root passes the
    budget checks and only for hubs that the floor overloads, so a
    config whose floor fits searches as without them.
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
    budget = _budget_tables(pd.contrib) if constrained else []

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

    def pen_for(tab: tuple, t: int, used_b: float, eps_b: float) -> tuple[float, int]:
        """Fractional repair price for the suffix at t plus the marginal
        candidate index; (inf, k) when no repair fits, (0, -1) when slack."""
        used, cum_save, cum_cost, ratio, _ = tab
        need = used_b + used[t] - eps_b - _ROUND_SLACK
        if need <= 0.0:
            return 0.0, -1
        return _repair_price(need, cum_save[t], cum_cost[t], ratio)

    pos2 = budget[0][4] if budget else None
    pos3 = budget[1][4] if budget else None
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
            p23, _ = pen_for(budget[2], t, s2, eps3)
            if s1 + floor[1] + p23 > eps2 + _ROUND_SLACK:
                return
            p32, _ = pen_for(budget[3], t, s1, eps2)
            if s2 + floor[2] + p32 > eps3 + _ROUND_SLACK:
                return
            pen2, k2 = pen_for(budget[0], t, s1, eps2)
            pen3, k3 = pen_for(budget[1], t, s2, eps3)
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
    and cuts off on the budget-conditioned bound.
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
    duplicate cell optima.
    """
    index = _build_index(inst, alpha_prime, budget)
    if not index.blocks:
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

    # cell winners seed later cells: any pooled solution inside a cell's
    # bounds primes the search with a proven-feasible cost
    pool: list[EvaluatedSolution] = list(payoff)
    candidates: list[EvaluatedSolution] = []
    for eps2, eps3 in grid.cells(range2, range3):
        inc_sol = min((s for s in pool if s.objectives.z2 <= eps2 and s.objectives.z3 <= eps3),
                      key=lambda s: s.objectives.z1, default=None)
        inc_val = inc_sol.objectives.z1 if inc_sol is not None else math.inf
        res = _solve_min(index, 0, eps2, eps3, incumbent_value=inc_val)
        winner = res if res is not None else inc_sol
        if winner is not None:
            candidates.append(winner)
            pool.append(winner)
    return ParetoFront.from_candidates(candidates)
