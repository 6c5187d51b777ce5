"""The continuous-knapsack repair terms against the tables they replaced.

``_build_repair`` (per config, read by ``_conditional_lb``) and
``_repair_tables`` (per suffix of one config, read by the routing search)
both build on ``_repair_terms``.  Their earlier forms, which derived the
terms separately, are kept below as the reference: every table, every
conditioned cost bound and every suffix row must match them bit for bit.
``_conditional_lb`` prices each table's repairs for all its rows at once
(``_repair_prices``); its per-row loop over the scalar ``_repair_price``
is kept below as the reference, byte for byte.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from hubnet import exact
from hubnet.exact import DEFAULT_BUDGET, EpsilonGrid
from hubnet.generator import GeneratorSpec, generate

from test_exact import _lattice_instance, _payoff_cells

PAIRS = ((0, 1), (0, 2), (1, 2), (2, 1))   # (bounded, budget) as in exact._REPAIR_PAIRS


def ref_build_repair(index, g, low=None):
    """Every row gets a table, whatever ``low``: a table the pricing never
    reads does not change a price."""
    opts, _ = exact._options(index, g)
    tables = []
    for v, b in PAIRS:
        cheap_hub = opts[:, :, 1, v] < opts[:, :, 0, v]
        base = np.where(cheap_hub[..., None], opts[:, :, 1], opts[:, :, 0])
        alt = np.where(cheap_hub[..., None], opts[:, :, 0], opts[:, :, 1])
        with np.errstate(invalid="ignore"):
            dv = alt[..., v] - base[..., v]
            db = base[..., b] - alt[..., b]
        valid = np.isfinite(dv) & np.isfinite(db) & (db > 0)
        dv = np.where(valid, dv, 0.0)
        db = np.where(valid, db, 0.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = np.where(valid, dv / db, np.inf)
        ord_ = np.argsort(r, axis=1, kind="stable")
        tables.append((np.cumsum(base[..., b], axis=1)[:, -1], np.arange(len(g)),
                       np.cumsum(np.take_along_axis(db, ord_, axis=1), axis=1),
                       np.cumsum(np.take_along_axis(dv, ord_, axis=1), axis=1),
                       np.take_along_axis(np.where(valid, r, 0.0), ord_, axis=1)))
    return tables


def ref_repair_tables(contrib, v, b):
    P = len(contrib)
    rows = np.arange(P)
    cheap = np.where(contrib[:, 1, v] < contrib[:, 0, v], 1, 0)
    base_v = contrib[rows, cheap, v]
    alt_v = contrib[rows, 1 - cheap, v]
    base_b = contrib[rows, cheap, b]
    alt_b = contrib[rows, 1 - cheap, b]
    used = np.zeros(P + 1)
    used[:P] = base_b[::-1].cumsum()[::-1]
    with np.errstate(invalid="ignore"):
        dv = alt_v - base_v
        db = base_b - alt_b
    cand = np.where(np.isfinite(dv) & np.isfinite(db) & (db > 0))[0]
    with np.errstate(over="ignore"):
        ratio = dv[cand] / db[cand]
    order = np.lexsort((cand, ratio))
    ss = cand[order]
    valid = ss[None, :] >= np.arange(P + 1)[:, None]
    cum_save = np.cumsum(np.where(valid, db[ss][None, :], 0.0), axis=1)
    cum_cost = np.cumsum(np.where(valid, dv[ss][None, :], 0.0), axis=1)
    pos = np.full(P, P, dtype=np.intp)
    pos[ss] = np.arange(len(ss))
    return (used.tolist(), cum_save, cum_cost, ratio[order], pos.tolist())


def _capped():
    """Seven nodes whose time caps (twice the median flight time) put some
    options over their cap: inf entries in the option tables."""
    inst = generate(GeneratorSpec(n=7, p=3, seed=7))
    offdiag = ~np.eye(inst.n, dtype=bool)
    limit = 2.0 * np.median(inst.travel_time[offdiag])
    return dataclasses.replace(inst, max_transfer_time=np.where(offdiag, limit, 0.0))


INSTANCES = {
    "gen5": lambda: generate(GeneratorSpec(n=5, p=2, seed=100)),
    "gen6": lambda: generate(GeneratorSpec(n=6, p=3, seed=11)),
    "c7": lambda: generate(GeneratorSpec(n=10, p=3, seed=7)),
    "capped": _capped,
}


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def index(request):
    return exact._build_index(INSTANCES[request.param](), 0.5, DEFAULT_BUDGET)


def _sample(index, size):
    """Every config on a small index, an even spread on a large one."""
    return np.arange(0, index.total, max(1, index.total // size))


def _same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, list):
            assert a == b
        else:
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


def _same_kept_rows(tables, whole):
    """Tables that ``_build_repair`` built for some rows hold the bits of
    those rows of the whole tables (``ref_build_repair``); ``used`` covers
    every row."""
    for (used, rows, *table), (whole_used, _, *whole_table) in zip(tables, whole):
        _same_bits([used, *table], [whole_used, *(x[rows] for x in whole_table)])


def _cells(index):
    """A 4x4 grid over the finite stock emission and penalty floors, plus
    the unconstrained cell and each budget alone."""
    spans = []
    for row in (1, 2):
        finite = index.lb[row][np.isfinite(index.lb[row])]
        spans.append((float(finite.min()), float(finite.max())))
    cells = EpsilonGrid(4, 4).cells(*spans)
    return cells + [(math.inf, math.inf), (cells[0][0], math.inf), (math.inf, cells[0][1])]


def test_config_tables_and_conditioned_bounds_keep_their_bits(index, monkeypatch):
    g = _sample(index, 4096)
    cells = _cells(index)
    tables = exact._build_repair(index, g, cells[0])       # the least budgets
    assert len(tables) == len(PAIRS) and any(len(rows) for _, rows, *_ in tables)
    _same_kept_rows(tables, ref_build_repair(index, g))
    new = [exact._conditional_lb(index, g, e2, e3) for e2, e3 in cells]
    monkeypatch.setattr(exact, "_build_repair", ref_build_repair)
    old = [exact._conditional_lb(index, g, e2, e3) for e2, e3 in cells]
    assert any(np.isinf(b).any() or np.any(b > index.lb[0, g]) for b in new)   # repairs priced
    for a, b in zip(new, old):
        assert a.tobytes() == b.tobytes()


def test_suffix_tables_keep_their_bits(index):
    for g in _sample(index, 48).tolist():
        pd = index.pair_data(g)
        tables = exact._budget_tables(pd.contrib)
        for got, (v, b) in zip(tables, PAIRS):
            _same_bits(got, ref_repair_tables(pd.contrib, v, b))


def test_an_overflowing_ratio_keeps_its_place(monkeypatch):
    """A switch that saves almost nothing for a huge cost has a ratio that
    overflows to inf; it stays a valid switch, ordered among the invalid
    ones (also inf) by pair index, and every consumer reads it as before."""
    contrib = np.array([
        [[1.0, 5.0, 4.0], [3.0, 1.0, 2.0]],            # an ordinary switch
        [[np.inf] * 3, [2.0, 3.0, 1.0]],               # forced hub route: invalid
        [[1.0, 2e-300, 1e-300], [1e300, 1e-300, 0.0]],  # ratio 1e300 / 1e-300
        [[2.0, 1.0, 1.0], [2.0, 1.0, 1.0]],            # no saving: invalid
        [[4.0, 2.0, 6.0], [1.0, 3.0, 5.0]],            # hub cheaper, saves nothing in z2
    ])
    for v, b in PAIRS:
        _same_bits(exact._repair_tables(contrib, v, b), ref_repair_tables(contrib, v, b))
    assert np.isinf(exact._repair_tables(contrib, 0, 1)[3]).any()

    opts = np.stack([contrib, contrib[::-1]])
    monkeypatch.setattr(exact, "_options", lambda index, g: (opts[g], None))
    fake = SimpleNamespace(lb=np.zeros((3, 2)), memo=exact._FrontMemo())
    g = np.arange(2)
    got = exact._build_repair(fake, g, (0.0, 0.0))
    assert np.isinf(got[0][4]).any()
    _same_kept_rows(got, ref_build_repair(fake, g))
    cells = [(e2, e3) for e2 in (0.0, 5.0, 9.0, math.inf) for e3 in (0.0, 4.0, math.inf)]
    new = [exact._conditional_lb(fake, g, e2, e3) for e2, e3 in cells]
    monkeypatch.setattr(exact, "_build_repair", ref_build_repair)
    for (e2, e3), a in zip(cells, new):
        assert a.tobytes() == exact._conditional_lb(fake, g, e2, e3).tobytes()


def ref_conditional_lb(index, g, eps2, eps3):
    """The conditioned cost bound without the cross pair's root checks:
    the cost repairs alone, from the reference tables."""
    if not (math.isfinite(eps2) or math.isfinite(eps3)):
        return index.lb[0, g]
    pen = np.zeros(len(g))
    for (used, _, cum_save, cum_cost, ratio), eps in zip(ref_build_repair(index, g), (eps2, eps3)):
        if not math.isfinite(eps):
            continue
        need = used - (eps + exact._ROUND_SLACK)
        for r in np.flatnonzero((need > 0) & np.isfinite(need)):
            pen[r] = max(pen[r], exact._repair_price(need[r], cum_save[r], cum_cost[r], ratio[r])[0])
    return index.lb[0, g] + pen


@pytest.mark.parametrize("seed", [7, 8], ids=["c7", "n10-seed8"])
def test_configs_the_cross_checks_drop_have_no_routing_in_the_cell(seed):
    """Every 3 x 3 cell of C7 and of 10-node seed 8: a config that the
    cross pair's root checks mark inf gets None from an unprimed routing
    search, and every bound that stays finite keeps the bits of the bound
    without those checks.  Priced over the configs that pass the stock
    filter, the first 1,024 in cost order (more than the scan reaches)
    and 1,024 spread over the rest; about 64 dropped ones are searched
    per cell."""
    inst = generate(GeneratorSpec(n=10, p=3, seed=seed))
    index = exact._build_index(inst, 0.5, DEFAULT_BUDGET)
    rows = np.array([exact._solve_min(index, main, math.inf, math.inf).objectives.as_tuple()
                     for main in range(3)])
    cells = EpsilonGrid(3, 3).cells((rows[:, 1].min(), rows[:, 1].max()),
                                    (rows[:, 2].min(), rows[:, 2].max()))
    searched = 0
    for eps2, eps3 in cells:
        order = index.order
        order = order[(index.lb[1, order] <= eps2 + exact._ROUND_SLACK)
                      & (index.lb[2, order] <= eps3 + exact._ROUND_SLACK)]
        rest = order[1024:]
        g = np.concatenate([order[:1024], rest[::max(1, len(rest) // 1024)]])
        new = exact._conditional_lb(index, g, eps2, eps3)
        old = ref_conditional_lb(index, g, eps2, eps3)
        kept = np.isfinite(new)
        assert new[kept].tobytes() == old[kept].tobytes()
        dropped = g[~kept & np.isfinite(old)]
        for cfg in dropped[::max(1, len(dropped) // 64)].tolist():
            pd = index.pair_data(cfg)
            assert exact._bb_routing(pd, inst.capacity, 0, eps2, eps3, (math.inf,) * 4) is None
            searched += 1
    assert searched > 0


def ref_conditional_lb_loop(index, g, eps2, eps3):
    """``_conditional_lb`` as it priced its repairs before: row by row,
    through the scalar ``_repair_price``."""
    if not (math.isfinite(eps2) or math.isfinite(eps3)):
        return index.lb[0, g]
    pen = np.zeros(len(g))
    cost2, cost3, cross23, cross32 = exact._build_repair(index, g)
    for (used, _, cum_save, cum_cost, ratio), eps in ((cost2, eps2), (cost3, eps3)):
        if not math.isfinite(eps):
            continue
        need = used - (eps + exact._ROUND_SLACK)
        for r in np.flatnonzero((need > 0) & np.isfinite(need)):
            pen[r] = max(pen[r], exact._repair_price(need[r], cum_save[r], cum_cost[r], ratio[r])[0])
    for (used, _, cum_save, cum_cost, ratio), v, eps_v, eps_b in (
            (cross23, 1, eps2, eps3), (cross32, 2, eps3, eps2)):
        need = used - eps_b - exact._ROUND_SLACK
        price = np.zeros(len(g))
        for r in np.flatnonzero((need > 0) & (pen < math.inf)):
            price[r] = exact._repair_price(need[r], cum_save[r], cum_cost[r], ratio[r])[0]
        pen[index.lb[v, g] + price > eps_v + exact._ROUND_SLACK] = math.inf
    return index.lb[0, g] + pen


@pytest.mark.parametrize("name", ["gen5", "gen6", "lattice", "c7"])
def test_conditioned_bounds_equal_the_per_row_loop(name, monkeypatch):
    """Every config and every 3 x 3 front cell, plus each budget alone and
    none: the array-priced bound keeps the bytes of the per-row loop.  Each
    chunk's whole tables (``ref_build_repair``) are built once and shared
    by both sides."""
    inst = _lattice_instance() if name == "lattice" else INSTANCES[name]()
    index = exact._build_index(inst, 0.5, DEFAULT_BUDGET)
    cells = _payoff_cells(index, EpsilonGrid(3, 3))
    cells += [(cells[0][0], math.inf), (math.inf, cells[0][1]), (math.inf, math.inf)]
    priced = 0
    for start in range(0, index.total, 4096):
        g = np.arange(start, min(start + 4096, index.total))
        tables = ref_build_repair(index, g)
        monkeypatch.setattr(exact, "_build_repair", lambda index, g, low=None: tables)
        for eps2, eps3 in cells:
            new = exact._conditional_lb(index, g, eps2, eps3)
            assert new.tobytes() == ref_conditional_lb_loop(index, g, eps2, eps3).tobytes()
            priced += int(np.count_nonzero(new != index.lb[0, g]))
    assert priced > 0


def test_array_repair_prices_equal_the_scalar_price():
    """Every row with a positive need, in each of the four tables of every
    chunk that C7's 3 x 3 front prices, also with each need pointed at its
    row of the whole table, as ``_price_grid`` prices them, and edge rows:
    a marginal switch k = 0, a need equal to a cumulative saving, a need
    beyond the total saving (inf) and a price at most 1e-9 (0.0)."""
    index = exact._build_index(INSTANCES["c7"](), 0.5, DEFAULT_BUDGET)
    calls = []

    def record(index, g, eps2, eps3):
        calls.append((g, eps2, eps3))
        return conditional_lb(index, g, eps2, eps3)

    conditional_lb = exact._conditional_lb
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_conditional_lb", record)
        exact.epsilon_constraint_front(INSTANCES["c7"](), EpsilonGrid(3, 3))

    def same_as_scalar(need, save, cost, ratio):
        want = [exact._repair_price(need[r], save[r], cost[r], ratio[r])[0] for r in range(len(need))]
        got = exact._repair_prices(need, save, cost, ratio, np.arange(len(need)))
        assert got.tobytes() == np.array(want).tobytes()
        return got

    rows = 0
    for g, eps2, eps3 in calls:
        tables = ref_build_repair(index, g)
        for (used, _, save, cost, ratio), (_, b) in zip(tables, PAIRS):
            need = used - ((eps2, eps3)[b - 1] + exact._ROUND_SLACK)
            r = np.flatnonzero(need > 0)
            prices = same_as_scalar(need[r], save[r], cost[r], ratio[r])
            assert exact._repair_prices(need[r], save, cost, ratio, r).tobytes() == prices.tobytes()
            rows += len(r)
    assert len(calls) > 30 and rows > 1000

    # three switches saving 1, 2 and 3 at ratios 2, 3 and 4, then one
    # invalid switch that adds nothing
    save = np.array([[1.0, 3.0, 6.0, 6.0]] * 6)
    cost = np.array([[2.0, 8.0, 20.0, 20.0]] * 6)
    ratio = np.array([[2.0, 3.0, 4.0, 0.0]] * 6)
    need = np.array([0.5, 3.0, 6.0, 6.5, 1e-12, 2.0])
    got = same_as_scalar(need, save, cost, ratio)
    assert got[0] == 1.0 - 1e-9                  # k = 0: need * ratio[0]
    assert got[1] == 2.0 + 2.0 * 3.0 - 1e-9      # need = save[1]: switch 1 is marginal
    assert got[2] == 8.0 + 3.0 * 4.0 - 1e-9      # need = the total saving
    assert got[3] == math.inf                    # beyond it
    assert got[4] == 0.0                         # at most 1e-9
    same_as_scalar(need, save[:, :0], cost[:, :0], ratio[:, :0])     # no switch at all
