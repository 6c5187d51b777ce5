"""The per-front memo of the exact solver (``exact._FrontMemo``).

Each front builds its own index, and the index carries the memo.  The
conditioned cost bounds of the cells come from repair prices made once
per config, at every budget of the grid, the first time a cell's scan
reaches it; each searched config's ``_PairData`` is built once.  These
tests hold the memo to the bounds of pricing each chunk afresh, byte for
byte, count the builds it saves, and bound the memory a front holds with
it.
"""

import dataclasses
import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from hubnet import exact
from hubnet.exact import DEFAULT_BUDGET, EpsilonGrid, epsilon_constraint_front
from hubnet.generator import GeneratorSpec, generate

from test_repair_terms import _same_kept_rows, ref_build_repair

FRONTS = {
    "gen5-6x6": (GeneratorSpec(n=5, p=2, seed=100), 6),
    "gen6-6x6": (GeneratorSpec(n=6, p=3, seed=11), 6),
    "c7-3x3": (GeneratorSpec(n=10, p=3, seed=7), 3),
    "c7-6x6": (GeneratorSpec(n=10, p=3, seed=7), 6),
    "c8s0-6x6": (GeneratorSpec(n=8, p=3, seed=0), 6),
    "c8s1-6x6": (GeneratorSpec(n=8, p=3, seed=1), 6),
}


def _recorded_front(monkeypatch, spec, segments, *names):
    """Run a front with each named ``exact`` function wrapped to record its
    arguments and results as (args, result) pairs; returns the front and
    the records by name."""
    records = {name: [] for name in names}
    for name in names:
        def record(*args, _name=name, _fn=getattr(exact, name), **kwargs):
            result = _fn(*args, **kwargs)
            records[_name].append((args, result))
            return result
        monkeypatch.setattr(exact, name, record)
    front = epsilon_constraint_front(generate(spec), EpsilonGrid(segments, segments))
    monkeypatch.undo()
    return front, records


@pytest.mark.parametrize("name", sorted(FRONTS))
def test_memo_bounds_equal_the_bounds_priced_afresh(name, monkeypatch):
    """Every chunk that every cell of the front prices: the bound read from
    the memo has the bytes of the same chunk priced at the cell's budgets
    alone, on the index with a fresh memo that holds no grid.  The memo
    prices fewer chunks than the cells read."""
    spec, segments = FRONTS[name]
    front, records = _recorded_front(monkeypatch, spec, segments, "_conditional_lb",
                                     "_price_grid")
    calls = records["_conditional_lb"]
    priced = [(args, bound) for args, bound in calls if len(args[1])]
    assert len(front) > 1 and priced
    afresh = dataclasses.replace(priced[0][0][0], memo=exact._FrontMemo())
    for (index, g, eps2, eps3), bound in priced:
        assert index.memo.on_grid(eps2, eps3)
        assert bound.tobytes() == exact._conditional_lb(afresh, g, eps2, eps3).tobytes()
    # one pricing per chunk that reaches a config no earlier chunk reached
    assert len(records["_price_grid"]) < len(priced)


def test_a_front_builds_each_config_s_tables_and_search_data_once(monkeypatch):
    """C7 at 3 x 3: 38 chunks, 16 of them emptied by the stock budget filter,
    price 986 rows over 508 distinct configs, and ``_build_repair`` builds
    those 508 rows once each; 12 solves make 19 routing searches over 9
    distinct configs, and ``_pair_data`` builds 9 search data."""
    spec, segments = FRONTS["c7-3x3"]
    pair_data = exact._ExactIndex.pair_data
    asked = []

    def counted(index, g):
        asked.append(g)
        return pair_data(index, g)

    monkeypatch.setattr(exact._ExactIndex, "pair_data", counted)
    front, records = _recorded_front(monkeypatch, spec, segments, "_conditional_lb",
                                     "_build_repair", "_pair_data", "_solve_min")
    assert len(front) == 5
    chunks = [args[1] for args, _ in records["_conditional_lb"]]
    assert (len(chunks), sum(not len(g) for g in chunks)) == (38, 16)
    reached = np.concatenate(chunks)
    assert (len(reached), len(np.unique(reached))) == (986, 508)
    built = np.concatenate([args[1] for args, _ in records["_build_repair"]])
    assert np.array_equal(np.sort(built), np.unique(reached))
    assert len(records["_solve_min"]) == 12
    assert (len(asked), len(set(asked))) == (19, 9)
    assert sorted(args[1] for args, _ in records["_pair_data"]) == sorted(set(asked))


def test_an_index_builds_each_config_s_search_data_once():
    index = exact._build_index(generate(GeneratorSpec(n=5, p=2, seed=100)), 0.5, DEFAULT_BUDGET)
    assert index.pair_data(0) is index.pair_data(0)
    assert index.pair_data(1) is not index.pair_data(0)


def test_a_front_s_index_and_memo_die_when_it_returns(monkeypatch):
    """No reference cycle holds the index: it is gone, with its memo, as
    soon as the front returns, before any cyclic collection."""
    build = exact._build_index
    refs = []

    def recorded(*args):
        index = build(*args)
        refs.append((weakref.ref(index), weakref.ref(index.memo)))
        return index

    monkeypatch.setattr(exact, "_build_index", recorded)
    spec, segments = FRONTS["gen5-6x6"]
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        front = epsilon_constraint_front(generate(spec), EpsilonGrid(segments, segments))
        assert len(front) > 1 and len(refs) == 1
        assert [ref() for ref in refs[0]] == [None, None]
    finally:
        if gc_was_on:
            gc.enable()


def test_a_table_is_built_only_for_rows_that_a_grid_budget_prices(monkeypatch):
    """10-node seed 4 at 3 x 3: each table that ``_build_repair`` builds for
    the memo holds exactly the rows whose need at the grid's least budget
    is priced, with the bits of those rows of the whole table
    (``ref_build_repair``); no row needs the emissions-under-penalty
    (cross-23) table."""
    _, records = _recorded_front(monkeypatch, GeneratorSpec(n=10, p=3, seed=4), 3,
                                 "_build_repair")
    assert records["_build_repair"]
    kept = [0] * 4
    for (index, g, low), tables in records["_build_repair"]:
        _same_kept_rows(tables, ref_build_repair(index, g))
        for t, ((used, rows, *_), (v, b)) in enumerate(zip(tables, exact._REPAIR_PAIRS)):
            eps = low[b - 1]
            need = used - (eps + exact._ROUND_SLACK) if v == 0 else used - eps - exact._ROUND_SLACK
            want = np.flatnonzero((need > 0) & np.isfinite(need) if v == 0 else need > 0)
            assert np.array_equal(rows, want)
            kept[t] += len(rows)
    cost2, cost3, cross23, cross32 = kept
    assert cross23 == 0 and min(cost2, cost3, cross32) > 0


def test_a_6x6_front_holds_its_memo_in_little_memory():
    """C7 at 6 x 6 peaks near 22 MiB with the memo, as without it
    (22.3 MiB): the memo holds 24 prices per reached config (3,810 here)
    and the search data of 46 configs, not their repair tables."""
    inst = generate(GeneratorSpec(n=10, p=3, seed=7))
    tracemalloc.start()
    try:
        front = epsilon_constraint_front(inst, EpsilonGrid(6, 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(front) > 1
    assert peak < 32 * 2 ** 20
