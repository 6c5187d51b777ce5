"""The continuous-knapsack repair terms against the tables they replaced.

``_build_repair`` (per config, read by ``_conditional_lb``) and
``_repair_tables`` (per suffix of one config, read by the routing search)
both build on ``_repair_terms``.  Their earlier forms, which derived the
terms separately, are kept below as the reference: every table, every
conditioned cost bound and every suffix row must match them bit for bit.
"""

import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from hubnet import exact
from hubnet.exact import DEFAULT_BUDGET, EpsilonGrid
from hubnet.generator import GeneratorSpec, generate

PAIRS = ((0, 1), (0, 2), (1, 2), (2, 1))   # (bounded, budget) as in _budget_tables


def ref_build_repair(index, g):
    opts, _ = exact._options(index, g)
    cheap_hub = opts[:, :, 1, 0] < opts[:, :, 0, 0]
    base = np.where(cheap_hub[..., None], opts[:, :, 1], opts[:, :, 0])
    alt = np.where(cheap_hub[..., None], opts[:, :, 0], opts[:, :, 1])
    tables = []
    for c in (1, 2):
        with np.errstate(invalid="ignore"):
            d1 = alt[..., 0] - base[..., 0]
            dc = base[..., c] - alt[..., c]
        valid = np.isfinite(d1) & np.isfinite(dc) & (dc > 0)
        d1 = np.where(valid, d1, 0.0)
        dc = np.where(valid, dc, 0.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            r = np.where(valid, d1 / dc, np.inf)
        ord_ = np.argsort(r, axis=1, kind="stable")
        tables.append((np.cumsum(base[..., c], axis=1)[:, -1],
                       np.cumsum(np.take_along_axis(dc, ord_, axis=1), axis=1),
                       np.cumsum(np.take_along_axis(d1, ord_, axis=1), axis=1),
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
    for got, want in zip(exact._build_repair(index, g), ref_build_repair(index, g)):
        _same_bits(got, want)
    cells = _cells(index)
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
    fake = SimpleNamespace(lb=np.zeros((3, 2)))
    g = np.arange(2)
    got = exact._build_repair(fake, g)
    assert np.isinf(got[0][3]).any()
    for a, b in zip(got, ref_build_repair(fake, g)):
        _same_bits(a, b)
    cells = [(e2, e3) for e2 in (0.0, 5.0, 9.0, math.inf) for e3 in (0.0, 4.0, math.inf)]
    new = [exact._conditional_lb(fake, g, e2, e3) for e2, e3 in cells]
    monkeypatch.setattr(exact, "_build_repair", ref_build_repair)
    for (e2, e3), a in zip(cells, new):
        assert a.tobytes() == exact._conditional_lb(fake, g, e2, e3).tobytes()
