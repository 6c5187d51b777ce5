"""The exact configuration index against the per-hub-set gather it replaced.

``_build_index`` reads every config's stock bounds from one route table
through a flat index per chunk.  The reference below is the build that
came before it: one hub-option array per hub set, priced by
``evaluation._hub_route``, gathered with five index arrays per objective
row and summed per chunk of at most 4,096 configs of one hub set.  The
bounds must keep their bits and the cost order its ids, whatever chunk
size the solver uses, and the option tables of ``_options`` must hold
the reference's hub routes.  ``_options`` decodes config ids across hub
sets in one gather; the decode it replaced, one hub set at a time, is
kept below as the reference for its assignments and option tables.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from hubnet import evaluation, exact
from hubnet.exact import DEFAULT_BUDGET
from hubnet.generator import GeneratorSpec, generate

_REF_CHUNK = 4096


def ref_blocks(ctx):
    """Per hub set, in canonical order: its hubs, its hub-option array
    ``(n, n, h, h, 3)`` and its configs' assignments as positions in the
    hub set, ``(count, n)``, spokes in product order."""
    inst = ctx.inst
    n = inst.n
    idx = np.arange(n)
    cover = inst.coverage()
    for h in range(1, inst.p + 1):
        for hubs in itertools.combinations(range(n), h):
            H = np.asarray(hubs)
            spokes = np.setdiff1d(idx, H)
            reach = cover[spokes[:, None], H]
            if not reach.any(axis=1).all():
                continue
            hub_opts = evaluation._hub_route(
                ctx, idx[:, None, None, None], idx[None, :, None, None],
                H[None, None, :, None], H[None, None, None, :], np.s_[:, :, None, None])
            product = list(itertools.product(*(np.flatnonzero(row) for row in reach)))
            positions = np.empty((len(product), n), dtype=np.intp)
            positions[:, H] = np.arange(h)
            positions[:, spokes] = np.array(product, dtype=np.intp).reshape(len(product), -1)
            yield H, hub_opts, positions


def ref_bounds(ctx):
    """(3, total) stock bounds and their stable cost order, as the
    per-hub-set build summed them."""
    n = ctx.inst.n
    ii, jj = np.indices((n, n))
    diag = np.arange(n)
    parts = []
    for H, hub_opts, positions in ref_blocks(ctx):
        lb = np.empty((3, len(positions)))
        for start in range(0, len(positions), _REF_CHUNK):
            A = positions[start:start + _REF_CHUNK]
            at = (ii[None], jj[None], A[:, :, None], A[:, None, :])
            for row in range(3):
                best = np.minimum(hub_opts[at + (row,)], ctx.direct[None, :, :, row])
                best[:, diag, diag] = 0.0
                lb[row, start:start + len(A)] = best.sum(axis=(1, 2))
        lb[0] += float(ctx.inst.fixed_cost[H].sum())
        parts.append(lb)
    lb = np.concatenate(parts, axis=1)
    return lb, np.argsort(lb[0], kind="stable")


def _capped(inst, cap):
    """``inst`` with every time cap at ``cap`` times the median flight time."""
    offdiag = ~np.eye(inst.n, dtype=bool)
    limit = cap * np.median(inst.travel_time[offdiag])
    return dataclasses.replace(inst, max_transfer_time=np.where(offdiag, limit, 0.0))


CASES = {
    "c7": lambda: generate(GeneratorSpec(n=10, p=3, seed=7)),
    "n10-seed3": lambda: generate(GeneratorSpec(n=10, p=3, seed=3)),
    "p1": lambda: dataclasses.replace(generate(GeneratorSpec(n=9, p=1, seed=4)), omega=1e9),
    "p2": lambda: generate(GeneratorSpec(n=8, p=2, seed=5)),
    # the two time-cap regimes of test_heuristic_and_exact_paths_price_routes_alike
    "some-options-late": lambda: _capped(generate(GeneratorSpec(n=8, p=3, seed=8)), 2.0),
    "pairs-stranded": lambda: _capped(generate(GeneratorSpec(n=8, p=3, seed=8)), 1.0),
}


@pytest.mark.parametrize("chunk", [exact._INDEX_CHUNK, 7], ids=["stock-chunk", "chunk-7"])
@pytest.mark.parametrize("case", list(CASES))
def test_index_bounds_match_the_per_hub_set_gather(case, chunk, monkeypatch):
    """Every config's bounds keep their bits and the cost order its ids;
    chunks of 7 end inside hub sets, so a config's bound does not depend
    on the chunk that prices it."""
    inst = CASES[case]()
    monkeypatch.setattr(exact, "_INDEX_CHUNK", chunk)
    index = exact._build_index(inst, 0.5, DEFAULT_BUDGET)
    lb, order = ref_bounds(index.ctx)
    assert index.total == lb.shape[1] > 0
    assert index.lb.tobytes() == lb.tobytes()
    assert np.array_equal(index.order, order)
    if case == "pairs-stranded":
        assert np.isinf(lb[0]).any()
    if case == "some-options-late":
        assert np.isinf(index.routes).any() and np.isfinite(lb).all()


@pytest.mark.parametrize("case", list(CASES))
def test_option_tables_match_the_per_hub_set_gather(case):
    """Sampled configs' option tables hold the reference's direct and hub
    routes, and their designs the reference's assignments."""
    inst = CASES[case]()
    index = exact._build_index(inst, 0.5, DEFAULT_BUDGET)
    i_arr, j_arr = index.i_arr, index.j_arr
    rows, designs = [], []
    for H, hub_opts, positions in ref_blocks(index.ctx):
        rows.append(hub_opts[i_arr, j_arr, positions[:, i_arr], positions[:, j_arr]])
        designs.append(H[positions])
    rows, designs = np.concatenate(rows), np.concatenate(designs)
    rng = np.random.default_rng(0)
    g = np.sort(rng.choice(index.total, size=min(64, index.total), replace=False))
    opts, assignments = exact._options(index, g)
    assert opts[:, :, 0].tobytes() == np.broadcast_to(
        index.ctx.direct[i_arr, j_arr], opts[:, :, 0].shape).tobytes()
    assert opts[:, :, 1].tobytes() == rows[g].tobytes()
    assert np.array_equal(assignments, designs[g])
    assert [index.pair_data(int(k)).design.assignment for k in g] == [tuple(d) for d in designs[g].tolist()]


def ref_hub_sets(inst):
    """Per legal hub set, in canonical order: its hubs, its spokes and, per
    spoke, the ids of its hubs within omega, ascending."""
    cover = inst.coverage()
    for h in range(1, inst.p + 1):
        for hubs in itertools.combinations(range(inst.n), h):
            H = np.asarray(hubs, dtype=np.intp)
            spokes = np.setdiff1d(np.arange(inst.n), H)
            reach = cover[spokes[:, None], H]
            if reach.sum(axis=1).all():
                yield hubs, spokes, [H[row] for row in reach]


def ref_assignment_chunk(hubs, spokes, choices, local):
    """(m, n) assignments (hub ids) of one hub set's local config ids, the
    last spoke the least significant digit."""
    out = np.empty((len(local), len(spokes) + len(hubs)), dtype=np.intp)
    out[:, list(hubs)] = hubs
    local = np.array(local, dtype=np.intp)
    for spoke, options in zip(spokes[::-1], choices[::-1]):
        out[:, spoke] = options[local % len(options)]
        local //= len(options)
    return out


def ref_options(index, g):
    """``_options`` decoding one hub set at a time."""
    sets = list(ref_hub_sets(index.ctx.inst))
    offsets = np.cumsum([0] + [int(np.prod([len(c) for c in choices])) for _, _, choices in sets])
    n = index.ctx.inst.n
    A = np.empty((len(g), n), dtype=np.intp)
    block_of = np.searchsorted(offsets, g, side="right") - 1
    for b in np.unique(block_of):
        sel = block_of == b
        A[sel] = ref_assignment_chunk(*sets[b], g[sel] - offsets[b])
    i_arr, j_arr = index.i_arr, index.j_arr
    opts = np.empty((len(g), len(i_arr), 2, 3))
    opts[:, :, 0] = index.ctx.direct[i_arr, j_arr]
    at = exact._route_at(n, index.stride, i_arr, j_arr, A[:, i_arr], A[:, j_arr])
    opts[:, :, 1] = index.routes.reshape(-1, 3)[at]
    return opts, A, offsets


DECODE_CASES = {
    "p1": CASES["p1"],
    "c7": CASES["c7"],
    # p = 5 and every link within omega: a spoke of five hubs has five choices
    "p5": lambda: dataclasses.replace(generate(GeneratorSpec(n=6, p=5, seed=2)), omega=1e9),
    # test_zero_demand_fronts_equal_the_oracle_front[5-1]: spokes of 4 choices
    "n5-p5": lambda: generate(GeneratorSpec(n=5, p=5, seed=1)),
}


@pytest.mark.parametrize("case", list(DECODE_CASES))
def test_options_decode_across_hub_sets_as_one_hub_set_at_a_time(case):
    """Config ids that span hub sets decode in one gather to the
    assignments and option tables of a decode per hub set: every id of a
    small index, or the ids around each hub set's first one."""
    inst = DECODE_CASES[case]()
    index = exact._build_index(inst, 0.5, DEFAULT_BUDGET)
    if index.total <= 4096:
        g = np.arange(index.total)
    else:
        g = np.unique(np.clip(index.offsets[:-1, None] + np.arange(-2, 3), 0, index.total - 1))
    opts, A = exact._options(index, g)
    want_opts, want_A, offsets = ref_options(index, g)
    assert np.array_equal(index.offsets, offsets)
    assert len(np.unique(np.searchsorted(offsets, g, side="right"))) > 1
    assert np.array_equal(A, want_A)
    assert opts.tobytes() == want_opts.tobytes()
    if case in ("p5", "n5-p5"):
        assert max(len(c) for _, _, choices in ref_hub_sets(inst) for c in choices) >= 4
