"""The routing search against the numpy-scalar search it replaced.

``exact._bb_routing`` runs its depth-first search on Python floats read
from ``.tolist()`` copies of the config's arrays.  Its earlier form, which
read every option, suffix floor and hub load as a numpy scalar, is kept
below as the reference.  Python floats and ``np.float64`` scalars add,
subtract and compare with the same IEEE-754 double bits, so every key must
match the reference's: each objective equal by ``float.hex`` and the same
route encoding, on every config, main objective and grid cell, unprimed
and primed with the key's own prefix.

The reference also has no capacity term in its cost bound.  A valid bound
prunes only subtrees that cannot hold the least key, so on the instances
where hub capacity binds the keys must match as well, and the term's root
price must never exceed the oracle's cheapest routing.
"""

import dataclasses
import gc
import itertools
import math
from typing import Optional

import numpy as np
import pytest

from hubnet import exact
from hubnet.exact import DEFAULT_BUDGET, EpsilonGrid
from hubnet.generator import GeneratorSpec, generate
from hubnet.model import FEAS_TOL, round6

import oracle

UNPRIMED = (math.inf,) * 4


def ref_bb_routing(pd, caps, main, eps2, eps3, incumbent) -> Optional[tuple]:
    P = len(pd.contrib)
    contrib = pd.contrib
    suffix = pd.suffix_min
    loads = np.zeros(len(caps))
    choices = np.zeros(P, dtype=np.int8)
    best = None
    best_prefix = incumbent
    canon = pd.canon_pos

    constrained = math.isfinite(eps2) or math.isfinite(eps3)
    if constrained and not pd.budget:
        pd.budget = exact._budget_tables(pd.contrib)
    budget = pd.budget

    hub_first = (contrib[:, 1, main] < contrib[:, 0, main]) | (
        (contrib[:, 1, main] == contrib[:, 0, main]) & (contrib[:, 1, 0] < contrib[:, 0, 0]))
    opt_order = [(1, 0) if flag else (0, 1) for flag in hub_first]

    def encoding(t):
        enc = np.zeros(P, dtype=np.int8)
        enc[canon[:t]] = choices[:t]
        return tuple(enc.tolist())

    def pen_for(tab, t, used_b, eps_b):
        used, cum_save, cum_cost, ratio, _ = tab
        need = used_b + used[t] - eps_b - exact._ROUND_SLACK
        if need <= 0.0:
            return 0.0, -1
        return exact._repair_price(need, cum_save[t], cum_cost[t], ratio)

    pos2 = budget[0][4] if budget else None
    pos3 = budget[1][4] if budget else None

    def rec(t, s0, s1, s2):
        nonlocal best, best_prefix
        pen = 0.0
        k2 = k3 = -1
        if constrained:
            p23, _ = pen_for(budget[2], t, s2, eps3)
            if s1 + suffix[t, 1] + p23 > eps2 + exact._ROUND_SLACK:
                return
            p32, _ = pen_for(budget[3], t, s1, eps2)
            if s2 + suffix[t, 2] + p32 > eps3 + exact._ROUND_SLACK:
                return
            pen2, k2 = pen_for(budget[0], t, s1, eps2)
            pen3, k3 = pen_for(budget[1], t, s2, eps3)
            pen = pen2 if pen2 >= pen3 else pen3
            if pen == math.inf:
                return
        sums = (s0, s1, s2)
        if main:
            if sums[main] + suffix[t, main] >= best_prefix[0]:
                return
        else:
            b1 = s0 + suffix[t, 0] + pen
            bound = (b1, b1, s1 + suffix[t, 1], s2 + suffix[t, 2])
            if bound > best_prefix or (bound == best_prefix and best is not None
                                       and encoding(t) >= best[4]):
                return
        if t == P:
            if round6(s1) > eps2 or round6(s2) > eps3:
                return
            best = (sums[main], s0, s1, s2, encoding(P))
            best_prefix = best[:4]
            return
        opts = contrib[t]
        order_t = opt_order[t]
        if (k2 >= 0 and pos2[t] <= k2) or (k3 >= 0 and pos3[t] <= k3):
            order_t = (order_t[1], order_t[0])
        for opt in order_t:
            c0 = opts[opt, 0]
            if not math.isfinite(c0):
                continue
            if opt == 1:
                a, b = pd.load_nodes[t]
                q = pd.load_q[t]
                loads[a] += q
                ok = loads[a] <= caps[a] + FEAS_TOL
                if b >= 0:
                    loads[b] += q
                    ok = ok and loads[b] <= caps[b] + FEAS_TOL
                if ok:
                    choices[t] = 1
                    rec(t + 1, s0 + c0, s1 + opts[1, 1], s2 + opts[1, 2])
                loads[a] -= q
                if b >= 0:
                    loads[b] -= q
            else:
                choices[t] = 0
                rec(t + 1, s0 + c0, s1 + opts[0, 1], s2 + opts[0, 2])

    rec(0, pd.fixed, 0.0, 0.0)
    return best


def _tight_capacity():
    """Six nodes at 40% of their hub capacities, where loads bind
    (``test_hub_loads_bind_on_the_tight_capacity_instance``).  At half
    capacity a search that checked both ends of a two-hub pair against
    the first hub's capacity kept every key."""
    inst = generate(GeneratorSpec(n=6, p=3, seed=11))
    return dataclasses.replace(inst, capacity=inst.capacity * 0.4)


def _quarter_capacity():
    """Six nodes, two hubs, at a quarter of their hub capacities: the cost
    floor overloads a hub in most configs, and both hubs in a third."""
    inst = generate(GeneratorSpec(n=6, p=2, seed=11))
    return dataclasses.replace(inst, capacity=inst.capacity * 0.25)


INSTANCES = {
    "c10": lambda: generate(GeneratorSpec(n=5, p=2, seed=100)),
    "n6-tight-capacity": _tight_capacity,
    "n6-quarter-capacity": _quarter_capacity,
}


def _hex_key(key):
    """A key with each objective spelled by its bits; None stays None."""
    return None if key is None else tuple(float(z).hex() for z in key[:4]) + (key[4],)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_the_search_keeps_the_numpy_scalar_keys(name):
    """Every config, main objective 0-2, unconstrained and on every 3 x 3
    cell, unprimed and primed with the key's own 4-prefix."""
    inst = INSTANCES[name]()
    index = exact._build_index(inst, 0.5, DEFAULT_BUDGET)
    rows = np.array([exact._solve_min(index, m, math.inf, math.inf).objectives.as_tuple()
                     for m in range(3)])
    cells = [(math.inf, math.inf)] + EpsilonGrid(3, 3).cells(
        (rows[:, 1].min(), rows[:, 1].max()), (rows[:, 2].min(), rows[:, 2].max()))
    caps = inst.capacity
    found = primed = 0
    for g in range(index.total):
        pd = index.pair_data(g)
        for eps2, eps3 in cells:
            for main in range(3):
                want = ref_bb_routing(pd, caps, main, eps2, eps3, UNPRIMED)
                got = exact._bb_routing(pd, caps, main, eps2, eps3, UNPRIMED)
                assert _hex_key(got) == _hex_key(want), (g, main, eps2, eps3)
                if want is None:
                    continue
                found += 1
                want = ref_bb_routing(pd, caps, main, eps2, eps3, want[:4])
                got = exact._bb_routing(pd, caps, main, eps2, eps3, got[:4])
                assert _hex_key(got) == _hex_key(want), (g, main, eps2, eps3, "primed")
                primed += want is not None
    assert found > 0 and primed > 0


def test_hub_loads_bind_on_the_tight_capacity_instance():
    """Lifting the tight capacities changes some config's cost routing, so
    the differential above covers the load check where it prunes."""
    inst = _tight_capacity()
    index = exact._build_index(inst, 0.5, DEFAULT_BUDGET)
    lifted = np.full(inst.n, math.inf)
    assert any(
        ref_bb_routing(index.pair_data(g), inst.capacity, 0, math.inf, math.inf, UNPRIMED)
        != ref_bb_routing(index.pair_data(g), lifted, 0, math.inf, math.inf, UNPRIMED)
        for g in range(index.total))


def _root_capacity_price(tables):
    """The capacity term at a search's root, as the search prices it from
    ``_capacity_tables``: the largest fractional shed over the hubs."""
    return max((exact._repair_price(used[0] - limit, save[0], cost[0], ratio)[0]
                for _, limit, used, save, cost, ratio, _ in tables), default=0.0)


@pytest.mark.parametrize("seed", [100, 103])
def test_the_root_capacity_bound_never_exceeds_the_cheapest_fitting_routing(seed):
    """Five nodes at a quarter of their hub capacities.  Per config, the
    cost floor plus the root's capacity price is at most the cost of the
    oracle's cheapest routing that fits the hub capacities, and the price
    is positive on some config, one of whose floor overloads both hubs."""
    base = generate(GeneratorSpec(n=5, p=2, seed=seed))
    inst = dataclasses.replace(base, capacity=base.capacity * 0.25)
    index = exact._build_index(inst, 0.5, DEFAULT_BUDGET)
    caps = inst.capacity.tolist()
    priced = two_hubs = 0
    for g in range(index.total):
        pd = index.pair_data(g)
        tables = exact._capacity_tables(pd, caps)
        price = _root_capacity_price(tables)
        found = oracle.config_states(inst, pd.design)
        if found is not None:
            # the oracle sums in another order: equal bounds may differ by ulps
            assert pd.fixed + pd.suffix_min[0, 0] + price <= found[0][:, 0].min() + 1e-6, g
        priced += price > 0
        two_hubs += price > 0 and len(tables) > 1
    assert priced > 0 and two_hubs > 0


def _boundary_pd(q):
    """Two pairs on one hub, each cheaper via the hub (2) than direct (3
    and 4), with demands ``q``: hand-built search data."""
    option = [[[3.0, 0.0, 0.0], [2.0, 0.0, 0.0]], [[4.0, 0.0, 0.0], [2.0, 0.0, 0.0]]]
    return exact._PairData(
        design=None, fixed=0.0, contrib=np.array(option),
        suffix_min=np.array([[4.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        load_nodes=np.array([[0, -1], [0, -1]]), load_q=np.array(q),
        canon_pos=np.array([0, 1]))


@pytest.mark.parametrize("q, cap", [((0.1, 0.3), 0.3 - 1e-9), ((0.1, 0.2), 0.1 - 1e-9)],
                         ids=["a-load-put-back", "a-load-on-the-limit"])
def test_a_routing_whose_load_lands_on_the_limit_is_found(q, cap):
    """A capacity one ``FEAS_TOL`` below a sum of demands: the routing
    whose load lands exactly on the limit is the cheapest, and both the
    unprimed and the primed search return it.

    In the first case the search tries both pairs via the hub first, and
    a load taken back by subtraction (0.1 + 0.3 - 0.3) would then be 0.1
    plus an ulp, leaving the hub route of the second pair one ulp over.
    In the second case the suffix floor load, summed in another order, is
    one ulp above the demand the pair that remains can shed, so the
    capacity term would price the search's one fitting subtree out."""
    pd = _boundary_pd(q)
    caps = [cap]
    fits = []
    for enc in itertools.product((0, 1), repeat=2):
        cost, load = 0.0, 0.0
        for t, x in enumerate(enc):
            cost += pd.contrib[t, x, 0]
            load += q[t] * x
        if load <= cap + FEAS_TOL:
            fits.append((cost, enc))
    cost, enc = min(fits)
    want = (cost, cost, 0.0, 0.0, enc)
    assert exact._bb_routing(pd, caps, 0, math.inf, math.inf, UNPRIMED) == want
    assert exact._bb_routing(pd, caps, 0, math.inf, math.inf, want[:4]) == want


def test_a_search_leaves_no_reference_cycle():
    """The search's lists die at return.  Kept in a cycle through the
    recursive closure, they would wait for the cyclic collector, whose
    runs cost a cell solve's many short searches more than the lists
    save."""
    inst = INSTANCES["c10"]()
    index = exact._build_index(inst, 0.5, DEFAULT_BUDGET)
    pd = index.pair_data(0)
    gc.collect()
    gc.disable()
    try:
        for eps2 in (math.inf, 0.0):
            exact._bb_routing(pd, inst.capacity, 0, eps2, math.inf, UNPRIMED)
            assert gc.collect() == 0, eps2
    finally:
        gc.enable()


def test_a_root_that_the_budget_checks_prune_builds_no_shed_tables(monkeypatch):
    """A cost cell whose emission budget lies below the config's emission
    floor ends at the root's budget checks, before the capacity term is
    priced, so that search builds no shed tables.  A search whose root
    passes builds them once, though its floor overloads a hub."""
    inst = _quarter_capacity()
    index = exact._build_index(inst, 0.5, DEFAULT_BUDGET)
    caps = inst.capacity.tolist()
    pd = next(pd for pd in map(index.pair_data, range(index.total))
              if exact._capacity_tables(pd, caps))
    build = exact._capacity_tables

    def refuse(*args):
        raise AssertionError("shed tables built for a pruned root")

    monkeypatch.setattr(exact, "_capacity_tables", refuse)
    assert exact._bb_routing(pd, caps, 0, pd.suffix_min[0, 1] / 2, math.inf, UNPRIMED) is None
    calls = []
    monkeypatch.setattr(exact, "_capacity_tables", lambda *args: calls.append(args) or build(*args))
    assert exact._bb_routing(pd, caps, 0, math.inf, math.inf, UNPRIMED) is not None
    assert len(calls) == 1
