"""Exact-solver checks against naive enumeration and the exhaustive oracle.

The 3-node instance is small enough to enumerate every design and every
per-pair route combination directly in the test (at most 9 x 64 plans),
giving a reference that shares no code with the solver under test: designs
come from ``itertools`` and the omega rule (``oracle.naive_designs``),
routes from the assignments and ``oracle.route_time`` (``naive_routes``),
loads from ``oracle.hub_loads`` and objectives from the oracle's scalar
reference pricer (``oracle.plan_objectives``).  The exhaustive oracle of
``tests/oracle.py`` prices on that reference too and covers the generated
5- and 6-node instances.  The solver side is what
``epsilon_constraint_front`` runs: the configuration index
(``_build_index``), each config's design and search data (``pair_data``)
and the routing search (``_bb_routing``).  The lazy visiting order is checked
against a stable sort of the conditioned cost bound over every config, and
that bound against the oracle's per-design routings.
"""

import dataclasses
import hashlib
import itertools
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from hubnet import evaluation, exact, metaheuristics
from hubnet.evaluation import (
    check,
    compute_objectives,
    hub_tables,
    plan_from_mask,
)
from hubnet.fileio import write_front_csv
from hubnet.exact import (
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    EpsilonGrid,
    configuration_count,
    epsilon_constraint_front,
)
from hubnet.fronts import dominates
from hubnet.generator import GeneratorSpec, generate
from hubnet.metaheuristics import ALGORITHMS, AlgorithmParams
from hubnet.model import check_feasibility
from hubnet.workbench import run_solver

import oracle
from conftest import make_instance
from oracle import (
    canonical_pairs,
    config_states,
    hub_loads,
    implied_route,
    naive_designs,
    oracle_front,
    plan_objectives,
    route_time,
)

# the routing search's prime when no competitor is known
UNPRIMED = (math.inf,) * 4


def naive_routes(inst, design, i, j):
    """The direct route plus the one hub route the assignments allow, each
    kept only within the pair's time cap."""
    routes = [(), implied_route(design.assignment[i], design.assignment[j])]
    return [r for r in routes if route_time(inst, r, i, j) <= inst.max_transfer_time[i, j] + 1e-9]


def naive_solutions(inst, alpha_prime=0.5):
    """Every feasible (design, plan, objectives) by raw enumeration."""
    out = []
    for design in naive_designs(inst):
        options = []
        pairs = canonical_pairs(inst.n)
        for i, j in pairs:
            routes = naive_routes(inst, design, i, j)
            if not routes:
                options = None
                break
            options.append(routes)
        if options is None:
            continue
        for combo in itertools.product(*options):
            mask = np.zeros((inst.n, inst.n), dtype=bool)
            for (i, j), route in zip(pairs, combo):
                mask[i, j] = bool(route)
            plan = plan_from_mask(mask)
            loads = hub_loads(inst, design, plan, alpha_prime)
            if np.any(loads > inst.capacity + 1e-9):
                continue
            z = plan_objectives(inst, design, plan, alpha_prime)
            out.append((design, plan, z))
    return out


def naive_best_z1(solutions, eps2=math.inf, eps3=math.inf):
    vals = [z[0] for _, _, z in solutions if z[1] <= eps2 and z[2] <= eps3]
    return min(vals) if vals else None


def index_designs(inst):
    """The exact index's designs in config-id order."""
    index = exact._build_index(inst, 0.5, DEFAULT_BUDGET)
    return [index.pair_data(g).design for g in range(index.total)]


def indexed_routings(inst, eps2=math.inf, eps3=math.inf):
    """(design, plan) per config as the exact solver routes it: min cost under
    the bounds, hub capacities and time caps; plan None when nothing fits."""
    index = exact._build_index(inst, 0.5, DEFAULT_BUDGET)
    for g in range(index.total):
        pd = index.pair_data(g)
        key = exact._bb_routing(pd, inst.capacity, 0, eps2, eps3, UNPRIMED)
        if key is None:
            yield pd.design, None
            continue
        mask = np.zeros_like(index.ctx.offdiag)
        mask[index.ctx.offdiag] = key[4]
        yield pd.design, plan_from_mask(mask)


def test_configuration_count_hand_values():
    # h=1: C(3,1)*1^2 = 3; h=2: C(3,2)*2^1 = 6
    assert configuration_count(3, 2) == 9
    assert configuration_count(3, 3) == 9 + 1
    assert configuration_count(5, 2) == 5 + 10 * 2 ** 3


def test_enumerate_configurations_complete(tiny):
    designs = index_designs(tiny)
    assert designs == list(naive_designs(tiny))
    assert len(designs) == 9
    seen = {(d.hubs, d.assignment) for d in designs}
    expected = {((k,), (k, k, k)) for k in range(3)}
    for k, l in itertools.combinations(range(3), 2):
        spoke = ({0, 1, 2} - {k, l}).pop()
        for a in (k, l):
            assignment = [0, 0, 0]
            assignment[k], assignment[l], assignment[spoke] = k, l, a
            expected.add(((k, l), tuple(assignment)))
    assert seen == expected


def test_enumeration_respects_omega(tiny):
    # omega below the shortest spoke link kills every design with a spoke
    capped = dataclasses.replace(tiny, omega=50.0)
    assert index_designs(capped) == []
    # omega=100: only node 1 is coverable as a spoke (via node 0), and node 0
    # only via node 1, so exactly two designs survive, one assignment each
    near = dataclasses.replace(tiny, omega=100.0)
    survivors = [(d.hubs, d.assignment) for d in index_designs(near)]
    assert survivors == [((0, 2), (0, 0, 2)), ((1, 2), (1, 1, 2))]


def test_budget_error_carries_counts(tiny):
    with pytest.raises(EnumerationBudgetError) as err:
        epsilon_constraint_front(tiny, EpsilonGrid(2, 2), budget=5)
    assert err.value.count == 9
    assert err.value.budget == 5


def test_budget_error_names_the_index_size(tiny):
    """The message names the index the refused count would take, at 32 B
    per configuration; the budget itself stays a configuration count."""
    with pytest.raises(EnumerationBudgetError) as err:
        epsilon_constraint_front(tiny, EpsilonGrid(2, 2), budget=5)
    assert str(err.value) == ("configuration count 9 exceeds enumeration budget 5 (an index "
                              "of 288 B at 32 B per configuration); use a metaheuristic "
                              "solver for this size")
    assert str(pickle.loads(pickle.dumps(err.value))) == str(err.value)
    assert "an index of 3.2 GB " in str(EnumerationBudgetError(DEFAULT_BUDGET + 1, DEFAULT_BUDGET))
    assert "an index of 1 MB " in str(EnumerationBudgetError(31_250, 1))
    assert "an index of 999 kB " in str(EnumerationBudgetError(31_234, 1))
    # a count past the float range still formats
    assert " PB at 32 B" in str(EnumerationBudgetError(configuration_count(400, 200), 1))


def test_epsilon_grid_cells():
    assert EpsilonGrid.bound_values(0.0, 6.0, 3) == [2.0, 4.0, 6.0]
    assert EpsilonGrid.bound_values(5.0, 5.0, 4) == [5.0]
    grid = EpsilonGrid(2, 3)
    cells = grid.cells((0.0, 4.0), (0.0, 3.0))
    assert cells == [(2.0, 1.0), (2.0, 2.0), (2.0, 3.0),
                     (4.0, 1.0), (4.0, 2.0), (4.0, 3.0)]
    with pytest.raises(ValueError):
        EpsilonGrid(0, 3)


def test_solve_routing_matches_naive(tiny):
    """Per config, the exact solver's routing search finds the naive minimum
    cost under each bound pair, and nothing when no routing fits."""
    sols = naive_solutions(tiny)
    for eps2, eps3 in ((math.inf, math.inf), (3400.0, math.inf),
                       (math.inf, 5.0), (3300.0, 10.0), (100.0, 0.1)):
        for design, plan in indexed_routings(tiny, eps2, eps3):
            mine = [(d, p, z) for d, p, z in sols if d == design]
            want = naive_best_z1(mine, eps2, eps3)
            if want is None:
                assert plan is None
                continue
            z = compute_objectives(tiny, design, plan, 0.5)
            assert z[0] == want
            assert z[1] <= eps2 and z[2] <= eps3
            assert check(tiny, design, plan, 0.5)[0] == []


def test_solve_routing_respects_capacity(tiny):
    squeezed = dataclasses.replace(tiny, capacity=np.array([1e9, 150.0, 1e9]))
    sols = naive_solutions(squeezed)
    for design, plan in indexed_routings(squeezed):
        mine = [(d, p, z) for d, p, z in sols if d == design]
        want = naive_best_z1(mine)
        if want is None:
            assert plan is None
            continue
        z = compute_objectives(squeezed, design, plan, 0.5)
        assert z[0] == want
        loads = hub_loads(squeezed, design, plan, 0.5)
        assert np.all(loads <= squeezed.capacity + 1e-9)


def test_oracle_equals_naive_front(tiny):
    naive = naive_solutions(tiny)
    rows = np.array([z for _, _, z in naive])
    keep_rows = rows[_brute_nondominated(rows)]
    want = {tuple(r) for r in keep_rows}

    got = {s.objectives.as_tuple() for s in oracle_front(tiny)}
    assert got == want


def test_oracle_handles_binding_capacity(tiny):
    squeezed = dataclasses.replace(
        tiny, capacity=np.array([200.0, 150.0, 180.0]))
    naive = naive_solutions(squeezed)
    rows = np.array([z for _, _, z in naive])
    want = {tuple(r) for r in rows[_brute_nondominated(rows)]}
    got = {s.objectives.as_tuple() for s in oracle_front(squeezed)}
    assert got == want


def test_oracle_handles_time_caps(tiny):
    capped = dataclasses.replace(tiny, max_transfer_time=np.full((3, 3), 24.0))
    naive = naive_solutions(capped)
    rows = np.array([z for _, _, z in naive])
    want = {tuple(r) for r in rows[_brute_nondominated(rows)]}
    got = {s.objectives.as_tuple() for s in oracle_front(capped)}
    assert got == want


def _brute_nondominated(rows):
    keep = np.ones(len(rows), dtype=bool)
    seen = set()
    for i in range(len(rows)):
        t = tuple(rows[i])
        if t in seen:
            keep[i] = False
            continue
        for j in range(len(rows)):
            if j != i and all(rows[j] <= rows[i]) and any(rows[j] < rows[i]):
                keep[i] = False
                break
        if keep[i]:
            seen.add(t)
    return keep


def test_oracle_rejects_large_instances():
    inst = generate(GeneratorSpec(n=7, p=2, seed=0))
    with pytest.raises(ValueError, match="n <= 6"):
        oracle_front(inst)


def test_front_members_lie_on_oracle_front(tiny, gen5):
    for inst in (tiny, gen5):
        oracle = {s.objectives.as_tuple() for s in oracle_front(inst)}
        front = epsilon_constraint_front(inst, EpsilonGrid(6, 6))
        assert len(front) >= 1
        for s in front:
            assert s.objectives.as_tuple() in oracle
            assert check_feasibility(inst, s, 0.5) == []


@pytest.mark.parametrize("n, seed", [(3, 5), (4, 0), (5, 1), (5, 3), (6, 2), (6, 3)])
def test_zero_demand_fronts_equal_the_oracle_front(n, seed):
    """With nothing to ship every routing of a design ties, so the routing
    search crosses a plateau of 2^P equal keys that only the encoding
    separates; every node may open a hub (p = n).  The front is still the
    oracle's, and each winner flies the least encoding: direct everywhere."""
    inst = generate(GeneratorSpec(n=n, p=n, seed=seed))
    inst = dataclasses.replace(inst, demand=np.zeros_like(inst.demand))
    front = epsilon_constraint_front(inst, EpsilonGrid(2, 2))
    assert (sorted(s.objectives.as_tuple() for s in front)
            == sorted(s.objectives.as_tuple() for s in oracle_front(inst)))
    for s in front:
        assert not np.any(s.plan.hub)


def test_single_cell_grid_returns_cost_optimum(tiny):
    sols = naive_solutions(tiny)
    want = naive_best_z1(sols)
    front = epsilon_constraint_front(tiny, EpsilonGrid(1, 1))
    assert len(front) == 1
    assert front.solutions[0].objectives.z1 == want


def test_front_is_deterministic(gen5):
    from hubnet.fronts import solution_sort_key
    a = epsilon_constraint_front(gen5, EpsilonGrid(4, 4))
    b = epsilon_constraint_front(gen5, EpsilonGrid(4, 4))
    assert [solution_sort_key(s) for s in a] == [solution_sort_key(s) for s in b]


def test_front_mutually_nondominated(gen5):
    front = epsilon_constraint_front(gen5, EpsilonGrid(5, 5))
    rows = [s.objectives.as_tuple() for s in front]
    for i, a in enumerate(rows):
        for j, b in enumerate(rows):
            if i != j:
                assert not dominates(a, b)


def test_infeasible_instance_gives_empty_front(tiny):
    # no route can meet a 5-minute cap anywhere
    impossible = dataclasses.replace(
        tiny, max_transfer_time=np.where(np.eye(3), 0.0, 5.0))
    front = epsilon_constraint_front(impossible, EpsilonGrid(2, 2))
    assert len(front) == 0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_config_with_a_stranded_pair_is_never_visited_and_routes_nothing(tiny):
    """A config in which some pair has no route within its time cap has an
    infinite bound in all three lb rows, so no visiting order yields it.
    Searched anyway, the routing search finds nothing, with or without
    budgets or an incumbent, and without a float warning."""
    slow = np.array(tiny.travel_time)
    slow[0, 2] = slow[2, 0] = 30.0        # the detour via node 1 takes 25
    cap = np.array(tiny.max_transfer_time)
    cap[0, 2] = 26.0
    inst = dataclasses.replace(tiny, travel_time=slow, max_transfer_time=cap)
    index = exact._build_index(inst, 0.5, DEFAULT_BUDGET)
    stranded = []
    for g in range(index.total):
        pd = index.pair_data(g)
        if not np.isinf(pd.contrib[:, :, 0]).all(axis=1).any():
            continue
        stranded.append(g)
        assert np.isinf(index.lb[:, g]).all()
        for main in range(3):
            for eps2, eps3, incumbent in ((math.inf, math.inf, UNPRIMED),
                                          (1e6, 1e6, UNPRIMED),
                                          (math.inf, 1e6, UNPRIMED),
                                          (math.inf, math.inf, (1e9, math.inf, math.inf, math.inf))):
                assert exact._bb_routing(pd, inst.capacity, main, eps2, eps3, incumbent) is None
    assert 0 < len(stranded) < index.total
    for main in range(3):
        visited = [g for _, g in exact._visiting_order(index, main, math.inf, math.inf)]
        assert visited and not set(visited) & set(stranded)


def test_default_budget_is_large():
    assert DEFAULT_BUDGET == 10 ** 8


@pytest.mark.parametrize("n", [5, 6, 7, 8])
@pytest.mark.parametrize("cap", [None, 2.0, 1.0], ids=["uncapped", "some-options-late", "pairs-stranded"])
def test_heuristic_and_exact_paths_price_routes_alike(n, cap):
    """The metaheuristics price hub routes with ``hub_tables``, the exact
    solver with its route table ``routes``: both must give the same bits,
    inf entries over the time cap included.

    ``cap`` sets every time cap to that multiple of the median flight time:
    at 2.0 some options break their cap (inf entries in the table), at 1.0
    some pair has no feasible option at all (no search data)."""
    inst = generate(GeneratorSpec(n=n, p=3, seed=n))
    if cap is not None:
        offdiag = ~np.eye(n, dtype=bool)
        limit = cap * np.median(inst.travel_time[offdiag])
        inst = dataclasses.replace(inst, max_transfer_time=np.where(offdiag, limit, 0.0))
    index = exact._build_index(inst, 0.83, DEFAULT_BUDGET)
    ii, jj = np.indices((n, n))
    rng = np.random.default_rng(n)
    for g in rng.choice(index.total, size=min(16, index.total), replace=False):
        a = exact._options(index, np.array([g]))[1][0]
        tables = hub_tables(index.ctx, np.asarray(index.pair_data(int(g)).design.assignment))
        opts = index.routes.reshape(-1, 3)[exact._route_at(n, index.stride, ii, jj, a[ii], a[jj])]
        assert tables.tobytes() == opts.tobytes()


def _lattice_instance():
    """Six nodes on a 100-unit lattice with equal demands: the round
    numbers make many configurations share a stock cost bound."""
    pts = np.array([[300, 200], [200, 100], [100, 0], [0, 0], [0, 300], [200, 300]], dtype=float)
    distance = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    return make_instance(6, 3, distance=distance, demand=np.full((6, 6), 60.0))


def _payoff_cells(index, grid):
    """The grid's cells over the ranges that ``epsilon_constraint_front`` spans."""
    payoff = [exact._solve_min(index, m, math.inf, math.inf)
              for m in range(3)]
    rows = np.array([s.objectives.as_tuple() for s in payoff])
    return grid.cells((rows[:, 1].min(), rows[:, 1].max()), (rows[:, 2].min(), rows[:, 2].max()))


def _tie_cells(index):
    """Emission budgets at which a config priced in the first chunk (the
    first 16 of the stock order) gets a conditioned bound exactly equal to
    the stock bound of ``order[16]``, which opens the second chunk and has
    the smaller id: the walk must price that chunk before yielding either."""
    lb, order = index.lb, index.order
    first = int(order[16])
    target = lb[0, first]
    cells = []
    for g in map(int, order[:16]):
        if g < first or lb[0, g] >= target:
            continue

        def bound(eps2, g=g):
            return exact._conditional_lb(index, np.array([g]), eps2, math.inf)[0]

        # bisect the budget between the emission floor and a loose one
        lo, hi = lb[1, g], lb[1, g] + 1e6
        if not bound(lo) > target:
            continue
        for _ in range(200):
            mid = (lo + hi) / 2
            value = bound(mid)
            if value == target or mid in (lo, hi):
                break
            lo, hi = (mid, hi) if value > target else (lo, mid)
        if (value == target and lb[1, first] <= mid + exact._ROUND_SLACK
                and exact._conditional_lb(index, np.array([first]), mid, math.inf)[0] == target):
            cells.append((mid, math.inf))
    return cells


def test_visiting_order_is_the_stable_sort_of_the_conditioned_bound(gen5, gen6):
    """The lazy walk yields exactly the configs that fit the cell, in the
    order a stable sort of the conditioned bound over every config gives."""
    lattice = _lattice_instance()
    for inst in (gen5, gen6, lattice):
        index = exact._build_index(inst, 0.5, DEFAULT_BUDGET)
        cells = _payoff_cells(index, EpsilonGrid(4, 4)) + [(math.inf, math.inf)]
        if inst is lattice:
            assert len(np.unique(index.lb[0])) < index.total     # tied stock bounds
            ties = _tie_cells(index)
            assert ties
            cells += ties
        bound = {}
        for eps2, eps3 in cells:
            every = exact._conditional_lb(index, np.arange(index.total), eps2, eps3)
            # inf marks a config whose budgets no repair can meet
            fits = ((index.lb[1] <= eps2 + exact._ROUND_SLACK)
                    & (index.lb[2] <= eps3 + exact._ROUND_SLACK) & np.isfinite(every))
            want = [(float(every[g]), int(g)) for g in np.argsort(every, kind="stable") if fits[g]]
            assert list(exact._visiting_order(index, 0, eps2, eps3)) == want
            bound[eps2, eps3] = every
        # the conditioned bound is the stock one without budgets, never below it
        assert np.array_equal(bound[math.inf, math.inf], index.lb[0])
        assert all(np.all(b >= index.lb[0]) for b in bound.values())



def test_a_stock_bound_walk_is_the_stable_sort_of_the_floor(gen5, gen6):
    """Where a solve's bound is the stock floor (payoff rows 1 and 2, and
    the cost row without budgets), the walk yields every config with a
    finite floor, in the floor's stable order, with no heap to settle its
    ties: the lattice's tied floors, and a time-capped gen6 whose configs
    but one have a stranded pair (an infinite floor), included."""
    capped = _time_capped(gen6, "one-stop")
    for inst in (gen5, gen6, _lattice_instance(), capped):
        index = exact._build_index(inst, 0.5, DEFAULT_BUDGET)
        for main in range(3):
            floor = index.lb[main]
            want = [(float(floor[g]), int(g)) for g in np.argsort(floor, kind="stable")
                    if np.isfinite(floor[g])]
            assert list(exact._visiting_order(index, main, math.inf, math.inf)) == want
        if inst is capped:
            assert 0 < np.isfinite(index.lb[0]).sum() < index.total
        else:
            assert np.isfinite(index.lb).all()
            assert len(np.unique(index.lb[2])) < index.total     # tied floors

def _oracle_states(inst):
    """The exact index, the oracle's rounded objective states per config id
    (None where nothing routes), and a 5 x 5 grid of cells over them."""
    index = exact._build_index(inst, 0.5, DEFAULT_BUDGET)
    states = []
    for g in range(index.total):
        found = config_states(inst, index.pair_data(g).design)
        states.append(None if found is None else np.round(found[0], 6))
    rows = np.concatenate([s for s in states if s is not None])
    cells = EpsilonGrid(5, 5).cells((rows[:, 1].min(), rows[:, 1].max()),
                                    (rows[:, 2].min(), rows[:, 2].max()))
    return index, states, cells


def _fitting_costs(objs, eps2, eps3):
    if objs is None:
        return np.empty(0)
    return objs[(objs[:, 1] <= eps2) & (objs[:, 2] <= eps3), 0]


@pytest.mark.parametrize("name", ["tiny", "gen5", "gen6"])
def test_conditioned_bound_never_exceeds_a_fitting_routing(name, request):
    """Per config and cell, the conditioned cost bound is at most the cost
    of the cheapest routing (capacities and time caps included) whose
    rounded emissions and penalty fit the cell."""
    index, states, cells = _oracle_states(request.getfixturevalue(name))
    raised = 0
    for eps2, eps3 in cells:
        bound = exact._conditional_lb(index, np.arange(index.total), eps2, eps3)
        for g, objs in enumerate(states):
            fit = _fitting_costs(objs, eps2, eps3)
            if len(fit):
                assert bound[g] <= fit.min() + 1e-6, (g, eps2, eps3)
                raised += bound[g] > index.lb[0, g] + 1e-6
    assert raised > 0        # the budgets do lift some bounds


@pytest.mark.parametrize("name", ["tiny", "gen5", "gen6"])
def test_routing_search_cost_is_the_oracle_cheapest_fitting_routing(name, request):
    """Per config and cell, the cost the routing search reaches on its own
    option arrays is the cost of the oracle's cheapest fitting routing,
    priced on the typed path.  A pricing slip in the solver's arrays shows
    here even where it moves no cell winner, whose objectives the typed
    path re-prices."""
    inst = request.getfixturevalue(name)
    index, states, cells = _oracle_states(inst)
    for eps2, eps3 in cells:
        for g, objs in enumerate(states):
            key = exact._bb_routing(index.pair_data(g), inst.capacity, 0, eps2, eps3, UNPRIMED)
            fit = _fitting_costs(objs, eps2, eps3)
            assert (key is None) == (len(fit) == 0), (g, eps2, eps3)
            if key is not None:
                assert abs(key[0] - fit.min()) <= 1e-6, (g, eps2, eps3)


def test_a_cost_search_crosses_a_tie_plateau_to_the_least_encoding():
    """Two pairs, each hub route cheaper (1 vs 2) and loading the same hub,
    whose capacity takes one of them.  The dive flies pair 0 via the hub
    and lands on encoding (1, 0); (0, 1) ties it at cost 3 and is smaller,
    so the search must cross the plateau to reach it.  Primed with that
    cost from elsewhere, the search still returns the tie."""
    option = [[2.0, 0.0, 0.0], [1.0, 0.0, 0.0]]      # direct, hub
    pd = exact._PairData(
        design=None, fixed=0.0, contrib=np.array([option, option]),
        suffix_min=np.array([[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]),
        load_nodes=np.array([[0, -1], [0, -1]]), load_q=np.array([1.0, 1.0]),
        canon_pos=np.array([0, 1]))
    caps = np.array([1.0])
    want = (3.0, 3.0, 0.0, 0.0, (0, 1))
    assert exact._bb_routing(pd, caps, 0, math.inf, math.inf, UNPRIMED) == want
    assert exact._bb_routing(pd, caps, 0, math.inf, math.inf, want[:4]) == want


def test_a_primed_routing_search_returns_no_key_above_its_prime():
    """Primed with a key prefix, the routing search returns only keys whose
    prefix is at most the prime.  An emissions or penalty search primed
    with its own optimum finds nothing; a cost search prunes with ``>`` on
    the prefix, so it may return that optimum's tie.  Primed above the
    optimum, every search returns the unprimed key."""
    inst = generate(GeneratorSpec(n=6, p=2, seed=3))
    index = exact._build_index(inst, 0.5, DEFAULT_BUDGET)
    rows = np.array([exact._solve_min(index, m, math.inf, math.inf).objectives.as_tuple()
                     for m in range(3)])
    cells = [(math.inf, math.inf)] + EpsilonGrid(2, 2).cells(
        (rows[:, 1].min(), rows[:, 1].max()), (rows[:, 2].min(), rows[:, 2].max()))
    ties = 0
    for eps2, eps3 in cells:
        for g in range(index.total):
            pd = index.pair_data(g)
            for main in range(3):
                key = exact._bb_routing(pd, inst.capacity, main, eps2, eps3, UNPRIMED)
                if key is None:
                    continue
                own = exact._bb_routing(pd, inst.capacity, main, eps2, eps3, key[:4])
                if own is not None:
                    assert main == 0 and own[:4] == key[:4], (g, main, eps2, eps3)
                    ties += 1
                loose = (key[0] + 1.0, math.inf, math.inf, math.inf)
                assert exact._bb_routing(pd, inst.capacity, main, eps2, eps3, loose) == key
    assert ties > 0


# sha256 of the written front CSV; a search change that moves a byte of
# these fronts fails here, and its author re-records the digest
_PINNED_FRONTS = {
    (7, 6): "8c4748bc7c3196af3e148c69ce61db519a3d93f139e2b2e2944ceb3a480f5f82",
    (1, 3): "85b484611b8774daab45371a910437bcb2497faa7ce612682cee9f9340a6ff76",
    (5, 3): "2fd52bad5f5c8f2239eae5183879a111a5d49bf077b3853f16df8b1b0ac513e5",
    (16, 3): "cfe0c686cb77fa05061a7f255d8000ba04ea9514f06880615eecc577faceeb0f",
    (17, 3): "463a85660c8d58f1684ef5857d71b481b64c758dd09fbba78ae43f6d23ccc151",
    # the routing search does most of these two solves' work
    (11, 3): "a19fe2fd3e5ff4bb61a22be075d6c7d87f0ee8e125e249691c442bfcb66a71d8",
    (13, 3): "9bd98c8cf03ddcd4cbf685627190f6d491cf4e7ad7f6e1ee3733f7c10c83828f",
    # hub capacity binds at the cost floor: without the capacity term in
    # the cost bound, seed 3 (the bench's probe) missed 30 s and seed 15
    # took over 15 s
    (3, 3): "7bd572dc7f90df975e8cff361fd43d9df5665163bd6009157c2ef6a0767a8af3",
    (15, 3): "3a3c42b55b4664c44b015e8b1b70e12a9e7b0521f7b0233375060cc46594af69",
    # the rest of seeds 0-19 at 3 x 3, and seed 2 at 4 x 4: with the ones
    # above, the set that a change to the exact solver is held to
    (0, 3): "1faa65b553f12bf040ecb3abae50f4b3e8fb7db11f29ddd166f70204e0292b82",
    (2, 3): "27ec40c06f82aad7cb1b1bbbd73b099db6778c8f085b3f316fd3af063f63c402",
    (4, 3): "cdcf640a8fe67a04bc5405b4c6e39c76ed5d0631525374703364c2dbe9abb3d0",
    (6, 3): "6c838a5c97709c09606d76baa7299ba9302852d35b622a9434691bef40698f75",
    (7, 3): "4f3aa915bc0bf681f3ebd3facd50c65fb22b3be29a559028e73d26127e6e1aaf",
    (8, 3): "c6716d775e4fbf81412e49fb85e7641249a0cadc61455800b37d3cf0c85e28b7",
    (9, 3): "5b22d153597c7e65eadc8b5d9cfc6e4f956af65c07e57e2f260b109cf5da106f",
    (10, 3): "1371f0a4a85040931bfea3078ddb06b3811988dfc3e63303d97879671ef146d2",
    (12, 3): "4cc73c07c494453104b9c8b302aa93d800ea9152262e27f9f6f75a6a4e38683c",
    (14, 3): "3a20ab94b90c3d866716826627a79b02a623f9a06dcb97f541983ac93d10827a",
    (18, 3): "358965b6d4ecbf7aae86e6f5911043e2d443cf89d11d648f9f3fb11eca59ccdb",
    (19, 3): "5d919ae4173b7043f92b1294c27797fc8d46c013376e5bce7bb09bbab6d0c82f",
    (2, 4): "833fdd8ed465c02dd16caafa4dd98afdabbed78cbffe0cde96645676e04ae4f9",
}


@pytest.mark.parametrize("seed, segments", sorted(_PINNED_FRONTS),
                         ids=[f"n10-seed{s}-{k}x{k}" for s, k in sorted(_PINNED_FRONTS)])
def test_exact_front_bytes_are_pinned(seed, segments, tmp_path):
    """Ten-node fronts keep the bytes of their written front CSV: every
    seed 0-19 at 3 x 3, C7 (seed 7) at 6 x 6 and seed 2 at 4 x 4."""
    front = epsilon_constraint_front(generate(GeneratorSpec(n=10, p=3, seed=seed)),
                                     EpsilonGrid(segments, segments))
    write_front_csv(front, tmp_path / "front.csv")
    digest = hashlib.sha256((tmp_path / "front.csv").read_bytes()).hexdigest()
    assert digest == _PINNED_FRONTS[seed, segments]


def test_a_front_holds_one_search_data_at_a_time():
    # C7 at 3 x 3 peaks near 7 MiB: the front keeps each searched config's
    # O(P) search data, but a search's O(P^2) budget and shed tables live
    # for that search alone; a cache of search data across cells, whose
    # records grew budget tables after insertion, peaked near 34 MB
    inst = generate(GeneratorSpec(n=10, p=3, seed=7))
    tracemalloc.start()
    try:
        front = epsilon_constraint_front(inst, EpsilonGrid(3, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(front) > 1
    assert peak < 24 * 2 ** 20


def test_a_front_searches_no_config_that_fails_the_root_checks(monkeypatch):
    # C7's 3 x 3 front: the chunked scan drops the configs that fail the
    # search's root budget checks, so 19 routing searches run; with those
    # checks left to the search, 164 more returned None at their root
    calls = []
    search = exact._bb_routing

    def counted(*args):
        calls.append(None)
        return search(*args)

    monkeypatch.setattr(exact, "_bb_routing", counted)
    front = epsilon_constraint_front(generate(GeneratorSpec(n=10, p=3, seed=7)), EpsilonGrid(3, 3))
    assert len(front) == 5
    assert len(calls) == 19


def test_solvers_match_the_oracle_where_hub_capacity_binds(monkeypatch):
    """At half capacity, unlike C1's instances, hub loads bind: the oracle
    prunes on load columns, every 6 x 6 cell's cost optimum equals the
    oracle's, and the population solvers repair pairs yet emit feasible
    fronts that never beat the oracle's."""
    widths = []
    nondominated = oracle.nondominated_mask

    def measured(rows):
        widths.append(rows.shape[1])
        return nondominated(rows)

    monkeypatch.setattr(oracle, "nondominated_mask", measured)
    flips = []
    repair = metaheuristics._repair_mask

    def counted(ctx, assignment, mask, loads):
        out = repair(ctx, assignment, mask, loads)
        flips.append(0 if out is None else int(mask.sum() - out.sum()))
        return out

    monkeypatch.setattr(metaheuristics, "_repair_mask", counted)
    grid = EpsilonGrid(6, 6)
    params = AlgorithmParams(max_iterations=30)
    for seed in range(100, 104):
        base = generate(GeneratorSpec(n=5, p=2, seed=seed))
        inst = dataclasses.replace(base, capacity=base.capacity * 0.5)
        widths.clear()
        orows = oracle_front(inst).objective_rows()
        assert max(widths) > 3, seed              # objectives plus hub loads
        index = exact._build_index(inst, 0.5, DEFAULT_BUDGET)
        payoff = np.array([exact._solve_min(index, m, math.inf, math.inf).objectives.as_tuple()
                           for m in range(3)])
        for eps2, eps3 in grid.cells((payoff[:, 1].min(), payoff[:, 1].max()),
                                     (payoff[:, 2].min(), payoff[:, 2].max())):
            res = exact._solve_min(index, 0, eps2, eps3)
            sel = (orows[:, 1] <= eps2 + 1e-9) & (orows[:, 2] <= eps3 + 1e-9)
            assert (res is None) == (not sel.any()), (seed, eps2, eps3)
            if res is not None:
                assert res.objectives.z1 == orows[sel, 0].min(), (seed, eps2, eps3)
        for name in sorted(ALGORITHMS):
            front = ALGORITHMS[name](inst, params, seed=seed)
            assert front.solutions, (seed, name)
            for sol in front.solutions:
                assert check_feasibility(inst, sol, 0.5) == [], (seed, name)
                z = sol.objectives.as_tuple()
                assert not any(dominates(z, tuple(o)) for o in orows), (seed, name, z)
    assert sum(flips) > 0


def _time_capped(inst, caps):
    """``inst`` with route time caps that bind: ``x1.05`` and ``x1.3`` scale
    each pair's direct flight time, ``one-stop`` takes the fastest one-stop
    time where that beats the direct flight, which then breaks the cap, and
    1.05 times the direct time elsewhere."""
    t = inst.travel_time
    if caps == "one-stop":
        fastest = (t[:, :, None] + t[None, :, :]).min(axis=1)   # via k = i or j: direct
        cap = np.where(fastest < t, fastest, 1.05 * t)
    else:
        cap = float(caps[1:]) * t
    return dataclasses.replace(inst, max_transfer_time=cap)


@pytest.mark.parametrize("caps", ["x1.05", "x1.3", "one-stop"])
def test_solvers_match_the_oracle_where_time_caps_bind(caps, monkeypatch):
    """The generated caps (200-300) never bind on 5-30 unit flights; capped
    near the direct time, some route options break them.  Every 6 x 6
    cell's cost optimum still equals the oracle's, the routing search meets
    options over the cap, and the population solvers emit feasible fronts
    that never beat the oracle's."""
    over_cap = []
    bb_routing = exact._bb_routing

    def counted(pd, *args):
        over_cap.append(bool(np.isinf(pd.contrib[..., 0]).any()))
        return bb_routing(pd, *args)

    monkeypatch.setattr(exact, "_bb_routing", counted)
    grid = EpsilonGrid(6, 6)
    params = AlgorithmParams(max_iterations=30)
    for seed in range(100, 108):
        inst = _time_capped(generate(GeneratorSpec(n=5, p=2, seed=seed)), caps)
        orows = oracle_front(inst).objective_rows()
        index = exact._build_index(inst, 0.5, DEFAULT_BUDGET)
        payoff = np.array([exact._solve_min(index, m, math.inf, math.inf).objectives.as_tuple()
                           for m in range(3)])
        for eps2, eps3 in grid.cells((payoff[:, 1].min(), payoff[:, 1].max()),
                                     (payoff[:, 2].min(), payoff[:, 2].max())):
            res = exact._solve_min(index, 0, eps2, eps3)
            sel = (orows[:, 1] <= eps2 + 1e-9) & (orows[:, 2] <= eps3 + 1e-9)
            assert (res is None) == (not sel.any()), (seed, eps2, eps3)
            if res is not None:
                assert res.objectives.z1 == orows[sel, 0].min(), (seed, eps2, eps3)
        for name in sorted(ALGORITHMS):
            front = ALGORITHMS[name](inst, params, seed=seed)
            assert front.solutions, (seed, name)
            for sol in front.solutions:
                assert check_feasibility(inst, sol, 0.5) == [], (seed, name)
                z = sol.objectives.as_tuple()
                assert not dominates(z, orows).any(), (seed, name, z)
    assert any(over_cap)


def test_an_exact_run_builds_one_pricing_context(monkeypatch):
    # every cell winner is checked and priced on the index's context, so
    # an 8-node exact run builds one context, not one more per winner
    rates = []
    make = evaluation.make_context

    def counted(inst, alpha_prime):
        rates.append(alpha_prime)
        return make(inst, alpha_prime)

    monkeypatch.setattr(evaluation, "make_context", counted)
    monkeypatch.setattr(exact, "make_context", counted)
    front, _ = run_solver(generate(GeneratorSpec(n=8, p=3, seed=0)), "exact", 0, 0.5,
                          AlgorithmParams(), EpsilonGrid())
    assert len(front) > 1
    assert rates == [0.5]


def test_an_infeasible_exact_winner_still_raises(tiny, monkeypatch):
    # a routing search blind to capacity picks a winner that overloads hub 1
    squeezed = dataclasses.replace(tiny, capacity=np.array([1e9, 150.0, 1e9]))
    index = exact._build_index(squeezed, 0.5, DEFAULT_BUDGET)
    search = exact._bb_routing
    monkeypatch.setattr(exact, "_bb_routing", lambda pd, capacity, *rest:
                        search(pd, np.full_like(capacity, np.inf), *rest))
    with pytest.raises(ValueError, match="infeasible solution:\nhub 1 throughput 290.0 "
                                         "exceeds capacity 150.0"):
        exact._solve_min(index, 0, math.inf, math.inf)
