import dataclasses

import numpy as np
import pytest

from hubnet.fronts import (
    ParetoFront,
    crowding_distance,
    dominates,
    nondominated_mask,
    nondominated_sort,
    solution_sort_key,
)
from hubnet.model import (
    EvaluatedSolution,
    NetworkDesign,
    ObjectiveVector,
    RoutePlan,
)


def sol(z1, z2, z3, hub=0):
    """Dummy solution carrying the given objective triple."""
    design = NetworkDesign((hub, hub))
    plan = RoutePlan(hub=((False, True), (True, False)))
    return EvaluatedSolution(design=design, plan=plan,
                             objectives=ObjectiveVector(z1, z2, z3),
                             alpha_prime=0.5)


def test_dominates_basics():
    assert dominates((1, 2, 3), (1, 2, 4))
    assert dominates((0, 0, 0), (1, 1, 1))
    assert not dominates((1, 2, 3), (1, 2, 3))
    assert not dominates((0, 5, 0), (1, 1, 1))
    assert dominates(ObjectiveVector(1, 1, 1).as_tuple(), (2, 1, 1))


def brute_mask(rows):
    rows = np.asarray(rows, dtype=float)
    s = len(rows)
    keep = np.ones(s, dtype=bool)
    seen = set()
    for i in range(s):
        t = tuple(rows[i])
        if t in seen:
            keep[i] = False
            continue
        for j in range(s):
            other = rows[j]
            if j != i and all(other <= rows[i]) and any(other < rows[i]):
                keep[i] = False
                break
        if keep[i]:
            seen.add(t)
    return keep


def seen_first_duplicate(rows, keep):
    """A duplicate group keeps nothing or its first row in input order."""
    rows = np.asarray(rows)
    groups = {}
    for i, r in enumerate(map(tuple, rows)):
        groups.setdefault(r, []).append(i)
    for members in groups.values():
        kept = [i for i in members if keep[i]]
        assert kept in ([], members[:1])


def test_nondominated_mask_matches_brute_force():
    rng = np.random.default_rng(3)
    neg_zero = np.round(-1e-9, 6)     # a tiny negative sum rounds to -0.0
    assert np.signbit(neg_zero)
    for cols in (1, 2, 3, 4, 5):
        cases = [rng.integers(0, 5, size=(40, cols)).astype(float) for _ in range(10)]
        # one duplicate group, 0.0 and -0.0 mixed, that dominates every other row
        zeros = np.where(rng.random((4, cols)) < 0.5, neg_zero, 0.0)
        zeros[0], zeros[1] = neg_zero, 0.0
        cases.append(np.vstack([rng.integers(1, 5, size=(6, cols)), zeros[:2],
                                rng.integers(1, 5, size=(6, cols)), zeros[2:]]).astype(float))
        for rows in cases:
            got = nondominated_mask(rows)
            want = brute_mask(rows)
            # same objective set survives; duplicates keep exactly one copy
            surv_got = sorted(map(tuple, rows[got]))
            surv_want = sorted(map(tuple, rows[want]))
            assert surv_got == surv_want
            seen_first_duplicate(rows, got)
        assert np.flatnonzero(got).tolist() == [6]     # the group's first row


def test_nondominated_mask_edge_shapes():
    assert nondominated_mask(np.zeros((0, 3))).tolist() == []
    assert nondominated_mask(np.array([[1.0, 2.0, 3.0]])).tolist() == [True]
    with pytest.raises(ValueError):
        nondominated_mask(np.zeros(3))


def test_nondominated_sort_layers():
    objs = [(1, 1, 1), (2, 2, 2), (3, 3, 3), (1, 3, 1), (np.inf, np.inf, np.inf)]
    fronts = nondominated_sort(objs)
    assert fronts[0] == [0]
    assert sorted(fronts[1]) == [1, 3]
    assert fronts[2] == [2]
    assert fronts[3] == [4]
    # an array is taken as it is: same fronts
    assert nondominated_sort(np.array(objs, dtype=float)) == fronts
    for bad in (np.zeros((2, 2)), np.zeros(3), [(1, 2)]):
        with pytest.raises(ValueError, match="objective rows"):
            nondominated_sort(bad)
        with pytest.raises(ValueError, match="objective rows"):
            crowding_distance(bad)


def test_crowding_distance():
    assert np.all(np.isinf(crowding_distance([(1, 1, 1)])))
    assert np.all(np.isinf(crowding_distance([(1, 1, 1), (2, 2, 2)])))

    d = crowding_distance([(0, 4, 0), (1, 3, 0), (2, 2, 0), (3, 1, 0)])
    assert np.isinf(d[0]) and np.isinf(d[3])
    # interior gaps: (2-0)/3 + (4-2)/3 per moving objective, z3 has no spread
    assert d[1] == pytest.approx(4.0 / 3.0)
    assert d[2] == pytest.approx(4.0 / 3.0)


def test_solution_sort_key_codes_routes_direct_first():
    hub = sol(1.0, 1.0, 1.0)
    direct = dataclasses.replace(hub, plan=RoutePlan(hub=((False, False), (True, False))))
    assert solution_sort_key(hub)[-1] == (1, 1)
    assert solution_sort_key(direct)[-1] == (0, 1)
    assert solution_sort_key(direct) < solution_sort_key(hub)


def test_front_from_candidates_order_independent():
    a = sol(1.0, 5.0, 1.0)
    b = sol(2.0, 4.0, 1.0)
    c = sol(3.0, 3.0, 1.0)
    dominated = sol(3.0, 6.0, 2.0)
    dup = sol(1.0, 5.0, 1.0, hub=1)

    f1 = ParetoFront.from_candidates([a, b, c, dominated, dup])
    f2 = ParetoFront.from_candidates([dup, dominated, c, b, a])
    assert len(f1) == 3
    assert [s.objectives.as_tuple() for s in f1] == \
        [s.objectives.as_tuple() for s in f2]
    assert [s.design.hubs for s in f1] == [s.design.hubs for s in f2]
    assert [s.objectives.as_tuple() for s in f1] == \
        [(1.0, 5.0, 1.0), (2.0, 4.0, 1.0), (3.0, 3.0, 1.0)]


def test_front_objective_rows_sorted():
    front = ParetoFront.from_candidates([sol(3, 1, 1), sol(1, 3, 1), sol(2, 2, 1)])
    rows = front.objective_rows()
    assert rows[:, 0].tolist() == sorted(rows[:, 0].tolist())
    assert len(front) == 3
    assert all(isinstance(s, EvaluatedSolution) for s in front)


def test_solution_sort_key_tie_breaks_on_design():
    a = sol(1.0, 1.0, 1.0, hub=0)
    b = sol(1.0, 1.0, 1.0, hub=1)
    assert solution_sort_key(a) < solution_sort_key(b)
