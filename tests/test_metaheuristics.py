import math

import numpy as np
import pytest

from hubnet.fronts import solution_sort_key
from hubnet.metaheuristics import (
    ALGORITHMS,
    AlgorithmParams,
    run_mopso,
    run_mowoa,
    run_nsga2,
)
from hubnet.model import check_feasibility

SMALL = AlgorithmParams(max_iterations=8, population_size=16)


def test_algorithm_registry():
    assert set(ALGORITHMS) == {"nsga2", "mopso", "mowoa"}
    assert ALGORITHMS["nsga2"] is run_nsga2
    assert ALGORITHMS["mopso"] is run_mopso
    assert ALGORITHMS["mowoa"] is run_mowoa


def test_params_validation():
    with pytest.raises(ValueError):
        AlgorithmParams(max_iterations=0)
    with pytest.raises(ValueError):
        AlgorithmParams(population_size=1)
    with pytest.raises(ValueError):
        AlgorithmParams(crossover_prob=1.5)
    with pytest.raises(ValueError):
        AlgorithmParams(inertia=-0.1)
    with pytest.raises(ValueError):
        AlgorithmParams(archive_capacity=0)
    with pytest.raises(ValueError):
        AlgorithmParams(grid_divisions=0)


@pytest.mark.parametrize("field", ["inertia", "cognitive", "social", "whale_a_max",
                                   "whale_c_range"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_params_refuse_non_finite_coefficients(field, value):
    with pytest.raises(ValueError, match=f"{field} must be a finite number"):
        AlgorithmParams(**{field: value})


def test_an_overflowing_whale_move_scores_its_row_instead_of_crashing(gen6):
    # the wobble coefficient nears the float limit but stays finite, so no
    # move overflows or makes a NaN gene (pytest turns a RuntimeWarning into an error)
    params = AlgorithmParams(max_iterations=5, population_size=10, whale_c_range=1e308)
    front = run_mowoa(gen6, params, seed=0)
    assert len(front) > 0
    assert np.isfinite(front.objective_rows()).all()


def test_whale_coefficients_whose_move_can_overflow_are_refused(gen6):
    # a move scales a gap of at most 1 + whale_c_range / 2 by up to
    # whale_a_max; at the edge that product is the largest float, and the
    # run makes no overflow (pytest turns a RuntimeWarning into an error)
    edge = np.finfo(float).max / 2.0
    params = AlgorithmParams(max_iterations=5, population_size=10,
                             whale_a_max=edge, whale_c_range=2.0)
    assert np.isfinite(run_mowoa(gen6, params, seed=0).objective_rows()).all()
    AlgorithmParams(whale_a_max=2.0 * edge, whale_c_range=0.0)
    for a_max, c_range in ((math.nextafter(edge, math.inf), 2.0), (1e308, 1e308)):
        with pytest.raises(ValueError, match=r"whale_a_max \* \(1 \+ whale_c_range / 2\) "
                                             r"must be finite, got whale_a_max="):
            AlgorithmParams(whale_a_max=a_max, whale_c_range=c_range)


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_runs_produce_feasible_nondominated_fronts(name, gen6):
    front = ALGORITHMS[name](gen6, SMALL, seed=3, alpha_prime=0.5)
    assert len(front) >= 1
    rows = front.objective_rows()
    for s in front:
        assert check_feasibility(gen6, s, 0.5) == []
        assert s.alpha_prime == 0.5
    # pairwise nondominated
    for i in range(len(rows)):
        for j in range(len(rows)):
            if i != j:
                assert not (np.all(rows[j] <= rows[i]) and np.any(rows[j] < rows[i]))


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_same_seed_reproduces_run(name, gen6):
    a = ALGORITHMS[name](gen6, SMALL, seed=11, alpha_prime=0.5)
    b = ALGORITHMS[name](gen6, SMALL, seed=11, alpha_prime=0.5)
    assert [solution_sort_key(s) for s in a] == [solution_sort_key(s) for s in b]


def test_different_seeds_explore_differently(gen6):
    # not guaranteed in principle, but these seeds do differ and pin the
    # seed plumbing: identical output for all seeds would mean a dead knob
    fronts = [run_nsga2(gen6, SMALL, seed=s).objective_rows().tobytes()
              for s in (0, 1, 2)]
    assert len(set(fronts)) > 1
