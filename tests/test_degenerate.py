"""Degenerate instances: every solver ends in an empty front or a feasible one.

Generated 3-6-node instances are bent into the corner cases the generator
never draws on its own: every node may open a hub (p = n), no spoke can
reach a hub (omega below every distance), no hub can take any pair's
cargo (capacity below the smallest positive demand), and nothing to ship
(all-zero demand).  Each solver must then return either an empty front or
finite rows whose members pass ``check_feasibility``; ``hubnet solve``
must end with a message and exit 0 or 2, never with a traceback.

An instance that ``validate_instance`` rejects is refused by every solver
through the Python API too, by name, before any pricing can warn.
"""

import contextlib
import dataclasses
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hubnet.cli import main
from hubnet.exact import EpsilonGrid, epsilon_constraint_front
from hubnet.fileio import save_instance
from hubnet.generator import GeneratorSpec, generate
from hubnet.metaheuristics import ALGORITHMS, AlgorithmParams
from hubnet.model import check_feasibility, validate_instance
from hubnet.workbench import SOLVERS, run_solver

RATE = 0.5


def _degenerate(inst, case):
    offdiag = ~np.eye(inst.n, dtype=bool)
    if case == "p_equals_n":
        return dataclasses.replace(inst, p=inst.n)
    if case == "omega_below_distances":
        return dataclasses.replace(inst, omega=0.5 * inst.distance[offdiag].min())
    if case == "capacity_below_demand":
        q = inst.demand_matrix(RATE)
        return dataclasses.replace(inst, capacity=np.full(inst.n, 0.5 * q[q > 0].min()))
    return dataclasses.replace(inst, demand=np.zeros_like(inst.demand))


def _check_front(inst, front):
    rows = front.objective_rows()
    assert np.all(np.isfinite(rows))
    for sol in front.solutions:
        assert check_feasibility(inst, sol, RATE) == []


@settings(derandomize=True, max_examples=48, deadline=None)
@given(n=st.integers(3, 6), p=st.integers(1, 6), seed=st.integers(0, 1000),
       case=st.sampled_from(["p_equals_n", "omega_below_distances",
                             "capacity_below_demand", "zero_demand"]))
def test_degenerate_instances_end_in_an_empty_or_feasible_front(n, p, seed, case):
    inst = _degenerate(generate(GeneratorSpec(n=n, p=min(p, n), seed=seed)), case)
    _check_front(inst, epsilon_constraint_front(inst, EpsilonGrid(2, 2), alpha_prime=RATE))
    params = AlgorithmParams(max_iterations=3, population_size=8)
    for run in ALGORITHMS.values():
        _check_front(inst, run(inst, params, seed=seed, alpha_prime=RATE))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        save_instance(inst, path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["solve", "--instance", str(path), "--solver", "exact",
                         "--out", str(Path(tmp) / "front.csv"),
                         "--grid-z2", "2", "--grid-z3", "2"])
    text = out.getvalue() + err.getvalue()
    assert code in (0, 2), text
    assert (out if code == 0 else err).getvalue().strip()
    assert "Traceback" not in text


# case -> (its instance, from the tiny one or a 6-node one; the finding)
INVALID = {
    "hub-budget": (lambda tiny, gen: dataclasses.replace(gen, p=9),
                   "hub budget p must satisfy 1 <= p <= n, got p=9"),
    "nan-distance": (lambda tiny, gen: dataclasses.replace(
        gen, distance=np.where(np.eye(6), 0.0, np.nan)), "distance has non-finite values"),
    "negated-demand": (lambda tiny, gen: dataclasses.replace(gen, demand=-gen.demand),
                       "demand has negative components"),
    "no-aircraft-capacity": (lambda tiny, gen: dataclasses.replace(gen, aircraft_capacity=0.0),
                             "aircraft_capacity must be > 0, got 0.0"),
    "price-overflow": (lambda tiny, gen: dataclasses.replace(
        tiny, demand=tiny.demand * 1e300, unit_transport_cost=np.full((3, 3), 1e10)),
        "objective z1 (cost) can overflow a float on this data"),
    "hub-price-overflow": (lambda tiny, gen: dataclasses.replace(
        gen, handling_cost=np.full(6, 1e307)),
        "objective z1 (cost) can overflow a float on this data"),
}


@pytest.mark.parametrize("solver", SOLVERS)
@pytest.mark.parametrize("case", list(INVALID))
def test_solvers_refuse_an_invalid_instance(tiny, case, solver):
    broken, finding = INVALID[case]
    inst = broken(tiny, generate(GeneratorSpec(n=6, p=2, seed=0)))
    assert finding in validate_instance(inst)
    # pytest turns a RuntimeWarning into an error, so none is raised on the way
    with pytest.raises(ValueError) as refusal:
        run_solver(inst, solver, 0, RATE, AlgorithmParams(max_iterations=3, population_size=8),
                   EpsilonGrid(2, 2))
    assert str(refusal.value).startswith("invalid instance: ")
    assert finding in str(refusal.value)
