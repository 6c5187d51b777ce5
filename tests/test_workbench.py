import csv
import multiprocessing
import os
from concurrent.futures import Future

import numpy as np
import pytest

from hubnet import workbench
from hubnet.exact import EpsilonGrid, epsilon_constraint_front
from hubnet.fileio import read_front_csv, save_instance
from hubnet.metaheuristics import ALGORITHMS, AlgorithmParams
from hubnet.workbench import (
    SWEEP_PARAMETERS,
    ExperimentConfig,
    run_compare,
    run_solver,
    sweep_rows,
)

SMALL = AlgorithmParams(max_iterations=5, population_size=12)


@pytest.fixture(scope="module")
def solved(gen5):
    front = epsilon_constraint_front(gen5, EpsilonGrid(3, 3))
    return front.solutions[0]   # minimum-cost member


def test_sweep_parameter_names():
    assert SWEEP_PARAMETERS == ("alpha", "beta", "phi", "alpha_prime")


def test_sweep_rejects_unknown_parameter(gen5, solved):
    with pytest.raises(ValueError, match="unknown sweep parameter"):
        sweep_rows(gen5, solved, "gamma", [1.0])


def test_phi_sweep_touches_only_emissions(gen5, solved):
    rows = sweep_rows(gen5, solved, "phi", [30, 40, 50, 60, 70])
    z1s = {r[1] for r in rows}
    z3s = {r[3] for r in rows}
    assert len(z1s) == 1 and len(z3s) == 1
    z2s = [r[2] for r in rows]
    assert all(a >= b for a, b in zip(z2s, z2s[1:]))
    assert z2s[0] > z2s[-1]     # bigger aircraft genuinely help here


def test_alpha_beta_sweeps_raise_cost(gen5, solved):
    for param, values in (("alpha", [0.4, 0.5, 0.6, 0.7, 0.8]),
                          ("beta", [0.6, 0.7, 0.8, 0.9, 1.0])):
        rows = sweep_rows(gen5, solved, param, values)
        z1s = [r[1] for r in rows]
        assert all(a <= b for a, b in zip(z1s, z1s[1:])), param
        # discounts scale transport legs only
        assert len({r[3] for r in rows}) == 1


def test_rate_sweep_moves_demand_priced_objectives(gen5, solved):
    rows = sweep_rows(gen5, solved, "alpha_prime", [0.1, 0.3, 0.5, 0.7, 0.9])
    z1s = [r[1] for r in rows]
    z2s = [r[2] for r in rows]
    assert all(a <= b for a, b in zip(z1s, z1s[1:]))
    assert all(a <= b for a, b in zip(z2s, z2s[1:]))
    assert len({r[3] for r in rows}) == 1


def test_run_solver_exact_matches_direct_call(gen5):
    front, elapsed = run_solver(gen5, "exact", seed=0, alpha_prime=0.5,
                                params=SMALL, grid=EpsilonGrid(3, 3))
    direct = epsilon_constraint_front(gen5, EpsilonGrid(3, 3))
    assert front.objective_rows().tolist() == direct.objective_rows().tolist()
    assert elapsed >= 0.0


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(instances=(), algorithms=("exact",), seeds=(0,),
                         out_dir=str(tmp_path))
    with pytest.raises(ValueError):
        ExperimentConfig(instances=("x.json",), algorithms=("simplex",),
                         seeds=(0,), out_dir=str(tmp_path))
    # a repeated algorithm or seed would run, average and rank its cells twice
    with pytest.raises(ValueError, match="algorithms must be unique"):
        ExperimentConfig(instances=("x.json",), algorithms=("nsga2", "nsga2", "mopso"),
                         seeds=(0,), out_dir=str(tmp_path))
    with pytest.raises(ValueError, match="seeds must be unique"):
        ExperimentConfig(instances=("x.json",), algorithms=("nsga2",),
                         seeds=(0, 0, 1), out_dir=str(tmp_path))


def test_config_refuses_fewer_than_one_worker(tmp_path):
    base = dict(instances=("x.json",), algorithms=("exact",), seeds=(0,),
                out_dir=str(tmp_path))
    assert ExperimentConfig(**base).workers == 1
    for workers in (0, -2):
        with pytest.raises(ValueError, match="workers"):
            ExperimentConfig(**base, workers=workers)


def _read(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_run_compare_writes_consistent_tables(tmp_path, gen5, gen6):
    paths = []
    for name, inst in (("alpha", gen5), ("bravo", gen6)):
        p = tmp_path / f"{name}.json"
        save_instance(inst, p)
        paths.append(str(p))

    out = tmp_path / "out"
    config = ExperimentConfig(
        instances=tuple(paths),
        algorithms=("exact", "nsga2"),
        seeds=(0, 1),
        out_dir=str(out),
        params=SMALL,
        grid=EpsilonGrid(3, 3),
        workers=1,
    )
    results = run_compare(config)
    assert len(results) == 8   # 2 instances x 2 algorithms x 2 seeds

    cells = _read(out / "cells.csv")
    assert cells[0] == ["instance", "algorithm", "seed", "npf", "msi", "sm", "cpt"]
    assert len(cells) == 9
    averages = _read(out / "averages.csv")
    assert [row[0] for row in averages[1:]] == ["exact", "nsga2"]
    ranking = _read(out / "ranking.csv")
    assert [row[0] for row in ranking[1:]] == ["1", "2"]
    assert set(row[1] for row in ranking[1:]) == {"exact", "nsga2"}

    # every referenced front file exists and reloads
    for r in results:
        front_path = out / "fronts" / f"{r.instance}_{r.algorithm}_seed{r.seed}.csv"
        assert front_path.exists()
        assert len(read_front_csv(front_path)) == r.metrics.npf

    # averages recompute from the cells table
    for row in averages[1:]:
        algo = row[0]
        mine = [c for c in cells[1:] if c[1] == algo]
        assert float(row[1]) == pytest.approx(np.mean([float(c[3]) for c in mine]))


def test_run_compare_worker_count_does_not_change_fronts(tmp_path, gen5):
    p = tmp_path / "inst.json"
    save_instance(gen5, p)
    outs = []
    for workers, tag in ((1, "w1"), (2, "w2")):
        out = tmp_path / tag
        run_compare(ExperimentConfig(
            instances=(str(p),), algorithms=("exact", "nsga2"), seeds=(0,),
            out_dir=str(out), params=SMALL, grid=EpsilonGrid(3, 3),
            workers=workers))
        outs.append(out)
    for name in ("inst_exact_seed0.csv", "inst_nsga2_seed0.csv"):
        a = (outs[0] / "fronts" / name).read_bytes()
        b = (outs[1] / "fronts" / name).read_bytes()
        assert a == b
    # cells differ at most in the timing column
    rows1 = _read(outs[0] / "cells.csv")
    rows2 = _read(outs[1] / "cells.csv")
    assert [r[:6] for r in rows1] == [r[:6] for r in rows2]


def test_run_compare_rejects_duplicate_stems(tmp_path, gen5):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    for d in (d1, d2):
        save_instance(gen5, d / "same.json")
    with pytest.raises(ValueError, match="unique"):
        run_compare(ExperimentConfig(
            instances=(str(d1 / "same.json"), str(d2 / "same.json")),
            algorithms=("nsga2",), seeds=(0,), out_dir=str(tmp_path / "out2"),
            params=SMALL))
    assert not (tmp_path / "out2").exists()


def test_one_failing_cell_leaves_the_campaign_standing(tmp_path, gen5, monkeypatch):
    """A solver fault outside the expected kinds costs only its own cell:
    the other cells finish and every table is written."""
    def broken(*args, **kwargs):
        raise RuntimeError("solver fell over")

    monkeypatch.setitem(ALGORITHMS, "mopso", broken)
    p = tmp_path / "inst.json"
    save_instance(gen5, p)
    out = tmp_path / "out"
    results = run_compare(ExperimentConfig(
        instances=(str(p),), algorithms=("nsga2", "mopso", "mowoa"), seeds=(0,),
        out_dir=str(out), params=SMALL, workers=1))
    assert [r.error for r in results] == [None, "RuntimeError: solver fell over", None]
    cells = _read(out / "cells.csv")
    assert cells[2] == ["inst", "mopso", "0", "", "", "", ""]
    assert all(row[3] for row in (cells[1], cells[3]))
    assert [row[0] for row in _read(out / "averages.csv")[1:]] == ["nsga2", "mowoa"]
    assert {row[1] for row in _read(out / "ranking.csv")[1:]} == {"nsga2", "mowoa"}
    assert sorted(f.name for f in (out / "fronts").iterdir()) == [
        "inst_mowoa_seed0.csv", "inst_nsga2_seed0.csv"]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_front_that_cannot_be_written_fails_only_its_cell(tmp_path, gen5, workers):
    p = tmp_path / "inst.json"
    save_instance(gen5, p)
    out = tmp_path / "out"
    (out / "fronts" / "inst_nsga2_seed0.csv").mkdir(parents=True)
    results = run_compare(ExperimentConfig(
        instances=(str(p),), algorithms=("nsga2", "mopso"), seeds=(0, 1),
        out_dir=str(out), params=SMALL, workers=workers))
    failed = [r for r in results if r.error is not None]
    assert [(r.algorithm, r.seed) for r in failed] == [("nsga2", 0)]
    assert failed[0].error.startswith("IsADirectoryError")
    assert all(r.metrics is not None for r in results if r is not failed[0])
    assert _read(out / "cells.csv")[1] == ["inst", "nsga2", "0", "", "", "", ""]
    assert [row[0] for row in _read(out / "averages.csv")[1:]] == ["nsga2", "mopso"]
    assert {row[1] for row in _read(out / "ranking.csv")[1:]} == {"nsga2", "mopso"}
    assert sorted(f.name for f in (out / "fronts").iterdir() if f.is_file()) == [
        "inst_mopso_seed0.csv", "inst_mopso_seed1.csv", "inst_nsga2_seed1.csv"]


def test_a_dead_worker_fails_only_its_own_cells(tmp_path, gen5, monkeypatch):
    """A worker process that dies mid-cell breaks the pool; the cells it
    left unfinished run again alone, so every nsga2 and mopso cell
    completes, only the mowoa cells that kill their worker fail, naming the
    broken pool, and the campaign writes every table, one row per cell."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patched solver reaches the workers only when they fork")
    solve = workbench.run_solver

    def dying(inst, algorithm, *args):
        if algorithm == "mowoa":
            os._exit(1)
        return solve(inst, algorithm, *args)

    monkeypatch.setattr(workbench, "run_solver", dying)
    p = tmp_path / "inst.json"
    save_instance(gen5, p)
    out = tmp_path / "out"
    results = run_compare(ExperimentConfig(
        instances=(str(p),), algorithms=("nsga2", "mowoa", "mopso"), seeds=(0, 1),
        out_dir=str(out), params=SMALL, workers=2))
    assert [(r.algorithm, r.seed) for r in results] == [
        (a, s) for a in ("nsga2", "mowoa", "mopso") for s in (0, 1)]
    cells = _read(out / "cells.csv")
    assert [row[1:3] for row in cells[1:]] == [[r.algorithm, str(r.seed)] for r in results]
    for r, row in zip(results, cells[1:]):
        if r.algorithm == "mowoa":
            assert r.metrics is None and r.error.startswith("BrokenProcessPool"), r
        else:
            assert r.metrics is not None and r.error is None, r
        assert bool(row[3]) == (r.metrics is not None)
    assert [row[0] for row in _read(out / "averages.csv")[1:]] == ["nsga2", "mopso"]
    assert sorted(f.name for f in (out / "fronts").iterdir()) == [
        f"inst_{a}_seed{s}.csv" for a in ("mopso", "nsga2") for s in (0, 1)]
    assert (out / "ranking.csv").exists()


def test_the_pool_has_at_most_one_worker_per_cell(tmp_path, gen5, monkeypatch):
    """A stand-in executor records the pool size and runs the cells inline,
    so no process starts however many workers the campaign asks for."""
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(workbench, "ProcessPoolExecutor", InlinePool)
    p = tmp_path / "inst.json"
    save_instance(gen5, p)
    results = run_compare(ExperimentConfig(
        instances=(str(p),), algorithms=("nsga2", "mopso"), seeds=(0,),
        out_dir=str(tmp_path / "out"), params=SMALL, workers=64))
    assert sizes == [2]
    assert all(r.metrics is not None for r in results)


def test_config_refuses_negative_seeds(tmp_path):
    with pytest.raises(ValueError, match=r"seeds must be >= 0, got \[0, -1\]"):
        ExperimentConfig(instances=("x.json",), algorithms=("nsga2",), seeds=(0, -1),
                         out_dir=str(tmp_path))
