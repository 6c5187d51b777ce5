"""Parameter sweeps over a fixed plan and the solver comparison experiment.

A sweep re-prices one frozen (design, plan) pair while a single knob
moves, which isolates the knob's effect from solver noise; objectives are
recomputed without re-checking the assignment or hub capacity because the
plan is kept on purpose even where it would no longer be chosen.  A plan
with a route over its time cap has no finite price and is refused; no
knob moves travel times, so no value could price it.

The comparison experiment runs a (instance, algorithm, seed) grid of
cells, each cell fully self-contained, and aggregates per-algorithm
averages plus a closeness ranking.  Cells can run in a process pool; all
output bytes except the timing column are independent of the worker
count because each cell writes only its own front file and the tables
are written from the results in grid order.
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .analysis import FrontMetrics, compute_metrics, topsis_rank
from .evaluation import compute_objectives
from .exact import (
    DEFAULT_BUDGET,
    EnumerationBudgetError,
    EpsilonGrid,
    epsilon_constraint_front,
)
from .fileio import load_instance, write_csv, write_front_csv
from .fronts import ParetoFront
from .fuzzy import check_rate
from .metaheuristics import ALGORITHMS, AlgorithmParams
from .model import EvaluatedSolution, ProblemInstance, validate_instance

__all__ = [
    "SOLVERS",
    "SWEEP_PARAMETERS",
    "swept_instance",
    "sweep_rows",
    "ExperimentConfig",
    "CellResult",
    "run_compare",
    "run_solver",
]

# every solver a run may name: the exact front, then the metaheuristics
SOLVERS = ("exact",) + tuple(sorted(ALGORITHMS))

# sweep knob -> the ProblemInstance field it sets; alpha_prime sets the rate
_SWEEP_FIELDS = {"alpha": "alpha_discount", "beta": "beta_discount",
                 "phi": "aircraft_capacity", "alpha_prime": None}
SWEEP_PARAMETERS = tuple(_SWEEP_FIELDS)


def swept_instance(inst: ProblemInstance, param: str, value: float,
                   rate: float) -> tuple[ProblemInstance, float]:
    """The instance and uncertainty rate with one sweep knob set to ``value``.

    ``alpha``/``beta`` are the inter-hub and collection discounts, ``phi``
    the aircraft capacity, ``alpha_prime`` the demand defuzzification
    rate (which replaces ``rate``).  Other instance data stays put.

    Raises:
        ValueError: for an unknown knob, or naming the value when it
            breaks an instance invariant (``validate_instance``) or puts
            the rate outside [0, 1].
    """
    if param not in SWEEP_PARAMETERS:
        raise ValueError(f"unknown sweep parameter {param!r}, expected one of {SWEEP_PARAMETERS}")
    v = float(value)
    swept = inst
    if _SWEEP_FIELDS[param] is None:
        rate = v
    else:
        swept = dataclasses.replace(inst, **{_SWEEP_FIELDS[param]: v})
    problems = validate_instance(swept)
    try:
        check_rate(rate)
    except ValueError as exc:
        problems.append(str(exc))
    if problems:
        raise ValueError(f"cannot sweep {param} to {v!r}: " + "; ".join(problems))
    return swept, rate


def sweep_rows(inst: ProblemInstance, solution: EvaluatedSolution,
               param: str, values: Sequence[float]) -> list[tuple[float, float, float, float]]:
    """Objectives of the frozen plan as one knob moves; rows (value, z1, z2, z3).

    Each value sets the knob as :func:`swept_instance` does, and raises
    its ``ValueError`` for a value it refuses.  A plan with a route over
    its time cap raises the ``ValueError`` of
    ``evaluation.compute_objectives``, which names the pair.
    """
    rows = []
    for v in values:
        swept, rate = swept_instance(inst, param, v, solution.alpha_prime)
        z1, z2, z3 = compute_objectives(swept, solution.design, solution.plan, rate)
        rows.append((float(v), z1, z2, z3))
    return rows


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one comparison run."""

    instances: tuple[str, ...]
    algorithms: tuple[str, ...]
    seeds: tuple[int, ...]
    out_dir: str
    alpha_prime: float = 0.5
    params: AlgorithmParams = AlgorithmParams()
    grid: EpsilonGrid = EpsilonGrid()
    budget: int = DEFAULT_BUDGET
    workers: int = 1                # process count; 1 runs the cells in-process

    def __post_init__(self) -> None:
        if not self.instances or not self.algorithms or not self.seeds:
            raise ValueError("need at least one instance, algorithm and seed")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        # a stem names its cells' front files and table rows; a repeated
        # stem, algorithm or seed would run, average and rank cells twice
        stems = [Path(p).stem for p in self.instances]
        for what, values in (("instance file stems", stems), ("algorithms", self.algorithms),
                             ("seeds", self.seeds)):
            if len(set(values)) != len(values):
                raise ValueError(f"{what} must be unique, got {list(values)}")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be >= 0, got {list(self.seeds)}")
        bad = [a for a in self.algorithms if a not in SOLVERS]
        if bad:
            raise ValueError(f"unknown algorithms {bad}, expected subset of {list(SOLVERS)}")


@dataclass(frozen=True)
class CellResult:
    instance: str
    algorithm: str
    seed: int
    metrics: Optional[FrontMetrics]     # None when the cell failed
    error: Optional[str] = None


def run_solver(inst: ProblemInstance, algorithm: str, seed: int, alpha_prime: float,
               params: AlgorithmParams, grid: EpsilonGrid,
               budget: int = DEFAULT_BUDGET) -> tuple[ParetoFront, float]:
    """One solver run with wall-clock timing; the seed is inert for ``exact``."""
    start = time.perf_counter()
    if algorithm == "exact":
        front = epsilon_constraint_front(inst, grid, alpha_prime=alpha_prime, budget=budget)
    else:
        front = ALGORITHMS[algorithm](inst, params, seed=seed, alpha_prime=alpha_prime)
    return front, time.perf_counter() - start


def _failed_cell(name: str, algorithm: str, seed: int, exc: Exception) -> CellResult:
    known = isinstance(exc, (EnumerationBudgetError, ValueError))
    error = str(exc) if known else f"{type(exc).__name__}: {exc}"
    return CellResult(instance=name, algorithm=algorithm, seed=seed, metrics=None, error=error)


def _run_cell(config: ExperimentConfig, path: str, algorithm: str, seed: int) -> CellResult:
    """Solve and score one cell, then write its front under ``fronts/``."""
    name = Path(path).stem
    try:
        inst = load_instance(path)
        front, elapsed = run_solver(inst, algorithm, seed, config.alpha_prime, config.params,
                                    config.grid, config.budget)
        metrics = compute_metrics(front, elapsed)
    except FileNotFoundError:
        raise       # a missing instance file ends the campaign
    except Exception as exc:
        # an unreadable or invalid instance, a failed solve (budget blown,
        # empty front) or any other fault aborts this cell only
        return _failed_cell(name, algorithm, seed, exc)
    try:
        write_front_csv(front, Path(config.out_dir, "fronts", f"{name}_{algorithm}_seed{seed}.csv"))
    except Exception as exc:
        return _failed_cell(name, algorithm, seed, exc)
    return CellResult(instance=name, algorithm=algorithm, seed=seed, metrics=metrics)


def _collect(future: Future, path: str, algorithm: str, seed: int) -> CellResult:
    """The cell's result, or a failed cell when its worker process died."""
    try:
        return future.result()
    except BrokenProcessPool as exc:
        return _failed_cell(Path(path).stem, algorithm, seed, exc)


def _run_alone(config: ExperimentConfig, path: str, algorithm: str, seed: int) -> CellResult:
    """One cell in a fresh one-worker pool of its own, so a cell that kills
    its worker fails only itself."""
    with ProcessPoolExecutor(max_workers=1) as pool:
        future = pool.submit(_run_cell, config, path, algorithm, seed)
        return _collect(future, path, algorithm, seed)


def run_compare(config: ExperimentConfig) -> list[CellResult]:
    """Run the cell grid, each cell writing its own front, then the
    cells/averages/ranking tables.

    A cell whose instance file cannot be read or fails
    ``validate_instance``, whose solve fails (enumeration budget, empty
    front, or any other exception, recorded with its type), or whose front
    cannot be written is recorded as missing: its row keeps blank
    indicator fields, and the averages and ranking cover only algorithms
    with at least one completed cell.  A worker process that dies breaks
    the pool: finished cells keep their rows and fronts, and every cell not
    yet finished runs once more in a one-worker pool of its own, so only a
    cell whose own worker dies is recorded as missing, with a
    ``BrokenProcessPool`` error.  A missing instance file raises
    ``FileNotFoundError`` and ends the campaign.  When TOPSIS cannot rank the averages (a criterion
    is zero for every algorithm, as msi and sm are when every front has
    one point), ``ranking.csv`` keeps only its header and the reason goes
    to stderr.
    """
    out = Path(config.out_dir)
    (out / "fronts").mkdir(parents=True, exist_ok=True)

    keys = list(itertools.product(config.instances, config.algorithms, config.seeds))
    if config.workers == 1:
        results = [_run_cell(config, *key) for key in keys]
    else:
        # the fork start method forks every worker at the first submit
        pool = ProcessPoolExecutor(max_workers=min(config.workers, len(keys)))
        try:
            futures = [pool.submit(_run_cell, config, *key) for key in keys]
            results = [_collect(f, *key) for f, key in zip(futures, keys)]
        finally:
            # a missing instance file ends the campaign without running the rest
            pool.shutdown(cancel_futures=True)
        # a dead worker breaks the pool and fails every cell still in it;
        # each of those runs once more, alone and one after another (no
        # fork while another pool's threads run)
        results = [_run_alone(config, *key) if isinstance(f.exception(), BrokenProcessPool)
                   else r for f, r, key in zip(futures, results, keys)]

    indicators = tuple(f.name for f in dataclasses.fields(FrontMetrics))
    write_csv(out / "cells.csv", ("instance", "algorithm", "seed") + indicators,
              [(r.instance, r.algorithm, r.seed)
               + (("",) * len(indicators) if r.metrics is None else dataclasses.astuple(r.metrics))
               for r in results])

    ranked = []
    averages = []
    for algorithm in config.algorithms:
        cells = [dataclasses.astuple(r.metrics) for r in results
                 if r.algorithm == algorithm and r.metrics is not None]
        if cells:
            ranked.append(algorithm)
            averages.append([float(np.mean(column)) for column in zip(*cells)])
    write_csv(out / "averages.csv", ("algorithm",) + indicators,
              [[a] + row for a, row in zip(ranked, averages)])

    ranking = []
    if ranked:
        try:
            ci, order = topsis_rank(averages)
        except ValueError as exc:
            print(f"ranking skipped: {exc}", file=sys.stderr)
        else:
            ranking = [[pos + 1, ranked[a], ci[a]] for pos, a in enumerate(order)]
    write_csv(out / "ranking.csv", ("rank", "algorithm", "closeness"), ranking)
    return results
