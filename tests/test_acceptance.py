"""Acceptance gate: one test per release criterion, one summary line each.

Every test records a ``[PASS]``/``[FAIL]`` line (with the measured numbers)
via ``record_acceptance`` before asserting, so the terminal summary always
shows the full scoreboard even when a criterion fails.  Tolerances and time
caps are stated inline next to each check.
"""

import itertools
import math
import statistics
import time

import numpy as np
import pytest

from hubnet.analysis import compute_metrics, hypervolume, topsis_rank
from hubnet.evaluation import evaluate
from hubnet.exact import (
    DEFAULT_BUDGET,
    EpsilonGrid,
    _build_index,
    _solve_min,
    epsilon_constraint_front,
)
from hubnet.fileio import save_instance, write_front_csv
from hubnet.fronts import dominates
from hubnet.fuzzy import defuzzify_components
from hubnet.generator import GeneratorSpec, generate, preset
from hubnet.metaheuristics import ALGORITHMS, AlgorithmParams, run_nsga2
from hubnet.model import check_feasibility
from hubnet.workbench import ExperimentConfig, run_compare, sweep_rows

from conftest import record_acceptance
from oracle import oracle_front


def _record(ok: bool, tag: str, detail: str) -> str:
    line = f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}"
    record_acceptance(line)
    return line


def _nondecreasing(xs, tol=0.0) -> bool:
    return all(b >= a - tol for a, b in zip(xs, xs[1:]))


def _hv_within(rows: np.ndarray, reference) -> float:
    """Dominated volume inside the reference box only.

    Points beyond the reference bound no volume inside the box, and
    ``hypervolume`` rejects references that fail to cover its input, so a
    shared reference across solvers requires clipping each front to the
    box first.
    """
    ref = np.asarray(reference, dtype=float)
    keep = np.all(rows <= ref[None, :], axis=1)
    return hypervolume(rows[keep], reference) if keep.any() else 0.0


@pytest.fixture(scope="module")
def bench():
    """The ten-node benchmark and its exact front, shared by C4-C7."""
    inst = generate(GeneratorSpec(n=10, p=3, seed=7))
    return inst, epsilon_constraint_front(inst)


def test_c01_exact_solver_matches_exhaustive_oracle():
    """20 small instances: per-cell cost optimum identical to the oracle's."""
    start = time.perf_counter()
    grid = EpsilonGrid(6, 6)
    cells = 0
    worst_gap = 0.0
    problems = []
    for seed in range(100, 120):
        inst = generate(GeneratorSpec(n=5, p=2, seed=seed))
        orows = oracle_front(inst).objective_rows()
        front = epsilon_constraint_front(inst, grid)
        for sol in front.solutions:
            z = np.asarray(sol.objectives.as_tuple())
            beaten = np.all(orows <= z, axis=1) & np.any(orows < z, axis=1)
            if beaten.any():
                problems.append(f"seed {seed}: front member {tuple(z)} dominated")
        index = _build_index(inst, 0.5, DEFAULT_BUDGET)
        payoff = [_solve_min(index, m, math.inf, math.inf)
                  for m in range(3)]
        rows = np.array([s.objectives.as_tuple() for s in payoff])
        r2 = (float(rows[:, 1].min()), float(rows[:, 1].max()))
        r3 = (float(rows[:, 2].min()), float(rows[:, 2].max()))
        row_cells = grid.cells(r2, r3)
        index.memo.set_grid(row_cells)
        for eps2, eps3 in row_cells:
            cells += 1
            res = _solve_min(index, 0, eps2, eps3)
            sel = (orows[:, 1] <= eps2 + 1e-9) & (orows[:, 2] <= eps3 + 1e-9)
            if res is None:
                if sel.any():
                    problems.append(f"seed {seed} cell {(eps2, eps3)}: solver empty")
                continue
            if not sel.any():
                problems.append(f"seed {seed} cell {(eps2, eps3)}: oracle empty")
                continue
            gap = abs(res.objectives.z1 - float(orows[sel, 0].min()))
            worst_gap = max(worst_gap, gap)
    elapsed = time.perf_counter() - start
    ok = not problems and worst_gap <= 1e-6 and elapsed < 60.0
    line = _record(ok, "C1 exact solver vs exhaustive oracle",
                   f"20 instances, {cells} grid cells, worst z1 gap "
                   f"{worst_gap:.2e} (tol 1e-06), fronts oracle-nondominated, "
                   f"{elapsed:.1f}s (cap 60s)")
    assert ok, line + "".join("\n  " + p for p in problems[:5])


def test_c02_every_emitted_solution_is_feasible():
    """50 random instances up to 15 nodes: zero constraint violations, and
    every stored objective triple equal to ``evaluate``'s recomputation,
    as ``hubnet validate`` requires."""
    start = time.perf_counter()
    params = AlgorithmParams(max_iterations=10, population_size=20)
    checked = 0
    violations = []
    mismatches = []
    for k in range(50):
        n = 4 + k % 12
        inst = generate(GeneratorSpec(n=n, p=max(2, n // 3), seed=1000 + k))
        fronts = [front for name in ALGORITHMS
                  for front in [ALGORITHMS[name](inst, params, seed=k)]]
        if n <= 7:
            fronts.append(epsilon_constraint_front(inst, EpsilonGrid(3, 3)))
        for front in fronts:
            for sol in front.solutions:
                checked += 1
                report = check_feasibility(inst, sol, sol.alpha_prime)
                if report:
                    violations.append(f"seed {1000 + k}: {report[0]}")
                    continue
                stored = sol.objectives.as_tuple()
                again = evaluate(inst, sol.design, sol.plan, sol.alpha_prime).as_tuple()
                if again != stored:
                    mismatches.append(f"seed {1000 + k}, n {n}: stored {stored}, "
                                      f"recomputed {again}")
    elapsed = time.perf_counter() - start
    ok = not violations and not mismatches and checked > 0 and elapsed < 300.0
    line = _record(ok, "C2 feasibility of all solver output",
                   f"{checked} solutions across 50 instances (n 4..15), "
                   f"{len(violations)} violations, {len(mismatches)} objective mismatches, "
                   f"{elapsed:.1f}s (cap 300s)")
    assert ok, line + "".join("\n  " + v for v in (violations + mismatches)[:5])


def test_c03_defuzzification_affine_and_monotone_in_rate():
    """1000 random trapezoids on 11-point rate grids."""
    rng = np.random.default_rng(42)
    grid = np.linspace(0.0, 1.0, 11)
    worst_dev = 0.0
    monotone = True
    for _ in range(1000):
        q = np.sort(rng.uniform(0.0, 1000.0, size=4))
        vals = [float(defuzzify_components(q, a)) for a in grid]
        monotone &= _nondecreasing(vals)
        affine = vals[0] + grid * (vals[-1] - vals[0])
        worst_dev = max(worst_dev, float(np.max(np.abs(np.asarray(vals) - affine))))
    ok = monotone and worst_dev < 1e-12
    line = _record(ok, "C3 defuzzification affine in the rate",
                   f"1000 trapezoids x 11 rates, nondecreasing={monotone}, "
                   f"max affine deviation {worst_dev:.2e} (tol 1e-12)")
    assert ok, line


def test_c04_aircraft_capacity_sweep_only_moves_emissions(bench):
    """Fixed plan, capacity 30..70: z1/z3 bit-identical, z2 nonincreasing."""
    inst, front = bench
    plan = front.solutions[0]           # minimum-cost front member
    rows = sweep_rows(inst, plan, "phi", [30.0, 40.0, 50.0, 60.0, 70.0])
    z1s, z2s, z3s = [r[1] for r in rows], [r[2] for r in rows], [r[3] for r in rows]
    ok = (len(set(z1s)) == 1 and len(set(z3s)) == 1
          and _nondecreasing(z2s[::-1]) and z2s[0] > z2s[-1])
    line = _record(ok, "C4 capacity sweep isolates emissions",
                   f"z1 constant at {z1s[0]:.2f}, z3 constant at {z3s[0]:.2f}, "
                   f"z2 {z2s[0]:.2f} -> {z2s[-1]:.2f} nonincreasing")
    assert ok, line


def test_c05_discount_sweeps_raise_cost(bench):
    """Fixed plan: z1 nondecreasing in both transport discounts."""
    inst, front = bench
    plan = front.solutions[0]
    alpha_rows = sweep_rows(inst, plan, "alpha", [0.4, 0.5, 0.6, 0.7, 0.8])
    beta_rows = sweep_rows(inst, plan, "beta", [0.6, 0.7, 0.8, 0.9, 1.0])
    a_z1 = [r[1] for r in alpha_rows]
    b_z1 = [r[1] for r in beta_rows]
    ok = _nondecreasing(a_z1) and _nondecreasing(b_z1)
    line = _record(ok, "C5 discount sweeps raise cost",
                   f"z1 over alpha 0.4..0.8: {a_z1[0]:.2f} -> {a_z1[-1]:.2f}; "
                   f"over beta 0.6..1.0: {b_z1[0]:.2f} -> {b_z1[-1]:.2f}, "
                   "both nondecreasing")
    assert ok, line


def test_c06_uncertainty_rate_sweep(bench):
    """Fixed plan, rate 0.1..0.9: z1/z2 nondecreasing, z3 constant."""
    inst, front = bench
    plan = front.solutions[0]
    rows = sweep_rows(inst, plan, "alpha_prime", [0.1, 0.3, 0.5, 0.7, 0.9])
    z1s, z2s, z3s = [r[1] for r in rows], [r[2] for r in rows], [r[3] for r in rows]
    ok = _nondecreasing(z1s) and _nondecreasing(z2s) and len(set(z3s)) == 1
    line = _record(ok, "C6 uncertainty rate sweep",
                   f"z1 {z1s[0]:.2f} -> {z1s[-1]:.2f} and z2 {z2s[0]:.2f} -> "
                   f"{z2s[-1]:.2f} nondecreasing, z3 constant at {z3s[0]:.2f}")
    assert ok, line


def test_c07_metaheuristic_hypervolume_floor(bench):
    """Each algorithm at stock defaults: median HV >= 0.8x exact, 5 seeds."""
    inst, front = bench
    exact_rows = front.objective_rows()
    reference = tuple(float(v) * 1.1 for v in exact_rows.max(axis=0))
    hv_exact = hypervolume(front, reference)
    medians = {}
    times = {}
    ok = hv_exact > 0.0
    for name in sorted(ALGORITHMS):
        t0 = time.perf_counter()
        ratios = [_hv_within(ALGORITHMS[name](inst, AlgorithmParams(), seed=s)
                             .objective_rows(), reference) / hv_exact
                  for s in range(5)]
        times[name] = time.perf_counter() - t0
        medians[name] = statistics.median(ratios)
        ok = ok and medians[name] >= 0.8 and times[name] < 180.0
    detail = ", ".join(f"{n} {medians[n]:.3f} ({times[n]:.0f}s)"
                       for n in sorted(ALGORITHMS))
    line = _record(ok, "C7 metaheuristic hypervolume floor",
                   f"median over seeds 0..4 vs exact: {detail}; "
                   "floor 0.80, cap 180s each")
    assert ok, line


def test_c08_metaheuristics_never_beat_the_oracle():
    """No heuristic front member strictly dominates any oracle member."""
    params = AlgorithmParams()
    beaten = []
    members = 0
    for seed in range(100, 105):
        inst = generate(GeneratorSpec(n=5, p=2, seed=seed))
        oracle = [s.objectives.as_tuple() for s in oracle_front(inst)]
        for name in sorted(ALGORITHMS):
            front = ALGORITHMS[name](inst, params, seed=seed)
            for sol in front.solutions:
                members += 1
                z = sol.objectives.as_tuple()
                for o in oracle:
                    if dominates(z, o):
                        beaten.append(f"seed {seed} {name}: {z} beats {o}")
    ok = not beaten and members > 0
    line = _record(ok, "C8 heuristics never beat the oracle",
                   f"{members} front members vs 5 oracle fronts, "
                   f"{len(beaten)} dominance hits (exact comparison)")
    assert ok, line + "".join("\n  " + b for b in beaten[:5])


def test_c09_frozen_indicator_matrix_ranking():
    """Frozen four-indicator averages rank mowoa > nsga2 > mopso by TOPSIS.

    The rows go through the ``topsis_rank`` that ``run_compare`` calls, so
    the directions and equal weights checked here are the campaign's own;
    closeness is checked against the hand derivation below.
    """
    # Hand derivation (vector normalization, weights 0.25, npf/msi benefit,
    # sm/cpt cost), rows nsga2 / mopso / mowoa:
    #   column sums of squares 3958.76, 34026370, 0.284243, 59632.14
    #   norms                  62.918678, 5833.212665, 0.533144, 244.196929
    #   weighted 0.25*v/norm   nsga2 0.148605 0.146574 0.174906 0.100943
    #                          mopso 0.114433 0.145417 0.132703 0.173733
    #                          mowoa 0.165293 0.140960 0.119574 0.148753
    #   ideal  (max, max, min, min) 0.165293 0.146574 0.119574 0.100943
    #   anti   (min, min, max, max) 0.114433 0.140960 0.174906 0.173733
    #   d+ / d-   nsga2 0.057794 / 0.080607
    #             mopso 0.089770 / 0.042437
    #             mowoa 0.048138 / 0.079198
    #   closeness d-/(d+ + d-)  0.582417, 0.320989, 0.621959
    # The constants below are the same arithmetic carried in 40-digit
    # decimals and rounded to 15 places.
    #
    # An earlier version of this test expected nsga2 > mopso > mowoa. That
    # order was dropped: the ranker reproduces the derivation above to every
    # digit; under these directions mowoa beats mopso on npf, sm and cpt and
    # trails it on msi by 3%, so the old order needs npf scored as a cost,
    # min-max normalization with every criterion a benefit, or about 90% of
    # the weight on msi, none of which matches analysis.py or run_compare;
    # and nothing records where that order came from. If the paper's full
    # text gives other weights or directions, revisit this test against it.
    expected = {
        "nsga2": 0.582417105608138,
        "mopso": 0.320988981661530,
        "mowoa": 0.621958926690219,
    }
    tol = 1e-12
    alternatives = ("nsga2", "mopso", "mowoa")
    # rows in FrontMetrics field order: npf, msi, sm, cpt
    ci, order = topsis_rank([
        [37.4, 3420.0, 0.373, 98.6],
        [28.8, 3393.0, 0.283, 169.7],
        [41.6, 3289.0, 0.255, 145.3],
    ])
    got = [alternatives[i] for i in order]
    gaps = [abs(ci[i] - expected[a]) for i, a in enumerate(alternatives)]
    gap = max(gaps)
    ok = all(g <= tol for g in gaps) and got == ["mowoa", "nsga2", "mopso"]
    line = _record(ok, "C9 frozen indicator matrix ranking",
                   f"closeness nsga2 {ci[0]:.6f}, mopso {ci[1]:.6f}, "
                   f"mowoa {ci[2]:.6f}, max gap to hand values {gap:.2e} "
                   f"(tol {tol:g}) -> order {' > '.join(got)} "
                   "(expected mowoa > nsga2 > mopso)")
    assert ok, line


def test_c10_seeded_runs_are_byte_identical(tmp_path):
    """Same seed, 1 vs 2 workers, repeated runs: byte-identical artifacts."""
    spec = GeneratorSpec(n=5, p=2, seed=100)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_instance(generate(spec), a)
    save_instance(generate(spec), b)
    gen_ok = a.read_bytes() == b.read_bytes()

    inst = generate(spec)
    params = AlgorithmParams(max_iterations=10, population_size=20)
    rerun_ok = True
    for name in sorted(ALGORITHMS):
        f1, f2 = tmp_path / f"{name}1.csv", tmp_path / f"{name}2.csv"
        write_front_csv(ALGORITHMS[name](inst, params, seed=3), f1)
        write_front_csv(ALGORITHMS[name](inst, params, seed=3), f2)
        rerun_ok &= f1.read_bytes() == f2.read_bytes()

    outs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        run_compare(ExperimentConfig(
            instances=(str(a),), algorithms=("exact",) + tuple(sorted(ALGORITHMS)),
            seeds=(0,), out_dir=str(out), params=params,
            grid=EpsilonGrid(3, 3), workers=workers))
        outs.append(out)
    front_names = sorted(p.name for p in (outs[0] / "fronts").iterdir())
    pool_ok = front_names == sorted(p.name for p in (outs[1] / "fronts").iterdir())
    for name in front_names:
        pool_ok &= ((outs[0] / "fronts" / name).read_bytes()
                    == (outs[1] / "fronts" / name).read_bytes())

    ok = gen_ok and rerun_ok and pool_ok
    line = _record(ok, "C10 seeded determinism",
                   f"generator bytes equal={gen_ok}, solver reruns equal="
                   f"{rerun_ok}, 1- vs 2-worker fronts equal={pool_ok} "
                   f"({len(front_names)} files)")
    assert ok, line


def test_c11_front_indicators_match_hand_values():
    """Closed-form indicator checks plus box-union cross-validation."""
    problems = []

    m = compute_metrics([(0, 0, 0), (3, 4, 0)], elapsed_seconds=1.5)
    if not (m.npf == 2 and m.msi == 5.0 and m.sm == 0.0 and m.cpt == 1.5):
        problems.append(f"two-point case gave {m}")
    m = compute_metrics([(0, 4, 0), (1, 3, 0), (2, 2, 0), (3, 1, 0)], 0.0)
    if not (m.npf == 4 and m.sm == 0.0 and abs(m.msi - math.sqrt(18.0)) < 1e-12):
        problems.append(f"collinear case gave {m}")
    m = compute_metrics([(2, 3, 4)], elapsed_seconds=0.25)
    if (m.npf, m.msi, m.sm, m.cpt) != (1, 0.0, 0.0, 0.25):
        problems.append(f"singleton case gave {m}")

    def box_union(points, ref):
        # inclusion-exclusion over [p, ref] boxes; trustworthy for <= 3 boxes
        total = 0.0
        for r in range(1, len(points) + 1):
            for combo in itertools.combinations(points, r):
                corner = np.max(np.asarray(combo, dtype=float), axis=0)
                total += (-1) ** (r + 1) * float(
                    np.prod(np.maximum(0.0, np.asarray(ref) - corner)))
        return total

    worst = 0.0
    rng = np.random.default_rng(12)
    cases = [np.array([[1.0, 2.0, 2.0], [2.0, 1.0, 2.0]])]
    cases += [rng.uniform(0.0, 9.5, size=(int(rng.integers(1, 4)), 3))
              for _ in range(50)]
    for pts in cases:
        ref = (10.0, 10.0, 10.0)
        worst = max(worst, abs(hypervolume(pts, ref) - box_union(pts, ref)))
    if worst >= 1e-12:
        problems.append(f"hypervolume off box union by {worst:.2e}")

    ok = not problems
    line = _record(ok, "C11 indicator hand values",
                   f"two-point/collinear/singleton metrics exact, hypervolume "
                   f"vs box union max gap {worst:.2e} (tol 1e-12, 51 cases)")
    assert ok, line + "".join("\n  " + p for p in problems)


def test_c12_genetic_solver_meets_benchmark_time_caps():
    """Stock genetic run on presets 1 and 4 within desk-scale wall time."""
    t0 = time.perf_counter()
    small = run_nsga2(generate(preset(1)))
    t_small = time.perf_counter() - t0
    t0 = time.perf_counter()
    large = run_nsga2(generate(preset(4)))
    t_large = time.perf_counter() - t0
    ok = t_small < 120.0 and t_large < 900.0 and len(small) > 0 and len(large) > 0
    line = _record(ok, "C12 benchmark scale timing",
                   f"15 nodes: {t_small:.1f}s (cap 120s), 60 nodes: "
                   f"{t_large:.1f}s (cap 900s), growth x{t_large / t_small:.1f} "
                   "reported not asserted")
    assert ok, line
