"""hubnet benchmark: four solver workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload nsga2_p1 --seed 1 --seconds 20 --trace 0

Workloads.  Their inputs are pinned so that every front can be checked
against the hash recorded in ``bench/expected.json``; ``--seed`` orders
the solver calls of a ``swarm_c7`` pass and the instances of a
``compare_c8`` campaign, and changes nothing else.  Iteration counts and
the exact grid are cut from the stock values so that a pass takes
seconds, keeping each workload's mix of layers:

* ``nsga2_p1``   -- ``run_nsga2`` seed 0, 15 iterations, on preset 1
  (n=15, p=6); capacity repair is most of the run.
* ``swarm_c7``   -- ``run_mopso`` and ``run_mowoa`` seed 0, 40 iterations,
  on the C7 instance (n=10, p=3, seed 7); the grid archive dominates.
* ``exact_n10``  -- ``epsilon_constraint_front`` on C7 with a 3x3 grid, in
  a child process killed at a 15 s deadline; after the timed passes, one
  probe solve of 10-node seed 3 under the same deadline, which it misses
  (the capacity-binding tail of the exact solver).
* ``compare_c8`` -- ``run_compare`` with two workers over two 8-node
  instances, all four solvers, seeds 0 and 1, 10 iterations.

A run repeats passes of its workload for ``--seconds`` (at least one
pass), then checks every front: the CSV bytes must hash to the recorded
value and match across passes, and every row is rebuilt and re-checked
the way ``hubnet validate`` does.  ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics.  Human-readable lines
come first; the last line of standard output is the JSON result.

Every time (unit ``s``) and rate (``1/s``) is in reference seconds.  A
fixed numpy kernel (``solve.calibrate``) is timed on both sides of every
timed step -- each in-process solver call, each campaign, the setup
block -- and the step's times are scaled by its speed, ``solve.CAL_REF_S`` over
the mean of the two kernel times (their median is ``run.speed``).  An
exact solve is calibrated inside its child process, around the solve.
On a shared machine whose speed swings by half within minutes this keeps
one run comparable with the next.  Raw pass times are printed on a ``#``
line.

``python3 bench/run.py --record`` re-records ``bench/expected.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED = BENCH / "expected.json"
WORK = BENCH / "_work"
SETUP_REPEATS = 9
SOLVER_SEED = 0

if not (SRC / "hubnet" / "__init__.py").is_file():
    sys.exit(f"bench: no hubnet sources under {SRC}; run from a full checkout")
sys.path[:0] = [str(SRC), str(BENCH)]

import numpy as np  # noqa: E402

from hubnet import analysis, fileio, workbench  # noqa: E402
from hubnet.evaluation import evaluate  # noqa: E402
from hubnet.exact import EpsilonGrid  # noqa: E402
from hubnet.generator import GeneratorSpec, generate, preset  # noqa: E402
from hubnet.metaheuristics import AlgorithmParams  # noqa: E402
from hubnet.model import check_feasibility  # noqa: E402
from solve import calibrate, solve_to_files, speed_of  # noqa: E402
from tracer import Tracer, merge  # noqa: E402

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import hubnet
from hubnet.fileio import load_instance
for path in sys.argv[1:]:
    load_instance(path)
print(time.perf_counter() - start)
"""


@dataclass(frozen=True)
class Job:
    """One solver call of a pass; ``key`` names its front in expected.json."""

    algorithm: str
    instance: str

    @property
    def key(self) -> str:
        return f"{self.algorithm}/{self.instance}/seed{SOLVER_SEED}"


@dataclass(frozen=True)
class Workload:
    instances: dict[str, GeneratorSpec]
    jobs: tuple[Job, ...] = ()
    params: AlgorithmParams = AlgorithmParams()
    grid: EpsilonGrid = EpsilonGrid()
    deadline_s: Optional[float] = None   # exact solves run in a child process
    probe: Optional[Job] = None          # once per run, recorded to miss the deadline
    campaign: bool = False               # one run_compare over all instances


WORKLOADS = {
    "nsga2_p1": Workload(
        instances={"p1": preset(1)},
        jobs=(Job("nsga2", "p1"),),
        params=AlgorithmParams(max_iterations=15)),
    "swarm_c7": Workload(
        instances={"c7": GeneratorSpec(n=10, p=3, seed=7)},
        jobs=(Job("mopso", "c7"), Job("mowoa", "c7")),
        params=AlgorithmParams(max_iterations=40)),
    "exact_n10": Workload(
        instances={"c7": GeneratorSpec(n=10, p=3, seed=7),
                   "n10s3": GeneratorSpec(n=10, p=3, seed=3)},
        jobs=(Job("exact", "c7"),),
        probe=Job("exact", "n10s3"),
        grid=EpsilonGrid(3, 3),
        deadline_s=15.0),
    "compare_c8": Workload(
        instances={"c8s0": GeneratorSpec(n=8, p=3, seed=0),
                   "c8s1": GeneratorSpec(n=8, p=3, seed=1)},
        params=AlgorithmParams(max_iterations=10),
        campaign=True),
}
COMPARE_ALGORITHMS = ("exact", "nsga2", "mopso", "mowoa")
COMPARE_SEEDS = (0, 1)
COMPARE_WORKERS = 2


@dataclass
class Outcome:
    key: str
    instance: str
    csv: Optional[Path]               # None: no front (deadline, error)
    solve_s: Optional[float] = None
    evals: int = 0
    missed_deadline: bool = False
    probe: bool = False               # recorded outcome is a missed deadline
    error: Optional[str] = None


@dataclass
class PassResult:
    wall_s: float                     # reference seconds
    raw_wall_s: float                 # as measured
    outcomes: list[Outcome]
    trace: dict[str, float] = field(default_factory=dict)
    campaign: dict[str, float] = field(default_factory=dict)

    def scale_totals(self, speed: float) -> None:
        """Rescale the trace and campaign times to reference seconds."""
        for d in (self.trace, self.campaign):
            for k in d:
                if k.endswith((".s", "_s")):
                    d[k] *= speed


def _evals(w: Workload, algorithm: str) -> int:
    if algorithm == "exact":
        return 0
    return w.params.population_size * (w.params.max_iterations + 1)


def child_solve(w: Workload, job: Job, inst_path: Path, out: Path,
                trace: bool) -> tuple[Outcome, dict, float, float]:
    """Exact solve in a child process, killed at the workload's deadline.

    Returns the outcome, the child's layer totals, its speed and the
    seconds it spent calibrating.
    """
    csv = out / f"{job.key.replace('/', '_')}.csv"
    result = csv.with_suffix(".result.json")
    request = csv.with_suffix(".request.json")
    request.write_text(json.dumps({
        "instance": str(inst_path), "grid": [w.grid.segments_z2, w.grid.segments_z3],
        "out_csv": str(csv), "trace": trace, "result": str(result)}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    outcome = Outcome(job.key, job.instance, None, probe=job == w.probe)
    child = subprocess.Popen([sys.executable, str(BENCH / "solve.py"), str(request)],
                             env=env, stdin=subprocess.DEVNULL)
    try:
        child.wait(timeout=w.deadline_s)
    except subprocess.TimeoutExpired:
        outcome.missed_deadline = True
        return outcome, {}, 1.0, 0.0
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
    if child.returncode != 0 or not result.is_file():
        outcome.error = f"child exited with {child.returncode}"
        return outcome, {}, 1.0, 0.0
    data = json.loads(result.read_text())
    outcome.csv, outcome.solve_s = csv, data["solve_s"]
    return outcome, data["trace"], data["speed"], data["calibration_s"]


def _campaign_pass(w: Workload, paths: dict[str, Path], rng: random.Random,
                   out: Path) -> tuple[float, list[Outcome], dict[str, float]]:
    names = list(paths)
    rng.shuffle(names)
    config = workbench.ExperimentConfig(
        instances=tuple(str(paths[n]) for n in names), algorithms=COMPARE_ALGORITHMS,
        seeds=COMPARE_SEEDS, out_dir=str(out), params=w.params, workers=COMPARE_WORKERS)
    start = time.perf_counter()
    results = workbench.run_compare(config)
    wall = time.perf_counter() - start
    outcomes = []
    for r in results:
        csv = out / "fronts" / f"{r.instance}_{r.algorithm}_seed{r.seed}.csv"
        outcomes.append(Outcome(
            f"compare/{r.instance}/{r.algorithm}/seed{r.seed}", r.instance,
            csv if r.metrics else None, r.metrics.cpt if r.metrics else None,
            _evals(w, r.algorithm), error=r.error))
    # the per-cell solve times come back through cells.csv, as users see them
    rows = [line.split(",") for line in (out / "cells.csv").read_text().splitlines()[1:]]
    cpu = sum(float(row[6]) for row in rows if row[6])
    exact_cells = [row[0] for row in rows if row[1] == "exact"]
    campaign = {
        "workbench.cell_cpu_s": cpu,
        "workbench.pool_efficiency": cpu / (COMPARE_WORKERS * wall),
        "workbench.duplicate_exact_cells": len(exact_cells) - len(set(exact_cells)),
        "run.cells": len(rows),
    }
    return wall, outcomes, campaign


class SpeedMeter:
    """The machine's speed over each timed step, from calibrations on both sides."""

    def __init__(self) -> None:
        self.last = calibrate()
        self.speeds: list[float] = []

    def step(self) -> float:
        before, self.last = self.last, calibrate()
        self.speeds.append(speed_of(before, self.last))
        return self.speeds[-1]


def run_pass(w: Workload, insts: dict, paths: dict[str, Path], rng: random.Random,
             out: Path, trace: bool, meter: SpeedMeter) -> PassResult:
    """One pass of the workload, in reference seconds; traced passes also
    return layer totals.

    Each solver call (or the whole campaign) is one step, scaled by the
    machine speed around it: the meter's calibrations on both sides, or,
    for an exact solve, the child's own calibrations around the solve.
    """
    out.mkdir(parents=True)
    tracer = Tracer().install() if trace else None
    outcomes, child_traces, campaign = [], [], {}
    raw = wall = 0.0
    try:
        if w.campaign:
            raw, outcomes, campaign = _campaign_pass(w, paths, rng, out)
            speed = meter.step()
            for o in outcomes:
                if o.solve_s is not None:
                    o.solve_s *= speed
            wall = raw * speed
        else:
            jobs = list(w.jobs)
            rng.shuffle(jobs)
            for job in jobs:
                start = time.perf_counter()
                if w.deadline_s is not None:
                    outcome, child_trace, speed, cal_s = child_solve(
                        w, job, paths[job.instance], out, trace)
                    child_traces.append(child_trace)
                    meter.speeds.append(speed)
                    start += cal_s
                else:
                    csv = out / f"{job.key.replace('/', '_')}.csv"
                    solve_s = solve_to_files(job.algorithm, insts[job.instance], SOLVER_SEED,
                                             w.params, w.grid, csv)
                    outcome = Outcome(job.key, job.instance, csv, solve_s,
                                      _evals(w, job.algorithm))
                step_s = time.perf_counter() - start
                if w.deadline_s is None:
                    speed = meter.step()
                if outcome.solve_s is not None:
                    outcome.solve_s *= speed
                raw += step_s
                wall += step_s * speed
                outcomes.append(outcome)
    finally:
        if tracer is not None:
            tracer.uninstall()
    result = PassResult(wall, raw, outcomes, merge(tracer.summary(), *child_traces)
                        if tracer else {}, campaign)
    result.scale_totals(wall / raw)
    return result


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _reference(rows: np.ndarray) -> list[float]:
    hi, lo = rows.max(axis=0), rows.min(axis=0)
    return [float(v) for v in hi + 0.1 * (hi - lo) + 1.0]


def check_front(inst, csv: Path) -> list[str]:
    """Rebuild every row as ``hubnet validate`` does; the problems found."""
    problems = []
    for r, row in enumerate(fileio.read_front_csv(csv)):
        try:
            sol = fileio.solution_from_row(inst, row)
        except (ValueError, TypeError) as exc:
            problems.append(f"{csv.name} row {r}: {exc}")
            continue
        report = check_feasibility(inst, sol, sol.alpha_prime)
        problems.extend(f"{csv.name} row {r}: {line}" for line in report)
        if not report and evaluate(inst, sol.design, sol.plan,
                                   sol.alpha_prime).as_tuple() != sol.objectives.as_tuple():
            problems.append(f"{csv.name} row {r}: stored objectives differ")
    return problems


def _front_rows(csv: Path) -> np.ndarray:
    return np.array([(r.z1, r.z2, r.z3) for r in fileio.read_front_csv(csv)]).reshape(-1, 3)


def check_outcomes(outcomes: list[Outcome], insts: dict, expected: dict
                   ) -> tuple[int, list[str], list[float]]:
    """Failed solver calls, their reasons, and the hypervolume ratios."""
    failed, reasons, ratios = 0, [], []
    verdicts: dict[tuple[str, str], list[str]] = {}
    first_sha: dict[str, str] = {}
    for o in outcomes:
        problems = []
        if o.error:
            problems.append(f"{o.key}: {o.error}")
        elif o.missed_deadline:
            if not o.probe:
                problems.append(f"{o.key}: missed the deadline")
        else:
            sha = _sha(o.csv)
            if sha != first_sha.setdefault(o.key, sha):
                problems.append(f"{o.key}: front differs between passes")
            rec = expected.get(o.key)
            if rec is None and not o.probe:
                problems.append(f"{o.key}: no recorded front")
            if rec is not None and sha != rec["sha256"]:
                problems.append(f"{o.key}: front hash {sha[:12]} != recorded "
                                f"{rec['sha256'][:12]}")
            if (o.key, sha) not in verdicts:
                verdicts[(o.key, sha)] = check_front(insts[o.instance], o.csv)
                if rec is not None:
                    rows = np.minimum(_front_rows(o.csv), rec["reference"])
                    ratios.append(analysis.hypervolume(rows, rec["reference"])
                                  / rec["hypervolume"])
            problems.extend(verdicts[(o.key, sha)])
        if problems:
            failed += 1
            reasons.extend(problems)
    return failed, reasons, ratios


def measure_setup(paths: list[Path]) -> list[float]:
    """Import hubnet and load the instance JSONs in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, *map(str, paths)],
                              env=env, capture_output=True, text=True, check=True,
                              timeout=60)
        times.append(float(done.stdout.strip()))
    return times


def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(num: str, den: str):
    return lambda s: s.get(num, 0.0) / s[den] if s.get(den) else 0.0


# per-layer metrics: (name, unit, better); values come from the traced
# passes' span totals, or from DERIVED, or from the untraced run stats
PER_LAYER = [
    ("encoding.repair.calls", "count", "lower"),
    ("encoding.repair.s", "s", "lower"),
    ("encoding.repair.flips", "count", "lower"),
    ("encoding.repair.unrepairable", "count", "lower"),
    ("encoding.decode.calls", "count", "lower"),
    ("encoding.decode.s", "s", "lower"),
    ("encoding.decode.undecodable", "count", "lower"),
    ("encoding.self_s", "s", "lower"),
    ("evaluation.hub_tables.calls", "count", "lower"),
    ("evaluation.hub_tables.s", "s", "lower"),
    ("evaluation.evaluate_mask.calls", "count", "lower"),
    ("evaluation.evaluate_mask.s", "s", "lower"),
    ("evaluation.self_s", "s", "lower"),
    ("fronts.nondominated_sort.calls", "count", "lower"),
    ("fronts.nondominated_sort.s", "s", "lower"),
    ("fronts.crowding_distance.calls", "count", "lower"),
    ("fronts.crowding_distance.s", "s", "lower"),
    ("fronts.from_candidates.s", "s", "lower"),
    ("fronts.self_s", "s", "lower"),
    ("archive.add.calls", "count", "lower"),
    ("archive.add.s", "s", "lower"),
    ("archive.add.accept_ratio", "ratio", "higher"),
    ("archive.select_leader.calls", "count", "lower"),
    ("archive.select_leader.s", "s", "lower"),
    ("archive.self_s", "s", "lower"),
    ("metaheuristics.evals", "count", "higher"),
    ("metaheuristics.evaluate_population.self_s", "s", "lower"),
    ("metaheuristics.variation.s", "s", "lower"),
    ("metaheuristics.self_s", "s", "lower"),
    ("exact.build_index.s", "s", "lower"),
    ("exact.configs", "count", "lower"),
    ("exact.build_repair.s", "s", "lower"),
    ("exact.conditional_lb.calls", "count", "lower"),
    ("exact.conditional_lb.s", "s", "lower"),
    ("exact.solve_min.calls", "count", "lower"),
    ("exact.solve_min.s", "s", "lower"),
    ("exact.solve_min.none", "count", "lower"),
    ("exact.bb_routing.calls", "count", "lower"),
    ("exact.bb_routing.s", "s", "lower"),
    ("exact.bb_routing.found_ratio", "ratio", "higher"),
    ("exact.pair_data.calls", "count", "lower"),
    ("exact.pair_data.miss_ratio", "ratio", "lower"),
    ("exact.self_s", "s", "lower"),
    ("analysis.compute_metrics.s", "s", "lower"),
    ("analysis.topsis_rank.s", "s", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("fileio.load_instance.s", "s", "lower"),
    ("fileio.write_csv.calls", "count", "lower"),
    ("fileio.write_csv.s", "s", "lower"),
    ("fileio.self_s", "s", "lower"),
    ("workbench.cell_cpu_s", "s", "lower"),
    ("workbench.pool_efficiency", "ratio", "higher"),
    ("workbench.duplicate_exact_cells", "count", "lower"),
    ("workbench.self_s", "s", "lower"),
    ("run.evals_per_s", "1/s", "higher"),
    ("run.cells_per_s", "1/s", "higher"),
    ("run.fail_share", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("run.speed", "ratio", "higher"),
]
DERIVED = {
    "archive.add.accept_ratio": _ratio("archive.add.accepted", "archive.add.calls"),
    "exact.bb_routing.found_ratio": _ratio("exact.bb_routing.found", "exact.bb_routing.calls"),
    "exact.pair_data.miss_ratio": _ratio("exact.pair_data_build.calls", "exact.pair_data.calls"),
}

# end-to-end metrics: (name, unit, better)
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("solve_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("hv_ratio", "ratio", "higher"),
]


def solve_seconds(passes: list[PassResult]) -> float:
    """Mean over the workload's distinct solver calls of each call's median.

    A plain median over a mix of calls (mopso and mowoa, or the 16 cells
    of a campaign) falls in the gap between the groups and swings with it.
    """
    times: dict[str, list[float]] = {}
    for p in passes:
        for o in p.outcomes:
            if o.solve_s is not None:
                times.setdefault(o.key, []).append(o.solve_s)
    return statistics.fmean(_median(v) for v in times.values()) if times else 0.0


def run_stats(w: Workload, passes: list[PassResult], probes: list[Outcome]
              ) -> dict[str, float]:
    """Rates over the untraced passes (and the probe), as users see them."""
    wall = sum(p.wall_s for p in passes)
    outcomes = [o for p in passes for o in p.outcomes] + probes
    missed = sum(1 for o in outcomes if o.missed_deadline or o.error)
    stats = {
        "run.evals_per_s": sum(o.evals for o in outcomes) / wall,
        "run.cells_per_s": sum(p.campaign.get("run.cells", 0) for p in passes) / wall,
        "run.fail_share": missed / len(outcomes),
    }
    if w.campaign:
        for name in ("workbench.cell_cpu_s", "workbench.pool_efficiency",
                     "workbench.duplicate_exact_cells"):
            stats[name] = _median([p.campaign[name] for p in passes])
    return stats


def layer_values(traced: list[PassResult]) -> dict[str, float]:
    """Median over traced passes of every span total and derived ratio."""
    keys = sorted({k for p in traced for k in p.trace})
    values = {k: _median([p.trace.get(k, 0.0) for p in traced]) for k in keys}
    for name, fn in DERIVED.items():
        values[name] = _median([fn(p.trace) for p in traced])
    return values


def stamp(seed: int, load1: float) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "hubnet").glob("*.py")):
        digest.update(path.read_bytes())
    return {"commit": commit, "source_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "load1": load1, "seed": seed}


def generate_inputs(w: Workload, work: Path) -> dict[str, Path]:
    paths = {}
    for name, spec in w.instances.items():
        paths[name] = work / f"{name}.json"
        fileio.save_instance(generate(spec), paths[name])
    return paths


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    load1 = os.getloadavg()[0]
    w = WORKLOADS[name]
    rng = random.Random(seed)
    expected = json.loads(EXPECTED.read_text())
    print("# stamp " + json.dumps(stamp(seed, load1)))
    if not w.campaign:
        # one core for the solver calls, their child processes and the
        # calibrations that scale them; a campaign's pool needs every core
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=WORK) as tmp:
        work = Path(tmp)
        paths = generate_inputs(w, work)
        meter = SpeedMeter()
        setup = _median(measure_setup(list(paths.values()))) * meter.step()
        with Tracer() as load_tracer:
            insts = {n: fileio.load_instance(p) for n, p in paths.items()}
        untraced, traced = [], []
        start = time.perf_counter()
        while not untraced or time.perf_counter() - start < seconds:
            untraced.append(run_pass(w, insts, paths, rng, work / f"u{len(untraced)}",
                                     False, meter))
            if trace:
                traced.append(run_pass(w, insts, paths, rng, work / f"t{len(traced)}",
                                       True, meter))
        probes = []
        if w.probe is not None:
            probes.append(child_solve(w, w.probe, paths[w.probe.instance], work, False)[0])
        outcomes = [o for p in untraced + traced for o in p.outcomes] + probes
        failed, reasons, ratios = check_outcomes(outcomes, insts, expected)
    attempted = len(outcomes)
    rss = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    wall = _median([p.wall_s for p in untraced])
    values = {
        "setup_s": setup,
        "wall_s": wall,
        "solve_s": solve_seconds(untraced),
        "peak_rss_mb": rss,
        "hv_ratio": min(ratios) if ratios else 0.0,
        "run.speed": _median(meter.speeds),
        **run_stats(w, untraced, probes),
    }
    if trace:
        values.update(layer_values(traced))
        values["fileio.load_instance.s"] = load_tracer.summary().get("fileio.load_instance.s", 0.0)
        values["trace.overhead_s"] = _median([p.wall_s for p in traced]) - wall
    print(f"# {name}: {len(untraced)} untraced and {len(traced)} traced passes, "
          f"{attempted} solver calls, {failed} failed")
    print("# raw pass wall_s untraced " + " ".join(f"{p.raw_wall_s:.3f}" for p in untraced)
          + (" traced " + " ".join(f"{p.raw_wall_s:.3f}" for p in traced) if trace else ""))
    for reason in reasons:
        print(f"# FAILED {reason}")
    shown = {n: {"value": float(values.get(n, 0.0)), "unit": u}
             for n, u, _ in END_TO_END + PER_LAYER if trace or n in values}
    for n, m in shown.items():
        print(f"  {n:<44} {m['value']:>14.6g} {m['unit']}")
    metrics = {n: shown[n] for n, _, _ in (PER_LAYER if trace else END_TO_END)}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def record() -> None:
    """Solve every recorded job once and write bench/expected.json."""
    expected = {}
    WORK.mkdir(exist_ok=True)
    for name, w in WORKLOADS.items():
        with tempfile.TemporaryDirectory(prefix=f"record-{name}-", dir=WORK) as tmp:
            work = Path(tmp)
            paths = generate_inputs(w, work)
            insts = {n: fileio.load_instance(p) for n, p in paths.items()}
            result = run_pass(w, insts, paths, random.Random(0), work / "rec", False,
                              SpeedMeter())
            for o in result.outcomes:
                if o.csv is None:
                    raise RuntimeError(f"{o.key}: no front to record ({o.error or 'deadline'})")
                problems = check_front(insts[o.instance], o.csv)
                if problems:
                    raise RuntimeError("; ".join(problems))
                rows = _front_rows(o.csv)
                ref = _reference(rows)
                expected[o.key] = {"sha256": _sha(o.csv), "reference": ref,
                                   "hypervolume": analysis.hypervolume(rows, ref)}
                print(f"recorded {o.key}: {len(rows)} rows, {o.solve_s:.2f} s")
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record bench/expected.json and exit")
    args = parser.parse_args(argv)
    if args.record:
        record()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
