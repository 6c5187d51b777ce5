"""Command-line workbench.

Subcommands: generate, solve, sweep, compare, validate.  Exit codes:
0 success, 1 bad usage or failed validation, 2 model infeasibility or an
enumeration budget overrun, 3 I/O trouble (a file that cannot be read or
written).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .analysis import compute_metrics
from .evaluation import compute_objectives
from .exact import DEFAULT_BUDGET, EnumerationBudgetError, EpsilonGrid, epsilon_constraint_front
from .fileio import (
    load_instance,
    read_front_csv,
    save_instance,
    solution_from_row,
    write_csv,
    write_front_csv,
    write_metrics_csv,
)
from .fuzzy import check_rate
from .generator import PRESET_SIZES, GeneratorSpec, generate, preset
from .metaheuristics import AlgorithmParams
from .model import check_feasibility, validate_instance
from .workbench import (
    SOLVERS,
    SWEEP_PARAMETERS,
    ExperimentConfig,
    run_compare,
    run_solver,
    swept_instance,
    sweep_rows,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_IO = 3


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        self.code = code
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the workbench reserves 2."""

    def error(self, message):
        raise _CliError(EXIT_USAGE, f"{self.prog}: {message}")


def _numbers(text: str, kind: type) -> list:
    """A comma-separated list of ``kind`` values; empty items are skipped."""
    try:
        return [kind(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise _CliError(EXIT_USAGE, f"expected comma-separated {noun}, got {text!r}")


def _rate(text: str) -> float:
    """``--alpha-prime``: a demand defuzzification rate in [0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    try:
        check_rate(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return value


def _seed(text: str) -> int:
    """``--seed``: a nonnegative integer, as the seeded generators need."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _read(reader, noun: str, path: str):
    """``reader(path)``; a missing or unreadable file is an I/O error."""
    try:
        return reader(path)
    except FileNotFoundError:
        raise _CliError(EXIT_IO, f"{noun} file not found: {path}")
    except (OSError, ValueError) as exc:
        raise _CliError(EXIT_IO, f"cannot read {noun} {path}: {exc}")


def _load_valid(path: str):
    """The instance at ``path``; every broken invariant is a usage error."""
    inst = _read(load_instance, "instance", path)
    problems = validate_instance(inst)
    if problems:
        raise _CliError(EXIT_USAGE, "\n".join(f"invalid instance: {line}" for line in problems))
    return inst


# (flag, AlgorithmParams field, type, help); defaults come from AlgorithmParams()
_PARAM_FLAGS = (
    ("--max-it", "max_iterations", int, None),
    ("--pop", "population_size", int, None),
    ("--pc", "crossover_prob", float, "crossover probability"),
    ("--pm", "mutation_prob", float, "per-offspring mutation probability"),
    ("--w", "inertia", float, "swarm inertia weight"),
    ("--c1", "cognitive", float, "cognitive coefficient"),
    ("--c2", "social", float, "social coefficient"),
    ("--a-max", "whale_a_max", float, "whale amplitude start"),
    ("--c-range", "whale_c_range", float, "whale wobble bound"),
    ("--archive-cap", "archive_capacity", int, None),
    ("--grid-divisions", "grid_divisions", int, "archive grid slices"),
)


def _params_from(args: argparse.Namespace) -> AlgorithmParams:
    return AlgorithmParams(**{field: getattr(args, flag[2:].replace("-", "_"))
                              for flag, field, _, _ in _PARAM_FLAGS})


def _add_solver_options(sub: argparse.ArgumentParser) -> None:
    params = AlgorithmParams()
    sub.add_argument("--seed", type=_seed, default=0)
    sub.add_argument("--alpha-prime", type=_rate, default=0.5,
                     help="demand defuzzification rate in [0, 1]")
    for flag, field, kind, text in _PARAM_FLAGS:
        sub.add_argument(flag, type=kind, default=getattr(params, field), help=text)
    _add_exact_options(sub)


def _add_exact_options(sub: argparse.ArgumentParser) -> None:
    grid = EpsilonGrid()
    sub.add_argument("--grid-z2", type=int, default=grid.segments_z2,
                     help="emission bound segments (exact)")
    sub.add_argument("--grid-z3", type=int, default=grid.segments_z3,
                     help="penalty bound segments (exact)")
    sub.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                     help="max enumerable configurations (exact)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hubnet",
                     description="Workbench for the fuzzy-demand hub location model")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a benchmark instance JSON")
    g.add_argument("--out", required=True)
    g.add_argument("--preset", type=int, choices=range(1, len(PRESET_SIZES) + 1),
                   help="benchmark ladder index (sets n, p and seed)")
    g.add_argument("--nodes", type=int)
    g.add_argument("--hubs", type=int)
    g.add_argument("--seed", type=_seed, help="instance seed (default: 0; a preset sets its own)")

    s = sub.add_parser("solve", help="run one solver, write the front CSV")
    s.add_argument("--instance", required=True)
    s.add_argument("--solver", required=True, choices=SOLVERS)
    s.add_argument("--out", required=True, help="front CSV path")
    s.add_argument("--metrics-out", help="optional metrics CSV path")
    _add_solver_options(s)

    w = sub.add_parser("sweep", help="re-price a fixed plan while one knob moves")
    w.add_argument("--instance", required=True)
    w.add_argument("--param", required=True, choices=SWEEP_PARAMETERS)
    w.add_argument("--values", required=True, help="comma-separated knob values")
    w.add_argument("--out", required=True)
    w.add_argument("--front", help="front CSV; its minimum-cost row is the plan "
                                   "(default: solve exactly first)")
    w.add_argument("--alpha-prime", type=_rate, default=0.5,
                   help="demand defuzzification rate in [0, 1]")
    _add_exact_options(w)

    c = sub.add_parser("compare", help="instances x algorithms x seeds experiment")
    c.add_argument("--instances", required=True, nargs="+")
    c.add_argument("--algorithms", required=True, nargs="+", choices=SOLVERS)
    c.add_argument("--seeds", required=True, help="comma-separated seeds")
    c.add_argument("--out-dir", required=True)
    c.add_argument("--workers", type=int, default=1,
                   help="process count, >= 1 (default: 1)")
    _add_solver_options(c)

    v = sub.add_parser("validate", help="check an instance and optionally a front")
    v.add_argument("--instance", required=True)
    v.add_argument("--front", help="front CSV to verify against the instance")
    return parser


def _cmd_generate(args) -> int:
    if args.preset is not None:
        if args.nodes is not None or args.hubs is not None or args.seed is not None:
            raise _CliError(EXIT_USAGE, "--preset excludes --nodes/--hubs/--seed")
        spec = preset(args.preset)
    else:
        if args.nodes is None or args.hubs is None:
            raise _CliError(EXIT_USAGE, "need --preset or both --nodes and --hubs")
        spec = GeneratorSpec(n=args.nodes, p=args.hubs, seed=args.seed or 0)
    inst = generate(spec)
    save_instance(inst, args.out)
    print(f"wrote {args.out} (n={inst.n}, p={inst.p}, seed={spec.seed})")
    return EXIT_OK


def _cmd_solve(args) -> int:
    inst = _load_valid(args.instance)
    front, elapsed = run_solver(inst, args.solver, args.seed, args.alpha_prime,
                                _params_from(args), EpsilonGrid(args.grid_z2, args.grid_z3),
                                args.budget)
    if len(front) == 0:
        raise _CliError(EXIT_INFEASIBLE, "no feasible solution exists for this instance")
    write_front_csv(front, args.out)
    if args.metrics_out:
        write_metrics_csv(compute_metrics(front, elapsed), args.metrics_out)
    rows = front.objective_rows()
    print(f"{args.solver}: {len(front)} front members in {elapsed:.2f}s, "
          f"cost {rows[:, 0].min():.6f}..{rows[:, 0].max():.6f}")
    return EXIT_OK


def _pick_plan(args, inst):
    if args.front:
        rows = _read(read_front_csv, "front", args.front)
        if not rows:
            raise _CliError(EXIT_INFEASIBLE, f"front {args.front} is empty")
        best = min(rows, key=lambda r: (r.z1, r.z2, r.z3))
        return solution_from_row(inst, best)
    front = epsilon_constraint_front(inst, EpsilonGrid(args.grid_z2, args.grid_z3),
                                     alpha_prime=args.alpha_prime, budget=args.budget)
    if len(front) == 0:
        raise _CliError(EXIT_INFEASIBLE, "no feasible solution to sweep")
    return front.solutions[0]


def _cmd_sweep(args) -> int:
    inst = _load_valid(args.instance)
    values = _numbers(args.values, float)
    if not values:
        raise _CliError(EXIT_USAGE, "--values must name at least one number")
    for v in values:     # refuse a bad value before solving for the plan
        swept_instance(inst, args.param, v, args.alpha_prime)
    rows = sweep_rows(inst, _pick_plan(args, inst), args.param, values)
    write_csv(args.out, ("value", "z1", "z2", "z3"), rows)
    print(f"swept {args.param} over {len(rows)} values -> {args.out}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    results = run_compare(ExperimentConfig(
        instances=tuple(args.instances),
        algorithms=tuple(args.algorithms),
        seeds=tuple(_numbers(args.seeds, int)),
        out_dir=args.out_dir,
        alpha_prime=args.alpha_prime,
        params=_params_from(args),
        grid=EpsilonGrid(args.grid_z2, args.grid_z3),
        budget=args.budget,
        workers=args.workers,
    ))
    missing = [r for r in results if r.metrics is None]
    for r in missing:
        print(f"cell {r.instance}/{r.algorithm}/seed{r.seed} failed: {r.error}",
              file=sys.stderr)
    if missing and len(missing) == len(results):
        raise _CliError(EXIT_INFEASIBLE, "every cell failed; no tables to rank")
    note = f" ({len(missing)} missing)" if missing else ""
    print(f"compared {len(results) - len(missing)} cells -> {args.out_dir}{note}")
    return EXIT_OK


def _row_findings(inst, row) -> list[str]:
    """What is wrong with one front row against the instance."""
    try:
        sol = solution_from_row(inst, row)
    except ValueError as exc:
        return [str(exc)]
    report = check_feasibility(inst, sol, sol.alpha_prime)
    if not report:
        z = compute_objectives(inst, sol.design, sol.plan, sol.alpha_prime)
        if z != sol.objectives.as_tuple():
            report.append(f"stored objectives {sol.objectives.as_tuple()} "
                          f"differ from recomputed {z}")
    return report


def _cmd_validate(args) -> int:
    inst = _read(load_instance, "instance", args.instance)
    findings = [f"instance: {line}" for line in validate_instance(inst)]
    for line in findings:
        print(line)
    if args.front:
        for r, row in enumerate(_read(read_front_csv, "front", args.front)):
            for line in _row_findings(inst, row):
                findings.append(f"front row {r}: {line}")
                print(findings[-1])
    if findings:
        print(f"validation failed with {len(findings)} finding(s)")
        return EXIT_USAGE
    print("valid")
    return EXIT_OK


_COMMANDS = {
    "generate": _cmd_generate,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
    "validate": _cmd_validate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command; every failure ends in a stderr line and its exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        message, code = str(exc), exc.code
    except EnumerationBudgetError as exc:
        message, code = f"budget exceeded: {exc}", EXIT_INFEASIBLE
    except ValueError as exc:
        message, code = str(exc), EXIT_USAGE
    except OSError as exc:
        # a failed write or a missing compare instance; the error names the path
        message, code = str(exc), EXIT_IO
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
