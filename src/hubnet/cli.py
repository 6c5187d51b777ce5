"""Command-line workbench.

Subcommands: generate, solve, sweep, compare, validate.  Exit codes:
0 success, 1 bad usage or failed validation, 2 model infeasibility or an
enumeration budget overrun, 3 I/O trouble (missing or unreadable files).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .analysis import compute_metrics
from .evaluation import evaluate
from .exact import DEFAULT_BUDGET, EnumerationBudgetError, EpsilonGrid
from .fileio import (
    load_instance,
    read_front_csv,
    save_instance,
    solution_from_row,
    write_csv,
    write_front_csv,
    write_metrics_csv,
)
from .generator import PRESET_SIZES, GeneratorSpec, generate, preset
from .metaheuristics import ALGORITHMS, AlgorithmParams
from .model import check_feasibility, validate_instance
from .workbench import (
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

SOLVER_NAMES = ("exact",) + tuple(sorted(ALGORITHMS))


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
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must lie in [0, 1], got {text}")
    return value


def _load(path: str):
    try:
        return load_instance(path)
    except FileNotFoundError:
        raise _CliError(EXIT_IO, f"instance file not found: {path}")
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        raise _CliError(EXIT_IO, f"cannot read instance {path}: {exc}")


def _read_front(path: str):
    try:
        return read_front_csv(path)
    except FileNotFoundError:
        raise _CliError(EXIT_IO, f"front file not found: {path}")
    except (OSError, ValueError) as exc:
        raise _CliError(EXIT_IO, f"cannot read front {path}: {exc}")


def _load_valid(path: str):
    """The instance at ``path``; every broken invariant is a usage error."""
    inst = _load(path)
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
    sub.add_argument("--seed", type=int, default=0)
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
    g.add_argument("--seed", type=int, default=0)

    s = sub.add_parser("solve", help="run one solver, write the front CSV")
    s.add_argument("--instance", required=True)
    s.add_argument("--solver", required=True, choices=SOLVER_NAMES)
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
    c.add_argument("--algorithms", required=True, nargs="+", choices=SOLVER_NAMES)
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
        if args.nodes is not None or args.hubs is not None:
            raise _CliError(EXIT_USAGE, "--preset excludes --nodes/--hubs")
        spec = preset(args.preset)
    else:
        if args.nodes is None or args.hubs is None:
            raise _CliError(EXIT_USAGE, "need --preset or both --nodes and --hubs")
        try:
            spec = GeneratorSpec(n=args.nodes, p=args.hubs, seed=args.seed)
        except ValueError as exc:
            raise _CliError(EXIT_USAGE, str(exc))
    inst = generate(spec)
    try:
        save_instance(inst, args.out)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot write {args.out}: {exc}")
    print(f"wrote {args.out} (n={inst.n}, p={inst.p}, seed={spec.seed})")
    return EXIT_OK


def _cmd_solve(args) -> int:
    inst = _load_valid(args.instance)
    try:
        params = _params_from(args)
        front, elapsed = run_solver(inst, args.solver, args.seed, args.alpha_prime,
                                    params, EpsilonGrid(args.grid_z2, args.grid_z3),
                                    args.budget)
    except EnumerationBudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    if len(front) == 0:
        print("no feasible solution exists for this instance", file=sys.stderr)
        return EXIT_INFEASIBLE
    try:
        write_front_csv(front, args.out)
        if args.metrics_out:
            write_metrics_csv(compute_metrics(front, elapsed), args.metrics_out)
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot write results: {exc}")
    rows = front.objective_rows()
    print(f"{args.solver}: {len(front)} front members in {elapsed:.2f}s, "
          f"cost {rows[:, 0].min():.6f}..{rows[:, 0].max():.6f}")
    return EXIT_OK


def _pick_plan(args, inst):
    from .exact import epsilon_constraint_front

    if args.front:
        rows = _read_front(args.front)
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
    try:
        for v in values:     # refuse a bad value before solving for the plan
            swept_instance(inst, args.param, v, args.alpha_prime)
        plan = _pick_plan(args, inst)
        rows = sweep_rows(inst, plan, args.param, values)
    except EnumerationBudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    try:
        write_csv(args.out, ("value", "z1", "z2", "z3"),
                  [[repr(float(v)), repr(z1), repr(z2), repr(z3)]
                   for v, z1, z2, z3 in rows])
    except OSError as exc:
        raise _CliError(EXIT_IO, f"cannot write {args.out}: {exc}")
    print(f"swept {args.param} over {len(rows)} values -> {args.out}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    try:
        config = ExperimentConfig(
            instances=tuple(args.instances),
            algorithms=tuple(args.algorithms),
            seeds=tuple(_numbers(args.seeds, int)),
            out_dir=args.out_dir,
            alpha_prime=args.alpha_prime,
            params=_params_from(args),
            grid=EpsilonGrid(args.grid_z2, args.grid_z3),
            budget=args.budget,
            workers=args.workers,
        )
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    try:
        results = run_compare(config)
    except FileNotFoundError as exc:
        raise _CliError(EXIT_IO, str(exc))
    missing = [r for r in results if r.metrics is None]
    for r in missing:
        print(f"cell {r.instance}/{r.algorithm}/seed{r.seed} failed: {r.error}",
              file=sys.stderr)
    if missing and len(missing) == len(results):
        print("every cell failed; no tables to rank", file=sys.stderr)
        return EXIT_INFEASIBLE
    note = f" ({len(missing)} missing)" if missing else ""
    print(f"compared {len(results) - len(missing)} cells -> {args.out_dir}{note}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    inst = _load(args.instance)
    problems = validate_instance(inst)
    for line in problems:
        print(f"instance: {line}")
    if args.front:
        rows = _read_front(args.front)
        for r, row in enumerate(rows):
            try:
                sol = solution_from_row(inst, row)
            except (ValueError, TypeError) as exc:
                problems.append(f"row {r}: {exc}")
                print(f"front row {r}: {exc}")
                continue
            report = check_feasibility(inst, sol, sol.alpha_prime)
            for line in report:
                problems.append(f"row {r}: {line}")
                print(f"front row {r}: {line}")
            if not report:
                z = evaluate(inst, sol.design, sol.plan, sol.alpha_prime)
                if z.as_tuple() != sol.objectives.as_tuple():
                    problems.append(f"row {r}: stored objectives differ")
                    print(f"front row {r}: stored objectives {sol.objectives.as_tuple()} "
                          f"differ from recomputed {z.as_tuple()}")
    if problems:
        print(f"validation failed with {len(problems)} finding(s)")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
