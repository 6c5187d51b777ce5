"""Instance JSON and front/metrics CSV files.

All writers are deterministic: sorted JSON keys, fixed indentation, "\n"
line endings, shortest-roundtrip float repr.  Identical inputs give
byte-identical files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .fronts import ParetoFront
from .model import (
    Direct,
    EvaluatedSolution,
    NetworkDesign,
    ObjectiveVector,
    OneHub,
    ProblemInstance,
    Route,
    RoutePlan,
    TwoHub,
)

__all__ = [
    "INSTANCE_SCHEMA",
    "save_instance",
    "load_instance",
    "render_route",
    "parse_route",
    "write_front_csv",
    "read_front_csv",
    "FrontRow",
    "solution_from_row",
    "write_csv",
    "write_metrics_csv",
]

INSTANCE_SCHEMA = "hubnet-instance/1"

_SCALAR_FIELDS = (
    "n", "p", "omega", "alpha_discount", "beta_discount", "aircraft_capacity",
    "lto_p1", "lto_p2", "ccd_rate_p1", "ccd_rate_p2",
)
_ARRAY_FIELDS = (
    "fixed_cost", "capacity", "handling_cost", "distance", "travel_time",
    "max_transfer_time", "unit_transport_cost", "demand",
    "early_penalty", "late_penalty", "window_lower", "window_upper",
)


def _reject_constant(name: str):
    raise ValueError(f"instance file holds {name}; every number must be finite")


def _numbers(doc: dict, name: str) -> np.ndarray:
    """Field ``name`` as a finite int or float array, else ValueError."""
    try:
        arr = np.asarray(doc[name])
    except ValueError:
        raise ValueError(f"instance field {name} is not a rectangular array") from None
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"instance field {name} must hold numbers only")
    if name in _SCALAR_FIELDS and arr.ndim:
        raise ValueError(f"instance field {name} must be a single number")
    if name in ("n", "p") and arr.dtype.kind == "f":
        raise ValueError(f"instance field {name} must be an integer")
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise ValueError(f"instance field {name} has non-finite values; every number must be finite")
    return arr


def save_instance(inst: ProblemInstance, path: Union[str, Path]) -> None:
    doc = {"schema": INSTANCE_SCHEMA}
    for name in _SCALAR_FIELDS:
        value = getattr(inst, name)
        doc[name] = int(value) if name in ("n", "p") else float(value)
    for name in _ARRAY_FIELDS:
        doc[name] = getattr(inst, name).tolist()
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")


def load_instance(path: Union[str, Path]) -> ProblemInstance:
    doc = json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    schema = doc.get("schema")
    if schema != INSTANCE_SCHEMA:
        raise ValueError(f"unsupported instance schema {schema!r}, expected {INSTANCE_SCHEMA!r}")
    kwargs = {}
    for name in _SCALAR_FIELDS:
        kwargs[name] = _numbers(doc, name).item()
    for name in _ARRAY_FIELDS:
        kwargs[name] = np.asarray(_numbers(doc, name), dtype=float)
    return ProblemInstance(**kwargs)


def render_route(route: Route) -> str:
    """Token form: ``Direct``, ``k5`` (one hub), ``k1->k5`` (two hubs)."""
    if isinstance(route, Direct):
        return "Direct"
    if isinstance(route, OneHub):
        return f"k{route.hub}"
    if isinstance(route, TwoHub):
        return f"k{route.first}->k{route.second}"
    raise TypeError(f"not a route: {route!r}")


def parse_route(token: str) -> Route:
    if token == "Direct":
        return Direct()
    if "->" in token:
        left, right = token.split("->", 1)
        if left.startswith("k") and right.startswith("k"):
            return TwoHub(first=int(left[1:]), second=int(right[1:]))
    elif token.startswith("k"):
        return OneHub(hub=int(token[1:]))
    raise ValueError(f"unparseable route token {token!r}")


FRONT_COLUMNS = ("z1", "z2", "z3", "alpha_prime", "hubs", "assignment", "routes")


@dataclass(frozen=True)
class FrontRow:
    """One front CSV record, still in string-token form for the plan."""

    z1: float
    z2: float
    z3: float
    alpha_prime: float
    hubs: tuple[int, ...]
    assignment: tuple[int, ...]
    routes: tuple[str, ...]


def _solution_row(sol: EvaluatedSolution) -> list[str]:
    n = sol.design.n
    tokens = [render_route(sol.plan.route(i, j))
              for i in range(n) for j in range(n) if i != j]
    return [
        repr(sol.objectives.z1),
        repr(sol.objectives.z2),
        repr(sol.objectives.z3),
        repr(float(sol.alpha_prime)),
        " ".join(str(k) for k in sol.design.hubs),
        " ".join(str(a) for a in sol.design.assignment),
        " ".join(tokens),
    ]


def write_front_csv(front: Union[ParetoFront, Sequence[EvaluatedSolution]],
                    path: Union[str, Path]) -> None:
    solutions = list(front.solutions) if isinstance(front, ParetoFront) else list(front)
    write_csv(path, FRONT_COLUMNS, [_solution_row(s) for s in solutions])


def read_front_csv(path: Union[str, Path]) -> list[FrontRow]:
    rows: list[FrontRow] = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(FRONT_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"front CSV missing columns: {sorted(missing)}")
        for rec in reader:
            rows.append(FrontRow(
                z1=float(rec["z1"]),
                z2=float(rec["z2"]),
                z3=float(rec["z3"]),
                alpha_prime=float(rec["alpha_prime"]),
                hubs=tuple(int(t) for t in rec["hubs"].split()),
                assignment=tuple(int(t) for t in rec["assignment"].split()),
                routes=tuple(rec["routes"].split()),
            ))
    return rows


def solution_from_row(inst: ProblemInstance, row: FrontRow) -> EvaluatedSolution:
    """Rebuild the full solution object encoded by one CSV record.

    Raises:
        ValueError: naming the field when a hub, an assignment entry or a
            route token's node lies outside ``0..n-1``, or when the
            assignment or route token count is wrong.
    """
    n = inst.n
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if len(row.routes) != len(pairs):
        raise ValueError(f"expected {len(pairs)} route tokens, got {len(row.routes)}")
    if len(row.assignment) != n:
        raise ValueError(f"assignment: expected {n} entries, got {len(row.assignment)}")
    routes = [parse_route(tok) for tok in row.routes]
    nodes = {
        "hubs": row.hubs,
        "assignment": row.assignment,
        "routes": [k for r in routes if not isinstance(r, Direct)
                   for k in ((r.hub,) if isinstance(r, OneHub) else (r.first, r.second))],
    }
    for field, ids in nodes.items():
        bad = sorted({k for k in ids if not 0 <= k < n})
        if bad:
            raise ValueError(f"{field}: node(s) {bad} outside 0..{n - 1}")
    design = NetworkDesign.from_hubs(n, row.hubs, row.assignment)
    mapping = dict(zip(pairs, routes))
    plan = RoutePlan.from_dict(inst.n, mapping)
    return EvaluatedSolution(
        design=design, plan=plan,
        objectives=ObjectiveVector(row.z1, row.z2, row.z3),
        alpha_prime=row.alpha_prime,
    )


def write_csv(path: Union[str, Path], header: Sequence[str],
              rows: Iterable[Sequence]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([c if isinstance(c, str) else repr(c) if isinstance(c, float) else str(c)
                             for c in row])


def write_metrics_csv(metrics, path: Union[str, Path]) -> None:
    """One-row table npf,msi,sm,cpt for a single front."""
    write_csv(path, ("npf", "msi", "sm", "cpt"),
              [[metrics.npf, metrics.msi, metrics.sm, metrics.cpt]])
