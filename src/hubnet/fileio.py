"""Instance JSON and front/metrics CSV files.

All writers are deterministic: sorted JSON keys, fixed indentation, "\n"
line endings, shortest-roundtrip float repr.  Identical inputs give
byte-identical files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .analysis import FrontMetrics
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

# ProblemInstance field -> annotation ("int", "float" or "np.ndarray"),
# in declaration order; files hold its numbers first, then its arrays
_FIELD_TYPES = {f.name: f.type for f in fields(ProblemInstance)}
_SCALAR_FIELDS = tuple(k for k, t in _FIELD_TYPES.items() if t != "np.ndarray")
_ARRAY_FIELDS = tuple(k for k, t in _FIELD_TYPES.items() if t == "np.ndarray")


def _reject_constant(name: str):
    raise ValueError(f"instance file holds {name}; every number must be finite")


def _numbers(doc: dict, name: str) -> np.ndarray:
    """Field ``name`` as a finite int or float array, else ValueError."""
    if name not in doc:
        raise ValueError(f"instance field {name} is missing")
    try:
        arr = np.asarray(doc[name])
    except ValueError:
        raise ValueError(f"instance field {name} is not a rectangular array") from None
    if arr.dtype.kind not in "iuf":
        raise ValueError(f"instance field {name} must hold numbers only")
    if name in _SCALAR_FIELDS and arr.ndim:
        raise ValueError(f"instance field {name} must be a single number")
    if _FIELD_TYPES[name] == "int" and arr.dtype.kind == "f":
        raise ValueError(f"instance field {name} must be an integer")
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        raise ValueError(f"instance field {name} has non-finite values; every number must be finite")
    return arr


def save_instance(inst: ProblemInstance, path: Union[str, Path]) -> None:
    doc = {"schema": INSTANCE_SCHEMA}
    for name in _SCALAR_FIELDS:
        value = getattr(inst, name)
        doc[name] = int(value) if _FIELD_TYPES[name] == "int" else float(value)
    for name in _ARRAY_FIELDS:
        doc[name] = getattr(inst, name).tolist()
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n")


def load_instance(path: Union[str, Path]) -> ProblemInstance:
    doc = json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    if not isinstance(doc, dict):
        kind = {list: "array", str: "string", bool: "boolean", type(None): "null"}
        raise ValueError(f"instance file holds a JSON {kind.get(type(doc), 'number')}, not an object")
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


def _solution_row(sol: EvaluatedSolution) -> list:
    n = sol.design.n
    tokens = [render_route(sol.plan.route(i, j))
              for i in range(n) for j in range(n) if i != j]
    return [
        *sol.objectives.as_tuple(),
        float(sol.alpha_prime),
        " ".join(str(k) for k in sol.design.hubs),
        " ".join(str(a) for a in sol.design.assignment),
        " ".join(tokens),
    ]


def write_front_csv(front: ParetoFront, path: Union[str, Path]) -> None:
    write_csv(path, FRONT_COLUMNS, [_solution_row(s) for s in front.solutions])


def read_front_csv(path: Union[str, Path]) -> list[FrontRow]:
    """The file's records; blank lines are skipped, and a line whose field
    count differs from the header's is a ValueError."""
    rows: list[FrontRow] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = set(FRONT_COLUMNS) - set(header)
        if missing:
            raise ValueError(f"front CSV missing columns: {sorted(missing)}")
        for values in filter(None, reader):
            if len(values) != len(header):
                raise ValueError(f"front CSV line {reader.line_num} has {len(values)} fields, "
                                 f"its header {len(header)}")
            rec = dict(zip(header, values))
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
    """A header and rows; a Python or numpy float as its shortest repr,
    any other cell as ``str``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([repr(float(c)) if isinstance(c, (float, np.floating)) else str(c)
                             for c in row])


def write_metrics_csv(metrics: FrontMetrics, path: Union[str, Path]) -> None:
    """One-row table of a single front's indicators, one column per field."""
    write_csv(path, [f.name for f in fields(FrontMetrics)], [astuple(metrics)])
