"""Instance JSON and front/metrics CSV files.

All writers are deterministic: sorted JSON keys, fixed indentation, "\n"
line endings, shortest-roundtrip float repr.  Identical inputs give
byte-identical files.  A route token lists the hubs visited: ``k1->k5``.
A row whose hubs or route tokens disagree with its assignment is refused
here: the model stores only the assignment and one hub bit per pair.
"""

from __future__ import annotations

import csv
import json
import re
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence, Union

import numpy as np

from .analysis import FrontMetrics
from .evaluation import plan_from_mask
from .fronts import ParetoFront
from .fuzzy import check_rate
from .model import (
    EvaluatedSolution,
    NetworkDesign,
    ObjectiveVector,
    ProblemInstance,
    Route,
    implied_route,
    plan_routes,
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
    return "->".join(f"k{k}" for k in route) or "Direct"


# one or two hub stops; negative ids parse so the range check can name them
_ROUTE_TOKEN = re.compile(r"k(-?[0-9]+)(?:->k(-?[0-9]+))?")


def parse_route(token: str) -> Route:
    if token == "Direct":
        return ()
    match = _ROUTE_TOKEN.fullmatch(token)
    if match is None:
        raise ValueError(f"unparseable route token {token!r}")
    return tuple(int(k) for k in match.groups() if k is not None)


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
    tokens = [render_route(route) for _, _, route in plan_routes(sol.design, sol.plan)]
    return [
        *sol.objectives.as_tuple(),
        float(sol.alpha_prime),
        " ".join(str(k) for k in sol.design.hubs),
        " ".join(str(a) for a in sol.design.assignment),
        " ".join(tokens),
    ]


def write_front_csv(front: ParetoFront, path: Union[str, Path]) -> None:
    write_csv(path, FRONT_COLUMNS, [_solution_row(s) for s in front.solutions])


def _parse(token: str, kind: type, line: int, field: str):
    try:
        return kind(token)
    except ValueError:
        raise ValueError(f"front CSV line {line}, field {field}: expected "
                         f"{'a number' if kind is float else 'a node id'}, got {token!r}") from None


def read_front_csv(path: Union[str, Path]) -> list[FrontRow]:
    """The file's records; blank lines are skipped, and a line whose field
    count differs from the header's, or a number or node id that does not
    parse, is a ValueError naming the line."""
    rows: list[FrontRow] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = set(FRONT_COLUMNS) - set(header)
        if missing:
            raise ValueError(f"front CSV missing columns: {sorted(missing)}")
        for values in filter(None, reader):
            line = reader.line_num
            if len(values) != len(header):
                raise ValueError(f"front CSV line {line} has {len(values)} fields, "
                                 f"its header {len(header)}")
            rec = dict(zip(header, values))
            rows.append(FrontRow(
                **{f: _parse(rec[f], float, line, f) for f in ("z1", "z2", "z3", "alpha_prime")},
                **{f: tuple(_parse(t, int, line, f) for t in rec[f].split())
                   for f in ("hubs", "assignment")},
                routes=tuple(rec["routes"].split()),
            ))
    return rows


def solution_from_row(inst: ProblemInstance, row: FrontRow) -> EvaluatedSolution:
    """Rebuild the full solution object encoded by one CSV record.

    Raises:
        ValueError: naming the field when a hub, an assignment entry or a
            route token's node lies outside ``0..n-1``, when the
            assignment or route token count is wrong, or when
            ``alpha_prime`` fails ``fuzzy.check_rate``; then when the
            hubs are not the nodes assigned to themselves, or naming the
            pair when a route token is neither ``Direct`` nor its
            endpoints' hubs.
    """
    n = inst.n
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if len(row.routes) != len(pairs):
        raise ValueError(f"expected {len(pairs)} route tokens, got {len(row.routes)}")
    if len(row.assignment) != n:
        raise ValueError(f"assignment: expected {n} entries, got {len(row.assignment)}")
    try:
        check_rate(row.alpha_prime)
    except ValueError as exc:
        raise ValueError(f"alpha_prime: {exc}")
    routes = [parse_route(tok) for tok in row.routes]
    hops = [k for route in routes for k in route]
    for field, ids in (("hubs", row.hubs), ("assignment", row.assignment), ("routes", hops)):
        bad = sorted({k for k in ids if not 0 <= k < n})
        if bad:
            raise ValueError(f"{field}: node(s) {bad} outside 0..{n - 1}")
    design = NetworkDesign(row.assignment)
    if sorted(row.hubs) != list(design.hubs):
        raise ValueError(f"hubs: {list(row.hubs)} but the nodes assigned to themselves "
                         f"are {list(design.hubs)}")
    a = design.assignment
    for (i, j), route in zip(pairs, routes):
        if route and route != implied_route(a[i], a[j]):
            raise ValueError(f"pair ({i}, {j}) flies hubs {route} but its endpoints' hubs "
                             f"are ({a[i]}, {a[j]})")
    mask = np.zeros((n, n), dtype=bool)
    mask[~np.eye(n, dtype=bool)] = [bool(route) for route in routes]
    return EvaluatedSolution(
        design=design, plan=plan_from_mask(mask),
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
