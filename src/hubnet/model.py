"""Domain model for capacitated single-allocation air-cargo hub networks.

Nodes exchange directional cargo flows.  A network design opens at most
``p`` hubs, assigns every node to exactly one open hub (hubs serve
themselves), and a route plan moves each origin-destination flow along a
route: the tuple of hubs it visits, in flight order.

* ``()`` -- a point-to-point flight, bypassing hub processing;
* ``(k,)`` -- through the shared hub ``k`` when both endpoints are
  assigned to ``k``;
* ``(k, l)`` -- through the origin's hub ``k`` and the destination's
  hub ``l`` when the endpoints are assigned to different hubs.

Feasibility covers four groups of constraints: assignment legality (open
hubs, single allocation, spoke links within the coverage radius ``omega``),
route legality (the route must match the assignment pattern), hub
throughput capacity against crisp demand, and a hard per-pair cap on route
time.  Violations are reported as data (lists of strings), not exceptions,
so invalid inputs can be inspected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterator, Mapping, Optional

import numpy as np

from .fuzzy import defuzzify_components

__all__ = [
    "FEAS_TOL",
    "round6",
    "ProblemInstance",
    "NetworkDesign",
    "Route",
    "implied_route",
    "RoutePlan",
    "ObjectiveVector",
    "EvaluatedSolution",
    "validate_instance",
    "design_violations",
    "route_time",
    "plan_violations",
    "feasibility_violations",
    "check_feasibility",
]

# Slack for float comparisons against hard caps (time, capacity).  Integral
# data compares exactly; non-integral data absorbs accumulation noise.
FEAS_TOL = 1e-9


def round6(x: float) -> float:
    """Round an objective value to 1e-6 to absorb summation-order noise."""
    return float(np.round(x, 6))


def _as_array(value, shape: tuple[int, ...], name: str) -> np.ndarray:
    """A read-only float copy of ``value``; any other shape is an error."""
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    arr.flags.writeable = False
    return arr


# the per-node and per-pair array fields of ProblemInstance
_VECTORS = ("fixed_cost", "capacity", "handling_cost")
_MATRICES = ("distance", "travel_time", "max_transfer_time", "unit_transport_cost",
             "early_penalty", "late_penalty", "window_lower", "window_upper")


@dataclass(frozen=True)
class ProblemInstance:
    """Immutable problem data for one network design problem.

    Matrix fields are indexed ``[origin, destination]``.  ``demand`` stores
    the four trapezoid components along the trailing axis; the diagonal is
    zero (no flow from a node to itself).
    """

    n: int
    p: int
    omega: float                      # spoke coverage radius
    fixed_cost: np.ndarray            # (n,) cost of operating node k as a hub
    capacity: np.ndarray              # (n,) hub throughput capacity
    handling_cost: np.ndarray         # (n,) per-unit processing cost at a hub
    distance: np.ndarray              # (n, n) symmetric, zero diagonal
    travel_time: np.ndarray           # (n, n) single-leg flight time
    max_transfer_time: np.ndarray     # (n, n) hard cap on total route time
    unit_transport_cost: np.ndarray   # (n, n) money per cargo unit per distance unit
    demand: np.ndarray                # (n, n, 4) trapezoid components
    alpha_discount: float             # hub-hub leg discount, in (0, 1]
    beta_discount: float              # spoke-hub leg discount, in (0, 1]
    early_penalty: np.ndarray         # (n, n) money per time unit of earliness
    late_penalty: np.ndarray          # (n, n) money per time unit of lateness
    window_lower: np.ndarray          # (n, n) earliest acceptable arrival
    window_upper: np.ndarray          # (n, n) latest acceptable arrival
    aircraft_capacity: float          # cargo units per aircraft
    lto_p1: float                     # landing/take-off emission, pollutant 1
    lto_p2: float                     # landing/take-off emission, pollutant 2
    ccd_rate_p1: float                # climb/cruise/descent emission per distance, pollutant 1
    ccd_rate_p2: float                # climb/cruise/descent emission per distance, pollutant 2

    def __post_init__(self) -> None:
        n = self.n
        for names, shape in ((_VECTORS, (n,)), (_MATRICES, (n, n)), (("demand",), (n, n, 4))):
            for name in names:
                object.__setattr__(self, name, _as_array(getattr(self, name), shape, name))

    def demand_matrix(self, alpha_prime: float) -> np.ndarray:
        """Crisp demand for every ordered pair at the given uncertainty rate."""
        return defuzzify_components(self.demand, alpha_prime)

    def pairs(self) -> Iterator[tuple[int, int]]:
        """Ordered node pairs (i, j), i != j, in row-major order."""
        for i in range(self.n):
            for j in range(self.n):
                if i != j:
                    yield (i, j)


@dataclass(frozen=True)
class NetworkDesign:
    """Open-hub choice plus single allocation of every node to an open hub."""

    hub_open: tuple[bool, ...]
    assignment: tuple[int, ...]

    @classmethod
    def from_hubs(cls, n: int, hubs, assignment) -> "NetworkDesign":
        hub_set = set(int(k) for k in hubs)
        return cls(
            hub_open=tuple(i in hub_set for i in range(n)),
            assignment=tuple(int(a) for a in assignment),
        )

    @property
    def hubs(self) -> tuple[int, ...]:
        return tuple(k for k, open_ in enumerate(self.hub_open) if open_)

    @property
    def n(self) -> int:
        return len(self.hub_open)


# the hubs a flow visits, in flight order: () direct, (k,) or (k, l)
Route = tuple[int, ...]


def implied_route(k: int, l: int) -> Route:
    """The hub route of a pair whose endpoints are assigned to ``k`` and ``l``."""
    return (k,) if k == l else (k, l)


@dataclass(frozen=True)
class RoutePlan:
    """One route per ordered pair, stored as an n x n grid (diagonal None)."""

    routes: tuple[tuple[Optional[Route], ...], ...]

    @classmethod
    def from_dict(cls, n: int, mapping: Mapping[tuple[int, int], Route]) -> "RoutePlan":
        grid = [[None] * n for _ in range(n)]
        for (i, j), route in mapping.items():
            if i == j:
                raise ValueError(f"route given for degenerate pair ({i}, {j})")
            grid[i][j] = route
        return cls(routes=tuple(tuple(row) for row in grid))

    def route(self, i: int, j: int) -> Route:
        r = self.routes[i][j]
        if r is None:
            raise KeyError(f"no route stored for pair ({i}, {j})")
        return r

    def items(self) -> Iterator[tuple[int, int, Route]]:
        for i, row in enumerate(self.routes):
            for j, r in enumerate(row):
                if r is not None:
                    yield (i, j, r)

    @property
    def n(self) -> int:
        return len(self.routes)


@dataclass(frozen=True)
class ObjectiveVector:
    """Cost / emissions / time-window penalty triple.

    Components are rounded to 1e-6 at construction; dominance and
    epsilon-bound comparisons throughout the package operate on these
    rounded values, so one rounding policy covers every code path.
    """

    z1: float
    z2: float
    z3: float

    def __post_init__(self) -> None:
        for name in ("z1", "z2", "z3"):
            v = round6(float(getattr(self, name)))
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"objective {name} must be finite and >= 0, got {v}")
            object.__setattr__(self, name, v)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.z1, self.z2, self.z3)


@dataclass(frozen=True)
class EvaluatedSolution:
    """A design and plan together with objectives at a stored uncertainty rate."""

    design: NetworkDesign
    plan: RoutePlan
    objectives: ObjectiveVector
    alpha_prime: float


def validate_instance(inst: ProblemInstance) -> list[str]:
    """Report every violated instance invariant (empty report = valid)."""
    out: list[str] = []
    n = inst.n
    if n < 2:
        # a lone node has no pair to route; the generator refuses it as well
        out.append(f"node count must be >= 2, got {n}")
        return out
    for f in fields(inst):
        if not np.all(np.isfinite(getattr(inst, f.name))):
            out.append(f"{f.name} has non-finite values")
    if not 1 <= inst.p <= n:
        out.append(f"hub budget p must satisfy 1 <= p <= n, got p={inst.p}")
    if not np.allclose(inst.distance, inst.distance.T, rtol=0.0, atol=0.0):
        out.append("distance matrix is not symmetric")
    if np.any(np.diag(inst.distance) != 0):
        out.append("distance diagonal must be zero")
    if inst.omega < 0:
        out.append(f"coverage radius omega must be >= 0, got {inst.omega}")
    for name in _VECTORS + _MATRICES:
        if np.any(getattr(inst, name) < 0):
            out.append(f"{name} has negative entries")
    bad_windows = np.argwhere(inst.window_lower > inst.window_upper)
    for i, j in bad_windows:
        out.append(f"window_lower[{i}][{j}]={inst.window_lower[i, j]} exceeds "
                   f"window_upper[{i}][{j}]={inst.window_upper[i, j]}")
    if not (0.0 < inst.alpha_discount <= 1.0):
        out.append(f"alpha_discount must lie in (0, 1], got {inst.alpha_discount}")
    if not (0.0 < inst.beta_discount <= 1.0):
        out.append(f"beta_discount must lie in (0, 1], got {inst.beta_discount}")
    if inst.aircraft_capacity <= 0:
        out.append(f"aircraft_capacity must be > 0, got {inst.aircraft_capacity}")
    for name in ("lto_p1", "lto_p2", "ccd_rate_p1", "ccd_rate_p2"):
        if getattr(inst, name) < 0:
            out.append(f"{name} must be >= 0")
    if np.any(inst.demand[np.arange(n), np.arange(n), :] != 0):
        out.append("demand diagonal must be zero in all four components")
    comp = inst.demand
    unordered = (comp[..., 0] > comp[..., 1]) | (comp[..., 1] > comp[..., 2]) | (comp[..., 2] > comp[..., 3])
    for i, j in np.argwhere(unordered):
        out.append(f"demand[{i}][{j}] components not ascending: {tuple(comp[i, j])}")
    if np.any(comp < 0):
        out.append("demand has negative components")
    return out


def design_violations(inst: ProblemInstance, design: NetworkDesign) -> list[str]:
    """Assignment-legality report: open hubs, self-assignment, hub budget, coverage."""
    out: list[str] = []
    n = inst.n
    if len(design.hub_open) != n or len(design.assignment) != n:
        out.append(f"design sized for {len(design.hub_open)} nodes, instance has {n}")
        return out
    hubs = design.hubs
    if not 1 <= len(hubs) <= inst.p:
        out.append(f"open hub count {len(hubs)} outside [1, p={inst.p}]")
    for i, a in enumerate(design.assignment):
        if not 0 <= a < n:
            out.append(f"assignment[{i}]={a} is not a node")
            continue
        if not design.hub_open[a]:
            out.append(f"node {i} assigned to closed node {a}")
        if design.hub_open[i] and a != i:
            out.append(f"hub {i} must be self-assigned, got {a}")
        if not design.hub_open[i] and inst.distance[i, a] > inst.omega + FEAS_TOL:
            out.append(f"spoke link {i}->{a} length {inst.distance[i, a]} exceeds omega={inst.omega}")
    return out


def route_time(inst: ProblemInstance, route: Route, i: int, j: int) -> float:
    """Total flight time of a route between origin i and destination j."""
    stops = (i, *route, j)
    return float(sum(inst.travel_time[a, b] for a, b in zip(stops, stops[1:])))


def _legal_route(design: NetworkDesign, i: int, j: int, route: Route) -> Optional[str]:
    k, l = design.assignment[i], design.assignment[j]
    if route and route != implied_route(k, l):
        return f"pair ({i}, {j}) flies hubs {route} but its endpoints' hubs are ({k}, {l})"
    return None


def plan_violations(inst: ProblemInstance, design: NetworkDesign, plan: RoutePlan) -> list[str]:
    """Route-legality and time-cap report for a plan (capacity checked separately)."""
    out: list[str] = []
    n = inst.n
    if plan.n != n:
        out.append(f"plan sized for {plan.n} nodes, instance has {n}")
        return out
    seen = set()
    for i, j, route in plan.items():
        seen.add((i, j))
        msg = _legal_route(design, i, j, route)
        if msg:
            out.append(msg)
        t = route_time(inst, route, i, j)
        if t > inst.max_transfer_time[i, j] + FEAS_TOL:
            out.append(f"pair ({i}, {j}) route time {t} exceeds cap {inst.max_transfer_time[i, j]}")
    for i, j in inst.pairs():
        if (i, j) not in seen:
            out.append(f"pair ({i}, {j}) has no route")
    return out


def hub_loads(inst: ProblemInstance, plan: RoutePlan, alpha_prime: float) -> np.ndarray:
    """Crisp throughput processed at each node under the plan.

    Every hub on a route carries the pair's full demand; a direct route
    loads nothing.
    """
    q = inst.demand_matrix(alpha_prime)
    loads = np.zeros(inst.n)
    for i, j, route in plan.items():
        for k in route:
            loads[k] += q[i, j]
    return loads


def feasibility_violations(inst: ProblemInstance, design: NetworkDesign,
                           plan: RoutePlan, alpha_prime: float) -> list[str]:
    """Full constraint report: assignment, route legality, time caps, capacity."""
    out = design_violations(inst, design)
    out.extend(plan_violations(inst, design, plan))
    if not out:
        loads = hub_loads(inst, plan, alpha_prime)
        for k in design.hubs:
            if loads[k] > inst.capacity[k] + FEAS_TOL:
                out.append(f"hub {k} throughput {loads[k]} exceeds capacity {inst.capacity[k]}")
    return out


def check_feasibility(inst: ProblemInstance, sol: EvaluatedSolution,
                      alpha_prime: float) -> list[str]:
    """Constraint report for an evaluated solution at the given rate."""
    return feasibility_violations(inst, sol.design, sol.plan, alpha_prime)
