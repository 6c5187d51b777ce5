"""Random benchmark instances.

One recipe with documented draw order so a seed pins the instance bytes:

1. fixed opening cost per node, uniform on [200, 500]
2. hub capacity per node, uniform on [2000, 3000]
3. unit handling cost per node, uniform on [0.1, 0.2]
4. distances: upper triangle uniform on [50, 300], mirrored, zero diagonal
5. unit transport cost: full matrix uniform on [2, 3], zero diagonal
6. per-pair route time cap: full matrix uniform on [200, 300], zero diagonal
7. fuzzy demand: four uniform draws on [60, 70] per pair, sorted ascending,
   zero on the diagonal

Travel times are distance/10 rounded up; the delivery window per pair is
[floor(0.8 t), ceil(1.2 t)] around that nominal time, so direct routes sit
inside their window and hub detours pay lateness.

The scalars are constants of the recipe: coverage radius omega 250,
discounts alpha 0.6 (hub-hub) and beta 0.8 (spoke-hub), earliness and
lateness penalties 1.2 and 1.3 per time unit on every pair, 50 cargo units
per aircraft, landing/take-off doses 1 and 3 and climb/cruise/descent
rates 2 and 0.5 per distance unit for the two pollutants.  A spec names
only the size (``n`` nodes, at most ``p`` hubs) and the ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ProblemInstance

__all__ = ["GeneratorSpec", "generate", "preset", "PRESET_SIZES"]

# benchmark ladder: (nodes, max hubs) per preset index 1..10
PRESET_SIZES = [
    (15, 6), (30, 10), (45, 15), (60, 20), (80, 35),
    (90, 40), (100, 45), (110, 50), (120, 60), (150, 75),
]


@dataclass(frozen=True)
class GeneratorSpec:
    """Size and seed of one draw from the benchmark recipe."""

    n: int
    p: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"need at least 2 nodes, got {self.n}")
        if not 1 <= self.p <= self.n:
            raise ValueError(f"hub budget must satisfy 1 <= p <= n, got p={self.p}")


def generate(spec: GeneratorSpec) -> ProblemInstance:
    """Draw an instance from the recipe; same spec, same instance."""
    n = spec.n
    rng = np.random.default_rng(spec.seed)

    fixed_cost = rng.uniform(200.0, 500.0, n)
    capacity = rng.uniform(2000.0, 3000.0, n)
    handling_cost = rng.uniform(0.1, 0.2, n)

    iu, ju = np.triu_indices(n, k=1)
    distance = np.zeros((n, n))
    distance[iu, ju] = rng.uniform(50.0, 300.0, len(iu))
    distance += distance.T

    transport = rng.uniform(2.0, 3.0, (n, n))
    np.fill_diagonal(transport, 0.0)

    sigma = rng.uniform(200.0, 300.0, (n, n))
    np.fill_diagonal(sigma, 0.0)

    demand = np.sort(rng.uniform(60.0, 70.0, (n, n, 4)), axis=-1)
    demand[np.arange(n), np.arange(n), :] = 0.0

    travel_time = np.ceil(distance / 10.0)
    window_lower = np.floor(0.8 * travel_time)
    window_upper = np.ceil(1.2 * travel_time)

    return ProblemInstance(
        n=n,
        p=spec.p,
        omega=250.0,
        fixed_cost=fixed_cost,
        capacity=capacity,
        handling_cost=handling_cost,
        distance=distance,
        travel_time=travel_time,
        max_transfer_time=sigma,
        unit_transport_cost=transport,
        demand=demand,
        alpha_discount=0.6,
        beta_discount=0.8,
        early_penalty=np.full((n, n), 1.2),
        late_penalty=np.full((n, n), 1.3),
        window_lower=window_lower,
        window_upper=window_upper,
        aircraft_capacity=50.0,
        lto_p1=1.0,
        lto_p2=3.0,
        ccd_rate_p1=2.0,
        ccd_rate_p2=0.5,
    )


def preset(index: int) -> GeneratorSpec:
    """Benchmark preset 1..10; the seed equals the preset index."""
    if not 1 <= index <= len(PRESET_SIZES):
        raise ValueError(f"preset index must be in 1..{len(PRESET_SIZES)}, got {index}")
    n, p = PRESET_SIZES[index - 1]
    return GeneratorSpec(n=n, p=p, seed=index)
