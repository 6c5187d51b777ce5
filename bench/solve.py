"""One hubnet solve that writes its front and indicator CSVs.

``solve_to_files`` does what ``hubnet solve --out F --metrics-out M`` does,
but looks the solver up on its module at call time, so a ``Tracer``
installed in this process sees the call.  Run as a script, it is the child
process the benchmark starts for each deadline-bound exact solve:

    python3 bench/solve.py REQUEST.json

REQUEST.json holds ``instance``, ``grid``, ``out_csv``, ``trace`` and
``result``; the child writes ``{"solve_s", "speed", "calibration_s",
"trace"}`` to the ``result`` path when it finishes.  It times
``calibrate`` just before and after the solve, on its own core, so the
parent can scale the solve to reference seconds.  The parent kills it at
the deadline.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from hubnet import analysis, exact, fileio, metaheuristics
from hubnet.exact import EpsilonGrid
from hubnet.metaheuristics import AlgorithmParams
from hubnet.model import ProblemInstance
from tracer import Tracer


# reference machine speed: calibrate() takes this long (about the middle of
# what a shared 2-core x86 box gave it)
CAL_REF_S = 0.13
_SMALL = np.arange(225.0).reshape(15, 15)
_LARGE = np.random.default_rng(0).random(1 << 20)


def calibrate() -> float:
    """Seconds for a fixed slice of numpy work that is not hubnet code.

    Many calls on a 15x15 array, as the metaheuristics make, then a sort
    of a million floats, as the exact index build makes: the two kinds of
    work a shared machine slows by different amounts.
    """
    start = time.perf_counter()
    for i in range(10000):
        b = np.where(_SMALL > i % 200, _SMALL, -_SMALL)
        int(np.argmax(b.sum(axis=1)))
    float(np.sort(_LARGE)[-1])
    return time.perf_counter() - start


def speed_of(before: float, after: float) -> float:
    """Machine speed between two calibrations, as a multiple of the reference."""
    return 2.0 * CAL_REF_S / (before + after)


def solve_to_files(algorithm: str, inst: ProblemInstance, seed: int,
                   params: AlgorithmParams, grid: EpsilonGrid, out_csv: Path) -> float:
    """Solve, write the front CSV and its ``.metrics.csv``; the solve seconds."""
    start = time.perf_counter()
    if algorithm == "exact":
        front = exact.epsilon_constraint_front(inst, grid)
    else:
        front = getattr(metaheuristics, "run_" + algorithm)(inst, params, seed=seed)
    elapsed = time.perf_counter() - start
    fileio.write_front_csv(front, out_csv)
    fileio.write_metrics_csv(analysis.compute_metrics(front, elapsed),
                             out_csv.with_suffix(".metrics.csv"))
    return elapsed


def main(request_path: str) -> None:
    req = json.loads(Path(request_path).read_text())
    before = calibrate()
    tracer = Tracer().install() if req["trace"] else None
    try:
        inst = fileio.load_instance(req["instance"])
        elapsed = solve_to_files("exact", inst, 0, AlgorithmParams(),
                                 EpsilonGrid(*req["grid"]), Path(req["out_csv"]))
    finally:
        if tracer is not None:
            tracer.uninstall()
    after = calibrate()
    result = {"solve_s": elapsed, "speed": speed_of(before, after),
              "calibration_s": before + after,
              "trace": tracer.summary() if tracer else {}}
    Path(req["result"]).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1])
