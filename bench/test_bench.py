"""The benchmark's tracer must not change answers, and its counts must repeat.

Runs on the 5-node instance of acceptance check C10:

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import hubnet  # noqa: E402
from hubnet.exact import EpsilonGrid  # noqa: E402
from hubnet.generator import GeneratorSpec, generate  # noqa: E402
from hubnet.metaheuristics import AlgorithmParams  # noqa: E402

import run  # noqa: E402
from solve import solve_to_files  # noqa: E402
from tracer import Tracer  # noqa: E402

C10 = generate(GeneratorSpec(n=5, p=2, seed=100))
PARAMS = AlgorithmParams(max_iterations=10, population_size=20)


def _fronts(tmp_path: Path, tag: str) -> dict[str, bytes]:
    out = {}
    for algorithm in ("exact", "nsga2", "mopso", "mowoa"):
        csv = tmp_path / f"{tag}_{algorithm}.csv"
        solve_to_files(algorithm, C10, 3, PARAMS, EpsilonGrid(3, 3), csv)
        out[algorithm] = csv.read_bytes()
    return out


def _counts(summary: dict) -> dict:
    """Everything but the timings."""
    return {k: v for k, v in summary.items() if not k.endswith((".s", "_s"))}


def test_traced_fronts_are_byte_identical_and_counts_repeat(tmp_path):
    plain = _fronts(tmp_path, "plain")
    counts = []
    for k in range(2):
        with Tracer() as tracer:
            assert _fronts(tmp_path, f"traced{k}") == plain
        counts.append(_counts(tracer.summary()))
    assert counts[0] == counts[1]
    for name in ("encoding.decode.calls", "encoding.repair.calls", "evaluation.hub_tables.calls",
                 "archive.add.calls", "archive.select_leader.calls",
                 "fronts.nondominated_sort.calls", "exact.build_index.calls",
                 "exact.bb_routing.calls", "exact.pair_data.calls", "fileio.write_csv.calls"):
        assert counts[0][name] > 0, name
    assert counts[0]["metaheuristics.evals"] == 3 * PARAMS.population_size * (PARAMS.max_iterations + 1)


def test_self_times_add_up_to_the_outer_span():
    tracer = Tracer().install()
    try:
        hubnet.metaheuristics.run_nsga2(C10, PARAMS, seed=3)
    finally:
        tracer.uninstall()
    s = tracer.summary()
    layers = ("metaheuristics", "encoding", "evaluation", "fronts")
    assert abs(sum(s.get(f"{k}.self_s", 0.0) for k in layers) - s["metaheuristics.run.s"]) < 1e-6


def _bindings() -> dict:
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "hubnet" or name.startswith("hubnet."):
            out.update({(name, k): v for k, v in vars(mod).items()})
            for k, v in vars(mod).items():
                if isinstance(v, type) and v.__module__ == name:
                    out.update({(name, k, a): b for a, b in vars(v).items()})
    return out


def test_uninstall_restores_every_binding():
    before = _bindings()
    with Tracer():
        assert _bindings() != before
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_benchmark_json_names_what_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == table
