"""End-to-end checks of the command line through main(argv).

Exit code contract: 0 success, 1 usage or validation failure, 2 infeasible
or budget overrun, 3 I/O problems.
"""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import numpy as np

from conftest import make_instance
import hubnet
from hubnet.cli import _params_from, build_parser, main
from hubnet.encoding import genome_length
from hubnet.evaluation import make_context
from hubnet.exact import EpsilonGrid
from hubnet.fileio import load_instance, read_front_csv, save_instance, write_front_csv
from hubnet.fronts import ParetoFront
from hubnet.generator import GeneratorSpec, generate, preset
from hubnet.metaheuristics import AlgorithmParams, _evaluate_population, _payload_solution


def _gen(tmp_path, name="inst.json", nodes=5, hubs=2, seed=100):
    path = tmp_path / name
    assert main(["generate", "--out", str(path), "--nodes", str(nodes),
                 "--hubs", str(hubs), "--seed", str(seed)]) == 0
    return path


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1
    assert "command" in capsys.readouterr().err


def test_untuned_runs_use_the_library_defaults():
    parser = build_parser()
    args = parser.parse_args(["solve", "--instance", "i.json", "--solver", "nsga2",
                              "--out", "f.csv"])
    assert _params_from(args) == AlgorithmParams()
    assert EpsilonGrid(args.grid_z2, args.grid_z3) == EpsilonGrid()
    swept = parser.parse_args(["sweep", "--instance", "i.json", "--param", "phi",
                               "--values", "30", "--out", "s.csv"])
    assert EpsilonGrid(swept.grid_z2, swept.grid_z3) == EpsilonGrid()


def test_generate_roundtrip(tmp_path):
    path = _gen(tmp_path)
    inst = load_instance(path)
    assert (inst.n, inst.p) == (5, 2)


def test_generate_preset_conflicts_with_explicit_size(tmp_path):
    out = str(tmp_path / "x.json")
    assert main(["generate", "--out", out, "--preset", "1", "--nodes", "5"]) == 1
    assert main(["generate", "--out", out]) == 1   # neither form given
    assert main(["generate", "--out", out, "--nodes", "5"]) == 1  # missing --hubs


def test_generate_preset_conflicts_with_a_seed(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert main(["generate", "--out", str(out), "--preset", "2", "--seed", "9"]) == 1
    assert "--preset excludes --nodes/--hubs/--seed" in capsys.readouterr().err
    assert not out.exists()


def test_negative_seeds_are_refused_by_name(tmp_path, capsys):
    inst = _gen(tmp_path)
    capsys.readouterr()
    assert main(["solve", "--instance", str(inst), "--solver", "nsga2", "--seed", "-1",
                 "--out", str(tmp_path / "f.csv")]) == 1
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
    out = tmp_path / "exp"
    assert main(["compare", "--instances", str(inst), "--algorithms", "nsga2",
                 "--seeds", "0,-1", "--out-dir", str(out)]) == 1
    assert "seeds must be >= 0, got [0, -1]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--solver", "mopso", "--w", "nan"],
                                   ["--solver", "mopso", "--w", "inf"],
                                   ["--solver", "mowoa", "--a-max", "inf"]])
def test_solve_refuses_non_finite_coefficients(tmp_path, capsys, flags):
    inst = _gen(tmp_path)
    capsys.readouterr()
    assert main(["solve", "--instance", str(inst), "--out", str(tmp_path / "f.csv"),
                 *flags]) == 1
    err = capsys.readouterr().err
    assert "must be a finite number >= 0" in err and "Traceback" not in err


def test_solve_survives_an_overflowing_whale_coefficient(tmp_path):
    inst = _gen(tmp_path)
    assert main(["solve", "--instance", str(inst), "--out", str(tmp_path / "f.csv"),
                 "--solver", "mowoa", "--c-range", "1e308", "--max-it", "5",
                 "--pop", "10"]) == 0
    assert read_front_csv(tmp_path / "f.csv")


def test_generate_unwritable_path(tmp_path):
    out = str(tmp_path / "no" / "such" / "dir" / "x.json")
    assert main(["generate", "--out", out, "--nodes", "4", "--hubs", "2"]) == 3


@pytest.mark.parametrize("command, args", [
    ("generate", ["--nodes", "4", "--hubs", "2"]),
    ("solve", ["--solver", "exact", "--grid-z2", "1", "--grid-z3", "1"]),
    ("sweep", ["--param", "phi", "--values", "30", "--grid-z2", "1", "--grid-z3", "1"]),
])
def test_a_failed_write_names_its_path(tmp_path, capsys, command, args):
    out = tmp_path / "no" / "such" / "dir" / "out.csv"
    if command != "generate":
        args = args + ["--instance", str(_gen(tmp_path))]
    capsys.readouterr()
    assert main([command, "--out", str(out)] + args) == 3
    captured = capsys.readouterr()
    assert str(out) in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_solve_exact_then_validate(tmp_path, capsys):
    inst = _gen(tmp_path)
    front = tmp_path / "front.csv"
    metrics = tmp_path / "metrics.csv"
    code = main(["solve", "--instance", str(inst), "--solver", "exact",
                 "--out", str(front), "--metrics-out", str(metrics),
                 "--grid-z2", "3", "--grid-z3", "3"])
    assert code == 0
    assert len(read_front_csv(front)) >= 1
    with open(metrics, newline="") as fh:
        head = next(csv.reader(fh))
    assert head == ["npf", "msi", "sm", "cpt"]

    capsys.readouterr()
    assert main(["validate", "--instance", str(inst), "--front", str(front)]) == 0
    assert "valid" in capsys.readouterr().out


def test_solve_metaheuristic(tmp_path):
    inst = _gen(tmp_path)
    front = tmp_path / "meta.csv"
    code = main(["solve", "--instance", str(inst), "--solver", "nsga2",
                 "--out", str(front), "--max-it", "5", "--pop", "12",
                 "--seed", "3"])
    assert code == 0
    assert main(["validate", "--instance", str(inst), "--front", str(front)]) == 0


def test_solve_budget_overrun(tmp_path, capsys):
    inst = _gen(tmp_path)
    code = main(["solve", "--instance", str(inst), "--solver", "exact",
                 "--out", str(tmp_path / "f.csv"), "--budget", "1"])
    assert code == 2
    assert "budget" in capsys.readouterr().err


def test_solve_bad_rate_and_unknown_solver(tmp_path):
    inst = _gen(tmp_path)
    out = str(tmp_path / "f.csv")
    assert main(["solve", "--instance", str(inst), "--solver", "exact",
                 "--out", out, "--alpha-prime", "1.5"]) == 1
    assert main(["solve", "--instance", str(inst), "--solver", "simplex",
                 "--out", out]) == 1


def test_solve_missing_instance(tmp_path):
    assert main(["solve", "--instance", str(tmp_path / "absent.json"),
                 "--solver", "exact", "--out", str(tmp_path / "f.csv")]) == 3


def test_validate_io_and_data_errors(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["validate", "--instance", str(bad)]) == 3

    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"schema": "other/1"}))
    assert main(["validate", "--instance", str(wrong)]) == 3

    # structurally fine JSON whose numbers break the model rules
    inst = _gen(tmp_path)
    data = json.loads(inst.read_text())
    data["distance"][0][1] += 5.0   # asymmetry
    crooked = tmp_path / "crooked.json"
    crooked.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["validate", "--instance", str(crooked)]) == 1
    assert "symmetric" in capsys.readouterr().out

    # a number given as a string is refused on load, not met by a crash later
    data = json.loads(inst.read_text())
    data["omega"] = "250"
    quoted = tmp_path / "quoted.json"
    quoted.write_text(json.dumps(data))
    assert main(["validate", "--instance", str(quoted)]) == 3
    captured = capsys.readouterr()
    assert "cannot read instance" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_validate_flags_doctored_front(tmp_path, capsys):
    inst = _gen(tmp_path)
    front = tmp_path / "front.csv"
    assert main(["solve", "--instance", str(inst), "--solver", "exact",
                 "--out", str(front), "--grid-z2", "3", "--grid-z3", "3"]) == 0
    rows = front.read_text().splitlines()
    head = rows[0].split(",")
    z1_col = head.index("z1")
    parts = rows[1].split(",")
    parts[z1_col] = "1.0"           # objective no longer matches the plan
    rows[1] = ",".join(parts)
    front.write_text("\n".join(rows) + "\n")
    capsys.readouterr()
    assert main(["validate", "--instance", str(inst), "--front", str(front)]) == 1
    assert "differ" in capsys.readouterr().out


@pytest.mark.parametrize("column, edit, message", [
    ("hubs", lambda v: v + " 99", "hubs: node(s) [99] outside 0..4"),
    ("assignment", lambda v: "99 " + v.split(" ", 1)[1], "assignment: node(s) [99] outside 0..4"),
    ("assignment", lambda v: v.rsplit(" ", 1)[0], "assignment: expected 5 entries, got 4"),
    ("routes", lambda v: "k99 " + v.split(" ", 1)[1], "routes: node(s) [99] outside 0..4"),
    ("routes", lambda v: "k0->k-3 " + v.split(" ", 1)[1], "routes: node(s) [-3] outside 0..4"),
    ("routes", lambda v: "kx " + v.split(" ", 1)[1], "unparseable route token 'kx'"),
    ("alpha_prime", lambda v: "1.5", "alpha_prime: uncertainty rate must lie in [0, 1], got 1.5"),
    ("alpha_prime", lambda v: "nan", "alpha_prime: uncertainty rate must lie in [0, 1], got nan"),
], ids=["hub", "assignment", "short-assignment", "one-hub-route", "two-hub-route",
        "route-token", "rate", "nan-rate"])
def test_front_rows_that_do_not_fit_the_instance_are_refused(tmp_path, capsys,
                                                            column, edit, message):
    inst = _gen(tmp_path)
    front = tmp_path / "front.csv"
    assert main(["solve", "--instance", str(inst), "--solver", "exact",
                 "--out", str(front), "--grid-z2", "2", "--grid-z3", "2"]) == 0
    with open(front, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row[column] = edit(row[column])
    with open(front, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    capsys.readouterr()
    assert main(["validate", "--instance", str(inst), "--front", str(front)]) == 1
    captured = capsys.readouterr()
    # every row is checked, not only the first
    for r in range(len(rows)):
        assert f"front row {r}: {message}" in captured.out
    assert "Traceback" not in captured.err + captured.out

    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--instance", str(inst), "--param", "phi", "--values", "30",
                 "--front", str(front), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert not out.exists()


def _tamper_first_pair(tokens):
    # pair (0, 2) is the second token; reverse its two hubs
    parts = tokens.split()
    parts[1] = "->".join(reversed(parts[1].split("->")))
    return " ".join(parts)


@pytest.mark.parametrize("column, edit, message", [
    ("hubs", lambda v: "0 " + v,
     "hubs: [0, 2, 3] but the nodes assigned to themselves are [2, 3]"),
    ("routes", _tamper_first_pair,
     "pair (0, 2) flies hubs (2, 3) but its endpoints' hubs are (3, 2)"),
], ids=["spoke-as-hub", "reversed-route"])
def test_sweep_and_validate_refuse_a_row_its_assignment_contradicts(tmp_path, capsys,
                                                                    column, edit, message):
    # the minimum-cost row is the one sweep prices; it used to price the
    # tampered row as if it were legal and exit 0
    inst = _gen(tmp_path)
    front = tmp_path / "front.csv"
    assert main(["solve", "--instance", str(inst), "--solver", "exact",
                 "--out", str(front), "--grid-z2", "2", "--grid-z3", "2"]) == 0
    with open(front, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert (rows[0]["hubs"], rows[0]["assignment"]) == ("2 3", "3 2 2 3 2")
    rows[0][column] = edit(rows[0][column])
    with open(front, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    capsys.readouterr()
    assert main(["validate", "--instance", str(inst), "--front", str(front)]) == 1
    captured = capsys.readouterr()
    assert f"front row 0: {message}" in captured.out
    assert "front row 1" not in captured.out
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--instance", str(inst), "--param", "phi", "--values", "30",
                 "--front", str(front), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize("column, value, kind", [("z1", "x", "a number"),
                                                 ("hubs", "3.5", "a node id")])
def test_validate_names_the_line_and_field_of_an_unreadable_value(tmp_path, capsys,
                                                                  column, value, kind):
    inst = _gen(tmp_path)
    front = tmp_path / "bad.csv"
    assert main(["solve", "--instance", str(inst), "--solver", "exact",
                 "--out", str(front), "--grid-z2", "2", "--grid-z3", "2"]) == 0
    with open(front, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[1][column] = value
    with open(front, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    capsys.readouterr()
    assert main(["validate", "--instance", str(inst), "--front", str(front)]) == 3
    assert capsys.readouterr().err == (f"cannot read front {front}: front CSV line 3, "
                                       f"field {column}: expected {kind}, got '{value}'\n")


def test_sweep_from_front(tmp_path):
    inst = _gen(tmp_path)
    front = tmp_path / "front.csv"
    assert main(["solve", "--instance", str(inst), "--solver", "exact",
                 "--out", str(front), "--grid-z2", "3", "--grid-z3", "3"]) == 0
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--instance", str(inst), "--param", "phi",
                 "--values", "30,40,50,60,70", "--front", str(front),
                 "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["value", "z1", "z2", "z3"]
    assert len(rows) == 6
    assert [float(r[0]) for r in rows[1:]] == [30.0, 40.0, 50.0, 60.0, 70.0]


def test_sweep_refuses_a_front_row_over_a_time_cap(tmp_path, capsys):
    # capped at the direct flight time, the minimum-cost row's routes through
    # a third node break their caps; no sweep knob moves travel times, so
    # sweep refuses the row, naming the pair validate reports first
    inst = _gen(tmp_path)
    front = tmp_path / "front.csv"
    assert main(["solve", "--instance", str(inst), "--solver", "exact",
                 "--out", str(front), "--grid-z2", "2", "--grid-z3", "2"]) == 0
    data = json.loads(inst.read_text())
    data["max_transfer_time"] = data["travel_time"]
    inst.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["validate", "--instance", str(inst), "--front", str(front)]) == 1
    first = re.search(r"^front row 0: (pair \(\d+, \d+\) route time exceeds cap \S+)$",
                      capsys.readouterr().out, re.M)
    assert first
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--instance", str(inst), "--param", "phi", "--values", "30",
                 "--front", str(front), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"plan has no finite price: {first.group(1)}\n"
    assert not out.exists()


def test_validate_accepts_a_row_a_population_solver_priced(tmp_path, capsys):
    # the population solvers price on the array path; validate recomputes on
    # the same path, so it accepts the cost 2001270.346123 that a
    # pair-by-pair sum would put at ...124
    inst = generate(GeneratorSpec(n=8, p=3, seed=0))
    ctx = make_context(inst, 1.0)
    X = np.random.default_rng(0).random((200, genome_length(8)))[181:182]
    objs, payloads, _ = _evaluate_population(ctx, X)
    assert objs[0, 0] == 2001270.346123
    path, front = tmp_path / "inst.json", tmp_path / "front.csv"
    save_instance(inst, path)
    write_front_csv(ParetoFront(solutions=(_payload_solution(ctx, objs[0], payloads[0]),)), front)
    capsys.readouterr()
    assert main(["validate", "--instance", str(path), "--front", str(front)]) == 0
    assert capsys.readouterr().out == "valid\n"


def test_sweep_missing_instance(tmp_path):
    assert main(["sweep", "--instance", str(tmp_path / "none.json"),
                 "--param", "phi", "--values", "30,50",
                 "--out", str(tmp_path / "s.csv")]) == 3


def test_sweep_rejects_garbled_values(tmp_path):
    inst = _gen(tmp_path)
    assert main(["sweep", "--instance", str(inst), "--param", "phi",
                 "--values", "30,abc", "--out", str(tmp_path / "s.csv")]) == 1


@pytest.mark.parametrize("args, message", [
    (["--param", "phi", "--values", "30"], "invalid instance: distance has negative entries"),
    (["--param", "alpha", "--values", "0.5,-3"],
     "cannot sweep alpha to -3.0: alpha_discount must lie in (0, 1], got -3.0"),
    (["--param", "phi", "--values", "0"],
     "cannot sweep phi to 0.0: aircraft_capacity must be > 0, got 0.0"),
    (["--param", "alpha_prime", "--values", "1.5"],
     "cannot sweep alpha_prime to 1.5: uncertainty rate must lie in [0, 1], got 1.5"),
    (["--param", "phi", "--values", "30", "--alpha-prime", "2"],
     "argument --alpha-prime: uncertainty rate must lie in [0, 1], got 2.0"),
], ids=["invalid-instance", "alpha", "phi", "rate", "alpha-prime-flag"])
def test_sweep_refuses_bad_input(tmp_path, capsys, args, message):
    inst = _gen(tmp_path)
    if message.startswith("invalid instance"):
        data = json.loads(inst.read_text())
        data["distance"][0][1] = -data["distance"][0][1]
        inst.write_text(json.dumps(data))
    out = tmp_path / "s.csv"
    capsys.readouterr()
    code = main(["sweep", "--instance", str(inst), "--out", str(out),
                 "--grid-z2", "1", "--grid-z3", "1"] + args)
    captured = capsys.readouterr()
    assert code == 1
    assert message in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert not out.exists()


def test_bad_alpha_prime_stops_compare_before_any_cell(tmp_path, capsys):
    inst = _gen(tmp_path)
    out = tmp_path / "exp"
    capsys.readouterr()
    code = main(["compare", "--instances", str(inst), "--algorithms", "nsga2", "--seeds", "0",
                 "--out-dir", str(out), "--alpha-prime", "1.5"])
    assert code == 1
    assert ("argument --alpha-prime: uncertainty rate must lie in [0, 1], got 1.5"
            in capsys.readouterr().err)
    assert not out.exists()


def test_compare_usage_errors_write_nothing(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    first, second = _gen(a, "same.json"), _gen(b, "same.json")
    out = tmp_path / "exp"
    capsys.readouterr()
    code = main(["compare", "--instances", str(first), str(second), "--algorithms", "nsga2",
                 "--seeds", "0", "--out-dir", str(out)])
    assert code == 1
    assert "instance file stems must be unique" in capsys.readouterr().err
    assert not out.exists()
    code = main(["compare", "--instances", str(first), "--algorithms", "nsga2",
                 "--seeds", "0", "--out-dir", str(out), "--workers", "0"])
    assert code == 1
    assert "workers must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()
    for flags, message in ((["--algorithms", "nsga2", "nsga2", "--seeds", "0"],
                            "algorithms must be unique, got ['nsga2', 'nsga2']"),
                           (["--algorithms", "nsga2", "--seeds", "0,0,1"],
                            "seeds must be unique, got [0, 0, 1]")):
        code = main(["compare", "--instances", str(first), "--out-dir", str(out), *flags])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("flag", ["--grid-z2", "--grid-z3"])
def test_compare_refuses_an_empty_grid_before_any_cell(tmp_path, capsys, flag):
    inst = _gen(tmp_path)
    out = tmp_path / "exp"
    capsys.readouterr()
    code = main(["compare", "--instances", str(inst), "--algorithms", "nsga2", "exact",
                 "--seeds", "0", "--out-dir", str(out), flag, "0"])
    assert code == 1
    assert "grid segment counts must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_one_node_instance_is_refused(tmp_path, capsys):
    path = tmp_path / "lone.json"
    save_instance(make_instance(1, 1, distance=np.zeros((1, 1)), demand=np.zeros((1, 1))), path)
    capsys.readouterr()
    assert main(["validate", "--instance", str(path)]) == 1
    assert "node count must be >= 2, got 1" in capsys.readouterr().out
    assert main(["solve", "--instance", str(path), "--solver", "exact",
                 "--out", str(tmp_path / "f.csv")]) == 1
    captured = capsys.readouterr()
    assert "invalid instance: node count must be >= 2, got 1" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_compare_end_to_end(tmp_path):
    a = _gen(tmp_path, "a.json", seed=100)
    b = _gen(tmp_path, "b.json", nodes=6, hubs=3, seed=11)
    out = tmp_path / "exp"
    code = main(["compare", "--instances", str(a), str(b),
                 "--algorithms", "exact", "nsga2", "--seeds", "0,1",
                 "--out-dir", str(out), "--max-it", "5", "--pop", "12",
                 "--grid-z2", "3", "--grid-z3", "3"])
    assert code == 0
    for name in ("cells.csv", "averages.csv", "ranking.csv"):
        assert (out / name).exists()
    fronts = sorted(p.name for p in (out / "fronts").iterdir())
    assert len(fronts) == 8
    assert "a_exact_seed0.csv" in fronts


def test_compare_contains_bad_instances(tmp_path, capsys):
    good = _gen(tmp_path, "good.json")
    data = json.loads(good.read_text())
    unreadable = tmp_path / "quoted.json"
    unreadable.write_text(json.dumps(dict(data, omega="250")))
    data["distance"][0][1] = -data["distance"][0][1]
    invalid = tmp_path / "negated.json"
    invalid.write_text(json.dumps(data))
    listed = tmp_path / "listed.json"
    listed.write_text("[]")
    out = tmp_path / "exp"
    capsys.readouterr()
    code = main(["compare", "--instances", str(good), str(unreadable), str(invalid), str(listed),
                 "--algorithms", "nsga2", "--seeds", "0", "--out-dir", str(out),
                 "--max-it", "5", "--pop", "12"])
    err = capsys.readouterr().err
    assert code == 0
    with open(out / "cells.csv", newline="") as fh:
        rows = {row[0]: row[3:] for row in list(csv.reader(fh))[1:]}
    assert all(rows["good"]) and len(rows) == 4
    assert rows["quoted"] == rows["negated"] == rows["listed"] == ["", "", "", ""]
    assert [p.name for p in (out / "fronts").iterdir()] == ["good_nsga2_seed0.csv"]
    assert "cell quoted/nsga2/seed0 failed: instance field omega" in err
    assert "cell negated/nsga2/seed0 failed: invalid instance" in err
    assert "cell listed/nsga2/seed0 failed: instance file holds a JSON array, not an object" in err
    assert "symmetric" in err
    # a missing file is still an I/O error for the whole campaign
    assert main(["compare", "--instances", str(good), str(tmp_path / "nope.json"),
                 "--algorithms", "nsga2", "--seeds", "0", "--out-dir", str(out)]) == 3


def test_compare_skips_a_ranking_topsis_cannot_make(tmp_path, capsys):
    # on this instance every cell's front has one point, so the msi and sm
    # averages are all zero and TOPSIS cannot normalize them
    inst = _gen(tmp_path)
    out = tmp_path / "exp"
    capsys.readouterr()
    code = main(["compare", "--instances", str(inst), "--algorithms", "nsga2", "--seeds", "0",
                 "--out-dir", str(out), "--max-it", "3", "--pop", "8"])
    err = capsys.readouterr().err
    assert code == 0
    with open(out / "averages.csv", newline="") as fh:
        averages = list(csv.reader(fh))
    assert [row[0] for row in averages[1:]] == ["nsga2"]
    assert float(averages[1][2]) == float(averages[1][3]) == 0.0
    assert (out / "ranking.csv").read_text().splitlines() == ["rank,algorithm,closeness"]
    assert "ranking skipped: criteria with all-zero columns" in err


def test_sweep_refuses_a_bad_value_before_solving(tmp_path, capsys, monkeypatch):
    # without --front the plan comes from an exact solve; a value the
    # sweep must refuse is caught before that solve starts
    inst = _gen(tmp_path)
    solves = []
    monkeypatch.setattr("hubnet.cli._pick_plan", lambda args, inst: solves.append(1))
    out = tmp_path / "s.csv"
    code = main(["sweep", "--instance", str(inst), "--param", "alpha", "--values=0.5,-3",
                 "--out", str(out)])
    assert code == 1
    assert "cannot sweep alpha to -3.0" in capsys.readouterr().err
    assert solves == []
    assert not out.exists()


def test_sweep_without_front_solves_exactly_first(tmp_path):
    inst = _gen(tmp_path)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--instance", str(inst), "--param", "phi", "--values", "30,60",
                 "--out", str(out), "--grid-z2", "2", "--grid-z3", "2"]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["value", "z1", "z2", "z3"]
    assert [float(r[0]) for r in rows[1:]] == [30.0, 60.0]


def test_generate_preset_writes_the_library_instance(tmp_path):
    out = tmp_path / "preset1.json"
    assert main(["generate", "--out", str(out), "--preset", "1"]) == 0
    ref = tmp_path / "ref.json"
    save_instance(generate(preset(1)), ref)
    assert out.read_bytes() == ref.read_bytes()


def test_validate_flags_a_front_over_a_squeezed_capacity(tmp_path, capsys):
    inst = _gen(tmp_path)
    front = tmp_path / "front.csv"
    assert main(["solve", "--instance", str(inst), "--solver", "exact",
                 "--out", str(front), "--grid-z2", "3", "--grid-z3", "3"]) == 0
    data = json.loads(inst.read_text())
    data["capacity"] = [0.01 * c for c in data["capacity"]]
    inst.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["validate", "--instance", str(inst), "--front", str(front)]) == 1
    out = capsys.readouterr().out
    assert re.search(r"^front row \d+: hub \d+ throughput \S+ exceeds capacity \S+$", out, re.M)
    assert "instance:" not in out


def test_validate_runs_the_feasibility_report_once_per_row(tmp_path, capsys, monkeypatch):
    inst = _gen(tmp_path)
    front = tmp_path / "front.csv"
    assert main(["solve", "--instance", str(inst), "--solver", "exact",
                 "--out", str(front), "--grid-z2", "3", "--grid-z3", "3"]) == 0
    reports = []

    def counted(*args, real=hubnet.evaluation.feasibility_violations):
        reports.append(args)
        return real(*args)
    monkeypatch.setattr(hubnet.evaluation, "feasibility_violations", counted)
    capsys.readouterr()
    assert main(["validate", "--instance", str(inst), "--front", str(front)]) == 0
    assert len(reports) == len(read_front_csv(front)) > 0


def test_compare_where_every_cell_fails(tmp_path, capsys):
    inst = _gen(tmp_path)
    capsys.readouterr()
    assert main(["compare", "--instances", str(inst), "--algorithms", "exact",
                 "--seeds", "0,1", "--out-dir", str(tmp_path / "exp"), "--budget", "1"]) == 2
    err = capsys.readouterr().err
    assert err.count("exceeds enumeration budget 1") == 2
    assert "every cell failed; no tables to rank" in err


def test_a_rate_that_is_not_a_number_is_a_usage_error(tmp_path, capsys):
    inst = _gen(tmp_path)
    capsys.readouterr()
    assert main(["solve", "--instance", str(inst), "--solver", "nsga2",
                 "--out", str(tmp_path / "f.csv"), "--alpha-prime", "abc"]) == 1
    assert "expected a number, got 'abc'" in capsys.readouterr().err


def test_validate_refuses_a_front_it_cannot_read(tmp_path, capsys):
    inst = _gen(tmp_path)
    data = json.loads(inst.read_text())
    data["distance"][0][1] += 5.0   # asymmetry, reported before the front is read
    inst.write_text(json.dumps(data))
    missing = tmp_path / "absent.csv"
    capsys.readouterr()
    assert main(["validate", "--instance", str(inst), "--front", str(missing)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "instance: distance matrix is not symmetric\n"
    assert f"front file not found: {missing}" in captured.err

    other = tmp_path / "other.csv"
    other.write_text("a,b\n1,2\n")
    assert main(["validate", "--instance", str(inst), "--front", str(other)]) == 3
    assert f"cannot read front {other}: front CSV missing columns" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "sweep"])
def test_front_rows_of_the_wrong_width_are_refused(tmp_path, capsys, command):
    """A row shorter or longer than the header is an unreadable front, not
    a crash on a missing field or a silently dropped extra one."""
    inst = _gen(tmp_path)
    header = "z1,z2,z3,alpha_prime,hubs,assignment,routes\n"
    out = tmp_path / "s.csv"
    extra = ["--param", "phi", "--values", "30", "--out", str(out)] if command == "sweep" else []
    for row, width in (("1,2", 2), ("1,2,3,0.5,0,0 0 0 0 0,Direct,x", 8)):
        front = tmp_path / "front.csv"
        front.write_text(header + row + "\n")
        capsys.readouterr()
        assert main([command, "--instance", str(inst), "--front", str(front)] + extra) == 3
        captured = capsys.readouterr()
        assert (f"cannot read front {front}: front CSV line 2 has {width} fields, its header 7"
                in captured.err)
        assert "Traceback" not in captured.err + captured.out
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    ("[]", "instance file holds a JSON array, not an object"),
    ('"x"', "instance file holds a JSON string, not an object"),
    ("3", "instance file holds a JSON number, not an object"),
    ("null", "instance file holds a JSON null, not an object"),
    (None, "instance field omega is missing"),
], ids=["array", "string", "number", "null", "no-omega"])
def test_validate_refuses_a_file_that_holds_no_instance(tmp_path, capsys, text, message):
    path = tmp_path / "odd.json"
    if text is None:
        data = json.loads(_gen(tmp_path).read_text())
        del data["omega"]
        text = json.dumps(data)
    path.write_text(text)
    capsys.readouterr()
    assert main(["validate", "--instance", str(path)]) == 3
    captured = capsys.readouterr()
    assert f"cannot read instance {path}: {message}" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_sweep_refuses_an_empty_front_and_an_empty_value_list(tmp_path, capsys):
    inst = _gen(tmp_path)
    front = tmp_path / "front.csv"
    front.write_text("z1,z2,z3,alpha_prime,hubs,assignment,routes\n")
    out = tmp_path / "s.csv"
    capsys.readouterr()
    assert main(["sweep", "--instance", str(inst), "--param", "phi", "--values", "30",
                 "--front", str(front), "--out", str(out)]) == 2
    assert f"front {front} is empty" in capsys.readouterr().err
    assert main(["sweep", "--instance", str(inst), "--param", "phi", "--values", ",",
                 "--front", str(front), "--out", str(out)]) == 1
    assert "--values must name at least one number" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_without_front_reports_a_blown_budget(tmp_path, capsys):
    inst = _gen(tmp_path)
    out = tmp_path / "s.csv"
    capsys.readouterr()
    assert main(["sweep", "--instance", str(inst), "--param", "phi", "--values", "30",
                 "--out", str(out), "--budget", "1"]) == 2
    assert "budget exceeded: " in capsys.readouterr().err
    assert not out.exists()


def test_the_module_runs_as_a_script(tmp_path):
    inst = _gen(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(hubnet.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "hubnet.cli", "validate", "--instance", str(inst)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (0, "valid\n")
