import dataclasses
import json
import math

import numpy as np
import pytest

from hubnet.evaluation import evaluate, solution_from_plan
from hubnet.exact import EpsilonGrid, epsilon_constraint_front
from hubnet.fileio import (
    FrontRow,
    load_instance,
    parse_route,
    read_front_csv,
    render_route,
    save_instance,
    solution_from_row,
    write_csv,
    write_front_csv,
    write_metrics_csv,
)
from hubnet.fronts import ParetoFront
from hubnet.model import NetworkDesign

from test_model import all_hub_plan, direct_plan


def test_instance_roundtrip(tmp_path, gen5):
    path = tmp_path / "inst.json"
    save_instance(gen5, path)
    back = load_instance(path)
    assert back.n == gen5.n and back.p == gen5.p
    for name in ("omega", "alpha_discount", "beta_discount", "aircraft_capacity",
                 "lto_p1", "lto_p2", "ccd_rate_p1", "ccd_rate_p2"):
        assert getattr(back, name) == getattr(gen5, name)
    for name in ("fixed_cost", "capacity", "handling_cost", "distance",
                 "travel_time", "max_transfer_time", "unit_transport_cost",
                 "demand", "early_penalty", "late_penalty",
                 "window_lower", "window_upper"):
        assert np.array_equal(getattr(back, name), getattr(gen5, name)), name


def test_instance_writer_is_deterministic(tmp_path, gen5):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_instance(gen5, p1)
    save_instance(gen5, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_wrong_schema(tmp_path, gen5):
    path = tmp_path / "inst.json"
    save_instance(gen5, path)
    doc = json.loads(path.read_text())
    doc["schema"] = "something-else/9"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="schema"):
        load_instance(path)


def test_instance_files_refuse_non_finite_numbers(tmp_path, gen5):
    path = tmp_path / "inst.json"
    save_instance(gen5, path)
    doc = json.loads(path.read_text())
    travel = doc["travel_time"]
    for token, value in (("NaN", math.nan), ("Infinity", math.inf), ("-Infinity", -math.inf)):
        # json.dumps writes these as the bare tokens NaN / Infinity / -Infinity
        path.write_text(json.dumps(dict(doc, aircraft_capacity=value)))
        with pytest.raises(ValueError, match=token):
            load_instance(path)
        row = list(travel[0])
        row[1] = value
        path.write_text(json.dumps(dict(doc, travel_time=[row] + travel[1:])))
        with pytest.raises(ValueError, match=token):
            load_instance(path)
    with pytest.raises(ValueError):
        save_instance(dataclasses.replace(gen5, aircraft_capacity=math.nan), tmp_path / "nan.json")


BIG = "9" * 400   # an integer no float can hold


@pytest.mark.parametrize("field, text, message", [
    ("aircraft_capacity", "1e400", "non-finite"),
    ("travel_time", "1e400", "non-finite"),
    ("omega", "-1e400", "non-finite"),
    ("omega", '"250"', "numbers only"),
    ("aircraft_capacity", "null", "numbers only"),
    ("travel_time", "null", "numbers only"),
    ("omega", BIG, "numbers only"),
    ("travel_time", BIG, "numbers only"),
    ("p", "2.5", "integer"),
    ("n", "true", "numbers only"),
    ("omega", "[1.0, 2.0]", "single number"),
], ids=lambda v: v if len(v) < 20 else "400-digit")
def test_instance_files_refuse_what_is_not_a_finite_number(tmp_path, gen5, field, text, message):
    # array fields get the bad value in one entry, scalar fields replace it
    path = tmp_path / "inst.json"
    save_instance(gen5, path)
    doc = json.loads(path.read_text())
    if isinstance(doc[field], list):
        doc[field][0][1] = "@bad@"
    else:
        doc[field] = "@bad@"
    path.write_text(json.dumps(doc).replace('"@bad@"', text))
    with pytest.raises(ValueError, match=f"{field} .*{message}"):
        load_instance(path)


@pytest.mark.parametrize("text, message", [
    ("[]", "a JSON array"), ('"x"', "a JSON string"), ("3", "a JSON number"),
    ("null", "a JSON null"), ("true", "a JSON boolean"),
])
def test_instance_files_refuse_what_is_not_an_instance_object(tmp_path, text, message):
    path = tmp_path / "inst.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"instance file holds {message}, not an object"):
        load_instance(path)


def test_instance_files_refuse_a_missing_field(tmp_path, gen5):
    path = tmp_path / "inst.json"
    save_instance(gen5, path)
    doc = json.loads(path.read_text())
    del doc["travel_time"]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="instance field travel_time is missing"):
        load_instance(path)


def test_instance_files_refuse_ragged_arrays(tmp_path, gen5):
    path = tmp_path / "inst.json"
    save_instance(gen5, path)
    doc = json.loads(path.read_text())
    doc["distance"][0] = doc["distance"][0][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="distance is not a rectangular array"):
        load_instance(path)


def test_route_tokens_roundtrip():
    for route in ((), (5,), (1, 5)):
        assert parse_route(render_route(route)) == route
    assert render_route(()) == "Direct"
    assert render_route((0, 12)) == "k0->k12"
    # negative ids parse, so the range check can name them
    assert parse_route("k0->k-3") == (0, -3)
    for bad in ("x3", "k1->x2", "", "direct", "k", "kx", "k1->k2->k3", "k1->", "k 1"):
        with pytest.raises(ValueError, match=f"^unparseable route token '{bad}'$"):
            parse_route(bad)


def test_front_csv_roundtrip(tmp_path, tiny):
    front = epsilon_constraint_front(tiny, EpsilonGrid(3, 3))
    assert len(front) >= 1
    path = tmp_path / "front.csv"
    write_front_csv(front, path)

    rows = read_front_csv(path)
    assert len(rows) == len(front)
    for row, sol in zip(rows, front):
        assert (row.z1, row.z2, row.z3) == sol.objectives.as_tuple()
        assert row.hubs == sol.design.hubs
        assert row.assignment == sol.design.assignment
        rebuilt = solution_from_row(tiny, row)
        assert rebuilt.plan == sol.plan
        z = evaluate(tiny, rebuilt.design, rebuilt.plan, rebuilt.alpha_prime)
        assert z.as_tuple() == sol.objectives.as_tuple()

    # identical front, identical bytes
    path2 = tmp_path / "front2.csv"
    write_front_csv(front, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_front_csv_missing_column(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("z1,z2,z3\n1.0,2.0,3.0\n")
    with pytest.raises(ValueError, match="missing columns"):
        read_front_csv(path)


def test_front_csv_skips_blank_lines_and_refuses_rows_of_the_wrong_width(tmp_path):
    path = tmp_path / "front.csv"
    header = "z1,z2,z3,alpha_prime,hubs,assignment,routes\n"
    path.write_text(header + "\n1.0,2.0,3.0,0.5,0,0 0,Direct Direct\n\n")
    assert [(r.z1, r.hubs, r.routes) for r in read_front_csv(path)] == [
        (1.0, (0,), ("Direct", "Direct"))]
    for row, width in (("1.0,2.0", 2), ("1.0,2.0,3.0,0.5,0,0 0,Direct Direct,x", 8)):
        path.write_text(header + "\n" + row + "\n")
        with pytest.raises(ValueError, match=f"front CSV line 3 has {width} fields, its header 7"):
            read_front_csv(path)


def test_solution_from_row_checks_token_count(tmp_path, tiny):
    design = NetworkDesign((1, 1, 1))
    sol = solution_from_plan(tiny, design, all_hub_plan(3), 0.5)
    path = tmp_path / "front.csv"
    write_front_csv(ParetoFront(solutions=(sol,)), path)
    row = read_front_csv(path)[0]
    truncated = row.__class__(**{**row.__dict__, "routes": row.routes[:-1]})
    with pytest.raises(ValueError, match="route tokens"):
        solution_from_row(tiny, truncated)


def _row(assignment, hubs, routes):
    return FrontRow(z1=1.0, z2=1.0, z3=1.0, alpha_prime=0.5, hubs=hubs,
                    assignment=assignment, routes=routes)


# pair order: (0, 1) (0, 2) (1, 0) (1, 2) (2, 0) (2, 1)
@pytest.mark.parametrize("assignment, hubs, routes, message", [
    ((1, 1, 1), (1,), ("k0", "k1", "k1", "k1", "k1", "k1"),
     "pair (0, 1) flies hubs (0,) but its endpoints' hubs are (1, 1)"),
    ((0, 0, 2), (0, 2), ("Direct",) * 3 + ("k2->k0",) + ("Direct",) * 2,
     "pair (1, 2) flies hubs (2, 0) but its endpoints' hubs are (0, 2)"),
    ((0, 0, 2), (0, 2), ("Direct",) * 3 + ("k0->k0",) + ("Direct",) * 2,
     "pair (1, 2) flies hubs (0, 0) but its endpoints' hubs are (0, 2)"),
    ((0, 0, 2), (0, 1, 2), ("Direct",) * 6,
     "hubs: [0, 1, 2] but the nodes assigned to themselves are [0, 2]"),
    ((0, 0, 2), (0,), ("Direct",) * 6,
     "hubs: [0] but the nodes assigned to themselves are [0, 2]"),
])
def test_solution_from_row_refuses_what_its_assignment_contradicts(tiny, assignment, hubs,
                                                                   routes, message):
    # the model stores neither the hub set nor the routes, so the parser checks them
    with pytest.raises(ValueError) as info:
        solution_from_row(tiny, _row(assignment, hubs, routes))
    assert str(info.value) == message


def test_solution_from_row_rebuilds_the_bits_of_legal_tokens(tiny):
    routes = ("Direct",) * 3 + ("k0->k2",) + ("Direct", "k2->k0")
    sol = solution_from_row(tiny, _row((0, 0, 2), (0, 2), routes))
    assert sol.design == NetworkDesign((0, 0, 2))
    assert sol.plan == direct_plan(3, (1, 2), (2, 1))


@pytest.mark.parametrize("field, value, message", [
    ("z1", "x", "front CSV line 2, field z1: expected a number, got 'x'"),
    ("alpha_prime", "", "front CSV line 2, field alpha_prime: expected a number, got ''"),
    ("hubs", "3.5", "front CSV line 2, field hubs: expected a node id, got '3.5'"),
    ("assignment", "0 x", "front CSV line 2, field assignment: expected a node id, got 'x'"),
])
def test_front_csv_names_the_line_and_field_of_a_value_it_cannot_parse(tmp_path, field, value,
                                                                      message):
    good = {"z1": "1.0", "z2": "2.0", "z3": "3.0", "alpha_prime": "0.5", "hubs": "0",
            "assignment": "0 0", "routes": "Direct Direct"}
    path = tmp_path / "front.csv"
    path.write_text(",".join(good) + "\n" + ",".join({**good, field: value}.values()) + "\n")
    with pytest.raises(ValueError) as info:
        read_front_csv(path)
    assert str(info.value) == message


def test_write_csv_float_repr(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b"), [[0.1, "x"], [2, 1.25]])
    assert path.read_text() == "a,b\n0.1,x\n2,1.25\n"


def test_write_csv_writes_numpy_numbers_plainly(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("a", "b", "c"), [[np.float64(1.5), np.int64(3), np.float32(0.25)]])
    assert path.read_text() == "a,b,c\n1.5,3,0.25\n"


def test_write_metrics_csv(tmp_path):
    from hubnet.analysis import FrontMetrics
    path = tmp_path / "m.csv"
    write_metrics_csv(FrontMetrics(npf=3, msi=1.5, sm=0.25, cpt=0.125), path)
    assert path.read_text() == "npf,msi,sm,cpt\n3,1.5,0.25,0.125\n"
