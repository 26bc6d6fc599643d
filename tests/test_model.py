from __future__ import annotations

import json
import re
import sys
import time
from dataclasses import fields, replace
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from aqisim import model
from aqisim.cli import main
from aqisim.harness import GENERATOR_MODES, generate
from aqisim.model import (
    Allocation,
    AllocationError,
    AqiError,
    Bin,
    CostFamily,
    DISCARD,
    Packet,
    ParseError,
    SubpacketRef,
    check_allocation,
    linear,
    load_instance,
    parse_rational,
    shannon_energy,
    store_instance,
    tabulated,
    validate_instance,
)
from conftest import allocation_in_index_order, simple_instance, unit_packet

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# --- cost families ---------------------------------------------------------

def test_cost_family_kinds():
    assert linear(2).value(3) == 6
    assert CostFamily("power", params=(Fraction(1), Fraction(2))).value(3) == 9
    assert shannon_energy().value(3) == 7  # 2**3 - 1
    sat = CostFamily("saturating", params=(Fraction(8), Fraction(2)))
    assert [sat.value(x) for x in range(4)] == [0, 4, 6, 7]
    assert tabulated([0, 5, 8]).increment(1) == 3


def test_cost_family_rejects_bad_shapes():
    with pytest.raises(ParseError):
        CostFamily("mystery", params=(Fraction(1),))
    with pytest.raises(ParseError):
        CostFamily("linear", params=())
    with pytest.raises(ParseError):
        CostFamily("power", params=(Fraction(1), Fraction(1, 2)))
    with pytest.raises(ParseError):
        CostFamily("tabulated")


def test_tabulated_out_of_range():
    fam = tabulated([0, 1])
    with pytest.raises(Exception, match="no value at 2"):
        fam.value(2)


def test_cost_family_rejects_a_negative_argument():
    with pytest.raises(AqiError, match="negative argument -1"):
        linear(1).value(-1)


# --- instance validation ---------------------------------------------------

def test_shannon_energy_instance_is_valid():
    inst = simple_instance([unit_packet()], energy=[shannon_energy()])
    assert validate_instance(inst).ok


def test_concave_table_is_valid():
    p = Packet(id="p0", arrival=0, subpackets=3, weight=Fraction(1),
               distortion=tabulated([0, 5, 8, 10]), delay_cost=linear(1))
    assert validate_instance(simple_instance([p], horizon=3)).ok


def test_increasing_increments_reported():
    p = Packet(id="p0", arrival=0, subpackets=2, weight=Fraction(1),
               distortion=tabulated([0, 3, 8]), delay_cost=linear(1))
    report = validate_instance(simple_instance([p], horizon=3))
    assert not report.ok
    assert any("increments increase at i=2" in msg for msg in report.problems)


def test_energy_must_start_at_zero_and_be_convex():
    report = validate_instance(simple_instance([unit_packet()], energy=[tabulated([1, 2])]))
    assert any("expected 0" in msg for msg in report.problems)
    two = [unit_packet(), unit_packet(pid="p1")]
    report = validate_instance(simple_instance(two, energy=[tabulated([0, 3, 4])]))
    assert any("not convex" in msg for msg in report.problems)


def test_arrival_beyond_horizon_reported():
    report = validate_instance(simple_instance([unit_packet(arrival=9)], horizon=2))
    assert any("beyond horizon" in msg for msg in report.problems)
    report = validate_instance(simple_instance([unit_packet(deadline=9)], horizon=3))
    assert report.problems == ["packet 'p0': deadline 9 beyond horizon 3"]


def test_validation_names_a_packet_only_for_a_curve_that_fails(monkeypatch):
    # a packet's name is rendered only into a problem: validating the
    # fixtures and generated instances of every mode renders none, and an
    # invalid curve still gets its named problem, in the same words
    instances = [load_instance(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))]
    instances += [generate(100, 3, 40, seed, mode=mode, servers=2, deadline_prob=0.3)
                  for seed, mode in enumerate(GENERATOR_MODES)]
    bad = simple_instance([Packet(id="p0", arrival=0, subpackets=2, weight=Fraction(1),
                                  distortion=tabulated([0, 3, 8]), delay_cost=tabulated([0, 2, 1]))], horizon=2)
    calls = []
    shown = model.shown

    def counted(value):
        calls.append(value)
        return shown(value)

    monkeypatch.setattr(model, "shown", counted)
    assert all(validate_instance(inst).ok for inst in instances)
    assert calls == []
    assert validate_instance(bad).problems == [
        "packet 'p0': D: increments increase at i=2 (3 then 5)",
        "packet 'p0': C: decreases at 2",
        "packet 'p0': C: increments decrease at i=2 (not convex)",
    ]
    assert calls == ["p0", "p0"]


def test_validation_names_failing_curves_without_evaluating_a_point(monkeypatch):
    # the problems of a failing table and a failing parametric curve come
    # from the one integer scan, never from `CostFamily.value`
    calls = 0
    value = CostFamily.value

    def counted(self, x):
        nonlocal calls
        calls += 1
        return value(self, x)

    monkeypatch.setattr(CostFamily, "value", counted)
    bad = simple_instance([Packet(id="p0", arrival=0, subpackets=2, weight=Fraction(1),
                                  distortion=tabulated([0, 3, 8]),
                                  delay_cost=CostFamily("saturating", params=(Fraction(1), Fraction(2))))],
                          horizon=3)
    assert validate_instance(bad).problems == [
        "packet 'p0': D: increments increase at i=2 (3 then 5)",
        "packet 'p0': C: increments decrease at i=2 (not convex)",
        "packet 'p0': C: increments decrease at i=3 (not convex)",
    ]
    assert calls == 0


def test_deadline_precedes_arrival_rejected():
    with pytest.raises(ParseError, match="deadline precedes arrival"):
        unit_packet(arrival=3, deadline=1)


# --- serialization ---------------------------------------------------------

def test_load_minimal_document():
    doc = {
        "horizon": 3,
        "energy": [{"kind": "linear", "params": [1]}],
        "packets": [{
            "id": "p0", "arrival": 0, "subpackets": 1, "weight": 1,
            "distortion": {"kind": "tabulated", "table": [0, 5]},
            "delay_cost": {"kind": "linear", "params": [1]},
        }],
    }
    inst = load_instance(json.dumps(doc))
    assert len(inst.packets) == 1
    assert inst.packets[0].utility(1) == 5


def _two_packet_document() -> dict:
    linear_one = {"kind": "linear", "params": [1]}
    return {
        "horizon": 3, "servers": 1, "energy": [dict(linear_one)],
        "packets": [{"id": pid, "arrival": 0, "subpackets": 1, "weight": 1, "deadline": None,
                     "distortion": {"kind": "tabulated", "table": [0, 5]}, "delay_cost": dict(linear_one)}
                    for pid in ("p00", "p01")],
    }


def _set(path, value):
    """A mutation of `_two_packet_document` that sets the entry at `path` to `value`."""
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc
    return mutate


# one malformed document per rule: the constructors' value rules, then the reader's shape and type rules
PARSE_ERROR_CASES = {
    "unknown-cost-kind": (_set(["energy", 0, "kind"], "cubic"), "document.energy[0]: unknown cost kind 'cubic'"),
    "empty-table": (_set(["packets", 0, "distortion", "table"], []),
                    "document.packets[0].distortion: tabulated cost family needs a non-empty table"),
    "linear-params": (_set(["energy", 0, "params"], []), "document.energy[0]: linear cost family takes params"),
    "missing-params": (_set(["energy", 0], {"kind": "linear"}), "document.energy[0]: linear cost family takes params"),
    "power-params": (_set(["packets", 1, "delay_cost"], {"kind": "power", "params": [1, "1/2"]}),
                     "document.packets[1].delay_cost: power cost family takes params"),
    "exponential-params": (_set(["energy", 0], {"kind": "exponential", "params": [1, 0]}),
                           "document.energy[0]: exponential cost family takes params [scale, base > 0]"),
    "saturating-params": (_set(["packets", 0, "distortion"], {"kind": "saturating", "params": [1]}),
                          "document.packets[0].distortion: saturating cost family takes params"),
    "weight": (_set(["packets", 1, "weight"], 0), "document.packets[1]: packet 'p01': weight must be positive"),
    "arrival": (_set(["packets", 0, "arrival"], -1), "document.packets[0]: packet 'p00': arrival must be >= 0"),
    "subpackets": (_set(["packets", 0, "subpackets"], 0),
                   "document.packets[0]: packet 'p00': subpackets must be >= 1"),
    "deadline-order": (_set(["packets", 1, "deadline"], -1), "document.packets[1]: packet 'p01': deadline precedes"),
    "horizon": (_set(["horizon"], -1), "document: horizon must be >= 0"),
    "servers": (_set(["servers"], 0), "document: servers must be >= 1"),
    "energy-count": (_set(["servers"], 2), "document: need one energy family per server (2), got 1"),
    "no-energy": (_set(["energy"], []), "document: need one energy family per server (1), got 0"),
    "duplicate-id": (_set(["packets", 1, "id"], "p00"), "document: duplicate packet id 'p00'"),
    "bool-rational": (_set(["packets", 0, "weight"], True),
                      "document.packets[0].weight: expected a rational, got a boolean"),
    "float-rational": (_set(["energy", 0, "params"], [0.5]), "document.energy[0].params[0]: floats are not exact"),
    "document-not-an-object": (lambda doc: [], "document: expected an object"),
    "packet-not-an-object": (_set(["packets", 0], 3), "document.packets[0]: expected an object"),
    "cost-family-not-an-object": (_set(["energy", 0], "linear"), "document.energy[0]: expected an object"),
    "params-not-a-list": (_set(["energy", 0, "params"], 1), "document.energy[0].params: expected a list"),
    "missing-field": (_set(["packets", 0], {"id": "p00"}), "document.packets[0]: missing field 'arrival'"),
    "non-integer-horizon": (_set(["horizon"], "3"), "document.horizon: expected an integer"),
    "bool-servers": (_set(["servers"], True), "document.servers: expected an integer"),
    "non-integer-deadline": (_set(["packets", 0, "deadline"], "1"),
                             "document.packets[0].deadline: expected an integer"),
}


@pytest.mark.parametrize("case", list(PARSE_ERROR_CASES))
def test_parse_errors_carry_location(case, tmp_path, capsys):
    # every rule is checked once, by a constructor or by the reader, and its
    # error starts with the location being read, in the library and in the CLI
    mutate, expected = PARSE_ERROR_CASES[case]
    text = json.dumps(mutate(_two_packet_document()))
    with pytest.raises(ParseError) as caught:
        load_instance(text)
    message = str(caught.value)
    assert message.startswith(expected), message
    (tmp_path / "inst.json").write_text(text)
    assert main(["opt", str(tmp_path / "inst.json")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# --- numbers past the 4,300 digits Python converts to or from text -----------

LONG = "1" * 5001


def _minimal_with(tmp_path, replacements: dict) -> str:
    """`fixtures/minimal.json` with each text key replaced by its value, written to a file."""
    text = (FIXTURES / "minimal.json").read_text()
    for old, new in replacements.items():
        assert old in text
        text = text.replace(old, new)
    (tmp_path / "inst.json").write_text(text)
    return str(tmp_path / "inst.json")


@pytest.mark.parametrize("weight", [
    '"1e5000"',  # exponent notation, checked before it is expanded
    '"1e30000000"',  # expanding it alone took 50 s
    '"1e-5000"',
    LONG,  # a JSON integer, which the JSON reader keeps as text
    f'"{LONG}"',
    f'"1/{LONG}"',
], ids=["exponent", "huge-exponent", "negative-exponent", "json-integer", "integer-string", "denominator"])
@pytest.mark.parametrize("command", [["opt"], ["run", "--algorithm", "greedy"],
                                     ["run", "--algorithm", "matching"], ["verify"]],
                         ids=["opt", "run-greedy", "run-matching", "verify"])
def test_a_number_past_the_digit_limit_is_refused_where_it_is_read(weight, command, tmp_path, capsys):
    path = _minimal_with(tmp_path, {'"weight": 1': f'"weight": {weight}'})
    started = time.perf_counter()
    assert main([*command, path]) == 2
    assert time.perf_counter() - started < 1
    assert capsys.readouterr().err == "error: document.packets[0].weight: a number of more than 4300 digits\n"


def test_an_integer_field_past_the_digit_limit_is_refused_where_it_is_read(tmp_path, capsys):
    path = _minimal_with(tmp_path, {'"horizon": 3': f'"horizon": {LONG}'})
    assert main(["opt", path]) == 2
    assert capsys.readouterr().err == "error: document.horizon: a number of more than 4300 digits\n"


def test_the_digit_limit_counts_the_number_a_literal_writes():
    assert parse_rational("1e4299") == 10**4299  # 4,300 digits
    assert parse_rational("9" * 4300 + "/" + "7" * 4300) == Fraction(int("9" * 4300), int("7" * 4300))
    assert parse_rational("1.5e-4298") == Fraction(15, 10**4299)
    for text in ("1e4300", "1E-4300", "1.5e4299", "9" * 4301, "1/" + "7" * 4301, "1e" + "0" * 9000 + "99999"):
        with pytest.raises(ParseError, match="^x: a number of more than 4300 digits$"):
            parse_rational(text, "x")
    assert load_instance((FIXTURES / "minimal.json").read_text().replace(
        '"weight": 1', '"weight": ' + "1" * 4300)).packets[0].weight == int("1" * 4300)


def test_adapter_values_past_the_digit_limit_are_refused(capsys):
    assert main(["adapt-aoi", "--events", '{"a":[1]}', "--values", '{"a":"1e5000"}', "--horizon", "3"]) == 2
    assert capsys.readouterr().err == """error: bad --values '{"a":"1e5000"}': 'a': a number of more than 4300 digits\n"""
    assert main(["adapt-aoi", "--events", '{"a":[%s]}' % LONG, "--values", '{"a":1}', "--horizon", "3"]) == 2
    assert capsys.readouterr().err.endswith("expected an object of integer lists\n")
    assert main(["adapt-speedscale", "--jobs", "[[1,0]]", "--horizon", "2", "--powers", LONG]) == 2
    assert capsys.readouterr().err.endswith(": a number of more than 4300 digits\n")


@pytest.mark.parametrize("command", [["opt"], ["run", "--algorithm", "greedy"]], ids=["opt", "run-greedy"])
def test_an_output_past_the_digit_limit_is_written_exactly(command, tmp_path, capsys):
    # weight 10**4000 times a distortion slope of 10**4000, less the energy of one
    # slot: an optimum of 8,000 nines, each factor inside the limit
    path = _minimal_with(tmp_path, {'"weight": 1': '"weight": "1e4000"',
                                    '"kind": "tabulated",\n        "table": [\n          0,\n          5\n        ]':
                                    '"kind": "linear", "params": ["1e4000"]'})
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    assert main([*command, path]) == 0
    out = capsys.readouterr().out
    assert re.search(r'": 9{8000}[,\n]', out) and "9" * 8001 not in out
    assert (sys.get_int_max_str_digits() if limit is not None else None) == limit


def test_fixture_corpus_round_trips():
    docs = sorted(FIXTURES.glob("*.json"))
    assert docs, "fixture corpus missing"
    for path in docs:
        text = path.read_text()
        inst = load_instance(text)
        assert store_instance(inst) == text
        assert validate_instance(inst).ok


def test_worked_binary_fixture_has_three_packets():
    inst = load_instance((FIXTURES / "worked_binary.json").read_text())
    assert len(inst.packets) == 3
    assert inst.is_binary()


def test_generated_instances_round_trip():
    for seed in range(25):
        inst = generate(4, 3, 5, seed, deadline_prob=0.3)
        doc = store_instance(inst)
        assert store_instance(load_instance(doc)) == doc


def test_store_accepts_empty_packet_list():
    inst = simple_instance([], horizon=2)
    again = load_instance(store_instance(inst))
    assert again.packets == ()


def test_canonical_store_is_sorted_and_explicit():
    doc = json.loads(store_instance(simple_instance([unit_packet()])))
    assert list(doc) == sorted(doc)
    assert doc["packets"][0]["deadline"] is None  # explicit default


# --- allocations -----------------------------------------------------------

def test_allocation_rejects_double_assignment():
    alloc = Allocation()
    alloc.add(SubpacketRef("p0", 1), DISCARD)
    with pytest.raises(AllocationError):
        alloc.add(SubpacketRef("p0", 1), Bin(slot=0))


def _brute_packet_entries(alloc: Allocation, pid: str):
    return [(r, b) for r, b in alloc.entries.items() if r.packet == pid]


def _brute_occupancy(alloc: Allocation, slot: int, server: int) -> int:
    return sum(1 for b in alloc.entries.values()
               if not b.is_discard and (b.slot, b.server) == (slot, server))


def _assert_indexes_match_entries(alloc: Allocation) -> None:
    for pid in ("p0", "p1", "p2", "absent"):
        assert alloc.packet_entries(pid) == _brute_packet_entries(alloc, pid)
    for slot in range(4):
        for server in range(2):
            assert alloc.occupancies.get((slot, server), 0) == _brute_occupancy(alloc, slot, server)


def test_allocation_indexes_follow_every_edit():
    rng = Random(3)
    refs = [SubpacketRef(f"p{i}", j) for i in range(3) for j in range(1, 4)]
    bins = [Bin(slot=t, server=s) for t in range(4) for s in range(2)] + [DISCARD]
    for _ in range(40):
        alloc = Allocation()
        for _ in range(30):
            op = rng.random()
            free = [r for r in refs if r not in alloc]
            if op < 0.5 and free:
                alloc.add(rng.choice(free), rng.choice(bins))
            elif op < 0.75 and len(alloc):
                r = rng.choice(list(alloc.entries))
                held = alloc.entries[r]
                assert alloc.remove(r) == held and r not in alloc
            elif op < 0.85 and free:
                alloc = alloc.extended(rng.choice(free), rng.choice(bins))
            else:
                alloc = alloc.copy()
            _assert_indexes_match_entries(alloc)


def test_allocation_remove_and_read_only_entries():
    alloc = Allocation([(SubpacketRef("p0", 1), Bin(slot=1))])
    with pytest.raises(AllocationError, match="not allocated"):
        alloc.remove(SubpacketRef("p0", 2))
    with pytest.raises(TypeError):
        alloc.entries[SubpacketRef("p0", 2)] = DISCARD  # only add/remove may edit
    with pytest.raises(TypeError):
        alloc.occupancies[(1, 0)] = 0
    alloc.remove(SubpacketRef("p0", 1))
    assert len(alloc) == 0 and alloc.occupancies.get((1, 0), 0) == 0 and alloc.packet_entries("p0") == []


def test_instance_packet_lookup(single_packet_instance):
    assert single_packet_instance.packet("p0") is single_packet_instance.packets[0]
    with pytest.raises(AllocationError, match="unknown packet"):
        single_packet_instance.packet("zz")


def test_instance_facts_follow_its_packets_and_are_not_fields():
    packets = [unit_packet("b", arrival=1), unit_packet("a", arrival=1), unit_packet("c", arrival=0),
               replace(unit_packet("d", arrival=4), subpackets=3)]  # d arrives past the horizon
    inst = simple_instance(packets, horizon=2)
    assert inst.index == {"b": 0, "a": 1, "c": 2, "d": 3}
    assert [p.id for p in inst.by_arrival] == ["c", "a", "b", "d"]
    assert (inst.total_subpackets, inst.levels, inst.spans) == (6, 7, (2, 2, 3, 1))
    assert simple_instance([], horizon=2).levels == 2  # occupancies 0 and 1, even with no fragment
    assert [f.name for f in fields(inst)] == ["packets", "horizon", "servers", "energy", "label"]
    assert inst == simple_instance(packets, horizon=2) == load_instance(store_instance(inst))


def test_check_allocation_enforces_causality(single_packet_instance):
    alloc = Allocation([(SubpacketRef("p0", 1), Bin(slot=0))])
    check_allocation(single_packet_instance, alloc)
    late = simple_instance([unit_packet(arrival=2)], horizon=2)
    with pytest.raises(AllocationError, match="before arrival"):
        check_allocation(late, alloc)
    with pytest.raises(AllocationError, match="unknown packet"):
        check_allocation(single_packet_instance,
                         Allocation([(SubpacketRef("zz", 1), Bin(slot=0))]))
    with pytest.raises(AllocationError, match="outside horizon"):
        check_allocation(single_packet_instance,
                         Allocation([(SubpacketRef("p0", 1), Bin(slot=9))]))


def test_index_order_helper():
    ordered = Allocation([
        (SubpacketRef("p0", 1), Bin(slot=0)),
        (SubpacketRef("p0", 2), Bin(slot=2)),
        (SubpacketRef("p0", 3), DISCARD),
    ])
    assert allocation_in_index_order(ordered)
    swapped = Allocation([
        (SubpacketRef("p0", 1), Bin(slot=2)),
        (SubpacketRef("p0", 2), Bin(slot=0)),
    ])
    assert not allocation_in_index_order(swapped)

