"""Property tests of the exact valuation and the instance schema on small
generated instances: one or two servers, deadlines, fragments added in a
random order; and of the command line on generated and mutated instance
files. Skipped when hypothesis is not installed."""

from __future__ import annotations

import contextlib
import io
import json
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from aqisim import model  # noqa: E402
from aqisim.cli import main  # noqa: E402
from aqisim.harness import GENERATOR_MODES, generate  # noqa: E402
from aqisim.model import (  # noqa: E402
    COST_KINDS,
    DISCARD,
    Allocation,
    AqiError,
    Bin,
    CostFamily,
    Instance,
    Packet,
    SubpacketRef,
    admission_charges,
    instance_to_json,
    linear,
    load_instance,
    rational_to_json,
    shown,
    store_instance,
    tabulated,
    validate_instance,
)
from aqisim.oracle import offline_optimal  # noqa: E402
from aqisim.valuation import evaluate, marginal_gains, tables  # noqa: E402
from conftest import first_maximizer_in_key_order  # noqa: E402


@st.composite
def instances(draw):
    return generate(draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(0, 4)),
                    draw(st.integers(0, 10_000)), mode=draw(st.sampled_from(GENERATOR_MODES)),
                    servers=draw(st.integers(1, 2)), deadline_prob=draw(st.sampled_from([0.0, 0.5, 1.0])))


positive = st.fractions(min_value=Fraction(1, 9), max_value=9, max_denominator=9)


@st.composite
def families(draw, min_table: int = 1):
    """Any cost family with rational parameters, including bases below 1;
    a table has at least `min_table` entries."""
    kind = draw(st.sampled_from(["linear", "power", "exponential", "saturating", "tabulated"]))
    if kind == "tabulated":
        return CostFamily(kind, table=tuple(draw(st.lists(st.fractions(max_denominator=9), min_size=min_table,
                                                              max_size=max(8, min_table + 2)))))
    if kind == "linear":
        return CostFamily(kind, params=(draw(st.fractions(max_denominator=9)),))
    second = Fraction(draw(st.integers(1, 4))) if kind == "power" else draw(positive)
    return CostFamily(kind, params=(draw(st.fractions(max_denominator=9)), second))


@settings(max_examples=300, deadline=None)
@given(families(), st.integers(0, 12))
def test_a_cost_row_is_the_curve_as_integer_pairs(fam, n):
    if fam.kind == "tabulated" and n > len(fam.table):
        with pytest.raises(AqiError) as row_error:
            fam.row(n)
        with pytest.raises(AqiError) as value_error:
            fam.value(len(fam.table))
        assert str(row_error.value) == str(value_error.value)
        return
    assert [Fraction(num, den) for num, den in fam.row(n)] == [fam.value(x) for x in range(n)]


def reference_value(fam: CostFamily, x: int) -> Fraction:
    """The curve at x by its definition, in `Fraction` arithmetic."""
    if fam.kind == "linear":
        return fam.params[0] * x
    if fam.kind == "power":
        return fam.params[0] * Fraction(x) ** int(fam.params[1])
    if fam.kind == "tabulated":
        return fam.table[x]
    scale, base = fam.params
    if fam.kind == "exponential":
        return scale * (base**x - 1)
    return scale * (1 - Fraction(1, 1) / base**x)


@settings(max_examples=300, deadline=None)
@given(families(), st.integers(0, 12))
def test_a_point_in_closed_form_is_the_curve_and_its_row_entry(fam, n):
    # each kind at x = 0..n-1, a table up to and past its end
    if fam.kind == "tabulated":
        n = min(n, len(fam.table))
    row = fam.row(n)
    for x in range(n):
        num, den = fam.pair(x)
        assert den > 0
        assert Fraction(num, den) == reference_value(fam, x) == Fraction(*row[x]) == fam.value(x)
    if fam.kind == "tabulated":
        end = len(fam.table)
        assert Fraction(*fam.pair(end - 1)) == fam.table[-1]
        for read in (fam.pair, fam.value):
            with pytest.raises(AqiError) as past:
                read(end)
            assert str(past.value) == f"tabulated cost family has no value at {end} (table length {end})"
    for read in (fam.pair, fam.value):
        with pytest.raises(AqiError) as negative:
            read(-1 - n)
        assert str(negative.value) == f"cost family evaluated at negative argument {-1 - n}"


@st.composite
def buildups(draw):
    """An instance and an insertion order of all its fragments, each with a
    bin that is discard or lies between its packet's arrival and the horizon."""
    inst = draw(instances())
    refs = [SubpacketRef(p.id, j) for p in inst.packets for j in range(1, p.subpackets + 1)]
    steps = []
    for r in draw(st.permutations(refs)):
        arrival = inst.packet(r.packet).arrival
        pool = [Bin(t, s) for t in range(arrival, inst.horizon + 1) for s in range(inst.servers)]
        steps.append((r, draw(st.sampled_from(pool + [DISCARD]))))
    return inst, steps


@settings(max_examples=150, deadline=None)
@given(buildups())
def test_marginal_values_telescope_to_the_total(case):
    inst, steps = case
    alloc = Allocation()
    total = Fraction(0)
    for r, b in steps:
        total += Fraction(marginal_gains(inst, alloc, r, [b])[0], tables(inst).scale)
        alloc.add(r, b)
    assert total == evaluate(inst, alloc).total


@settings(max_examples=150, deadline=None)
@given(buildups(), st.data())
def test_integer_gains_are_the_marginals_times_the_scale(case, data):
    inst, steps = case
    alloc = Allocation(steps[:-1])
    target = steps[-1][0]
    arrival = inst.packet(target.packet).arrival
    pool = [Bin(t, s) for t in range(inst.horizon + 1) for s in range(inst.servers)] + [DISCARD]
    bins = data.draw(st.lists(st.sampled_from(pool), max_size=12))
    gains = marginal_gains(inst, alloc, target, bins)
    values = [Fraction(g, tables(inst).scale) for g in gains]
    assert all(isinstance(g, int) for g in gains)
    assert all(g == 0 for g, b in zip(gains, bins) if b.is_discard)
    base = evaluate(inst, alloc).total
    for b, v in zip(bins, values):
        if b.is_discard or b.slot >= arrival:  # evaluate rejects a slot before the arrival
            assert v == evaluate(inst, alloc.extended(target, b)).total - base


@st.composite
def family_instances(draw):
    """Up to three packets on up to two servers whose every curve is any
    rational family, with fractional weights and deadlines: curves the
    generator never makes. Tables cover the reachable domain (count <= 3,
    lag <= 3, occupancy <= 9)."""
    horizon, servers = draw(st.integers(0, 3)), draw(st.integers(1, 2))
    packets = []
    for i in range(draw(st.integers(0, 3))):
        arrival = draw(st.integers(0, horizon))
        packets.append(Packet(f"p{i}", arrival, draw(st.integers(1, 3)), draw(positive),
                              draw(families(10)), draw(families(10)),
                              draw(st.none() | st.integers(arrival, horizon))))
    return Instance(tuple(packets), horizon, servers, tuple(draw(families(10)) for _ in range(servers)))


@st.composite
def allocations(draw):
    """An instance and a random partial allocation of its fragments: any
    subset, each in the discard bin or any bin from its arrival on, so
    packets finish past their deadlines too."""
    inst = draw(instances() | family_instances())
    entries = []
    for p in inst.packets:
        pool = [Bin(t, s) for t in range(p.arrival, inst.horizon + 1) for s in range(inst.servers)]
        for j in range(1, p.subpackets + 1):
            if draw(st.booleans()):
                entries.append((SubpacketRef(p.id, j), draw(st.sampled_from(pool + [DISCARD]))))
    return inst, Allocation(entries)


def fraction_valuation(inst: Instance, alloc: Allocation) -> tuple[Fraction, dict]:
    """The value and `Valuation.to_json` document of `alloc`, summed in
    `Fraction`s from `Packet.utility`, `Packet.lag_cost` and
    `CostFamily.value`."""
    per_packet, counts = {}, Counter()
    for p in inst.packets:
        bins = [b for r, b in alloc.entries.items() if r.packet == p.id and not b.is_discard]
        if not bins:
            continue
        last = max([p.arrival] + [b.slot for b in bins])
        if p.deadline is not None and last > p.deadline:
            per_packet[p.id] = (Fraction(0), Fraction(0))
        else:
            per_packet[p.id] = (p.utility(len(bins)), p.lag_cost(last - p.arrival))
        counts.update((b.slot, b.server) for b in bins)
    per_slot = {(t, s): inst.energy[s].value(c) for (t, s), c in counts.items()}
    total = sum((u - d for u, d in per_packet.values()), Fraction(0)) - sum(per_slot.values(), Fraction(0))
    r = rational_to_json
    return total, {
        "total": r(total),
        "per_packet": {pid: [r(u), r(d)] for pid, (u, d) in sorted(per_packet.items())},
        "per_slot": {f"t{t}s{s}": r(e) for (t, s), e in sorted(per_slot.items())},
    }


@settings(max_examples=200, deadline=None)
@given(allocations())
def test_evaluate_is_the_fraction_sum_of_the_curves(case):
    inst, alloc = case
    for allocation in (alloc, Allocation()):
        total, doc = fraction_valuation(inst, allocation)
        val = evaluate(inst, allocation)
        assert val.total == total
        assert json.dumps(val.to_json()) == json.dumps(doc)


@settings(max_examples=150, deadline=None)
@given(instances())
def test_stored_instances_load_back_unchanged(inst):
    text = store_instance(inst)
    assert load_instance(text) == inst
    assert store_instance(load_instance(text)) == text


def _convex_non_decreasing_from_zero(values) -> bool:
    """Brute force on the values, not their increments: 0 at 0, no value
    below an earlier one and none above the chord of any two around it."""
    n = len(values)
    return values[0] == 0 and all(
        values[i] <= values[j] for i in range(n) for j in range(i + 1, n)) and all(
        (k - i) * values[j] <= (k - j) * values[i] + (j - i) * values[k]
        for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n))


@st.composite
def curves(draw, upto: int) -> CostFamily:
    """A table defined on 0..upto and a little past it. Sorting the drawn
    increments half the time makes admissible curves common."""
    thirds = st.integers(-6, 12).map(lambda x: Fraction(x, 3))
    steps = draw(st.lists(thirds, min_size=upto, max_size=upto + 2))
    if draw(st.booleans()):
        steps.sort()
    values = [draw(st.sampled_from([Fraction(0), Fraction(0), Fraction(1)]))]
    for step in steps:
        values.append(values[-1] + step)
    return tabulated(values)


@st.composite
def curve_instances(draw):
    """(instance, {curve name: its values on the range the model checks})
    for tabulated energy and delay curves; utilities are always admissible."""
    horizon = draw(st.integers(0, 4))
    packets = []
    for i in range(draw(st.integers(0, 3))):
        arrival, k = draw(st.integers(0, horizon)), draw(st.integers(1, 2))
        packets.append(Packet(id=f"p{i}", arrival=arrival, subpackets=k, weight=Fraction(1),
                              distortion=tabulated([0, 3, 5][:k + 1]),
                              delay_cost=draw(curves(horizon - arrival))))
    total = sum(p.subpackets for p in packets)
    energy = tuple(draw(curves(max(total, 1))) for _ in range(draw(st.integers(1, 2))))
    inst = Instance(packets=tuple(packets), horizon=horizon, servers=len(energy), energy=energy)
    checked = {f"energy[{s}]": fam.table[:max(total, 1) + 1] for s, fam in enumerate(energy)}
    checked.update({f"packet {shown(p.id)}: C": p.delay_cost.table[:horizon - p.arrival + 1] for p in packets})
    return inst, checked


@settings(max_examples=200, deadline=None)
@given(curve_instances())
def test_validator_flags_exactly_the_curves_that_are_not_convex_non_decreasing(case):
    inst, checked = case
    problems = validate_instance(inst).problems
    flagged = {name for name in checked if any(text.startswith(name + ":") for text in problems)}
    assert flagged == {name for name, values in checked.items()
                       if not _convex_non_decreasing_from_zero(values)}, problems
    assert all(any(text.startswith(name + ":") for name in checked) for text in problems), problems


# zero, negative, fractional, unit and > 1 values; bases are positive
SHAPE_VALUES = [Fraction(0), Fraction(-2), Fraction(-1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)]
BASES = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)]


@st.composite
def shaped_families(draw) -> CostFamily:
    """A family of any kind from SHAPE_VALUES and BASES; a table of up to 9
    entries sums drawn increments, made non-negative half the time and
    sorted either way or not at all, so that admissible concave and convex
    tables are both common."""
    kind = draw(st.sampled_from(COST_KINDS))
    if kind == "tabulated":
        steps = draw(st.lists(st.sampled_from(SHAPE_VALUES), max_size=8))
        if draw(st.booleans()):
            steps = [abs(step) for step in steps]
        descending = draw(st.none() | st.booleans())
        if descending is not None:
            steps.sort(reverse=descending)
        values = [draw(st.sampled_from([Fraction(0), Fraction(0), Fraction(1, 2)]))]
        for step in steps:
            values.append(values[-1] + step)
        return tabulated(values)
    if kind == "linear":
        return CostFamily(kind, params=(draw(st.sampled_from(SHAPE_VALUES)),))
    second = Fraction(draw(st.integers(1, 3))) if kind == "power" else draw(st.sampled_from(BASES))
    return CostFamily(kind, params=(draw(st.sampled_from(SHAPE_VALUES)), second))


def walked_problems(fam: CostFamily, upto: int, concave: bool) -> list[str]:
    """The reference for `model._curve_problems`: every problem of `fam` on
    0..upto, found by evaluating each point as a `Fraction` and comparing
    the `Fraction` increments."""
    try:
        values = [fam.value(x) for x in range(upto + 1)]
    except AqiError as exc:
        return [str(exc)]
    problems = [] if values[0] == 0 else [f"value at 0 is {values[0]}, expected 0"]
    deltas = [b - a for a, b in zip(values, values[1:])]
    for i, d in enumerate(deltas):
        if d < 0:
            problems.append(f"decreases at {i + 1}")
    for i in range(1, len(deltas)):
        if concave and deltas[i] > deltas[i - 1]:
            problems.append(f"increments increase at i={i + 1} ({deltas[i - 1]} then {deltas[i]})")
        if not concave and deltas[i] < deltas[i - 1]:
            problems.append(f"increments decrease at i={i + 1} (not convex)")
    return problems


@settings(max_examples=500, deadline=None)
@given(shaped_families(), st.integers(0, 6), st.booleans())
def test_a_curve_decided_by_its_shape_gets_the_problems_of_the_point_walk(fam, upto, concave):
    # a parametric curve is scanned only when its shape fails, so the shape
    # must fail exactly the curves whose walk finds a problem
    walked = walked_problems(fam, upto, concave)
    if fam.kind != "tabulated":
        assert model._curve_holds(fam, upto, concave) == (not walked)
    assert (not model._curve_problems(fam, upto, concave)) == (not walked)


@settings(max_examples=500, deadline=None)
@given(shaped_families(), st.integers(0, 11), st.booleans())
def test_the_point_scan_writes_the_problems_of_the_fraction_walk(fam, upto, concave):
    # ranges up to 11 run past the end of every drawn table (at most 9 entries)
    assert model._curve_problems(fam, upto, concave) == walked_problems(fam, upto, concave)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
FIXTURE_DOCS = [json.loads(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))]
# every command below runs under this budget: validation refuses an instance
# of more curve points, the oracle stops past this many nodes and the
# matcher refuses more left-edge steps, so no example's work can grow with
# the numbers a mutation writes
CLI_BUDGET = 400
junk = st.one_of(
    st.integers(-3, 12), st.sampled_from([-1, 10**6, 10**9, 10**30, 2**63]), st.none(), st.booleans(),
    st.text(max_size=4), st.sampled_from(["1/2", "-3/4", "0/0", "1e9", "nan"]), st.floats(),
    st.lists(st.integers(-3, 12), max_size=4),
    st.dictionaries(st.sampled_from(["kind", "params", "table"]), st.integers(-2, 5), max_size=2),
)


@st.composite
def instance_documents(draw):
    """A fixture's or a generated instance's JSON with up to three mutations,
    each replacing, deleting or duplicating one entry at any depth."""
    if draw(st.booleans()):
        doc = json.loads(json.dumps(draw(st.sampled_from(FIXTURE_DOCS))))
    else:
        doc = instance_to_json(draw(instances()))
    for _ in range(draw(st.integers(0, 3))):
        node = doc
        while isinstance(node, (dict, list)) and node:
            key = draw(st.sampled_from(sorted(node)) if isinstance(node, dict) else st.integers(0, len(node) - 1))
            child = node[key]
            if isinstance(child, (dict, list)) and child and draw(st.booleans()):
                node = child
                continue
            action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
            if action == "replace":
                node[key] = draw(junk)
            elif action == "delete":
                del node[key]
            elif isinstance(node, list):
                node.append(json.loads(json.dumps(child)))
            break
    return doc


@settings(max_examples=150, deadline=None)
@given(instance_documents(), st.sampled_from([["verify"], ["opt"], ["run", "--algorithm", "greedy"],
                                              ["run", "--algorithm", "matching"]]))
def test_the_cli_exits_0_1_or_2_with_one_error_line(tmp_path_factory, doc, command):
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(json.dumps(doc))
    values = 0
    pair = CostFamily.pair

    def counted_pair(self, x):
        nonlocal values
        values += 1
        return pair(self, x)

    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        patch.setattr(CostFamily, "pair", counted_pair)
        code = main([command[0], str(path), *command[1:], "--budget", str(CLI_BUDGET)])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
        # an instance too large to validate is refused before any curve point
        if "too large to validate" in err.getvalue():
            assert values == 0
    else:
        # only an instance of at most the budget's curve points gets past validation
        assert admission_charges(load_instance(path.read_text()))[0] <= CLI_BUDGET


# --- the oracle's occupancy bound ------------------------------------------------


@st.composite
def scans(draw):
    """The oracle's occupancy-bound data on 1-2 servers and 1-2 slots: each
    server's convex non-decreasing integer energy as `cost[server][m][c] =
    E(c + m) - E(c)`; 1-6 schedules, each a raw value and one (cost row, cell,
    m) group per cell it uses; and a cell's occupancy."""
    servers = draw(st.integers(1, 2))
    ncells = servers * draw(st.integers(1, 2))
    cost = []
    for _ in range(servers):
        # non-decreasing increments from a non-negative first one
        inc = list(accumulate(draw(st.lists(st.integers(0, 4), min_size=9, max_size=9))))
        cum = list(accumulate(inc, initial=0))
        cost.append([None] + [[b - a for a, b in zip(cum, cum[m:])] for m in range(1, 4)])
    schedules = []
    for _ in range(draw(st.integers(1, 6))):
        cells = sorted(draw(st.lists(st.integers(0, ncells - 1), min_size=1, max_size=ncells, unique=True)))
        groups = tuple((cost[cell % servers][m], cell, m) for cell in cells for m in [draw(st.integers(1, 3))])
        schedules.append((draw(st.integers(-10, 60)), groups))
    return schedules, draw(st.lists(st.integers(0, 5), min_size=ncells, max_size=ncells))


@settings(max_examples=300, deadline=None)
@given(scans())
def test_a_schedule_is_worth_at_most_its_top_and_the_scan_by_top_finds_the_best(case):
    # the argument behind `offline_optimal`'s occupancy bound, on its data: a
    # bin's energy step never shrinks as its occupancy grows, so a schedule is
    # worth no more at any occupancy than its top, its value less what its bins
    # charge when empty; so the scan by top that stops at the first top no
    # better than its running best finds the best value, clamped at 0
    schedules, counts = case
    worth = [value - sum(row[counts[cell]] for row, cell, _ in groups) for value, groups in schedules]
    tops = [value - sum(row[0] for row, _, _ in groups) for value, groups in schedules]
    assert all(w <= top for w, top in zip(worth, tops))
    ranked = sorted(((top, value, -ci, groups) for ci, (top, (value, groups)) in enumerate(zip(tops, schedules))),
                    reverse=True)
    best = 0
    for top, value, _, groups in ranked:
        if top <= best:
            break
        for row, cell, _ in groups:
            value -= row[counts[cell]]
        if value > best:
            best = value
    assert best == max(0, *worth)


@st.composite
def convex_energy_instances(draw):
    """Up to three packets of 1-2 fragments over horizon 0-1 on 1-2 servers,
    each server's energy a table of drawn non-decreasing integer increments:
    small integers make equal tops and values, so ties, common."""
    horizon, servers = draw(st.integers(0, 1)), draw(st.integers(1, 2))
    packets = []
    for i in range(draw(st.integers(1, 3))):
        k = draw(st.integers(1, 2))
        gain, more = draw(st.integers(0, 9)), draw(st.integers(0, 9))
        packets.append(Packet(id=f"p{i}", arrival=draw(st.integers(0, horizon)), subpackets=k, weight=Fraction(1),
                              distortion=tabulated([0, max(gain, more), gain + more][:k + 1]),
                              delay_cost=linear(draw(st.integers(0, 2)))))
    total = sum(p.subpackets for p in packets)
    energy = []
    for _ in range(servers):
        inc = sorted(draw(st.lists(st.integers(0, 5), min_size=total, max_size=total)))
        energy.append(tabulated(accumulate(inc, initial=0)))
    return Instance(packets=tuple(packets), horizon=horizon, servers=servers, energy=tuple(energy))


@settings(max_examples=60, deadline=None)
@given(convex_energy_instances())
def test_the_search_reports_the_first_maximizer_under_any_convex_energy(inst):
    # the bound, the candidate skip and the dive read each schedule's top; on
    # any convex non-decreasing energy the search still reports the first
    # optimal allocation in key order
    assert offline_optimal(inst).allocation == first_maximizer_in_key_order(inst)
