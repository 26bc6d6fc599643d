from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from aqisim.greedy import run_online_greedy
from aqisim.harness import generate
from aqisim.matching import expand_binary, run_online_matching
from aqisim.model import (
    Allocation,
    AqiError,
    Bin,
    DISCARD,
    Packet,
    SubpacketRef,
    linear,
    load_instance,
    tabulated,
)
from aqisim.oracle import (
    BudgetError,
    competitive_ratio,
    offline_optimal,
    offline_optimal_binary,
)
from aqisim.valuation import evaluate
from conftest import allocation_in_index_order, simple_instance, unit_packet

F = Fraction
ROOT = Path(__file__).resolve().parent.parent
GENERATOR_MODES = ("random", "adversarial-burst", "adversarial-lock")


def test_single_packet_optimum(single_packet_instance):
    res = offline_optimal(single_packet_instance)
    assert res.valuation.total == 4
    assert res.allocation.to_json() == [{"packet": "p0", "index": 1, "bin": "t0s0"}]


def test_empty_instance_optimum():
    res = offline_optimal(simple_instance([], horizon=3))
    assert res.valuation.total == 0 and len(res.allocation) == 0


def test_zero_optimum_reports_the_first_zero_valued_schedule():
    # sending p0 at slot 0 earns exactly its energy, a tie with discarding it;
    # the all-discard floor is strict, so the earlier schedule is reported
    inst = simple_instance([unit_packet(value=5)], horizon=1, energy=[linear(5)])
    res = offline_optimal(inst)
    assert res.valuation.total == 0
    assert res.allocation.to_json() == [{"packet": "p0", "index": 1, "bin": "t0s0"}]


def test_budget_error_is_explicit():
    inst = generate(5, 3, 5, seed=0)
    with pytest.raises(BudgetError, match="too large for exact oracle"):
        offline_optimal(inst, budget=10)


def naive_optimal_value(inst) -> Fraction:
    """Independent oracle: enumerate per-fragment bins directly (tiny only)."""
    refs = [SubpacketRef(p.id, j) for p in inst.packets for j in range(1, p.subpackets + 1)]
    bins = [Bin(slot=t, server=s) for t in range(inst.horizon + 1) for s in range(inst.servers)]
    best = F(0)
    choices = []
    for ref in refs:
        p = inst.packet(ref.packet)
        choices.append([b for b in bins if b.slot >= p.arrival] + [DISCARD])
    for combo in product(*choices):
        # in-order constraint: indices of one packet use non-decreasing slots
        alloc = Allocation(zip(refs, combo))
        if not allocation_in_index_order(alloc):
            continue
        total = evaluate(inst, alloc).total
        if total > best:
            best = total
    return best


def test_search_matches_naive_enumeration_on_tiny_instances():
    for seed in range(10):
        inst = generate(2, 2, 2, seed)
        assert offline_optimal(inst).valuation.total == naive_optimal_value(inst)


def test_search_matches_naive_enumeration_multiserver():
    sq = tabulated([0, 1, 4, 9, 16])
    p0 = Packet(id="p0", arrival=0, subpackets=2, weight=F(1),
                distortion=linear(6), delay_cost=linear(1))
    p1 = Packet(id="p1", arrival=1, subpackets=1, weight=F(1),
                distortion=tabulated([0, 7]), delay_cost=linear(2))
    inst = simple_instance([p0, p1], horizon=2, energy=[sq, sq], servers=2)
    assert offline_optimal(inst).valuation.total == naive_optimal_value(inst)


def test_search_matches_naive_enumeration_with_two_servers_and_deadlines():
    # the occupancy bound reads per-server increments and deadline-zeroed values
    for seed in range(20):
        inst = generate(2, 2, 2, seed, mode=GENERATOR_MODES[seed % 3], servers=2, deadline_prob=0.5)
        assert offline_optimal(inst).valuation.total == naive_optimal_value(inst), seed


def test_optimum_dominates_both_online_algorithms():
    for seed in range(30):
        inst = generate(5, 1, 4, seed, mode=("random", "adversarial-burst")[seed % 2])
        opt = offline_optimal(inst).valuation.total
        assert opt >= run_online_greedy(inst).valuation.total
        assert opt >= run_online_matching(expand_binary(inst)).weight


def test_cross_oracle_equality_on_binary_instances():
    for seed in range(40):
        inst = generate(5, 1, 4, seed, mode=("random", "adversarial-lock", "adversarial-burst")[seed % 3])
        assert offline_optimal_binary(inst).weight == offline_optimal(inst).valuation.total


def test_cross_oracle_equality_on_larger_binary_instances():
    for seed in range(30):
        inst = generate(8, 1, 6, seed, mode=GENERATOR_MODES[seed % 3])
        assert offline_optimal_binary(inst).weight == offline_optimal(inst).valuation.total, seed


def test_search_rejects_an_energy_curve_that_is_not_convex():
    # increments 4 then 2: the best schedule sends both packets in slot 1 for
    # 10 - 6 = 4, but a matching that trusted the curve could pay the second
    # increment without the first, p0 at (0, 2) and p1 at (1, 2), for 3 + 3
    concave = tabulated([0, 4, 6, 7])
    inst = simple_instance([unit_packet(pid="p0", slope=0), unit_packet(pid="p1", arrival=1, slope=0)],
                           horizon=1, energy=[concave])
    solvers = (offline_optimal, offline_optimal_binary, lambda i: run_online_matching(expand_binary(i)))
    for solve in solvers:
        with pytest.raises(AqiError, match=r"energy\[0\] is not convex non-decreasing"):
            solve(inst)


def test_optimum_is_deterministic_under_ties():
    # identical packets and flat lag cost leave many optima; the reported
    # allocation must be reproducible and in canonical index order
    inst = simple_instance(
        [unit_packet(pid="p0", slope=0), unit_packet(pid="p1", slope=0)],
        horizon=1,
    )
    first = offline_optimal(inst)
    second = offline_optimal(inst)
    assert first.allocation == second.allocation
    assert allocation_in_index_order(first.allocation)


def test_oracle_respects_in_order_delivery():
    for seed in range(15):
        inst = generate(4, 3, 4, seed)
        res = offline_optimal(inst)
        assert allocation_in_index_order(res.allocation)
        for ref, b in res.allocation.entries.items():
            if not b.is_discard:
                assert b.slot >= inst.packet(ref.packet).arrival


def test_ratio_report_cases():
    ok = competitive_ratio(F(4), F(4))
    assert ok.ratio == 1 and not ok.violation
    probe = competitive_ratio(F(100), F(199))
    assert probe.ratio == F(100, 199) and not probe.violation
    undefined = competitive_ratio(F(0), F(0))
    assert undefined.kind == "undefined" and undefined.ratio is None and not undefined.violation
    degenerate = competitive_ratio(F(0), F(-1))
    assert degenerate.kind == "degenerate" and degenerate.violation
    below = competitive_ratio(F(1), F(3))
    assert below.violation


# --- recorded optima -------------------------------------------------------------


def _recorded_cases():
    """The instances behind tests/golden/oracle_allocations.json: general
    acceptance seeds 0:200 and held-out seeds 200:400 (5 packets, k<=3, h=5),
    two-server instances with deadlines and the fixtures."""
    for seed in range(400):
        yield f"general/{seed}", generate(5, 3, 5, seed, mode=GENERATOR_MODES[seed % 3])
    for seed in range(60):
        yield f"deadlines/{seed}", generate(4, 2, 4, seed, mode=GENERATOR_MODES[seed % 3],
                                            servers=2, deadline_prob=0.4)
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        yield f"fixtures/{path.name}", load_instance(path.read_text())


def _digest(res) -> str:
    doc = json.dumps([res.allocation.to_json(), res.valuation.to_json()], sort_keys=True)
    return hashlib.sha256(doc.encode()).hexdigest()


def test_optima_match_recorded_hashes():
    # recorded while the search bounded each fragment by the cheapest first
    # energy increment alone; a tighter bound must not change a byte
    recorded = json.loads((ROOT / "tests" / "golden" / "oracle_allocations.json").read_text())
    seen = []
    for name, inst in _recorded_cases():
        assert _digest(offline_optimal(inst)) == recorded[name], name
        seen.append(name)
    assert sorted(seen) == sorted(recorded)


# Summed search nodes of general acceptance seeds 25, 100 and 190 while every
# fragment still to be placed was bounded by the cheapest first energy increment.
EMIN_BOUND_NODES = 2_271_389


def test_occupancy_bound_keeps_the_adversarial_searches_small():
    nodes = sum(offline_optimal(generate(5, 3, 5, seed, mode=GENERATOR_MODES[seed % 3])).nodes
                for seed in (25, 100, 190))
    assert nodes <= EMIN_BOUND_NODES // 4
    # each needed over a million nodes under the emin bound
    for seed in (1, 2):
        assert offline_optimal(generate(7, 3, 6, seed, mode="adversarial-burst")).nodes < 200_000
