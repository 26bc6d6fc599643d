from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from itertools import combinations_with_replacement, product
from pathlib import Path

import pytest

from aqisim import oracle
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


def test_occupancy_bound_keeps_the_adversarial_searches_small():
    # general acceptance seeds 25, 100 and 190 took 2,271,389 nodes when every
    # fragment was bounded by the cheapest first energy increment, 454,424
    # under the occupancy bound alone, and 36,818 with each bin charged its
    # exact multi-fragment energy and the occupancy memo
    nodes = sum(offline_optimal(generate(5, 3, 5, seed, mode=GENERATOR_MODES[seed % 3])).nodes
                for seed in (25, 100, 190))
    assert nodes <= 40_000
    # each needed over a million nodes under the emin bound, and 54,317 and
    # 92,641 under the occupancy bound alone; now 7,773 and 5,380
    for seed in (1, 2):
        assert offline_optimal(generate(7, 3, 6, seed, mode="adversarial-burst")).nodes < 10_000


@pytest.mark.parametrize("size", [(8, 3, 7), (10, 3, 8)])
def test_oracle_envelope_stays_small(size):
    # the envelope the README tabulates; the worst is 8x3x7 adversarial-lock
    # seed 2 at 58,262 nodes (1,247,177 before the exact bin cost and memo)
    for mode in ("adversarial-burst", "adversarial-lock"):
        for seed in range(4):
            assert offline_optimal(generate(*size, seed, mode=mode)).nodes < 64_000, (mode, seed)


# --- occupancy memo --------------------------------------------------------------


def _first_maximizer_in_key_order(inst) -> Allocation:
    """Naive reference: every packet's in-order schedules, enumerated as
    multisets of its reachable bins and sorted by the search's key (bins by
    slot then server, padded with discards, which rank last), packets by id;
    the first best allocation in that order."""
    cells = [Bin(slot=t, server=s) for t in range(inst.horizon + 1) for s in range(inst.servers)]

    def key(schedule):
        return [(math.inf, 0) if b.is_discard else (b.slot, b.server) for b in schedule]

    options = []
    for p in sorted(inst.packets, key=lambda p: p.id):
        reach = [b for b in cells if b.slot >= p.arrival]
        schedules = [s + (DISCARD,) * (p.subpackets - m)
                     for m in range(p.subpackets + 1) for s in combinations_with_replacement(reach, m)]
        options.append([(p.id, s) for s in sorted(schedules, key=key)])
    best, best_value = None, F(0)
    for combo in product(*options):
        alloc = Allocation((SubpacketRef(pid, j), b) for pid, s in combo for j, b in enumerate(s, 1))
        value = evaluate(inst, alloc).total
        if best is None or value > best_value:
            best, best_value = alloc, value
    return best


def _identical_packets():
    # five identical unit packets, two slots, quadratic energy: any 3 + 2 split
    # is worth 25 - 9 - 4 = 12, and equal prefixes meet the same occupancy at
    # the same partial value, so the memo skips every later one
    packets = [unit_packet(pid=f"p{i}", slope=0) for i in range(5)]
    return simple_instance(packets, horizon=1, energy=[tabulated([0, 1, 4, 9, 16, 25])])


def test_memo_reports_the_first_of_equal_maximizers(monkeypatch):
    inst = _identical_packets()
    res = offline_optimal(inst)
    assert res.valuation.total == 12
    assert res.allocation == _first_maximizer_in_key_order(inst)
    assert [e["bin"] for e in res.allocation.to_json()] == ["t0s0"] * 3 + ["t1s0"] * 2
    monkeypatch.setattr(oracle, "MEMO_CAP", 0)
    unmemoized = offline_optimal(inst)
    assert unmemoized.allocation == res.allocation
    assert unmemoized.nodes > res.nodes


def test_first_maximizer_in_key_order_on_three_servers_with_deadlines():
    # multi-fragment packets on three servers; in the first instance identical
    # servers and a flat lag tie each schedule with its server permutations
    def packet(pid, arrival, k, deadline):
        return Packet(id=pid, arrival=arrival, subpackets=k, weight=F(1), distortion=linear(6),
                      delay_cost=linear(0), deadline=deadline)
    tied = simple_instance([packet("p0", 0, 2, 1), packet("p1", 1, 2, None), packet("p2", 0, 1, 0)],
                           horizon=1, energy=[tabulated([0, 1, 4, 9, 16, 25])] * 3, servers=3)
    cases = [tied] + [generate(n, 2, 1, seed, mode=GENERATOR_MODES[seed % 3], servers=3, deadline_prob=0.5)
                      for n, seed in [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 0), (3, 1)]]
    for inst in cases:
        assert offline_optimal(inst).allocation == _first_maximizer_in_key_order(inst)


def test_a_full_memo_changes_no_allocation(monkeypatch):
    cases = [_identical_packets()] + [generate(5, 3, 5, seed, mode=GENERATOR_MODES[seed % 3])
                                      for seed in (25, 100, 190)]
    full = [offline_optimal(inst) for inst in cases]
    monkeypatch.setattr(oracle, "MEMO_CAP", 8)
    capped = [offline_optimal(inst) for inst in cases]
    assert [_digest(r) for r in capped] == [_digest(r) for r in full]
    # the capped table stops growing, so the memo skips fewer nodes
    assert sum(r.nodes for r in capped) > sum(r.nodes for r in full)


# --- independent cross-check by integer programming ------------------------------


def milp_optimal(inst) -> Allocation:
    """An optimal allocation from a `scipy.optimize.milp` model that shares no
    code with the search: one binary per in-order schedule of each packet
    (enumerated here, valued by `evaluate`), and per bin one continuous level
    y[b, c] in [0, 1] per possible fragment, charged the energy increment
    E(c + 1) - E(c). Increments are non-decreasing, so filling the levels
    cheapest first prices a bin at exactly its energy."""
    np = pytest.importorskip("numpy")
    opt = pytest.importorskip("scipy.optimize")
    bins = [Bin(slot=t, server=s) for t in range(inst.horizon + 1) for s in range(inst.servers)]
    row = {b: len(inst.packets) + j for j, b in enumerate(bins)}
    schedules, owners, values = [], [], []
    for i, p in enumerate(inst.packets):
        reach = [b for b in bins if b.slot >= p.arrival]
        for m in range(p.subpackets + 1):
            for schedule in combinations_with_replacement(reach, m):
                alloc = Allocation((SubpacketRef(p.id, j), b) for j, b in enumerate(schedule, 1))
                utility, delay = evaluate(inst, alloc).per_packet.get(p.id, (0, 0))
                schedules.append(schedule)
                owners.append(i)
                values.append(utility - delay)
    levels = []
    for b in bins:
        reaching = sum(p.subpackets for p in inst.packets if p.arrival <= b.slot)
        energy = inst.energy[b.server]
        levels += [(b, energy.value(c + 1) - energy.value(c)) for c in range(reaching)]
    nx = len(schedules)
    a = np.zeros((len(inst.packets) + len(bins), nx + len(levels)))
    for x, (schedule, i) in enumerate(zip(schedules, owners)):
        a[i, x] = 1  # one schedule per packet
        for b in schedule:
            a[row[b], x] += 1
    for y, (b, _) in enumerate(levels):
        a[row[b], nx + y] = -1  # a bin's levels sum to its occupancy
    rhs = np.array([1.0] * len(inst.packets) + [0.0] * len(bins))
    cost = np.array([-float(v) for v in values] + [float(inc) for _, inc in levels])
    res = opt.milp(cost, constraints=opt.LinearConstraint(a, rhs, rhs), bounds=opt.Bounds(0, 1),
                   integrality=np.array([1] * nx + [0] * len(levels)),
                   options={"mip_rel_gap": 0})
    assert res.success, res.message
    alloc = Allocation()
    for x in np.flatnonzero(res.x[:nx] > 0.5):
        p, schedule = inst.packets[owners[x]], schedules[x]
        for j in range(1, p.subpackets + 1):
            alloc.add(SubpacketRef(p.id, j), schedule[j - 1] if j <= len(schedule) else DISCARD)
    return alloc


@pytest.mark.parametrize("size", [(8, 3, 7), (10, 3, 8)])
def test_search_matches_an_integer_program(size):
    for mode in GENERATOR_MODES:
        for seed in range(3):
            inst = generate(*size, seed, mode=mode)
            # HiGHS works in floats: re-score its allocation exactly
            assert evaluate(inst, milp_optimal(inst)).total == offline_optimal(inst).valuation.total, (mode, seed)


def test_search_matches_an_integer_program_with_two_servers_and_deadlines():
    for seed in range(6):
        inst = generate(6, 3, 5, seed, mode=GENERATOR_MODES[seed % 3], servers=2, deadline_prob=0.4)
        assert evaluate(inst, milp_optimal(inst)).total == offline_optimal(inst).valuation.total, seed
