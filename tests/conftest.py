from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest

from aqisim import harness, oracle, valuation
from aqisim.model import DISCARD, Allocation, Bin, CostFamily, Instance, Packet, SubpacketRef, linear, tabulated
from aqisim.valuation import evaluate


def unit_packet(pid="p0", arrival=0, value=5, slope=1, weight=1, deadline=None) -> Packet:
    """One-fragment packet with tabulated utility [0, value] and linear lag."""
    return Packet(
        id=pid, arrival=arrival, subpackets=1, weight=Fraction(weight),
        distortion=tabulated([0, value]), delay_cost=linear(slope), deadline=deadline,
    )


def allocation_in_index_order(alloc: Allocation) -> bool:
    """True when, per packet, lower fragment indices occupy no later slots."""
    per_packet: dict[str, list[tuple[int, int]]] = {}
    for ref, b in alloc.entries.items():
        per_packet.setdefault(ref.packet, []).append((ref.index, b.lock_time))
    for rows in per_packet.values():
        rows.sort()
        slots = [s for _, s in rows]
        if any(a > b for a, b in zip(slots, slots[1:])):
            return False
    return True


def first_maximizer_in_key_order(inst) -> Allocation:
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
    best, best_value = None, Fraction(0)
    for combo in product(*options):
        alloc = Allocation((SubpacketRef(pid, j), b) for pid, s in combo for j, b in enumerate(s, 1))
        value = evaluate(inst, alloc).total
        if best is None or value > best_value:
            best, best_value = alloc, value
    return best


def simple_instance(packets, horizon=2, energy=None, servers=1) -> Instance:
    return Instance(
        packets=tuple(packets), horizon=horizon, servers=servers,
        energy=tuple(energy) if energy else (linear(1),) * servers,
    )


@pytest.fixture
def single_packet_instance() -> Instance:
    # utility 5, lag slope 1, energy slope 1, slots 0..2
    return simple_instance([unit_packet()], horizon=2)


@pytest.fixture
def convex_energy() -> CostFamily:
    return tabulated([0, 1, 3, 6, 10, 15, 21])


@pytest.fixture
def oracle_calls(monkeypatch) -> list[Instance]:
    """Counts exact-oracle searches: every `offline_optimal` call made through
    the oracle or harness module appends its instance here."""
    calls: list[Instance] = []
    search = oracle.offline_optimal

    def counted(inst, *args, **kwargs):
        calls.append(inst)
        return search(inst, *args, **kwargs)

    for module in (oracle, harness):
        monkeypatch.setattr(module, "offline_optimal", counted)
    return calls


@pytest.fixture
def curve_work(monkeypatch) -> Counter:
    """Counts exact-arithmetic work: curve points read one at a time, as
    `CostFamily.pair` calls (which `CostFamily.value` makes too), under
    "pair" and builds of an instance's integer tables under "tables"."""
    counts: Counter = Counter()
    pair = CostFamily.pair
    build = valuation.Tables.__init__

    def counted_pair(self, x):
        counts["pair"] += 1
        return pair(self, x)

    def counted_build(self, inst):
        counts["tables"] += 1
        build(self, inst)

    monkeypatch.setattr(CostFamily, "pair", counted_pair)
    monkeypatch.setattr(valuation.Tables, "__init__", counted_build)
    return counts
