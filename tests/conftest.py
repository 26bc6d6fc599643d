from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

from aqisim import harness, oracle, valuation
from aqisim.model import Allocation, CostFamily, Instance, Packet, linear, tabulated


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
    """Counts exact-arithmetic work: `CostFamily.value` calls under "value"
    and builds of an instance's integer tables under "tables"."""
    counts: Counter = Counter()
    value = CostFamily.value
    build = valuation.Tables.__init__

    def counted_value(self, x):
        counts["value"] += 1
        return value(self, x)

    def counted_build(self, inst):
        counts["tables"] += 1
        build(self, inst)

    monkeypatch.setattr(CostFamily, "value", counted_value)
    monkeypatch.setattr(valuation.Tables, "__init__", counted_build)
    return counts
