"""Allocation valuation: total value, exact marginal gains, transmit-edge weights.

The value of an allocation is utility minus delay cost minus energy:
per packet, the utility of its transmitted fragment count and the delay cost
of its completion lag; per (slot, server), the energy of the fragment count
placed there. A packet finishing past its deadline forfeits utility and delay
alike; discarded fragments contribute nothing anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .model import (
    Allocation,
    AllocationError,
    AqiError,
    Bin,
    Instance,
    Packet,
    SubpacketRef,
    check_allocation,
)

ZERO = Fraction(0)


@dataclass
class Valuation:
    """Value breakdown of one allocation; total is recomputable from parts."""

    total: Fraction
    per_packet: dict[str, tuple[Fraction, Fraction]] = field(default_factory=dict)  # pid -> (utility, delay)
    per_slot: dict[tuple[int, int], Fraction] = field(default_factory=dict)  # (slot, server) -> energy

    def recompute_total(self) -> Fraction:
        util = sum((u for u, _ in self.per_packet.values()), ZERO)
        delay = sum((d for _, d in self.per_packet.values()), ZERO)
        energy = sum(self.per_slot.values(), ZERO)
        return util - delay - energy

    def to_json(self) -> dict:
        from .model import rational_to_json as r

        return {
            "total": r(self.total),
            "per_packet": {pid: [r(u), r(d)] for pid, (u, d) in sorted(self.per_packet.items())},
            "per_slot": {f"t{t}s{s}": r(e) for (t, s), e in sorted(self.per_slot.items())},
        }


def _packet_state(p: Packet, entries: list[tuple[SubpacketRef, Bin]]) -> tuple[int, int]:
    """(transmitted count, completion slot) of a packet's regular-bin entries.

    The completion slot is clamped below at the arrival so delay arguments
    stay non-negative even for out-of-model bin placements.
    """
    count = 0
    last = p.arrival
    for _, b in entries:
        if b.is_discard:
            continue
        count += 1
        if b.slot > last:
            last = b.slot
    return count, last


def _packet_term(p: Packet, count: int, last: int) -> Fraction:
    """Weighted utility-minus-delay of one packet; zero when nothing is sent
    or the completion slot violates the packet's deadline."""
    if count == 0:
        return ZERO
    if p.deadline is not None and last > p.deadline:
        return ZERO
    return p.utility(count) - p.lag_cost(last - p.arrival)


def evaluate(inst: Instance, alloc: Allocation) -> Valuation:
    """Exact value of `alloc` with a per-packet and per-slot breakdown."""
    check_allocation(inst, alloc)
    per_packet: dict[str, tuple[Fraction, Fraction]] = {}
    counts: dict[tuple[int, int], int] = {}
    for ref, b in alloc.entries.items():
        if not b.is_discard:
            key = (b.slot, b.server)
            counts[key] = counts.get(key, 0) + 1
    for p in inst.packets:
        entries = alloc.packet_entries(p.id)
        count, last = _packet_state(p, entries)
        if count == 0:
            continue
        if p.deadline is not None and last > p.deadline:
            per_packet[p.id] = (ZERO, ZERO)
            continue
        per_packet[p.id] = (p.utility(count), p.lag_cost(last - p.arrival))
    per_slot = {
        (slot, server): inst.energy[server].value(c) for (slot, server), c in counts.items()
    }
    val = Valuation(total=ZERO, per_packet=per_packet, per_slot=per_slot)
    val.total = val.recompute_total()
    return val


def marginal_values(inst: Instance, alloc: Allocation, ref: SubpacketRef,
                    bins: Sequence[Bin]) -> list[Fraction]:
    """Exact change in total value from adding (ref, b) to `alloc`, for each
    b in `bins`.

    Each entry equals evaluate(alloc + (ref, b)).total - evaluate(alloc).total;
    the discard bin always yields exactly 0. The packet's state is read once,
    and the packet delta per completion slot and the energy increment per
    (server, occupancy) are computed once each, so a bin costs a subtraction.
    """
    if ref in alloc:
        raise AllocationError(f"{ref} is already allocated")
    if all(b.is_discard for b in bins):  # no bin's value depends on the packet
        return [ZERO] * len(bins)
    p = inst.packet(ref.packet)
    count, last = _packet_state(p, alloc.packet_entries(ref.packet))
    current = _packet_term(p, count, last)
    packet_deltas: dict[int, Fraction] = {}  # completion slot -> packet delta
    energy_incs: dict[tuple[int, int], Fraction] = {}  # (server, occupancy) -> increment
    out = []
    for b in bins:
        if b.is_discard:
            out.append(ZERO)
            continue
        new_last = last if b.slot <= last else b.slot
        packet_delta = packet_deltas.get(new_last)
        if packet_delta is None:
            packet_delta = packet_deltas[new_last] = _packet_term(p, count + 1, new_last) - current
        occupancy = alloc.occupancy(b.slot, b.server)
        energy_delta = energy_incs.get((b.server, occupancy))
        if energy_delta is None:
            energy_delta = energy_incs[b.server, occupancy] = inst.energy[b.server].increment(occupancy)
        out.append(packet_delta - energy_delta)
    return out


def marginal_value(inst: Instance, alloc: Allocation, ref: SubpacketRef, b: Bin) -> Fraction:
    """Exact change in total value from adding (ref, b) to `alloc`; the
    one-bin case of `marginal_values`."""
    return marginal_values(inst, alloc, ref, (b,))[0]


def build_value(inst: Instance, steps: list[tuple[SubpacketRef, Bin]]) -> Fraction:
    """Sum of marginals along an ordered build-up (telescopes to evaluate())."""
    alloc = Allocation()
    total = ZERO
    for ref, b in steps:
        total += marginal_value(inst, alloc, ref, b)
        alloc.add(ref, b)
    return total


def transmit_weight(inst: Instance, p: Packet, slot: int, position: int) -> Fraction:
    """Matching edge weight for sending unit packet `p` in `slot` as the
    `position`-th simultaneous transmission there.

    The value part is utility minus delay cost at the completion lag
    (slot - arrival), forced to 0 past the deadline; the energy part is the
    marginal energy of the `position`-th transmission. May be negative;
    clamping is the matcher's policy.
    """
    if p.subpackets != 1:
        raise AqiError("binary expansion requires unit packets")
    if slot < p.arrival:
        raise AqiError(f"packet {p.id} cannot transmit before its arrival")
    if position < 1:
        raise AqiError("position must be >= 1")
    if inst.servers != 1:
        raise AqiError("binary expansion is defined for single-server instances")
    return transmit_value(p, slot) - inst.energy[0].increment(position - 1)


def transmit_value(p: Packet, slot: int) -> Fraction:
    """The value part of `transmit_weight`: utility minus delay cost of unit
    packet `p` completing in `slot`, 0 past its deadline."""
    if p.deadline is not None and slot > p.deadline:
        return ZERO
    return p.utility(1) - p.lag_cost(slot - p.arrival)
