"""Allocation valuation: total value, exact marginal gains, transmit-edge weights.

The value of an allocation is utility minus delay cost minus energy:
per packet, the utility of its transmitted fragment count and the delay cost
of its completion lag; per (slot, server), the energy of the fragment count
placed there. A packet finishing past its deadline forfeits utility and delay
alike; discarded fragments contribute nothing anywhere. Marginals, the
exact oracle and the binary expansion compute on `tables(inst)`, built from
integer rows of the cost curves (`CostFamily.row`). `evaluate` reads each
point in its closed form, `CostFamily.pair`, and `transmit_weight` through
`CostFamily.value`, as references for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .model import (
    DISCARD,
    Allocation,
    AllocationError,
    AqiError,
    Bin,
    CostFamily,
    Instance,
    Packet,
    SubpacketRef,
    check_allocation,
    check_entry,
)

ZERO = Fraction(0)
Pair = tuple[int, int]  # an exact rational as an unreduced (numerator, denominator > 0)


@dataclass
class Valuation:
    """Value breakdown of one allocation; total is recomputable from parts.

    The parts are kept as unreduced integer pairs: `packets` maps a packet
    id to its (utility, delay) pairs and `slots` maps (slot, server) to its
    energy pair. `per_packet` and `per_slot` render them as `Fraction`s
    afresh on each read."""

    total: Fraction
    packets: dict[str, tuple[Pair, Pair]] = field(repr=False)
    slots: dict[tuple[int, int], Pair] = field(repr=False)

    @property
    def per_packet(self) -> dict[str, tuple[Fraction, Fraction]]:  # pid -> (utility, delay)
        return {pid: (Fraction(*u), Fraction(*d)) for pid, (u, d) in self.packets.items()}

    @property
    def per_slot(self) -> dict[tuple[int, int], Fraction]:  # (slot, server) -> energy
        return {key: Fraction(*e) for key, e in self.slots.items()}

    def recompute_total(self) -> Fraction:
        per_packet = self.per_packet.values()
        util = sum((u for u, _ in per_packet), ZERO)
        delay = sum((d for _, d in per_packet), ZERO)
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


class Tables:
    """Every utility[i][count], lag[i][d] and energy_inc[server][occupancy]
    a valid allocation can reach, times one common `scale`; row i is
    `inst.packets[i]`.

    No entry goes through a `Fraction`. Each curve is read once as
    `CostFamily.row`, the unreduced integer pairs (n_x, d_x) of its values
    at x = 0, 1, ..., by each kind's recurrence, and each packet's weight
    w = u/v once, as its integer ratio. A utility entry w * (D(c) - D(0)) is
    (u * (n_c*d_0 - n_0*d_c), v * d_c*d_0), a lag entry w * C(d) is
    (u * n_d, v * d_d), and an energy increment E(c+1) - E(c) is
    (n_1*d_0 - n_0*d_1, d_0*d_1). With D the lcm of the distinct unreduced
    denominators, each entry n/d lifts to N = n * (D // d) over D, and with
    g = gcd(D, N_1, ..., N_k), `scale` = D // g and an entry is N // g. That
    is the lcm of the entries' reduced denominators, the least scale that
    makes every entry an integer, at one gcd in all rather than one per
    entry: the lcm over i of D / gcd(N_i, D) is D / gcd(D, N_1, ..., N_k).

    Packets with the same weight and delay-cost family share one lag row, as
    long as the longest of them needs; each `lag[i]` is a slice of it. The
    row key is made of integers, the weight's numerator and denominator, the
    family's kind and each parameter or table entry as (numerator,
    denominator), so no `Fraction` is hashed. The slices together hold
    exactly the row's entries, so `scale` is the same as with one row per
    packet."""

    def __init__(self, inst: Instance):
        self.packets = inst.packets
        rows: dict[tuple, int] = {}  # integer (weight, delay-cost family) key -> lag row
        row_of = []
        longest: list[tuple[int, int, int, CostFamily]] = []  # per lag row: (span, u, v, family)
        utility = []
        for p, span in zip(inst.packets, inst.spans):
            u, v = p.weight.as_integer_ratio()
            c = p.delay_cost
            key = (u, v, c.kind, *[x.as_integer_ratio() for x in c.params or c.table])
            r = rows.setdefault(key, len(rows))
            row_of.append(r)
            if r == len(longest):
                longest.append((span, u, v, c))
            elif span > longest[r][0]:
                longest[r] = (span, u, v, c)
            values = p.distortion.row(p.subpackets + 1)
            n0, d0 = values[0]
            utility.append([(u * (n * d0 - n0 * d), v * d * d0) for n, d in values])
        lags = [[(u * n, v * d) for n, d in c.row(span)] for span, u, v, c in longest]
        energy_inc = [[(n1 * d0 - n0 * d1, d0 * d1) for (n0, d0), (n1, d1) in zip(row, row[1:])]
                      for row in (fam.row(inst.levels) for fam in inst.energy)]
        dens = {d for table in (utility, lags, energy_inc) for row in table for _, d in row}
        common = math.lcm(*dens)
        lift = {d: common // d for d in dens}
        utility, lags, energy_inc = [[[n * lift[d] for n, d in row] for row in table]
                                     for table in (utility, lags, energy_inc)]
        g = common
        for row in (*utility, *lags, *energy_inc):
            g = math.gcd(g, *row)
            if g == 1:
                break
        self.scale = common // g
        if g != 1:
            utility, lags, energy_inc = [[[n // g for n in row] for row in table]
                                         for table in (utility, lags, energy_inc)]
        self.utility = utility
        self.lag = [lags[r][:n] for r, n in zip(row_of, inst.spans)]
        self.energy_inc = energy_inc

    def term(self, i: int, count: int, last: int) -> int:
        """Scaled utility minus lag cost of row `i` sending `count` fragments
        by slot `last`; 0 when nothing is sent or `last` is past the deadline."""
        p = self.packets[i]
        if count == 0 or (p.deadline is not None and last > p.deadline):
            return 0
        return self.utility[i][count] - self.lag[i][last - p.arrival]

    def require_convex_energy(self, user: str) -> None:
        """Raise AqiError, naming `user`, unless all energy is convex non-decreasing."""
        for s, row in enumerate(self.energy_inc):
            if any(a < 0 or a > b for a, b in zip(row, row[1:] + row[-1:])):
                raise AqiError(f"energy[{s}] is not convex non-decreasing; {user} needs it")


_last_tables: tuple[Instance | None, Tables | None] = (None, None)


def tables(inst: Instance) -> Tables:
    """The integer tables of `inst`, rebuilt only when another instance was
    used since: one set in memory, and the strong reference to its instance
    keeps an identity match from being a recycled object id."""
    global _last_tables
    if _last_tables[0] is not inst:
        _last_tables = (inst, Tables(inst))
    return _last_tables[1]


def evaluate(inst: Instance, alloc: Allocation) -> Valuation:
    """Exact value of `alloc` with a per-packet and per-slot breakdown.

    The reference that `tables` and `CostFamily.row` are checked against, so
    it reads neither: every curve point is read in its closed form,
    `CostFamily.pair`. The weight and utility-difference arithmetic runs on
    these unreduced integer (numerator, denominator) pairs, and the total is
    the one `Fraction` built, over the lcm of their denominators."""
    check_allocation(inst, alloc)
    counts: dict[tuple[int, int], int] = {}
    for ref, b in alloc.entries.items():
        if not b.is_discard:
            key = (b.slot, b.server)
            counts[key] = counts.get(key, 0) + 1
    packets: dict[str, tuple[Pair, Pair]] = {}
    for p in inst.packets:
        count, last = _packet_state(p, alloc.packet_entries(p.id))
        if count == 0:
            continue
        if p.deadline is not None and last > p.deadline:
            packets[p.id] = ((0, 1), (0, 1))
            continue
        u, v = p.weight.as_integer_ratio()
        ns, ds = p.distortion.pair(count)
        n0, d0 = p.distortion.pair(0)
        nl, dl = p.delay_cost.pair(last - p.arrival)
        packets[p.id] = ((u * (ns * d0 - n0 * ds), v * ds * d0), (u * nl, v * dl))
    slots = {key: inst.energy[key[1]].pair(c) for key, c in counts.items()}
    common = math.lcm(*{d for pair in packets.values() for _, d in pair},
                      *{d for _, d in slots.values()})
    total = (sum(nu * (common // du) - nd * (common // dd) for (nu, du), (nd, dd) in packets.values())
             - sum(n * (common // d) for n, d in slots.values()))
    return Valuation(total=Fraction(total, common), packets=packets, slots=slots)


def marginal_gains(inst: Instance, alloc: Allocation, ref: SubpacketRef,
                   bins: Sequence[Bin]) -> list[int]:
    """Exact change in total value from adding (ref, b) to `alloc`, for each
    b in `bins`, as integers over `tables(inst).scale`.

    Each entry times the scale's inverse equals
    evaluate(alloc + (ref, b)).total - evaluate(alloc).total; the discard bin
    always yields exactly 0. An unknown packet or out-of-range fragment, a
    bin outside the instance, and an `alloc` already holding as many
    fragments of the packet as it has all raise AllocationError; a bin
    before the packet's arrival counts as completing at the arrival, as in
    `_packet_state`. Three integers price every slot: the gain at or before
    the packet's current last slot, the utility step that later slots less
    their lag, and the loss of the current term past the deadline; each bin
    adds one energy-increment lookup at its occupancy.
    """
    if ref in alloc:
        raise AllocationError(f"{ref} is already allocated")
    p = inst.packet(ref.packet)
    check_entry(inst, p, ref, DISCARD)  # the fragment index, before any shortcut
    entries = alloc.packet_entries(ref.packet)
    if len(entries) >= p.subpackets:
        raise AllocationError(f"{ref}: the allocation already holds {len(entries)} fragments "
                              f"of a packet with {p.subpackets}")
    if all(b.is_discard for b in bins):  # no bin's value depends on the packet
        return [0] * len(bins)
    tab = tables(inst)
    i = inst.index[p.id]
    count, last = _packet_state(p, entries)
    current = tab.term(i, count, last)
    early = tab.term(i, count + 1, last) - current
    late = tab.utility[i][count + 1] - current
    lag, arrival = tab.lag[i], p.arrival
    horizon, servers = inst.horizon, inst.servers
    cutoff = horizon if p.deadline is None else p.deadline
    occupancy, energy_inc = alloc.occupancies.get, tab.energy_inc
    out = []
    for b in bins:
        if b.is_discard:
            out.append(0)
            continue
        slot, server = b.slot, b.server
        if not (0 <= slot <= horizon and 0 <= server < servers):
            check_entry(inst, p, ref, b)  # raises, in check_allocation's wording
        if slot <= last:
            gained = early
        elif slot <= cutoff:
            gained = late - lag[slot - arrival]
        else:
            gained = -current
        out.append(gained - energy_inc[server][occupancy((slot, server), 0)])
    return out


def marginal_value(inst: Instance, alloc: Allocation, ref: SubpacketRef, b: Bin) -> Fraction:
    """Exact change in total value from adding (ref, b) to `alloc`: the
    one-bin case of `marginal_gains`, divided by the tables' scale."""
    gain = marginal_gains(inst, alloc, ref, (b,))[0]
    return Fraction(gain, tables(inst).scale) if gain else ZERO  # 0 needs no scale: discard builds no tables


def transmit_weight(inst: Instance, p: Packet, slot: int, position: int) -> Fraction:
    """Matching edge weight for sending unit packet `p` in `slot` as the
    `position`-th simultaneous transmission there.

    The value part is utility minus delay cost at the completion lag
    (slot - arrival), set to 0 past the deadline; the energy part is the
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
    expired = p.deadline is not None and slot > p.deadline
    value = ZERO if expired else p.utility(1) - p.lag_cost(slot - p.arrival)
    return value - inst.energy[0].increment(position - 1)
