"""Online greedy allocator: each arriving fragment goes, irrevocably, to the
unlocked bin with the largest exact marginal value.

Bins still open at a fragment's arrival are the current and future slots plus
the discard bin. Ties break toward regular bins over discard, then earliest
slot, then lowest server index; the discard bin guarantees every step's
marginal is at least 0.

A run lists its candidate bins once, in that order, and keeps two integer
lists of its own laid out `slot * servers + server` as the list is: each
regular bin's occupancy and its price, `energy_inc[server][occupancy]` from
`tables(inst)`. Packets arrive in (arrival, id) order; a packet's steps
share one slice of the list, from its arrival slot on, and one copy of its
lag row spread over those bins. A fragment's gains come from the packet's
fragment count and last slot, kept in two local integers: every bin up to
the last slot adds one fragment at the same completion slot, a later bin up
to the deadline adds the utility step less its own lag, a bin past the
deadline loses the packet's current term; each bin then pays its price, and
the discard bin gains 0. The pick is the first strict maximum of those
integers, and only the chosen bin's occupancy and price change after it.
When a packet's last fragment is placed, the run writes the packet's
entries into its one allocation: the chosen bins in (slot, server) order
take indices 1, 2, ... and the discards the rest.

No step calls `valuation.marginal_gains`, which stays the reference that
the lock-free replay, the telescoping and the tests price with; the
`greedy-bridge` check compares the two. Both runs record a `GreedyStep`: its
bins, their integers and the index of its pick; its `gain` is the chosen one
as a `Fraction`, and `alternatives` the full (bin, Fraction) list, both
built only when read. A run sums the chosen integers and checks that sum
once against `evaluate`.

The half-competitive bound holds, as checked, for the online matcher only;
for greedy it fails under convex energy. With one slot, one server, energy
E(c) = c**2 and no lag cost, let unit packet p0 (utility 101/100) arrive
before p1 (utility 29/10). Greedy sends p0 at gain 1/100, then discards p1,
whose gain in the slot would be 29/10 - 3 = -1/10; the optimum sends p1
alone for 19/10, so greedy keeps 1/190 of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

from .model import (
    DISCARD,
    Allocation,
    AllocationError,
    Bin,
    Instance,
    Packet,
    SubpacketRef,
    rational_to_json,
)
from .valuation import Valuation, evaluate, tables


def packets_by_arrival(inst: Instance) -> list[Packet]:
    """Packets in arrival order, ties by id."""
    return sorted(inst.packets, key=lambda p: (p.arrival, p.id))


def arrival_order(inst: Instance) -> list[SubpacketRef]:
    """Fragments in arrival order: packets by (arrival, id), fragments by index."""
    refs = []
    for p in packets_by_arrival(inst):
        refs.extend(SubpacketRef(p.id, j) for j in range(1, p.subpackets + 1))
    return refs


def candidate_bins(inst: Instance, clock: int) -> list[Bin]:
    """Unlocked bins at `clock`, in tie-break order; discard comes last."""
    bins = [
        Bin(slot=t, server=s)
        for t in range(clock, inst.horizon + 1)
        for s in range(inst.servers)
    ]
    bins.append(DISCARD)
    return bins


@dataclass
class GreedyStep:
    """One pick, as online greedy and the lock-free replay both record it."""

    step: int
    ref: SubpacketRef
    bins: list[Bin]  # the candidate bins, in tie-break order
    gains: list[int]  # their marginals, over `scale`
    scale: int
    pick: int  # index of the chosen bin in `bins`

    @property
    def chosen(self) -> Bin:
        return self.bins[self.pick]

    @property
    def gain(self) -> Fraction:
        """The chosen bin's exact marginal."""
        return Fraction(self.gains[self.pick], self.scale)

    @property
    def alternatives(self) -> list[tuple[Bin, Fraction]]:
        """Every candidate bin with its exact marginal, in tie-break order."""
        return [(b, Fraction(g, self.scale)) for b, g in zip(self.bins, self.gains)]


@dataclass
class GreedyState:
    """The candidate bins and what the run recorded at each step."""

    bins: list[Bin]  # candidate_bins(inst, 0), listed once per run
    steps: list[GreedyStep] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def first_max(gains: list) -> int:
    """Index of the first strict maximum: the tie-break order is the list's."""
    return gains.index(max(gains))


@dataclass
class GreedyRun:
    allocation: Allocation
    valuation: Valuation
    state: GreedyState

    def step_log_jsonl(self) -> str:
        """One JSON line per step. A step's alternatives are rendered from its
        integer gains; each distinct gain is converted to a rational once."""
        rho: dict[int, int | str] = {}  # gain -> JSON value; a run's steps share one scale
        ids = [b.id for b in self.state.bins]  # each step's bins are a suffix of these
        lines = []
        for s in self.state.steps:
            for g in set(s.gains).difference(rho):
                rho[g] = rational_to_json(Fraction(g, s.scale))
            lines.append(json.dumps({
                "step": s.step,
                "packet": s.ref.packet,
                "index": s.ref.index,
                "chosen_bin": s.chosen.id,
                "rho": rho[s.gains[s.pick]],
                "alternatives": [
                    {"bin": b, "rho": rho[g]} for b, g in zip(ids[len(ids) - len(s.bins):], s.gains)
                ],
            }, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")


def run_online_greedy(inst: Instance) -> GreedyRun:
    """Run the greedy allocator over the whole instance.

    Fragments of one packet arrive together, processed in index order. The
    step log keeps each fragment's own pick. The allocation is written once
    per packet, when its last fragment is placed, in canonical order: the
    chosen regular bins by (slot, server) take indices 1, 2, ... and the
    discarded fragments the rest. Relabeling keeps the value, and lower
    indices take earlier slots.
    """
    tab = tables(inst)
    scale, energy_inc = tab.scale, tab.energy_inc
    horizon, servers = inst.horizon, inst.servers
    state = GreedyState(bins=candidate_bins(inst, 0))
    end = (horizon + 1) * servers  # the discard bin's position
    # per regular bin, laid out like state.bins: fragments placed, and the
    # energy step of one more, energy_inc[server][occupancy]
    occupancy = [0] * end
    prices = [energy_inc[b.server][0] for b in state.bins[:-1]]
    alloc, steps = Allocation(), state.steps
    total = 0  # over the tables' scale
    for p in packets_by_arrival(inst):
        i, arrival, deadline = tab.index[p.id], p.arrival, p.deadline
        base = min(arrival, horizon + 1) * servers  # position of the first open bin
        bins = state.bins[base:]  # candidate_bins(inst, arrival), shared by the packet's steps
        utility, lag = tab.utility[i], tab.lag[i]
        # the lag of each of `bins`' regular bins: lag[slot - arrival], once per server
        bin_lag = lag if servers == 1 else list(chain.from_iterable(zip(*[lag] * servers)))
        cutoff = horizon if deadline is None or deadline > horizon else deadline
        count, last = 0, arrival  # as valuation._packet_state reads them
        placed = []  # positions in state.bins of the packet's regular picks
        for j in range(1, p.subpackets + 1):
            ref = SubpacketRef(p.id, j)
            expired = deadline is not None and last > deadline
            current = 0 if count == 0 or expired else utility[count] - lag[last - arrival]
            early = (0 if expired else utility[count + 1] - lag[last - arrival]) - current
            late = utility[count + 1] - current
            mid = (last + 1) * servers  # first bin after the packet's last slot
            past = max(mid, (cutoff + 1) * servers)  # first bin past the deadline
            gains = [early - e for e in prices[base:mid]]
            gains += [late - d - e
                      for d, e in zip(bin_lag[mid - base:past - base], prices[mid:past])]
            gains += [-current - e for e in prices[past:end]]
            gains.append(0)  # the discard bin
            k = first_max(gains)
            chosen = bins[k]
            if not chosen.is_discard:
                slot, server, at = chosen.slot, chosen.server, base + k
                # `chosen` is the first maximum, so every bin of an earlier slot
                # scored strictly less: a choice at the horizon always beats them
                if slot == horizon and arrival < horizon:
                    state.warnings.append(f"{ref}: best bin sits exactly at the horizon; "
                                          "a longer horizon could change the choice")
                occupancy[at] += 1
                row = energy_inc[server]
                if occupancy[at] < len(row):  # a full bin is never priced again
                    prices[at] = row[occupancy[at]]
                placed.append(at)
                count += 1
                last = max(last, slot)
            steps.append(GreedyStep(step=len(steps), ref=ref, bins=bins, gains=gains,
                                    scale=scale, pick=k))
            total += gains[k]
        placed.sort()  # ascending position is (slot, server) order
        for j, at in enumerate(placed, start=1):
            alloc.add(SubpacketRef(p.id, j), state.bins[at])
        for j in range(len(placed) + 1, p.subpackets + 1):
            alloc.add(SubpacketRef(p.id, j), DISCARD)
    val = evaluate(inst, alloc)
    raw_total = Fraction(total, scale)
    if val.total != raw_total:
        raise AllocationError(
            f"greedy bookkeeping out of sync: steps sum to {raw_total}, allocation is worth {val.total}"
        )
    return GreedyRun(allocation=alloc, valuation=val, state=state)
