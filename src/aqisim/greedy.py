"""Online greedy allocator: each arriving fragment goes, irrevocably, to the
unlocked bin with the largest exact marginal value.

Bins still open at a fragment's arrival are the current and future slots plus
the discard bin. Ties break toward regular bins over discard, then earliest
slot, then lowest server index; the discard bin guarantees every step's
marginal is at least 0.

A run lists its candidate bins once, in that order, and each step scores a
slice of the list, from the first bin of the clock's slot, with
`marginal_gains`: integers over the instance's table scale, so the choice is
a first strict maximum of integers. The tables behind the scale are built
once per instance from integer rows of the cost curves, with no `Fraction`
on the way from curve to pick. A step keeps its integers and the index of
its pick; its `gain` is the chosen one as a `Fraction`, and `alternatives`
the full (bin, Fraction) list, both built only when read. A run sums the
chosen integers and checks that sum once against `evaluate`.

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

from .model import (
    DISCARD,
    Allocation,
    AllocationError,
    Bin,
    Instance,
    SubpacketRef,
    rational_to_json,
)
from .valuation import Valuation, evaluate, marginal_gains, tables


def arrival_order(inst: Instance) -> list[SubpacketRef]:
    """Fragments in arrival order: packets by (arrival, id), fragments by index."""
    refs = []
    for p in sorted(inst.packets, key=lambda p: (p.arrival, p.id)):
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
    """Running partial allocation plus the per-step decision log."""

    inst: Instance
    partial: Allocation = field(default_factory=Allocation)
    clock: int = 0
    steps: list[GreedyStep] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    bins: list[Bin] = field(init=False)  # candidate_bins(inst, 0), listed once per run

    def __post_init__(self):
        self.bins = candidate_bins(self.inst, 0)


def first_max(gains: list) -> int:
    """Index of the first strict maximum: the tie-break order is the list's."""
    return gains.index(max(gains))


def greedy_step(state: GreedyState, ref: SubpacketRef) -> GreedyStep:
    """Allocate one fragment arriving at the state's clock; returns its logged
    step, whose `chosen` bin and `gain` are the decision."""
    inst = state.inst
    bins = state.bins[min(state.clock, inst.horizon + 1) * inst.servers:]  # candidate_bins(inst, clock)
    gains = marginal_gains(inst, state.partial, ref, bins)
    k = first_max(gains)
    chosen = bins[k]
    # `chosen` is the first maximum, so every bin of an earlier slot scored
    # strictly less: a choice at the horizon always beats the earlier slots
    if not chosen.is_discard and chosen.slot == inst.horizon and state.clock < inst.horizon:
        state.warnings.append(
            f"{ref}: best bin sits exactly at the horizon; a longer horizon could change the choice"
        )
    state.partial.add(ref, chosen)
    step = GreedyStep(step=len(state.steps), ref=ref, bins=bins, gains=gains,
                      scale=tables(inst).scale, pick=k)
    state.steps.append(step)
    return step


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


def canonicalize(inst: Instance, alloc: Allocation) -> Allocation:
    """Relabel each packet's fragments so lower indices take earlier slots;
    the value is label-invariant, the canonical form satisfies index order."""
    out = Allocation()
    for p in inst.packets:
        entries = alloc.packet_entries(p.id)
        slots = sorted(
            (b for _, b in entries if not b.is_discard), key=lambda b: (b.slot, b.server)
        )
        for j, b in enumerate(slots, start=1):
            out.add(SubpacketRef(p.id, j), b)
        for j in range(len(slots) + 1, len(entries) + 1):
            out.add(SubpacketRef(p.id, j), DISCARD)
    return out


def run_online_greedy(inst: Instance) -> GreedyRun:
    """Run the greedy allocator over the whole instance.

    Fragments of one packet arrive together, processed in index order; the
    returned allocation is the canonical relabeling of the greedy choices
    (same value), while the step log keeps the raw per-fragment decisions.
    """
    state = GreedyState(inst=inst)
    total = 0  # over the steps' common scale
    for ref in arrival_order(inst):
        state.clock = inst.packet(ref.packet).arrival
        step = greedy_step(state, ref)
        total += step.gains[step.pick]
    alloc = canonicalize(inst, state.partial)
    val = evaluate(inst, alloc)
    raw_total = Fraction(total, state.steps[0].scale if state.steps else 1)
    if val.total != raw_total:
        raise AllocationError(
            f"greedy bookkeeping out of sync: steps sum to {raw_total}, allocation is worth {val.total}"
        )
    return GreedyRun(allocation=alloc, valuation=val, state=state)
