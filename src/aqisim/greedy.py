"""Online greedy allocator: each arriving fragment goes, irrevocably, to the
unlocked bin with the largest exact marginal value.

Bins still open at a fragment's arrival are the current and future slots plus
the discard bin. Ties break toward regular bins over discard, then earliest
slot, then lowest server index; the discard bin guarantees every step's
marginal is at least 0.
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
from .valuation import Valuation, evaluate, marginal_values

ZERO = Fraction(0)


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
    chosen: Bin
    gain: Fraction
    alternatives: list[tuple[Bin, Fraction]]


@dataclass
class GreedyState:
    """Running partial allocation plus the per-step decision log."""

    inst: Instance
    partial: Allocation = field(default_factory=Allocation)
    clock: int = 0
    steps: list[GreedyStep] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def pick_bin(options: list[tuple[Bin, Fraction]]) -> tuple[Bin, Fraction]:
    """First strict maximum in tie-break order (options are pre-ordered)."""
    best_bin, best_gain = options[0]
    for b, g in options[1:]:
        if g > best_gain:
            best_bin, best_gain = b, g
    return best_bin, best_gain


def greedy_step(state: GreedyState, ref: SubpacketRef) -> tuple[Bin, Fraction]:
    """Allocate one fragment arriving at the state's clock; returns (bin, gain)."""
    if ref in state.partial:
        raise AllocationError(f"{ref} is already allocated")
    bins = candidate_bins(state.inst, state.clock)
    options = list(zip(bins, marginal_values(state.inst, state.partial, ref, bins)))
    chosen, gain = pick_bin(options)
    if not chosen.is_discard and chosen.slot == state.inst.horizon and state.clock < state.inst.horizon:
        runner_up = max((g for b, g in options if not b.is_discard and b.slot < chosen.slot),
                        default=None)
        if runner_up is None or gain > runner_up:
            state.warnings.append(
                f"{ref}: best bin sits exactly at the horizon; a longer horizon could change the choice"
            )
    state.partial.add(ref, chosen)
    state.steps.append(GreedyStep(
        step=len(state.steps), ref=ref, chosen=chosen, gain=gain, alternatives=options,
    ))
    return chosen, gain


@dataclass
class GreedyRun:
    allocation: Allocation
    valuation: Valuation
    state: GreedyState

    def step_log_jsonl(self) -> str:
        lines = []
        for s in self.state.steps:
            lines.append(json.dumps({
                "step": s.step,
                "packet": s.ref.packet,
                "index": s.ref.index,
                "chosen_bin": s.chosen.id,
                "rho": rational_to_json(s.gain),
                "alternatives": [
                    {"bin": b.id, "rho": rational_to_json(g)} for b, g in s.alternatives
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
    for ref in arrival_order(inst):
        state.clock = inst.packet(ref.packet).arrival
        greedy_step(state, ref)
    alloc = canonicalize(inst, state.partial)
    val = evaluate(inst, alloc)
    raw_total = sum((s.gain for s in state.steps), ZERO)
    if val.total != raw_total:
        raise AllocationError(
            f"greedy bookkeeping out of sync: steps sum to {raw_total}, allocation is worth {val.total}"
        )
    return GreedyRun(allocation=alloc, valuation=val, state=state)
