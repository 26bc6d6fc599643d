"""Reduction of the locking allocator to plain online greedy.

The frozen-increment twin of an instance is the instance itself under one gate
rule: a (fragment, bin) pair is worth 0 once the bin locks before the
fragment arrives (`arrival > b.lock_time`), and every other pair keeps its
exact marginal. Locking is gone: a gated bin still takes the fragment. Plain
greedy under the gate, with ties resolved exactly like the locking allocator,
reproduces its run step by step; the twin's offline maximum dominates the
locking optimum. Both are checked here; the chain builds on the bridge.

The replay and the telescoping price with `valuation.marginal_gains`, the
reference marginal, and sum its integers over `tables(inst).scale`; only the
totals become a `Fraction` when computed, and each logged step's gain when
read. Online greedy prices from running per-bin energy instead, so the
replay is an independent implementation and the `greedy-bridge` check
compares two of them. The replay's fault hook `perturb(b, gain) -> gain`
works in the same integer units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .model import (
    Allocation,
    AllocationError,
    AqiError,
    Instance,
    rational_to_json,
)
from .greedy import GreedyStep, arrival_order, candidate_bins, first_max, run_online_greedy
from .oracle import OracleResult
from .valuation import marginal_gains, tables


class TelescopingError(AqiError):
    """A locking optimum whose telescoped frozen value differs from its value."""


def telescoped_value(inst: Instance, alloc: Allocation) -> Fraction:
    """Value of an assignment as the sum of frozen marginals in arrival order.

    A bin that locks before its fragment arrives adds 0 but still holds the
    fragment for the later ones. A fragment the instance does not have raises
    AllocationError.
    """
    order = {ref: i for i, ref in enumerate(arrival_order(inst))}
    for ref in alloc.entries:
        if ref not in order:
            raise AllocationError(f"{ref} is not a fragment of the instance")
    running = Allocation()
    total = 0  # over the tables' scale
    for ref, b in sorted(alloc.entries.items(), key=lambda e: order[e[0]]):
        if inst.packet(ref.packet).arrival <= b.lock_time:
            total += marginal_gains(inst, running, ref, (b,))[0]
        running.add(ref, b)
    return Fraction(total, tables(inst).scale)


@dataclass
class FrozenRun:
    value: Fraction
    steps: list[GreedyStep] = field(default_factory=list)


def run_lockfree_greedy(inst: Instance, perturb=None) -> FrozenRun:
    """Plain greedy over all bins of the instance, under the twin's gate.

    Tie rule: a strictly positive maximum already forces a bin the fragment
    could still reach; at a zero maximum, candidates the fragment could not
    reach rank behind the discard bin. Within each class, earliest slot and
    lowest server win, matching the locking allocator's order. Gains are
    integers over `tables(inst).scale`; `perturb(b, gain)`, given one, rewrites
    each candidate's gain in those units before the pick (fault injection for
    harness self-tests). Each step is a `GreedyStep` over the bins in that
    order: reachable ones, the discard bin, then gated ones. The replay keeps
    its own allocation only to price the next fragment.
    """
    bins = candidate_bins(inst, 0)
    scale = tables(inst).scale
    alloc = Allocation()
    steps: list[GreedyStep] = []
    total = 0  # over the tables' scale
    for i, ref in enumerate(arrival_order(inst)):
        # bins are in slot order with discard last: the fragment reaches the
        # bins from its arrival slot on, and the ones before it are gated
        start = min(inst.packet(ref.packet).arrival, inst.horizon + 1) * inst.servers
        ordered = bins[start:] + bins[:start]  # reachable, discard, gated
        # discard and gated bins are worth exactly 0 on the twin
        gains = marginal_gains(inst, alloc, ref, bins[start:-1]) + [0] * (1 + start)
        if perturb is not None:
            gains = [perturb(b, g) for b, g in zip(ordered, gains)]
        k = first_max(gains)
        alloc.add(ref, ordered[k])
        total += gains[k]
        steps.append(GreedyStep(step=i, ref=ref, bins=ordered, gains=gains, scale=scale, pick=k))
    return FrozenRun(value=Fraction(total, scale), steps=steps)


@dataclass
class BridgeReport:
    """Offline bridge: locking optimum vs the frozen twin's optimum; both verdicts derive from them."""

    z_opt: Fraction
    y_opt_telescoped: Fraction  # also the twin's optimum, once it equals z_opt

    telescoping_ok = property(lambda self: self.z_opt == self.y_opt_telescoped)
    bridge_ok = property(lambda self: self.z_opt <= self.y_opt_telescoped)

    @property
    def ok(self) -> bool:
        return self.telescoping_ok and self.bridge_ok

    def to_json(self) -> dict:
        return {
            "z_opt": rational_to_json(self.z_opt),
            "y_opt_telescoped": rational_to_json(self.y_opt_telescoped),
            "y_frozen_opt": rational_to_json(self.y_opt_telescoped),
            "telescoping_ok": self.telescoping_ok,
            "bridge_ok": self.bridge_ok,
        }


def check_offline_bridge(inst: Instance, opt: OracleResult) -> BridgeReport:
    """Telescope the locking optimum `opt` over the frozen twin, once; `opt`
    must never beat the twin's optimum. A telescoped value that differs from
    `opt`'s is reported (`telescoping_ok: false`), not raised as in `frozen_optimal`."""
    return BridgeReport(z_opt=opt.valuation.total, y_opt_telescoped=telescoped_value(inst, opt.allocation))


def frozen_optimal(bridge: BridgeReport) -> Fraction:
    """Offline maximum of the frozen twin's value: the bridge's telescoped
    optimum, or TelescopingError when it disagrees with the optimum's value.

    Assignments using unreachable (frozen-at-0) bins never help: they add
    nothing themselves and only crowd slots or raise fragment counts, so the
    maximizer can be searched over reachable schedules, where the telescoped
    value coincides with the plain allocation value. The oracle's optimum is
    therefore the twin's, re-scored and re-verified through the telescoping.
    """
    if not bridge.telescoping_ok:
        raise TelescopingError(f"telescoped value {bridge.y_opt_telescoped} disagrees with "
                               f"allocation value {bridge.z_opt}")
    return bridge.y_opt_telescoped


@dataclass
class ChainReport:
    """The halving chain: greedy equals its frozen twin, which halves the
    frozen optimum, which dominates the locking optimum. Every link derives
    from the two greedy values, the bridge's optima and the step mismatches."""

    z_greedy: Fraction
    y_frozen_greedy: Fraction
    bridge: BridgeReport
    step_mismatches: list[dict] = field(default_factory=list)

    z_opt = property(lambda self: self.bridge.z_opt)
    y_frozen_opt = property(lambda self: self.bridge.y_opt_telescoped)
    bridge_ok = property(lambda self: self.bridge.bridge_ok)
    greedy_equal = property(lambda self: self.z_greedy == self.y_frozen_greedy)
    steps_equal = property(lambda self: not self.step_mismatches)
    frozen_half_ok = property(lambda self: 2 * self.y_frozen_greedy >= self.y_frozen_opt)
    composed_half_ok = property(lambda self: 2 * self.z_greedy >= self.z_opt)

    @property
    def ok(self) -> bool:
        return self.greedy_equal and self.steps_equal and self.frozen_half_ok and self.bridge_ok

    def to_json(self) -> dict:
        return {
            "z_greedy": rational_to_json(self.z_greedy),
            "y_frozen_greedy": rational_to_json(self.y_frozen_greedy),
            "y_frozen_opt": rational_to_json(self.y_frozen_opt),
            "z_opt": rational_to_json(self.z_opt),
            "links": {
                "greedy_equal": self.greedy_equal,
                "steps_equal": self.steps_equal,
                "frozen_half_ok": self.frozen_half_ok,
                "bridge_ok": self.bridge_ok,
                "composed_half_ok": self.composed_half_ok,
            },
            "step_mismatches": self.step_mismatches,
        }


def check_guarantee_chain(inst: Instance, bridge: BridgeReport, perturb=None) -> ChainReport:
    """Run every link of the halving argument on one instance, exactly, on top
    of the offline bridge of its locking optimum; raises TelescopingError when
    that optimum does not telescope over the twin."""
    greedy_run = run_online_greedy(inst)
    frozen_run = run_lockfree_greedy(inst, perturb=perturb)
    frozen_optimal(bridge)  # raises unless the telescoped optimum is the twin's

    mismatches = []
    for raw, fro in zip(greedy_run.state.steps, frozen_run.steps):
        if raw.ref != fro.ref or raw.chosen != fro.chosen:
            mismatches.append({
                "step": raw.step,
                "packet": raw.ref.packet,
                "index": raw.ref.index,
                "locking_bin": raw.chosen.id,
                "frozen_bin": fro.chosen.id,
            })
    return ChainReport(z_greedy=greedy_run.valuation.total, y_frozen_greedy=frozen_run.value,
                       bridge=bridge, step_mismatches=mismatches)
