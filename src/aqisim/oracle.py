"""Offline-optimal references: exhaustive branch-and-bound search for the
general problem, one full-graph matching for the unit-packet case, and the
ratio report comparing an online run against them.

The search enumerates, per packet, every in-order schedule of its fragments
(non-decreasing slots, any server, a discarded suffix) in ascending key
order, packets by id, depth first, on the exact integer `valuation.tables`.

Two upper bounds on what the packets not yet placed can still add prune it,
the cheap one first:

- static: each packet's best schedule value less `emin`, the cheapest first
  energy increment of any server, per fragment, clamped at 0;
- occupancy: each packet's best schedule value less the energy increments
  its fragments would pay at the *current* occupancy of their bins, clamped
  at 0. Energy curves are convex non-decreasing (the search checks this), so
  increments are >= 0, never shrink as a bin fills, and occupancy only grows
  deeper in the tree: a fragment placed there pays at least this much. That
  also lets the scan over a packet's schedules, highest value first, stop at
  the first value that cannot beat its running best.

A subtree is pruned when `partial + bound < floor`. The floor is 0, the
all-discard value, until a leaf is reached, and one more than the incumbent
after that (all values are integers, so this is `<=` against the
incumbent). Leaves are visited in ascending key order and only a strict
improvement replaces the incumbent; the strict comparison against the
all-discard floor keeps every subtree that may hold an optimum of value 0.
So no subtree holding the first maximizer in key order is ever pruned, and
the reported optimum is the lexicographically smallest maximizer. `nodes`
counts the schedules tried at the expanded search nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .model import (
    DISCARD,
    INFINITE_SLOT,
    Allocation,
    AqiError,
    Bin,
    Instance,
    SubpacketRef,
    rational_to_json,
)
from .matching import MatchingResult, expand_binary, max_weight_matching
from .valuation import Tables, Valuation, evaluate, tables

DEFAULT_BUDGET = 10_000_000


class BudgetError(AqiError):
    """The exact search would exceed its node budget; never approximated."""


@dataclass
class OracleResult:
    allocation: Allocation
    valuation: Valuation
    nodes: int


def _packet_candidates(inst: Instance, tab: Tables, p, emin: int):
    """All in-order schedules of one packet with their scaled values.

    A schedule is a tuple of (slot, server) pairs, slots non-decreasing,
    with discarded fragments as a trailing sentinel. Schedules whose value
    cannot pay the minimum energy `emin` of their transmissions are dropped:
    they are strictly dominated by discarding everything. A schedule's value
    depends only on its length and last slot, so it is computed once per pair.
    """
    i = tab.index[p.id]
    horizon = inst.horizon
    out = []
    values: dict[tuple[int, int], int | None] = {}  # None: dominated

    def emit(entries):
        key = (len(entries), entries[-1][0] if entries else p.arrival)
        if key not in values:
            value = tab.term(i, *key)
            values[key] = None if value - emin * key[0] < 0 else value
        if values[key] is not None:
            out.append((tuple(entries), values[key]))

    def extend(entries, min_slot, min_server):
        emit(entries)  # discard the remaining suffix
        if len(entries) == p.subpackets:
            return
        for slot in range(min_slot, horizon + 1):
            first_server = min_server if slot == min_slot else 0
            for server in range(first_server, inst.servers):
                entries.append((slot, server))
                extend(entries, slot, server)
                entries.pop()

    extend([], p.arrival, 0)
    # ascending by padded key: generation order is depth-first with the
    # discard suffix emitted before longer schedules, which is NOT ascending;
    # sort explicitly with discards ranked last, at the discard bin's slot.
    discard = (INFINITE_SLOT, 0)
    out.sort(key=lambda c: c[0] + (discard,) * (p.subpackets - len(c[0])))
    return out


def offline_optimal(inst: Instance, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Exact maximum-value allocation by pruned exhaustive search.

    Raises BudgetError once more than `budget` search nodes are expanded;
    the result is never silently approximate.
    """
    tab = tables(inst)
    tab.require_convex_energy("the search bound")
    g_inc = tab.energy_inc  # scaled marginal energy per server and occupancy
    packets = sorted(inst.packets, key=lambda p: p.id)
    emin = min(row[0] for row in g_inc)
    candidates = [_packet_candidates(inst, tab, p, emin) for p in packets]
    static = [
        max(0, max((v - emin * len(e) for e, v in candidates[i]), default=0))
        for i in range(len(packets))
    ]
    suffix_best = [0] * (len(packets) + 1)
    for i in range(len(packets) - 1, -1, -1):
        suffix_best[i] = suffix_best[i + 1] + static[i]

    # occupancy per (server, slot), flattened; a candidate's entries become
    # (energy increment row, cell) pairs
    width = inst.horizon + 1
    counts = [0] * (inst.servers * width)
    cell_of = {(slot, server): (g_inc[server], server * width + slot)
               for server in range(inst.servers) for slot in range(width)}
    plans = [[(tuple(map(cell_of.__getitem__, entries)), value) for entries, value in cands]
             for cands in candidates]
    # the non-empty candidates by value, highest first, for the occupancy bound
    ranked = [sorted((c for c in plan if c[0]), key=lambda c: -c[1]) for plan in plans]
    n = len(packets)
    chosen: list[int] = [0] * n
    best_choice: list[int] = []
    floor = 0  # a leaf must reach it: 0 (all-discard) first, then the incumbent + 1
    nodes = 0

    def dfs(i: int, partial: int):
        nonlocal nodes, best_choice, floor
        if i == n:
            if partial >= floor:
                best_choice = chosen.copy()
                floor = partial + 1
            return
        bound = partial + suffix_best[i]
        if bound < floor:
            return
        # replace each packet's static term by its term at the current occupancy
        for j in range(i, n):
            best = 0
            for cells, value in ranked[j]:
                if value <= best:
                    break
                for row, cell in cells:
                    value -= row[counts[cell]]
                if value > best:
                    best = value
            if j == i:
                own = best
            bound -= static[j] - best
            if bound < floor:
                return
        # occupancy only grows below, so the later packets' terms bound them
        # there too: a candidate whose child cannot reach the floor is not entered
        rest = bound - partial - own
        # every candidate of this packet is tried, so count them all up front
        nodes += len(plans[i])
        if nodes > budget:
            raise BudgetError(f"instance too large for exact oracle: more than {budget} nodes")
        for ci, (cells, value) in enumerate(plans[i]):
            if partial + value + rest < floor:
                continue
            delta = value
            for row, cell in cells:
                delta -= row[counts[cell]]
                counts[cell] += 1
            if partial + delta + rest >= floor:
                chosen[i] = ci
                dfs(i + 1, partial + delta)
            for _, cell in cells:
                counts[cell] -= 1

    dfs(0, 0)
    assert floor > 0  # the all-discard assignment always reaches the first floor
    best_total = floor - 1

    alloc = Allocation()
    for i, p in enumerate(packets):
        entries, _ = candidates[i][best_choice[i]]
        for j, (slot, server) in enumerate(entries, start=1):
            alloc.add(SubpacketRef(p.id, j), Bin(slot=slot, server=server))
        for j in range(len(entries) + 1, p.subpackets + 1):
            alloc.add(SubpacketRef(p.id, j), DISCARD)
    val = evaluate(inst, alloc)
    if val.total != Fraction(best_total, tab.scale):
        raise AqiError(
            f"oracle bookkeeping out of sync: search says {Fraction(best_total, tab.scale)}, "
            f"evaluation says {val.total}"
        )
    return OracleResult(allocation=alloc, valuation=val, nodes=nodes)


def offline_optimal_binary(inst: Instance) -> MatchingResult:
    """Offline optimum of a unit-packet instance: one whole-graph matching of
    the online expansion (`expand_binary` shows why no deeper one is needed)."""
    return max_weight_matching(expand_binary(inst))


@dataclass
class RatioReport:
    alg_value: Fraction
    opt_value: Fraction
    ratio: Fraction | None
    kind: str  # "ok" | "undefined" | "degenerate"
    violation: bool

    def to_json(self) -> dict:
        return {
            "alg_value": rational_to_json(self.alg_value),
            "opt_value": rational_to_json(self.opt_value),
            "ratio": None if self.ratio is None else rational_to_json(self.ratio),
            "ratio_float": None if self.ratio is None else float(self.ratio),
            "kind": self.kind,
            "violation": self.violation,
        }


def competitive_ratio(alg_value: Fraction, opt_value: Fraction) -> RatioReport:
    """Exact alg/opt ratio report; ratios below one half are flagged.

    A zero optimum leaves the ratio undefined; a negative optimum marks a
    degenerate comparison (the optimum can always discard everything for 0,
    so a negative value signals an oracle bug upstream).
    """
    if opt_value < 0:
        return RatioReport(alg_value, opt_value, None, "degenerate", violation=True)
    if opt_value == 0:
        return RatioReport(alg_value, opt_value, None, "undefined", violation=False)
    ratio = Fraction(alg_value, 1) / opt_value
    return RatioReport(alg_value, opt_value, ratio, "ok", violation=ratio < Fraction(1, 2))
