"""Offline-optimal references: exhaustive branch-and-bound search for the
general problem, one full-graph matching for the unit-packet case, and the
ratio report comparing an online run against them.

The search tries, per packet, every in-order schedule of its fragments
(cells `slot * servers + server` non-decreasing, then a discarded suffix),
packets by id, depth first, on the exact integer `valuation.tables`. The
packets of one (arrival, fragments) shape share its schedules, built once in
ascending key order, where a discard ranks after every bin: each schedule
comes after all of its extensions (post-order), which go by their next cell.

A schedule that puts m fragments into a bin holding c already pays that
bin's exact energy step E(c + m) - E(c), read off the prefix sums of the
energy increments; a candidate's counts change only when its child is
entered. Energy curves are convex non-decreasing (the search checks this),
so that step is >= 0 and never shrinks as c grows, and occupancy only grows
deeper in the tree.

Two upper bounds on what the packets not yet placed can still add prune the
search, the cheap one first:

- static: each packet's best schedule value less `emin`, the cheapest first
  energy increment of any server, per fragment, clamped at 0;
- occupancy: each packet's best schedule value less the energy steps its
  bins would charge at the *current* occupancy, clamped at 0. Deeper in the
  tree each of those bins holds at least as many fragments, so a schedule
  placed there pays at least this much. That also lets the scan over a
  packet's schedules, highest value first, stop at the first value that
  cannot beat its running best.

A subtree is pruned when `partial + bound < floor`. The floor is 0, the
all-discard value, until a leaf is reached, and one more than the incumbent
after that (all values are integers, so this is `<=` against the
incumbent). Leaves are visited in ascending key order and only a strict
improvement replaces the incumbent; the strict comparison against the
all-discard floor keeps every subtree that may hold an optimum of value 0.

Occupancy memo: what packets i.. can add depends only on the occupancy of
the cells they can reach, the slots from their earliest arrival on. The
memo maps (i, that occupancy) to the highest partial value seen there, and
a node whose partial value is no higher is skipped. This is safe for the
same reason as pruning. Once the search leaves a subtree, every leaf in it
is below the floor: it was rejected, set the floor one above itself, or was
pruned while below a floor that never falls. The skipped node is visited
later in key order, and each of its completions adds the same value to no
more partial value, so it scores no more than the same completion of the
earlier node: below the floor too, never a strict improvement. So no
subtree holding the first maximizer in key order is pruned or skipped, and
the reported optimum is the lexicographically smallest maximizer. The
table is capped at `MEMO_CAP` entries; once full it only answers lookups
(keeping or raising a stored value), which skips fewer nodes and changes no
answer. `nodes` counts the schedules tried at the expanded search nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import comb

from .model import (
    DISCARD,
    Allocation,
    AqiError,
    Bin,
    Instance,
    SubpacketRef,
    rational_to_json,
)
from .matching import MatchingResult, expand_binary, max_weight_matching
from .valuation import Valuation, evaluate, tables

DEFAULT_BUDGET = 10_000_000
# most occupancy-memo entries one search keeps; once full it stops inserting
MEMO_CAP = 1 << 16


class BudgetError(AqiError):
    """The exact search would exceed its node budget; never approximated."""


@dataclass
class OracleResult:
    allocation: Allocation
    valuation: Valuation
    nodes: int


def offline_optimal(inst: Instance, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Exact maximum-value allocation by pruned exhaustive search.

    Raises BudgetError, never approximating, once more than `budget` search
    nodes are expanded, and before any schedule is built when the packets have
    more than `budget` in-order schedules, so it caps the schedules built too.
    """
    tab = tables(inst)
    tab.require_convex_energy("the search bound")
    packets = sorted(inst.packets, key=lambda p: p.id)
    servers = inst.servers
    ncells = servers * (inst.horizon + 1)
    too_large = f"instance too large for exact oracle: more than {budget} nodes"
    # k fragments over the n cells a packet reaches: comb(n + k, k) schedules
    if sum(comb(max(ncells - p.arrival * servers, 0) + p.subpackets, p.subpackets)
           for p in packets) > budget:
        raise BudgetError(too_large)

    # m more fragments in a bin of occupancy c cost E(c + m) - E(c) =
    # `cost[server][m][c]`. `code` packs every cell's count into `bits` bits,
    # lowest cell lowest, and a schedule adds its `step` to it.
    emin = min(row[0] for row in tab.energy_inc)
    most = max((p.subpackets for p in packets), default=0)
    cost = []
    for row in tab.energy_inc:
        cum = list(accumulate(row, initial=0))
        cost.append([None] + [[b - a for a, b in zip(cum, cum[m:])] for m in range(1, most + 1)])
    bits = sum(p.subpackets for p in packets).bit_length()
    counts = [0] * ncells

    @cache  # every packet of one (arrival, k) shape shares its schedules
    def shape(arrival: int, k: int) -> list:
        """(groups, step, fragments sent, last slot) of every schedule of the
        shape in key order, with one (cost row, cell, m) group per bin used."""
        def extend(groups, step, sent, first):
            for cell in range(first, ncells) if sent < k else ():
                m = groups[-1][2] + 1 if groups and cell == first else 1
                head = groups[:-1] if m > 1 else groups
                yield from extend(head + ((cost[cell % servers][m], cell, m),),
                                  step + (1 << bits * cell), sent + 1, cell)
            yield groups, step, sent, groups[-1][1] // servers if groups else arrival

        return list(extend((), 0, 0, arrival * servers))

    # per packet its schedules' values, less those that cannot pay `emin` per
    # fragment sent: discarding everything strictly dominates them
    plans, static = [], []
    for p in packets:
        i = tab.index[p.id]
        plan_i, best = [], 0
        for groups, step, sent, last in shape(p.arrival, p.subpackets):
            value = tab.term(i, sent, last)
            if value >= emin * sent:
                plan_i.append((groups, step, value))
                best = max(best, value - emin * sent)
        plans.append(plan_i)
        static.append(best)
    suffix_best = [0] * (len(packets) + 1)
    for i in range(len(packets) - 1, -1, -1):
        suffix_best[i] = suffix_best[i + 1] + static[i]

    # the non-empty candidates by value, highest first, for the occupancy bound
    ranked = [sorted(((g, v) for g, _, v in plan_i if g), key=lambda c: -c[1]) for plan_i in plans]
    n = len(packets)
    # packets i.. reach only the cells from their earliest arrival on, a suffix
    # of the cells, so `code >> shift[i]` is the occupancy they can see
    shift = [bits * servers * min(p.arrival for p in packets[i:]) for i in range(n)]
    memo: list[dict[int, int]] = [{} for _ in range(n)]
    stored = 0
    chosen: list[int] = [0] * n
    best_choice: list[int] = []
    floor = 0  # a leaf must reach it: 0 (all-discard) first, then the incumbent + 1
    nodes = 0

    def dfs(i: int, partial: int, code: int):
        nonlocal nodes, best_choice, floor, stored
        if i == n:
            if partial >= floor:
                best_choice = chosen.copy()
                floor = partial + 1
            return
        bound = partial + suffix_best[i]
        if bound < floor:
            return
        # an earlier prefix reached the same visible occupancy with no less value
        seen = memo[i]
        key = code >> shift[i]
        best_seen = seen.get(key)
        if best_seen is not None:
            if best_seen >= partial:
                return
            seen[key] = partial
        elif stored < MEMO_CAP:
            seen[key] = partial
            stored += 1
        # replace each packet's static term by its term at the current occupancy
        for j in range(i, n):
            best = 0
            for groups, value in ranked[j]:
                if value <= best:
                    break
                for row, cell, _ in groups:
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
        rest = bound - own
        # every candidate of this packet is tried, so count them all up front
        nodes += len(plans[i])
        if nodes > budget:
            raise BudgetError(too_large)
        for ci, (groups, step, value) in enumerate(plans[i]):
            if rest + value < floor:
                continue
            for row, cell, _ in groups:
                value -= row[counts[cell]]
            if rest + value < floor:
                continue
            for _, cell, m in groups:
                counts[cell] += m
            chosen[i] = ci
            dfs(i + 1, partial + value, code + step)
            for _, cell, m in groups:
                counts[cell] -= m

    dfs(0, 0, 0)
    assert floor > 0  # the all-discard assignment always reaches the first floor
    best_total = floor - 1

    alloc = Allocation()
    for i, p in enumerate(packets):
        groups = plans[i][best_choice[i]][0]
        bins = [Bin(slot=cell // servers, server=cell % servers) for _, cell, m in groups for _ in range(m)]
        for j, b in enumerate(bins + [DISCARD] * (p.subpackets - len(bins)), start=1):
            alloc.add(SubpacketRef(p.id, j), b)
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
