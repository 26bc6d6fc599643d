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
  placed there pays at least this much.

The occupancy bound scans a packet's schedules by their `top`, highest
first: the schedule's value less what its bins charge when empty, the sum
of E(m) - E(0) over its bins. A step never shrinks as its bin fills, so no
schedule is worth more at any occupancy than its top, and the scan stops at
the first top no better than its running best, with the same best as a
scan of every schedule. Each schedule's top is summed up as its shape is
built, one bin at a time, and the search loop skips a candidate whose top
cannot reach the floor before it reads the occupancy.

A subtree is pruned when `partial + bound < floor`. One greedy dive sets
the first floor: packets by descending static term, ties by id, each take
their best candidate at the dive's own occupancy or are discarded when none
gains more than 0. Of the candidates that gain the most, the dive takes the
one of highest raw value, then of lowest index in key order, so it reads
the same top-ordered list but stops only at a top below its best gain: a
candidate whose top equals that gain can still tie it. The dive charges each
bin's energy steps in sequence, so its total D is the exact value of a
feasible allocation, and D <= the optimum; it expands no search node and is
not charged to the budget. The floor is D until a leaf reaches it, and one
more than the incumbent after that (all values are integers, so this is
`<=` against the incumbent). Leaves are visited in ascending key order and
a leaf is accepted when `partial >= floor`: the first leaf worth the
optimum reaches the floor even when D is the optimum itself, as it is on
110 of the 200 general acceptance instances. The dive's own allocation is
never reported unless it is that first leaf.

Occupancy memo: what packets i.. can add depends only on the occupancy of
the cells they can reach, the slots from their earliest arrival on. The
memo maps (i, that occupancy) to the highest partial value seen there, and
a node whose partial value is no higher is skipped. The occupancy is one
integer: each schedule carries its code, 1 << (bits * cell) summed over its
fragments with bits = total_subpackets.bit_length(), a node passes its code
plus a candidate's to the child, and the key is that sum shifted right past
the cells before the earliest arrival. No count reaches 2**bits, so equal
keys mean equal counts. A candidate's key is tested in the parent, before
its counts are added or its child is called, so a skipped node costs one
lookup. This is safe for the same reason as pruning. Once the search leaves
a subtree, every leaf in it is below the floor: it was rejected (below D or
the incumbent), set the floor one above itself, or was pruned while below a
floor that never falls. The skipped node is visited later in key order, and
each of its completions adds the same value to no more partial value, so it
scores no more than the same completion of the earlier node: below the
floor too, never accepted. The first maximizer in key order is worth at
least D and more than every leaf before it, so it is at or above the floor
when the search reaches it; no subtree holding it is pruned or skipped, and
the reported optimum is the lexicographically smallest maximizer. The table
is capped at `MEMO_CAP` entries, the root taking one place though it is
never keyed; once full it only answers lookups (keeping or raising a stored
value), which skips fewer nodes and changes no answer. `nodes` counts the
schedules tried at the expanded search nodes.

Before it builds the energy step table or any schedule, the search charges
both against the node budget, in closed form: the schedules times the cells
(each schedule's code and each memo key are bits x cells wide, under one
machine word per cell), and the table's entries, len(row) + 1 - m per
server row and m up to the largest packet, times the machine words of its
widest prefix sum. Steep energy on a long packet makes the table, not the
search, the cost (3,000 fragments of energy 2**(64 c) - 1 in one bin hold
4.5M entries of up to 3,000 words), so it is refused there with the same
budget error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import comb

from .model import (
    DEFAULT_BUDGET,
    DISCARD,
    Allocation,
    AqiError,
    Bin,
    BudgetError,
    Instance,
    SubpacketRef,
    rational_to_json,
)
from .matching import MatchingResult, expand_binary, max_weight_matching
from .valuation import Valuation, evaluate, tables

# most occupancy-memo entries one search keeps; once full it stops inserting
MEMO_CAP = 1 << 16


@dataclass
class OracleResult:
    allocation: Allocation
    valuation: Valuation
    nodes: int


def offline_optimal(inst: Instance, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Exact maximum-value allocation by pruned exhaustive search.

    Raises BudgetError, never approximating, once more than `budget` search
    nodes are expanded, and before any schedule or energy step is built when
    the packets' in-order schedules times the cells, plus the step table's
    entries times its words, pass `budget` (see the module docstring): that
    caps the schedules built, the cells each memo key reads and the table's
    memory. Recursing past Python's limit, once per fragment or packet,
    raises it too.
    """
    tab = tables(inst)
    tab.require_convex_energy("the search bound")
    packets = sorted(inst.packets, key=lambda p: p.id)
    servers = inst.servers
    ncells = servers * (inst.horizon + 1)
    too_large = f"instance too large for exact oracle: more than {budget} nodes"
    too_deep = "instance too deep for exact oracle: past Python's recursion limit"
    # k fragments over the n cells a packet reaches: comb(n + k, k) schedules,
    # each charged once per cell, since its code and every memo key hold a
    # field per cell
    schedule_cells = ncells * sum(comb(max(ncells - p.arrival * servers, 0) + p.subpackets, p.subpackets)
                                  for p in packets)
    # the energy table below holds len(row) + 1 - m entries per row and m <=
    # most, each charged the machine words of the widest prefix sum, E(len) - E(0)
    most = max((p.subpackets for p in packets), default=0)
    entries = sum(most * (len(row) + 1) - most * (most + 1) // 2 for row in tab.energy_inc)
    words = 1 + max(sum(row).bit_length() for row in tab.energy_inc) // 64
    if schedule_cells + entries * words > budget:
        raise BudgetError(too_large)

    # m more fragments in a bin of occupancy c cost E(c + m) - E(c) =
    # `cost[server][m][c]`
    emin = min(row[0] for row in tab.energy_inc)
    cost = []
    for row in tab.energy_inc:
        cum = list(accumulate(row, initial=0))
        cost.append([None] + [[b - a for a, b in zip(cum, cum[m:])] for m in range(1, most + 1)])
    counts = [0] * ncells  # fragments per cell on the current search path

    # a count per cell, each in a field of `bits` bits: no count passes
    # total_subpackets, which is < 2**bits, so equal codes mean equal counts
    bits = inst.total_subpackets.bit_length()

    @cache  # every packet of one (arrival, k) shape shares its schedules
    def shape(arrival: int, k: int) -> list:
        """(groups, fragments sent, last slot, empty energy, code) of every
        schedule of the shape in key order, with one (cost row, cell, m) group
        per bin used; the empty energy is what its bins charge when empty, the
        sum of their rows' `row[0]`, and the code adds 1 << (bits * cell) per
        fragment sent."""
        def extend(groups, sent, first, empty, code):
            for cell in range(first, ncells) if sent < k else ():
                m = groups[-1][2] + 1 if groups and cell == first else 1
                head, below = (groups[:-1], empty - groups[-1][0][0]) if m > 1 else (groups, empty)
                row = cost[cell % servers][m]
                yield from extend(head + ((row, cell, m),), sent + 1, cell, below + row[0],
                                  code + (1 << (bits * cell)))
            yield groups, sent, groups[-1][1] // servers if groups else arrival, empty, code

        try:
            return list(extend((), 0, arrival * servers, 0, 0))
        finally:
            del extend  # a recursive closure is a cycle: free it now, not at a collection

    try:
        schedules = [shape(p.arrival, p.subpackets) for p in packets]
    except RecursionError:
        raise BudgetError(too_deep) from None
    # per packet its schedules' values and tops, less those that cannot pay
    # `emin` per fragment sent: discarding everything strictly dominates them
    plans, static = [], []
    for p, schedules_p in zip(packets, schedules):
        i = inst.index[p.id]
        plan_i, best = [], 0
        for groups, sent, last, empty, code in schedules_p:
            value = tab.term(i, sent, last)
            if value >= emin * sent:
                plan_i.append((groups, value, value - empty, code))
                best = max(best, value - emin * sent)
        plans.append(plan_i)
        static.append(best)
    suffix_best = [0] * (len(packets) + 1)
    for i in range(len(packets) - 1, -1, -1):
        suffix_best[i] = suffix_best[i + 1] + static[i]

    # the non-empty candidates by top, highest first, then by value and plan
    # index, for the occupancy bound and the dive
    tops = [sorted(((top, value, -ci, groups) for ci, (groups, value, top, _) in enumerate(plan_i) if groups),
                   reverse=True) for plan_i in plans]
    n = len(packets)
    # packets i.. reach only the cells from their earliest arrival on, so
    # `code >> shift[i]` holds the occupancy they can see
    shift = [bits * servers * min(p.arrival for p in packets[i:]) for i in range(n)]
    memo: list[dict[int, int]] = [{} for _ in range(n)]
    # each child is keyed before it is entered; the root, never keyed, still
    # takes one of the MEMO_CAP places
    stored = min(1, MEMO_CAP)
    chosen: list[int] = [0] * n
    best_choice: list[int] | None = None
    # a leaf must reach the floor: the greedy dive's value first, then the
    # incumbent + 1. The dive places packets by descending static term, each in
    # its best schedule at the dive's own occupancy, ties to the higher raw
    # value, then the lower plan index, or discards it
    occupancy = [0] * ncells
    floor = 0
    for j in sorted(range(n), key=lambda j: -static[j]):
        best, pick = (0, 0, 0), ()
        for top, value, order, groups in tops[j]:
            if top < best[0]:
                break
            gain = value
            for row, cell, _ in groups:
                gain -= row[occupancy[cell]]
            if gain > 0 and (gain, value, order) > best:
                best, pick = (gain, value, order), groups
        for _, cell, m in pick:
            occupancy[cell] += m
        floor += best[0]
    nodes = 0

    def dfs(i: int, partial: int, code: int):
        """Search packets i.. after a prefix worth `partial` that left the counts
        `code`. No node starts below the floor: a child is entered at a bound no
        higher than its static one, the root's is >= the dive's."""
        nonlocal nodes, best_choice, floor, stored
        if i == n:
            if partial >= floor:
                best_choice = chosen.copy()
                floor = partial + 1
            return
        # replace each packet's static term by its term at the current occupancy
        bound = partial + suffix_best[i]
        for j in range(i, n):
            best = 0
            for top, value, _, groups in tops[j]:
                if top <= best:
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
        # the memo keys the children, not the leaves
        seen, below = (memo[i + 1], shift[i + 1]) if i + 1 < n else (None, 0)
        # a child must reach rest + its value >= floor; only a child raises the floor
        cut = floor - rest
        for ci, (groups, value, top, delta) in enumerate(plans[i]):
            if top < cut:
                continue
            for row, cell, _ in groups:
                value -= row[counts[cell]]
            if value < cut:
                continue
            worth, child = partial + value, code + delta
            if seen is not None:
                # an earlier prefix reached the same visible occupancy with no less value
                key = child >> below
                best_seen = seen.get(key)
                if best_seen is not None:
                    if best_seen >= worth:
                        continue
                    seen[key] = worth
                elif stored < MEMO_CAP:
                    seen[key] = worth
                    stored += 1
            for _, cell, m in groups:
                counts[cell] += m
            chosen[i] = ci
            dfs(i + 1, worth, child)
            for _, cell, m in groups:
                counts[cell] -= m
            cut = floor - rest

    try:
        dfs(0, 0, 0)
    except RecursionError:
        raise BudgetError(too_deep) from None
    finally:
        # dfs reaches itself through its closure: without this the cycle keeps
        # every table of the search alive until the next cyclic collection
        del dfs
    # the optimum is a leaf worth no less than the dive, so it reaches the first floor
    assert best_choice is not None
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
