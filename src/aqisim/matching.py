"""Exact max-weight bipartite matching and the online matcher with bin locking.

The solver runs an augmenting-path (potentials) method over integer-scaled
weights so every comparison is exact. A power-of-two secondary weight per
edge makes the optimal matching unique: among equal-weight matchings the one
preferring edges in (left rank, right rank) order wins, so runs and traces
are reproducible.

The online algorithm keeps a tentative matching between arrived-unlocked left
nodes and unlocked bins, recomputing it on every arrival; when a bin locks,
its tentative edge (if any) becomes permanent and both endpoints retire.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .model import (
    AqiError,
    Instance,
    rational_to_json,
)
from .valuation import transmit_weight

ZERO = Fraction(0)


class MatchingError(AqiError):
    pass


class SequencingError(AqiError):
    pass


@dataclass
class BipartiteGraph:
    """Weighted bipartite instance with timed left arrivals and right locks.

    `left_order` / `right_order` fix the canonical node ranking used for
    tie-breaking. Absent weight entries are unmatchable pairs; stored weights
    must be non-negative.
    """

    left_order: list[str]
    right_order: list[str]
    arrivals: dict[str, Fraction]
    locks: dict[str, Fraction]
    weights: dict[tuple[str, str], Fraction]
    label: str = ""

    def __post_init__(self):
        left = set(self.left_order)
        right = set(self.right_order)
        if len(left) != len(self.left_order) or len(right) != len(self.right_order):
            raise MatchingError("duplicate node ids")
        for a in self.left_order:
            if a not in self.arrivals:
                raise MatchingError(f"left node {a!r} has no arrival time")
        for b in self.right_order:
            if b not in self.locks:
                raise MatchingError(f"right node {b!r} has no lock time")
        for (a, b), w in self.weights.items():
            if a not in left or b not in right:
                raise MatchingError(f"edge ({a!r}, {b!r}) references unknown nodes")
            if w < 0:
                raise MatchingError(f"edge ({a!r}, {b!r}) has negative weight {w}")
        self._left_rank = {a: i for i, a in enumerate(self.left_order)}
        self._right_rank = {b: i for i, b in enumerate(self.right_order)}
        self._scaled: tuple[int, dict] | None = None

    def scaled_weights(self) -> tuple[int, dict]:
        """(scale, {(a, b): (int weight, secondary)}) with exact integer scaling."""
        if self._scaled is None:
            scale = 1
            for w in self.weights.values():
                scale = math.lcm(scale, w.denominator)
            npairs = len(self.left_order) * len(self.right_order)
            ncols = len(self.right_order)
            table = {}
            for (a, b), w in self.weights.items():
                pos = self._left_rank[a] * ncols + self._right_rank[b]
                table[(a, b)] = (int(w * scale), 1 << (npairs - pos))
            self._scaled = (scale, table)
        return self._scaled

    def adjacency(self, a: str) -> list[str]:
        return [b for b in self.right_order if (a, b) in self.weights]

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "left": [{"id": a, "arrival": rational_to_json(self.arrivals[a])} for a in self.left_order],
            "right": [{"id": b, "lock": rational_to_json(self.locks[b])} for b in self.right_order],
            "edges": [
                {"left": a, "right": b, "weight": rational_to_json(w)}
                for (a, b), w in sorted(self.weights.items())
            ],
        }


@dataclass
class MatchingResult:
    pairs: dict[str, str]  # left -> right, forced edges included
    weight: Fraction


def max_weight_matching(
    graph: BipartiteGraph,
    forced: tuple[tuple[str, str], ...] = (),
    left_subset: set[str] | None = None,
    right_subset: set[str] | None = None,
) -> MatchingResult:
    """Maximum-weight matching over the given node subsets, containing every
    forced edge; left nodes may stay unmatched at value 0.

    Forced edges are contracted out of the search and re-added afterwards.
    """
    lefts = [a for a in graph.left_order if left_subset is None or a in left_subset]
    rights = [b for b in graph.right_order if right_subset is None or b in right_subset]
    scale, table = graph.scaled_weights()

    used_l: set[str] = set()
    used_r: set[str] = set()
    forced_weight = ZERO
    for a, b in forced:
        if (a, b) not in graph.weights:
            raise MatchingError(f"forced edge ({a!r}, {b!r}) is not in the graph")
        if a in used_l or b in used_r:
            raise MatchingError("forced edges share a node: infeasible")
        if a not in lefts or b not in rights:
            raise MatchingError(f"forced edge ({a!r}, {b!r}) touches an excluded node")
        used_l.add(a)
        used_r.add(b)
        forced_weight += graph.weights[(a, b)]

    free_l = [a for a in lefts if a not in used_l]
    free_r = [b for b in rights if b not in used_r]
    pairs, itotal = _solve_hungarian(free_l, free_r, table)
    for a, b in forced:
        pairs[a] = b
    return MatchingResult(pairs=pairs, weight=Fraction(itotal, scale) + forced_weight)


def _solve_hungarian(lefts: list[str], rights: list[str], table: dict) -> tuple[dict[str, str], int]:
    """Exact maximization with per-left dummy sinks (unmatched = weight 0).

    Weights are (primary, secondary) integer pairs compared lexicographically;
    the secondary component makes the optimum unique.
    """
    nl = len(lefts)
    nr = len(rights)
    if nl == 0:
        return {}, 0
    zero = (0, 0)
    # adjacency per left, dummy edge appended as right index nr + li
    adj: list[list[tuple[int, tuple[int, int]]]] = []
    for li, a in enumerate(lefts):
        row = []
        for ri, b in enumerate(rights):
            w = table.get((a, b))
            if w is not None:
                row.append((ri, w))
        row.append((nr + li, zero))
        adj.append(row)

    lu = [max(w for _, w in row) for row in adj]
    lv = [zero] * (nr + nl)
    match_l: list[int | None] = [None] * nl
    match_r: list[int | None] = [None] * (nr + nl)

    for root in range(nl):
        in_s = {root}
        in_t: set[int] = set()
        tree_parent: dict[int, int] = {}
        min_slack: dict[int, tuple[tuple[int, int], int]] = {}
        for ri, w in adj[root]:
            sl = (lu[root][0] + lv[ri][0] - w[0], lu[root][1] + lv[ri][1] - w[1])
            min_slack[ri] = (sl, root)
        while True:
            best_ri = -1
            best = None
            for ri, (sl, _) in min_slack.items():
                if ri in in_t:
                    continue
                if best is None or sl < best or (sl == best and ri < best_ri):
                    best = sl
                    best_ri = ri
            if best is None:
                raise MatchingError("no augmenting path; dummy sinks missing")
            if best > zero:
                for li in in_s:
                    lu[li] = (lu[li][0] - best[0], lu[li][1] - best[1])
                for ri in in_t:
                    lv[ri] = (lv[ri][0] + best[0], lv[ri][1] + best[1])
                for ri in list(min_slack):
                    if ri not in in_t:
                        sl, src = min_slack[ri]
                        min_slack[ri] = ((sl[0] - best[0], sl[1] - best[1]), src)
            in_t.add(best_ri)
            tree_parent[best_ri] = min_slack[best_ri][1]
            occupant = match_r[best_ri]
            if occupant is None:
                ri = best_ri
                while True:
                    li = tree_parent[ri]
                    prev = match_l[li]
                    match_l[li] = ri
                    match_r[ri] = li
                    if prev is None:
                        break
                    ri = prev
                break
            in_s.add(occupant)
            for ri, w in adj[occupant]:
                if ri in in_t:
                    continue
                sl = (lu[occupant][0] + lv[ri][0] - w[0], lu[occupant][1] + lv[ri][1] - w[1])
                if ri not in min_slack or sl < min_slack[ri][0]:
                    min_slack[ri] = (sl, occupant)

    pairs: dict[str, str] = {}
    total = 0
    for li, a in enumerate(lefts):
        ri = match_l[li]
        if ri is not None and ri < nr:
            b = rights[ri]
            w = table.get((a, b))
            if w is None:
                continue
            pairs[a] = b
            total += w[0]
    return pairs, total


# ---------------------------------------------------------------------------
# Online algorithm with vertex locking
# ---------------------------------------------------------------------------

@dataclass
class MatchState:
    """Live state of one online run.

    Permanent edges only grow and never change; the tentative matching is
    disjoint from them and touches only unlocked nodes.
    """

    arrived: list[str] = field(default_factory=list)
    locked_left: set[str] = field(default_factory=set)
    locked_right: set[str] = field(default_factory=set)
    perm: dict[str, tuple[str, Fraction]] = field(default_factory=dict)  # right -> (left, weight)
    perm_weight: Fraction = ZERO
    temp: dict[str, str] = field(default_factory=dict)  # left -> right
    temp_weight: Fraction = ZERO
    clock: Fraction = ZERO

    def active_left(self) -> set[str]:
        return {a for a in self.arrived if a not in self.locked_left}


@dataclass
class MatchEvent:
    """One processed event: a single arrival or a batch of simultaneous locks."""

    clock: Fraction
    kind: str  # "arrival" | "lock"
    subject: list[str]
    temp_weight: Fraction
    perm_weight: Fraction
    total_weight: Fraction
    marginals: dict[str, Fraction]
    arrival_gain: Fraction | None = None


@dataclass
class MatchRun:
    graph: BipartiteGraph
    perm: dict[str, tuple[str, Fraction]]  # right -> (left, weight)
    weight: Fraction
    events: list[MatchEvent] = field(default_factory=list)

    def trace_jsonl(self) -> str:
        lines = []
        for ev in self.events:
            lines.append(json.dumps({
                "clock": rational_to_json(ev.clock),
                "kind": ev.kind,
                "subject": ev.subject,
                "temp_weight": rational_to_json(ev.temp_weight),
                "perm_weight": rational_to_json(ev.perm_weight),
                "total_weight": rational_to_json(ev.total_weight),
                "arrival_gain": None if ev.arrival_gain is None else rational_to_json(ev.arrival_gain),
                "rho": {b: rational_to_json(v) for b, v in sorted(ev.marginals.items())},
            }, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")


def _event_stream(graph: BipartiteGraph, arrivals, locks):
    if arrivals is None:
        arrivals = sorted(graph.arrivals.items(), key=lambda kv: (kv[1], graph._left_rank[kv[0]]))
        arrivals = [(t, a) for a, t in arrivals]
    else:
        arrivals = [(Fraction(t), a) for t, a in arrivals]
        if sorted(t for t, _ in arrivals) != [t for t, _ in arrivals]:
            raise SequencingError("arrival stream out of order")
        if {a for _, a in arrivals} != set(graph.left_order):
            raise SequencingError("arrival stream disagrees with graph metadata")
    if locks is None:
        locks = sorted(graph.locks.items(), key=lambda kv: (kv[1], graph._right_rank[kv[0]]))
        locks = [(t, b) for b, t in locks]
    else:
        locks = [(Fraction(t), b) for t, b in locks]
        if sorted(t for t, _ in locks) != [t for t, _ in locks]:
            raise SequencingError("lock stream out of order")
        if {b for _, b in locks} != set(graph.right_order):
            raise SequencingError("lock stream disagrees with graph metadata")
    return arrivals, locks


def run_online_matching(graph: BipartiteGraph, arrivals=None, locks=None) -> MatchRun:
    """Run the online matching algorithm over the timed event streams.

    Arrivals are processed one at a time (tentative matching recomputed);
    locks sharing a timestamp fire as one batch against the current tentative
    matching, after any arrivals at the same instant. The trace records, at
    every event, the constrained matching weight and each bin's marginal
    value: its weight contribution while unlocked, its locked-in edge weight
    afterwards.
    """
    arrivals, locks = _event_stream(graph, arrivals, locks)

    state = MatchState()
    events: list[MatchEvent] = []

    def active_right() -> set[str]:
        return {b for b in graph.right_order if b not in state.locked_right}

    def marginals() -> dict[str, Fraction]:
        act_l = state.active_left()
        act_r = active_right()
        matched_rights = {b: a for a, b in state.temp.items()}
        out: dict[str, Fraction] = {}
        for b in graph.right_order:
            if b in state.locked_right:
                out[b] = state.perm[b][1] if b in state.perm else ZERO
            elif b not in matched_rights:
                out[b] = ZERO
            else:
                reduced = max_weight_matching(graph, left_subset=act_l, right_subset=act_r - {b})
                out[b] = state.temp_weight - reduced.weight
        return out

    ai = 0
    li = 0
    while ai < len(arrivals) or li < len(locks):
        next_arrival = arrivals[ai][0] if ai < len(arrivals) else None
        next_lock = locks[li][0] if li < len(locks) else None
        # arrivals strictly before locks at the same clock
        if next_lock is None or (next_arrival is not None and next_arrival <= next_lock):
            state.clock, a = arrivals[ai]
            ai += 1
            state.arrived.append(a)
            before = state.temp_weight
            res = max_weight_matching(graph, left_subset=state.active_left(),
                                      right_subset=active_right())
            state.temp = dict(res.pairs)
            state.temp_weight = res.weight
            events.append(MatchEvent(
                clock=state.clock, kind="arrival", subject=[a],
                temp_weight=state.temp_weight, perm_weight=state.perm_weight,
                total_weight=state.temp_weight + state.perm_weight,
                marginals=marginals(),
                arrival_gain=state.temp_weight - before,
            ))
        else:
            state.clock = next_lock
            batch = []
            while li < len(locks) and locks[li][0] == state.clock:
                batch.append(locks[li][1])
                li += 1
            matched_rights = {b: a for a, b in state.temp.items()}
            for b in batch:
                state.locked_right.add(b)
                a = matched_rights.get(b)
                if a is not None:
                    w = graph.weights[(a, b)]
                    state.perm[b] = (a, w)
                    state.perm_weight += w
                    state.locked_left.add(a)
                    del state.temp[a]
                    state.temp_weight -= w
            events.append(MatchEvent(
                clock=state.clock, kind="lock", subject=batch,
                temp_weight=state.temp_weight, perm_weight=state.perm_weight,
                total_weight=state.temp_weight + state.perm_weight,
                marginals=marginals(),
            ))
    return MatchRun(graph=graph, perm=state.perm, weight=state.perm_weight, events=events)


def bin_marginal_series(run: MatchRun, right_id: str) -> list[Fraction]:
    """Per-event marginal values of one bin across the run's whole lifetime."""
    if right_id not in run.graph._right_rank:
        raise MatchingError(f"unknown right node {right_id!r}")
    return [ev.marginals[right_id] for ev in run.events]


def marginal_monotonicity_violations(run: MatchRun) -> list[tuple[str, int, Fraction, Fraction]]:
    """(bin, event index, previous, current) wherever a bin's marginal drops."""
    out = []
    for b in run.graph.right_order:
        series = bin_marginal_series(run, b)
        for i in range(1, len(series)):
            if series[i] < series[i - 1]:
                out.append((b, i, series[i - 1], series[i]))
    return out


# ---------------------------------------------------------------------------
# Mini-slot expansion of unit-packet instances
# ---------------------------------------------------------------------------

def minislot_id(slot: int, position: int) -> str:
    return f"b{slot}.{position}"


@dataclass
class ExpandedBinary:
    graph: BipartiteGraph
    minislots: dict[str, tuple[int, int]]  # right id -> (slot, position)


def expand_binary(inst: Instance, full_depth: bool = False) -> ExpandedBinary:
    """Expand a unit-packet instance into the timed bipartite graph.

    Each slot t carries mini-slots (t, 1..K) locking at the end of t, where K
    is the number of packets arrived by t (`full_depth` uses the global packet
    count everywhere instead, the offline comparator's view). The edge weight
    of packet p on mini-slot (t, i) is its transmit value at slot t minus the
    i-th marginal energy; strictly negative edges are dropped.
    """
    if not inst.is_binary():
        raise AqiError("binary expansion requires unit packets")
    if inst.servers != 1:
        raise AqiError("binary expansion is defined for single-server instances")
    packets = sorted(inst.packets, key=lambda p: (p.arrival, p.id))
    n = len(packets)
    left_order = [p.id for p in packets]
    arrivals = {p.id: Fraction(p.arrival) for p in packets}
    right_order: list[str] = []
    locks: dict[str, Fraction] = {}
    minislots: dict[str, tuple[int, int]] = {}
    for t in range(inst.horizon + 1):
        depth = n if full_depth else sum(1 for p in packets if p.arrival <= t)
        for i in range(1, depth + 1):
            b = minislot_id(t, i)
            right_order.append(b)
            locks[b] = Fraction(t)
            minislots[b] = (t, i)
    weights: dict[tuple[str, str], Fraction] = {}
    for p in packets:
        for b in right_order:
            t, i = minislots[b]
            if t < p.arrival:
                continue
            w = transmit_weight(inst, p, t, i)
            if w >= 0:
                weights[(p.id, b)] = w
    graph = BipartiteGraph(
        left_order=left_order,
        right_order=right_order,
        arrivals=arrivals,
        locks=locks,
        weights=weights,
        label=inst.label,
    )
    return ExpandedBinary(graph=graph, minislots=minislots)
