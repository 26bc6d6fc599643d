"""Exact max-weight bipartite matching and the online matcher with bin locking.

Graphs keep their weights as integers over one common scale, so the solver's
every comparison is exact integer arithmetic. A rank-field secondary weight
per edge makes the optimal matching unique: among equal-weight matchings the
one preferring edges in (left rank, right rank) order wins. That is, at the
first left, in rank order, where two matchings differ, the one matching it to
the lower-ranked right wins, and a matched left beats an unmatched one. Edge
(l, r) carries `|R| - r` in a bit field of its own for left l, fields ordered
by left rank (`_Hungarian` shows why this orders matchings exactly as the
rule says), so runs and traces are reproducible.

One solver state (matching plus duals) serves both uses. Between operations
every edge is dual-feasible, every matched edge is tight, and right duals are
non-negative and zero on free rights, so the matching is optimal for the live
nodes. The offline solve, `max_weight_matching(graph)`, adds every left node
of the whole graph, one augmenting phase each.

The online algorithm keeps that state alive for the whole run: its matching
is the tentative matching between arrived-unlocked left nodes and unlocked
bins. An arrival costs one augmenting phase; when a bin locks, its tentative
edge (if any) becomes permanent and both endpoints retire, which keeps the
rest optimal at no cost. The marginals of all matched bins come from one
reverse shortest-path pass over the duals (`_Hungarian.drop_losses`).
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .model import (
    AqiError,
    Instance,
    rational_to_json,
)
from .valuation import tables

ZERO = Fraction(0)


class MatchingError(AqiError):
    pass


class BipartiteGraph:
    """Weighted bipartite instance with timed left arrivals and right locks.

    `left_order` / `right_order` fix the canonical node ranking used for
    tie-breaking. Absent weight entries are unmatchable pairs; stored weights
    must be non-negative. The weights are kept once, as integers over one
    common `scale`: `rows[l]` maps a right rank to the scaled weight of
    (left l, that right). `weights` is the exact `Fraction` mapping, built
    when first read.
    """

    def __init__(self, left_order: list[str], right_order: list[str],
                 arrivals: dict[str, Fraction], locks: dict[str, Fraction],
                 weights: dict[tuple[str, str], Fraction], label: str = ""):
        self._set_nodes(left_order, right_order, arrivals, locks, label)
        left, right = self._left_rank, self._right_rank
        for (a, b), w in weights.items():
            if a not in left or b not in right:
                raise MatchingError(f"edge ({a!r}, {b!r}) references unknown nodes")
            if w < 0:
                raise MatchingError(f"edge ({a!r}, {b!r}) has negative weight {w}")
        self.scale = scale = math.lcm(*(w.denominator for w in weights.values()))
        self.rows: list[dict[int, int]] = [{} for _ in left_order]
        for (a, b), w in weights.items():
            self.rows[left[a]][right[b]] = w.numerator * (scale // w.denominator)

    @classmethod
    def from_rows(cls, left_order: list[str], right_order: list[str],
                  arrivals: dict[str, Fraction], locks: dict[str, Fraction],
                  rows: list[dict[int, int]], scale: int, label: str = "") -> BipartiteGraph:
        """A graph whose weights are already integers over `scale`, in the
        layout of `rows`; the caller guarantees them non-negative."""
        graph = cls.__new__(cls)
        graph._set_nodes(left_order, right_order, arrivals, locks, label)
        graph.rows, graph.scale = rows, scale
        return graph

    def _set_nodes(self, left_order, right_order, arrivals, locks, label) -> None:
        self.left_order, self.right_order = left_order, right_order
        self.arrivals, self.locks, self.label = arrivals, locks, label
        self._left_rank = {a: i for i, a in enumerate(left_order)}
        self._right_rank = {b: i for i, b in enumerate(right_order)}
        if len(self._left_rank) != len(left_order) or len(self._right_rank) != len(right_order):
            raise MatchingError("duplicate node ids")
        for side, what, nodes, times in (("left", "arrival", self._left_rank, arrivals),
                                         ("right", "lock", self._right_rank, locks)):
            for x in nodes:
                if x not in times:
                    raise MatchingError(f"{side} node {x!r} has no {what} time")
            for x in times:
                if x not in nodes:
                    raise MatchingError(f"{what} time for unknown {side} node {x!r}")

    @cached_property
    def weights(self) -> dict[tuple[str, str], Fraction]:
        left, right, scale = self.left_order, self.right_order, self.scale
        return {(left[li], right[ri]): Fraction(w, scale)
                for li, row in enumerate(self.rows) for ri, w in row.items()}


@dataclass
class MatchingResult:
    pairs: dict[str, str]  # left -> right
    weight: Fraction


def max_weight_matching(graph: BipartiteGraph) -> MatchingResult:
    """Maximum-weight matching of the whole graph, unique under the module's
    tie rule; left nodes may stay unmatched at value 0."""
    solver = _Hungarian(graph)
    for li in range(len(graph.left_order)):
        solver.add_left(li)
    pairs = {graph.left_order[li]: graph.right_order[ri]
             for li, ri in enumerate(solver.match_l) if ri < solver.nr}
    return MatchingResult(pairs=pairs, weight=Fraction(solver.total, solver.scale))


class _Hungarian:
    """Matching plus duals over lefts x (rights + one dummy sink per left).

    Nodes are graph ranks; right `nr + li` is the dummy sink of left `li`, a
    weight-0 edge meaning "unmatched". Weights are (primary, secondary)
    integer pairs compared lexicographically. Between operations, over the
    lefts added and not dropped and the live rights:
      - every edge is dual-feasible: lu[l] + lv[r] >= w(l, r);
      - every matched edge is tight: lu[l] + lv[r] == w(l, r);
      - lv >= 0, and lv == 0 on every free right.
    Complementary slackness then makes the matching optimal, and the
    secondaries make the optimum unique. Dropping a node only removes
    constraints, so the rest stays optimal; a new left (its lu set to cover
    its edges) or the mate of a dropped right is then the only free left, and
    one augmenting phase from it restores optimality. What that phase would
    cost for every matched right at once is `drop_losses`.

    The secondary of edge (l, r) is `(C - r) << (B * (L - 1 - l))` with
    `L = |L|`, `C = |R|` and `B = C.bit_length()`; sink edges have 0. Every
    left owns a disjoint B-bit field, and a matching puts at most one value
    `v_l = C - r` in it, with 1 <= v_l <= C < 2**B, so summing never
    carries: a matching's secondary spells out its vector (v_0, ..., v_{L-1}),
    with v_l = 0 where l is unmatched, and comparing two sums compares those
    vectors lexicographically. That is the module's tie rule, and distinct
    matchings have distinct vectors, so the optimum is unique. (A one-hot
    secondary `1 << (L*C - l*C - r)` spells out the same vector, one C-bit
    block per left, and orders matchings identically with |L| x |R| bits.)
    The primaries are untouched, so the matching, its weight and
    `drop_losses`, which reads primaries only, do not depend on the encoding.
    """

    def __init__(self, graph: BipartiteGraph):
        self.scale = graph.scale
        nl = len(graph.left_order)
        self.nr = nr = len(graph.right_order)
        bits = nr.bit_length()
        # read-only: per-left {right rank: (primary, secondary)}
        self.adj: list[dict[int, tuple[int, int]]] = []
        for li, row in enumerate(graph.rows):
            shift = bits * (nl - 1 - li)
            edges = {ri: (w, (nr - ri) << shift) for ri, w in row.items()}
            edges[nr + li] = (0, 0)
            self.adj.append(edges)
        # read-only: per-right [(left rank, primary weight)], built by the
        # first `drop_losses`, so the offline solve never pays for it
        self.radj: list[list[tuple[int, int]]] | None = None
        self.lu: list = [None] * nl
        self.lv = [(0, 0)] * (nr + nl)
        self.match_l: list[int | None] = [None] * nl
        self.match_r: list[int | None] = [None] * (nr + nl)
        self.live = [True] * (nr + nl)
        self.total = 0  # primary weight of the matched real edges

    def add_left(self, li: int) -> None:
        lv = self.lv
        self.lu[li] = max((w[0] - lv[ri][0], w[1] - lv[ri][1])
                          for ri, w in self.adj[li].items() if self.live[ri])
        self.phase(li)

    def drop_right(self, ri: int) -> int | None:
        """Remove right `ri`; returns its former mate, now free."""
        self.live[ri] = False
        li = self.match_r[ri]
        if li is not None:
            self.match_r[ri] = self.match_l[li] = None
            self.total -= self.adj[li][ri][0]
        return li

    def drop_left(self, li: int) -> None:
        """Remove the free left `li` (the mate `drop_right` returned) and its sink."""
        self.live[self.nr + li] = False

    def drop_losses(self) -> dict[int, int]:
        """{real right: primary weight lost by dropping it} for every matched
        real right, from one pass and without changing the state.

        Dropping right `r` frees only its mate `l`, and one phase from `l`
        follows a shortest augmenting path in reduced costs
        `lu[l2] + lv[r2] - w(l2, r2)`, ending at a free live right (`l`'s own
        sink at worst). Along an alternating path the matched edges are tight
        and the end right's dual is 0, so the path's weight gain telescopes to
        `lu[l]` minus its reduced cost: a shortest path of cost `d(l)` gains
        `lu[l] - d(l)`, and the loss is `w(l, r) - lu[l] + d(l) = lv[r] + d(l)`
        since `(l, r)` is tight. A path through `r` returns to `l`, a cycle of
        non-negative cost, so `d(l)` is the same with `r` still live.

        The primary parts alone give the primary loss. The primary duals are
        feasible (a lexicographic `>=` implies `>=` on the first component),
        tight on matched edges and 0 on free rights, so the argument holds for
        them; and the phase's lexicographically shortest path has as its first
        component the least first component of any path. One multi-source
        Dijkstra run backwards from the free live rights, over the in-edge
        lists `radj`, gives `d` for every active left at once: a right's
        distance is 0 if free and its mate's otherwise.
        """
        if self.radj is None:
            self.radj = [[] for _ in self.lv]
            for li, row in enumerate(self.adj):
                for ri, w in row.items():
                    self.radj[ri].append((li, w[0]))
        lv, radj, live, match_l, match_r = self.lv, self.radj, self.live, self.match_l, self.match_r
        nr, inf = self.nr, math.inf
        # primary duals of the active lefts (added, sink still live), else None
        u = [None if d is None or not live[nr + li] else d[0] for li, d in enumerate(self.lu)]
        best: dict[int, int] = {}  # least distance offered so far, per active left
        for ri, mate in enumerate(match_r):
            if mate is None and live[ri]:  # free: distance 0 and dual 0
                for li, w in radj[ri]:
                    if u[li] is not None and u[li] - w < best.get(li, inf):
                        best[li] = u[li] - w
        heap = [(d, li) for li, d in best.items()]
        heapq.heapify(heap)
        dist: dict[int, int] = {}
        while heap:
            d, li = heapq.heappop(heap)
            if li in dist:
                continue
            dist[li] = d
            ri = match_l[li]  # its distance is d, and its in-edges lead on
            d += lv[ri][0]
            for l2, w in radj[ri]:
                if u[l2] is not None and d + u[l2] - w < best.get(l2, inf):
                    best[l2] = d + u[l2] - w
                    heapq.heappush(heap, (best[l2], l2))
        return {ri: lv[ri][0] + dist[li] for ri, li in enumerate(match_r[:nr]) if li is not None}

    def phase(self, root: int) -> None:
        """Augment along a shortest path from the free left `root`."""
        lu, lv, adj, live = self.lu, self.lv, self.adj, self.live
        match_l, match_r = self.match_l, self.match_r
        zero = (0, 0)
        in_s = {root}
        in_t: set[int] = set()
        tree_parent: dict[int, int] = {}
        min_slack: dict[int, tuple[tuple[int, int], int]] = {}
        for ri, w in adj[root].items():
            if live[ri]:
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
                    self.total += adj[li][ri][0] - (0 if prev is None else adj[li][prev][0])
                    if prev is None:
                        break
                    ri = prev
                break
            in_s.add(occupant)
            for ri, w in adj[occupant].items():
                if ri in in_t or not live[ri]:
                    continue
                sl = (lu[occupant][0] + lv[ri][0] - w[0], lu[occupant][1] + lv[ri][1] - w[1])
                if ri not in min_slack or sl < min_slack[ri][0]:
                    min_slack[ri] = (sl, occupant)


# ---------------------------------------------------------------------------
# Online algorithm with vertex locking
# ---------------------------------------------------------------------------

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


def run_online_matching(graph: BipartiteGraph) -> MatchRun:
    """Run the online matching algorithm over the graph's arrival and lock
    times.

    Arrivals are processed one at a time, each extending the tentative
    matching by one augmenting phase; locks sharing a timestamp fire as one
    batch against the current tentative matching, after any arrivals at the
    same instant. Simultaneous arrivals, and the locks of one batch, go in
    rank order. The trace records, at every event, the constrained matching
    weight and each bin's marginal value: its weight contribution while
    unlocked (`_Hungarian.drop_losses`), its locked-in edge weight afterwards.
    """
    arrivals = sorted((t, graph._left_rank[a], a) for a, t in graph.arrivals.items())
    locks = sorted((t, graph._right_rank[b], b) for b, t in graph.locks.items())
    live = _Hungarian(graph)
    perm: dict[str, tuple[str, Fraction]] = {}
    perm_weight = ZERO
    events: list[MatchEvent] = []

    def marginals() -> dict[str, Fraction]:
        losses = live.drop_losses()
        return {b: perm[b][1] if b in perm else Fraction(losses[ri], live.scale) if ri in losses else ZERO
                for ri, b in enumerate(graph.right_order)}

    def record(clock, kind, subject, arrival_gain=None) -> None:
        temp_weight = Fraction(live.total, live.scale)
        events.append(MatchEvent(
            clock=clock, kind=kind, subject=subject,
            temp_weight=temp_weight, perm_weight=perm_weight,
            total_weight=temp_weight + perm_weight,
            marginals=marginals(), arrival_gain=arrival_gain,
        ))

    ai = 0
    li = 0
    while ai < len(arrivals) or li < len(locks):
        next_arrival = arrivals[ai][0] if ai < len(arrivals) else None
        next_lock = locks[li][0] if li < len(locks) else None
        # arrivals strictly before locks at the same clock
        if next_lock is None or (next_arrival is not None and next_arrival <= next_lock):
            clock, rank, a = arrivals[ai]
            ai += 1
            before = live.total
            live.add_left(rank)
            record(clock, "arrival", [a], Fraction(live.total - before, live.scale))
        else:
            clock = next_lock
            batch = []
            while li < len(locks) and locks[li][0] == clock:
                _, ri, b = locks[li]
                li += 1
                batch.append(b)
                mate = live.drop_right(ri)
                if mate is not None:
                    w = Fraction(live.adj[mate][ri][0], live.scale)
                    perm[b] = (graph.left_order[mate], w)
                    perm_weight += w
                    live.drop_left(mate)
            record(clock, "lock", batch)
    return MatchRun(graph=graph, perm=perm, weight=perm_weight, events=events)


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

def expand_binary(inst: Instance) -> BipartiteGraph:
    """Expand a unit-packet instance into the timed bipartite graph.

    Packets rank by (arrival, id). Slot t carries mini-slots `b{t}.{i}`,
    i = 1..K, ranked by (t, i) and locking at the end of t, where K is the
    number of packets arrived by t. Packet p's edge to `b{t}.{i}` weighs its
    transmit value at t less the i-th energy increment; negative edges are
    dropped.

    The offline optimum needs no more mini-slots: with n in every slot it is
    the same matching. Energy increments are convex non-decreasing (checked
    here). Were packet l at a position p > K of slot t in that optimum, some
    q <= K there would be free, as only the K arrived packets have edges into
    slot t, and w(l, q) >= w(l, p); moving l to q loses no weight and wins the
    tie rule at l. The shared rights keep their relative ranks, so the tie
    rule orders matchings of this graph as it does there.
    """
    if not inst.is_binary():
        raise AqiError("binary expansion requires unit packets")
    if inst.servers != 1:
        raise AqiError("binary expansion is defined for single-server instances")
    tab = tables(inst)
    tab.require_convex_energy("the binary expansion")
    packets = sorted(inst.packets, key=lambda p: (p.arrival, p.id))
    n = len(packets)
    left_order = [p.id for p in packets]
    arrivals = {p.id: Fraction(p.arrival) for p in packets}
    right_order: list[str] = []
    locks: dict[str, Fraction] = {}
    # every edge is an integer subtraction in the instance's tables; the
    # packets arrived by slot t are the first ones in arrival order
    increments = tab.energy_inc[0]
    index = [tab.index[p.id] for p in packets]
    rows: list[dict[int, int]] = [{} for _ in packets]
    arrived = 0
    for t in range(inst.horizon + 1):
        while arrived < n and packets[arrived].arrival <= t:
            arrived += 1
        base = len(right_order)
        lock = Fraction(t)
        for i in range(1, arrived + 1):
            b = f"b{t}.{i}"
            right_order.append(b)
            locks[b] = lock
        for li in range(arrived):
            term = tab.term(index[li], 1, t)
            row = rows[li]
            for pos in range(arrived):
                if term >= increments[pos]:
                    row[base + pos] = term - increments[pos]
    return BipartiteGraph.from_rows(left_order, right_order, arrivals, locks,
                                    rows, tab.scale, label=inst.label)
