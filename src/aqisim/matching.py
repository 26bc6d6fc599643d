"""Exact max-weight bipartite matching and the online matcher with bin locking.

Graphs keep their weights as integers over one common scale, so the solver's
every comparison is exact integer arithmetic. A rank-field secondary weight
per edge makes the optimal matching unique: among equal-weight matchings the
one preferring edges in (left rank, right rank) order wins. That is, at the
first left, in rank order, where two matchings differ, the one matching it to
the lower-ranked right wins, and a matched left beats an unmatched one. Edge
(l, r) carries `|R| - r` in a bit field of its own for left l, fields ordered
by left rank, below its weight in one packed integer per edge
(`BipartiteGraph.packed`; `_Hungarian` shows why comparing packed sums
orders matchings exactly as the rule says), so runs and traces are
reproducible.

One solver state (matching plus duals) serves both uses. Between operations
every edge is dual-feasible, every matched edge is tight, and right duals are
non-negative and zero on free rights, so the matching is optimal for the live
nodes. The offline solve, `max_weight_matching(graph)`, adds every left node
of the whole graph, one augmenting phase each. Given the online run over the
graph, it resumes instead the copy of the run's solver taken just before the
first lock. Until then nothing is dropped, so that state is the optimum over
the arrived lefts with every right live, and the optimum is unique whatever
path reaches it (`_Hungarian`): it is the state a fresh solve reaches once it
has added those lefts. Only the lefts that arrive after the first lock then
take a phase, and none on an instance whose packets all arrive before it.

The online algorithm keeps that state alive for the whole run: its matching
is the tentative matching between arrived-unlocked left nodes and unlocked
bins. An arrival costs one augmenting phase; when a bin locks, its tentative
edge (if any) becomes permanent and both endpoints retire, which keeps the
rest optimal at no cost. The marginals of all matched bins come from one
reverse shortest-path pass over the duals (`_Hungarian.drop_losses`).

Each event costs what it changes, not the whole graph. A phase takes its
slacks from a heap and keeps its dual steps in one running offset, so a
step touches no entry. Of each tree left's edges a phase pushes only those
to matched bins, to its heaviest free bin and to its own free sink: a phase
ends at the first free bin it pops, and among one left's free bins the
heaviest has the least slack. That bin, and each left's seed in loss
passes, is read off a cursor into the left's edges in weight order, which
passes each edge at most once per solver. An event stores its time, weights
and sparse losses as integers and renders their `Fraction` views, its clock
too, only when they are read. The event loop orders events on the graph's
integer times and builds no `Fraction` and no id -> rank map: a run's locks
are one record of integers, `LockLog`, and every event's `perm`, its
marginals and the run's weight are views of it. `matcher_graph`, the
matcher's one way in, refuses an instance past the work budget before it
builds its graph.
"""

from __future__ import annotations

import copy
import heapq
import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from numbers import Rational
from operator import itemgetter

from .model import AqiError, BudgetError, Instance, NumberTexts, shown
from .valuation import tables


class MatchingError(AqiError):
    pass


class Ineligible(MatchingError):
    """An instance the matcher does not run on; the message says what it needs."""


def _rational(x) -> bool:
    """Whether `x` is an int or a Fraction (or another `Rational`), never a
    bool; the two exact types, nearly every value, skip the abc check."""
    return type(x) is int or type(x) is Fraction or (not isinstance(x, bool) and isinstance(x, Rational))


class BipartiteGraph:
    """Weighted bipartite instance with timed left arrivals and right locks.

    `left_order` / `right_order` fix the canonical node ranking used for
    tie-breaking. Absent weight entries are unmatchable pairs; stored weights
    must be non-negative. Weights and times are kept once, as integers by
    rank, and no id -> rank map is kept: `rows[l]` maps a right rank to the
    weight of (left l, that right) over one `scale`, and `arrive[l]` and
    `lock[r]` are times over one `clock_scale`. Their `Fraction` views
    `weights`, `arrivals` and `locks`, and `packed`, the solver's table, are built when read.
    """

    def __init__(self, left_order: list[str], right_order: list[str],
                 arrivals: dict[str, Fraction], locks: dict[str, Fraction],
                 weights: dict[tuple[str, str], Fraction], label: str = ""):
        left = {a: i for i, a in enumerate(left_order)}
        right = {b: i for i, b in enumerate(right_order)}
        if len(left) != len(left_order) or len(right) != len(right_order):
            raise MatchingError("duplicate node ids")
        for side, what, nodes, times in (("left", "arrival", left, arrivals), ("right", "lock", right, locks)):
            for x in nodes:
                if x not in times:
                    raise MatchingError(f"{side} node {shown(x)} has no {what} time")
            for x, t in times.items():
                if x not in nodes:
                    raise MatchingError(f"{what} time for unknown {side} node {shown(x)}")
                if not _rational(t):
                    raise MatchingError(f"{side} node {shown(x)} has {what} time {shown(t)}, not an int or Fraction")
        for (a, b), w in weights.items():
            if a not in left or b not in right:
                raise MatchingError(f"edge ({shown(a)}, {shown(b)}) references unknown nodes")
            if not _rational(w):
                raise MatchingError(f"edge ({shown(a)}, {shown(b)}) has weight {shown(w)}, not an int or Fraction")
            if w < 0:
                raise MatchingError(f"edge ({shown(a)}, {shown(b)}) has negative weight {w}")

        def over_lcm(values: list) -> tuple[list[int], int]:  # as integers over their denominators' lcm
            scale = math.lcm(*(x.denominator for x in values))
            return [x.numerator * (scale // x.denominator) for x in values], scale
        ticks, self.clock_scale = over_lcm([*map(arrivals.get, left_order), *map(locks.get, right_order)])
        scaled, self.scale = over_lcm(list(weights.values()))
        self.rows: list[dict[int, int]] = [{} for _ in left_order]
        for (a, b), w in zip(weights, scaled):
            self.rows[left[a]][right[b]] = w
        self.left_order, self.right_order, self.label = left_order, right_order, label
        self.arrive, self.lock = ticks[:len(left)], ticks[len(left):]

    @classmethod
    def from_rows(cls, left_order: list[str], right_order: list[str], arrive: list[int], lock: list[int],
                  rows: list[dict[int, int]], scale: int, label: str = "") -> BipartiteGraph:
        """A graph whose times are integer slots by rank (clock scale 1) and
        whose weights are integers over `scale` in the layout of `rows`; the
        caller guarantees the ids distinct and the weights non-negative."""
        graph = cls.__new__(cls)
        graph.left_order, graph.right_order, graph.arrive, graph.lock = left_order, right_order, arrive, lock
        graph.rows, graph.scale, graph.label, graph.clock_scale = rows, scale, label, 1
        return graph

    arrivals = cached_property(lambda self: {a: Fraction(t, self.clock_scale)
                                             for a, t in zip(self.left_order, self.arrive)})
    locks = cached_property(lambda self: {b: Fraction(t, self.clock_scale)
                                          for b, t in zip(self.right_order, self.lock)})

    @cached_property
    def weights(self) -> dict[tuple[str, str], Fraction]:
        left, right, scale = self.left_order, self.right_order, self.scale
        return {(left[li], right[ri]): Fraction(w, scale)
                for li, row in enumerate(self.rows) for ri, w in row.items()}

    @property
    def packed_shift(self) -> int:
        """K = |L| * bit_length(|R|) + 1: a weight's place in `packed`, one
        bit above the rank fields (`_Hungarian.drop_losses` needs that bit)."""
        return len(self.left_order) * len(self.right_order).bit_length() + 1

    @cached_property
    def packed(self) -> list[dict[int, int]]:
        """The solver's exact edge weights, one integer per edge, built once
        and shared by every solver over this graph: `packed[l]` maps right
        rank r to `(rows[l][r] << K) | ((|R| - r) << B * (|L| - 1 - l))`, with
        `B = bit_length(|R|)` and `K = packed_shift`, and left l's dummy sink,
        right `|R| + l`, to 0. Read-only."""
        nl, nr, k = len(self.left_order), len(self.right_order), self.packed_shift
        bits = nr.bit_length()
        table = []
        for li, row in enumerate(self.rows):
            shift = bits * (nl - 1 - li)
            edges = {ri: (w << k) | ((nr - ri) << shift) for ri, w in row.items()}
            edges[nr + li] = 0
            table.append(edges)
        return table


@dataclass
class MatchingResult:
    pairs: dict[str, str]  # left -> right
    weight: Fraction


def max_weight_matching(graph: BipartiteGraph, run: MatchRun | None = None) -> MatchingResult:
    """Maximum-weight matching of the whole graph, unique under the module's
    tie rule; left nodes may stay unmatched at value 0.

    Given `run`, an online run over `graph`, it resumes the solver the run
    kept from before its first lock (`MatchRun.resume`) and adds only the
    lefts that solver lacks; the answer is a fresh solve's (see the module
    docstring), and a second call adds no left."""
    if run is not None and run.graph is not graph:
        raise MatchingError("the run is over a different graph")
    solver = _Hungarian(graph) if run is None or run.resume is None else run.resume
    lu = solver.lu
    for li in range(len(graph.left_order)):
        if lu[li] is None:
            solver.phase(li)
    pairs = {graph.left_order[li]: graph.right_order[ri]
             for li, ri in enumerate(solver.match_l) if ri < solver.nr}
    return MatchingResult(pairs=pairs, weight=Fraction(solver.total, solver.scale))


class _Hungarian:
    """Matching plus duals over lefts x (rights + one dummy sink per left).

    Nodes are graph ranks; right `nr + li` is the dummy sink of left `li`, a
    weight-0 edge meaning "unmatched". Weights are the graph's `packed`
    integers, and every dual, slack and heap key is an exact integer on the
    same scale. Between operations, over the lefts added and not dropped and
    the live rights:
      - every edge is dual-feasible: lu[l] + lv[r] >= W(l, r);
      - every matched edge is tight: lu[l] + lv[r] == W(l, r);
      - lv >= 0, and lv == 0 on every free right.
    Complementary slackness then makes the matching optimal for W, and the
    rank fields make the optimum unique. Dropping a node only removes
    constraints, so the rest stays optimal; a new left, or the mate of a
    dropped right, is then the only free left, and one augmenting phase from
    it restores optimality. `phase` runs it for a new left, whose dual enters
    unset (None): its heap keys are `v - W`, the slack less `lu` once `lu =
    max(W - v)` covers its heaviest live edge, so the heap's top gives that
    dual and the phase's starting offset, and an arrival reads its edges
    once. What a phase from the mate would cost, for every matched right at
    once, is `drop_losses`; the online run retires a locked bin's mate.

    `phase` grows its tree from a heap of `(slack + offset, right)`: a dual
    step adds to the running offset, and each tree node takes its dual
    change once, when the phase ends. `phase` finds each tree left's
    heaviest free right, and `drop_losses` its seed, from a cursor per left
    into its real edges in W order, both built with the solver. A cursor
    only moves forward, since a real right never goes from matched back to
    free, online or offline; so every edge is passed at most once per
    solver.

    Why W orders matchings by (weight, tie rule). With `L = |L|`,
    `C = |R|`, `B = C.bit_length()` and `K = L*B + 1`, edge (l, r) packs
    its weight w over the scale as `W = (w << K) | ((C - r) << (B * (L - 1
    - l)))`; sink edges have 0. Every left owns a disjoint B-bit field, and
    a matching puts at most one value `v_l = C - r` in it, with 1 <= v_l <=
    C < 2**B, so summing never carries: a matching's W sum is `P << K`
    plus a secondary S < 2**(K-1) that spells out its vector (v_0, ...,
    v_{L-1}), with v_l = 0 where l is unmatched. Comparing W sums is
    comparing (P, S) lexicographically, and comparing the S parts compares
    those vectors lexicographically: the module's tie rule. Distinct
    matchings have distinct vectors, so the optimum is unique, and an online
    state, the optimum over its live nodes, does not depend on the path
    that reached it. `total`, the weight of the matched real edges, and the
    locked weights are read from the graph's `rows`.
    """

    def __init__(self, graph: BipartiteGraph):
        self.scale, self.rows = graph.scale, graph.rows
        self.adj = graph.packed  # per left {right rank: W}, sink included; read-only
        self.shift = graph.packed_shift
        nl = len(graph.left_order)
        self.nr = nr = len(graph.right_order)
        # built by the first `drop_losses`: per right, its lefts (read-only)
        self.radj: list[list[int]] | None = None
        # per left, its real rights in W order (heavier weight first, then the
        # lower right rank) and a cursor into them
        self.seeds = [sorted([ri for ri in row if ri < nr], key=row.__getitem__, reverse=True)
                      for row in self.adj]
        self.cursor = [0] * nl
        self.lu: list[int | None] = [None] * nl
        self.lv = [0] * (nr + nl)
        self.match_l: list[int | None] = [None] * nl
        self.match_r: list[int | None] = [None] * (nr + nl)
        self.live = [True] * (nr + nl)
        self.total = 0  # weight over the scale of the matched real edges

    def drop_right(self, ri: int) -> int | None:
        """Remove right `ri`; returns its former mate, now free."""
        self.live[ri] = False
        li = self.match_r[ri]
        if li is not None:
            self.match_r[ri] = self.match_l[li] = None
            self.total -= self.rows[li][ri]
        return li

    def drop_left(self, li: int) -> None:
        """Remove the free left `li` (the mate `drop_right` returned) and its
        sink, and clear its dual: `lu[li] is None` means not added, or gone."""
        self.lu[li] = None
        self.live[self.nr + li] = False

    def fork(self) -> _Hungarian:
        """A solver in this one's state: its duals, matching, live flags,
        cursors and total are copied, its read-only tables shared."""
        twin = copy.copy(self)
        twin.lu, twin.lv, twin.cursor = self.lu[:], self.lv[:], self.cursor[:]
        twin.match_l, twin.match_r, twin.live = self.match_l[:], self.match_r[:], self.live[:]
        return twin

    def drop_losses(self) -> dict[int, int]:
        """{real right: weight over the scale lost by dropping it} for every
        matched real right, from one pass and without changing the state.

        Dropping right `r` frees only its mate `l`, and one phase from `l`
        follows a shortest augmenting path in reduced costs
        `lu[l2] + lv[r2] - W(l2, r2)`, ending at a free live right (`l`'s own
        sink at worst). Along an alternating path the matched edges are tight
        and the end right's dual is 0, so the path's W gain telescopes to
        `lu[l]` minus its reduced cost: a shortest path of cost `d(l)` gains
        `lu[l] - d(l)`, and the W loss is `W(l, r) - lu[l] + d(l) = lv[r] +
        d(l)` since `(l, r)` is tight. A path through `r` returns to `l`, a
        cycle of non-negative cost, so `d(l)` is the same with `r` still live.
        One multi-source Dijkstra run backwards from the free live rights,
        over the in-edge lists `radj`, gives `d` for every active left at
        once: a right's distance is 0 if free and its mate's otherwise.

        The W loss is the difference of two optimal W sums, `dP << K` plus
        the difference of their secondaries, each below 2**(K-1); so it is
        `dP * 2**K + dS` with `|dS| < 2**(K-1)`, and rounding it to the
        nearest multiple of 2**K, `(loss + 2**(K-1)) >> K`, gives the weight
        loss dP exactly. The optimum without `r` has the greatest weight of
        any matching without it, so dP is the weight a re-solve would lose.

        A left's seed is `u[l]` less its heaviest W edge to a free live
        right. A real right never goes from matched back to free (a phase
        only adds rights to the matching, and a drop kills one), so the free
        live real rights only shrink: `seeds[l]` lists `l`'s real rights in W
        order, `cursor[l]` moves past each one once it is dead or matched,
        and never back. A sink can go from matched to free, so it is read
        directly: it seeds `u[l]` when free, which never beats a free real
        right's `u[l] - W`.

        The pass reads the duals in place: `lu[l]` is None for a left not yet
        added, or dropped with its locked bin (`drop_left` clears it), so the
        lefts with a dual are exactly the active ones.
        """
        if self.radj is None:  # the offline solve never builds it
            self.radj = [[] for _ in self.lv]
            for li, row in enumerate(self.adj):
                for ri in row:
                    self.radj[ri].append(li)
        adj, lv, radj, seeds, cursor = self.adj, self.lv, self.radj, self.seeds, self.cursor
        u, live, match_l, match_r = self.lu, self.live, self.match_l, self.match_r
        nr = self.nr
        heappop, heappush = heapq.heappop, heapq.heappush
        heap = []  # (seed, left): the least distance via a free live right
        for li, ul in enumerate(u):
            if ul is None:
                continue
            seed, at = seeds[li], cursor[li]
            while at < len(seed):
                ri = seed[at]
                if match_r[ri] is None and live[ri]:
                    heap.append((ul - adj[li][ri], li))
                    break
                at += 1
            else:
                if match_l[li] != nr + li:  # its sink is free
                    heap.append((ul, li))
            cursor[li] = at
        best = [math.inf] * len(u)  # per left, the least distance offered so far
        for d, li in heap:
            best[li] = d
        heapq.heapify(heap)
        dist: list[int | None] = [None] * len(u)
        while heap:
            d, li = heappop(heap)
            if dist[li] is not None:
                continue
            dist[li] = d
            ri = match_l[li]  # its distance is d, and its in-edges lead on
            d += lv[ri]
            for l2 in radj[ri]:
                if u[l2] is not None:
                    d2 = d + u[l2] - adj[l2][ri]
                    if d2 < best[l2]:
                        best[l2] = d2
                        heappush(heap, (d2, l2))
        # a left matched to a real right has a free sink, so it was seeded
        k = self.shift
        half = 1 << (k - 1)
        return {ri: (lv[ri] + dist[li] + half) >> k
                for li, ri in enumerate(match_l) if ri is not None and ri < nr}

    def phase(self, root: int) -> None:
        """Augment along a shortest path from `root`, a left just added.

        The tree's lefts S and rights T take their dual changes once, when
        the phase ends. A running `offset` sums the dual steps so far; every
        tree node keeps the offset it joined at, and a step by slack `s` only
        adds `s` to `offset`. The heap holds `(slack + offset, right)`,
        whose order a step leaves alone, with one entry per strict
        improvement of a right's least slack; an entry whose right is
        already in T is stale and skipped. So the next right is the least
        slack, ties to the lowest right rank, and a right's tree parent is
        the first left that offered that slack. The root's dual enters
        unset and is set from the heap's top (see the class docstring): it
        joins at `u = 0`, so its keys are `v - W`.

        Each tree left walks its row once but pushes only three kinds of
        edge: to matched live rights outside T, to its heaviest free live
        real right (off its cursor), and to its sink when free. A phase
        ends at the first free right it pops. Every free right has dual 0, so
        among one left's free rights the least key is its heaviest W, unique
        by the rank fields. Any other free edge of that left has a strictly
        greater key than that one, which is on the heap, so it is never the
        first free right popped; nor is a later left's edge to the same right,
        which it would have kept off the heap. Matched rights get the same
        entries either way. The heap therefore pops the same rights, in the
        same order, with the same tree parents and dual steps as pushing
        every live edge would.
        """
        lu, lv, adj, rows, live = self.lu, self.lv, self.adj, self.rows, self.live
        match_l, match_r, seeds, cursor, nr = self.match_l, self.match_r, self.seeds, self.cursor, self.nr
        heappop, heappush = heapq.heappop, heapq.heappush
        in_t: dict[int, int] = {}  # tree right -> offset when it joined
        tree_parent: dict[int, int] = {}
        least: dict[int, int] = {}  # right -> least slack + offset so far
        heap = []
        # u is the joining left's dual plus the offset; the root's is unset, so
        # it joins at u = 0 and its keys are v - W
        li, u, offset = root, 0, None
        while True:
            # offer li's edges: to every matched live right outside T, to its
            # heaviest free live real right, and to its sink when free
            for ri, w in adj[li].items():
                if match_r[ri] is not None and live[ri] and ri not in in_t:
                    key = u + lv[ri] - w
                    if ri not in least or key < least[ri]:
                        least[ri] = key
                        heappush(heap, (key, ri, li))
            seed, at = seeds[li], cursor[li]
            while at < len(seed):
                ri = seed[at]
                if match_r[ri] is None and live[ri]:
                    key = u - adj[li][ri]
                    if ri not in least or key < least[ri]:
                        least[ri] = key
                        heappush(heap, (key, ri, li))
                    break
                at += 1
            cursor[li] = at
            ri = nr + li
            if match_r[ri] is None and (ri not in least or u < least[ri]):  # a tree left's sink is live
                least[ri] = u
                heappush(heap, (u, ri, li))
            if offset is None:
                offset = heap[0][0]
                lu[root] = -offset  # covers every live edge, the heaviest tightly
                in_s = {root: offset}  # tree left -> offset when it joined
            while True:
                if not heap:
                    raise MatchingError("no augmenting path; dummy sinks missing")
                key, best_ri, src = heappop(heap)
                if best_ri not in in_t:
                    break
            if key > offset:  # a dual step by the positive slack
                offset = key
            in_t[best_ri] = offset
            tree_parent[best_ri] = src
            occupant = match_r[best_ri]
            if occupant is None:
                ri = best_ri
                while True:
                    li = tree_parent[ri]
                    prev = match_l[li]
                    match_l[li] = ri
                    match_r[ri] = li
                    row = rows[li]  # a sink is absent: weight 0
                    self.total += row.get(ri, 0) - (0 if prev is None else row.get(prev, 0))
                    if prev is None:
                        break
                    ri = prev
                break
            in_s[occupant] = offset
            li, u = occupant, lu[occupant] + offset
        for li, joined in in_s.items():
            lu[li] += joined - offset
        for ri, joined in in_t.items():
            lv[ri] += offset - joined


# ---------------------------------------------------------------------------
# Online algorithm with vertex locking
# ---------------------------------------------------------------------------

class LockLog:
    """The run's one record of its permanent edges over `graph`: each locked
    bin's lock index, mate and weight, in lock order, and `perm[k]`, the
    weight of the first k locks; its events read their `perm` and marginals from it."""

    def __init__(self, graph: BipartiteGraph):
        self.graph = graph
        self.locked: dict[int, tuple[int, int, int]] = {}  # right rank -> (lock index, mate, weight)
        self.perm = [0]

    def add(self, ri: int, mate: int, weight: int) -> None:
        self.locked[ri] = (len(self.locked), mate, weight)
        self.perm.append(self.perm[-1] + weight)

    def marginal(self, ri: int, locks: int, losses: dict[int, int]) -> int:
        """Right `ri`'s marginal over the scale at an event that followed the
        first `locks` locks and recorded `losses`."""
        lock = self.locked.get(ri)
        return lock[2] if lock is not None and lock[0] < locks else losses.get(ri, 0)


@dataclass
class MatchEvent:
    """One processed event: a single arrival or a batch of simultaneous locks.

    Numbers are integers over the graph's scale: weights `temp` and `perm`,
    an arrival's `gain`, and `losses`, each matched unlocked bin's drop loss;
    `locks` counts the entries of `log` made so far, which give `perm`, and
    every other bin's marginal is 0. The `Fraction` views, `clock` too, are rendered anew."""

    tick: int  # its time over the graph's `clock_scale`
    kind: str  # "arrival" | "lock"
    subject: list[str]
    temp: int
    losses: dict[int, int]  # right rank -> drop loss over the scale
    locks: int
    log: LockLog = field(repr=False, compare=False)
    gain: int | None = None

    perm = property(lambda self: self.log.perm[self.locks])
    clock = property(lambda self: Fraction(self.tick, self.log.graph.clock_scale))
    temp_weight = property(lambda self: Fraction(self.temp, self.log.graph.scale))
    perm_weight = property(lambda self: Fraction(self.perm, self.log.graph.scale))
    total_weight = property(lambda self: Fraction(self.temp + self.perm, self.log.graph.scale))
    arrival_gain = property(lambda self: None if self.gain is None else Fraction(self.gain, self.log.graph.scale))

    @property
    def marginals(self) -> dict[str, Fraction]:
        """{bin: marginal value}, over every bin of the graph."""
        log, scale = self.log, self.log.graph.scale
        return {b: Fraction(log.marginal(ri, self.locks, self.losses), scale)
                for ri, b in enumerate(log.graph.right_order)}


@dataclass
class MatchRun:
    """An online run. `perm`, {bin: (mate, weight)} in lock order, and
    `weight`, their sum, are rendered from `log` on each read."""

    graph: BipartiteGraph
    log: LockLog = field(repr=False, compare=False)
    events: list[MatchEvent] = field(default_factory=list)
    # the run's solver as it stood before its first lock (its last state if
    # none fires), which `max_weight_matching(graph, run)` resumes in place
    resume: _Hungarian | None = field(default=None, repr=False, compare=False)

    perm = property(lambda self: {self.graph.right_order[ri]: (self.graph.left_order[li], Fraction(w, self.graph.scale))
                                  for ri, (_, li, w) in self.log.locked.items()})
    weight = property(lambda self: Fraction(self.log.perm[-1], self.graph.scale))

    def trace_jsonl(self) -> str:
        """One JSON line per event, as `json.dumps(..., sort_keys=True)` writes
        it, joined from fragments made once per run: each bin's JSON key, its
        item at marginal 0, and the text of each distinct integer over the
        scale and of each distinct tick. An event's `rho` starts from the
        items of the bins locked by then and rewrites those with a loss."""
        log, lines = self.log, []
        right_order = self.graph.right_order
        keys = [json.dumps(b) + ": " for b in right_order]  # per right rank
        order = sorted(range(len(right_order)), key=right_order.__getitem__)  # `rho`'s key order
        place = [0] * len(order)  # right rank -> its item's place in `rho`
        for at, ri in enumerate(order):
            place[ri] = at
        texts = NumberTexts(self.graph.scale)  # integer over the scale -> JSON text
        clocks = NumberTexts(self.graph.clock_scale)
        zeros = [keys[ri] + "0" for ri in order]
        locked = [(ri, w) for ri, (_, _, w) in log.locked.items()]  # `LockLog.add` inserts in lock order
        fixed, done = zeros[:], 0  # `rho` once the first `done` locks are made
        for ev in self.events:
            if ev.locks < done:  # a run records `locks` non-decreasing; a hand-built one may not
                fixed, done = zeros[:], 0
            for ri, w in locked[done:ev.locks]:
                fixed[place[ri]] = keys[ri] + texts[w]
            done = ev.locks
            rho = fixed[:]
            for ri, x in ev.losses.items():
                lock = log.locked.get(ri)
                if lock is None or lock[0] >= ev.locks:
                    rho[place[ri]] = keys[ri] + texts[x]
            lines.append(
                f'{{"arrival_gain": {"null" if ev.gain is None else texts[ev.gain]}, '
                f'"clock": {clocks[ev.tick]}, "kind": {json.dumps(ev.kind)}, '
                f'"perm_weight": {texts[ev.perm]}, "rho": {{{", ".join(rho)}}}, '
                f'"subject": {json.dumps(ev.subject)}, "temp_weight": {texts[ev.temp]}, '
                f'"total_weight": {texts[ev.temp + ev.perm]}}}'
            )
        return "\n".join(lines) + ("\n" if lines else "")


def run_online_matching(graph: BipartiteGraph) -> MatchRun:
    """Run the online matching algorithm over the graph's arrival and lock times.

    Arrivals are processed one at a time, each extending the tentative
    matching by one augmenting phase; locks sharing a timestamp fire as one
    batch against the current tentative matching, after any arrivals at the
    same instant. Simultaneous arrivals, and the locks of one batch, go in
    rank order. The trace records, at every event, the constrained matching
    weight and each bin's marginal value: its weight contribution while
    unlocked (`_Hungarian.drop_losses`), its locked-in edge weight afterwards.
    Events are ordered on the graph's integer times, `arrive` and `lock`.
    """
    queue = sorted([(t, 0, li) for li, t in enumerate(graph.arrive)] + [(t, 1, ri) for ri, t in enumerate(graph.lock)])
    live = resume = _Hungarian(graph)
    log = LockLog(graph)
    events: list[MatchEvent] = []

    def record(tick, kind, subject, gain=None) -> None:
        events.append(MatchEvent(tick, kind, subject, live.total, live.drop_losses(),
                                 len(log.locked), log, gain))

    # arrivals (kind 0) strictly before locks (kind 1) at the same tick
    for (tick, kind), group in groupby(queue, itemgetter(0, 1)):
        if kind == 0:
            for _, _, li in group:
                before = live.total
                live.phase(li)
                record(tick, "arrival", [graph.left_order[li]], live.total - before)
            continue
        if resume is live:  # the first lock: every right is still live
            resume = live.fork()
        batch = [ri for _, _, ri in group]
        for ri in batch:
            mate = live.drop_right(ri)
            if mate is not None:
                log.add(ri, mate, graph.rows[mate][ri])
                live.drop_left(mate)
        record(tick, "lock", [graph.right_order[ri] for ri in batch])
    return MatchRun(graph=graph, log=log, events=events, resume=resume)


def bin_marginal_series(run: MatchRun, right_id: str) -> list[Fraction]:
    """Per-event marginal values of one bin across the run's whole lifetime."""
    if right_id not in run.graph.right_order:
        raise MatchingError(f"unknown right node {shown(right_id)}")
    ri, log = run.graph.right_order.index(right_id), run.log
    return [Fraction(log.marginal(ri, ev.locks, ev.losses), run.graph.scale) for ev in run.events]


def marginal_monotonicity_violations(run: MatchRun) -> list[tuple[str, int, Fraction, Fraction]]:
    """(bin, event index, previous, current) wherever a bin's marginal drops,
    in bin rank order, then event order.

    Marginals are non-negative, so a drop starts from a nonzero value, and a
    locked bin keeps its weight for good: only the bins with a nonzero loss
    at the previous event can drop. They are compared in integers over the
    scale."""
    log, graph = run.log, run.graph
    drops = []
    for i in range(1, len(run.events)):
        prev, cur = run.events[i - 1], run.events[i]
        for ri, before in prev.losses.items():
            if before:
                after = log.marginal(ri, cur.locks, cur.losses)
                if after < before:
                    drops.append((ri, i, before, after))
    drops.sort()
    return [(graph.right_order[ri], i, Fraction(x, graph.scale), Fraction(y, graph.scale))
            for ri, i, x, y in drops]


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
    return matcher_graph(inst, math.inf, "the binary expansion")


def matcher_graph(inst: Instance, budget: int | float, user: str) -> BipartiteGraph:
    """`expand_binary(inst)`, the graph the online run and the offline optimum
    share, built only when the matcher's work on it stays within `budget`.

    Raises `Ineligible` unless `inst` is single-server with unit packets, and
    BudgetError, naming `user`, when lefts x edges passes `budget`: a phase
    walks each tree left's row once, so an arrival's phase may walk every
    edge. Energy increments do not decrease, so a packet keeps a prefix of
    each slot's positions, counted by `bisect_right` before any edge is built."""
    if not inst.is_binary():
        raise Ineligible("needs a unit-packet instance")
    if inst.servers != 1:
        raise Ineligible("needs a single-server unit-packet instance")
    tab = tables(inst)
    tab.require_convex_energy("the binary expansion")
    packets = inst.by_arrival
    increments, index = tab.energy_inc[0], [inst.index[p.id] for p in packets]
    right_order: list[str] = []
    lock: list[int] = []  # by right rank: its slot
    kept = []  # (left, its slot's first right, term, positions kept), where it keeps any
    edges = arrived = 0
    for t in range(inst.horizon + 1):
        while arrived < len(packets) and packets[arrived].arrival <= t:
            arrived += 1  # the packets arrived by t are the first ones in arrival order
        base = len(right_order)
        right_order += [f"b{t}.{i}" for i in range(1, arrived + 1)]
        lock += [t] * arrived
        for li in range(arrived):
            x = tab.term(index[li], 1, t)
            k = bisect_right(increments, x, 0, arrived)
            if k:
                kept.append((li, base, x, k))
                edges += k
    if len(packets) * edges > budget:
        raise BudgetError(f"instance too large for {user}: more than {budget} left-edge steps")
    rows: list[dict[int, int]] = [{} for _ in packets]
    for li, base, x, k in kept:
        row = rows[li]
        for pos in range(k):
            row[base + pos] = x - increments[pos]
    return BipartiteGraph.from_rows([p.id for p in packets], right_order, [p.arrival for p in packets],
                                    lock, rows, tab.scale, label=inst.label)
