from __future__ import annotations

import hashlib
import heapq
import importlib.util
import json
from fractions import Fraction
from functools import cache
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest

from aqisim import matching, model
from aqisim.harness import adversarial_lock_probe, generate
from aqisim.matching import (
    BipartiteGraph,
    MatchingError,
    MatchingResult,
    bin_marginal_series,
    expand_binary,
    marginal_monotonicity_violations,
    max_weight_matching,
    run_online_matching,
)
from aqisim.model import CostFamily, load_instance, rational_to_json, tabulated
from aqisim.oracle import offline_optimal_binary
from aqisim.valuation import transmit_weight
from conftest import simple_instance, unit_packet

F = Fraction
ROOT = Path(__file__).resolve().parent.parent

# The campaign driver's generator modes, in its cycling order (mode = seed % 3).
CAMPAIGN_MODES = ("random", "adversarial-burst", "adversarial-lock")


def graph(lefts, rights, weights, arrivals=None, locks=None) -> BipartiteGraph:
    return BipartiteGraph(
        left_order=list(lefts),
        right_order=list(rights),
        arrivals=arrivals or {a: F(i) for i, a in enumerate(lefts)},
        locks=locks or {b: F(len(lefts) + j) for j, b in enumerate(rights)},
        weights={k: F(v) for k, v in weights.items()},
    )


def _subgraph(g: BipartiteGraph, forced=(), left_subset=None, right_subset=None):
    """(subgraph, forced weight): `g` with the forced nodes and the nodes
    outside the subsets cut out, the rest kept in rank order."""
    used_l = {a for a, _ in forced}
    used_r = {b for _, b in forced}
    lefts = [a for a in g.left_order if a not in used_l and (left_subset is None or a in left_subset)]
    rights = [b for b in g.right_order if b not in used_r and (right_subset is None or b in right_subset)]
    keep_l, keep_r = set(lefts), set(rights)
    sub = BipartiteGraph(lefts, rights, {a: g.arrivals[a] for a in lefts}, {b: g.locks[b] for b in rights},
                         {(a, b): w for (a, b), w in g.weights.items() if a in keep_l and b in keep_r})
    return sub, sum((g.weights[e] for e in forced), F(0))


def constrained_matching(g: BipartiteGraph, forced=(), left_subset=None, right_subset=None) -> MatchingResult:
    """The best matching over the subsets' nodes that holds every forced pair:
    the whole-graph solve of `_subgraph`, plus the forced pairs and their
    weight. The tie rule reads only the rank order, which the cut keeps, so
    the subgraph's winner is the constrained one."""
    sub, base = _subgraph(g, forced, left_subset, right_subset)
    res = max_weight_matching(sub)
    return MatchingResult(pairs={**res.pairs, **dict(forced)}, weight=base + res.weight)


def minislots(g: BipartiteGraph) -> dict[str, tuple[int, int]]:
    """right id -> (slot, position) of an expanded graph, parsed from the
    mini-slot ids `b{slot}.{position}`."""
    return {b: tuple(int(x) for x in b[1:].split(".")) for b in g.right_order}


def reference_expansion(inst) -> BipartiteGraph:
    """The unit-packet expansion with n mini-slots in every slot, one per
    packet, weighed by `transmit_weight` on the cost curves and built by the
    public constructor: it shares no code with `expand_binary`, whose slots
    hold only as many mini-slots as packets have arrived. Packets rank by
    (arrival, id) and mini-slots by (slot, position), as there."""
    packets = sorted(inst.packets, key=lambda p: (p.arrival, p.id))
    slots = {f"b{t}.{i}": (t, i) for t in range(inst.horizon + 1) for i in range(1, len(packets) + 1)}
    weights = {}
    for p in packets:
        for b, (t, i) in slots.items():
            if t >= p.arrival and (w := transmit_weight(inst, p, t, i)) >= 0:
                weights[(p.id, b)] = w
    return BipartiteGraph([p.id for p in packets], list(slots), {p.id: F(p.arrival) for p in packets},
                          {b: F(t) for b, (t, _) in slots.items()}, weights, label=inst.label)


@cache
def _binary_case(seed: int, deadline_prob: float = 0.0):
    """(instance, its full-depth reference graph) shaped like the binary
    acceptance campaign: 6 unit packets, h=5, the campaign's mode cycle."""
    inst = generate(6, 1, 5, seed, mode=CAMPAIGN_MODES[seed % 3], deadline_prob=deadline_prob)
    return inst, reference_expansion(inst)


BINARY_CASES = [(seed, 0.0) for seed in range(500)] + [(seed, 0.5) for seed in range(150)]


def brute_force_best(weights, lefts, rights, forced=()):
    """Independent oracle: enumerate every matching recursively and return
    (weight, pairs) of the winner. Among matchings of the maximum weight the
    winner is the first in (left rank, right rank) order: at the first left
    where two matchings differ, the one matching it to the lower-ranked right
    wins, and being matched beats staying unmatched. Forced pairs are in
    every candidate."""
    forced_l = {a for a, _ in forced}
    forced_r = {b for _, b in forced}
    rank = {b: j for j, b in enumerate(rights)}
    best = None

    def rec(i, used, acc, pairs):
        nonlocal best
        if i == len(lefts):
            order = tuple(len(rights) - rank[pairs[a]] if a in pairs else 0 for a in lefts)
            if best is None or (acc, order) > best[0]:
                best = ((acc, order), dict(pairs))
            return
        a = lefts[i]
        if a in forced_l:
            rec(i + 1, used, acc, pairs)
            return
        for b in rights:
            if b in used or b in forced_r or (a, b) not in weights:
                continue
            used.add(b)
            pairs[a] = b
            rec(i + 1, used, acc + F(weights[(a, b)]), pairs)
            del pairs[a]
            used.remove(b)
        rec(i + 1, used, acc, pairs)

    rec(0, set(), sum((F(weights[e]) for e in forced), F(0)), dict(forced))
    return best[0][0], best[1]


# --- exact solver ----------------------------------------------------------

def test_single_edge():
    g = graph(["a"], ["b"], {("a", "b"): 4})
    res = max_weight_matching(g)
    assert res.pairs == {"a": "b"} and res.weight == 4


def test_two_by_two_prefers_cross():
    g = graph(["a1", "a2"], ["b1", "b2"],
              {("a1", "b1"): 3, ("a1", "b2"): 5, ("a2", "b1"): 4, ("a2", "b2"): 1})
    res = max_weight_matching(g)
    assert res.weight == 9  # 5 + 4 beats 3 + 1 and every partial matching
    assert res.pairs == {"a1": "b2", "a2": "b1"}


def test_forced_edge_constrains_the_optimum():
    g = graph(["a1", "a2"], ["b1", "b2"],
              {("a1", "b1"): 3, ("a1", "b2"): 5, ("a2", "b1"): 4, ("a2", "b2"): 1})
    res = constrained_matching(g, forced=(("a1", "b1"),))
    assert res.weight == 4  # 3 + 1
    assert res.pairs == {"a1": "b1", "a2": "b2"}


def test_duplicate_node_ids_rejected():
    with pytest.raises(MatchingError, match="duplicate node ids"):
        BipartiteGraph(["a", "a"], ["b"], {"a": 0}, {"b": 1}, {("a", "b"): 1})


def test_negative_weights_rejected():
    with pytest.raises(MatchingError, match="negative"):
        graph(["a"], ["b"], {("a", "b"): -1})


@pytest.mark.parametrize("arrivals, locks, unknown", [
    ({"a": 0, "x": 1}, {"b": 1}, "left node 'x'"),
    ({"a": 0}, {"b": 1, "y": 2}, "right node 'y'"),
], ids=["arrival", "lock"])
def test_times_for_unknown_nodes_rejected(arrivals, locks, unknown):
    # an online run would otherwise end in a bare KeyError
    with pytest.raises(MatchingError, match=f"unknown {unknown}"):
        BipartiteGraph(["a"], ["b"], arrivals, locks, {("a", "b"): 1})


@pytest.mark.parametrize("arrival, lock, weight, message", [
    (0.5, 1, F(2), "left node 'a' has arrival time 0.5, not an int or Fraction"),
    (0, "1", F(2), "right node 'b' has lock time '1', not an int or Fraction"),
    (True, 1, F(2), "left node 'a' has arrival time True, not an int or Fraction"),
    (0, False, F(2), "right node 'b' has lock time False, not an int or Fraction"),
    (0, 1, 2.0, r"edge \('a', 'b'\) has weight 2.0, not an int or Fraction"),
    (0, 1, True, r"edge \('a', 'b'\) has weight True, not an int or Fraction"),
    (0, 1, "2", r"edge \('a', 'b'\) has weight '2', not an int or Fraction"),
], ids=["float-arrival", "str-lock", "bool-arrival", "bool-lock", "float-weight", "bool-weight", "str-weight"])
def test_non_rational_times_and_weights_rejected(arrival, lock, weight, message):
    # a float time used to pass, and the run's trace then failed on it
    with pytest.raises(MatchingError, match=message):
        BipartiteGraph(["a"], ["b"], {"a": arrival}, {"b": lock}, {("a", "b"): weight})


def test_int_times_and_weights_are_accepted():
    g = BipartiteGraph(["a"], ["b"], {"a": 0}, {"b": 1}, {("a", "b"): 2})
    run = run_online_matching(g)
    assert run.weight == 2 and json.loads(run.trace_jsonl().splitlines()[-1])["perm_weight"] == 2


LONG = "n" * 200


@pytest.mark.parametrize("build, message", [
    (lambda: BipartiteGraph(["a"], ["b"], {"a": 0}, {"b": 1}, {(LONG, "b"): 1}),
     "edge ('nnn"),
    (lambda: BipartiteGraph(["a"], ["b"], {"a": 0}, {"b": 1}, {("a", LONG): -1}),
     "edge ('a', 'nnn"),
    (lambda: BipartiteGraph([LONG], ["b"], {}, {"b": 1}, {}),
     "left node 'nnn"),
    (lambda: BipartiteGraph(["a"], ["b"], {"a": 0, LONG: 1}, {"b": 1}, {}),
     "unknown left node 'nnn"),
    (lambda: bin_marginal_series(run_online_matching(two_stage_scenario()), LONG),
     "unknown right node 'nnn"),
], ids=["edge-node", "negative-edge", "missing-time", "unknown-time", "series-bin"])
def test_errors_echo_node_ids_cut_short(build, message):
    # every message that names a node id echoes it through `model.shown`
    with pytest.raises(MatchingError) as info:
        build()
    text = str(info.value)
    assert text.startswith(message) or f" {message}" in text, text
    assert LONG not in text and "n" * 79 + "..." in text, text


def test_solver_agrees_with_brute_force():
    # the weight and, among equal weights, the pairs the rank order selects
    rng = Random(17)
    for _ in range(250):
        nl, nr = rng.randint(1, 4), rng.randint(1, 5)
        lefts = [f"a{i}" for i in range(nl)]
        rights = [f"b{j}" for j in range(nr)]
        rng.shuffle(lefts)
        rng.shuffle(rights)
        weights = {}
        for a in lefts:
            for b in rights:
                if rng.random() < 0.7:
                    weights[(a, b)] = F(rng.randint(0, 12), rng.choice([1, 1, 2, 3]))
                    if rng.random() < 0.5:
                        weights[(a, b)] = F(rng.randint(0, 2))  # ties
        g = graph(lefts, rights, weights)
        res = max_weight_matching(g)
        assert (res.weight, res.pairs) == brute_force_best(weights, lefts, rights)
        assert sum((weights[(a, b)] for a, b in res.pairs.items()), F(0)) == res.weight
        if weights:
            fa, fb = sorted(weights)[rng.randrange(len(weights))]
            res2 = constrained_matching(g, forced=((fa, fb),))
            assert (res2.weight, res2.pairs) == brute_force_best(weights, lefts, rights, forced=((fa, fb),))
            assert res2.pairs[fa] == fb


def test_canonical_matching_invariant_to_input_order():
    rng = Random(23)
    for _ in range(60):
        lefts = [f"a{i}" for i in range(3)]
        rights = [f"b{j}" for j in range(4)]
        weights = {(a, b): F(rng.randint(0, 5)) for a in lefts for b in rights}
        g1 = graph(lefts, rights, dict(weights))
        items = list(weights.items())
        rng.shuffle(items)
        g2 = graph(lefts, rights, dict(items))
        assert max_weight_matching(g1).pairs == max_weight_matching(g2).pairs


# --- online algorithm ------------------------------------------------------

def test_single_pair_run():
    g = graph(["a"], ["b"], {("a", "b"): 4}, arrivals={"a": F(0)}, locks={"b": F(1)})
    run = run_online_matching(g)
    assert run.weight == 4 and run.perm == {"b": ("a", F(4))}


def two_stage_scenario() -> BipartiteGraph:
    # a1 commits to the early-locking bin; a2 arrives between the locks
    return graph(
        ["a1", "a2"], ["b1", "b2"],
        {("a1", "b1"): 5, ("a1", "b2"): 3, ("a2", "b1"): 6, ("a2", "b2"): 6},
        arrivals={"a1": F(0), "a2": F(3, 2)},
        locks={"b1": F(1), "b2": F(2)},
    )


def test_two_stage_scenario_is_lossless():
    g = two_stage_scenario()
    run = run_online_matching(g)
    assert run.weight == 11  # 5 locked early, then 6
    offline = max_weight_matching(g)
    assert offline.weight == 11  # cross pairing only reaches 6 + 3 = 9
    assert run.weight / offline.weight == 1


def test_two_stage_marginal_series():
    run = run_online_matching(two_stage_scenario())
    # while unlocked, b1 is worth the matching's loss without it: 5 - 3 = 2
    assert bin_marginal_series(run, "b1") == [2, 5, 5, 5]
    assert bin_marginal_series(run, "b2") == [0, 0, 6, 6]
    assert marginal_monotonicity_violations(run) == []


def test_unknown_bin_in_series():
    run = run_online_matching(two_stage_scenario())
    with pytest.raises(MatchingError, match="unknown right node"):
        bin_marginal_series(run, "nope")


def test_never_competed_bin_has_zero_series():
    g = graph(["a"], ["b", "lonely"], {("a", "b"): 4},
              arrivals={"a": F(0)}, locks={"b": F(1), "lonely": F(2)})
    run = run_online_matching(g)
    assert bin_marginal_series(run, "lonely") == [0, 0, 0]
    # a bin locking unmatched keeps marginal 0 forever
    assert run.events[-1].marginals["lonely"] == 0


def test_probe_family_ratio_close_to_half():
    for w, eps in ((100, 1), (1000, 7), (50, F(1, 2))):
        g = adversarial_lock_probe(w, eps)
        run = run_online_matching(g)
        opt = max_weight_matching(g)
        assert run.weight == w
        assert opt.weight == 2 * F(w) - F(eps)
        ratio = run.weight / opt.weight
        assert F(1, 2) < ratio <= F(51, 100)
        assert marginal_monotonicity_violations(run) == []


def _fraction_event_order(g: BipartiteGraph) -> list[tuple]:
    """(clock, kind, subject) of every event, ordered on `Fraction` clocks:
    arrivals one by one, before any lock at the same clock, and the locks
    sharing a clock as one batch, each in rank order. The clock of a batch is
    its first lock's."""
    keyed = sorted([(F(g.arrivals[a]), 0, i, a, g.arrivals[a]) for i, a in enumerate(g.left_order)]
                   + [(F(g.locks[b]), 1, i, b, g.locks[b]) for i, b in enumerate(g.right_order)])
    out = []
    for k, entry in enumerate(keyed):
        if entry[1] == 0:
            out.append((entry[4], "arrival", [entry[3]]))
        elif k and keyed[k - 1][:2] == entry[:2]:
            out[-1][2].append(entry[3])
        else:
            out.append((entry[4], "lock", [entry[3]]))
    return out


def _mixed_clock_graphs():
    thirds = [F(1, 3), F(1, 2), F(2, 3), F(3, 2)]
    # an arrival and a lock at 1/2, locks at 2/3 given as two equal objects,
    # and int times next to Fractions of the same value
    yield graph(["a1", "a2", "a3"], ["b1", "b2", "b3", "b4"],
                {("a1", "b1"): 3, ("a1", "b2"): 2, ("a2", "b1"): 4, ("a2", "b3"): 1, ("a3", "b4"): F(5, 2),
                 ("a3", "b2"): 2},
                arrivals={"a1": F(1, 3), "a2": F(1, 2), "a3": 1},
                locks={"b1": F(1, 2), "b2": F(2, 3), "b3": F(4, 6), "b4": F(3, 2)})
    rng = Random(20)
    for _ in range(60):
        lefts = [f"a{i}" for i in range(rng.randint(1, 5))]
        rights = [f"b{j}" for j in range(rng.randint(1, 6))]
        times = thirds + [0, 1, 2, F(2)]
        weights = {(a, b): F(rng.randint(0, 6), rng.choice([1, 2, 3])) for a in lefts for b in rights
                   if rng.random() < 0.7}
        yield graph(lefts, rights, weights, arrivals={a: rng.choice(times) for a in lefts},
                    locks={b: rng.choice(times) for b in rights})
    for w, eps in ((100, 1), (1000, 7), (50, F(1, 2)), (3, F(1, 3))):
        yield adversarial_lock_probe(w, eps)


def test_integer_clocks_order_events_as_fractions_do():
    for g in _mixed_clock_graphs():
        run = run_online_matching(g)
        expected = _fraction_event_order(g)
        assert [(ev.clock, ev.kind, ev.subject) for ev in run.events] == expected, g.label
        # each clock is rendered from the event's integer tick, equal to the graph's time
        assert all(ev.clock == clock and type(ev.tick) is int for ev, (clock, _, _) in zip(run.events, expected))


def test_hand_built_graphs_read_back_their_exact_times(monkeypatch):
    # the constructor keeps each time once, as an integer by rank over the lcm
    # of the times' denominators, and `arrivals` and `locks` render them back
    given = []
    init = BipartiteGraph.__init__

    def kept(self, left_order, right_order, arrivals, locks, weights, label=""):
        given.append((dict(arrivals), dict(locks)))
        init(self, left_order, right_order, arrivals, locks, weights, label)

    monkeypatch.setattr(BipartiteGraph, "__init__", kept)
    for k, g in enumerate(_mixed_clock_graphs()):
        arrivals, locks = given.pop()
        assert g.arrivals == arrivals and g.locks == locks, g.label
        assert all(type(t) is F for t in (*g.arrivals.values(), *g.locks.values())), g.label
        assert g.arrive == [arrivals[a] * g.clock_scale for a in g.left_order], g.label
        assert g.lock == [locks[b] * g.clock_scale for b in g.right_order], g.label
        assert all(type(t) is int for t in (*g.arrive, *g.lock)), g.label
        if k == 0:  # thirds and halves
            assert g.clock_scale == 6 and g.arrive == [2, 3, 6] and g.lock == [3, 4, 4, 9]
    assert adversarial_lock_probe(3, F(1, 3)).clock_scale == 2


def test_arrival_gains_sum_to_final_weight():
    # every arrival's tentative-weight gain, summed, telescopes to the output
    for seed in range(25):
        inst = generate(5, 1, 4, seed, mode=("random", "adversarial-burst")[seed % 2])
        if not inst.packets:
            continue
        run = run_online_matching(expand_binary(inst))
        gains = sum((ev.arrival_gain for ev in run.events if ev.kind == "arrival"), F(0))
        assert gains == run.weight


def test_arrival_gain_plus_locked_value_dominates_edges():
    # for every arrival and its offline partner: gain(a) + final(b) >= w(a, b)
    for seed in range(40):
        inst = generate(5, 1, 4, seed, mode=("random", "adversarial-lock")[seed % 2])
        if not inst.packets:
            continue
        g = expand_binary(inst)
        run = run_online_matching(g)
        gains = {ev.subject[0]: ev.arrival_gain for ev in run.events if ev.kind == "arrival"}
        locked_value = {b: w for b, (_, w) in run.perm.items()}
        offline = offline_optimal_binary(inst)
        for a, b in offline.pairs.items():
            w = g.weights.get((a, b))
            assert w is not None, "offline matching used a bin outside the online graph"
            assert gains[a] + locked_value.get(b, F(0)) >= w


def test_monotone_marginals_across_random_instances():
    for seed in range(40):
        inst = generate(5, 1, 4, seed, mode=("random", "adversarial-burst", "adversarial-lock")[seed % 3])
        run = run_online_matching(expand_binary(inst))
        assert marginal_monotonicity_violations(run) == []


def test_stale_tentative_weight_matches_fresh_solve():
    # on the binary acceptance seeds the live solver state agrees with fresh
    # solves at every event: its weight is the optimum on the active nodes, a
    # lock commits each bin to its mate in that optimum, and every matched
    # bin's marginal is the loss of a fresh solve without that bin
    for seed in range(500):
        inst = generate(6, 1, 5, seed, mode=CAMPAIGN_MODES[seed % 3])
        g = expand_binary(inst)
        run = run_online_matching(g)
        arrived: set[str] = set()
        locked: set[str] = set()
        mates: dict[str, str] = {}  # right -> left in the previous event's optimum
        for ev in run.events:
            (arrived if ev.kind == "arrival" else locked).update(ev.subject)
            if ev.kind == "lock":
                for b in ev.subject:
                    assert run.perm.get(b, (None,))[0] == mates.get(b), (seed, b)
            committed = {a for b, (a, _) in run.perm.items() if b in locked}
            act_l = arrived - committed
            act_r = set(g.right_order) - locked
            fresh = constrained_matching(g, left_subset=act_l, right_subset=act_r)
            assert fresh.weight == ev.temp_weight, (seed, ev.clock)
            mates = {b: a for a, b in fresh.pairs.items()}
            for b in act_r:
                if b in mates:
                    without = constrained_matching(g, left_subset=act_l, right_subset=act_r - {b})
                    assert ev.marginals[b] == ev.temp_weight - without.weight, (seed, ev.clock, b)
                else:
                    assert ev.marginals[b] == 0, (seed, ev.clock, b)


def test_trace_jsonl_is_parseable():
    run = run_online_matching(two_stage_scenario())
    lines = [json.loads(line) for line in run.trace_jsonl().splitlines()]
    assert [ln["kind"] for ln in lines] == ["arrival", "lock", "arrival", "lock"]
    assert lines[0]["rho"]["b1"] == 2
    assert lines[1]["perm_weight"] == 5


def _full_view_drops(run):
    """The drops a scan of every bin's rendered series finds, bin by bin: how
    `marginal_monotonicity_violations` worked while every event stored the
    full `Fraction` view."""
    views = [ev.marginals for ev in run.events]
    out = []
    for b in run.graph.right_order:
        series = [view[b] for view in views]
        out += [(b, i, series[i - 1], series[i]) for i in range(1, len(series)) if series[i] < series[i - 1]]
    return out


def test_marginal_drops_of_a_hand_built_run():
    # the matcher's marginals never drop, so a run whose marginals do is built
    # by hand, in halves: b1 falls from 2 to 3/2, then to 0 while unlocked;
    # b2 locks at 1/2, below its loss of 1; b3 falls from 1/2 to 0
    g = graph(["a"], ["b1", "b2", "b3"], {("a", "b1"): F(1, 2), ("a", "b2"): 1, ("a", "b3"): F(3, 2)})
    assert g.scale == 2
    log = matching.LockLog(g)
    events = []
    for k, (losses, lock) in enumerate([({0: 4, 1: 2}, None), ({0: 3, 1: 2, 2: 1}, None),
                                        ({0: 3}, (1, 0, 1)), ({}, None)]):
        if lock:
            log.add(*lock)
        events.append(matching.MatchEvent(
            tick=k, kind="lock" if lock else "arrival", subject=[], temp=0,
            losses=losses, locks=len(log.locked), log=log))
    run = matching.MatchRun(graph=g, log=log, events=events)
    assert run.perm == {"b2": ("a", F(1, 2))} and run.weight == F(1, 2)
    expected = [("b1", 1, F(2), F(3, 2)), ("b1", 3, F(3, 2), F(0)),
                ("b2", 2, F(1), F(1, 2)), ("b3", 2, F(1, 2), F(0))]
    assert marginal_monotonicity_violations(run) == _full_view_drops(run) == expected
    assert bin_marginal_series(run, "b1") == [2, F(3, 2), F(3, 2), 0]
    assert bin_marginal_series(run, "b2") == [1, 1, F(1, 2), F(1, 2)]
    for b in g.right_order:
        assert bin_marginal_series(run, b) == [ev.marginals[b] for ev in run.events]
    # a hand-built run may also list events whose lock counts fall
    unlocked = matching.MatchEvent(tick=4, kind="arrival", subject=[], temp=0,
                                   losses={}, locks=0, log=log)
    for order in (events, [*events, unlocked]):
        listed = matching.MatchRun(graph=g, log=log, events=order)
        assert listed.trace_jsonl() == _reference_trace(listed)


def test_sparse_marginals_render_the_full_view():
    # on real runs the integer paths agree with the rendered view everywhere
    for seed in range(12):
        run = run_online_matching(expand_binary(_online_matching_instance(seed)))
        assert marginal_monotonicity_violations(run) == _full_view_drops(run) == []
        views = [ev.marginals for ev in run.events]
        for b in run.graph.right_order:
            assert bin_marginal_series(run, b) == [view[b] for view in views]


# --- expansion -------------------------------------------------------------

def test_expansion_single_packet():
    inst = simple_instance([unit_packet()], horizon=2, energy=[tabulated([0, 1, 3])])
    g = expand_binary(inst)
    assert list(minislots(g).values()) == [(0, 1), (1, 1), (2, 1)]
    assert g.weights == {
        ("p0", "b0.1"): F(4), ("p0", "b1.1"): F(3), ("p0", "b2.1"): F(2),
    }
    assert g.locks["b0.1"] == 0


def test_expansion_drops_strictly_negative_edges():
    # value 2 never covers the first marginal energy of 4: isolated packet
    inst = simple_instance([unit_packet(value=2)], horizon=1, energy=[tabulated([0, 4, 9])])
    g = expand_binary(inst)
    assert g.weights == {}
    run = run_online_matching(g)
    assert run.weight == 0 and run.perm == {}


def test_expansion_burst_positions_carry_marginal_energy():
    g_table = tabulated([0, 1, 3, 6])
    inst = simple_instance(
        [unit_packet(pid=f"p{i}", value=10) for i in range(3)],
        horizon=1, energy=[g_table],
    )
    g = expand_binary(inst)
    by_position = {i: g.weights[("p0", f"b0.{i}")] for i in (1, 2, 3)}
    assert by_position == {1: 10 - 1, 2: 10 - 2, 3: 10 - 3}  # increments 1, 2, 3


def test_expansion_depth_grows_with_arrivals():
    inst = simple_instance(
        [unit_packet(pid="p0", arrival=0), unit_packet(pid="p1", arrival=2)],
        horizon=2,
    )
    g = expand_binary(inst)
    depth = {}
    for slot, position in minislots(g).values():
        depth[slot] = max(depth.get(slot, 0), position)
    assert depth == {0: 1, 1: 1, 2: 2}
    full = reference_expansion(inst)
    assert max(p for _, p in minislots(full).values()) == 2
    assert max_weight_matching(g) == max_weight_matching(full)


def test_offline_optimum_is_the_reference_expansion_optimum():
    # the deeper slots never hold the optimum, so the online graph's solve
    # gives the same pairs and weight as the independent full-depth graph's
    deeper = 0
    for seed, deadline_prob in BINARY_CASES:
        inst, full = _binary_case(seed, deadline_prob)
        assert offline_optimal_binary(inst) == max_weight_matching(full), (seed, deadline_prob)
        deeper += len(full.right_order) > len(expand_binary(inst).right_order)
    assert deeper > len(BINARY_CASES) // 2  # most reference graphs are really deeper


def test_expansion_rejects_multi_fragment_and_multi_server():
    from aqisim.model import Packet, linear as lin
    multi = simple_instance([Packet(id="p0", arrival=0, subpackets=2, weight=F(1),
                                    distortion=tabulated([0, 5, 8]), delay_cost=lin(1))],
                            horizon=2)
    with pytest.raises(matching.Ineligible, match="needs a unit-packet instance"):
        expand_binary(multi)
    two_servers = simple_instance([unit_packet()], horizon=1, servers=2)
    with pytest.raises(matching.Ineligible, match="needs a single-server unit-packet instance"):
        expand_binary(two_servers)


# --- recorded outputs, differential and work checks --------------------------

def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _online_matching_instance(seed: int):
    """An instance shaped like the online-matching benchmark workload."""
    return generate(20, 1, 10, seed, mode=CAMPAIGN_MODES[seed % 3])


def _tie_cases():
    """Hand-built graphs dense in ties, behind the `ties/*` entries of
    tests/golden/matching_traces.json: (name, graph, constrained solves),
    each solve a (forced, left_subset, right_subset) for `constrained_matching`.

    Weights are in {0, 1, 2} (in thirds on every fourth graph), arrivals and
    locks share a few instants, and node ranks are shuffled so that they do
    not follow the ids."""
    instants = [F(t, 2) for t in range(4)]
    shapes = [  # (lefts, rights, weight of every edge, one instant for all)
        (4, 4, 1, F(0)), (3, 5, 0, F(1)), (5, 5, 2, F(1, 2)), (2, 6, 1, F(3, 2)),
    ]
    rng = Random(97)
    for k in range(20):
        if k < len(shapes):
            nl, nr, w, at = shapes[k]
            weights = {(f"a{i}", f"b{j}"): F(w) for i in range(nl) for j in range(nr)}
            arrivals = {f"a{i}": at for i in range(nl)}
            locks = {f"b{j}": at for j in range(nr)}
        else:
            nl, nr = rng.randint(2, 6), rng.randint(2, 7)
            unit = F(1, 3) if k % 4 == 3 else F(1)
            weights = {(f"a{i}", f"b{j}"): rng.randint(0, 2) * unit
                       for i in range(nl) for j in range(nr) if rng.random() < 0.8}
            arrivals = {f"a{i}": rng.choice(instants) for i in range(nl)}
            locks = {f"b{j}": rng.choice(instants) for j in range(nr)}
        lefts = [f"a{i}" for i in range(nl)]
        rights = [f"b{j}" for j in range(nr)]
        rng.shuffle(lefts)
        rng.shuffle(rights)
        g = graph(lefts, rights, weights, arrivals=arrivals, locks=locks)
        left_subset = {a for a in lefts if rng.random() < 0.6}
        right_subset = {b for b in rights if rng.random() < 0.6}
        solves = [((), left_subset, None), ((), None, right_subset), ((), left_subset, right_subset)]
        edges = sorted(weights)
        if edges:
            solves.append(((rng.choice(edges),), None, None))
        inside = [e for e in edges if e[0] in left_subset and e[1] in right_subset]
        if inside:
            solves.append(((rng.choice(inside),), left_subset, right_subset))
        yield f"ties/{k}", g, solves


def _recorded_cases():
    """The cases behind tests/golden/matching_traces.json: (name, online graph,
    offline graph, constrained solves) for the unit-packet fixtures, the
    lock-probe family, online-matching-shaped seeds 0:20 and the tie-heavy
    hand-built graphs of `_tie_cases`. An instance's offline graph is its
    full-depth reference, the graph the offline optimum was recorded on."""
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        inst = load_instance(path.read_text())
        if inst.is_binary() and inst.servers == 1:
            yield f"fixtures/{path.name}", expand_binary(inst), reference_expansion(inst), []
    for w, eps in ((100, 1), (1000, 7), (50, F(1, 2)), (3, 2)):
        g = adversarial_lock_probe(w, eps)
        yield f"probe/{w}/{eps}", g, g, []
    for seed in range(20):
        inst = _online_matching_instance(seed)
        yield f"online-matching/{seed}", expand_binary(inst), reference_expansion(inst), []
    for name, g, solves in _tie_cases():
        yield name, g, g, solves


def _pairs_sha256(pairs: dict[str, str]) -> str:
    return _sha256(json.dumps(sorted(pairs.items())))


def _digest(online: BipartiteGraph, offline: BipartiteGraph, solves=()) -> dict:
    run = run_online_matching(online)
    best = max_weight_matching(offline)
    perm = sorted((b, a, rational_to_json(w)) for b, (a, w) in run.perm.items())
    out = {
        "trace_sha256": _sha256(run.trace_jsonl()),
        "perm_sha256": _sha256(json.dumps(perm)),
        "weight": rational_to_json(run.weight),
        "offline_pairs_sha256": _pairs_sha256(best.pairs),
        "offline_weight": rational_to_json(best.weight),
    }
    if solves:
        out["constrained"] = []
        for forced, ls, rs in solves:
            res = constrained_matching(offline, forced, ls, rs)
            out["constrained"].append([_pairs_sha256(res.pairs), rational_to_json(res.weight)])
    return out


def test_traces_and_matchings_match_recorded_hashes():
    # recorded while the online run still re-solved from scratch at every
    # event (the tie-heavy cases while the solver still broke ties with one
    # power of two per edge); keeping one solver state alive, and the
    # rank-field tie-break, must not change a byte
    recorded = json.loads((ROOT / "tests" / "golden" / "matching_traces.json").read_text())
    seen = []
    for name, online, offline, solves in _recorded_cases():
        assert _digest(online, offline, solves) == recorded[name], name
        # the offline optimum as the matching run reports it, on the online graph
        assert max_weight_matching(online) == max_weight_matching(offline), name
        # and resumed from the online run's solver before its first lock
        resumed = max_weight_matching(online, run_online_matching(online))
        assert _pairs_sha256(resumed.pairs) == recorded[name]["offline_pairs_sha256"], name
        assert rational_to_json(resumed.weight) == recorded[name]["offline_weight"], name
        seen.append(name)
    assert sorted(seen) == sorted(recorded)


def test_the_offline_solve_resumes_the_run_from_its_first_lock(monkeypatch):
    # the run keeps its solver from before its first lock, every right still
    # live: the resumed solve phases only the lefts that arrive after it
    phased = []
    phase = matching._Hungarian.phase

    def counted_phase(self, root):
        phased.append(root)
        phase(self, root)

    monkeypatch.setattr(matching._Hungarian, "phase", counted_phase)
    # the first lock precedes every arrival, which an expansion never has
    early = graph(["a", "b", "c"], ["x", "y"], {("a", "x"): 3, ("b", "x"): 2, ("b", "y"): 1, ("c", "y"): 5},
                  arrivals={"a": F(1), "b": F(2), "c": F(2)}, locks={"x": F(0), "y": F(3)})
    cases = [(f"online-matching/{seed}", expand_binary(_online_matching_instance(seed))) for seed in range(12)]
    for name, g in [("early", early), *cases]:
        run = run_online_matching(g)
        first_lock = min(g.locks.values())
        late = [li for li, a in enumerate(g.left_order) if g.arrivals[a] > first_lock]
        if name == "early":
            assert late == [0, 1, 2]
        elif CAMPAIGN_MODES[int(name.split("/")[1]) % 3] == "adversarial-burst":
            assert late == []  # every left arrives in the burst, before any bin locks
        phased.clear()
        resumed = max_weight_matching(g, run)
        assert phased == late, name
        # a second read adds no left and gives the same answer, a fresh solve's
        phased.clear()
        assert max_weight_matching(g, run) == resumed and phased == [], name
        assert max_weight_matching(g) == resumed, name
    with pytest.raises(MatchingError, match="different graph"):
        max_weight_matching(expand_binary(_online_matching_instance(0)), run)


def _reference_trace(run) -> str:
    """The trace as one `json.dumps` of each event's dict writes it."""
    lines = [json.dumps({
        "clock": rational_to_json(ev.clock),
        "kind": ev.kind,
        "subject": ev.subject,
        "temp_weight": rational_to_json(ev.temp_weight),
        "perm_weight": rational_to_json(ev.perm_weight),
        "total_weight": rational_to_json(ev.total_weight),
        "arrival_gain": None if ev.arrival_gain is None else rational_to_json(ev.arrival_gain),
        "rho": {b: rational_to_json(v) for b, v in ev.marginals.items()},
    }, sort_keys=True) for ev in run.events]
    return "\n".join(lines) + ("\n" if lines else "")


# Node ids that JSON must escape or that sort apart from their rank order: a
# quote, a backslash, a newline, non-ASCII in and beyond the basic plane.
AWKWARD_IDS = ['say "hi"', "back\\slash", "new\nline", "café", "ü€𝄞", "\\u0041", "Z"]


def _awkward_graphs():
    lefts = AWKWARD_IDS[:4]
    rights = [f"{x}/bin" for x in AWKWARD_IDS]
    rng = Random(5)
    weights = {(a, b): F(rng.randint(0, 6), rng.choice([1, 2, 3])) for a in lefts for b in rights}
    yield "awkward graph", graph(lefts, rights, weights,
                                 arrivals={a: F(i, 2) for i, a in enumerate(lefts)},
                                 locks={b: F(j % 4, 2) for j, b in enumerate(rights)})
    packets = [unit_packet(pid=x, arrival=i % 3, value=4 + i, slope=F(1, 2))
               for i, x in enumerate(AWKWARD_IDS)]
    inst = simple_instance(packets, horizon=4, energy=[tabulated(range(0, 60, 2))])
    yield "awkward packets", expand_binary(inst)


def test_trace_is_what_json_dumps_writes():
    for name, g in [*((name, online) for name, online, _, _ in _recorded_cases()), *_awkward_graphs()]:
        run = run_online_matching(g)
        assert run.trace_jsonl() == _reference_trace(run), name


def test_trace_renders_each_distinct_number_once(monkeypatch):
    # each bin's key is made once and each distinct integer over the scale,
    # and each distinct clock tick, is rendered once, by the number-text
    # cache in `model`; the zero that most marginals are is never rendered
    calls = 0
    render = model.rational_to_json

    def counted(value):
        nonlocal calls
        calls += 1
        return render(value)

    monkeypatch.setattr(model, "rational_to_json", counted)  # the cache's renders
    for seed in range(20):
        run = run_online_matching(expand_binary(_online_matching_instance(seed)))
        numbers = {w for _, _, w in run.log.locked.values()}
        for ev in run.events:
            numbers.update(ev.losses.values(), (ev.temp, ev.perm, ev.temp + ev.perm))
            if ev.gain is not None:
                numbers.add(ev.gain)
        numbers.discard(0)
        ticks = {ev.tick for ev in run.events} - {0}
        calls = 0
        run.trace_jsonl()
        assert calls <= len(ticks) + len(numbers), seed
        assert calls < len(run.events) * len(run.graph.right_order) // 4, seed


# Cost-family evaluations of `expand_binary` on online-matching seed 0 when
# every edge evaluated its weight through `transmit_weight` on its own.
PER_EDGE_VALUE_CALLS = 7_270


def test_online_run_and_expansion_do_bounded_work(monkeypatch):
    inst = _online_matching_instance(0)
    calls = {"pair": 0, "row": 0, "solve": 0, "phase": 0, "fraction": 0}
    pair = CostFamily.pair
    row = CostFamily.row
    solve = matching.max_weight_matching
    phase = matching._Hungarian.phase
    fraction = matching.Fraction

    def counted_pair(self, x):
        calls["pair"] += 1
        return pair(self, x)

    def counted_row(self, n):
        calls["row"] += 1
        return row(self, n)

    def counted_solve(*args, **kwargs):
        calls["solve"] += 1
        return solve(*args, **kwargs)

    def counted_phase(self, root):
        calls["phase"] += 1
        row = self.adj[root]
        before = row.item_walks
        phase(self, root)
        arrival_walks.append(row.item_walks - before)

    def counted_fraction(*args):
        calls["fraction"] += 1
        return fraction(*args)

    monkeypatch.setattr(CostFamily, "pair", counted_pair)
    monkeypatch.setattr(CostFamily, "row", counted_row)
    monkeypatch.setattr(matching, "max_weight_matching", counted_solve)
    init = matching._Hungarian.__init__

    def counting_rows(self, g):
        init(self, g)
        self.adj = [_ItemWalkCountingRow(row) for row in self.adj]
        solvers.append(self)

    arrival_walks = []  # per phase: walks over its new left's edge row
    solvers = []
    monkeypatch.setattr(matching._Hungarian, "__init__", counting_rows)
    monkeypatch.setattr(matching._Hungarian, "phase", counted_phase)
    monkeypatch.setattr(matching, "Fraction", counted_fraction)
    # the graph takes the tables' integers and the slots as they are: no
    # Fraction per arrival, lock or edge
    g = expand_binary(inst)
    assert calls["fraction"] == 0
    # the tables read each curve as one integer row: one per packet's
    # utility, per shared lag row and per server's energy
    assert calls["pair"] == 0
    assert 0 < calls["row"] <= 2 * len(inst.packets) + inst.servers < PER_EDGE_VALUE_CALLS // 4
    indexes = []  # per solver, in build order: (its seeds, its cursor)

    def counted_index(self, g):
        counting_rows(self, g)
        self.seeds = [_ReadCountingList(seed) for seed in self.seeds]
        indexes.append((self.seeds, self.cursor))

    def work(self):
        """(seed reads, cursor sum, row walks) of a solver so far."""
        return (sum(seed.reads for seed in self.seeds), sum(self.cursor),
                sum(row.item_walks for row in self.adj))

    phase_work = []  # per phase: (seed reads, cursor moves, tree lefts, heap pushes, bound)
    pushes = 0

    def counted_heappush(heap, item):
        nonlocal pushes
        pushes += 1
        heapq.heappush(heap, item)

    def measured_phase(self, root):
        matched = sum(1 for ri, li in enumerate(self.match_r) if li is not None and self.live[ri])
        reads, moved, walks = work(self)
        pushed = pushes
        counted_phase(self, root)
        after = work(self)
        tree = after[2] - walks  # each tree left walks its row once
        phase_work.append((after[0] - reads, after[1] - moved, tree, pushes - pushed, tree * (matched + 2)))

    monkeypatch.setattr(matching._Hungarian, "__init__", counted_index)
    monkeypatch.setattr(matching._Hungarian, "phase", measured_phase)
    monkeypatch.setattr(matching, "heapq", SimpleNamespace(heappush=counted_heappush, heappop=heapq.heappop,
                                                           heapify=heapq.heapify))
    calls["fraction"] = 0
    run = run_online_matching(g)
    assert run.events and calls["solve"] == 0
    # the event loop keeps clocks, weights and its lock record in integers:
    # `perm` and the run's weight are rendered only when read
    assert calls["fraction"] == 0
    # one phase per arrival: the traced marginals cost none; and a phase
    # walks its new left's edges once, setting its dual on the same walk
    assert calls["phase"] == len(inst.packets) == 20
    assert arrival_walks == [1] * 20
    # every event's weights are integers over the scale, rendered on read
    for ev in run.events:
        assert all(type(x) is int for x in (ev.temp, ev.perm))
        assert (ev.temp_weight, ev.perm_weight) == (F(ev.temp, g.scale), F(ev.perm, g.scale))
        assert ev.total_weight == ev.temp_weight + ev.perm_weight
        assert ev.arrival_gain == (F(ev.gain, g.scale) if ev.kind == "arrival" else None)
        # `perm` and the marginals are views of the lock record: a bin locked
        # by then is worth its edge, any other its loss
        locked = {ri: w for ri, (k, _, w) in run.log.locked.items() if k < ev.locks}
        assert ev.perm == sum(locked.values())
        assert ev.marginals == {b: F(locked.get(ri, ev.losses.get(ri, 0)), g.scale)
                                for ri, b in enumerate(g.right_order)}
    assert run.log.locked and run.weight == F(sum(w for _, _, w in run.log.locked.values()), g.scale)
    online_phases = phase_work[:]
    # the offline solve makes the same single walk per left, and never builds
    # the in-edge lists that only loss passes read
    arrival_walks.clear()
    solve(g)
    assert arrival_walks == [1] * 20 and solvers[-1].radj is None
    # a phase and loss seeding read each left's heaviest edge to a free bin
    # through a cursor into its edges in weight order, and a bin once matched
    # or locked never comes back free: each solver's cursors pass each edge
    # at most once, the online run's and the offline solve's alike
    edges, lefts, events = sum(map(len, g.rows)), len(g.left_order), len(run.events)
    assert len(indexes) == 2
    for seeds, cursor in indexes:
        assert sum(map(len, seeds)) == edges and sum(cursor) <= edges
    # a phase reads one entry per cursor move, plus one where each tree
    # left's cursor stops; it pushes, per tree left, only its edges to matched
    # rights, to its heaviest free bin and to its free sink
    for reads, moved, tree, pushed, bound in phase_work:
        assert reads <= moved + tree and pushed <= bound
    # loss seeding reads one entry per cursor move, plus one per left and event
    seeds, cursor = indexes[0]
    phase_reads = sum(reads for reads, *_ in online_phases)
    phase_moves = sum(moved for _, moved, *_ in online_phases)
    loss_reads = sum(seed.reads for seed in seeds) - phase_reads
    assert loss_reads <= sum(cursor) - phase_moves + events * lefts < events * edges // 4


def test_an_expansion_and_its_run_build_no_rank_map(monkeypatch):
    # the run sorts its events from the integer times by rank, so neither the
    # expansion, nor the run, the resumed offline solve or the trace reads a
    # time view, and the graph keeps no id -> rank map (nor any other dict)
    def unread(self):
        raise AssertionError("a time view was read")

    for name in ("arrivals", "locks"):
        monkeypatch.setattr(BipartiteGraph, name, property(unread))
    for seed in range(6):
        g = expand_binary(_online_matching_instance(seed))
        run = run_online_matching(g)
        max_weight_matching(g, run)
        run.trace_jsonl()
        assert g.clock_scale == 1 and all(type(t) is int for t in (*g.arrive, *g.lock)), seed
        assert [ev.clock for ev in run.events] == [ev.tick for ev in run.events], seed
        assert not [name for name, value in vars(g).items() if isinstance(value, dict)], seed


class _ItemWalkCountingRow(dict):
    """An edge row that counts the walks over its `items()`."""

    item_walks = 0

    def items(self):
        self.item_walks += 1
        return super().items()


class _ReadCountingList(list):
    """A list that counts its reads by index."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return super().__getitem__(i)


def test_packed_weights_hold_the_weight_above_the_rank_fields(monkeypatch):
    # one exact integer per edge: the weight over the scale from bit K up, and
    # below it the rank field of (l, r), under 2**(|L| * B) with B =
    # bit_length(|R|): 1,200 bits on the online graph at 100 / h=50, not the
    # |L| * |R| (about 259,000) of one power of two per edge; structural, so
    # it holds at any speed, and on the deeper reference graph too
    for g in (expand_binary(generate(100, 1, 50, 0)), reference_expansion(generate(30, 1, 15, 0))):
        nl, nr = len(g.left_order), len(g.right_order)
        bits = nr.bit_length()
        k = nl * bits + 1
        assert g.packed_shift == k
        assert len(g.packed) == nl
        for a, row in enumerate(g.packed):
            assert set(row) == {*g.rows[a], nr + a} and row[nr + a] == 0
            for b, w in g.rows[a].items():
                packed = row[b]
                assert type(packed) is int and packed >> k == w
                rank_field = packed & ((1 << k) - 1)
                assert rank_field == (nr - b) << (bits * (nl - 1 - a)) < 1 << (nl * bits)
    # one graph's online run and offline solve read the same table object
    tables_read = []
    init = matching._Hungarian.__init__

    def recording_table(self, graph):
        init(self, graph)
        tables_read.append(self.adj)

    monkeypatch.setattr(matching._Hungarian, "__init__", recording_table)
    g = expand_binary(_online_matching_instance(0))
    run_online_matching(g)
    max_weight_matching(g)
    assert len(tables_read) == 2 and all(t is g.packed for t in tables_read)


def certify(solver, g: BipartiteGraph) -> list[str]:
    """Why `solver`'s matching and duals do not prove it optimal over its live
    nodes; empty if they do. Shares no code with `_Hungarian`.

    The nodes are the active lefts (added, sink still live), the live rights
    and the active lefts' sinks: sink `nr + l` is left l's weight-0 way of
    staying unmatched. Weights are the packed integers, the weight over the
    scale shifted above the rank-field secondary, rebuilt here from
    `g.rows`. The checks, in exact integers: `lu + lv >= w` on every edge,
    `==` on every matched edge, `lv >= 0` on every right, and `lv == 0` on
    every free right."""
    nl, nr = len(g.left_order), len(g.right_order)
    field_bits = nr.bit_length()
    shift = nl * field_bits + 1
    lu, lv, live, match_l, match_r = solver.lu, solver.lv, solver.live, solver.match_l, solver.match_r
    active = [a for a in range(nl) if lu[a] is not None and live[nr + a]]
    problems = []

    def weight(a, b):
        return 0 if b == nr + a else (g.rows[a][b] << shift) + ((nr - b) << (field_bits * (nl - 1 - a)))

    for a in active:
        for b in [*g.rows[a], nr + a]:
            if live[b] and lu[a] + lv[b] < weight(a, b):
                problems.append(f"edge ({a}, {b}) is not covered")
        b = match_l[a]
        if b is None or not live[b] or match_r[b] != a or (b not in g.rows[a] and b != nr + a):
            problems.append(f"left {a} is not matched along a live edge")
        elif lu[a] + lv[b] != weight(a, b):
            problems.append(f"matched edge ({a}, {b}) is not tight")
    for b in [b for b in range(nr) if live[b]] + [nr + a for a in active]:
        if lv[b] < 0:
            problems.append(f"right {b} has a negative dual")
        if match_r[b] is None and lv[b] != 0:
            problems.append(f"free right {b} has a nonzero dual")
        if match_r[b] is not None and match_l[match_r[b]] != b:
            problems.append(f"right {b} and its mate disagree")
    return problems


@pytest.fixture
def certified_phases(monkeypatch):
    """Certifies every solver after each of its phases; yields the count."""
    done = []
    init, phase = matching._Hungarian.__init__, matching._Hungarian.phase

    def keeping_graph(self, g):
        init(self, g)
        self.certified_graph = g

    def certified_phase(self, root):
        phase(self, root)
        problems = certify(self, self.certified_graph)
        assert not problems, problems[:5]
        done.append(root)

    monkeypatch.setattr(matching._Hungarian, "__init__", keeping_graph)
    monkeypatch.setattr(matching._Hungarian, "phase", certified_phase)
    yield done


def test_every_phase_is_certified_by_its_duals(certified_phases):
    # online and offline, on every recorded case and a 100-packet run
    phases = 0
    for _, online, offline, _ in _recorded_cases():
        run_online_matching(online)
        max_weight_matching(offline)
        phases += 2 * len(online.left_order)
    g = expand_binary(generate(100, 1, 50, 0))
    run_online_matching(g)
    phases += len(g.left_order)
    assert len(certified_phases) == phases


def test_certify_rejects_a_perturbed_dual_or_a_swapped_pair():
    g = expand_binary(_online_matching_instance(0))
    solver = matching._Hungarian(g)
    for li in range(len(g.left_order)):
        solver.phase(li)
    assert certify(solver, g) == []
    nr = solver.nr
    real = [(a, b) for a, b in enumerate(solver.match_l) if b < nr]
    a, b = real[0]
    # one unit of the secondary, and one of the weight over the scale
    weight_unit = 1 << (len(g.left_order) * nr.bit_length() + 1)
    for duals, node in ((solver.lu, a), (solver.lv, b)):
        for step in (1, -1, weight_unit, -weight_unit):
            kept = duals[node]
            duals[node] = kept + step
            assert certify(solver, g), (node, step)
            duals[node] = kept
    assert certify(solver, g) == []
    # a swap between two lefts whose crossed edges both exist: by the tie
    # rule's uniqueness, both cannot be tight
    a2, b2 = next((a2, b2) for a2, b2 in real if b2 in g.rows[a] and b in g.rows[a2] and a2 != a)
    solver.match_l[a], solver.match_l[a2] = b2, b
    solver.match_r[b], solver.match_r[b2] = a2, a
    assert any("not tight" in p for p in certify(solver, g))


class _FullPushSolver(matching._Hungarian):
    """The solver with a phase that pushes every live edge of every tree left
    onto its heap: the reference for the phase that pushes only the edges
    that can lead on or end it."""

    def phase(self, root):
        lu, lv, adj, rows, live = self.lu, self.lv, self.adj, self.rows, self.live
        match_l, match_r = self.match_l, self.match_r
        in_t, tree_parent, least = {}, {}, {}
        heap = []
        for ri, w in adj[root].items():
            if live[ri]:
                key = least[ri] = lv[ri] - w
                heap.append((key, ri, root))
        heapq.heapify(heap)
        offset = heap[0][0]
        lu[root] = -offset
        in_s = {root: offset}
        while True:
            key, best_ri, src = heapq.heappop(heap)
            if best_ri in in_t:
                continue
            offset = max(offset, key)
            in_t[best_ri] = offset
            tree_parent[best_ri] = src
            occupant = match_r[best_ri]
            if occupant is None:
                ri = best_ri
                while True:
                    li = tree_parent[ri]
                    prev = match_l[li]
                    match_l[li], match_r[ri] = ri, li
                    self.total += rows[li].get(ri, 0) - (0 if prev is None else rows[li].get(prev, 0))
                    if prev is None:
                        break
                    ri = prev
                break
            in_s[occupant] = offset
            u = lu[occupant] + offset
            for ri, w in adj[occupant].items():
                if ri not in in_t and live[ri]:
                    key = u + lv[ri] - w
                    if ri not in least or key < least[ri]:
                        least[ri] = key
                        heapq.heappush(heap, (key, ri, occupant))
        for li, joined in in_s.items():
            lu[li] += joined - offset
        for ri, joined in in_t.items():
            lv[ri] += offset - joined


def _shadowed_solver(compared: list):
    """A solver class that runs a `_FullPushSolver` beside itself and checks,
    after every added left and every lock, that both hold the same matching,
    duals and total; each check appends to `compared`."""

    class Shadowed(matching._Hungarian):
        def __init__(self, g):
            super().__init__(g)
            self.reference = _FullPushSolver(g)

        def compare(self):
            ref = self.reference
            for name in ("match_l", "match_r", "lu", "lv", "total"):
                assert getattr(self, name) == getattr(ref, name), name
            compared.append(1)

        def phase(self, root):
            super().phase(root)
            self.reference.phase(root)
            self.compare()

        def drop_right(self, ri):
            mate = super().drop_right(ri)
            assert self.reference.drop_right(ri) == mate
            self.compare()
            return mate

        def drop_left(self, li):
            super().drop_left(li)
            self.reference.drop_left(li)
            self.compare()

    return Shadowed


def _tie_prone_graphs():
    """Random graphs built to tie: one weight per right shared by every left,
    weights of 0 and 1 (zero-weight real edges kept), small thirds, and every
    fifth graph with one right; times mix ints and Fractions."""
    rng = Random(26)
    instants = [0, 1, 2, F(1, 2), F(3, 2)]
    for k in range(300):
        nl, nr = rng.randint(1, 7), 1 if k % 5 == 0 else rng.randint(2, 7)
        by_right = [rng.randint(0, 2) for _ in range(nr)]
        weigh = (lambda j: by_right[j], lambda j: rng.randint(0, 1),
                 lambda j: F(rng.randint(0, 4), 3))[k % 3]
        lefts, rights = [f"a{i}" for i in range(nl)], [f"b{j}" for j in range(nr)]
        weights = {(a, b): weigh(j) for a in lefts for j, b in enumerate(rights) if rng.random() < 0.85}
        rng.shuffle(lefts)
        rng.shuffle(rights)
        yield graph(lefts, rights, weights, arrivals={a: rng.choice(instants) for a in lefts},
                    locks={b: rng.choice(instants) for b in rights})


def test_phase_matches_the_full_push_reference(monkeypatch):
    # a phase pushes per tree left only its edges to matched rights, to its
    # heaviest free right and to its free sink; the reference pushes every
    # live edge, and after every added left and every lock both states agree,
    # online and offline, on expanded instances and on graphs built to tie
    compared = []
    monkeypatch.setattr(matching, "_Hungarian", _shadowed_solver(compared))
    graphs = [*(expand_binary(_online_matching_instance(seed)) for seed in range(12)),
              expand_binary(generate(60, 1, 20, 0)), *_tie_prone_graphs()]
    expected = 0
    for g in graphs:
        run = run_online_matching(g)
        max_weight_matching(g)
        # two phases per left, a drop per bin, and one per locked mate
        expected += 2 * len(g.left_order) + len(g.right_order) + len(run.perm)
    assert len(compared) == expected


def test_ladder_tool_hashes_the_whole_trace_in_slices():
    # tools/ladder.py renders the trace a slice of events at a time, so that
    # the largest rungs never hold the whole text; the digest is the whole's
    spec = importlib.util.spec_from_file_location("ladder", ROOT / "tools" / "ladder.py")
    ladder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ladder)
    run = run_online_matching(expand_binary(generate(60, 1, 20, 0)))
    assert len(run.events) > ladder.SLICE
    assert ladder.trace_sha256(run) == _sha256(run.trace_jsonl())
    out = ladder.rung(20, 10)
    assert out["events"] == 30 and out["online_weight"] == "369/2" and out["offline_weight"] == "381/2"
    assert out["fresh_agrees"] is True  # the resumed offline solve is the fresh one's
    assert 0 <= out["expand_s"] < 10  # the expansion is timed on its own
    # its `left_edge_steps` is the matcher gate's charge: the least budget it runs under
    steps = out["left_edge_steps"]
    matching.matcher_graph(generate(20, 1, 10, 0), steps, "the rung")
    with pytest.raises(model.BudgetError, match=f"more than {steps - 1} left-edge steps"):
        matching.matcher_graph(generate(20, 1, 10, 0), steps - 1, "the rung")


def test_every_expanded_edge_is_its_transmit_weight():
    # the expansion reads the integer tables, the reference graph
    # transmit_weight on the cost families: the expansion is the reference
    # cut to the first K mini-slots of each slot, K the packets arrived by then
    for seed, deadline_prob in BINARY_CASES:
        inst, full = _binary_case(seed, deadline_prob)
        g = expand_binary(inst)
        arrived = [sum(p.arrival <= t for p in inst.packets) for t in range(inst.horizon + 1)]
        kept = [b for b, (t, i) in minislots(full).items() if i <= arrived[t]]
        assert g.right_order == kept, seed
        assert (g.left_order, g.arrivals, g.locks) == (full.left_order, full.arrivals,
                                                       {b: full.locks[b] for b in kept})
        assert g.weights == {e: w for e, w in full.weights.items() if e[1] in g.locks}, (seed, deadline_prob)


def _independent_weights(g: BipartiteGraph, forced=(), left_subset=None, right_subset=None):
    """The optimum of `constrained_matching`'s problem from scipy and from
    networkx, on weights scaled to integers; forced edges are contracted."""
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    nx = pytest.importorskip("networkx")
    np = pytest.importorskip("numpy")
    sub, base = _subgraph(g, forced, left_subset, right_subset)
    lefts, rights = sub.left_order, sub.right_order
    edges = {e: int(w * sub.scale) for e, w in sub.weights.items()}
    # absent edges cost 0, the same as leaving the left unmatched
    cost = np.zeros((len(lefts), len(rights)), dtype=np.int64)
    for (a, b), w in edges.items():
        cost[lefts.index(a), rights.index(b)] = w
    rows, cols = linear_sum_assignment(cost, maximize=True)
    by_scipy = sum(int(cost[r, c]) for r, c in zip(rows, cols))
    nxg = nx.Graph()
    for (a, b), w in edges.items():
        nxg.add_edge(("L", a), ("R", b), weight=w)
    by_networkx = sum(nxg[u][v]["weight"] for u, v in nx.max_weight_matching(nxg))
    return base + F(by_scipy, sub.scale), base + F(by_networkx, sub.scale)


def test_solver_agrees_with_scipy_and_networkx():
    rng = Random(41)
    graphs = []
    for _ in range(120):
        nl, nr = rng.randint(1, 7), rng.randint(1, 8)
        lefts = [f"a{i}" for i in range(nl)]
        rights = [f"b{j}" for j in range(nr)]
        weights = {(a, b): F(rng.randint(0, 30), rng.choice([1, 2, 3, 4]))
                   for a in lefts for b in rights if rng.random() < 0.6}
        graphs.append(graph(lefts, rights, weights))
    for seed in range(30):
        inst = generate(6, 1, 5, seed, mode=CAMPAIGN_MODES[seed % 3])
        graphs.append(expand_binary(inst))
        graphs.append(reference_expansion(inst))
    for g in graphs:
        cases = [((), None, None)]
        left_subset = {a for a in g.left_order if rng.random() < 0.7}
        right_subset = {b for b in g.right_order if rng.random() < 0.7}
        cases.append(((), left_subset, right_subset))
        inside = sorted(e for e in g.weights if e[0] in left_subset and e[1] in right_subset)
        if inside:
            cases.append(((rng.choice(inside),), left_subset, right_subset))
            cases.append(((rng.choice(sorted(g.weights)),), None, None))
        for forced, ls, rs in cases:
            res = constrained_matching(g, forced, ls, rs)
            assert (res.weight, res.weight) == _independent_weights(g, forced, ls, rs), (g.label, forced)
            assert sum((g.weights[e] for e in res.pairs.items()), F(0)) == res.weight


def test_traced_marginals_agree_with_scipy_and_networkx():
    # every unlocked bin's rho at every event is the active optimum's loss
    # without that bin, by solvers that share no code with the matcher
    rng = Random(43)
    lock_sides = set()
    for _ in range(200):
        nl, nr = rng.randint(1, 6), rng.randint(1, 7)
        lefts = [f"a{i}" for i in range(nl)]
        rights = [f"b{j}" for j in range(nr)]
        weights = {(a, b): F(rng.randint(0, 6), rng.choice([1, 2, 3]))
                   for a in lefts for b in rights if rng.random() < 0.7}
        arrivals = {a: F(rng.randint(0, 8), 2) for a in lefts}
        locks = {b: F(rng.randint(0, 8), 2) for b in rights}
        lock_sides.update((t > u) - (t < u) for t in locks.values() for u in arrivals.values())
        g = graph(lefts, rights, weights, arrivals=arrivals, locks=locks)
        run = run_online_matching(g)
        arrived: set[str] = set()
        locked: set[str] = set()
        for ev in run.events:
            (arrived if ev.kind == "arrival" else locked).update(ev.subject)
            act_l = arrived - {a for b, (a, _) in run.perm.items() if b in locked}
            act_r = set(rights) - locked
            assert _independent_weights(g, (), act_l, act_r) == (ev.temp_weight,) * 2
            for b in act_r:
                without = _independent_weights(g, (), act_l, act_r - {b})
                assert without == (ev.temp_weight - ev.marginals[b],) * 2, (g.weights, ev.clock, b)
    assert lock_sides == {-1, 0, 1}  # locks before, at and after arrivals
