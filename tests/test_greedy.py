from __future__ import annotations

import hashlib
import importlib.util
import json
from fractions import Fraction
from pathlib import Path
from random import Random

from aqisim import greedy, model, reduction, valuation
from aqisim.greedy import arrival_order, candidate_bins, run_online_greedy
from aqisim.harness import generate
from aqisim.model import (
    DISCARD,
    Allocation,
    Bin,
    CostFamily,
    Packet,
    SubpacketRef,
    linear,
    load_instance,
    rational_to_json,
    tabulated,
)
from aqisim.reduction import run_lockfree_greedy
from aqisim.valuation import evaluate, marginal_gains, marginal_value, tables
from conftest import allocation_in_index_order, simple_instance, unit_packet

F = Fraction


def test_single_packet_takes_the_best_slot(single_packet_instance):
    run = run_online_greedy(single_packet_instance)
    step = run.state.steps[0]
    assert step.chosen == Bin(slot=0)
    assert step.gain == 4
    # the full gain table over slots 0..2 plus discard
    assert [g for _, g in step.alternatives] == [4, 3, 2, 0]
    assert run.valuation.total == 4


def test_worthless_packet_is_discarded():
    inst = simple_instance([unit_packet(value=2)], horizon=1, energy=[tabulated([0, 4, 9])])
    run = run_online_greedy(inst)
    assert run.state.steps[0].chosen.is_discard
    assert run.state.steps[0].gain == 0
    assert run.valuation.total == 0


def test_crowding_pushes_second_packet_later():
    # energy increments 1 then 3: the second same-slot transmission costs 3,
    # one slot of lag costs only 1 + the fresh marginal 1
    inst = simple_instance(
        [unit_packet(pid="p0"), unit_packet(pid="p1")],
        horizon=2, energy=[tabulated([0, 1, 4, 9])],
    )
    run = run_online_greedy(inst)
    by_packet = {s.ref.packet: s for s in run.state.steps}
    assert by_packet["p0"].chosen == Bin(slot=0) and by_packet["p0"].gain == 4
    # hand table for p1: slot0 = 5-3-0 = 2, slot1 = 5-1-1 = 3, slot2 = 5-1-2 = 2
    assert [g for _, g in by_packet["p1"].alternatives] == [2, 3, 2, 0]
    assert by_packet["p1"].chosen == Bin(slot=1)


def test_equal_gains_break_to_the_earliest_slot():
    inst = simple_instance([unit_packet(slope=0)], horizon=2)
    run = run_online_greedy(inst)
    step = run.state.steps[0]
    assert [g for _, g in step.alternatives] == [4, 4, 4, 0]
    assert step.chosen == Bin(slot=0)


def test_zero_gain_prefers_a_regular_bin_over_discard():
    # value exactly covers lag plus energy: every bin ties at 0
    inst = simple_instance([unit_packet(value=1, slope=0)], horizon=1)
    run = run_online_greedy(inst)
    step = run.state.steps[0]
    assert [g for _, g in step.alternatives] == [0, 0, 0]
    assert step.chosen == Bin(slot=0)
    assert not step.chosen.is_discard


def test_step_gains_telescope_to_the_total():
    for seed in range(20):
        inst = generate(5, 3, 5, seed, deadline_prob=0.2)
        run = run_online_greedy(inst)
        assert sum((s.gain for s in run.state.steps), F(0)) == run.valuation.total
        assert all(s.gain >= 0 for s in run.state.steps)


def test_replaying_the_step_log_reproduces_the_value():
    for seed in range(15):
        inst = generate(4, 3, 4, seed)
        run = run_online_greedy(inst)
        alloc = Allocation()
        total = F(0)
        for step in run.state.steps:
            total += marginal_value(inst, alloc, step.ref, step.chosen)
            alloc.add(step.ref, step.chosen)
        assert total == run.valuation.total


def test_allocations_respect_arrival_causality_and_index_order():
    for seed in range(20):
        inst = generate(5, 3, 5, seed)
        run = run_online_greedy(inst)
        for ref, b in run.allocation.entries.items():
            if not b.is_discard:
                assert b.slot >= inst.packet(ref.packet).arrival
        assert allocation_in_index_order(run.allocation)
        assert evaluate(inst, run.allocation).total == run.valuation.total


def test_fragments_arrive_in_index_order():
    inst = generate(4, 3, 4, seed=2)
    refs = arrival_order(inst)
    arrivals = [inst.packet(r.packet).arrival for r in refs]
    assert arrivals == sorted(arrivals)
    seen: dict[str, int] = {}
    for r in refs:
        assert r.index == seen.get(r.packet, 0) + 1
        seen[r.packet] = r.index


def test_horizon_argmax_emits_a_warning():
    # zero lag cost and a crowded first slot: the second fragment strictly
    # prefers the horizon slot, which should be flagged
    p = Packet(id="p0", arrival=0, subpackets=2, weight=F(1),
               distortion=tabulated([0, 5, 10]), delay_cost=linear(0))
    inst = simple_instance([p], horizon=1, energy=[tabulated([0, 1, 3])])
    run = run_online_greedy(inst)
    assert any("horizon" in w for w in run.state.warnings)


def test_step_log_jsonl_shape(single_packet_instance):
    run = run_online_greedy(single_packet_instance)
    line = json.loads(run.step_log_jsonl().splitlines()[0])
    assert line["packet"] == "p0" and line["chosen_bin"] == "t0s0" and line["rho"] == 4
    assert [alt["bin"] for alt in line["alternatives"]] == ["t0s0", "t1s0", "t2s0", "discard"]


def test_multiserver_greedy_spreads_load():
    # two servers with convex energy: fragments split across servers
    sq = tabulated([0, 1, 4, 9, 16])
    p = Packet(id="p0", arrival=0, subpackets=2, weight=F(1),
               distortion=linear(10), delay_cost=linear(1))
    inst = simple_instance([p], horizon=1, energy=[sq, sq], servers=2)
    run = run_online_greedy(inst)
    bins = sorted(b.id for b in run.allocation.entries.values())
    assert bins == ["t0s0", "t0s1"]


# --- recorded outputs and work per step -----------------------------------------

ROOT = Path(__file__).resolve().parent.parent
GENERATOR_MODES = ("random", "adversarial-burst", "adversarial-lock")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _recorded_cases():
    """The instances behind tests/golden/greedy_step_logs.json: the fixtures,
    online-greedy-shaped seeds (100 packets, k<=3, h=40, 2 servers) and
    smaller multi-server instances with deadlines."""
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        yield f"fixtures/{path.name}", load_instance(path.read_text())
    for seed in range(5):
        yield f"online-greedy/{seed}", generate(100, 3, 40, seed, mode=GENERATOR_MODES[seed % 3], servers=2)
    for seed in range(3):
        yield f"deadlines/{seed}", generate(30, 3, 12, seed, mode=GENERATOR_MODES[seed % 3],
                                            servers=2, deadline_prob=0.5)


def test_step_logs_and_allocations_match_recorded_hashes():
    # recorded while every bin's marginal was still computed on its own, by
    # scanning the whole allocation; batching must not change a byte
    recorded = json.loads((ROOT / "tests" / "golden" / "greedy_step_logs.json").read_text())
    seen = []
    for name, inst in _recorded_cases():
        run = run_online_greedy(inst)
        frozen = run_lockfree_greedy(inst)
        lockfree = "\n".join(
            json.dumps([s.step, s.ref.packet, s.ref.index, s.chosen.id, rational_to_json(s.gain)])
            for s in frozen.steps
        )
        assert {
            "step_log_sha256": _sha256(run.step_log_jsonl()),
            "allocation_sha256": _sha256(json.dumps(run.allocation.to_json(), sort_keys=True)),
            "lockfree_sha256": _sha256(lockfree),
            "total": rational_to_json(run.valuation.total),
        } == recorded[name], name
        seen.append(name)
    assert sorted(seen) == sorted(recorded)


# Cost-family evaluations of one greedy run on online-greedy seed 0 when each
# candidate bin was rescored on its own.
PER_BIN_RESCORING_VALUE_CALLS = 49_222

# The same run's evaluations once packets sharing a weight and delay-cost
# family share one lag row; it made 3,129 while each packet had its own.
SHARED_LAG_ROW_VALUE_CALLS = 2_000


def test_greedy_shares_packet_and_energy_terms_across_bins(monkeypatch):
    inst = generate(100, 3, 40, 0, mode="random", servers=2)
    calls = 0
    pair = CostFamily.pair

    def counted(self, x):
        nonlocal calls
        calls += 1
        return pair(self, x)

    monkeypatch.setattr(CostFamily, "pair", counted)
    run_online_greedy(inst)
    assert 0 < calls <= SHARED_LAG_ROW_VALUE_CALLS < PER_BIN_RESCORING_VALUE_CALLS // 2


def test_greedy_lists_its_candidate_bins_once_per_run(monkeypatch):
    # each step scores a slice of one list; building the list per step made
    # 7,604 bins on this instance
    inst = generate(100, 3, 40, 0, mode="random", servers=2)
    built = 0
    init = Bin.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Bin, "__init__", counted)
    run = run_online_greedy(inst)
    assert len(run.state.steps) > inst.horizon
    assert 0 < built <= (inst.horizon + 1) * inst.servers + 1


def test_alternatives_are_the_integer_gains_over_the_scale():
    inst = generate(30, 3, 12, 1, mode="adversarial-burst", servers=2, deadline_prob=0.5)
    run = run_online_greedy(inst)
    scale = tables(inst).scale
    for step in run.state.steps:
        assert step.scale == scale
        assert step.alternatives == [(b, F(g, scale)) for b, g in zip(step.bins, step.gains)]
        assert step.bins == candidate_bins(inst, inst.packet(step.ref.packet).arrival)
        assert (step.chosen, step.gain) in step.alternatives


def _reference_cases():
    """The recorded cases, where fixtures/minimal.json's one fragment fills
    its bin to the top of the energy row, plus one more multi-server
    deadline instance."""
    yield from _recorded_cases()
    yield "deadlines/21", generate(30, 3, 12, 21, mode="random", servers=2, deadline_prob=0.5)


def _sweep_instance(seed: int):
    """A small seeded instance built to hit the pick's edge cases: small
    integer curves that tie often, the discard bin's 0 included; deadlines
    at the arrival, inside and beyond the horizon, so a segment is often
    empty; 1-3 servers; arrivals at and past the horizon."""
    rng = Random(seed)
    horizon, servers = rng.randint(0, 4), rng.randint(1, 3)
    packets = []
    for i in range(rng.randint(1, 5)):
        arrival = rng.randint(0, horizon + 1)
        k = rng.randint(1, 3)
        utility = [0]
        for _ in range(k):
            utility.append(utility[-1] + rng.randint(0, 4))
        deadline = rng.choice([None, arrival, arrival + rng.randint(0, horizon + 1)])
        weight = F(rng.choice([1, 1, 2]), rng.choice([1, 2]))
        packets.append(Packet(id=f"p{i}", arrival=arrival, subpackets=k, weight=weight,
                              distortion=tabulated(utility), delay_cost=linear(rng.randint(0, 2)),
                              deadline=deadline))
    levels = sum(p.subpackets for p in packets) + 2
    energy = []
    for _ in range(servers):
        steps = sorted(rng.randint(0, 3) for _ in range(levels))
        energy.append(tabulated([sum(steps[:c]) for c in range(levels)]))
    return simple_instance(packets, horizon=horizon, energy=energy, servers=servers)


def _pick_cases():
    """The reference cases and 300 small instances from `_sweep_instance`."""
    yield from _reference_cases()
    for seed in range(300):
        yield f"sweep/{seed}", _sweep_instance(seed)


def test_step_gains_are_the_reference_marginals():
    # greedy prices from running per-bin energy; every step must equal
    # marginal_gains on the allocation the earlier steps built
    for name, inst in _pick_cases():
        run = run_online_greedy(inst)
        partial = Allocation()
        for step in run.state.steps:
            reference = marginal_gains(inst, partial, step.ref, step.bins)
            assert step.gains == reference, (name, step.step)
            partial.add(step.ref, step.chosen)


def test_greedy_and_the_replay_price_independently(monkeypatch):
    # greedy-bridge compares greedy with the replay; it is a check only while
    # greedy makes no marginal_gains call and the replay makes one per fragment
    calls = 0
    reference = valuation.marginal_gains

    def counted(*args):
        nonlocal calls
        calls += 1
        return reference(*args)

    for module in (valuation, greedy, reduction):
        if hasattr(module, "marginal_gains"):
            monkeypatch.setattr(module, "marginal_gains", counted)
    for name, inst in _reference_cases():
        calls = 0
        run_online_greedy(inst)
        assert calls == 0, name
        run_lockfree_greedy(inst)
        assert calls == len(arrival_order(inst)), name


def _canonical_relabeling(steps) -> Allocation:
    """The step log's picks, relabeled per packet: the chosen regular bins by
    (slot, server) take indices 1, 2, ... and the discarded fragments the rest."""
    picks: dict[str, list[Bin]] = {}
    for step in steps:
        picks.setdefault(step.ref.packet, []).append(step.chosen)
    out = Allocation()
    for pid, bins in picks.items():
        regular = sorted((b for b in bins if not b.is_discard), key=lambda b: (b.slot, b.server))
        for j, b in enumerate(regular + [DISCARD] * (len(bins) - len(regular)), start=1):
            out.add(SubpacketRef(pid, j), b)
    return out


def test_allocation_is_written_once_in_canonical_labels(monkeypatch):
    # one Allocation.add per fragment; a second, relabeled copy of the
    # allocation doubled that
    adds = 0
    add = Allocation.add

    def counted(self, ref, b):
        nonlocal adds
        adds += 1
        add(self, ref, b)

    for name, inst in _reference_cases():
        adds = 0
        with monkeypatch.context() as patch:
            patch.setattr(Allocation, "add", counted)
            run = run_online_greedy(inst)
        assert adds == inst.total_subpackets, name
        assert run.allocation == _canonical_relabeling(run.state.steps), name


def test_greedy_and_the_replay_agree_step_by_step():
    # the two pricings must pick the same bin at the same integer gain at
    # every step, not only reach the same total
    for name, inst in _reference_cases():
        run, replay = run_online_greedy(inst), run_lockfree_greedy(inst)
        assert len(run.state.steps) == len(replay.steps) == inst.total_subpackets, name
        for mine, theirs in zip(run.state.steps, replay.steps):
            assert (mine.ref, mine.chosen, mine.gains[mine.pick]) == \
                (theirs.ref, theirs.chosen, theirs.gains[theirs.pick]), (name, mine.step)


# --- the pick without the row -----------------------------------------------------

def test_the_pick_is_the_first_strict_maximum_of_the_row():
    # greedy finds its pick from segment minima without building the row;
    # the row, rendered on read, must put the first strict maximum there
    # (test_step_gains_are_the_reference_marginals holds the row to the
    # reference), and the picks must sum to the total
    seen = {"discard tie": 0, "empty deadline segment": 0, "past the horizon": 0, "at the horizon": 0}
    servers = set()
    for name, inst in _pick_cases():
        run = run_online_greedy(inst)
        scale = tables(inst).scale
        for step in run.state.steps:
            gains = step.gains
            assert step.pick == greedy.first_max(gains), (name, step.step)
            seen["discard tie"] += gains[step.pick] == 0 and not step.chosen.is_discard
            p = inst.packet(step.ref.packet)
            seen["empty deadline segment"] += p.deadline == p.arrival  # no slot after the first is on time
            seen["at the horizon"] += p.arrival == inst.horizon
            seen["past the horizon"] += p.arrival > inst.horizon
        servers.add(inst.servers)
        assert F(sum(s.gains[s.pick] for s in run.state.steps), scale) == run.valuation.total, name
    assert all(seen.values()) and servers == {1, 2, 3}, (seen, servers)


def test_greedy_renders_no_gains_row_until_one_is_read(monkeypatch):
    # the run finds each pick from segment minima; a step's row is rendered
    # when first read, once, and the replay's rows are its own lists
    rendered = 0
    render = greedy.render_gains

    def counted(row):
        nonlocal rendered
        rendered += 1
        return render(row)

    monkeypatch.setattr(greedy, "render_gains", counted)
    for name, inst in _reference_cases():
        rendered = 0
        run = run_online_greedy(inst)
        run_lockfree_greedy(inst)
        assert rendered == 0, name
        step = run.state.steps[-1]
        assert step.gains is step.gains and step.gain == F(step.gains[step.pick], step.scale), name
        assert len(step.alternatives) == len(step.bins), name
        assert rendered == 1, name


def _reference_step_log(run) -> str:
    """The step log as one `json.dumps` of each step's dict writes it."""
    lines = [json.dumps({
        "step": s.step,
        "packet": s.ref.packet,
        "index": s.ref.index,
        "chosen_bin": s.chosen.id,
        "rho": rational_to_json(s.gain),
        "alternatives": [{"bin": b.id, "rho": rational_to_json(g)} for b, g in s.alternatives],
    }, sort_keys=True) for s in run.state.steps]
    return "\n".join(lines) + ("\n" if lines else "")


# Packet ids that JSON must escape: a quote, a backslash, a newline, a tab,
# non-ASCII characters in and beyond the basic plane, and one id that only
# looks like an escape.
AWKWARD_IDS = ['say "hi"', "back\\slash", "new\nline", "tab\there", "café", "ü€𝄞", "\\u0041"]


def _awkward_instance():
    """A two-server instance whose packet ids need escaping, loaded from JSON."""
    doc = json.loads((ROOT / "fixtures" / "minimal.json").read_text())
    doc["servers"] = 2
    doc["energy"] = [{"kind": "tabulated", "table": [c * (c + 1) // 2 for c in range(15)]}] * 2
    template = doc["packets"][0]
    doc["packets"] = [
        {**template, "id": pid, "arrival": i % 3, "subpackets": 1 + i % 2,
         "distortion": {"kind": "tabulated", "table": [0, 5, 8]}}
        for i, pid in enumerate(AWKWARD_IDS)
    ]
    return load_instance(json.dumps(doc))


def test_step_log_is_what_json_dumps_writes():
    awkward = _awkward_instance()
    assert [p.id for p in awkward.packets] == AWKWARD_IDS
    for name, inst in [*_reference_cases(), ("awkward ids", awkward)]:
        run = run_online_greedy(inst)
        assert run.step_log_jsonl() == _reference_step_log(run), name


def test_step_log_renders_each_distinct_gain_once(monkeypatch):
    # each distinct gain's text is rendered once per run, by the number-text
    # cache in `model`; the zero that the discard bin always scores is never
    # rendered
    calls = 0
    render = model.rational_to_json

    def counted(value):
        nonlocal calls
        calls += 1
        return render(value)

    monkeypatch.setattr(model, "rational_to_json", counted)
    for seed in range(10):
        run = run_online_greedy(generate(30, 3, 10, seed, servers=2))
        numbers = {g for s in run.state.steps for g in s.gains}
        numbers.discard(0)
        calls = 0
        run.step_log_jsonl()
        assert calls <= len(numbers), seed
        assert calls < sum(len(s.bins) for s in run.state.steps) // 4, seed


# --- the price log ------------------------------------------------------------------

def _order_cases():
    """Small instances with 1-3 servers, deadlines and arrivals at and past
    the horizon, and two multi-server deadline instances."""
    for seed in range(120):
        yield f"sweep/{seed}", _sweep_instance(seed)
    for seed in range(2):
        yield f"deadlines/{seed}", generate(30, 3, 12, seed, mode=GENERATOR_MODES[seed % 3],
                                            servers=2, deadline_prob=0.5)


def test_gains_read_in_any_order_are_the_rows_read_in_order():
    # each row is rendered from the run's one price log, which moves forward
    # from the step it last gave and starts over only on a backward read
    servers = set()
    for name, inst in _order_cases():
        in_order = [s.gains for s in run_online_greedy(inst).state.steps]
        backwards = run_online_greedy(inst).state.steps
        rows = [s.gains for s in reversed(backwards)][::-1]
        assert rows == in_order, name
        shuffled = run_online_greedy(inst)
        order = list(range(len(in_order)))
        Random(name).shuffle(order)
        rows = {k: shuffled.state.steps[k].gains for k in order}
        assert [rows[k] for k in range(len(in_order))] == in_order, name
        # a step log joined from rows rendered out of order is the in-order one
        assert shuffled.step_log_jsonl() == run_online_greedy(inst).step_log_jsonl(), name
        servers.add(inst.servers)
    assert servers == {1, 2, 3}


def test_no_step_holds_prices_of_its_own():
    # a step's row holds the run's one price log and the packet's own lag
    # row from the tables; each step used to copy every price from its first
    # bin on, about 80 integers per step at the benchmark's size
    for name, inst in _reference_cases():
        run = run_online_greedy(inst)
        tab = tables(inst)
        steps = run.state.steps
        log = steps[0]._row[0]
        assert isinstance(log, greedy.PriceLog), name
        assert len(log.first) == (inst.horizon + 1) * inst.servers and len(log.changes) == len(steps), name
        for step in steps:
            row = step._row
            assert row[0] is log, (name, step.step)
            held = [x for x in row if isinstance(x, (list, tuple))]
            assert len(held) == 1 and held[0] is tab.lag[inst.index[step.ref.packet]], (name, step.step)


# --- tools -------------------------------------------------------------------------

def test_greedy_ladder_tool_reports_the_run_and_its_step_log(capsys):
    # tools/greedy_ladder.py N K H S: one greedy run and its step log, with
    # the digests the recorded hashes above hold for the same outputs
    spec = importlib.util.spec_from_file_location("greedy_ladder", ROOT / "tools" / "greedy_ladder.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["30", "3", "12", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    run = run_online_greedy(generate(30, 3, 12, 0, servers=2))
    assert out["steps"] == len(run.state.steps) > 30
    assert out["step_log_sha256"] == _sha256(run.step_log_jsonl())
    assert out["allocation_sha256"] == _sha256(json.dumps(run.allocation.to_json(), sort_keys=True))
    assert out["run_s"] >= 0 and out["step_log_s"] >= 0 and out["peak_rss_mb"] > 0
    assert tool.main(["30", "3", "12"]) == 2 and capsys.readouterr().err.startswith("usage:")
