from __future__ import annotations

import hashlib
import json
import math
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from aqisim import valuation
from aqisim.adapters import remote_sampling_family
from aqisim.harness import GENERATOR_MODES, generate
from aqisim.model import (
    COST_KINDS,
    Allocation,
    AllocationError,
    AqiError,
    Bin,
    CostFamily,
    DISCARD,
    Instance,
    Packet,
    SubpacketRef,
    linear,
    load_instance,
    tabulated,
    validate_instance,
)
from aqisim.valuation import (
    evaluate,
    marginal_gains,
    marginal_value,
    tables,
    transmit_weight,
)
from conftest import simple_instance, unit_packet


ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


def ref(pid, j=1):
    return SubpacketRef(pid, j)


# --- evaluate --------------------------------------------------------------

def test_empty_allocation_is_worth_zero(single_packet_instance):
    assert evaluate(single_packet_instance, Allocation()).total == 0


def test_hand_worked_total(single_packet_instance):
    # utility 5, lag 2, one transmission of energy 1
    alloc = Allocation([(ref("p0"), Bin(slot=2))])
    val = evaluate(single_packet_instance, alloc)
    assert val.total == 5 - 2 - 1
    assert val.per_packet["p0"] == (5, 2)
    assert val.per_slot[(2, 0)] == 1
    assert val.recompute_total() == val.total


def test_discarded_packet_contributes_nothing(single_packet_instance):
    alloc = Allocation([(ref("p0"), DISCARD)])
    val = evaluate(single_packet_instance, alloc)
    assert val.total == 0
    assert not val.per_packet and not val.per_slot


def test_unknown_packet_is_structural_error(single_packet_instance):
    with pytest.raises(AllocationError):
        evaluate(single_packet_instance, Allocation([(ref("nope"), DISCARD)]))


def test_weight_scales_utility_and_delay_not_energy():
    inst = simple_instance([unit_packet(weight=3)], horizon=2)
    val = evaluate(inst, Allocation([(ref("p0"), Bin(slot=1))]))
    assert val.per_packet["p0"] == (15, 3)
    assert val.per_slot[(1, 0)] == 1


def test_deadline_voids_utility_and_delay_but_not_energy():
    inst = simple_instance([unit_packet(deadline=1)], horizon=2)
    val = evaluate(inst, Allocation([(ref("p0"), Bin(slot=2))]))
    assert val.per_packet["p0"] == (0, 0)
    assert val.total == -1  # the transmission still burns energy


def _evaluated_allocations():
    """Greedy's and the oracle's allocations, the empty one and a seeded
    random one per instance, on the table instances that the exact oracle
    finishes quickly; built before any test patches the valuation."""
    from aqisim.greedy import run_online_greedy
    from aqisim.oracle import offline_optimal

    rng = Random(3)
    out = []
    for inst in _table_instances():
        allocs = [Allocation(), run_online_greedy(inst).allocation]
        if inst.total_subpackets <= 15:
            allocs.append(offline_optimal(inst).allocation)
        entries = []
        for p in inst.packets:
            for j in range(1, p.subpackets + 1):
                slot = rng.randint(p.arrival, max(inst.horizon, p.arrival))
                b = DISCARD if rng.random() < 0.2 else Bin(slot, rng.randrange(inst.servers))
                entries.append((SubpacketRef(p.id, j), b))
        allocs.append(Allocation(entries))
        out += [(inst, alloc) for alloc in allocs]
    return out


def test_evaluate_reads_neither_the_tables_nor_cost_rows(monkeypatch):
    # `evaluate` is the reference the tables and `CostFamily.row` are checked
    # against: with all three broken it must return the same values
    cases = _evaluated_allocations()
    want = [json.dumps(evaluate(inst, alloc).to_json()) for inst, alloc in cases]

    def broken(*args, **kwargs):
        raise AssertionError("evaluate read the integer tables")

    monkeypatch.setattr(valuation, "tables", broken)
    monkeypatch.setattr(valuation, "Tables", broken)
    monkeypatch.setattr(CostFamily, "row", broken)
    for (inst, alloc), text in zip(cases, want):
        val = evaluate(inst, alloc)
        assert json.dumps(val.to_json()) == text and val.recompute_total() == val.total, inst.label


def _fractions_built(fn):
    """(`fn()`, the number of `Fraction`s built while it ran), counted by a
    profile hook on the constructors, so `Fraction` itself is not patched."""
    constructors = {Fraction.__new__.__code__}
    if hasattr(Fraction, "_from_coprime_ints"):  # Python 3.12+ builds arithmetic results there
        constructors.add(Fraction._from_coprime_ints.__func__.__code__)
    built = 0

    def profile(frame, event, arg):
        nonlocal built
        if event == "call" and frame.f_code in constructors:
            built += 1

    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return out, built


def test_evaluate_reads_each_point_as_a_pair_and_builds_one_fraction(monkeypatch):
    # every curve point comes from `CostFamily.pair`, three per packet that
    # sends in time and one per occupied (slot, server), and the only
    # `Fraction` built is the total
    cases = _evaluated_allocations()

    def refused(self, x):
        raise AssertionError("evaluate read CostFamily.value")

    reads = 0
    pair = CostFamily.pair

    def counted_pair(self, x):
        nonlocal reads
        reads += 1
        return pair(self, x)

    monkeypatch.setattr(CostFamily, "value", refused)
    monkeypatch.setattr(CostFamily, "pair", counted_pair)
    for inst, alloc in cases:
        occupied, points = set(), 0
        for p in inst.packets:
            sent = [b for _, b in alloc.packet_entries(p.id) if not b.is_discard]
            occupied.update((b.slot, b.server) for b in sent)
            if sent and (p.deadline is None or max(b.slot for b in sent) <= p.deadline):
                points += 3
        reads = 0
        _, built = _fractions_built(lambda: evaluate(inst, alloc))
        assert built == 1, inst.label
        assert reads == points + len(occupied), inst.label


@pytest.fixture
def fraction_sums(monkeypatch) -> Counter:
    """Counts `Fraction` additions and subtractions."""
    counts: Counter = Counter()
    for name in ("__add__", "__radd__", "__sub__", "__rsub__"):
        def counted(self, other, _original=getattr(Fraction, name), _name=name):
            counts[_name] += 1
            return _original(self, other)
        monkeypatch.setattr(Fraction, name, counted)
    return counts


def test_evaluate_adds_no_fractions_until_the_breakdown_is_read(fraction_sums):
    cases = _evaluated_allocations()
    fraction_sums.clear()  # greedy and the oracle ran to build them
    vals = [evaluate(inst, alloc) for inst, alloc in cases]
    assert fraction_sums == Counter()
    assert all(val.recompute_total() == val.total for val in vals)
    assert fraction_sums["__add__"] > 0  # reading the breakdown sums Fractions


# --- marginal_value --------------------------------------------------------

def test_first_fragment_marginal(single_packet_instance):
    # utility 5, lag cost at slot 1, first marginal energy of [0,1,3]
    inst = simple_instance([unit_packet()], energy=[tabulated([0, 1, 3])])
    gain = marginal_value(inst, Allocation(), ref("p0"), Bin(slot=1))
    assert gain == 5 - 1 - 1


def test_discard_marginal_is_exactly_zero(single_packet_instance):
    assert marginal_value(single_packet_instance, Allocation(), ref("p0"), DISCARD) == 0


def test_earlier_fragment_has_no_delay_bracket():
    p = Packet(id="p0", arrival=0, subpackets=2, weight=Fraction(1),
               distortion=tabulated([0, 5, 8]), delay_cost=linear(1))
    inst = simple_instance([p], horizon=4)
    alloc = Allocation([(ref("p0", 1), Bin(slot=3))])
    # slot 1 precedes the completion slot: utility increment minus energy only
    assert marginal_value(inst, alloc, ref("p0", 2), Bin(slot=1)) == 3 - 1


def test_already_allocated_is_an_error(single_packet_instance):
    alloc = Allocation([(ref("p0"), DISCARD)])
    with pytest.raises(AllocationError):
        marginal_value(single_packet_instance, alloc, ref("p0"), Bin(slot=0))


def test_marginal_matches_full_difference_randomized():
    rng = Random(5)
    for seed in range(20):
        inst = generate(4, 3, 5, seed, deadline_prob=0.3)
        refs = [SubpacketRef(p.id, j) for p in inst.packets for j in range(1, p.subpackets + 1)]
        for _ in range(60):
            target = rng.choice(refs)
            alloc = Allocation()
            for r in refs:
                if r == target or rng.random() < 0.4:
                    continue
                p = inst.packet(r.packet)
                b = DISCARD if rng.random() < 0.2 else Bin(slot=rng.randint(p.arrival, inst.horizon))
                alloc.add(r, b)
            p = inst.packet(target.packet)
            b = DISCARD if rng.random() < 0.2 else Bin(slot=rng.randint(p.arrival, inst.horizon))
            gain = marginal_value(inst, alloc, target, b)
            direct = evaluate(inst, alloc.extended(target, b)).total - evaluate(inst, alloc).total
            assert gain == direct


def test_marginal_values_match_full_differences_on_every_listed_bin():
    # multi-server instances with deadlines; bin lists hold the discard bin,
    # duplicates and slots past a packet's deadline
    rng = Random(11)
    checked = past_deadline = 0
    for seed in range(24):
        servers = 1 + seed % 3
        inst = generate(5, 3, 5, seed, mode=("random", "adversarial-burst", "adversarial-lock")[seed % 3],
                        servers=servers, deadline_prob=0.5)
        refs = [SubpacketRef(p.id, j) for p in inst.packets for j in range(1, p.subpackets + 1)]
        for _ in range(12):
            target = rng.choice(refs)
            alloc = Allocation()
            for r in refs:
                if r != target and rng.random() < 0.6:
                    p = inst.packet(r.packet)
                    alloc.add(r, DISCARD if rng.random() < 0.2 else
                              Bin(slot=rng.randint(p.arrival, inst.horizon), server=rng.randrange(servers)))
            p = inst.packet(target.packet)
            pool = [Bin(slot=t, server=s) for t in range(p.arrival, inst.horizon + 1)
                    for s in range(servers)] + [DISCARD]
            bins = [rng.choice(pool) for _ in range(rng.randint(1, 2 * len(pool)))]
            base = evaluate(inst, alloc).total
            gains = [Fraction(g, tables(inst).scale) for g in marginal_gains(inst, alloc, target, bins)]
            assert len(gains) == len(bins)
            for b, gain in zip(bins, gains):
                assert gain == evaluate(inst, alloc.extended(target, b)).total - base
                assert gain == marginal_value(inst, alloc, target, b)
                checked += 1
                past_deadline += p.deadline is not None and not b.is_discard and b.slot > p.deadline
    assert checked > 1000 and past_deadline > 50


def test_marginal_values_edge_cases(single_packet_instance):
    inst = single_packet_instance
    alloc = Allocation()
    assert marginal_gains(inst, alloc, ref("p0"), []) == []
    assert marginal_gains(inst, alloc, ref("p0"), [DISCARD, DISCARD]) == [0, 0]
    with pytest.raises(AllocationError):
        marginal_gains(inst, Allocation([(ref("p0"), DISCARD)]), ref("p0"), [Bin(slot=0)])


def test_marginal_values_reject_an_allocation_holding_every_fragment():
    inst = generate(4, 2, 4, 3, servers=2)
    assert inst.packet("p00").subpackets == 2
    alloc = Allocation([(ref("p00", 2), Bin(slot=2)), (ref("p00", 3), Bin(slot=3))])
    with pytest.raises(AllocationError, match="already holds 2 fragments"):
        marginal_gains(inst, alloc, ref("p00", 1), [Bin(slot=2)])


def build_value(inst, steps: list[tuple[SubpacketRef, Bin]]) -> Fraction:
    """Sum of marginals along an ordered build-up (telescopes to evaluate())."""
    alloc = Allocation()
    total = Fraction(0)
    for r, b in steps:
        total += marginal_value(inst, alloc, r, b)
        alloc.add(r, b)
    return total


@pytest.mark.parametrize("b", [Bin(0, server=-1), Bin(0, server=2), Bin(4 + 3, server=0)],
                         ids=["server-1", "server2", "past-horizon"])
def test_marginal_values_reject_bins_outside_the_instance(b):
    inst = generate(4, 2, 4, 3, servers=2)
    target = ref("p00")
    with pytest.raises(AllocationError) as priced:
        marginal_gains(inst, Allocation(), target, [DISCARD, b])
    with pytest.raises(AllocationError) as evaluated:
        evaluate(inst, Allocation([(target, b)]))
    assert str(priced.value) == str(evaluated.value)


@pytest.mark.parametrize("target", [ref("nope"), ref("p00", 9)],
                         ids=["unknown-packet", "fragment-out-of-range"])
def test_discard_only_bins_still_reject_a_bad_fragment(target):
    # the all-discard shortcut comes after the fragment's own checks
    inst = generate(4, 2, 4, 3)
    with pytest.raises(AllocationError):
        evaluate(inst, Allocation([(target, DISCARD)]))
    for price in (lambda: marginal_value(inst, Allocation(), target, DISCARD),
                  lambda: marginal_gains(inst, Allocation(), target, [DISCARD, DISCARD]),
                  lambda: marginal_gains(inst, Allocation(), target, [])):
        with pytest.raises(AllocationError):
            price()


def test_marginal_before_arrival_completes_at_the_arrival():
    inst = generate(4, 2, 4, 3, servers=2)
    late = inst.packet("p01")
    assert late.arrival == 1
    for server in (0, 1):
        before, at = marginal_gains(inst, Allocation(), ref("p01"),
                                    [Bin(0, server), Bin(late.arrival, server)])
        assert before == at


def test_interleaved_instances_price_like_fresh_ones(curve_work):
    # the tables memo holds one instance; switching back and forth must
    # rebuild, never reuse another instance's tables
    a, b = generate(4, 2, 4, 1), generate(4, 2, 4, 2)
    target = ref("p00")

    def priced(inst):
        bins = [Bin(t) for t in range(inst.packet("p00").arrival, inst.horizon + 1)]
        scale = tables(inst).scale
        return [Fraction(g, scale) for g in marginal_gains(inst, Allocation(), target, bins)], [
            evaluate(inst, Allocation([(target, x)])).total for x in bins]

    fresh = {id(inst): priced(inst) for inst in (a, b)}
    curve_work.clear()
    for inst in (a, b, a):
        gains, direct = priced(inst)
        assert gains == direct == fresh[id(inst)][0]
    assert fresh[id(a)][0] != fresh[id(b)][0]
    assert curve_work["tables"] == 3


def _table_instances():
    """The fixtures; general, binary and two-server deadline campaign seeds;
    online-greedy-shaped seeds; sampling-family instances; hand-built
    instances with non-integer parameters."""
    out = [load_instance(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))]
    for seed in range(30):
        mode = GENERATOR_MODES[seed % 3]
        out.append(generate(5, 3, 5, seed, mode=mode))
        out.append(generate(6, 1, 5, seed, mode=mode))
        out.append(generate(4, 2, 4, seed, mode=mode, servers=2, deadline_prob=0.4))
    for seed in range(3):
        out.append(generate(100, 3, 40, seed, mode=GENERATOR_MODES[seed], servers=2, deadline_prob=0.3))
    out += [remote_sampling_family(2, 2, 6, seed) for seed in range(4)]
    return out + _hand_built_instances()


def _family(kind, *params):
    return CostFamily(kind, params=tuple(Fraction(x) for x in params))


def _hand_built_instances():
    """Every cost-family kind with non-integer parameters, which the generator
    never makes: fractional weights, an exponential with scale 2/3 and base
    3/2, saturating curves with bases 3/2 and 5/4, a power 3/4 * x**3, tables
    in thirds, and two packets sharing a fractional lag row."""
    thirds = tabulated(Fraction(v, 3) for v in (0, 1, 3, 6, 10, 15, 21, 28, 36, 45))
    shared = dict(weight=Fraction(5, 7), distortion=_family("saturating", "9/2", "3/2"),
                  delay_cost=_family("power", "3/4", 3))
    two_servers = Instance(
        packets=(
            Packet("a0", arrival=0, subpackets=3, deadline=3, **shared),
            Packet("a1", arrival=1, subpackets=3, weight=Fraction(2, 3),
                   distortion=tabulated(["0", "4/3", "7/3", "3"]),
                   delay_cost=tabulated(["0", "1/3", "1", "2"])),
            Packet("a2", arrival=2, subpackets=2, **shared),
            Packet("a3", arrival=0, subpackets=1, weight=Fraction(11, 5),
                   distortion=linear(Fraction(7, 3)), delay_cost=_family("exponential", "2/3", "3/2")),
        ),
        horizon=4, servers=2, energy=(_family("exponential", "2/3", "3/2"), thirds),
        label="hand/two-servers")
    one_server = Instance(
        packets=(
            Packet("b0", arrival=0, subpackets=2, weight=Fraction(3, 4),
                   distortion=_family("saturating", "2/3", "5/4"), delay_cost=linear(Fraction(5, 6))),
            Packet("b1", arrival=3, subpackets=1, weight=Fraction(5, 7),
                   distortion=tabulated(["0", "2/3"]), delay_cost=_family("power", "3/4", 3)),
        ),
        horizon=3, energy=(_family("power", "1/3", 2),), label="hand/one-server")
    return [two_servers, one_server]


def _tables_sha256(tab) -> str:
    return hashlib.sha256(json.dumps([tab.scale, tab.utility, tab.lag, tab.energy_inc]).encode()).hexdigest()


def test_tables_match_recorded_hashes():
    # recorded while the tables were still built from one `CostFamily.value`
    # call per entry: the integers and the scale themselves are pinned
    recorded = json.loads((ROOT / "tests" / "golden" / "tables.json").read_text())
    assert {f"{i:03d}/{inst.label}": _tables_sha256(tables(inst))
            for i, inst in enumerate(_table_instances())} == recorded


def test_tables_read_each_curve_as_integer_rows(monkeypatch):
    # online-greedy-shaped instances (100 packets, k<=3, h=40, 2 servers) and
    # the hand-built ones: no table entry is read one curve point at a time,
    # nor through a Fraction-valued call (`CostFamily.value` reads `pair`)
    instances = [generate(100, 3, 40, seed, mode=GENERATOR_MODES[seed], servers=2, deadline_prob=0.3)
                 for seed in range(3)] + _hand_built_instances()
    calls = Counter()
    for owner, name in ((CostFamily, "pair"), (Packet, "utility"), (Packet, "lag_cost")):
        def counted(self, x, _original=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _original(self, x)
        monkeypatch.setattr(owner, name, counted)
    for inst in instances:
        assert tables(inst).scale > 0
    assert calls == Counter()


def test_tables_hash_no_fraction(monkeypatch):
    # the lag rows are keyed on integers: building the tables of the table
    # instances hashes no `Fraction`, and neither does anything it calls
    calls = Counter()
    original = Fraction.__hash__

    def counted(self):
        calls["hash"] += 1
        return original(self)

    monkeypatch.setattr(Fraction, "__hash__", counted)
    instances = _table_instances()
    calls.clear()  # building the instances may hash; only the tables count
    for inst in instances:
        assert valuation.Tables(inst).scale > 0
    assert calls == Counter()
    assert hash(Fraction(1, 3)) and calls["hash"] == 1  # the counter sees hashes


def test_lag_rows_are_shared_only_by_equal_weight_and_delay_family(monkeypatch):
    # equal parameters under different kinds, the same values under
    # different kinds and the same family under different weights each get
    # a row of their own; equal weight and family share one
    delays = {
        "lin": linear(1), "lin-again": linear(1), "table": tabulated(range(8)),
        "power": _family("power", 2, 3), "exponential": _family("exponential", 2, 3),
        "saturating": _family("saturating", 2, 3),
    }
    packets = [Packet(f"{name}-w{w}", arrival=w, subpackets=1, weight=Fraction(w, 2),
                      distortion=tabulated([0, 9]), delay_cost=fam)
               for name, fam in delays.items() for w in (1, 2)]
    inst = Instance(packets=tuple(packets), horizon=5, energy=(linear(1),))
    rows = []
    row = CostFamily.row

    def counted(self, n):
        if any(self is fam for fam in delays.values()):
            rows.append(self)
        return row(self, n)

    monkeypatch.setattr(CostFamily, "row", counted)
    tab = valuation.Tables(inst)
    assert len(rows) == 2 * (len(delays) - 1)  # "lin" and "lin-again" share, per weight
    for i, p in enumerate(inst.packets):
        assert [Fraction(x, tab.scale) for x in tab.lag[i]] == [p.lag_cost(d) for d in range(6 - p.arrival)]


def test_hand_built_instances_are_admissible():
    for inst in _hand_built_instances():
        assert validate_instance(inst).ok, inst.label


def test_tables_scale_is_the_least_common_denominator():
    for inst in _table_instances():
        exact = [p.utility(c) for p in inst.packets for c in range(p.subpackets + 1)]
        exact += [p.lag_cost(d) for p in inst.packets
                  for d in range(max(inst.horizon, p.arrival) - p.arrival + 1)]
        exact += [fam.increment(c) for fam in inst.energy for c in range(max(inst.total_subpackets, 1))]
        assert tables(inst).scale == math.lcm(*(x.denominator for x in exact)), inst.label


@pytest.mark.parametrize("curve", ["distortion", "delay_cost", "energy"])
def test_a_tabulated_curve_too_short_for_its_domain_is_an_error(curve):
    # packet k=2 over slots 0..3 needs 3 distortion, 4 delay and 3 energy entries
    short = tabulated(["0", "1/3"])
    curves = dict(distortion=tabulated(["0", "4/3", "7/3"]), delay_cost=tabulated(["0", "1/3", "1", "2"]),
                  energy=tabulated(["0", "1/3", "1"]))
    curves[curve] = short
    p = Packet("p0", arrival=0, subpackets=2, weight=Fraction(2, 3),
               distortion=curves["distortion"], delay_cost=curves["delay_cost"])
    inst = Instance(packets=(p,), horizon=3, energy=(curves["energy"],))
    with pytest.raises(AqiError) as err:
        tables(inst)
    assert str(err.value) == "tabulated cost family has no value at 2 (table length 2)"


def test_tables_match_the_curves_over_the_reachable_domain():
    kinds = set()
    halves = False
    for inst in _table_instances():
        tab = tables(inst)
        exact = lambda row: [Fraction(x, tab.scale) for x in row]
        for i, p in enumerate(inst.packets):
            assert inst.index[p.id] == i
            assert exact(tab.utility[i]) == [p.utility(c) for c in range(p.subpackets + 1)]
            assert exact(tab.lag[i]) == [p.lag_cost(d) for d in range(inst.horizon - p.arrival + 1)]
            kinds |= {p.distortion.kind, p.delay_cost.kind}
            halves |= any(v.denominator == 2 for v in p.distortion.table)
        for s, fam in enumerate(inst.energy):
            assert exact(tab.energy_inc[s]) == [fam.increment(c) for c in range(inst.total_subpackets)]
            kinds.add(fam.kind)
    assert kinds == set(COST_KINDS) and halves


def test_buildup_telescopes_to_total():
    rng = Random(9)
    for seed in range(15):
        inst = generate(4, 3, 4, seed)
        steps = []
        for p in inst.packets:
            slot = p.arrival
            for j in range(1, p.subpackets + 1):
                if rng.random() < 0.25:
                    steps.append((SubpacketRef(p.id, j), DISCARD))
                else:
                    slot = rng.randint(slot, inst.horizon)
                    steps.append((SubpacketRef(p.id, j), Bin(slot=slot)))
        rng.shuffle(steps)
        total = build_value(inst, steps)
        assert total == evaluate(inst, Allocation(steps)).total


def test_value_is_order_independent():
    inst = generate(4, 2, 4, seed=3)
    entries = []
    rng = Random(1)
    for p in inst.packets:
        slot = p.arrival
        for j in range(1, p.subpackets + 1):
            slot = rng.randint(slot, inst.horizon)
            entries.append((SubpacketRef(p.id, j), Bin(slot=slot)))
    forward = evaluate(inst, Allocation(entries)).total
    backward = evaluate(inst, Allocation(list(reversed(entries)))).total
    assert forward == backward


def test_known_diminishing_returns_violation_is_real():
    # Linear utility, unit lag slope: a fragment slotted between two existing
    # ones rides free on delay in the larger set but pays in the smaller one.
    p = Packet(id="p0", arrival=0, subpackets=3, weight=Fraction(1),
               distortion=linear(5), delay_cost=linear(1))
    inst = simple_instance([p], horizon=5, energy=[linear(0)])
    small = Allocation([(ref("p0", 1), Bin(slot=0))])
    large = small.extended(ref("p0", 2), Bin(slot=5))
    gain_small = marginal_value(inst, small, ref("p0", 3), Bin(slot=3))
    gain_large = marginal_value(inst, large, ref("p0", 3), Bin(slot=3))
    assert gain_small == 5 - 3  # pays the delay from slot 0 to 3
    assert gain_large == 5      # completion already at slot 5: no delay bracket
    assert gain_small < gain_large  # diminishing returns fails here, by design


# --- transmit_weight -------------------------------------------------------

def test_transmit_weight_substitution():
    inst = simple_instance([unit_packet()], energy=[tabulated([0, 1, 3])])
    p = inst.packets[0]
    assert transmit_weight(inst, p, slot=0, position=1) == 5 - 0 - 1
    assert transmit_weight(inst, p, slot=0, position=2) == 5 - 0 - 2
    assert transmit_weight(inst, p, slot=2, position=1) == 5 - 2 - 1


def test_transmit_weight_past_deadline_is_minus_energy():
    inst = simple_instance([unit_packet(deadline=1)], energy=[tabulated([0, 1, 3])])
    p = inst.packets[0]
    assert transmit_weight(inst, p, slot=2, position=1) == -1
    assert transmit_weight(inst, p, slot=2, position=2) == -2


def test_transmit_weight_may_go_negative():
    inst = simple_instance([unit_packet(value=2)], energy=[tabulated([0, 4, 9])])
    p = inst.packets[0]
    assert transmit_weight(inst, p, slot=0, position=1) == -2


def test_transmit_weight_needs_unit_packets():
    p = Packet(id="p0", arrival=0, subpackets=2, weight=Fraction(1),
               distortion=tabulated([0, 5, 8]), delay_cost=linear(1))
    inst = simple_instance([p], horizon=2)
    with pytest.raises(Exception, match="unit packets"):
        transmit_weight(inst, p, slot=0, position=1)
