from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from random import Random

import pytest

from aqisim import harness, matching, oracle
from aqisim.cli import _budget, build_parser, main
from aqisim.harness import (
    CampaignConfig,
    adversarial_lock_probe,
    check_instance,
    csv_row,
    generate,
    increment_consistency_samples,
    run_bundle,
    run_campaign,
    submodularity_samples,
)
from aqisim.matching import max_weight_matching, run_online_matching
from aqisim.model import (
    AqiError,
    BudgetError,
    CostFamily,
    Packet,
    admission_charges,
    linear,
    load_instance,
    store_instance,
    tabulated,
    validate_instance,
)
from aqisim.valuation import tables
from conftest import simple_instance, unit_packet

F = Fraction
ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


# --- generator ---------------------------------------------------------------

def test_generation_is_deterministic_and_valid():
    for mode in ("random", "adversarial-lock", "adversarial-burst"):
        a = generate(5, 3, 5, seed=4, mode=mode)
        b = generate(5, 3, 5, seed=4, mode=mode)
        assert store_instance(a) == store_instance(b)
        assert validate_instance(a).ok
    assert store_instance(generate(5, 3, 5, 4)) != store_instance(generate(5, 3, 5, 5))


def test_zero_packets_yields_an_empty_instance():
    inst = generate(0, 1, 3, seed=0)
    assert inst.packets == ()


def test_burst_mode_shares_one_arrival_slot():
    inst = generate(6, 1, 5, seed=3, mode="adversarial-burst")
    assert len({p.arrival for p in inst.packets}) == 1


def test_every_mode_generates_a_zero_horizon_instance():
    # the late half of adversarial-lock once drew its arrival from an empty range
    for mode in ("random", "adversarial-lock", "adversarial-burst"):
        inst = generate(4, 2, 0, seed=1, mode=mode, deadline_prob=0.5)
        assert validate_instance(inst).ok
        assert {p.arrival for p in inst.packets} == {0}


def test_bad_parameters_rejected():
    with pytest.raises(AqiError):
        generate(3, 0, 3, seed=0)
    with pytest.raises(AqiError):
        generate(3, 1, 3, seed=0, mode="chaotic")
    with pytest.raises(AqiError):
        generate(3, 1, 3, seed=0, deadline_prob=1.5)


def test_seed42_fixture_matches_the_generator():
    frozen = (FIXTURES / "seed42.json").read_text()
    assert store_instance(generate(5, 1, 4, 42)) == frozen


def test_seed42_regression_values():
    inst = load_instance((FIXTURES / "seed42.json").read_text())
    matching, _ = run_bundle(inst, "matching")
    greedy, _ = run_bundle(inst, "greedy")
    assert matching["alg_value"] == 62 and matching["opt_value"] == 62
    assert greedy["alg_value"] == 62 and greedy["opt_value"] == 62


# the perfbench shapes (packets, max_k, horizon, servers) over their
# acceptance and held-out seeds, in the campaign's mode order
BENCH_SHAPES = {
    "verify-binary": ((6, 1, 5, 1), 1000),
    "verify-general": ((5, 3, 5, 1), 400),
    "online-matching": ((20, 1, 10, 1), 120),
    "online-greedy": ((100, 3, 40, 2), 60),
}


def _generated_batches():
    """The instance batches behind tests/golden/generated_instances.json, as
    (name, instances)."""
    modes = CampaignConfig(seeds=[]).modes
    for name, ((n, k, h, servers), seeds) in BENCH_SHAPES.items():
        yield name, (generate(n, k, h, s, mode=modes[s % 3], servers=servers) for s in range(seeds))
    yield "deadlines", (generate(4, 2, 4, s, servers=2, deadline_prob=0.4) for s in range(60))
    for mode in harness.GENERATOR_MODES:
        yield f"zero-horizon/{mode}", (generate(4, 2, 0, s, mode=mode, deadline_prob=0.5) for s in range(20))
        yield f"no-packets/{mode}", (generate(0, 1, 3, s, mode=mode) for s in range(3))


def test_generated_instances_match_recorded_hashes():
    # recorded before the generator summed its tables in integers: every
    # generated instance is pinned byte for byte
    recorded = json.loads((ROOT / "tests" / "golden" / "generated_instances.json").read_text())
    assert {name: hashlib.sha256("".join(map(store_instance, batch)).encode()).hexdigest()
            for name, batch in _generated_batches()} == recorded


def test_generation_adds_no_fraction(monkeypatch):
    # the generator sums each table's increments as integers and makes each
    # entry one Fraction: on the online-greedy shape, in every mode and with
    # deadlines, no Fraction is added
    calls = []
    for name in ("__add__", "__radd__"):
        def counted(self, other, _original=getattr(F, name), _name=name):
            calls.append(_name)
            return _original(self, other)
        monkeypatch.setattr(F, name, counted)
    for seed, mode in enumerate(harness.GENERATOR_MODES):
        generate(100, 3, 40, seed, mode=mode, servers=2, deadline_prob=0.3)
    assert calls == []
    assert F(1, 3) + 1 == 1 + F(1, 3) and calls == ["__add__", "__radd__"]  # the hooks see additions


# --- probe -------------------------------------------------------------------

def test_probe_is_verified_against_the_offline_oracle():
    g = adversarial_lock_probe(100, 1)
    run = run_online_matching(g)
    opt = max_weight_matching(g)
    ratio = run.weight / opt.weight
    assert F(1, 2) < ratio <= F(51, 100)


def test_probe_parameter_validation():
    with pytest.raises(AqiError):
        adversarial_lock_probe(10, 10)


# --- bundles and spot checks ---------------------------------------------------

def test_run_bundle_shapes():
    inst = generate(4, 1, 4, seed=42)
    report, traces = run_bundle(inst, "matching")
    assert report["ratio"]["kind"] == "ok"
    assert "matching" in traces
    line = csv_row(42, report)
    assert line.startswith("42,4,4,4,matching,")
    report2, traces2 = run_bundle(inst, "greedy")
    assert "greedy" in traces2
    with pytest.raises(AqiError, match="unknown algorithm"):
        run_bundle(inst, "quantum")


def counted_graph_builds(monkeypatch) -> list[str]:
    """The labels of the graphs `BipartiteGraph.from_rows` builds from now on."""
    built = []
    from_rows = matching.BipartiteGraph.from_rows

    def counted(*args, **kwargs):
        graph = from_rows(*args, **kwargs)
        built.append(graph.label)
        return graph

    monkeypatch.setattr(matching.BipartiteGraph, "from_rows", counted)
    return built


def test_matching_run_and_binary_checks_expand_each_instance_once(monkeypatch):
    # the online run and the offline optimum share one expanded graph
    built = counted_graph_builds(monkeypatch)
    inst = generate(6, 1, 5, seed=1, mode="adversarial-burst")
    run_bundle(inst, "matching")
    assert built == [inst.label]
    config = CampaignConfig(seeds=[1], checks=("matching-halfopt", "bin-marginal-monotone"))
    results = check_instance(inst, config, seed=1)
    assert set(results) == set(config.checks) and all(r["ok"] for r in results.values())
    assert built == [inst.label, inst.label]


def test_the_matcher_gate_charges_the_built_graphs_lefts_times_edges():
    # the gate counts the edges before it builds them: each instance runs on
    # both matcher paths at a budget of exactly its built graph's lefts x
    # edges, and is refused at one less
    for seed, mode in enumerate(2 * harness.GENERATOR_MODES):
        inst = generate(6, 1, 5, seed=seed, mode=mode)
        graph = matching.expand_binary(inst)
        steps = len(graph.left_order) * sum(map(len, graph.rows))
        assert steps > 0
        config = CampaignConfig(seeds=[seed], checks=harness.BINARY_CHECKS, budget=steps)
        assert all("skipped" not in r for r in check_instance(inst, config, seed).values())
        assert run_bundle(inst, "matching", budget=steps)[1]["matching"].weight == run_online_matching(graph).weight
        config.budget = steps - 1
        skipped = f"instance too large for the binary checks: more than {steps - 1} left-edge steps"
        assert all(r["skipped"] == skipped for r in check_instance(inst, config, seed).values())
        with pytest.raises(BudgetError, match=f"^instance too large for the matcher: more than {steps - 1} "):
            run_bundle(inst, "matching", budget=steps - 1)


def test_binary_checks_skip_an_instance_past_the_budget(tmp_path, capsys, monkeypatch):
    # 400 unit packets in one slot: 160,000 positive edges, and each of the
    # 400 arrival phases may walk them all, past the default budget of 10M;
    # the edges are counted, and neither matcher path builds a graph
    built = counted_graph_builds(monkeypatch)
    many = simple_instance([unit_packet(f"p{i:03d}") for i in range(400)], horizon=0)
    results = check_instance(many, CampaignConfig(seeds=[0], checks=harness.BINARY_CHECKS), seed=0)
    skipped = "instance too large for the binary checks: more than 10000000 left-edge steps"
    assert results == {name: {"ok": True, "skipped": skipped} for name in harness.BINARY_CHECKS}
    with pytest.raises(BudgetError, match="too large for the matcher"):
        run_bundle(many, "matching")
    assert built == []
    # `--budget` sets the gate: a six-packet instance (59 curve points as the
    # validation gate charges them, 222 left-edge steps) runs under the
    # default and is skipped under a budget of 100
    path = tmp_path / "small.json"
    path.write_text(store_instance(generate(6, 1, 5, seed=1, mode="adversarial-burst")))
    argv = ["verify", str(path), "--checks", *harness.BINARY_CHECKS]
    for budget, skip in ((None, None), ("100", "more than 100 left-edge steps")):
        assert main(argv + (["--budget", budget] if budget else [])) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert all((skip in r["skipped"]) if skip else "skipped" not in r for r in checks.values())
    # under a budget of 10 it is refused before validation
    assert main(argv + ["--budget", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: instance too large to validate: more than 10 curve points\n"


def test_run_refuses_a_matching_past_the_budget(tmp_path, capsys, monkeypatch):
    # the same 400 single-slot unit packets: `run --algorithm matching` ran
    # for longer than 20 s before the left-edge gate covered it, and it is
    # refused before its graph is built
    path = tmp_path / "many.json"
    gen = ["gen", "--packets", "400", "--max-k", "1", "--horizon", "0", "--seed", "0", "--out", str(path)]
    assert main(gen) == 0
    capsys.readouterr()
    built = counted_graph_builds(monkeypatch)
    assert main(["run", str(path), "--algorithm", "matching"]) == 2
    assert built == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: instance too large for the matcher: more than 10000000 left-edge steps\n"
    # a small instance still runs under the default budget
    assert main(["run", str(ROOT / "fixtures" / "worked_binary.json"), "--algorithm", "matching"]) == 0
    assert json.loads(capsys.readouterr().out)["algorithm"] == "matching"


def test_huge_inputs_are_refused_before_the_work_they_would_cost(tmp_path, capsys, monkeypatch):
    # fixtures/minimal.json with a horizon of 1,000,000: `opt --budget 20000`
    # spent seconds validating its million-point delay curve before its
    # budget error; it is refused before any curve point is evaluated
    doc = json.loads((ROOT / "fixtures" / "minimal.json").read_text())
    doc["horizon"] = 1_000_000
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    values = 0
    pair = CostFamily.pair

    def counted_pair(self, x):
        nonlocal values
        values += 1
        return pair(self, x)

    monkeypatch.setattr(CostFamily, "pair", counted_pair)
    assert main(["opt", str(path), "--budget", "20000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: instance too large to validate: more than 20000 curve points\n"
    assert values == 0
    # the gate counts the points each curve's checks range over: each energy
    # curve on 0..total fragments, and each packet's distortion and delay
    # curves; validation decides a valid curve by its shape, with no point
    # evaluated
    doc["horizon"] = 1_000
    inst = load_instance(json.dumps(doc))
    values = 0
    assert validate_instance(inst).ok
    assert values == 0
    assert admission_charges(inst)[0] == 2 + 2 + 1_001
    # one packet of 20,000 fragments with a saturating distortion took 4-6 s
    # to validate point by point
    many = simple_instance([Packet("p0", 0, 20_000, F(1), CostFamily("saturating", params=(F(1, 3), F(10))),
                                   linear(1))], horizon=5)
    assert validate_instance(many).ok
    assert values == 0
    # the oracle's gate charges each schedule once per cell, since its code
    # and every memo key hold a field of total_subpackets.bit_length() bits
    # per cell: one unit packet over 20,001 slots has 20,001 schedules, under
    # the default budget, but 20,001 x 20,001 cells is not; it is refused
    # before the search builds its energy prefix sums or any schedule
    doc["horizon"] = 20_000
    inst = load_instance(json.dumps(doc))
    sums = 0

    def counted_accumulate(*args, **kwargs):
        nonlocal sums
        sums += 1
        return accumulate(*args, **kwargs)

    monkeypatch.setattr(oracle, "accumulate", counted_accumulate)
    with pytest.raises(oracle.BudgetError, match="too large for exact oracle"):
        oracle.offline_optimal(inst)
    assert sums == 0
    # at 1,000 slots (1,001 schedules x 1,001 cells) it still runs
    doc["horizon"] = 999
    assert oracle.offline_optimal(load_instance(json.dumps(doc))).valuation.total == 4 and sums > 0


def test_the_oracle_charges_its_energy_table_before_building_it(tmp_path, capsys, monkeypatch):
    # fixtures/minimal.json with one packet of 3,000 fragments, linear
    # distortion, horizon 0 and energy 2**(64 c) - 1: both gates admitted it,
    # and the search's energy table, every m <= 3,000 at every occupancy with
    # values up to 192,000 bits wide, ended `run` in a MemoryError. The table
    # is charged its 4,501,500 entries times the 3,001 machine words of its
    # widest prefix sum, so `opt` is refused and `run` reports no optimum,
    # neither having built a prefix sum
    doc = json.loads((FIXTURES / "minimal.json").read_text())
    doc["horizon"] = 0
    doc["packets"][0].update(subpackets=3_000, distortion={"kind": "linear", "params": [1]})
    doc["energy"] = [{"kind": "exponential", "params": [1, 2 ** 64]}]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    sums = 0

    def counted_accumulate(*args, **kwargs):
        nonlocal sums
        sums += 1
        return accumulate(*args, **kwargs)

    monkeypatch.setattr(oracle, "accumulate", counted_accumulate)
    # each energy entry is charged its own width, about 4.6M words in all,
    # under the default budget
    assert 4_500_000 < admission_charges(load_instance(path.read_text()))[1] < 4_700_000
    assert main(["opt", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: instance too large for exact oracle: more than 10000000 nodes\n"
    assert main(["run", str(path), "--algorithm", "greedy"]) == 0
    assert json.loads(capsys.readouterr().out)["opt_value"] is None
    assert sums == 0
    # at 100 fragments the table is 5,050 entries of 101 words, and it runs
    doc["packets"][0]["subpackets"] = 100
    assert oracle.offline_optimal(load_instance(json.dumps(doc))).valuation.total == 0 and sums > 0


def test_a_power_curve_is_charged_its_exponent_before_it_is_computed(tmp_path, capsys, monkeypatch):
    # fixtures/minimal.json with a delay curve of x**1,000,000,000: its four
    # points kept `opt` busy past a 20 s timeout, computing x**e to validate
    # them; each point is charged its exponent, so the file is refused
    # before any value or row of a curve is computed
    doc = json.loads((FIXTURES / "minimal.json").read_text())
    doc["packets"][0]["delay_cost"] = {"kind": "power", "params": [1, 1_000_000_000]}
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(doc))
    assert admission_charges(load_instance(path.read_text()))[0] == 2 + 2 + 4 * 1_000_000_000
    calls = 0

    def refused(self, *args):
        nonlocal calls
        calls += 1
        raise AssertionError("a curve was computed")

    monkeypatch.setattr(CostFamily, "pair", refused)
    monkeypatch.setattr(CostFamily, "row", refused)
    assert main(["opt", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {path}: instance too large to validate: more than 10000000 curve points\n"
    assert calls == 0


def test_the_integer_tables_are_charged_their_scale_before_they_are_built(tmp_path, capsys, monkeypatch):
    # fixtures/minimal.json with one packet of 20,000 fragments, distortion
    # saturating [1/3, 10] and horizon 5: 40,008 curve points, far under the
    # validation gate, but the tables' common scale, which lifts every entry
    # to the lcm of the entries' denominators, is 10**20,000, 66,439 bits wide, and
    # building them took 130 s and 1,126 MB. Their 40,007 entries are each
    # charged the words of a bound on the scale's bits, so `run` is refused
    # before any curve row is read
    doc = json.loads((FIXTURES / "minimal.json").read_text())
    doc["horizon"] = 5
    doc["packets"][0].update(subpackets=20_000, distortion={"kind": "saturating", "params": ["1/3", 10]})
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc))
    rows = 0
    row = CostFamily.row

    def counted_row(self, n):
        nonlocal rows
        rows += 1
        return row(self, n)

    monkeypatch.setattr(CostFamily, "row", counted_row)

    def refused(points):
        assert admission_charges(load_instance(path.read_text()))[0] == points
        assert main(["run", str(path), "--algorithm", "greedy"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: instance too large to validate: more than 10000000 curve points\n"
        assert rows == 0

    assert admission_charges(load_instance(path.read_text()))[1] > 10_000_000
    refused(20_001 + 20_001 + 6)
    # at 5,000 fragments (tables of 2.2 s and 88 MB, a 16,610-bit scale) the
    # charge stays under the default budget
    doc["packets"][0]["subpackets"] = 5_000
    assert admission_charges(load_instance(json.dumps(doc)))[1] < 10_000_000
    # a base with denominator 1 grows no denominator: with distortion
    # `exponential [1, 2]` the scale is 1 (charged 3 bits), and each of the
    # 20,000 energy steps and 6 lags is charged one word, but the utilities
    # 2**x - 1 are each charged their own width, 3 + 1 + 2 * x bits at x
    doc["packets"][0].update(subpackets=20_000, distortion={"kind": "exponential", "params": [1, 2]})
    n = 20_001
    assert admission_charges(load_instance(json.dumps(doc)))[1] == 20_000 + 6 + n + (n * 4 + 2 * n * (n - 1) // 2) // 64
    # 40,000 fragments, linear distortion, energy `exponential [1, 2]` and
    # horizon 0: the scale is 1, but the energy entries 2**x - 1 grow a bit
    # per fragment, 12.5M words in all, and the tables peaked at 235 MB.
    # Charged by the width of each entry, 3 + 1 + 2 * x bits at x on the
    # energy row's 40,001 points, besides 40,002 one-word entries, the
    # instance is refused before any curve row is read
    doc.update(horizon=0, energy=[{"kind": "exponential", "params": [1, 2]}])
    doc["packets"][0].update(subpackets=40_000, distortion={"kind": "linear", "params": [1]})
    path.write_text(json.dumps(doc))
    n = 40_001
    assert admission_charges(load_instance(path.read_text()))[1] == 40_002 + n + (n * 4 + 2 * n * (n - 1) // 2) // 64
    refused(40_001 + 40_001 + 1)


def _random_curve(rng: Random, n: int) -> CostFamily:
    """A curve of any kind with fractional parameters, read on 0..n-1."""
    def frac():
        return F(rng.randint(0, 12), rng.randint(1, 12))

    kind = rng.choice(("linear", "power", "exponential", "saturating", "tabulated"))
    if kind == "tabulated":
        return tabulated([frac() for _ in range(n)])
    if kind == "power":
        return CostFamily(kind, params=(frac(), F(rng.randint(1, 3))))
    if kind == "linear":
        return CostFamily(kind, params=(frac(),))
    return CostFamily(kind, params=(frac(), F(rng.randint(1, 12), rng.randint(1, 12))))


def test_the_tables_charge_bounds_the_tables_built():
    # `admission_charges` charges every entry of the tables the words of a bound on
    # their common scale's bits, in closed form; on random curves of every
    # kind, fractional weights included, the tables built never need more
    wide = 0
    for seed in range(150):
        rng = Random(seed)
        horizon, servers = rng.randint(0, 60), rng.randint(1, 2)
        packets = []
        for i in range(rng.randint(1, 4)):
            arrival, k = rng.randint(0, horizon), rng.randint(1, 40)
            packets.append(Packet(id=f"p{i}", arrival=arrival, subpackets=k,
                                  weight=F(rng.randint(1, 9), rng.randint(1, 9)),
                                  distortion=_random_curve(rng, k + 1),
                                  delay_cost=_random_curve(rng, horizon - arrival + 1)))
        levels = sum(p.subpackets for p in packets) + 1
        inst = simple_instance(packets, horizon=horizon, servers=servers,
                               energy=[_random_curve(rng, levels) for _ in range(servers)])
        tab = tables(inst)
        entries = sum(map(len, tab.utility)) + sum(map(len, tab.lag)) + sum(map(len, tab.energy_inc))
        words = 1 + tab.scale.bit_length() // 64
        assert entries * words <= admission_charges(inst)[1], seed
        wide += words > 1
    assert wide > 50


@pytest.mark.parametrize("argv, values", [
    (["gen", "--packets", "1", "--horizon", "100000000"], 0),
    (["adapt-sampling", "--horizon", "100000000"], 0),
    # the default unit value reads a power curve's last increment only once the gate admits it
    (["adapt-speedscale", "--jobs", "[[1,0]]", "--horizon", "100000000"], 0),
    (["adapt-aoi", "--events", '{"s1": [0]}', "--values", '{"s1": 5}', "--horizon", "100000000"], 0),
    (["campaign", "--seeds", "0:1", "--packets", "1", "--horizon", "100000000", "--checks", "submodularity"], 0),
    # a power curve of exponent 10M: reading its increment took 52 s
    (["adapt-speedscale", "--jobs", "[[50,0]]", "--horizon", "2", "--powers", "10000000"], 0),
])
def test_built_instances_past_the_budget_are_refused_before_validation(argv, values, capsys, monkeypatch):
    # the generator and the adapters validate what they build: over 100M
    # slots each delay curve has 100M points, and validating them ended in a
    # MemoryError; now the same curve-point gate as a read file refuses them
    calls = 0
    pair = CostFamily.pair

    def counted_pair(self, x):
        nonlocal calls
        calls += 1
        return pair(self, x)

    monkeypatch.setattr(CostFamily, "pair", counted_pair)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(": instance too large to validate: more than 10000000 curve points\n")
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert calls == values


def test_run_bundle_rejects_matching_on_general_instances():
    inst = generate(3, 3, 4, seed=11)
    assert not inst.is_binary()
    with pytest.raises(AqiError, match="unit-packet"):
        run_bundle(inst, "matching")


def test_spot_checks_on_an_empty_instance():
    inst = generate(0, 1, 3, seed=0)
    assert increment_consistency_samples(inst, Random(0), 10)["checked"] == 0
    assert submodularity_samples(inst, Random(0), 10)["checked"] == 0


def test_submodularity_counterexamples_are_confirmed():
    found = 0
    for seed in range(12):
        inst = generate(4, 3, 5, seed)
        res = submodularity_samples(inst, Random(seed), 80)
        for ce in res["counterexamples"]:
            assert ce["confirmed"]
            found += 1
    # the delay accounting genuinely breaks diminishing returns somewhere
    assert found > 0


# --- campaign ------------------------------------------------------------------

def small_config(**kw) -> CampaignConfig:
    base = dict(seeds=list(range(8)), packets=3, max_k=1, horizon=3, samples=15)
    base.update(kw)
    return CampaignConfig(**base)


def test_campaign_passes_and_is_byte_deterministic():
    summary1 = run_campaign(small_config())
    summary2 = run_campaign(small_config())
    assert summary1["ok"]
    assert json.dumps(summary1, sort_keys=True) == json.dumps(summary2, sort_keys=True)


def test_campaign_counts_cover_every_seed():
    summary = run_campaign(small_config())
    slot = summary["checks"]["matching-halfopt"]
    assert slot["instances"] == 8
    assert slot["pass"] + slot["fail"] + slot["skipped"] == 8


def test_fault_injection_fails_the_replay_check(tmp_path):
    summary = run_campaign(small_config(mutate="frozen-gain-bias",
                                        checks=("greedy-bridge",)),
                           out_dir=str(tmp_path))
    slot = summary["checks"]["greedy-bridge"]
    assert not summary["ok"] and slot["fail"] > 0
    assert slot["counterexamples"]
    dumps = list(tmp_path.glob("fail_greedy-bridge_*.json"))
    assert dumps, "failing checks must leave a reproduction file"
    doc = json.loads(dumps[0].read_text())
    assert "instance" in doc and doc["command"].startswith("aqisim campaign")


def test_general_campaign_skips_binary_checks():
    summary = run_campaign(small_config(max_k=3, seeds=list(range(6))))
    slot = summary["checks"]["matching-halfopt"]
    assert slot["skipped"] + slot["pass"] == 6
    assert summary["ok"]


def test_empty_check_set_yields_an_empty_summary():
    summary = run_campaign(small_config(checks=()))
    assert summary["checks"] == {} and summary["ok"]


# --- CLI -----------------------------------------------------------------------

def test_cli_gen_run_opt_round_trip(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    assert main(["gen", "--packets", "3", "--horizon", "3", "--seed", "7",
                 "--out", str(inst_path)]) == 0
    assert validate_instance(load_instance(inst_path.read_text())).ok

    assert main(["run", str(inst_path), "--algorithm", "matching",
                 "--trace-out", str(tmp_path / "trace")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ratio"]["kind"] == "ok"
    assert (tmp_path / "trace.matching.jsonl").exists()

    assert main(["opt", str(inst_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "opt_value" in doc and "allocation" in doc


def test_python_dash_m_runs_the_cli_from_a_checkout(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

    def aqisim(*args):
        return subprocess.run([sys.executable, "-m", "aqisim", *args], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=120)

    made = aqisim("gen", "--packets", "3", "--horizon", "3", "--seed", "7", "--out", "inst.json")
    assert made.returncode == 0, made.stderr
    assert validate_instance(load_instance((tmp_path / "inst.json").read_text())).ok
    bad = aqisim("gen", "--max-k", "0")
    assert bad.returncode == 2 and bad.stderr.startswith("error:")


def test_cli_run_csv_format(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--packets", "2", "--horizon", "2", "--seed", "1", "--out", str(inst_path)])
    assert main(["run", str(inst_path), "--algorithm", "greedy", "--format", "csv",
                 "--seed", "1"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("seed,n_packets")
    assert lines[1].startswith("1,2,")


def test_cli_campaign_exit_codes(tmp_path, capsys):
    out = tmp_path / "summary.json"
    code = main(["campaign", "--seeds", "0:4", "--packets", "3", "--horizon", "3",
                 "--samples", "10", "--out", str(out)])
    assert code == 0
    summary = json.loads(out.read_text())
    assert summary["ok"]
    capsys.readouterr()
    code = main(["campaign", "--seeds", "0:4", "--packets", "3", "--horizon", "3",
                 "--samples", "10", "--mutate", "frozen-gain-bias",
                 "--checks", "greedy-bridge"])
    capsys.readouterr()
    assert code == 1


def test_cli_campaign_of_one_seed_in_csv_format(tmp_path, capsys):
    # `--seeds 7` is the one seed 7; the CSV has a row per check, in the
    # order the checks ran, with the summary's counts
    out = tmp_path / "summary.json"
    assert main(["campaign", "--seeds", "7", "--out", str(out)]) == 0
    summary = json.loads(out.read_text())
    assert summary["config"]["seeds"] == [7]
    capsys.readouterr()
    assert main(["campaign", "--seeds", "7", "--format", "csv"]) == 0
    slots = [(name, summary["checks"][name]) for name in summary["config"]["checks"]]
    assert capsys.readouterr().out.splitlines() == ["check,instances,pass,fail,skipped"] + [
        f"{name},{slot['instances']},{slot['pass']},{slot['fail']},{slot['skipped']}" for name, slot in slots]


def test_multi_server_campaign_skips_the_binary_checks(tmp_path, capsys):
    # unit-packet instances on two servers have no binary expansion: the
    # matcher's checks are skipped there instead of aborting the campaign
    out = tmp_path / "summary.json"
    code = main(["campaign", "--seeds", "0:60", "--packets", "4", "--max-k", "2", "--horizon", "4",
                 "--servers", "2", "--deadline-prob", "0.4", "--out", str(out)])
    assert "error:" not in capsys.readouterr().err
    summary = json.loads(out.read_text())
    assert code == (0 if summary["ok"] else 1)
    for name in ("matching-halfopt", "bin-marginal-monotone"):
        assert summary["checks"][name] == {
            "instances": 60, "pass": 0, "fail": 0, "skipped": 60, "counterexamples": []}
    unit = generate(4, 1, 4, 3, servers=2)
    results = check_instance(unit, CampaignConfig(seeds=[0], checks=("matching-halfopt",)), seed=0)
    assert results["matching-halfopt"]["skipped"] == "needs a single-server unit-packet instance"


def test_cli_verify_single_instance(tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    main(["gen", "--packets", "3", "--max-k", "2", "--horizon", "3", "--seed", "2",
          "--out", str(inst_path)])
    assert main(["verify", str(inst_path), "--checks", "greedy-bridge",
                 "increment-consistency"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"]


def test_cli_adapters_emit_valid_instances(capsys):
    assert main(["adapt-aoi", "--events", '{"s1": [1, 3]}', "--values", '{"s1": 9}',
                 "--horizon", "6"]) == 0
    inst = load_instance(capsys.readouterr().out)
    assert validate_instance(inst).ok
    assert main(["adapt-speedscale", "--jobs", "[[2, 0]]", "--servers", "2",
                 "--powers", "2", "2", "--horizon", "2"]) == 0
    inst = load_instance(capsys.readouterr().out)
    assert inst.servers == 2
    assert main(["adapt-sampling", "--sources", "2", "--seed", "5"]) == 0
    inst = load_instance(capsys.readouterr().out)
    assert validate_instance(inst).ok


def test_cli_reports_parse_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["opt", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_reports_an_instance_file_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bin.json"
    bad.write_bytes(b"\xff\xfe\x00bad")
    assert main(["run", str(bad), "--algorithm", "greedy"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not UTF-8") and "Traceback" not in err


def test_cli_reports_deeply_nested_json(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)
    assert main(["run", str(deep), "--algorithm", "greedy"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nested too deeply" in err and "Traceback" not in err


def test_campaign_cli_defaults_are_the_config_defaults():
    # a repro command omits every field at its CampaignConfig default, so the
    # CLI must parse an omitted flag to exactly that default
    args = build_parser().parse_args(["campaign"])
    default = CampaignConfig(seeds=[])
    for key, value in default.to_json().items():
        if key not in ("seeds", "budget"):
            parsed = getattr(args, key)
            assert (list(parsed) if isinstance(value, list) else parsed) == value, key
    assert args.budget is None and _budget(args) == default.budget
    assert build_parser().parse_args(["verify", "x.json"]).samples == default.samples


@pytest.mark.parametrize("argv", [
    ["campaign", "--seeds", "a:b"],
    ["campaign", "--seeds", "3:"],
    ["adapt-aoi", "--events", '{"s1": [1, 3]', "--values", '{"s1": 9}', "--horizon", "6"],
    ["adapt-aoi", "--events", '{"s1": [1, 3]}', "--values", "{s1: 9}", "--horizon", "6"],
    ["adapt-speedscale", "--jobs", "[[2, 0]", "--horizon", "2"],
    # well-formed JSON of the wrong shape or with values that are not rationals
    ["adapt-aoi", "--events", '{"s1": [1, 3]}', "--values", '{"s1": "x"}', "--horizon", "6"],
    ["adapt-aoi", "--events", '{"s1": [1, 3]}', "--values", '{"s1": 1.5}', "--horizon", "6"],
    ["adapt-aoi", "--events", '{"s1": [1, 3]}', "--values", "[9]", "--horizon", "6"],
    ["adapt-aoi", "--events", '{"s1": 3}', "--values", '{"s1": 9}', "--horizon", "6"],
    ["adapt-aoi", "--events", '[[1, 3]]', "--values", '{"s1": 9}', "--horizon", "6"],
    ["adapt-speedscale", "--jobs", "[1]", "--horizon", "2"],
    ["adapt-speedscale", "--jobs", "[[2, 0, 1]]", "--horizon", "2"],
    ["adapt-speedscale", "--jobs", "[[2, 0]]", "--powers", "x", "--horizon", "2"],
    # empty or reversed seed ranges, negative sample counts, probabilities outside [0, 1]
    ["campaign", "--seeds", "5:2"],
    ["campaign", "--seeds", "4:4"],
    ["campaign", "--seeds", "0:3", "--samples", "-3"],
    ["campaign", "--seeds", "0:3", "--deadline-prob", "-0.1"],
    ["verify", str(FIXTURES / "minimal.json"), "--samples", "-3"],
    ["gen", "--deadline-prob", "2"],
    ["gen", "--deadline-prob", "nan"],
    # a node budget below 1 would skip every oracle check
    ["verify", str(FIXTURES / "minimal.json"), "--budget", "0"],
    ["opt", str(FIXTURES / "minimal.json"), "--budget", "-5"],
    ["campaign", "--seeds", "0:3", "--budget", "0"],
    # more seeds than the budget, refused before the list is built: the first
    # two ended in an OverflowError and a MemoryError building it
    ["campaign", "--seeds", "0:100000000000000000000000"],
    ["campaign", "--seeds", "0:1000000000000"],
    ["campaign", "--seeds", "0:4", "--budget", "3"],
    # JSON nested deeper than the decoder's recursion limit
    ["adapt-speedscale", "--jobs", "[" * 5000 + "]" * 5000, "--horizon", "2"],
])
def test_cli_rejects_malformed_arguments_without_a_traceback(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad --") and "Traceback" not in err


@pytest.mark.parametrize("argv", [["gen", "--max-k", "1000000000"], ["gen", "--servers", "100000000"]])
def test_generation_past_the_budget_is_refused_before_its_first_draw(argv, capsys, monkeypatch):
    # up to packets x max_k distortion steps and servers x packets x max_k
    # energy steps: both commands were still drawing after 10 s
    monkeypatch.setattr(harness, "Random", None)  # a draw would raise a TypeError
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: random seed=0: instance too large to generate: more than 10000000 cost steps\n")
    with pytest.raises(BudgetError, match="too large to generate"):
        generate(10, 500_001, 0, 0)  # 10 x 500,001 x (1 + 1) steps: 20 past the budget


def test_generation_validation_would_refuse_is_refused_before_its_first_draw(capsys, monkeypatch):
    # 3,000,000 packets pass the cost-step charge (6M steps) but need about
    # 13 GB before `require_valid` refuses them: the bound on their curve
    # points refuses them first, with `require_valid`'s own line
    monkeypatch.setattr(harness, "Random", None)  # a draw would raise a TypeError
    assert main(["gen", "--packets", "3000000"]) == 2
    assert capsys.readouterr().err == (
        "error: random seed=0: instance too large to validate: more than 10000000 curve points\n")
    with pytest.raises(BudgetError, match="too large to validate"):
        generate(2_000_000, 1, 0, 0, servers=2)  # 2 x 2,000,001 + 6,000,000 points


def test_the_generation_bound_never_exceeds_the_curve_points_charged():
    # servers x (packets + 1) + 3 x packets is a lower bound on the points
    # `admission_charges` charges a generated instance, in every mode
    rng = Random(34)
    for seed in range(60):
        packets, max_k, horizon, servers = rng.randint(0, 7), rng.randint(1, 3), rng.randint(0, 6), rng.randint(1, 3)
        for mode in harness.GENERATOR_MODES:
            inst = generate(packets, max_k, horizon, seed, mode=mode, servers=servers, deadline_prob=0.3)
            assert servers * (packets + 1) + 3 * packets <= admission_charges(inst)[0], (seed, mode)


@pytest.mark.parametrize("argv", [
    ["adapt-aoi", "--events", "[" * 5000 + "]" * 5000, "--values", "{}", "--horizon", "3"],
    ["adapt-aoi", "--events", '{"s1": [1]}', "--values", '{"s1": "' + "x" * 5000 + '"}',
     "--horizon", "3"],
    ["campaign", "--seeds", "0:" + "x" * 5000],
])
def test_cli_error_line_does_not_echo_a_long_argument_whole(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad --") and err.count("\n") == 1
    assert len(err) < 400 and "..." in err


@pytest.mark.parametrize("argv, shown", [
    # argparse's own refusal was a usage block and the whole value: 5,344
    # characters for this one
    (["gen", "--horizon", "1" * 5001], "'" + "1" * 79 + "...: expected an integer"),
    (["gen", "--deadline-prob", "x"], "'x': expected a number"),
    (["campaign", "--modes", "nope"], "'nope': expected one of random, adversarial-lock, adversarial-burst"),
    (["gen", "--bogus", "y" * 500], "'--bogus " + "y" * 71 + "..."),
])
def test_cli_refuses_a_bad_option_value_in_one_short_line(argv, shown, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(("error: bad --", "error: unrecognized arguments '")) and err.count("\n") == 1
    assert err.rstrip("\n").endswith(shown) and len(err) < 200
    # help keeps its usage text
    with pytest.raises(SystemExit) as exit_:
        main([argv[0], "--help"])
    assert exit_.value.code == 0 and capsys.readouterr().out.startswith(f"usage: aqisim {argv[0]}")


@pytest.mark.parametrize("case", ["cost kind", "packet id", "validated packet id", "values key", "events key"])
def test_cli_error_line_cuts_long_strings_from_the_input(case, tmp_path, capsys):
    # each of these strings used to be echoed whole, 3,000 characters
    long, linear = "x" * 3000, {"kind": "linear", "params": [1]}
    packet = {"id": long, "arrival": 0, "subpackets": 1, "weight": 0,
              "distortion": linear, "delay_cost": linear}
    late = json.loads((ROOT / "fixtures" / "minimal.json").read_text())
    late["packets"][0].update(id=long, arrival=9)  # past the horizon: the validator names the packet
    docs = {"cost kind": {"horizon": 2, "energy": [{"kind": long, "params": [1]}], "packets": []},
            "packet id": {"horizon": 2, "energy": [linear], "packets": [packet]},
            "validated packet id": late}
    if case in docs:
        (tmp_path / "inst.json").write_text(json.dumps(docs[case]))
        argv = ["opt", str(tmp_path / "inst.json")]
    elif case == "values key":
        argv = ["adapt-aoi", "--events", '{"s1": [1]}', "--values", json.dumps({long: "x"}),
                "--horizon", "3"]
    else:
        argv = ["adapt-aoi", "--events", json.dumps({long: [1]}), "--values", "{}", "--horizon", "3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err) < 250 and "..." in err


def test_greedy_run_reports_no_optimum_for_an_instance_past_the_budget(tmp_path, capsys):
    # README's 300-packet instance has about 35M in-order schedules: the oracle
    # must refuse it before building any, not grow until memory runs out
    code = ("import resource\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from aqisim.harness import generate, run_bundle\n"
            "report, _ = run_bundle(generate(300, 3, 100, 0, servers=2), 'greedy', require_opt=False)\n"
            "print(report['opt_value'])\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "None\n"
    # a budget that admission passes and the oracle does not: the report has
    # no optimum, and `--require-opt` turns that into the oracle's error
    path = tmp_path / "inst.json"
    assert main(["gen", "--packets", "8", "--max-k", "3", "--horizon", "6", "--seed", "1", "--out", str(path)]) == 0
    argv = ["run", str(path), "--algorithm", "greedy", "--budget", "300"]
    assert main(argv) == 0 and json.loads(capsys.readouterr().out)["opt_value"] is None
    assert main(argv + ["--require-opt"]) == 2
    assert capsys.readouterr().err == "error: instance too large for exact oracle: more than 300 nodes\n"


@pytest.mark.parametrize("shape", ["1000 unit packets", "one packet of 1000 fragments"])
def test_cli_reports_an_instance_too_deep_for_the_oracle(shape, tmp_path, capsys):
    # the search recurses once per packet and schedule building once per
    # fragment; past Python's recursion limit that is a budget error
    if shape == "1000 unit packets":
        packets = [unit_packet(f"p{i:04d}") for i in range(1000)]
    else:
        packets = [Packet(id="p0", arrival=0, subpackets=1000, weight=F(1),
                          distortion=tabulated(range(1001)), delay_cost=linear(1))]
    path = tmp_path / "deep.json"
    path.write_text(store_instance(simple_instance(packets, horizon=0)))
    for argv in (["opt", str(path)], ["run", str(path), "--algorithm", "greedy", "--require-opt"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: instance too deep for exact oracle: past Python's recursion limit\n"
    assert main(["run", str(path), "--algorithm", "greedy"]) == 0
    assert json.loads(capsys.readouterr().out)["opt_value"] is None
    assert main(["verify", str(path), "--checks", "greedy-halfopt", "greedy-bridge", "opt-bridge"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert all("too deep" in r["skipped"] for r in checks.values())


def test_cli_reports_unreadable_and_unwritable_paths(tmp_path, capsys):
    assert main(["opt", str(tmp_path / "missing.json")]) == 2
    assert main(["gen", "--out", str(tmp_path / "no-such-dir" / "x.json")]) == 2
    err = capsys.readouterr().err
    assert err.count("error: ") == 2 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["adapt-sampling", "--max-fragments", "0"],
    ["adapt-sampling", "--sources", "-1"],
    ["adapt-sampling", "--samples-per-source", "-2"],
    ["adapt-sampling", "--horizon", "-1"],
])
def test_cli_rejects_empty_sampling_families(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be >=" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["adapt-speedscale", "--jobs", "[[2, 0]]", "--horizon", "2", "--servers", "0"], "servers must be >= 1"),
    (["adapt-speedscale", "--jobs", "[[2, 0]]", "--horizon", "2", "--servers", "2", "--powers", "2"],
     "need one energy family per server (2), got 1"),
    (["adapt-speedscale", "--jobs", "[[0, 0]]", "--horizon", "2"], "packet 'j0': subpackets must be >= 1"),
    (["adapt-aoi", "--events", '{"s1": [1]}', "--values", '{"s1": 9}', "--horizon", "3", "--capacity", "0"],
     "per-slot capacity must be >= 1"),
])
def test_cli_rejects_adapter_arguments_out_of_range(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_repro_command_replays_the_failing_check(tmp_path, capsys):
    argv = ["campaign", "--seeds", "0:6", "--packets", "3", "--max-k", "2", "--horizon", "3",
            "--servers", "2", "--samples", "7", "--mutate", "frozen-gain-bias",
            "--checks", "greedy-bridge", "--repro-dir", str(tmp_path / "repro"),
            "--out", str(tmp_path / "campaign.json")]
    assert main(argv) == 1
    original = json.loads((tmp_path / "campaign.json").read_text())
    dumps = sorted((tmp_path / "repro").glob("fail_greedy-bridge_*.json"))
    assert dumps
    for dump in dumps:
        doc = json.loads(dump.read_text())
        words = shlex.split(doc["command"])
        assert words[:2] == ["aqisim", "campaign"]
        out = tmp_path / f"replay_{doc['seed']}.json"
        assert main(words[1:] + ["--out", str(out)]) == 1
        replay = json.loads(out.read_text())
        # same configuration, hence the same instance and the same failure
        assert replay["config"] == {**original["config"], "seeds": [doc["seed"]]}
        slot = replay["checks"][doc["check"]]
        assert slot["fail"] == 1
        failed = [c for c in original["checks"][doc["check"]]["counterexamples"]
                  if c["seed"] == doc["seed"]]
        assert slot["counterexamples"] == failed
    capsys.readouterr()


def test_campaign_split_tool_reports_the_campaign_and_its_instances(tmp_path, capsys):
    # tools/campaign_split.py binary|general: one acceptance campaign, its
    # generation time apart, and the digests of its instances and summary
    spec = importlib.util.spec_from_file_location("campaign_split", ROOT / "tools" / "campaign_split.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["general"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert harness.generate is generate  # put back after the run
    config = tool.CAMPAIGNS["general"]
    instances = [generate(5, 3, 5, s, mode=config.modes[s % 3]) for s in config.seeds]
    assert out["instances"] == len(instances) == 200
    assert out["instances_sha256"] == hashlib.sha256("".join(map(store_instance, instances)).encode()).hexdigest()
    # the summary as `aqisim campaign --out` writes it
    argv = ["campaign", "--seeds", "0:200", "--packets", "5", "--max-k", "3", "--horizon", "5",
            "--checks", *config.checks, "--out", str(tmp_path / "summary.json")]
    assert main(argv) == 0
    assert out["summary_sha256"] == hashlib.sha256((tmp_path / "summary.json").read_bytes()).hexdigest()
    assert 0 < out["generation_s"] < out["wall_s"] and out["check_s"] > 0
    capsys.readouterr()
    assert tool.main(["all"]) == 2 and capsys.readouterr().err.startswith("usage:")
