from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from aqisim.greedy import arrival_order, candidate_bins, run_online_greedy
from aqisim import reduction
from aqisim.cli import main
from aqisim.harness import CampaignConfig, check_instance, generate, run_campaign
from aqisim.model import (
    Allocation,
    AllocationError,
    AqiError,
    Bin,
    CostFamily,
    DISCARD,
    SubpacketRef,
    load_instance,
    rational_to_json,
    tabulated,
    validate_instance,
)
from aqisim.oracle import offline_optimal
from aqisim.reduction import (
    check_guarantee_chain,
    check_offline_bridge,
    frozen_optimal,
    run_lockfree_greedy,
    telescoped_value,
)
from aqisim.valuation import evaluate, marginal_value, tables
from conftest import simple_instance, unit_packet

F = Fraction
ROOT = Path(__file__).resolve().parent.parent
ORACLE_CHECKS = ("greedy-halfopt", "greedy-bridge", "opt-bridge")
GENERAL_MODES = ("random", "adversarial-burst", "adversarial-lock")


def general_instance(seed: int):
    """One instance of the general acceptance campaign (5 packets, k<=3, h=5)."""
    return generate(5, 3, 5, seed, mode=GENERAL_MODES[seed % 3])


def test_gate_zeroes_unreachable_bins():
    # a fragment placed in a bin locked before its arrival adds 0 whatever
    # the context, and still counts as placed
    inst = simple_instance([unit_packet(arrival=2), unit_packet(pid="p1", arrival=0)], horizon=3)
    late = SubpacketRef("p0", 1)
    for context in (Allocation(), Allocation([(SubpacketRef("p1", 1), Bin(slot=1))])):
        base = telescoped_value(inst, context)
        assert telescoped_value(inst, context.extended(late, Bin(slot=0))) == base
        assert telescoped_value(inst, context.extended(late, Bin(slot=1))) == base
        assert telescoped_value(inst, context.extended(late, Bin(slot=2))) != base


def test_reachable_bins_keep_their_exact_marginal():
    inst = simple_instance([unit_packet()], horizon=2)
    ref = SubpacketRef("p0", 1)
    for slot in range(3):
        assert telescoped_value(inst, Allocation([(ref, Bin(slot=slot))])) == \
            marginal_value(inst, Allocation(), ref, Bin(slot=slot))
    assert telescoped_value(inst, Allocation([(ref, DISCARD)])) == 0


def test_single_fragment_frozen_gain_formula():
    # for a unit packet arriving at t0: value - lag(t - t0) - marginal energy,
    # for every slot t >= t0
    inst = simple_instance([unit_packet(arrival=1, value=9, slope=2)],
                           horizon=4, energy=[tabulated([0, 1, 3])])
    ref = SubpacketRef("p0", 1)
    for t in range(1, 5):
        assert telescoped_value(inst, Allocation([(ref, Bin(slot=t))])) == 9 - 2 * (t - 1) - 1


def test_telescoping_rejects_fragments_outside_the_twin():
    inst = generate(3, 2, 3, 0)
    opt = offline_optimal(inst)
    for stranger in (SubpacketRef("zz", 1), SubpacketRef("p00", 9)):
        with pytest.raises(AllocationError, match="not a fragment"):
            telescoped_value(inst, opt.allocation.extended(stranger, Bin(slot=1)))
    opt.allocation.add(SubpacketRef("zz", 1), DISCARD)
    with pytest.raises(AllocationError, match="not a fragment"):
        check_offline_bridge(inst, opt)
    # a gated bin is the twin's own: it telescopes at 0
    late = simple_instance([unit_packet(arrival=2)], horizon=3)
    assert telescoped_value(late, Allocation([(SubpacketRef("p0", 1), Bin(slot=0))])) == 0


def test_lockfree_greedy_replays_the_locking_run():
    for seed in range(30):
        inst = generate(5, 3, 5, seed, deadline_prob=0.2)
        locking = run_online_greedy(inst)
        frozen_run = run_lockfree_greedy(inst)
        assert frozen_run.value == locking.valuation.total
        for raw, fro in zip(locking.state.steps, frozen_run.steps):
            assert raw.ref == fro.ref
            assert raw.chosen == fro.chosen


def test_locking_optimum_telescopes_through_frozen_gains():
    for seed in range(20):
        inst = generate(4, 2, 4, seed)
        omega = offline_optimal(inst).allocation
        assert telescoped_value(inst, omega) == evaluate(inst, omega).total


def test_offline_bridge_reports_hold():
    for seed in range(20):
        inst = generate(4, 2, 4, seed, mode=("random", "adversarial-burst")[seed % 2])
        report = check_offline_bridge(inst, offline_optimal(inst))
        assert report.telescoping_ok and report.bridge_ok


def test_unreachable_assignments_never_help():
    # moving any fragment onto an unreachable (frozen-at-0) bin cannot raise
    # the telescoped value: the justification for searching reachable space
    rng = Random(31)
    for seed in range(15):
        inst = generate(3, 2, 3, seed)
        refs = arrival_order(inst)
        if not refs:
            continue
        for _ in range(20):
            with_gated = Allocation()
            without_gated = Allocation()
            for ref in refs:
                p = inst.packet(ref.packet)
                if p.arrival > 0 and rng.random() < 0.4:
                    with_gated.add(ref, Bin(slot=rng.randrange(0, p.arrival)))
                    without_gated.add(ref, DISCARD)
                else:
                    b = DISCARD if rng.random() < 0.3 else Bin(slot=rng.randint(p.arrival, inst.horizon))
                    with_gated.add(ref, b)
                    without_gated.add(ref, b)
            assert telescoped_value(inst, with_gated) <= telescoped_value(inst, without_gated)


def exhaustive_frozen_max(inst, node_limit: int = 2_000_000):
    """Independent tiny-scale maximizer of the frozen value over ALL bins,
    including unreachable ones; the reference for frozen_optimal's
    reachable-schedules argument."""
    refs = arrival_order(inst)
    bins = candidate_bins(inst, 0)
    best: tuple[Fraction, Allocation] | None = None
    nodes = 0

    def dfs(i: int, alloc: Allocation, total: Fraction):
        nonlocal best, nodes
        nodes += 1
        if nodes > node_limit:
            raise AqiError("exhaustive frozen search exceeded its node limit")
        if i == len(refs):
            if best is None or total > best[0]:
                best = (total, alloc.copy())
            return
        ref = refs[i]
        arrival = inst.packet(ref.packet).arrival
        for b in bins:
            # the twin's gate, restated here: 0 once the bin locks before the fragment arrives
            g = F(0) if arrival > b.lock_time else marginal_value(inst, alloc, ref, b)
            alloc.add(ref, b)
            dfs(i + 1, alloc, total + g)
            alloc.remove(ref)

    dfs(0, Allocation(), F(0))
    assert best is not None
    return best[1], best[0]


def test_exhaustive_frozen_search_agrees_with_reachable_argument():
    for seed in range(10):
        inst = generate(2, 2, 2, seed)
        y_reachable = frozen_optimal(check_offline_bridge(inst, offline_optimal(inst)))
        _, y_everything = exhaustive_frozen_max(inst)
        assert y_reachable == y_everything


def test_chain_on_the_worked_single_packet(single_packet_instance):
    opt = offline_optimal(single_packet_instance)
    chain = check_guarantee_chain(single_packet_instance, check_offline_bridge(single_packet_instance, opt))
    assert (chain.z_greedy, chain.y_frozen_greedy, chain.y_frozen_opt, chain.z_opt) == (4, 4, 4, 4)
    assert chain.ok and chain.composed_half_ok


def test_chain_on_the_empty_instance():
    empty = simple_instance([], horizon=2)
    chain = check_guarantee_chain(empty, check_offline_bridge(empty, offline_optimal(empty)))
    assert (chain.z_greedy, chain.y_frozen_greedy, chain.y_frozen_opt, chain.z_opt) == (0, 0, 0, 0)
    assert chain.ok


def assert_only_greedy_halving_fails(inst, ratio: str):
    """Greedy alone misses the half bound, at exactly `ratio`: its replay on
    the twin still matches step by step, the link that breaks is the twin's
    halving, and the matcher, which re-solves until the slot locks, keeps the
    optimum."""
    assert validate_instance(inst).ok
    config = CampaignConfig(seeds=[0], checks=("matching-halfopt",) + ORACLE_CHECKS)
    results = check_instance(inst, config, seed=0)
    halfopt = results["greedy-halfopt"]
    assert not halfopt["ok"] and halfopt["detail"]["ratio"] == ratio
    bridge = results["greedy-bridge"]
    assert bridge["ok"]
    assert bridge["detail"]["links"] == {"greedy_equal": True, "steps_equal": True, "frozen_half_ok": False,
                                         "bridge_ok": True, "composed_half_ok": False}
    assert results["opt-bridge"]["ok"]
    matching = results["matching-halfopt"]
    assert matching["ok"] and matching["detail"]["ratio"] == 1


def test_greedy_loses_the_half_bound_under_convex_energy():
    # one slot, E(c) = c**2, no lag: greedy sends p0 for 101/100 - 1 = 1/100,
    # then p1 would add 29/10 - 3 = -1/10, so it is discarded; the optimum
    # sends p1 alone for 29/10 - 1 = 19/10
    inst = simple_instance(
        [unit_packet("p0", value=F(101, 100), slope=0), unit_packet("p1", value=F(29, 10), slope=0)],
        horizon=0, energy=[CostFamily("power", params=(F(1), F(2)))])
    greedy = run_online_greedy(inst)
    assert [(s.chosen, s.gain) for s in greedy.state.steps] == [(Bin(slot=0), F(1, 100)), (DISCARD, 0)]
    assert greedy.state.steps[1].alternatives == [(Bin(slot=0), F(-1, 10)), (DISCARD, 0)]
    assert_only_greedy_halving_fails(inst, "1/190")


@pytest.mark.parametrize("m", [10, 101])
def test_greedy_loses_the_half_bound_at_an_energy_step(m):
    # one slot, energy table [0, 0, M], no lag: greedy sends p0 for 1 - 0 = 1,
    # then p1 would add (M - 1) - M = -1, so it is discarded; the optimum
    # sends p1 alone for M - 1, so greedy's ratio 1/(M - 1) falls to 0 as M grows
    inst = simple_instance([unit_packet("p0", value=1, slope=0), unit_packet("p1", value=m - 1, slope=0)],
                           horizon=0, energy=[tabulated([0, 0, m])])
    assert_only_greedy_halving_fails(inst, f"1/{m - 1}")


def test_chain_holds_on_random_batch():
    for seed in range(25):
        inst = generate(4, 3, 4, seed, mode=("random", "adversarial-burst", "adversarial-lock")[seed % 3])
        chain = check_guarantee_chain(inst, check_offline_bridge(inst, offline_optimal(inst)))
        assert chain.ok, chain.to_json()
        assert chain.composed_half_ok


def test_fault_injection_breaks_the_replay():
    # biasing the frozen twin toward discarding must surface as a mismatch
    inst = generate(4, 2, 4, seed=1)
    scale = tables(inst).scale  # gains are integers over it
    bias = lambda b, g: g + 2 * scale if b.is_discard else g
    chain = check_guarantee_chain(inst, check_offline_bridge(inst, offline_optimal(inst)), perturb=bias)
    assert not (chain.greedy_equal and chain.steps_equal)
    assert chain.step_mismatches


# --- one exact search per instance ---------------------------------------------

def test_frozen_optimal_rescores_without_searching(oracle_calls):
    for seed in range(6):
        inst = general_instance(seed)
        opt = offline_optimal(inst)  # bound at import, so not counted
        assert frozen_optimal(check_offline_bridge(inst, opt)) == opt.valuation.total
    assert oracle_calls == []


def test_frozen_optimal_rejects_a_result_that_does_not_telescope(single_packet_instance):
    # the optimum of a 5-value packet, re-scored on the twin of a 7-value one
    opt = offline_optimal(single_packet_instance)
    other = simple_instance([unit_packet(value=7)], horizon=2)
    with pytest.raises(AqiError, match="telescoped value"):
        frozen_optimal(check_offline_bridge(other, opt))


def test_check_instance_searches_once_for_all_three_oracle_checks(oracle_calls, monkeypatch):
    # the bridge telescopes the one optimum and the chain reads its report
    telescopings = []
    telescope = reduction.telescoped_value
    monkeypatch.setattr(reduction, "telescoped_value",
                        lambda inst, alloc: telescopings.append(inst) or telescope(inst, alloc))
    config = CampaignConfig(seeds=[], checks=ORACLE_CHECKS)
    for seed in range(9):
        results = check_instance(general_instance(seed), config, seed)
        assert len(oracle_calls) == seed + 1
        assert len(telescopings) == seed + 1
        assert sorted(results) == sorted(ORACLE_CHECKS)
        assert all(r["ok"] and not r.get("skipped") for r in results.values())
    for name in ORACLE_CHECKS:
        telescopings.clear()
        check_instance(general_instance(0), CampaignConfig(seeds=[], checks=(name,)), 0)
        assert len(telescopings) == 1, name
    assert len(oracle_calls) == 9 + len(ORACLE_CHECKS)


# `CostFamily.value` calls of `check_instance` on general seeds 0:200 with the
# three oracle checks while the oracle, the marginals and the binary expansion
# each turned the cost curves into exact numbers their own way.
SEPARATE_SCALINGS_VALUE_CALLS = 117_295


def test_check_instance_builds_the_integer_tables_once(curve_work):
    instances = [general_instance(seed) for seed in range(200)]
    config = CampaignConfig(seeds=[], checks=ORACLE_CHECKS)
    curve_work.clear()
    for seed, inst in enumerate(instances):
        check_instance(inst, config, seed)
        assert curve_work["tables"] == seed + 1
    assert curve_work["pair"] <= SEPARATE_SCALINGS_VALUE_CALLS // 4


def test_budget_error_from_the_single_search_skips_all_three_checks(oracle_calls):
    config = CampaignConfig(seeds=[], checks=ORACLE_CHECKS, budget=3)
    results = check_instance(general_instance(1), config, 1)
    assert len(oracle_calls) == 1
    assert sorted(results) == sorted(ORACLE_CHECKS)
    for res in results.values():
        assert res["ok"] and "more than 3 nodes" in res["skipped"]


def test_chain_and_bridge_reports_match_recorded_values():
    # reports recorded while each instance still ran four separate searches;
    # sharing one search must not change a value
    recorded = json.loads((ROOT / "tests" / "golden" / "reduction_reports.json").read_text())
    config = CampaignConfig(seeds=[], checks=ORACLE_CHECKS)
    assert len(recorded) == len(list((ROOT / "fixtures").glob("*.json"))) + 30
    for name, want in recorded.items():
        kind, _, key = name.partition("/")
        if kind == "fixtures":
            inst = load_instance((ROOT / name).read_text())
            opt = offline_optimal(inst)
            assert check_guarantee_chain(inst, check_offline_bridge(inst, opt)).to_json() == want["chain"], name
            assert check_offline_bridge(inst, opt).to_json() == want["bridge"], name
        else:
            inst = general_instance(int(key))
        results = check_instance(inst, config, 0)
        assert results["greedy-bridge"]["detail"] == want["chain"], name
        assert results["opt-bridge"]["detail"] == want["bridge"], name


def test_opt_bridge_alone_runs_no_greedy(monkeypatch):
    # the bridge report needs the optimum and the frozen twin, not the chain
    runs = []
    for name in ("run_online_greedy", "run_lockfree_greedy"):
        original = getattr(reduction, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            runs.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(reduction, name, counted)
    recorded = json.loads((ROOT / "tests" / "golden" / "reduction_reports.json").read_text())
    config = CampaignConfig(seeds=[], checks=("opt-bridge",))
    for name, want in recorded.items():
        kind, _, key = name.partition("/")
        inst = load_instance((ROOT / name).read_text()) if kind == "fixtures" else general_instance(int(key))
        results = check_instance(inst, config, 0)
        assert results == {"opt-bridge": {"ok": True, "detail": want["bridge"]}}, name
    assert runs == []
    check_instance(general_instance(0), CampaignConfig(seeds=[], checks=("greedy-bridge",)), 0)
    assert runs == ["run_online_greedy", "run_lockfree_greedy"]


def test_telescoping_disagreement_fails_checks_and_writes_repros(monkeypatch, tmp_path):
    telescope = reduction.telescoped_value
    monkeypatch.setattr(reduction, "telescoped_value",
                        lambda inst, alloc: telescope(inst, alloc) + 1)
    config = CampaignConfig(seeds=[0, 1], packets=5, max_k=3, horizon=5, checks=ORACLE_CHECKS)
    summary = run_campaign(config, out_dir=str(tmp_path))
    assert not summary["ok"]
    bridge = summary["checks"]["opt-bridge"]
    assert bridge["fail"] == 2
    detail = bridge["counterexamples"][0]["detail"]
    assert detail["telescoping_ok"] is False
    assert detail["y_opt_telescoped"] == rational_to_json(Fraction(detail["z_opt"]) + 1)
    for name in ("greedy-halfopt", "greedy-bridge"):
        slot = summary["checks"][name]
        assert slot["fail"] == 2
        assert "telescoped value" in slot["counterexamples"][0]["detail"]["error"]
    repros = sorted(p.name for p in tmp_path.glob("fail_*.json"))
    assert repros == sorted(f"fail_{name}_{seed}.json" for name in ORACLE_CHECKS for seed in (0, 1))


def _speedscale_quarter():
    return load_instance((ROOT / "tests" / "fixtures" / "speedscale_greedy_quarter.json").read_text())


def test_speedscale_fixture_is_the_adapter_output(tmp_path):
    out = tmp_path / "speedscale.json"
    assert main(["adapt-speedscale", "--jobs", "[[1,2],[2,0],[1,3],[3,1]]", "--powers", "2",
                 "--horizon", "5", "--unit-value", "2", "--out", str(out)]) == 0
    fixture = ROOT / "tests" / "fixtures" / "speedscale_greedy_quarter.json"
    assert out.read_text() == fixture.read_text()


KNOWN_GREEDY_FAILURES = {
    "speedscale": _speedscale_quarter,
    "burst-seed-31": lambda: generate(4, 2, 4, 31, mode="adversarial-burst", servers=2, deadline_prob=0.4),
    "burst-p30-seed-49": lambda: generate(30, 3, 10, 49, mode="adversarial-burst"),
}


@pytest.mark.parametrize("case, greedy, optimum", [
    ("speedscale", 1, 4),
    ("burst-seed-31", F(9, 2), 11),
    ("burst-p30-seed-49", 44, 101),
], ids=list(KNOWN_GREEDY_FAILURES))
def test_known_greedy_halfopt_counterexamples_fail_only_the_frozen_half_link(case, greedy, optimum):
    # the paper's speed-scaling case with a discard option (four jobs, x**2
    # power, unit value 2), a two-server deadline burst and a 30-packet
    # single-server burst (59,514 oracle nodes): greedy keeps less than half
    # the optimum, and the one link of the chain that breaks is
    # frozen_half_ok; both sides' totals come from `evaluate`
    inst = KNOWN_GREEDY_FAILURES[case]()
    results = check_instance(inst, CampaignConfig(seeds=[0], checks=ORACLE_CHECKS), 0)
    halfopt = results["greedy-halfopt"]
    assert not halfopt["ok"] and halfopt["detail"]["violation"]
    assert halfopt["detail"]["alg_value"] == rational_to_json(F(greedy))
    assert halfopt["detail"]["opt_value"] == optimum
    assert halfopt["detail"]["ratio"] == rational_to_json(F(greedy) / optimum)
    links = results["greedy-bridge"]["detail"]["links"]
    assert links["frozen_half_ok"] is False
    assert links["greedy_equal"] and links["steps_equal"] and links["bridge_ok"]
    assert results["greedy-bridge"]["ok"] and results["opt-bridge"]["ok"]
    assert evaluate(inst, run_online_greedy(inst).allocation).total == greedy
    assert evaluate(inst, offline_optimal(inst).allocation).total == optimum
