"""Acceptance suite: one test per shipped guarantee, each printing a
pass/fail line. The two big seeded campaigns are shared across criteria."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import time
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from aqisim.adapters import aoi_multisource
from aqisim.cli import main
from aqisim.harness import (
    CampaignConfig,
    adversarial_lock_probe,
    generate,
    increment_consistency_samples,
    run_campaign,
    submodularity_samples,
)
from aqisim.matching import max_weight_matching, run_online_matching
from aqisim.oracle import offline_optimal, offline_optimal_binary

F = Fraction
ROOT = Path(__file__).resolve().parent.parent
# SHA-256 pins of outputs every refactor keeps byte-identical; a change that
# alters one on purpose rewrites the file once and says why
IDENTITY = json.loads((ROOT / "tests" / "golden" / "identity.json").read_text())


def _announce(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def binary_campaign():
    config = CampaignConfig(
        seeds=list(range(500)), packets=6, max_k=1, horizon=5,
        checks=("matching-halfopt", "bin-marginal-monotone"),
    )
    started = time.perf_counter()
    summary = run_campaign(config)
    elapsed = time.perf_counter() - started
    return summary, elapsed


@pytest.fixture(scope="session")
def general_campaign():
    config = CampaignConfig(
        seeds=list(range(200)), packets=5, max_k=3, horizon=5,
        checks=("greedy-halfopt", "greedy-bridge", "opt-bridge"),
    )
    started = time.perf_counter()
    summary = run_campaign(config)
    elapsed = time.perf_counter() - started
    return summary, elapsed


def test_criterion_01_matching_keeps_half_the_offline_weight(binary_campaign):
    summary, elapsed = binary_campaign
    slot = summary["checks"]["matching-halfopt"]
    ok = slot["instances"] == 500 and slot["fail"] == 0 and slot["skipped"] == 0 and elapsed < 60
    _announce(
        "criterion 1",
        ok,
        f"{slot['pass']}/500 binary instances at ratio >= 1/2 "
        f"(min ratio {summary['min_matching_ratio']}, {elapsed:.1f}s)",
    )


def test_criterion_02_greedy_keeps_half_the_exact_optimum(general_campaign):
    summary, elapsed = general_campaign
    slot = summary["checks"]["greedy-halfopt"]
    ok = slot["instances"] == 200 and slot["fail"] == 0 and slot["skipped"] == 0 and elapsed < 300
    _announce(
        "criterion 2",
        ok,
        f"{slot['pass']}/200 general instances at ratio >= 1/2 ({elapsed:.1f}s)",
    )


def test_criterion_03_bin_marginals_never_decrease(binary_campaign):
    summary, _ = binary_campaign
    slot = summary["checks"]["bin-marginal-monotone"]
    ok = slot["instances"] == 500 and slot["fail"] == 0
    _announce("criterion 3", ok,
              f"{slot['pass']}/500 traces with monotone per-bin marginals")


def test_criterion_04_greedy_equals_its_lockfree_twin(general_campaign):
    summary, _ = general_campaign
    slot = summary["checks"]["greedy-bridge"]
    ok = slot["instances"] == 200 and slot["fail"] == 0 and slot["skipped"] == 0
    _announce("criterion 4", ok,
              f"{slot['pass']}/200 instances with exact value equality and identical steps")


def test_criterion_05_locking_optimum_bridges_to_the_twin(general_campaign):
    summary, _ = general_campaign
    slot = summary["checks"]["opt-bridge"]
    ok = slot["instances"] == 200 and slot["fail"] == 0 and slot["skipped"] == 0
    _announce("criterion 5", ok,
              f"{slot['pass']}/200 instances telescope exactly and never beat the twin optimum")


def test_criterion_06_lock_probe_shows_the_bound_is_nearly_tight():
    worst = None
    for w, eps in ((100, 1), (400, 1), (1000, 3)):
        graph = adversarial_lock_probe(w, eps)
        online = run_online_matching(graph).weight
        offline = max_weight_matching(graph).weight
        ratio = online / offline
        assert F(1, 2) < ratio
        if worst is None or ratio < worst:
            worst = ratio
    ok = worst is not None and worst <= F(51, 100)
    _announce("criterion 6", ok, f"probe family reaches ratio {float(worst):.4f} <= 0.51")


def test_criterion_07_marginals_are_exact_and_spot_checked():
    triples = 0
    mismatches = 0
    for seed in range(50):
        inst = generate(5, 3, 5, seed, deadline_prob=0.2)
        res = increment_consistency_samples(inst, Random(f"acc7-{seed}"), 200)
        triples += res["checked"]
        mismatches += len(res["mismatches"])
    pairs = 0
    unconfirmed = 0
    documented = 0
    for seed in range(20):
        inst = generate(5, 3, 5, seed + 1000)
        res = submodularity_samples(inst, Random(f"acc7b-{seed}"), 50)
        pairs += res["checked"]
        documented += len(res["counterexamples"])
        unconfirmed += sum(1 for ce in res["counterexamples"] if not ce["confirmed"])
    ok = triples >= 10_000 and mismatches == 0 and pairs >= 1_000 and unconfirmed == 0
    _announce(
        "criterion 7",
        ok,
        f"{triples} marginal/difference triples exact; {pairs} diminishing-returns pairs, "
        f"{documented} documented counterexamples (all confirmed)",
    )


def test_criterion_08_oracles_agree_on_binary_instances():
    agreements = 0
    for seed in range(100):
        inst = generate(5, 1, 4, seed, mode=("random", "adversarial-burst")[seed % 2])
        matching_value = offline_optimal_binary(inst).weight
        search_value = offline_optimal(inst).valuation.total
        assert matching_value == search_value, seed
        agreements += 1
    _announce("criterion 8", agreements == 100,
              f"{agreements}/100 instances with identical matching and search optima")


def test_criterion_09_freshness_increments_match_the_reference_figures():
    oracle, _ = aoi_multisource({"s1": [1, 3, 4]}, {"s1": 20}, horizon=10)
    schedule = {"s1e1": 5, "s1e2": 7}
    lag = F(7 - 4)
    checks = {
        "one slot after": oracle.marginal("s1e3", 8, schedule) == 20 - (lag + F(1, 2)),
        "two slots after": oracle.marginal("s1e3", 9, schedule) == 20 - (2 * lag + 2),
        "at the older event": oracle.marginal("s1e3", 7, schedule) == 0,
        "before the older event": oracle.marginal("s1e3", 6, schedule) == 0,
    }
    _announce("criterion 9", all(checks.values()),
              "sawtooth areas and zero edges exact: " + ", ".join(checks))


def test_criterion_10_campaigns_are_byte_deterministic(tmp_path):
    args = ["campaign", "--seeds", "0:12", "--packets", "4", "--horizon", "4",
            "--samples", "25"]
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    ok = first.read_bytes() == second.read_bytes()
    _announce("criterion 10", ok,
              f"two identical campaign invocations produced identical {first.stat().st_size}-byte reports")


# --- byte identity -----------------------------------------------------------------

def _tool(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_acceptance_summaries_match_their_pins(binary_campaign, general_campaign):
    # each summary as `aqisim campaign --out` writes it
    for name, (summary, _) in (("binary", binary_campaign), ("general", general_campaign)):
        text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == IDENTITY[f"campaign {name}"]["summary_sha256"], name


def test_ladder_rungs_match_their_pins():
    out = _tool("ladder").rung(200, 100)
    assert {key: out[key] for key in IDENTITY["ladder 200 100"]} == IDENTITY["ladder 200 100"]
    out = _tool("greedy_ladder").rung(300, 3, 100, 2)
    pins = IDENTITY["greedy_ladder 300 3 100 2"]
    assert {key: out[key] for key in pins} == pins
