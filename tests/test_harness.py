from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
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
from aqisim.model import AqiError, load_instance, store_instance, validate_instance

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


def test_matching_run_and_binary_checks_expand_each_instance_once(monkeypatch):
    # the online run and the offline optimum share one expanded graph
    calls = []
    expand = matching.expand_binary

    def counted(inst, *args, **kwargs):
        calls.append(inst)
        return expand(inst, *args, **kwargs)

    for module in (matching, oracle, harness):
        monkeypatch.setattr(module, "expand_binary", counted)
    inst = generate(6, 1, 5, seed=1, mode="adversarial-burst")
    run_bundle(inst, "matching")
    assert calls == [inst]
    config = CampaignConfig(seeds=[1], checks=("matching-halfopt", "bin-marginal-monotone"))
    results = check_instance(inst, config, seed=1)
    assert set(results) == set(config.checks) and all(r["ok"] for r in results.values())
    assert calls == [inst, inst]


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
    # JSON nested deeper than the decoder's recursion limit
    ["adapt-speedscale", "--jobs", "[" * 5000 + "]" * 5000, "--horizon", "2"],
])
def test_cli_rejects_malformed_arguments_without_a_traceback(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad --") and "Traceback" not in err


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


@pytest.mark.parametrize("case", ["cost kind", "packet id", "values key", "events key"])
def test_cli_error_line_cuts_long_strings_from_the_input(case, tmp_path, capsys):
    # each of these strings used to be echoed whole, 3,000 characters
    long, linear = "x" * 3000, {"kind": "linear", "params": [1]}
    packet = {"id": long, "arrival": 0, "subpackets": 1, "weight": 0,
              "distortion": linear, "delay_cost": linear}
    docs = {"cost kind": {"horizon": 2, "energy": [{"kind": long, "params": [1]}], "packets": []},
            "packet id": {"horizon": 2, "energy": [linear], "packets": [packet]}}
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


def test_greedy_run_reports_no_optimum_for_an_instance_past_the_budget():
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
