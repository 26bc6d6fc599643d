"""Campaign driver: seeded instance generation, algorithm-vs-oracle runs and
batch verification of the halving guarantees and structural properties.

Reports are canonical JSON with exact values; repeating a campaign with the
same configuration reproduces them byte for byte (wall-clock timings only
appear in per-run CSV rows, never in campaign summaries).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from pathlib import Path
from random import Random

from .model import (
    DISCARD,
    Allocation,
    AqiError,
    Bin,
    CostFamily,
    Instance,
    Packet,
    SubpacketRef,
    admission_floor,
    instance_to_json,
    linear,
    occupancy_levels,
    rational_to_json,
    require_valid,
    require_within_budget,
    shannon_energy,
    shrinking,
    summed,
)
from .matching import (
    BipartiteGraph,
    Ineligible,
    marginal_monotonicity_violations,
    matcher_graph,
    max_weight_matching,
    run_online_matching,
)
from .greedy import run_online_greedy
from .oracle import (
    DEFAULT_BUDGET,
    BudgetError,
    competitive_ratio,
    offline_optimal,
)
from .reduction import (
    TelescopingError,
    check_guarantee_chain,
    check_offline_bridge,
)
from .valuation import evaluate, marginal_value, tables

GENERATOR_MODES = ("random", "adversarial-lock", "adversarial-burst")

ALL_CHECKS = (
    "matching-halfopt",       # online matching earns at least half the offline matching
    "bin-marginal-monotone",  # every bin's traced marginal never decreases
    "greedy-halfopt",         # online greedy earns at least half the exact optimum
    "opt-bridge",             # locking optimum telescopes and is dominated by the frozen optimum
    "greedy-bridge",          # greedy equals lock-free greedy on the frozen twin, step by step
    "submodularity",          # diminishing-returns spot checks (counterexamples documented)
    "increment-consistency",  # marginal gains equal exact value differences
)

BINARY_CHECKS = ("matching-halfopt", "bin-marginal-monotone")


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _delay_family(rng: Random) -> CostFamily:
    roll = rng.random()
    if roll < 0.15:
        return linear(0)
    if roll < 0.75:
        return linear(rng.randint(1, 2))
    return CostFamily("power", params=(Fraction(1), Fraction(2)))


def _energy_family(rng: Random, levels: int, steep: bool) -> CostFamily:
    roll = rng.random()
    if steep or roll < 0.35:
        first = rng.randint(0, 1) if not steep else rng.randint(1, 2)
        growth = (rng.randint(1, 4) if steep else rng.randint(0, 3) for _ in range(levels - 2))
        return summed(accumulate(growth, initial=first))
    if roll < 0.5 and levels <= 9:  # at most 8 fragments
        return shannon_energy()
    return linear(rng.randint(1, 2))


def generate(packets: int, max_k: int, horizon: int, seed: int,
             mode: str = "random", servers: int = 1,
             deadline_prob: float = 0.0) -> Instance:
    """Deterministic seeded instance in one of three shapes.

    random: independent arrivals and mixed cost families.
    adversarial-lock: cheap early traffic, then high-value late arrivals with
      tight deadlines pressing on already-committed slots.
    adversarial-burst: simultaneous arrival bursts against steep convex energy.
    """
    if mode not in GENERATOR_MODES:
        raise AqiError(f"unknown generator mode {mode!r}")
    if packets < 0 or max_k < 1 or horizon < 0 or servers < 1 or not 0 <= deadline_prob <= 1:
        raise AqiError("bad generator parameters")
    label = f"{mode} seed={seed}"
    # each packet draws up to max_k distortion steps, each server up to
    # packets x max_k energy steps: charged before the first draw
    if packets * max_k * (1 + servers) > DEFAULT_BUDGET:
        raise BudgetError(f"{label}: instance too large to generate: more than {DEFAULT_BUDGET} cost steps")
    require_within_budget(admission_floor(packets, servers), label)
    rng = Random((seed, mode, packets, max_k, horizon, servers).__repr__())
    out: list[Packet] = []
    burst_slot = rng.randrange(0, max(horizon, 1)) if packets else 0
    for i in range(packets):
        if mode == "adversarial-burst":
            arrival = burst_slot
        elif mode == "adversarial-lock":
            arrival = rng.randrange(0, max(horizon // 2, 1)) if i < (packets + 1) // 2 \
                else rng.randrange(min(max(horizon // 2, 1), horizon), horizon + 1)  # h=0: slot 0
        else:
            arrival = rng.randrange(0, horizon + 1)
        k = rng.randint(1, max_k)
        weight = Fraction(rng.randint(1, 3))
        halves = rng.random() < 0.25
        if mode == "adversarial-lock" and arrival > horizon // 2:
            # one increment more is drawn than used, so each seed keeps its instance
            dist = summed(shrinking(rng, rng.randint(20, 40), k + 1)[:-1])
        else:
            dist = summed(shrinking(rng, rng.randint(2, 9), k), halves)
        deadline = None
        if mode == "adversarial-lock" and rng.random() < 0.6:
            deadline = min(horizon, arrival + rng.randint(0, 1))
        elif deadline_prob and rng.random() < deadline_prob:
            deadline = arrival + rng.randint(0, horizon - arrival)
        out.append(Packet(
            id=f"p{i:02d}", arrival=arrival, subpackets=k, weight=weight,
            distortion=dist, delay_cost=_delay_family(rng), deadline=deadline,
        ))
    steep = mode in ("adversarial-burst", "adversarial-lock")
    energy = tuple(_energy_family(rng, occupancy_levels(packets * max_k), steep) for _ in range(servers))
    inst = Instance(
        packets=tuple(out), horizon=horizon, servers=servers, energy=energy,
        label=label,
    )
    return require_valid(inst, label)


def adversarial_lock_probe(w: int = 100, eps: Fraction | int = 1) -> BipartiteGraph:
    """Two-bin family showing the matcher's half bound is essentially tight.

    The early node is worth `w` on the bin that locks first and slightly less
    on the later bin, so the matcher commits it to the first bin; the late
    node, worth `w` on that first bin only, then finds it locked. The matcher
    keeps w while the offline matching collects 2w - eps.
    """
    w = Fraction(w)
    eps = Fraction(eps)
    if not 0 < eps < w:
        raise AqiError("need 0 < eps < w")
    return BipartiteGraph(
        left_order=["a1", "a2"],
        right_order=["b1", "b2"],
        arrivals={"a1": Fraction(0), "a2": Fraction(3, 2)},
        locks={"b1": Fraction(1), "b2": Fraction(2)},
        weights={
            ("a1", "b1"): w,
            ("a1", "b2"): w - eps,
            ("a2", "b1"): w,
        },
        label=f"lock-probe w={w} eps={eps}",
    )


# ---------------------------------------------------------------------------
# Single runs
# ---------------------------------------------------------------------------

def run_bundle(inst: Instance, algorithm: str, budget: int = DEFAULT_BUDGET,
               require_opt: bool = True):
    """Run one algorithm against its oracle; returns (report dict, traces).
    `budget` bounds the exact oracle's nodes and the matcher's left-edge steps;
    the matcher is refused past it, the oracle only when `require_opt`."""
    started = time.perf_counter()
    traces = {}
    if algorithm == "matching":
        try:
            graph = matcher_graph(inst, budget, "the matcher")
        except Ineligible as exc:
            raise AqiError(f"the matching algorithm {exc}") from None
        traces["matching"] = run = run_online_matching(graph)
        alg_value, opt_value = run.weight, max_weight_matching(graph, run).weight
    elif algorithm == "greedy":
        run = run_online_greedy(inst)
        traces["greedy"] = run
        alg_value = run.valuation.total
        opt_value = None
        try:
            opt_value = offline_optimal(inst, budget=budget).valuation.total
        except BudgetError:
            if require_opt:
                raise
    else:
        raise AqiError(f"unknown algorithm {algorithm!r}")
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    report = {
        "algorithm": algorithm,
        "n_packets": len(inst.packets),
        "total_subpackets": inst.total_subpackets,
        "horizon": inst.horizon,
        "alg_value": rational_to_json(alg_value),
        "opt_value": None if opt_value is None else rational_to_json(opt_value),
        "ratio": None,
        "runtime_ms": round(elapsed_ms, 3),
    }
    if opt_value is not None:
        report["ratio"] = competitive_ratio(alg_value, opt_value).to_json()
    return report, traces


CSV_COLUMNS = ["seed", "n_packets", "total_subpackets", "horizon", "alg",
               "alg_value", "opt_value", "ratio", "runtime_ms"]


def csv_row(seed, report) -> str:
    ratio = report.get("ratio")
    ratio_txt = "" if not ratio or ratio.get("ratio_float") is None else repr(ratio["ratio_float"])
    cells = [str(seed), str(report["n_packets"]), str(report["total_subpackets"]),
             str(report["horizon"]), report["algorithm"], str(report["alg_value"]),
             "" if report["opt_value"] is None else str(report["opt_value"]),
             ratio_txt, str(report["runtime_ms"])]
    return ",".join(cells)


# ---------------------------------------------------------------------------
# Randomized structural spot checks
# ---------------------------------------------------------------------------

def _random_allocation(inst: Instance, rng: Random, skip: set[SubpacketRef] = frozenset()) -> Allocation:
    alloc = Allocation()
    for p in inst.packets:
        for j in range(1, p.subpackets + 1):
            ref = SubpacketRef(p.id, j)
            if ref in skip or rng.random() < 0.3:
                continue
            if rng.random() < 0.25:
                alloc.add(ref, DISCARD)
            else:
                alloc.add(ref, Bin(
                    slot=rng.randint(p.arrival, inst.horizon),
                    server=rng.randrange(inst.servers),
                ))
    return alloc


def increment_consistency_samples(inst: Instance, rng: Random, samples: int) -> dict:
    """Check marginal_value against full re-evaluation on random triples."""
    if not inst.packets:
        return {"checked": 0, "mismatches": []}
    mismatches = []
    refs = [SubpacketRef(p.id, j) for p in inst.packets for j in range(1, p.subpackets + 1)]
    for _ in range(samples):
        ref = rng.choice(refs)
        alloc = _random_allocation(inst, rng, skip={ref})
        p = inst.packet(ref.packet)
        b = DISCARD if rng.random() < 0.2 else Bin(
            slot=rng.randint(p.arrival, inst.horizon), server=rng.randrange(inst.servers))
        gain = marginal_value(inst, alloc, ref, b)
        direct = evaluate(inst, alloc.extended(ref, b)).total - evaluate(inst, alloc).total
        if gain != direct:
            mismatches.append({
                "ref": [ref.packet, ref.index], "bin": b.id,
                "marginal": rational_to_json(gain), "difference": rational_to_json(direct),
            })
    return {"checked": samples, "mismatches": mismatches}


def submodularity_samples(inst: Instance, rng: Random, samples: int) -> dict:
    """Spot-check diminishing returns: a marginal on a subset should dominate
    the same marginal on a superset. Violations are re-verified and reported
    as documented counterexamples (delay accounting makes them possible),
    alongside a count of negative marginals (non-monotone spots)."""
    if not inst.packets:
        return {"checked": 0, "counterexamples": [], "negative_marginals": 0}
    refs = [SubpacketRef(p.id, j) for p in inst.packets for j in range(1, p.subpackets + 1)]
    counterexamples = []
    negative = 0
    for _ in range(samples):
        ref = rng.choice(refs)
        superset = _random_allocation(inst, rng, skip={ref})
        subset_entries = [e for e in superset.entries.items() if rng.random() < 0.5]
        subset = Allocation(subset_entries)
        p = inst.packet(ref.packet)
        b = DISCARD if rng.random() < 0.15 else Bin(
            slot=rng.randint(p.arrival, inst.horizon), server=rng.randrange(inst.servers))
        small = marginal_value(inst, subset, ref, b)
        large = marginal_value(inst, superset, ref, b)
        if large < 0:
            negative += 1
        if small < large:
            # confirm through independent evaluation before reporting
            small_direct = evaluate(inst, subset.extended(ref, b)).total - evaluate(inst, subset).total
            large_direct = evaluate(inst, superset.extended(ref, b)).total - evaluate(inst, superset).total
            counterexamples.append({
                "ref": [ref.packet, ref.index], "bin": b.id,
                "subset": subset.to_json(), "superset": superset.to_json(),
                "marginal_on_subset": rational_to_json(small),
                "marginal_on_superset": rational_to_json(large),
                "confirmed": small_direct == small and large_direct == large,
            })
    return {"checked": samples, "counterexamples": counterexamples, "negative_marginals": negative}


# ---------------------------------------------------------------------------
# Campaign
# ---------------------------------------------------------------------------

@dataclass
class CampaignConfig:
    seeds: list[int]
    packets: int = 4
    max_k: int = 1
    horizon: int = 4
    servers: int = 1
    modes: tuple[str, ...] = ("random", "adversarial-burst", "adversarial-lock")
    checks: tuple[str, ...] = ALL_CHECKS
    budget: int = DEFAULT_BUDGET
    deadline_prob: float = 0.0
    samples: int = 40
    mutate: str | None = None  # fault injection: "frozen-gain-bias"

    def to_json(self) -> dict:
        return {
            "seeds": self.seeds, "packets": self.packets, "max_k": self.max_k,
            "horizon": self.horizon, "servers": self.servers,
            "modes": list(self.modes), "checks": list(self.checks),
            "budget": self.budget, "deadline_prob": self.deadline_prob,
            "samples": self.samples, "mutate": self.mutate,
        }


def check_instance(inst: Instance, config: CampaignConfig, seed: int) -> dict:
    """Run every configured check on one instance; returns per-check results."""
    results: dict[str, dict] = {}
    checks = set(config.checks)
    perturb = None
    if config.mutate == "frozen-gain-bias":
        # the replay's discard gains, integers over the tables' scale, gain 2
        perturb = lambda b, g: g + 2 * tables(inst).scale if b.is_discard else g

    if checks & set(BINARY_CHECKS):
        try:
            graph = matcher_graph(inst, config.budget, "the binary checks")
        except (Ineligible, BudgetError) as exc:
            for name in checks & set(BINARY_CHECKS):
                results[name] = {"ok": True, "skipped": str(exc)}
        else:
            run = run_online_matching(graph)
            if "matching-halfopt" in checks:
                report = competitive_ratio(run.weight, max_weight_matching(graph, run).weight)
                results["matching-halfopt"] = {
                    "ok": not report.violation,
                    "detail": report.to_json(),
                }
            if "bin-marginal-monotone" in checks:
                drops = marginal_monotonicity_violations(run)
                results["bin-marginal-monotone"] = {
                    "ok": not drops,
                    "detail": {"violations": [
                        {"bin": b, "event": i, "before": rational_to_json(x), "after": rational_to_json(y)}
                        for b, i, x, y in drops
                    ]},
                }

    needs_oracle = checks & {"greedy-halfopt", "opt-bridge", "greedy-bridge"}
    if needs_oracle:
        try:
            opt = offline_optimal(inst, budget=config.budget)
        except BudgetError as exc:
            for name in needs_oracle:
                results[name] = {"ok": True, "skipped": str(exc)}
        else:
            # one exact search, telescoped once, serves all three checks
            bridge = check_offline_bridge(inst, opt)
            chain_checks = checks & {"greedy-halfopt", "greedy-bridge"}
            if chain_checks:
                # only these two need online greedy and its lock-free replay
                try:
                    chain = check_guarantee_chain(inst, bridge, perturb=perturb)
                except TelescopingError as exc:
                    for name in sorted(chain_checks):
                        results[name] = {"ok": False, "detail": {"error": str(exc)}}
                else:
                    if "greedy-halfopt" in checks:
                        report = competitive_ratio(chain.z_greedy, chain.z_opt)
                        results["greedy-halfopt"] = {"ok": not report.violation, "detail": report.to_json()}
                    if "greedy-bridge" in checks:
                        results["greedy-bridge"] = {
                            "ok": chain.greedy_equal and chain.steps_equal,
                            "detail": chain.to_json(),
                        }
            if "opt-bridge" in checks:
                results["opt-bridge"] = {"ok": bridge.ok, "detail": bridge.to_json()}

    if checks & {"submodularity", "increment-consistency"}:
        # only the sampled checks draw from it, in this order
        rng = Random(f"checks-{seed}")
        if "submodularity" in checks:
            sub = submodularity_samples(inst, rng, config.samples)
            unconfirmed = [c for c in sub["counterexamples"] if not c["confirmed"]]
            results["submodularity"] = {"ok": not unconfirmed, "detail": sub}
        if "increment-consistency" in checks:
            inc = increment_consistency_samples(inst, rng, config.samples)
            results["increment-consistency"] = {"ok": not inc["mismatches"], "detail": inc}
    return results


def run_campaign(config: CampaignConfig, out_dir: str | None = None) -> dict:
    """Run all configured checks over the seeded instance batch.

    The summary is deterministic for a fixed config; any failing check dumps
    a self-contained reproduction file when `out_dir` is given.
    """
    per_check = {
        name: {"instances": 0, "pass": 0, "fail": 0, "skipped": 0, "counterexamples": []}
        for name in config.checks
    }
    min_ratio: Fraction | None = None
    for seed in sorted(config.seeds):
        mode = config.modes[seed % len(config.modes)]
        inst = generate(config.packets, config.max_k, config.horizon, seed,
                        mode=mode, servers=config.servers,
                        deadline_prob=config.deadline_prob)
        results = check_instance(inst, config, seed)
        for name, res in results.items():
            slot = per_check[name]
            slot["instances"] += 1
            if res.get("skipped"):
                slot["skipped"] += 1
                continue
            if res["ok"]:
                slot["pass"] += 1
            else:
                slot["fail"] += 1
                record = {"seed": seed, "mode": mode, "detail": res.get("detail")}
                if len(slot["counterexamples"]) < 10:
                    slot["counterexamples"].append(record)
                if out_dir is not None:
                    _dump_repro(out_dir, name, seed, inst, config)
            if name == "matching-halfopt" and res.get("detail"):
                r = res["detail"].get("ratio")
                if r is not None:
                    r = Fraction(r)
                    if min_ratio is None or r < min_ratio:
                        min_ratio = r
            if name == "submodularity":
                for ce in res["detail"]["counterexamples"]:
                    if len(slot["counterexamples"]) < 10:
                        slot["counterexamples"].append({"seed": seed, "mode": mode, "documented": ce})
    summary = {
        "config": config.to_json(),
        "checks": per_check,
        "min_matching_ratio": None if min_ratio is None else rational_to_json(min_ratio),
        "ok": all(slot["fail"] == 0 for slot in per_check.values()),
    }
    return summary


def _dump_repro(out_dir: str, check: str, seed: int, inst: Instance, config: CampaignConfig) -> None:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    # every non-default config field, so the replay rebuilds this very check
    words = ["aqisim", "campaign", "--seeds", f"{seed}:{seed + 1}"]
    default = CampaignConfig(seeds=[]).to_json()
    for key, value in config.to_json().items():
        if key != "seeds" and value != default[key]:
            words.append("--" + key.replace("_", "-"))
            words += map(str, value) if isinstance(value, list) else [str(value)]
    doc = {"check": check, "seed": seed, "command": " ".join(words), "instance": instance_to_json(inst)}
    (path / f"fail_{check}_{seed}.json").write_text(json.dumps(doc, sort_keys=True, indent=2))


def summary_to_text(summary: dict) -> str:
    lines = []
    for name, slot in summary["checks"].items():
        lines.append(
            f"{name}: pass={slot['pass']} fail={slot['fail']} skipped={slot['skipped']}"
        )
    lines.append(f"overall: {'ok' if summary['ok'] else 'FAILED'}")
    return "\n".join(lines) + "\n"
