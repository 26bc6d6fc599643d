"""One workload of the aqisim benchmark, run in a process of its own.

    python3 perfbench/worker.py setup   --workload NAME [--instances SET] [--limit N]
    python3 perfbench/worker.py measure --workload NAME --seed N --seconds S --trace 0|1
                                        [--instances SET] [--limit N] [--reference PATH]

`setup` imports aqisim from the checkout's `src/`, generates the workload's
instances (generation validates each one) and warms up; it reports the time
that took. `measure` does the same set-up, then times whole passes over the
instances, in an order drawn from `--seed`, until `--seconds` have passed and
at least MIN_PASSES passes are done, and checks every outcome against the
recorded reference. With `--trace 1` it adds one traced pass and reports the
per-layer figures. Both print one JSON object as the last line of standard
output. `run.py` starts this script;
`record.py` imports it to record the references.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
REFERENCE_DIR = BENCH / "reference"
OUT_DIR = BENCH / "out"

# The campaign driver's generator modes, in its cycling order (mode = seed % 3).
MODES = ("random", "adversarial-burst", "adversarial-lock")

# Instance shape and seed ranges of each workload. `acceptance` holds the
# acceptance campaigns' seeds and is the default; `heldout` is a second range
# that a claimed gain must also pass.
WORKLOADS = {
    "verify-binary": {
        "packets": 6, "max_k": 1, "horizon": 5, "servers": 1,
        "checks": ("matching-halfopt", "bin-marginal-monotone"),
        "acceptance": (0, 500), "heldout": (500, 1000),
    },
    "verify-general": {
        "packets": 5, "max_k": 3, "horizon": 5, "servers": 1,
        "checks": ("greedy-halfopt", "greedy-bridge", "opt-bridge"),
        "acceptance": (0, 200), "heldout": (200, 400),
    },
    "online-matching": {
        "packets": 20, "max_k": 1, "horizon": 10, "servers": 1,
        "acceptance": (0, 60), "heldout": (60, 120),
    },
    "online-greedy": {
        "packets": 100, "max_k": 3, "horizon": 40, "servers": 2,
        "acceptance": (0, 30), "heldout": (30, 60),
    },
}
INSTANCE_SETS = ("acceptance", "heldout")

# Exact values copied from the check details of a verify-* workload.
DETAIL_VALUES = ("alg_value", "opt_value", "z_greedy", "z_opt", "y_frozen_greedy",
                 "y_frozen_opt", "y_opt_telescoped")

# Untimed warm-up runs before measuring.
WARMUP = 1

# Each instance is timed in at least this many passes; its time is the median.
MIN_PASSES = 2

# CPU speed on shared machines swings by up to 1.9x for seconds to minutes at
# a time, far more than the changes the benchmark must resolve. Every reported
# time is therefore scaled to a reference speed: a fixed probe of pure-Python
# work that never touches aqisim is timed at most PROBE_EVERY_S apart, and a
# run measured while the probe took t seconds is scaled by PROBE_REF_S / t.
# PROBE_REF_S is a time the probe took on the machine the benchmark was
# written on (a Xeon at 2.1 GHz), so scaled figures read as wall
# times at that speed. Raw wall times are printed alongside.
PROBE_REF_S = 0.9e-3
PROBE_EVERY_S = 0.25


def probe() -> float:
    """Seconds the speed probe takes, the best of three tries."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        acc = Fraction(0)
        table: dict[tuple[int, int], int] = {}
        for i in range(1, 400):
            acc += Fraction(i % 7 + 1, i % 5 + 2)
            key = (i % 13, i % 11)
            table[key] = table.get(key, 0) + i
        best = min(best, time.perf_counter() - started)
    return best


class SpeedScale:
    """The factor that scales a run measured now to the reference speed."""

    def __init__(self):
        self.factor = 1.0
        self.probed_at = float("-inf")

    def now(self) -> float:
        if time.perf_counter() - self.probed_at >= PROBE_EVERY_S:
            self.factor = PROBE_REF_S / probe()
            self.probed_at = time.perf_counter()
        return self.factor

    def run(self, checker: "Checker", call, inst, seed: int) -> tuple[float, float]:
        """(raw, scaled) seconds of one checked run. A run that outlasts
        PROBE_EVERY_S is scaled by the mean of the factors before and after."""
        before = self.now()
        elapsed = checker.run(call, inst, seed)
        return elapsed, elapsed * (before + self.now()) / 2


def import_aqisim():
    """Import aqisim from this checkout's `src/`, never from anywhere else."""
    if not (SRC / "aqisim" / "__init__.py").is_file():
        raise SystemExit(f"error: no aqisim package under {SRC}")
    sys.path.insert(0, str(SRC))
    import aqisim

    if SRC not in Path(aqisim.__file__).resolve().parents:
        raise SystemExit(f"error: aqisim was imported from {aqisim.__file__}, not from {SRC}")


def seeds_of(name: str, instances: str, limit: int | None) -> list[int]:
    lo, hi = WORKLOADS[name][instances]
    seeds = list(range(lo, hi))
    return seeds if limit is None else seeds[:limit]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _verdict(res: dict) -> str:
    if res.get("skipped"):
        return "skipped"
    return "pass" if res["ok"] else "fail"


def runner(name: str):
    """(call, outcome) for a workload.

    `call(inst, seed)` is the timed work. It calls through the module
    attributes, so that the tracer's wrappers see the calls. `outcome(result)`
    reduces a result to the exact values and verdicts the reference holds.
    """
    from aqisim import greedy, harness
    from aqisim.model import rational_to_json

    spec = WORKLOADS[name]
    if "checks" in spec:
        config = harness.CampaignConfig(
            seeds=[], packets=spec["packets"], max_k=spec["max_k"],
            horizon=spec["horizon"], servers=spec["servers"], checks=spec["checks"],
        )

        def call(inst, seed):
            return harness.check_instance(inst, config, seed)

        def outcome(results):
            out = {"verdicts": {check: _verdict(res) for check, res in sorted(results.items())}}
            for check, res in sorted(results.items()):
                detail = res.get("detail") or {}
                for key in DETAIL_VALUES:
                    if key in detail:
                        out[f"{check}.{key}"] = detail[key]
            return out

    elif name == "online-matching":
        def call(inst, seed):
            return harness.run_bundle(inst, "matching")

        def outcome(result):
            report, traces = result
            run = traces["matching"]
            return {
                "verdicts": {"matching-halfopt": "fail" if report["ratio"]["violation"] else "pass"},
                "alg_value": report["alg_value"],
                "opt_value": report["opt_value"],
                "events": len(run.events),
                "trace_sha256": _sha256(run.trace_jsonl()),
            }

    else:
        def call(inst, seed):
            return greedy.run_online_greedy(inst)

        def outcome(run):
            return {
                "verdicts": {},
                "greedy_total": rational_to_json(run.valuation.total),
                "steps": len(run.state.steps),
                "warnings": len(run.state.warnings),
                "allocation_sha256": _sha256(json.dumps(run.allocation.to_json(), sort_keys=True)),
                "step_log_sha256": _sha256(run.step_log_jsonl()),
            }

    return call, outcome


def setup(name: str, instances: str, limit: int | None):
    """Import, generate and warm up; returns ((scaled, raw seconds), call,
    outcome, [(seed, inst)]), scaled by probes just before and after."""
    before = probe()
    started = time.perf_counter()
    import_aqisim()
    from aqisim.harness import generate

    spec = WORKLOADS[name]
    call, outcome = runner(name)
    insts = [
        (seed, generate(spec["packets"], spec["max_k"], spec["horizon"], seed,
                        mode=MODES[seed % len(MODES)], servers=spec["servers"]))
        for seed in seeds_of(name, instances, limit)
    ]
    for seed, inst in insts[:WARMUP]:
        call(inst, seed)
    raw = time.perf_counter() - started
    scaled = raw * PROBE_REF_S * 2 / (before + probe())
    return (scaled, raw), call, outcome, insts


def judge(outcome, result, expected) -> str | None:
    """Why one run failed, or None: it raised, skipped or failed a check, or
    an exact value differs from the reference."""
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}"
    got = outcome(result)
    bad = sorted(check for check, verdict in got["verdicts"].items() if verdict != "pass")
    if bad:
        return "check not passed: " + ", ".join(f"{c}={got['verdicts'][c]}" for c in bad)
    if got != expected:
        keys = sorted(k for k in set(got) | set(expected) if got.get(k) != expected.get(k))
        return "differs from the reference in " + ", ".join(keys)
    return None


def load_reference(name: str, instances: str, path: str | None) -> dict[int, dict]:
    ref_path = Path(path) if path else REFERENCE_DIR / f"{name}.json"
    doc = json.loads(ref_path.read_text())
    if doc["workload"] != name:
        raise SystemExit(f"error: {ref_path} holds references for {doc['workload']!r}, not {name!r}")
    return {int(seed): out for seed, out in doc[instances].items()}


class Checker:
    """Judges every run against the reference and keeps the first failures."""

    def __init__(self, outcome, reference: dict[int, dict]):
        self.outcome = outcome
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, call, inst, seed: int) -> float:
        """Time one call and judge its result; returns the seconds it took.
        The result is dropped on return, so runs never hold two at once."""
        started = time.perf_counter()
        try:
            result = call(inst, seed)
        except Exception as exc:  # a failed instance is counted, never fatal
            result = exc
        elapsed = time.perf_counter() - started
        self.check(seed, result)
        return elapsed

    def check(self, seed: int, result) -> None:
        self.attempted += 1
        if seed not in self.reference:
            why = "no reference value recorded"
        else:
            why = judge(self.outcome, result, self.reference[seed])
        if why is not None:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"seed {seed}: {why}")


def tail_rank(n: int) -> tuple[int, int]:
    """(index into the sorted samples, percentile) of the highest percentile
    with at least 10 samples beyond it; the maximum when there are too few."""
    if n <= 10:
        return n - 1, 100
    return n - 11, (100 * (n - 10)) // n


def measure_passes(order, call, checker: Checker, seconds: float):
    """Whole passes over `order` until `seconds` have passed and at least
    MIN_PASSES are done; returns the per-seed scaled and raw run times and
    the pass count."""
    scaled: dict[int, list[float]] = {seed: [] for seed, _ in order}
    raw: dict[int, list[float]] = {seed: [] for seed, _ in order}
    speed = SpeedScale()
    started = time.perf_counter()
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - started < seconds:
        for seed, inst in order:
            elapsed, scaled_elapsed = speed.run(checker, call, inst, seed)
            raw[seed].append(elapsed)
            scaled[seed].append(scaled_elapsed)
        passes += 1
    return scaled, raw, passes


def timing(times: dict[int, list[float]]) -> tuple[float, float, float, int]:
    """(runs per second, p50 ms, tail ms, tail percentile) of per-seed run
    times; an instance's time is the median of its runs."""
    runs = [t for ts in times.values() for t in ts]
    per_instance = sorted(statistics.median(ts) for ts in times.values())
    index, percentile = tail_rank(len(per_instance))
    return (len(runs) / sum(runs), statistics.median(per_instance) * 1000.0,
            per_instance[index] * 1000.0, percentile)


def end_to_end(scaled, raw, checker: Checker, setup_s: tuple[float, float]):
    """(metrics, the same timings in raw wall time, sample counts)."""
    ips, p50, tail, percentile = timing(scaled)
    raw_ips, raw_p50, raw_tail, _ = timing(raw)
    metrics = {
        "instances_per_s": ips,
        "instance_ms.p50": p50,
        "instance_ms.tail": tail,
        "ok_share": (checker.attempted - checker.failed) / checker.attempted,
        "setup_s": setup_s[0],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    raw_metrics = {"instances_per_s": raw_ips, "instance_ms.p50": raw_p50,
                   "instance_ms.tail": raw_tail, "setup_s": setup_s[1]}
    samples = {"instances": len(scaled), "runs": sum(map(len, scaled.values())),
               "tail_percentile": percentile}
    return metrics, raw_metrics, samples


def traced_pass(order, call, checker: Checker, name: str, untraced_ips: float) -> dict:
    import tracing

    tracer = tracing.Tracer()
    speed = SpeedScale()
    scaled = 0.0

    def traced_call(inst, seed):
        tracer.instance = seed
        return tracer.span("instance", call, inst, seed)

    with tracer:
        for seed, inst in order:
            scaled += speed.run(checker, traced_call, inst, seed)[1]
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{name}.jsonl")
    return tracing.layer_metrics(tracer, len(order), 1.0 - len(order) / scaled / untraced_ips)


def cmd_setup(args) -> dict:
    setup_s, *_ = setup(args.workload, args.instances, args.limit)
    return {"setup_s": setup_s}


def cmd_measure(args) -> dict:
    reference = load_reference(args.workload, args.instances, args.reference)
    setup_s, call, outcome, insts = setup(args.workload, args.instances, args.limit)
    order = list(insts)
    Random(args.seed).shuffle(order)
    checker = Checker(outcome, reference)
    scaled, raw, passes = measure_passes(order, call, checker, args.seconds)
    metrics, raw_metrics, samples = end_to_end(scaled, raw, checker, setup_s)
    doc = {"end_to_end": metrics, "raw": raw_metrics, "samples": samples, "passes": passes}
    if args.trace:
        doc["per_layer"] = traced_pass(order, call, checker, args.workload, metrics["instances_per_s"])
    doc.update(attempted=checker.attempted, failed=checker.failed, failures=checker.failures)
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--instances", choices=INSTANCE_SETS, default="acceptance")
    parser.add_argument("--limit", type=int)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference")
    args = parser.parse_args(argv)
    doc = cmd_setup(args) if args.command == "setup" else cmd_measure(args)
    print(json.dumps(doc, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
