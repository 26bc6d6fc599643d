"""The aqisim benchmark: times the package's public functions on seeded
workloads, checks every outcome against recorded references and prints each
metric by name, with its unit and sample count.

    python3 perfbench/run.py --workload verify-binary --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run it from the root of a checkout; it imports aqisim from `src/` there.
Each workload runs in a fresh single-threaded process (worker.py): five
set-ups, four of them in processes of their own, give the median `setup_s`;
the last one goes on to measure whole passes over the instances (at least
two, and until `--seconds` have passed), taking each instance's time as the
median of its runs. Times are scaled to a reference CPU speed by a speed
probe (see worker.py); the table also prints the raw wall times. `--seed` orders the instances; the instance
set is the workload's acceptance seed range, or the held-out range with
`--instances heldout`. With `--trace 1` the per-layer metrics of one traced
pass are printed instead, and the spans are written to `perfbench/out/`.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is 0 only if every run of
every instance matched its reference.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"
sys.path.insert(0, str(BENCH))

from tracing import PER_LAYER  # noqa: E402
from worker import INSTANCE_SETS, WORKLOADS  # noqa: E402

END_TO_END = {
    "instances_per_s": "1/s",
    "instance_ms.p50": "ms",
    "instance_ms.tail": "ms",
    "ok_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
SETUPS = 5  # set-ups per run; the median is setup_s


class WorkerError(Exception):
    pass


def run_worker(args: list[str]) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
                          text=True, env=env, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def sample_note(name: str, samples: dict) -> str:
    if name == "instance_ms.p50":
        return f"p50 of {samples['instances']} instances, median of >= 2 runs each"
    if name == "instance_ms.tail":
        return f"p{samples['tail_percentile']} of {samples['instances']} instances"
    if name == "setup_s":
        return f"median of {samples['setups']} set-ups"
    if name == "peak_rss_mb":
        return "1 process"
    return f"{samples['runs']} runs"


def run_workload(name: str, args) -> tuple[dict, int]:
    common = ["--workload", name, "--instances", args.instances]
    if args.limit is not None:
        common += ["--limit", str(args.limit)]
    setups = []
    if not args.trace:
        setups = [run_worker(["setup", *common])["setup_s"] for _ in range(SETUPS - 1)]
    measure = ["measure", *common, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.reference:
        measure += ["--reference", args.reference]
    doc = run_worker(measure)
    e2e, raw, samples = doc["end_to_end"], doc["raw"], doc["samples"]
    lo, hi = WORKLOADS[name][args.instances]
    if args.limit is not None:
        hi = min(hi, lo + args.limit)
    print(f"{name}: seeds {lo}:{hi} ({args.instances}), order seed {args.seed}, "
          f"{doc['passes']} passes, {doc['attempted']} runs, {doc['failed']} failed")
    for failure in doc["failures"]:
        print(f"  FAILED {failure}")
    if args.trace:
        metrics = {k: {"value": doc["per_layer"][k], "unit": unit} for k, unit in PER_LAYER.items()}
        for k, m in metrics.items():
            print(f"  {k:34s} {m['value']:>16.6g} {m['unit']:<14s} 1 traced pass")
    else:
        setups.append([e2e["setup_s"], raw["setup_s"]])
        samples["setups"] = len(setups)
        e2e["setup_s"] = statistics.median(scaled for scaled, _ in setups)
        raw["setup_s"] = statistics.median(wall for _, wall in setups)
        metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in END_TO_END.items()}
        print(f"  {'metric':18s} {'at ref. speed':>14s} {'unit':6s} {'raw wall':>10s}  samples")
        for k, m in metrics.items():
            wall = f"{raw[k]:10.6g}" if k in raw else " " * 10
            print(f"  {k:18s} {m['value']:>14.6g} {m['unit']:<6s} {wall}  {sample_note(k, samples)}")
    correct = doc["failed"] == 0
    result = {"correct": correct, "attempted": doc["attempted"], "failed": doc["failed"],
              "metrics": metrics}
    return result, 0 if correct else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="orders the instances")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measure whole passes until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instances", choices=INSTANCE_SETS, default="acceptance")
    parser.add_argument("--limit", type=int, help="use only the first N seeds of the range")
    parser.add_argument("--reference", help="reference file to check against "
                        "(default perfbench/reference/<workload>.json)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.limit is not None and args.limit < 1:
        parser.error("--limit must be at least 1")
    if args.reference and args.workload == "all":
        parser.error("--reference needs a single workload")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    code = 0
    for name in names:
        try:
            result, status = run_workload(name, args)
        except (WorkerError, subprocess.TimeoutExpired) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(result), flush=True)
        code = max(code, status)
    return code


if __name__ == "__main__":
    sys.exit(main())
