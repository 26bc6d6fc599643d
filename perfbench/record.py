"""Record the reference outcomes that every benchmark run is checked against.

    python3 perfbench/record.py [--workload NAME ...]

For each workload and each of its seed ranges (acceptance and held-out) this
runs every instance once and writes the exact values and verdicts to
`perfbench/reference/<workload>.json`. Record only at a commit whose results
are trusted: the references define what "correct" means for later commits.
A seed whose checks do not all pass is recorded as it is, with a warning; the
benchmark counts it as failed on every run.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys

import worker


def commit_id() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=worker.BENCH, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def record(name: str, commit: str) -> dict:
    spec = worker.WORKLOADS[name]
    doc = {"workload": name, "commit": commit, "python": platform.python_version(),
           "shape": {k: v for k, v in spec.items() if k not in worker.INSTANCE_SETS}}
    for instances in worker.INSTANCE_SETS:
        _, call, outcome, insts = worker.setup(name, instances, None)
        outcomes = {}
        for seed, inst in insts:
            out = outcome(call(inst, seed))
            bad = {c: v for c, v in out["verdicts"].items() if v != "pass"}
            if bad:
                # recorded as it is: the benchmark counts this seed as failed on every run
                print(f"warning: {name} seed {seed} does not pass: {bad}", file=sys.stderr)
            outcomes[str(seed)] = out
        doc[instances] = outcomes
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(worker.WORKLOADS),
                        default=list(worker.WORKLOADS))
    args = parser.parse_args(argv)
    commit = commit_id()
    worker.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workload:
        doc = record(name, commit)
        path = worker.REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
        print(f"{name}: {sum(len(doc[s]) for s in worker.INSTANCE_SETS)} instances -> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
