"""Self-test of the benchmark on a tiny size.

    python3 perfbench/selftest.py

For every workload it runs four instances with tracing off and on, and checks
that the result line holds every metric BENCHMARK.json names, with its unit,
and that the printed table names each of them too. It then corrupts one
recorded reference value and checks that the correctness gate catches it: the
run reports `correct: false` and exits non-zero. Exits 0 when all holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from worker import OUT_DIR, REFERENCE_DIR, WORKLOADS  # noqa: E402

LIMIT = 4


def bench(*args: str) -> tuple[int, list[str], dict]:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args, "--limit", str(LIMIT),
                           "--seconds", "0.1"], capture_output=True, text=True, cwd=ROOT, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"run.py {' '.join(args)} printed nothing:\n{proc.stderr}")
    return proc.returncode, lines, json.loads(lines[-1])


def check_metrics(workload: str, trace: int, spec: list[dict]) -> None:
    code, lines, result = bench("--workload", workload, "--seed", "3", "--trace", str(trace))
    if code != 0 or not result["correct"] or result["failed"]:
        raise AssertionError(f"{workload} trace {trace} failed: {result}")
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        raise AssertionError(f"{workload} trace {trace}: metrics {got} differ from BENCHMARK.json {want}")
    table = "\n".join(lines[:-1])
    for name, unit in want.items():
        if not any(line.split()[:1] == [name] and f" {unit} " in f"{line} " for line in lines[:-1]):
            raise AssertionError(f"{workload}: {name} [{unit}] is not in the printed table:\n{table}")
    print(f"ok: {workload} trace {trace} prints {len(want)} metrics with units")


def check_gate(workload: str) -> None:
    doc = json.loads((REFERENCE_DIR / f"{workload}.json").read_text())
    seed = str(WORKLOADS[workload]["acceptance"][0])
    outcome = doc["acceptance"][seed]
    key = next(k for k, v in sorted(outcome.items()) if k != "verdicts")
    outcome[key] = "corrupted"
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"selftest-{workload}.json"
    path.write_text(json.dumps(doc))
    code, lines, result = bench("--workload", workload, "--seed", "3", "--trace", "0",
                                "--reference", str(path))
    if code == 0 or result["correct"] or result["failed"] == 0:
        raise AssertionError(f"{workload}: corrupting {key} of seed {seed} was not caught: {result}")
    print(f"ok: {workload} with a corrupted {key} of seed {seed} fails: "
          f"{result['failed']} of {result['attempted']} runs, exit code {code}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        check_metrics(w["name"], 0, spec["end_to_end"])
        check_metrics(w["name"], 1, spec["per_layer"])
    for w in spec["workloads"]:
        check_gate(w["name"])
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
