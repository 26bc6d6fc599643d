"""One rung of the online greedy scale ladder, in one process.

    python3 tools/greedy_ladder.py N K H S

Runs `run_online_greedy` once on `generate(N, K, H, 0, servers=S)` (mode
`random`), then renders its `step_log_jsonl()`, as `aqisim run --algorithm
greedy --trace-out` does. Prints one JSON object: the run's and the step
log's seconds, the steps, peak RSS in MB (read after the step log, so it
covers the instance, the run and every rendered gains row) and the SHA-256
of the step log and of the allocation's JSON. Standard library only; it
imports aqisim from the `src/` next to this directory.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aqisim.greedy import run_online_greedy  # noqa: E402
from aqisim.harness import generate  # noqa: E402


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def rung(n: int, k: int, h: int, servers: int) -> dict:
    inst = generate(n, k, h, 0, servers=servers)
    started = time.perf_counter()
    run = run_online_greedy(inst)
    run_s = time.perf_counter() - started
    started = time.perf_counter()
    log = run.step_log_jsonl()
    log_s = time.perf_counter() - started
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux
    return {
        "n": n,
        "k": k,
        "h": h,
        "servers": servers,
        "run_s": round(run_s, 4),
        "step_log_s": round(log_s, 4),
        "steps": len(run.state.steps),
        "peak_rss_mb": round(peak_mb, 1),
        "step_log_sha256": _sha256(log),
        "allocation_sha256": _sha256(json.dumps(run.allocation.to_json(), sort_keys=True)),
    }


def main(argv: list[str]) -> int:
    if len(argv) != 4 or not all(a.isdigit() for a in argv) or int(argv[0]) < 1 or int(argv[1]) < 1 \
            or int(argv[3]) < 1:
        sys.stderr.write("usage: python3 tools/greedy_ladder.py N K H S  (N, K, S >= 1)\n")
        return 2
    print(json.dumps(rung(*map(int, argv)), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
