"""One rung of the matcher scale ladder, in one process.

    python3 tools/ladder.py N H

Times `expand_binary` on `generate(N, 1, H, 0)`, then `run_online_matching`
and `max_weight_matching(graph, run)`, the offline solve resumed from the
run, on that one graph, as `aqisim run --algorithm matching` does. It then
times a fresh `max_weight_matching(graph)` and exits 1 if its pairs or
weight differ from the resumed solve's. Prints one JSON object: the
expansion's and the three solves' times in seconds, peak RSS in MB (read
before the fresh solve, so it covers the instance, the graph, the run and
the resumed solve), bins, edges, `left_edge_steps` (the lefts times the
edges, the charge `aqisim run --algorithm matching` refuses past
`--budget`), events, both weights, whether the fresh solve agrees and the
SHA-256 of the online trace.
Standard library only; it imports aqisim from the `src/` next to this
directory.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aqisim.harness import generate  # noqa: E402
from aqisim.matching import MatchRun, expand_binary, max_weight_matching, run_online_matching  # noqa: E402
from aqisim.model import rational_to_json  # noqa: E402

SLICE = 50  # events rendered at a time when hashing the trace


def trace_sha256(run: MatchRun) -> str:
    """SHA-256 of `run.trace_jsonl()`, rendered a slice of events at a time:
    a slice renders its events' lines exactly as the whole trace does, and
    the whole text (about 0.5 GB at 800 / 100) is never held at once."""
    digest = hashlib.sha256()
    for at in range(0, len(run.events), SLICE):
        part = MatchRun(run.graph, run.log, run.events[at:at + SLICE])
        digest.update(part.trace_jsonl().encode())
    return digest.hexdigest()


def rung(n: int, h: int) -> dict:
    inst = generate(n, 1, h, 0)
    started = time.perf_counter()
    graph = expand_binary(inst)
    expand_s = time.perf_counter() - started
    started = time.perf_counter()
    run = run_online_matching(graph)
    online_s = time.perf_counter() - started
    started = time.perf_counter()
    offline = max_weight_matching(graph, run)
    offline_s = time.perf_counter() - started
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux
    started = time.perf_counter()
    fresh = max_weight_matching(graph)
    fresh_s = time.perf_counter() - started
    edges = sum(map(len, graph.rows))
    return {
        "n": n,
        "h": h,
        "expand_s": round(expand_s, 3),
        "online_s": round(online_s, 3),
        "offline_s": round(offline_s, 3),
        "fresh_offline_s": round(fresh_s, 3),
        "fresh_agrees": fresh == offline,
        "peak_rss_mb": round(peak_mb, 1),
        "bins": len(graph.right_order),
        "edges": edges,
        "left_edge_steps": len(graph.left_order) * edges,
        "events": len(run.events),
        "online_weight": rational_to_json(run.weight),
        "offline_weight": rational_to_json(offline.weight),
        "trace_sha256": trace_sha256(run),
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(a.isdigit() for a in argv):
        sys.stderr.write("usage: python3 tools/ladder.py N H\n")
        return 2
    out = rung(int(argv[0]), int(argv[1]))
    print(json.dumps(out, sort_keys=True))
    return 0 if out["fresh_agrees"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
