"""The exact oracle's envelope at one instance shape, in one process.

    python3 tools/envelope.py N K H [--servers S] [--budget B]

Runs `offline_optimal` on `generate(N, K, H, seed, mode=mode, servers=S)`
for seeds 0-3 of every generator mode (S defaults to 1), with the search
budget B (default the oracle's, 10M nodes). Prints one JSON object per mode:
the most nodes any of its seeds took and that seed, the most seconds and
that seed, and the seeds whose search passed the budget. A seed past the
budget counts its time to the budget error in `seconds`, but no nodes;
`nodes` is null when every seed passed it. Standard library only; it
imports aqisim from the `src/` next to this directory.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aqisim.harness import GENERATOR_MODES, generate  # noqa: E402
from aqisim.model import DEFAULT_BUDGET, BudgetError  # noqa: E402
from aqisim.oracle import offline_optimal  # noqa: E402

SEEDS = range(4)


def envelope(n: int, k: int, h: int, budget: int = DEFAULT_BUDGET, servers: int = 1) -> list[dict]:
    rows = []
    for mode in GENERATOR_MODES:
        nodes, seconds, over = {}, {}, []
        for seed in SEEDS:
            inst = generate(n, k, h, seed, mode=mode, servers=servers)
            started = time.perf_counter()
            try:
                nodes[seed] = offline_optimal(inst, budget=budget).nodes
            except BudgetError:
                over.append(seed)
            seconds[seed] = time.perf_counter() - started
        most = max(nodes, key=nodes.get, default=None)
        slowest = max(seconds, key=seconds.get)
        rows.append({"mode": mode, "nodes": nodes.get(most), "nodes_seed": most,
                     "seconds": round(seconds[slowest], 3), "seconds_seed": slowest, "over_budget": over})
    return rows


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    for name in ("N", "K", "H"):
        parser.add_argument(name, type=int)
    parser.add_argument("--servers", type=int, default=1)
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    args = parser.parse_args(argv)
    if min(args.N, args.K, args.H) < 0 or min(args.K, args.servers, args.budget) < 1:
        parser.error("N and H must be >= 0, K, --servers and --budget >= 1")
    for row in envelope(args.N, args.K, args.H, args.budget, args.servers):
        print(json.dumps(row, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
