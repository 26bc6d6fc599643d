"""One acceptance campaign, its time split into generation and checks.

    python3 tools/campaign_split.py binary|general

Runs the binary (500 seeds; 6 unit packets, h=5; the matching checks) or
general (200 seeds; 5 packets, k<=3, h=5; the greedy and bridge checks)
acceptance campaign through `run_campaign`, timing each `generate` call it
makes. Prints one JSON object: the generation, check and wall seconds (check
is wall less generation), the instances, the SHA-256 of the joined
`store_instance` texts of the generated instances and the SHA-256 of the
summary as `aqisim campaign --out` writes it. Standard library only; it
imports aqisim from the `src/` next to this directory.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aqisim import harness  # noqa: E402
from aqisim.model import store_instance  # noqa: E402

CAMPAIGNS = {
    "binary": harness.CampaignConfig(seeds=list(range(500)), packets=6, max_k=1, horizon=5,
                                     checks=("matching-halfopt", "bin-marginal-monotone")),
    "general": harness.CampaignConfig(seeds=list(range(200)), packets=5, max_k=3, horizon=5,
                                      checks=("greedy-halfopt", "greedy-bridge", "opt-bridge")),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def split(name: str) -> dict:
    generate = harness.generate
    instances = []
    generation_s = 0.0

    def timed(*args, **kwargs):
        nonlocal generation_s
        started = time.perf_counter()
        inst = generate(*args, **kwargs)
        generation_s += time.perf_counter() - started
        instances.append(inst)
        return inst

    harness.generate = timed
    try:
        started = time.perf_counter()
        summary = harness.run_campaign(CAMPAIGNS[name])
        wall_s = time.perf_counter() - started
    finally:
        harness.generate = generate
    return {
        "campaign": name,
        "generation_s": round(generation_s, 4),
        "check_s": round(wall_s - generation_s, 4),
        "wall_s": round(wall_s, 4),
        "instances": len(instances),
        "instances_sha256": _sha256("".join(map(store_instance, instances))),
        "summary_sha256": _sha256(json.dumps(summary, sort_keys=True, indent=2) + "\n"),
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in CAMPAIGNS:
        sys.stderr.write("usage: python3 tools/campaign_split.py binary|general\n")
        return 2
    print(json.dumps(split(argv[0]), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
