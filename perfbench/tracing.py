"""Outside-in tracing for the aqisim benchmark.

The tracer replaces public aqisim functions by timing wrappers for the length
of one traced pass and puts the originals back afterwards. A name bound by
`from .valuation import marginal_value` lives again in every importing
module, so each function is replaced under every aqisim module attribute that
holds it. Each call becomes a span (name, start, end, parent, instance) kept
in memory; two model methods that run far too often for a span are only
counted. Spans are written out as JSON lines once the pass ends.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

# (span name, defining module, function)
SPANS = (
    ("harness.check_instance", "aqisim.harness", "check_instance"),
    ("matching.expand_binary", "aqisim.matching", "expand_binary"),
    ("valuation.transmit_weight", "aqisim.valuation", "transmit_weight"),
    ("matching.solve", "aqisim.matching", "max_weight_matching"),
    ("matching.online", "aqisim.matching", "run_online_matching"),
    ("oracle", "aqisim.oracle", "offline_optimal"),
    ("oracle.binary", "aqisim.oracle", "offline_optimal_binary"),
    ("greedy.run", "aqisim.greedy", "run_online_greedy"),
    ("valuation.marginal_value", "aqisim.valuation", "marginal_value"),
    ("valuation.evaluate", "aqisim.valuation", "evaluate"),
    ("reduction.lockfree", "aqisim.reduction", "run_lockfree_greedy"),
    ("reduction.frozen_optimal", "aqisim.reduction", "frozen_optimal"),
    ("reduction.telescoped", "aqisim.reduction", "telescoped_value"),
    ("reduction.chain", "aqisim.reduction", "check_guarantee_chain"),
    ("reduction.bridge", "aqisim.reduction", "check_offline_bridge"),
)

# (counter name, defining module, class, method): counted, not timed
COUNTERS = (
    ("model.cost_value", "aqisim.model", "CostFamily", "value"),
    ("model.packet_lookup", "aqisim.model", "Instance", "packet"),
)

# Work done by one call, read from its public return value.
WORK = {
    "oracle": lambda res: res.nodes,
    "matching.online": lambda res: len(res.events),
    "greedy.run": lambda res: len(res.state.steps),
}

# Per-layer metrics of one traced pass, with their units. Times and counts
# are totals over the pass.
PER_LAYER = {
    "matching.expand_binary.s": "s",
    "matching.expand_binary.calls": "count",
    "valuation.transmit_weight.calls": "count",
    "valuation.transmit_weight.s": "s",
    "model.cost_value.calls": "count",
    "model.packet_lookup.calls": "count",
    "matching.solve.calls": "count",
    "matching.solve.s": "s",
    "matching.online.self_s": "s",
    "matching.events": "count",
    "matching.event_ms": "ms",
    "matching.solves_per_event": "solves/event",
    "oracle.binary.self_s": "s",
    "oracle.calls": "count",
    "oracle.calls_per_instance": "calls/instance",
    "oracle.s": "s",
    "oracle.nodes": "count",
    "oracle.nodes.max": "count",
    "oracle.nodes_per_s": "1/s",
    "greedy.run.self_s": "s",
    "greedy.steps": "count",
    "greedy.step_us": "us",
    "valuation.marginal_value.calls": "count",
    "valuation.marginal_value.s": "s",
    "valuation.marginals_per_step": "calls/step",
    "valuation.evaluate.calls": "count",
    "valuation.evaluate.s": "s",
    "reduction.lockfree.s": "s",
    "reduction.frozen_optimal.calls": "count",
    "reduction.telescoped.s": "s",
    "reduction.chain.self_s": "s",
    "reduction.bridge.self_s": "s",
    "harness.check_instance.self_s": "s",
    "trace.overhead_share": "share",
}

NAME, START, END, PARENT, INSTANCE, AMOUNT = range(6)


class Tracer:
    """In-memory spans and counters; a context manager installs the wrappers."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, instance, work]
        self.stack: list[int] = []
        self.counts = Counter()
        self.instance = None
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        record = [name, 0, 0, self.stack[-1] if self.stack else -1, self.instance, None]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[END] = perf_counter_ns()
            self.stack.pop()
        work = WORK.get(name)
        if work is not None:
            record[AMOUNT] = work(result)
        return result

    def _replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n == "aqisim" or n.startswith("aqisim.")]
        for name, module, attr in SPANS:
            original = getattr(sys.modules.get(module), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._timed(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, wrapper)
        for name, module, cls, method in COUNTERS:
            owner = getattr(sys.modules.get(module), cls, None)
            original = vars(owner).get(method) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            self._replace(owner, method, self._counted(name, original))
        if self.missing:
            print(f"tracing: not found, reported as 0: {', '.join(self.missing)}", file=sys.stderr)
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False

    def _timed(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def write(self, path: Path) -> None:
        """One header line naming the fields, then one JSON array per span;
        times are nanoseconds from the first span's start."""
        origin = self.spans[0][START] if self.spans else 0
        with open(path, "w") as out:
            out.write(json.dumps(["id", "parent", "name", "instance", "start_ns", "end_ns", "work"]) + "\n")
            for i, (name, start, end, parent, instance, work) in enumerate(self.spans):
                out.write(json.dumps([i, parent, name, instance, start - origin, end - origin, work]) + "\n")


def _has_ancestor(spans: list[list], index: int, name: str) -> bool:
    while index >= 0:
        if spans[index][NAME] == name:
            return True
        index = spans[index][PARENT]
    return False


def layer_metrics(tracer: Tracer, instances: int, overhead_share: float) -> dict[str, float]:
    """Per-layer totals of one traced pass over `instances` instances.

    A span's self time is its duration minus its children's; calls are
    sequential, so children never overlap.
    """
    spans = tracer.spans
    children = [0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            children[parent] += end - start
    total = Counter()
    own = Counter()
    calls = Counter()
    work = Counter()
    work_max = Counter()
    solves_online = marginals_greedy = 0
    for i, (name, start, end, parent, _, amount) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - children[i]
        calls[name] += 1
        if amount is not None:
            work[name] += amount
            work_max[name] = max(work_max[name], amount)
        if name == "matching.solve" and _has_ancestor(spans, parent, "matching.online"):
            solves_online += 1
        elif name == "valuation.marginal_value" and _has_ancestor(spans, parent, "greedy.run"):
            marginals_greedy += 1

    def s(name):
        return total[name] / 1e9

    def self_s(name):
        return own[name] / 1e9

    def per(x, y):
        return x / y if y else 0.0

    events = work["matching.online"]
    steps = work["greedy.run"]
    metrics = {
        "matching.expand_binary.s": s("matching.expand_binary"),
        "matching.expand_binary.calls": calls["matching.expand_binary"],
        "valuation.transmit_weight.calls": calls["valuation.transmit_weight"],
        "valuation.transmit_weight.s": s("valuation.transmit_weight"),
        "model.cost_value.calls": tracer.counts["model.cost_value"],
        "model.packet_lookup.calls": tracer.counts["model.packet_lookup"],
        "matching.solve.calls": calls["matching.solve"],
        "matching.solve.s": s("matching.solve"),
        "matching.online.self_s": self_s("matching.online"),
        "matching.events": events,
        "matching.event_ms": per(s("matching.online") * 1e3, events),
        "matching.solves_per_event": per(solves_online, events),
        "oracle.binary.self_s": self_s("oracle.binary"),
        "oracle.calls": calls["oracle"],
        "oracle.calls_per_instance": per(calls["oracle"], instances),
        "oracle.s": s("oracle"),
        "oracle.nodes": work["oracle"],
        "oracle.nodes.max": work_max["oracle"],
        "oracle.nodes_per_s": per(work["oracle"], s("oracle")),
        "greedy.run.self_s": self_s("greedy.run"),
        "greedy.steps": steps,
        "greedy.step_us": per(s("greedy.run") * 1e6, steps),
        "valuation.marginal_value.calls": calls["valuation.marginal_value"],
        "valuation.marginal_value.s": s("valuation.marginal_value"),
        "valuation.marginals_per_step": per(marginals_greedy, steps),
        "valuation.evaluate.calls": calls["valuation.evaluate"],
        "valuation.evaluate.s": s("valuation.evaluate"),
        "reduction.lockfree.s": s("reduction.lockfree"),
        "reduction.frozen_optimal.calls": calls["reduction.frozen_optimal"],
        "reduction.telescoped.s": s("reduction.telescoped"),
        "reduction.chain.self_s": self_s("reduction.chain"),
        "reduction.bridge.self_s": self_s("reduction.bridge"),
        "harness.check_instance.self_s": self_s("harness.check_instance"),
        "trace.overhead_share": overhead_share,
    }
    assert metrics.keys() == PER_LAYER.keys()
    return metrics
