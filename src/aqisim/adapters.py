"""Instance constructors for three classic settings: multi-source freshness
scheduling with sawtooth age accounting, speed scaling across convex-power
servers, and a seeded family of multi-source sampling instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .model import (
    AqiError,
    CostFamily,
    Instance,
    Packet,
    linear,
    shannon_energy,
    shown,
    tabulated,
    validate_instance,
)

ZERO = Fraction(0)
HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Multi-source freshness (sawtooth age) increments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SourceEvent:
    id: str
    source: str
    occurred: int


class FreshnessOracle:
    """Marginal values for scheduling source events under sawtooth age cost.

    Delivering an event at slot tau adds the area swept under its source's
    age curve between the previous delivery and tau (half-unit triangles
    included) and earns the source's per-event value. An event delivered at
    or before an already-scheduled newer event of its source is outdated and
    earns exactly 0 - and symmetrically a newer event delivered at or before
    a scheduled older one voids that pairing too. Interleavings the model
    leaves open fall back to the same area rule.
    """

    def __init__(self, events: list[SourceEvent], values: dict[str, Fraction]):
        self.events = {e.id: e for e in events}
        self.values = values

    def marginal(self, event_id: str, slot: int, schedule: dict[str, int]) -> Fraction:
        ev = self.events[event_id]
        value = self.values[ev.source]
        prev_slot = None
        for other_id, other_slot in schedule.items():
            if other_id == event_id:
                continue
            other = self.events[other_id]
            if other.source != ev.source:
                continue
            if other.occurred < ev.occurred and other_slot >= slot:
                return ZERO
            if other.occurred > ev.occurred and other_slot <= slot:
                return ZERO
            if other_slot < slot and (prev_slot is None or other_slot > prev_slot):
                prev_slot = other_slot
        start = max(ev.occurred, prev_slot if prev_slot is not None else ev.occurred)
        gap = slot - start
        area = gap * Fraction(start - ev.occurred) + Fraction(gap * gap) * HALF
        return value - area


def aoi_multisource(events: dict[str, list[int]], values: dict[str, Fraction | int],
                    horizon: int, capacity: int = 1) -> tuple[FreshnessOracle, Instance]:
    """Build the sawtooth increment oracle plus a structurally matching
    instance (one unit packet per event, per-slot transmission capacity
    imposed through a steep convex energy curve)."""
    if capacity < 1:
        raise AqiError("per-slot capacity must be >= 1")
    source_events: list[SourceEvent] = []
    packets: list[Packet] = []
    value_map = {s: Fraction(v) for s, v in values.items()}
    for source in sorted(events):
        times = events[source]
        if source not in value_map:
            raise AqiError(f"source {shown(source)} has no per-event value")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise AqiError(f"source {shown(source)}: event times must be strictly increasing")
        for k, t in enumerate(times, start=1):
            if not 0 <= t < horizon:
                raise AqiError(f"source {shown(source)}: event time {t} not strictly within horizon {horizon}")
            eid = f"{source}e{k}"
            source_events.append(SourceEvent(id=eid, source=source, occurred=t))
            packets.append(Packet(
                id=eid, arrival=t, subpackets=1, weight=Fraction(1),
                distortion=tabulated([0, value_map[source]]),
                delay_cost=linear(1),
            ))
    total = len(packets)
    big = 1 + sum(int(v) + 1 for v in value_map.values()) * max(horizon, 1)
    increments = [ZERO] * capacity + [Fraction(big * (i + 1)) for i in range(max(total - capacity, 0))]
    table = [ZERO]
    for inc in increments:
        table.append(table[-1] + inc)
    inst = Instance(
        packets=tuple(packets), horizon=horizon, servers=1,
        energy=(tabulated(table[: total + 1]) if total else linear(1),),
        label="aoi-multisource",
    )
    report = validate_instance(inst)
    if not report.ok:
        raise AqiError("freshness instance failed validation: " + "; ".join(report.problems))
    return FreshnessOracle(source_events, value_map), inst


# ---------------------------------------------------------------------------
# Speed scaling with convex per-server power curves
# ---------------------------------------------------------------------------

def speed_scaling(jobs: list[tuple[int, int]], servers: int,
                  powers: list[CostFamily], horizon: int,
                  unit_value: Fraction | int | None = None) -> Instance:
    """Jobs split into unit fragments over `servers` machines.

    Linear per-slot lag cost models slotted flow time; fragments of one job
    may run on different machines in the same slot. Without `unit_value` the
    per-unit utility is set high enough that discarding is never optimal
    (mandatory processing).
    """
    if servers < 1:
        raise AqiError("servers must be >= 1")
    if len(powers) != servers:
        raise AqiError(f"need one power curve per server ({servers}), got {len(powers)}")
    total = sum(size for size, _ in jobs)
    if unit_value is None:
        max_inc = max((fam.value(max(total, 1)) - fam.value(max(total, 1) - 1) for fam in powers),
                      default=ZERO)
        unit_value = 1 + horizon + max_inc
    packets = []
    for i, (size, arrival) in enumerate(jobs):
        if size < 1:
            raise AqiError(f"job {i}: size must be >= 1")
        packets.append(Packet(
            id=f"j{i}", arrival=arrival, subpackets=size, weight=Fraction(1),
            distortion=linear(Fraction(unit_value)),
            delay_cost=linear(1),
        ))
    inst = Instance(
        packets=tuple(packets), horizon=horizon, servers=servers,
        energy=tuple(powers), label="speed-scaling",
    )
    report = validate_instance(inst)
    if not report.ok:
        raise AqiError("speed-scaling instance failed validation: " + "; ".join(report.problems))
    return inst


# ---------------------------------------------------------------------------
# Seeded multi-source sampling family
# ---------------------------------------------------------------------------

def remote_sampling_family(sources: int, samples_per_source: int, horizon: int,
                           seed: int, max_fragments: int = 3,
                           fidelity: str = "saturating") -> Instance:
    """Deterministic multi-source instances: a few packets per source with
    diminishing per-fragment fidelity, convex lag cost and shared convex
    energy. A structural family for experiments, not a process simulator."""
    if fidelity not in ("saturating", "table"):
        raise AqiError(f"unknown fidelity shape {fidelity!r}")
    for name, value, least in (("sources", sources, 1), ("samples_per_source", samples_per_source, 1),
                               ("max_fragments", max_fragments, 1), ("horizon", horizon, 0)):
        if value < least:
            raise AqiError(f"{name} must be >= {least}, got {value}")
    rng = Random(seed)
    packets = []
    for s in range(sources):
        arrival = rng.randrange(0, max(horizon, 1))
        for k in range(samples_per_source):
            fragments = rng.randint(1, max_fragments)
            if fidelity == "saturating":
                dist = CostFamily("saturating", params=(Fraction(2**fragments), Fraction(2)))
            else:
                first = rng.randint(3, 9)
                incs = [first]
                for _ in range(fragments - 1):
                    incs.append(rng.randint(1, incs[-1]))
                table = [0]
                for inc in incs:
                    table.append(table[-1] + inc)
                dist = tabulated(table)
            delay = linear(rng.randint(1, 2)) if rng.random() < 0.7 else CostFamily(
                "power", params=(Fraction(1), Fraction(2)))
            packets.append(Packet(
                id=f"s{s}q{k}", arrival=arrival, subpackets=fragments,
                weight=Fraction(rng.randint(1, 3)),
                distortion=dist, delay_cost=delay,
            ))
            arrival = min(horizon, arrival + rng.randint(1, max(horizon // max(samples_per_source, 1), 1)))
    energy = shannon_energy() if rng.random() < 0.5 else linear(rng.randint(1, 2))
    inst = Instance(
        packets=tuple(packets), horizon=horizon, servers=1, energy=(energy,),
        label=f"remote-sampling seed={seed}",
    )
    report = validate_instance(inst)
    if not report.ok:
        raise AqiError("sampling instance failed validation: " + "; ".join(report.problems))
    return inst
