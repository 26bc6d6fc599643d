"""Core data model: packets, cost families, instances, bins and allocations.

All values are exact rationals (fractions.Fraction). Floats never enter the
model; JSON carries integers or "p/q" strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple


class AqiError(Exception):
    """Base error for this package."""


class ParseError(AqiError):
    """Malformed instance document; message carries the offending location."""


class AllocationError(AqiError):
    """Allocation violates a structural constraint of its instance."""


INFINITE_SLOT = (1 << 62)  # sentinel slot for the discard bin / "never locks"


def shown(value) -> str:
    """`repr(value)` cut to 80 characters, so an error line echoing user input stays short."""
    text = repr(value)
    return text if len(text) <= 80 else text[:80] + "..."


def parse_rational(value, where: str = "value") -> Fraction:
    """Parse an exact rational from JSON: int, "p/q" string or integer string."""
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError(f"{where}: floats are not exact; use an integer or 'p/q' string")
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"{where}: bad rational literal {shown(value)}") from exc
    raise ParseError(f"{where}: expected a rational, got {type(value).__name__}")


def rational_to_json(value: Fraction):
    """Integers stay JSON numbers; everything else is a "p/q" string."""
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


COST_KINDS = ("linear", "power", "exponential", "saturating", "tabulated")


@dataclass(frozen=True)
class CostFamily:
    """A cost/utility curve evaluated on non-negative integers.

    kinds:
      linear      params [slope]           -> slope * x
      power       params [coeff, exponent] -> coeff * x**exponent  (integer exponent >= 1)
      exponential params [scale, base]     -> scale * (base**x - 1)      (growing)
      saturating  params [scale, base]     -> scale * (1 - base**(-x))   (diminishing)
      tabulated   table  [v0, v1, ...]     -> table[x], error past the end
    """

    kind: str
    params: tuple[Fraction, ...] = ()
    table: tuple[Fraction, ...] = ()

    def __post_init__(self):
        if self.kind not in COST_KINDS:
            raise ParseError(f"unknown cost kind {shown(self.kind)}")
        if self.kind == "tabulated":
            if not self.table:
                raise ParseError("tabulated cost family needs a non-empty table")
        elif self.kind == "linear":
            if len(self.params) != 1:
                raise ParseError("linear cost family takes params [slope]")
        elif self.kind == "power":
            if len(self.params) != 2 or self.params[1].denominator != 1 or self.params[1] < 1:
                raise ParseError("power cost family takes params [coeff, integer exponent >= 1]")
        else:  # exponential / saturating
            if len(self.params) != 2 or self.params[1] <= 0:
                raise ParseError(f"{self.kind} cost family takes params [scale, base > 0]")

    def value(self, x: int) -> Fraction:
        if x < 0:
            raise AqiError(f"cost family evaluated at negative argument {x}")
        if self.kind == "linear":
            return self.params[0] * x
        if self.kind == "power":
            return self.params[0] * Fraction(x) ** int(self.params[1])
        if self.kind == "exponential":
            scale, base = self.params
            return scale * (base**x - 1)
        if self.kind == "saturating":
            scale, base = self.params
            return scale * (1 - Fraction(1, 1) / base**x)
        if x >= len(self.table):
            raise self._past_table(x)
        return self.table[x]

    def row(self, n: int) -> list[tuple[int, int]]:
        """value(0), ..., value(n-1) as unreduced (numerator, denominator)
        integer pairs, by each kind's recurrence and without a Fraction per
        entry. With slope a/b, coefficient c/d, scale s/t and base p/q:

          linear      (a*x, b)
          power       (c*x**e, d)
          exponential (s*(p**x - q**x), t*q**x)
          saturating  (s*(p**x - q**x), t*p**x)
          tabulated   table[x] as (numerator, denominator)

        p**x and q**x take one multiply per entry. A table shorter than n
        raises the error `value` raises at its end."""
        if self.kind == "tabulated":
            if n > len(self.table):
                raise self._past_table(len(self.table))
            return [(v.numerator, v.denominator) for v in self.table[:n]]
        num, den = self.params[0].numerator, self.params[0].denominator
        if self.kind == "linear":
            return [(num * x, den) for x in range(n)]
        if self.kind == "power":
            e = int(self.params[1])
            return [(num * x**e, den) for x in range(n)]
        p, q = self.params[1].numerator, self.params[1].denominator
        grows = self.kind == "exponential"
        out = []
        px = qx = 1
        for _ in range(n):
            out.append((num * (px - qx), den * (qx if grows else px)))
            px *= p
            qx *= q
        return out

    def _past_table(self, x: int) -> AqiError:
        return AqiError(f"tabulated cost family has no value at {x} (table length {len(self.table)})")

    def increment(self, x: int) -> Fraction:
        """value(x+1) - value(x)."""
        return self.value(x + 1) - self.value(x)

    def to_json(self) -> dict:
        if self.kind == "tabulated":
            return {"kind": self.kind, "table": [rational_to_json(v) for v in self.table]}
        return {"kind": self.kind, "params": [rational_to_json(v) for v in self.params]}

    @staticmethod
    def from_json(doc, where: str) -> "CostFamily":
        if not isinstance(doc, dict):
            raise ParseError(f"{where}: expected an object")
        kind = doc.get("kind")
        if kind not in COST_KINDS:
            raise ParseError(f"{where}.kind: unknown cost kind {shown(kind)}")
        if kind == "tabulated":
            raw = doc.get("table")
            if not isinstance(raw, list) or not raw:
                raise ParseError(f"{where}.table: expected a non-empty list")
            return CostFamily(kind, table=tuple(parse_rational(v, f"{where}.table[{i}]") for i, v in enumerate(raw)))
        raw = doc.get("params")
        if not isinstance(raw, list):
            raise ParseError(f"{where}.params: expected a list")
        return CostFamily(kind, params=tuple(parse_rational(v, f"{where}.params[{i}]") for i, v in enumerate(raw)))


def linear(slope) -> CostFamily:
    return CostFamily("linear", params=(Fraction(slope),))


def tabulated(values: Iterable) -> CostFamily:
    return CostFamily("tabulated", table=tuple(Fraction(v) for v in values))


def shannon_energy(scale=1, base=2) -> CostFamily:
    """Energy of sending k units in one slot: scale * (base**k - 1)."""
    return CostFamily("exponential", params=(Fraction(scale), Fraction(base)))


@dataclass(frozen=True)
class Packet:
    """One arriving packet, split into `subpackets` equal fragments.

    `distortion` maps transmitted-fragment count to utility, `delay_cost`
    maps completion lag to cost; `weight` multiplies both.
    """

    id: str
    arrival: int
    subpackets: int
    weight: Fraction
    distortion: CostFamily
    delay_cost: CostFamily
    deadline: int | None = None

    def __post_init__(self):
        if self.subpackets < 1:
            raise ParseError(f"packet {shown(self.id)}: subpackets must be >= 1")
        if self.arrival < 0:
            raise ParseError(f"packet {shown(self.id)}: arrival must be >= 0")
        if self.weight <= 0:
            raise ParseError(f"packet {shown(self.id)}: weight must be positive")
        if self.deadline is not None and self.deadline < self.arrival:
            raise ParseError(f"packet {shown(self.id)}: deadline precedes arrival")

    def utility(self, transmitted: int) -> Fraction:
        """Weighted utility of transmitting `transmitted` fragments (0 at 0)."""
        if transmitted == 0:
            return Fraction(0)
        return self.weight * (self.distortion.value(transmitted) - self.distortion.value(0))

    def lag_cost(self, lag: int) -> Fraction:
        return self.weight * self.delay_cost.value(lag)


@dataclass(frozen=True)
class Instance:
    """A complete scheduling input: packets, slotted horizon and energy curves."""

    packets: tuple[Packet, ...]
    horizon: int
    servers: int = 1
    energy: tuple[CostFamily, ...] = ()
    label: str = ""

    def __post_init__(self):
        if self.horizon < 0:
            raise ParseError("horizon must be >= 0")
        if self.servers < 1:
            raise ParseError("servers must be >= 1")
        if len(self.energy) != self.servers:
            raise ParseError(f"need one energy family per server ({self.servers}), got {len(self.energy)}")
        by_id: dict[str, Packet] = {}
        for p in self.packets:
            if p.id in by_id:
                raise ParseError(f"duplicate packet id {shown(p.id)}")
            by_id[p.id] = p
        object.__setattr__(self, "_by_id", by_id)

    def packet(self, pid: str) -> Packet:
        try:
            return self._by_id[pid]
        except KeyError:
            raise AllocationError(f"unknown packet {shown(pid)}") from None

    @property
    def total_subpackets(self) -> int:
        return sum(p.subpackets for p in self.packets)

    def is_binary(self) -> bool:
        return all(p.subpackets == 1 for p in self.packets)


class SubpacketRef(NamedTuple):
    """Identifies one fragment of one packet (index is 1-based)."""

    packet: str
    index: int


@dataclass(frozen=True, order=True)
class Bin:
    """One allocation target: a (slot, server) pair or the discard bin.

    A regular bin locks at the end of its slot; the discard bin never locks.
    """

    slot: int
    server: int = 0
    is_discard: bool = False

    @property
    def lock_time(self) -> int:
        return INFINITE_SLOT if self.is_discard else self.slot

    @property
    def id(self) -> str:
        return "discard" if self.is_discard else f"t{self.slot}s{self.server}"

    @staticmethod
    def discard() -> "Bin":
        return Bin(slot=INFINITE_SLOT, server=0, is_discard=True)


DISCARD = Bin.discard()


class Allocation:
    """A set of (fragment, bin) assignments; each fragment appears at most once.

    `entries` is a read-only view: change an allocation only through `add`
    and `remove`, which keep the per-packet and per-(slot, server) indexes
    in step with it.
    """

    def __init__(self, entries: Iterable[tuple[SubpacketRef, Bin]] = ()):
        self._entries: dict[SubpacketRef, Bin] = {}
        self._by_packet: dict[str, dict[SubpacketRef, Bin]] = {}  # insertion order
        self._occupancy: dict[tuple[int, int], int] = {}  # (slot, server) -> fragments
        for ref, b in entries:
            self.add(ref, b)

    @property
    def entries(self) -> Mapping[SubpacketRef, Bin]:
        return MappingProxyType(self._entries)

    def add(self, ref: SubpacketRef, b: Bin) -> None:
        if ref in self._entries:
            raise AllocationError(f"{ref} is already allocated")
        self._entries[ref] = b
        self._by_packet.setdefault(ref.packet, {})[ref] = b
        if not b.is_discard:
            key = (b.slot, b.server)
            self._occupancy[key] = self._occupancy.get(key, 0) + 1

    def remove(self, ref: SubpacketRef) -> Bin:
        """Take `ref` out again; returns the bin it held."""
        b = self._entries.pop(ref, None)
        if b is None:
            raise AllocationError(f"{ref} is not allocated")
        del self._by_packet[ref.packet][ref]
        if not b.is_discard:
            key = (b.slot, b.server)
            self._occupancy[key] -= 1
        return b

    def __contains__(self, ref: SubpacketRef) -> bool:
        return ref in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        return isinstance(other, Allocation) and self._entries == other._entries

    def copy(self) -> "Allocation":
        return Allocation(self._entries.items())

    def extended(self, ref: SubpacketRef, b: Bin) -> "Allocation":
        out = self.copy()
        out.add(ref, b)
        return out

    def packet_entries(self, pid: str) -> list[tuple[SubpacketRef, Bin]]:
        """The packet's entries, in the order they were added."""
        return list(self._by_packet.get(pid, {}).items())

    @property
    def occupancies(self) -> Mapping[tuple[int, int], int]:
        """Read-only view: the number of fragments placed in each regular bin
        (slot, server) ever filled; a bin missing from it holds none."""
        return MappingProxyType(self._occupancy)

    def sorted_entries(self) -> list[tuple[SubpacketRef, Bin]]:
        return sorted(self._entries.items(), key=lambda e: (e[0].packet, e[0].index))

    def to_json(self) -> list:
        return [
            {"packet": r.packet, "index": r.index, "bin": b.id}
            for r, b in self.sorted_entries()
        ]


def check_entry(inst: Instance, p: Packet, ref: SubpacketRef, b: Bin) -> None:
    """Raise AllocationError unless `ref` is a fragment of packet `p` and `b`
    is the discard bin or a bin inside `inst`'s slots and servers."""
    if not 1 <= ref.index <= p.subpackets:
        raise AllocationError(f"{ref} is out of range for packet with {p.subpackets} fragments")
    if b.is_discard:
        return
    if not 0 <= b.slot <= inst.horizon:
        raise AllocationError(f"{ref} assigned to slot {b.slot} outside horizon {inst.horizon}")
    if not 0 <= b.server < inst.servers:
        raise AllocationError(f"{ref} assigned to unknown server {b.server}")


def check_allocation(inst: Instance, alloc: Allocation) -> None:
    """Raise AllocationError unless `alloc` is structurally valid for `inst`."""
    ids = {p.id: p for p in inst.packets}
    for ref, b in alloc.entries.items():
        if ref.packet not in ids:
            raise AllocationError(f"allocation references unknown packet {ref.packet!r}")
        p = ids[ref.packet]
        check_entry(inst, p, ref, b)
        if not b.is_discard and b.slot < p.arrival:
            raise AllocationError(f"{ref} assigned to slot {b.slot} before arrival {p.arrival}")


@dataclass
class ValidationReport:
    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def note(self, text: str) -> None:
        self.problems.append(text)


def _check_curve(report: ValidationReport, fam: CostFamily, upto: int, name: str,
                 *, concave: bool, zero_at_zero: bool) -> None:
    """Check monotonicity plus concave/convex increments of `fam` on 0..upto."""
    try:
        values = [fam.value(x) for x in range(upto + 1)]
    except AqiError as exc:
        report.note(f"{name}: {exc}")
        return
    if zero_at_zero and values[0] != 0:
        report.note(f"{name}: value at 0 is {values[0]}, expected 0")
    deltas = [b - a for a, b in zip(values, values[1:])]
    for i, d in enumerate(deltas):
        if d < 0:
            report.note(f"{name}: decreases at {i + 1}")
    for i in range(1, len(deltas)):
        if concave and deltas[i] > deltas[i - 1]:
            report.note(f"{name}: increments increase at i={i + 1} ({deltas[i - 1]} then {deltas[i]})")
        if not concave and deltas[i] < deltas[i - 1]:
            report.note(f"{name}: increments decrease at i={i + 1} (not convex)")


def validate_instance(inst: Instance) -> ValidationReport:
    """Check every structural assumption the model places on an instance.

    Returns an empty report iff the instance is admissible: distortion curves
    have non-increasing positive-direction increments and start at 0, delay
    and energy curves are convex non-decreasing with value 0 at 0, and all
    arrivals/deadlines fit the horizon.
    """
    report = ValidationReport()
    total = inst.total_subpackets
    for srv, fam in enumerate(inst.energy):
        _check_curve(report, fam, max(total, 1), f"energy[{srv}]", concave=False, zero_at_zero=True)
    for p in inst.packets:
        if p.arrival > inst.horizon:
            report.note(f"packet {p.id}: arrival {p.arrival} beyond horizon {inst.horizon}")
            continue
        if p.deadline is not None and p.deadline > inst.horizon:
            report.note(f"packet {p.id}: deadline {p.deadline} beyond horizon {inst.horizon}")
        _check_curve(report, p.distortion, p.subpackets, f"packet {p.id}: D", concave=True, zero_at_zero=True)
        _check_curve(report, p.delay_cost, inst.horizon - p.arrival, f"packet {p.id}: C",
                     concave=False, zero_at_zero=True)
    return report


# ---------------------------------------------------------------------------
# JSON schema:
# {label, horizon, servers, energy: [{kind, params|table}],
#  packets: [{id, arrival, subpackets, weight, distortion, delay_cost, deadline}]}
# ---------------------------------------------------------------------------

def _require_int(doc, key: str, where: str, minimum: int | None = None) -> int:
    if key not in doc:
        raise ParseError(f"{where}: missing field {key!r}")
    v = doc[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"{where}.{key}: expected an integer")
    if minimum is not None and v < minimum:
        raise ParseError(f"{where}.{key}: must be >= {minimum}")
    return v


def _packet_from_json(doc, where: str) -> Packet:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object")
    for key in ("id", "arrival", "subpackets", "weight", "distortion", "delay_cost"):
        if key not in doc:
            raise ParseError(f"{where}: missing field {key!r}")
    deadline = doc.get("deadline")
    if deadline is not None:
        if isinstance(deadline, bool) or not isinstance(deadline, int):
            raise ParseError(f"{where}.deadline: expected an integer or null")
    try:
        return Packet(
            id=str(doc["id"]),
            arrival=_require_int(doc, "arrival", where, minimum=0),
            subpackets=_require_int(doc, "subpackets", where, minimum=1),
            weight=parse_rational(doc["weight"], f"{where}.weight"),
            distortion=CostFamily.from_json(doc["distortion"], f"{where}.distortion"),
            delay_cost=CostFamily.from_json(doc["delay_cost"], f"{where}.delay_cost"),
            deadline=deadline,
        )
    except ParseError:
        raise
    except AqiError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def instance_from_json(doc) -> Instance:
    if not isinstance(doc, dict):
        raise ParseError("document: expected an object")
    horizon = _require_int(doc, "horizon", "document", minimum=0)
    servers = doc.get("servers", 1)
    if isinstance(servers, bool) or not isinstance(servers, int) or servers < 1:
        raise ParseError("document.servers: expected an integer >= 1")
    raw_energy = doc.get("energy")
    if not isinstance(raw_energy, list) or not raw_energy:
        raise ParseError("document.energy: expected a non-empty list of cost families")
    energy = tuple(CostFamily.from_json(e, f"document.energy[{i}]") for i, e in enumerate(raw_energy))
    raw_packets = doc.get("packets")
    if not isinstance(raw_packets, list):
        raise ParseError("document.packets: expected a list")
    packets = tuple(_packet_from_json(p, f"document.packets[{i}]") for i, p in enumerate(raw_packets))
    return Instance(packets=packets, horizon=horizon, servers=servers, energy=energy,
                    label=str(doc.get("label", "")))


def load_instance(text: str) -> Instance:
    """Parse an instance from its JSON document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"document: invalid JSON ({exc})") from exc
    except RecursionError:
        raise ParseError("document: JSON nested too deeply") from None
    return instance_from_json(doc)


def instance_to_json(inst: Instance) -> dict:
    return {
        "label": inst.label,
        "horizon": inst.horizon,
        "servers": inst.servers,
        "energy": [fam.to_json() for fam in inst.energy],
        "packets": [
            {
                "id": p.id,
                "arrival": p.arrival,
                "subpackets": p.subpackets,
                "weight": rational_to_json(p.weight),
                "distortion": p.distortion.to_json(),
                "delay_cost": p.delay_cost.to_json(),
                "deadline": p.deadline,
            }
            for p in inst.packets
        ],
    }


def store_instance(inst: Instance) -> str:
    """Canonical serialization: sorted keys, explicit defaults, exact values."""
    return json.dumps(instance_to_json(inst), sort_keys=True, indent=2) + "\n"
