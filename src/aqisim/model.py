"""Core data model: packets, cost families, instances, bins and allocations.

All values are exact rationals (fractions.Fraction). Floats never enter the
model; JSON carries integers or "p/q" strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from random import Random
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple


class AqiError(Exception):
    """Base error for this package."""


class ParseError(AqiError):
    """Malformed instance document; message carries the offending location."""


class AllocationError(AqiError):
    """Allocation violates a structural constraint of its instance."""


class BudgetError(AqiError):
    """A layer would exceed its work budget; never approximated."""


# the default work budget: validation curve points, oracle nodes and matcher steps
DEFAULT_BUDGET = 10_000_000

INFINITE_SLOT = (1 << 62)  # sentinel slot for the discard bin / "never locks"


def shown(value) -> str:
    """`repr(value)` cut to 80 characters, so an error line echoing user input stays short."""
    text = repr(value)
    return text if len(text) <= 80 else text[:80] + "..."


# Python refuses to convert an integer of more digits than this to or from
# text, by default from 3.10.7 on; the reader refuses such a number first
MAX_DIGITS = 4300


class LongInteger(str):
    """The text of a JSON integer of more than MAX_DIGITS digits, which
    `parse_json` keeps unconverted for the reader to refuse where it reads it."""


def parse_json(text: str):
    """`json.loads(text)`, with each integer of more than MAX_DIGITS digits
    kept as its `LongInteger` text."""
    return json.loads(text, parse_int=lambda digits: (
        LongInteger(digits) if len(digits.lstrip("-")) > MAX_DIGITS else int(digits)))


def literal_digits(text: str) -> int:
    """A bound on the digits of the numerator and of the denominator that
    `Fraction(text)` builds, read without converting `text`: the digits of
    each side of a `/`, or of a decimal plus the size of its exponent."""
    mantissa, _, exponent = text.lower().partition("e")
    digits = max(sum(map(str.isdecimal, part)) for part in mantissa.split("/"))
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    if not exponent.isdecimal():  # no exponent, or one `Fraction` refuses
        return digits
    # an exponent of five digits or more is at least 10,000: past the limit either way
    return digits + min(int(exponent[:5]), MAX_DIGITS)


def _too_long(where: str) -> ParseError:
    return ParseError(f"{where}: a number of more than {MAX_DIGITS} digits")


def parse_rational(value, where: str = "value") -> Fraction:
    """Parse an exact rational from JSON: int, "p/q" string or integer string.
    A string whose number would have more than MAX_DIGITS digits is refused
    before it is converted."""
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError(f"{where}: floats are not exact; use an integer or 'p/q' string")
    if isinstance(value, str):
        if literal_digits(value) > MAX_DIGITS:
            raise _too_long(where)
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


class NumberTexts(dict):
    """{integer x: JSON text of x / scale}, each rendered on its first read;
    0 is seeded, so a zero is never rendered."""

    def __init__(self, scale: int):
        super().__init__({0: "0"})
        self.scale = scale

    def __missing__(self, x: int) -> str:
        self[x] = text = json.dumps(rational_to_json(Fraction(x, self.scale)))
        return text


COST_KINDS = ("linear", "power", "exponential", "saturating", "tabulated")


@dataclass(frozen=True)
class CostFamily:
    """A cost/utility curve evaluated on non-negative integers.

    With slope a/b, coefficient c/d, scale s/t and base p/q, each kind's
    value at x and its closed form as an unreduced integer pair, `pair(x)`:

      kind         params         value at x                         pair(x)
      linear       [a/b]          a/b * x                            (a*x, b)
      power        [c/d, e]       c/d * x**e, integer e >= 1         (c*x**e, d)
      exponential  [s/t, p/q]     s/t * ((p/q)**x - 1), growing      (s*(p**x - q**x), t*q**x)
      saturating   [s/t, p/q]     s/t * (1 - (q/p)**x), diminishing  (s*(p**x - q**x), t*p**x)
      tabulated    table [v, ...] table[x], an error past the end    table[x]'s ratio

    `row(n)` gives pair(0), ..., pair(n-1) by recurrence: the same forms,
    with p**x and q**x each one multiply from the entry before. `value(x)` is
    `pair(x)` as a `Fraction`.
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

    def pair(self, x: int) -> tuple[int, int]:
        """The value at x as an unreduced (numerator, denominator > 0) pair,
        in its kind's closed form; no `Fraction` is built."""
        if x < 0:
            raise AqiError(f"cost family evaluated at negative argument {x}")
        kind = self.kind
        if kind == "tabulated":
            if x >= len(self.table):
                raise self._past_table(x)
            return self.table[x].as_integer_ratio()
        num, den = self.params[0].as_integer_ratio()
        if kind == "linear":
            return num * x, den
        if kind == "power":
            return num * x ** self.params[1].numerator, den
        p, q = self.params[1].as_integer_ratio()
        px, qx = p**x, q**x
        return num * (px - qx), den * (qx if kind == "exponential" else px)

    def value(self, x: int) -> Fraction:
        return Fraction(*self.pair(x))

    def row(self, n: int) -> list[tuple[int, int]]:
        """pair(0), ..., pair(n-1), by each kind's recurrence and without a
        Fraction per entry: p**x and q**x take one multiply per entry. A
        table shorter than n raises the error `pair` raises at its end."""
        if self.kind == "tabulated":
            if n > len(self.table):
                raise self._past_table(len(self.table))
            return [v.as_integer_ratio() for v in self.table[:n]]
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
        """A missing `table` or `params` list reads as empty, for the constructor to refuse."""
        if not isinstance(doc, dict):
            raise ParseError(f"{where}: expected an object")
        kind = doc.get("kind")
        key = "table" if kind == "tabulated" else "params"
        raw = doc.get(key, [])
        if not isinstance(raw, list):
            raise ParseError(f"{where}.{key}: expected a list")
        values = tuple(parse_rational(v, f"{where}.{key}[{i}]") for i, v in enumerate(raw))
        return _built(where, CostFamily, kind=kind, **{key: values})


def linear(slope) -> CostFamily:
    return CostFamily("linear", params=(Fraction(slope),))


def tabulated(values: Iterable) -> CostFamily:
    return CostFamily("tabulated", table=tuple(Fraction(v) for v in values))


def shrinking(rng: Random, first: int, count: int) -> list[int]:
    """`first`, then count - 1 draws, each from 1 to the one before."""
    return list(accumulate(range(count - 1), lambda before, _: rng.randint(1, before), initial=first))


def summed(incs: Iterable[int], halves: bool = False) -> CostFamily:
    """The tabulated curve 0, incs[0], incs[0] + incs[1], ..., halved if
    `halves`: the sums are integers, and each entry is made one Fraction."""
    sums = accumulate(incs, initial=0)
    table = tuple(Fraction(s, 2) for s in sums) if halves else tuple(map(Fraction, sums))
    return CostFamily("tabulated", table=table)


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


def occupancy_levels(total: int) -> int:
    """The occupancies an energy curve covers: 0 to `total` fragments, or 0 and 1 without any."""
    return max(total, 1) + 1


@dataclass(frozen=True)
class Instance:
    """A complete scheduling input: packets, slotted horizon and energy curves.

    The facts every layer reads are derived here, once, and are not fields:
    `index` (packet id -> row), `by_arrival` (the packets in (arrival, id)
    order, as both online schedulers take them), `total_subpackets`,
    `levels` (`occupancy_levels` of the total) and `spans` (per row, the
    length of its lag row: its delays 0 to horizon - arrival, at least one)."""

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
        index: dict[str, int] = {}
        for i, p in enumerate(self.packets):
            if index.setdefault(p.id, i) != i:
                raise ParseError(f"duplicate packet id {shown(p.id)}")
        total = sum(p.subpackets for p in self.packets)
        self.__dict__.update(  # past the frozen __setattr__, as they are not fields
            index=index, total_subpackets=total, levels=occupancy_levels(total),
            by_arrival=tuple(sorted(self.packets, key=lambda p: (p.arrival, p.id))),
            spans=tuple(max(self.horizon, p.arrival) - p.arrival + 1 for p in self.packets))

    def packet(self, pid: str) -> Packet:
        try:
            return self.packets[self.index[pid]]
        except KeyError:
            raise AllocationError(f"unknown packet {shown(pid)}") from None

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
    index, packets = inst.index, inst.packets
    for ref, b in alloc.entries.items():
        if ref.packet not in index:
            raise AllocationError(f"allocation references unknown packet {ref.packet!r}")
        p = packets[index[ref.packet]]
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

    def notes(self, name: str, texts: list[str]) -> None:
        """Note each of `texts` as a problem of `name`."""
        self.problems += [f"{name}: {text}" for text in texts]


def _curve_holds(fam: CostFamily, upto: int, concave: bool) -> bool:
    """Whether parametric `fam` is admissible on 0..upto, decided in closed
    form on its parameters' integer ratios, slope, coeff or scale a/b and
    base p/q: it is 0 at 0, and its increments keep one sign and change in
    one direction throughout:

      kind         increment sign   sign of the increments' change
      linear       a                0
      power        a                a, 0 if the exponent is 1
      exponential  a * (p - q)      a, 0 if p = q
      saturating   a * (p - q)      -a, 0 if p = q"""
    a = fam.params[0].numerator
    if fam.kind in ("linear", "power"):
        step, bend = a, 0 if fam.kind == "linear" or fam.params[1].numerator == 1 else a
    else:
        p, q = fam.params[1].as_integer_ratio()
        step, bend = a * (p - q), 0 if p == q else a if fam.kind == "exponential" else -a
    return not (upto >= 1 and step < 0 or upto >= 2 and (bend > 0 if concave else bend < 0))


def _curve_problems(fam: CostFamily, upto: int, concave: bool) -> list[str]:
    """Every problem of `fam` on 0..upto, in order: a value other than 0 at
    0, then each decrease, then each pair of increments that is not concave
    (convex). A table, or a parametric curve `_curve_holds` fails, is scanned
    once over `row(upto + 1)`, each increment an unreduced integer pair and
    each comparison cross-multiplied; a number becomes a `Fraction` only in
    a problem's text."""
    if fam.kind != "tabulated" and _curve_holds(fam, upto, concave):
        return []
    try:
        pairs = fam.row(upto + 1)
    except AqiError as exc:
        return [str(exc)]
    decreases, bends = [], []
    last_num = last_den = x = 0  # the zero pair compares equal to the first increment
    for (n0, d0), (n1, d1) in zip(pairs, pairs[1:]):
        x += 1
        num, den = n1 * d0 - n0 * d1, d0 * d1
        bend = num * last_den - last_num * den
        if num < 0:
            decreases.append(f"decreases at {x}")
        if bend > 0 if concave else bend < 0:
            bends.append(f"increments increase at i={x} ({Fraction(last_num, last_den)} then {Fraction(num, den)})"
                         if concave else f"increments decrease at i={x} (not convex)")
        last_num, last_den = num, den
    if pairs[0][0]:
        return [f"value at 0 is {Fraction(*pairs[0])}, expected 0"] + decreases + bends
    return decreases + bends


def admission_charges(inst: Instance) -> tuple[int, int]:
    """(curve points, table words): what validating `inst` and building its
    `valuation.Tables` may cost, in closed form, in one walk over its curves,
    each read from its parameters or its table's denominators and never
    evaluated.

    Curve points: each energy curve on 0..total fragments, and each packet
    within the horizon's distortion on 0..fragments and delay on 0..horizon -
    arrival. Validation reads a table's points once, in integers, and a
    parametric curve's only when its closed form fails, but later layers
    such as `valuation.Tables` read every point, so the gate counts them,
    each point of a power curve charged its exponent, as x**exponent holds
    about exponent times the bits of x.

    Table words: the tables' entries times the machine words of a bound on
    their common scale's bits. The scale divides the lcm of the entries'
    unreduced denominators, v * d_c * d_0 (utility), v * d (lag) and d_c *
    d_c+1 (energy), for weights u/v and curve denominators d, so its bits are
    at most those of every distinct weight denominator plus twice those of
    every distinct curve denominator. An exponential or saturating row's
    denominators t * f**x, x < n, add the bits of t once and of f n - 1
    times, so a long row of such a curve is charged for the scale it grows.
    Each entry x of such a row, s * (p**x - q**x) over the scale for scale
    s/t and base p/q, is charged its own width too: the scale's bits plus
    those of s plus x times those of max(p, q), summed over the row."""
    levels = inst.levels
    # (curve, points read, entries valuation.Tables holds, whether validation reads it)
    rows = [(fam, levels, levels - 1, True) for fam in inst.energy]
    weights = set()
    for p, span in zip(inst.packets, inst.spans):
        seen = p.arrival <= inst.horizon
        rows += ((p.distortion, p.subpackets + 1, p.subpackets + 1, seen), (p.delay_cost, span, span, seen))
        weights.add(p.weight.denominator)
    points = flat = 0  # flat: the entries charged at the scale's width alone
    fixed: set[int] = set()  # constant denominators and table entries' denominators
    grown: dict[int, int] = {}  # {base factor f: highest power x} of a row's denominators t * f**x
    wide = []  # (points, bits of s, bits of max(p, q)) of each exponential or saturating row
    for fam, n, held, seen in rows:
        kind = fam.kind
        if seen:
            points += n * int(fam.params[1]) if kind == "power" else n
        if kind == "tabulated":
            fixed.update([v.denominator for v in fam.table[:n]])
            flat += held
            continue
        scale = fam.params[0]
        fixed.add(scale.denominator)
        if kind not in ("exponential", "saturating"):
            flat += held
            continue
        base = fam.params[1]
        factor = base.denominator if kind == "exponential" else base.numerator
        if factor > 1:
            grown[factor] = max(grown.get(factor, 0), n - 1)
        wide.append((n, scale.numerator.bit_length(), max(base.numerator, base.denominator).bit_length()))
    bits = (sum(v.bit_length() for v in weights) + 2 * sum(d.bit_length() for d in fixed)
            + 2 * sum(f.bit_length() * x for f, x in grown.items()))
    # sum over x < n of the words of bits + s + x * m, bounded in closed form
    words = sum(n + (n * (bits + s) + m * n * (n - 1) // 2) // 64 for n, s, m in wide)
    return points, flat * (1 + bits // 64) + words


def admission_floor(packets: int, servers: int) -> int:
    """A floor on `admission_charges`' curve points when every packet has a
    fragment and arrives by the horizon: packets + 1 per energy curve, 3 per packet."""
    return servers * (packets + 1) + 3 * packets


def validate_instance(inst: Instance) -> ValidationReport:
    """Check every structural assumption the model places on an instance.

    Returns an empty report iff the instance is admissible: distortion curves
    have non-increasing positive-direction increments and start at 0, delay
    and energy curves are convex non-decreasing with value 0 at 0, and all
    arrivals/deadlines fit the horizon. Each curve's problems come from
    `_curve_problems`: a parametric curve is decided in O(1) from its
    parameters, a table in one integer scan of its entries. Only a curve
    with a problem is named.
    """
    report = ValidationReport()
    upto = inst.levels - 1
    for srv, fam in enumerate(inst.energy):
        if problems := _curve_problems(fam, upto, False):
            report.notes(f"energy[{srv}]", problems)
    for p, span in zip(inst.packets, inst.spans):
        if p.arrival > inst.horizon:
            report.note(f"packet {shown(p.id)}: arrival {p.arrival} beyond horizon {inst.horizon}")
            continue
        if p.deadline is not None and p.deadline > inst.horizon:
            report.note(f"packet {shown(p.id)}: deadline {p.deadline} beyond horizon {inst.horizon}")
        # a packet's name is rendered only for a curve that fails
        if problems := _curve_problems(p.distortion, p.subpackets, True):
            report.notes(f"packet {shown(p.id)}: D", problems)
        if problems := _curve_problems(p.delay_cost, span - 1, False):
            report.notes(f"packet {shown(p.id)}: C", problems)
    return report


def require_within_budget(charge: int, where: str, budget: int = DEFAULT_BUDGET) -> None:
    """`require_valid`'s refusal of an instance charged `charge` past `budget`."""
    if charge > budget:
        raise BudgetError(f"{where}: instance too large to validate: more than {budget} curve points")


def require_valid(inst: Instance, where: str, budget: int = DEFAULT_BUDGET) -> Instance:
    """`inst`, once `validate_instance` finds no problem with it. It is
    refused first, with no curve evaluated, when its curves have more than
    `budget` points or its integer tables more than `budget` machine words,
    as `admission_charges` charges them.
    Errors start with `where`."""
    require_within_budget(max(admission_charges(inst)), where, budget)
    report = validate_instance(inst)
    if not report.ok:
        raise AqiError(f"{where}: invalid instance: " + "; ".join(report.problems))
    return inst


# ---------------------------------------------------------------------------
# JSON schema:
# {label, horizon, servers, energy: [{kind, params|table}],
#  packets: [{id, arrival, subpackets, weight, distortion, delay_cost, deadline}]}
# ---------------------------------------------------------------------------

def _built(where: str, cls, **fields):
    """`cls(**fields)`, a constructor's error prefixed with `where`, the location being read."""
    try:
        return cls(**fields)
    except ParseError as exc:
        raise ParseError(f"{where}: {exc}") from exc


def _require_fields(doc, keys: tuple[str, ...], where: str) -> None:
    """Refuse `doc` unless it holds every key, naming the first one missing."""
    for key in keys:
        if key not in doc:
            raise ParseError(f"{where}: missing field {key!r}")


def _require_int(doc, key: str, where: str) -> int:
    """The field `key`, present in `doc`, as an integer."""
    v = doc[key]
    if isinstance(v, LongInteger):
        raise _too_long(f"{where}.{key}")
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"{where}.{key}: expected an integer")
    return v


def _packet_from_json(doc, where: str) -> Packet:
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object")
    _require_fields(doc, ("id", "arrival", "subpackets", "weight", "distortion", "delay_cost"), where)
    return _built(where, Packet, id=str(doc["id"]), arrival=_require_int(doc, "arrival", where),
                  subpackets=_require_int(doc, "subpackets", where),
                  weight=parse_rational(doc["weight"], f"{where}.weight"),
                  distortion=CostFamily.from_json(doc["distortion"], f"{where}.distortion"),
                  delay_cost=CostFamily.from_json(doc["delay_cost"], f"{where}.delay_cost"),
                  deadline=None if doc.get("deadline") is None else _require_int(doc, "deadline", where))


def instance_from_json(doc) -> Instance:
    """The reader checks JSON shapes and types, the constructors every value rule."""
    if not isinstance(doc, dict):
        raise ParseError("document: expected an object")
    _require_fields(doc, ("horizon",), "document")
    horizon = _require_int(doc, "horizon", "document")
    servers = _require_int(doc, "servers", "document") if "servers" in doc else 1
    raw_energy = doc.get("energy")
    if not isinstance(raw_energy, list):
        raise ParseError("document.energy: expected a list of cost families")
    energy = tuple(CostFamily.from_json(e, f"document.energy[{i}]") for i, e in enumerate(raw_energy))
    raw_packets = doc.get("packets")
    if not isinstance(raw_packets, list):
        raise ParseError("document.packets: expected a list")
    packets = tuple(_packet_from_json(p, f"document.packets[{i}]") for i, p in enumerate(raw_packets))
    return _built("document", Instance, packets=packets, horizon=horizon, servers=servers, energy=energy,
                  label=str(doc.get("label", "")))


def load_instance(text: str) -> Instance:
    """Parse an instance from its JSON document."""
    try:
        doc = parse_json(text)
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
