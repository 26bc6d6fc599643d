"""Online greedy allocator: each arriving fragment goes, irrevocably, to the
unlocked bin with the largest exact marginal value.

Bins still open at a fragment's arrival are the current and future slots plus
the discard bin. Ties break toward regular bins over discard, then earliest
slot, then lowest server index; the discard bin guarantees every step's
marginal is at least 0.

A run lists its candidate bins once, in that order, and keeps integer lists
of its own: per regular bin, laid out `slot * servers + server` as the list
is, its occupancy and its price, `energy_inc[server][occupancy]` from
`tables(inst)`; per slot, the lowest price among its bins, a list of its
own for any server count. Packets arrive in (arrival, id) order,
`Instance.by_arrival`, and a packet's steps share one slice of the bin
list, from its arrival slot on. A fragment's gains row follows from the packet's
fragment count and last slot, kept in two local integers, and three more
integers: a bin up to the last slot gains `early - price` (one more fragment
at the same completion slot), a later bin up to the deadline
`late - (lag + price)` (the utility step less its own lag), a bin past the
deadline `-current - price` (the packet loses its current term), and the
discard bin 0.

The pick is the row's first strict maximum, found without building the
row. Within a segment the integer a bin's gain starts from is the same, so
its first maximum is the first minimum of what the bins subtract: one
`min` and one `index` over a slice of the per-slot lowest prices (plus the
packet's lag row in the middle segment), then the first server of that
slot at that price. Across segments an earlier one wins a tie and any
regular bin beats the discard bin's 0, as the row's order has it. After a
pick only the chosen bin's occupancy and price, and its slot's lowest
price, change. When a packet's last fragment is placed, the run writes the
packet's entries into its one allocation, with one `SubpacketRef` per
fragment shared with the steps: the chosen bins in (slot, server) order
take indices 1, 2, ... and the discards the rest. A run sums the chosen
integers and checks that sum once against `evaluate`.

No step calls `valuation.marginal_gains`, which stays the reference that
the lock-free replay, the telescoping and the tests price with; the
`greedy-bridge` check compares the two. Both runs record a `GreedyStep`: its
bins, the index of its pick and its `gains`, integers over the tables'
scale. The replay passes its row as a list. Greedy passes what the row is
made of: the run's one `PriceLog`, the packet's lag row, the three integers
and the two cut points. The log holds the prices before the first step and,
per step, the one price its pick set, so no step keeps prices of its own;
`render_gains` asks it for the prices as they stood before the step when
`gains` is first read. A step's `gain`, the chosen one as a `Fraction`,
and `alternatives`, the full (bin, Fraction) list, are built when read.
`step_log_jsonl` joins each line from JSON fragments made once per run,
byte for byte what `json.dumps(..., sort_keys=True)` writes.

The half-competitive bound holds, as checked, for the online matcher only;
for greedy it fails under convex energy. With one slot, one server, energy
E(c) = c**2 and no lag cost, let unit packet p0 (utility 101/100) arrive
before p1 (utility 29/10). Greedy sends p0 at gain 1/100, then discards p1,
whose gain in the slot would be 29/10 - 3 = -1/10; the optimum sends p1
alone for 19/10, so greedy keeps 1/190 of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add

from .model import (
    DISCARD,
    Allocation,
    AllocationError,
    Bin,
    Instance,
    NumberTexts,
    SubpacketRef,
)
from .valuation import Valuation, evaluate, tables


def arrival_order(inst: Instance) -> list[SubpacketRef]:
    """Fragments in arrival order: packets by (arrival, id), fragments by index."""
    refs = []
    for p in inst.by_arrival:
        refs.extend(SubpacketRef(p.id, j) for j in range(1, p.subpackets + 1))
    return refs


def candidate_bins(inst: Instance, clock: int) -> list[Bin]:
    """Unlocked bins at `clock`, in tie-break order; discard comes last."""
    bins = [
        Bin(slot=t, server=s)
        for t in range(clock, inst.horizon + 1)
        for s in range(inst.servers)
    ]
    bins.append(DISCARD)
    return bins


class GreedyStep:
    """One pick, as online greedy and the lock-free replay both record it.

    The replay passes its `gains` list. Greedy passes `row` instead:
    (log, lag, servers, early, late, current, mid, past), the run's
    `PriceLog`, the packet's lag row by slot, the three integers the
    segments start from and the positions in `bins` where the second and
    third segments begin; `gains` is rendered from it by `render_gains` when
    first read, and kept."""

    __slots__ = ("step", "ref", "bins", "scale", "pick", "_gains", "_row")

    def __init__(self, step: int, ref: SubpacketRef, bins: list[Bin], gains: list[int] | None,
                 scale: int, pick: int, row: tuple | None = None):
        self.step = step
        self.ref = ref
        self.bins = bins  # the candidate bins, in tie-break order
        self.scale = scale
        self.pick = pick  # index of the chosen bin in `bins`
        self._gains = gains
        self._row = row

    @property
    def gains(self) -> list[int]:
        """The bins' marginals, over `scale`."""
        if self._gains is None:
            self._gains, self._row = render_gains(self), None
        return self._gains

    @property
    def chosen(self) -> Bin:
        return self.bins[self.pick]

    @property
    def gain(self) -> Fraction:
        """The chosen bin's exact marginal."""
        return Fraction(self.gains[self.pick], self.scale)

    @property
    def alternatives(self) -> list[tuple[Bin, Fraction]]:
        """Every candidate bin with its exact marginal, in tie-break order."""
        return [(b, Fraction(g, self.scale)) for b, g in zip(self.bins, self.gains)]


class PriceLog:
    """A run's prices, kept once: those before its first step and, per step,
    the `(position, price)` its pick set, or None when it set none (a
    discard, or a bin filled to the top of its energy row).

    `before(step)` gives the prices as they stood before `step`, by
    position. It moves one running list forward from the step it last gave,
    and goes back to the first step's prices only when a read goes
    backwards, so reading the steps in order costs one update per step. The
    list is the log's own: a caller reads it and does not keep it."""

    __slots__ = ("first", "changes", "_prices", "_at")

    def __init__(self, prices: list[int]):
        self.first = tuple(prices)
        self.changes: list[tuple[int, int] | None] = []
        self._prices: list[int] | None = None  # the prices before step `_at`
        self._at = 0

    def before(self, step: int) -> list[int]:
        prices, at = self._prices, self._at
        if prices is None or step < at:
            prices, at = list(self.first), 0
        for change in self.changes[at:step]:
            if change is not None:
                prices[change[0]] = change[1]
        self._prices, self._at = prices, step
        return prices


def render_gains(step: GreedyStep) -> list[int]:
    """A greedy step's gains row from its `GreedyStep` row: `early - price`
    up to the packet's last slot, `late - (lag + price)` up to the deadline,
    `-current - price` past it, then the discard bin's 0. The prices are the
    log's before the step, from the step's first bin on; the lag row, by
    slot, is spread to one entry per bin, whatever the server count."""
    log, lag, servers, early, late, current, mid, past = step._row
    prices = log.before(step.step)
    prices = prices[len(prices) + 1 - len(step.bins):]  # the step's bins are a suffix of the run's
    lag = [d for d in lag for _ in range(servers)]  # by bin, as `prices` is
    gains = [early - e for e in prices[:mid]]
    gains += [late - d - e for d, e in zip(lag[mid:past], prices[mid:past])]
    gains += [-current - e for e in prices[past:]]
    gains.append(0)
    return gains


@dataclass
class GreedyState:
    """The candidate bins and what the run recorded at each step."""

    bins: list[Bin]  # candidate_bins(inst, 0), listed once per run
    steps: list[GreedyStep] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def first_max(gains: list) -> int:
    """Index of the first strict maximum: the tie-break order is the list's."""
    return gains.index(max(gains))


@dataclass
class GreedyRun:
    allocation: Allocation
    valuation: Valuation
    state: GreedyState

    def step_log_jsonl(self) -> str:
        """One JSON line per step, as `json.dumps(..., sort_keys=True)` writes
        it, joined from fragments made once per run: each bin's
        `{"bin": <id>, "rho": ` head, each distinct gain's text and each
        packet id's JSON string."""
        ids = [json.dumps(b.id) for b in self.state.bins]  # each step's bins are a suffix of these
        heads = ['{"bin": ' + i + ', "rho": ' for i in ids]
        steps = self.state.steps
        rho = NumberTexts(steps[0].scale if steps else 1)  # gain -> JSON text; a run's steps share one scale
        names: dict[str, str] = {}  # packet id -> JSON text
        lines = []
        for s in steps:
            gains, at, pid = s.gains, len(ids) - len(s.bins), s.ref.packet
            if pid not in names:
                names[pid] = json.dumps(pid)
            texts = list(map(rho.__getitem__, gains))
            alternatives = "}, ".join(map(add, heads[at:], texts))
            lines.append(f'{{"alternatives": [{alternatives}}}], "chosen_bin": {ids[at + s.pick]}, '
                         f'"index": {s.ref.index}, "packet": {names[pid]}, '
                         f'"rho": {texts[s.pick]}, "step": {s.step}}}')
        return "\n".join(lines) + ("\n" if lines else "")


def run_online_greedy(inst: Instance) -> GreedyRun:
    """Run the greedy allocator over the whole instance.

    Fragments of one packet arrive together, processed in index order. The
    step log keeps each fragment's own pick. The allocation is written once
    per packet, when its last fragment is placed, in canonical order: the
    chosen regular bins by (slot, server) take indices 1, 2, ... and the
    discarded fragments the rest. Relabeling keeps the value, and lower
    indices take earlier slots.
    """
    tab = tables(inst)
    scale, energy_inc = tab.scale, tab.energy_inc
    horizon, servers = inst.horizon, inst.servers
    state = GreedyState(bins=candidate_bins(inst, 0))
    end = (horizon + 1) * servers  # the discard bin's position
    # per regular bin, laid out like state.bins: fragments placed, and the
    # energy step of one more, energy_inc[server][occupancy]; per slot, the
    # lowest of its bins' prices
    occupancy = [0] * end
    prices = [energy_inc[b.server][0] for b in state.bins[:-1]]
    lows = [min(prices[at:at + servers]) for at in range(0, end, servers)]
    log = PriceLog(prices)
    changes = log.changes
    alloc, steps = Allocation(), state.steps
    total = 0  # over the tables' scale
    for p in inst.by_arrival:
        i, arrival, deadline = inst.index[p.id], p.arrival, p.deadline
        base = min(arrival, horizon + 1) * servers  # position of the first open bin
        bins = state.bins[base:]  # candidate_bins(inst, arrival), shared by the packet's steps
        utility, lag = tab.utility[i], tab.lag[i]
        cutoff = horizon if deadline is None or deadline > horizon else deadline
        refs = [SubpacketRef(p.id, j) for j in range(1, p.subpackets + 1)]
        count, last = 0, arrival  # as valuation._packet_state reads them
        placed = []  # positions in state.bins of the packet's regular picks
        for ref in refs:
            expired = deadline is not None and last > deadline
            current = 0 if count == 0 or expired else utility[count] - lag[last - arrival]
            early = (0 if expired else utility[count + 1] - lag[last - arrival]) - current
            late = utility[count + 1] - current
            # the row's first strict maximum, segment by segment from the
            # last, so that an earlier segment wins a tie; `best` starts at
            # the discard bin's 0, which any regular bin's tie beats
            after, beyond = last + 1, max(last + 1, cutoff + 1)  # first slots of segments 2 and 3
            best, slot = 0, None
            if beyond <= horizon:
                tail = lows[beyond:]
                low = min(tail)
                if -current - low >= best:
                    best, slot = -current - low, beyond + tail.index(low)
            if after < beyond:
                costs = list(map(add, lag[after - arrival:beyond - arrival], lows[after:beyond]))
                low = min(costs)
                if late - low >= best:
                    best, slot = late - low, after + costs.index(low)
            if arrival <= horizon:
                head = lows[arrival:after]
                low = min(head)
                if early - low >= best:
                    best, slot = early - low, arrival + head.index(low)
            change = None  # the (position, price) the pick sets
            if slot is None:
                k = len(bins) - 1
            else:
                first = slot * servers
                at = first + prices[first:first + servers].index(lows[slot])
                k = at - base
                # `k` is the first maximum, so every bin of an earlier slot
                # scored strictly less: a choice at the horizon always beats them
                if slot == horizon and arrival < horizon:
                    state.warnings.append(f"{ref}: best bin sits exactly at the horizon; "
                                          "a longer horizon could change the choice")
                occupancy[at] += 1
                row = energy_inc[at - first]
                if occupancy[at] < len(row):  # a full bin is never priced again
                    prices[at] = price = row[occupancy[at]]
                    lows[slot] = min(prices[first:first + servers])
                    change = (at, price)
                placed.append(at)
                count += 1
                last = max(last, slot)
            changes.append(change)
            steps.append(GreedyStep(len(steps), ref, bins, None, scale, k,
                                    (log, lag, servers, early, late, current,
                                     (after - arrival) * servers, (beyond - arrival) * servers)))
            total += best
        placed.sort()  # ascending position is (slot, server) order
        for ref, at in zip(refs, placed):
            alloc.add(ref, state.bins[at])
        for ref in refs[len(placed):]:
            alloc.add(ref, DISCARD)
    val = evaluate(inst, alloc)
    raw_total = Fraction(total, scale)
    if val.total != raw_total:
        raise AllocationError(
            f"greedy bookkeeping out of sync: steps sum to {raw_total}, allocation is worth {val.total}"
        )
    return GreedyRun(allocation=alloc, valuation=val, state=state)
