"""Pluggable event schedulers for the simulation engine.

The engine stores pending events as ``(time, seq, Event)`` tuples; the
sequence number breaks ties FIFO so that events scheduled for the same
instant fire in scheduling order.  Any structure that pops those tuples
in ascending order is a valid scheduler, and because the entry tuples
order *totally* (seq is unique), every correct scheduler dispatches the
exact same sequence — the causal journal (PR 4) is the end-to-end
witness for that equivalence.

Two implementations:

* :class:`HeapScheduler` — the classic binary heap (``heapq``).  C-fast
  and compact; O(log n) per operation.
* :class:`CalendarQueueScheduler` — a calendar queue (Brown, CACM 1988;
  the structure ns-2 uses for large event populations) with a sorted
  front buffer.  An auto-resizing power-of-two array of "day" buckets
  keyed on ``time / width`` absorbs enqueues as plain appends; dequeues
  come off a small sorted front window that is refilled one day-range
  at a time.  Both ends are O(1) amortized once the bucket width tracks
  the event density, which beats the heap's O(log n) once the pending
  population is large — the heap also loses cache locality at millions
  of entries (every sift touches O(log n) cold cache lines, while a
  calendar push is a single append), which is where most of the
  measured gap comes from.

Correctness hinges on two invariants:

* Bucket mapping and dequeue agree on the *same* integer virtual-day
  index ``int(time * inv_width)``; floats are never compared against
  accumulated bucket-top sums, so an entry can never be scanned under a
  different day than it was filed under.
* The front window holds *every* pending entry whose virtual day is
  ``<= _front_vmax`` (pushes that land at or before the front boundary
  are insorted into the front, not appended to a bucket), so the
  front's minimum is always the global minimum.  FIFO stability is
  inherited from the entry tuples: same-time entries share a day,
  hence a container, and sort by sequence number.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import TYPE_CHECKING, Iterable, List, Optional, Protocol, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Event

__all__ = [
    "Entry",
    "Scheduler",
    "HeapScheduler",
    "CalendarQueueScheduler",
    "make_scheduler",
    "AUTO_CALENDAR_THRESHOLD",
]

Entry = Tuple[float, int, "Event"]

# Pending-event count at which the "auto" policy migrates the running
# simulator from the heap to the calendar queue.  Below this the C-level
# heap wins on constant factors; above it the heap's log-factor and
# cache misses dominate (see benchmarks/bench_sched_scale.py).
AUTO_CALENDAR_THRESHOLD = 1 << 16


class Scheduler(Protocol):
    """What the engine needs from a pending-event structure.

    Keep the ``push``/``pop`` names: ``perfbench/tracing.py`` wraps both
    methods of each scheduler class by name to count scheduler work.
    """

    name: str

    def push(self, entry: Entry) -> None: ...

    def pop(self) -> Optional[Entry]: ...

    def drain(self) -> List[Entry]: ...

    def __len__(self) -> int: ...


class HeapScheduler:
    """The classic ``heapq`` binary-heap scheduler."""

    name = "heap"

    __slots__ = ("_heap",)

    def __init__(self, entries: Optional[Iterable[Entry]] = None) -> None:
        self._heap: List[Entry] = list(entries) if entries is not None else []
        heapq.heapify(self._heap)

    def push(self, entry: Entry) -> None:
        heapq.heappush(self._heap, entry)

    def pop(self) -> Optional[Entry]:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)

    def drain(self) -> List[Entry]:
        out, self._heap = self._heap, []
        return out

    def __len__(self) -> int:
        return len(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HeapScheduler(pending={len(self._heap)})"


class CalendarQueueScheduler:
    """Calendar queue with a sorted front window; O(1) amortized ends.

    Day ``d`` covers times with ``int(t * inv_width) == d`` and files
    into bucket ``d % nbuckets``.  Buckets are append-only (unsorted,
    allocated lazily so a resize is one ``[None] * n``); the dequeue
    side maintains ``_front``, an ascending-sorted window of every
    entry with day ``<= _front_vmax``.  Pops read ``_front[_fpos]`` and
    advance the cursor — no memmove, no re-sort.  Pushes that land at
    or before the front boundary are insorted (C bisect + C insert on
    a ≲256-entry list).  When the cursor exhausts the window it is
    refilled by advancing the day cursor and draining whole days out of
    their buckets (sorting each visited bucket descending and peeling
    from the end — cheap, as timsort recognizes the descending run left
    by a previous visit) until ``FRONT_TARGET`` entries are buffered.

    The structure resizes (doubling / halving, re-deriving the width
    from the live time span) whenever the population drifts out of its
    per-bucket band, keeping both the day-scan and the intra-bucket
    sorts small.
    """

    name = "calendar"

    __slots__ = (
        "_buckets",
        "_nbuckets",
        "_mask",
        "_width",
        "_inv_width",
        "_size",
        "_front",
        "_fpos",
        "_front_vmax",
        "_last_time",
        "_grow_at",
        "_shrink_at",
        "_far",
        "resizes",
    )

    MIN_BUCKETS = 8
    MAX_BUCKETS = 1 << 22
    # Bucket-population band: grow when buckets would average more than
    # GROW_LOAD entries, shrink when the population falls to a quarter
    # of the bucket count (quarter, not half, so a population hovering
    # at a growth boundary cannot thrash grow/shrink on every op).
    # Refill drains days until FRONT_TARGET entries are buffered up
    # front.  Values picked by sweep on the 1M-pending hold benchmark
    # (benchmarks/bench_sched_scale.py); together with the year factor
    # in _resize they put ~16 entries in each active day so pushes stay
    # in a small working set and refills sort short, mostly-presorted
    # runs.
    GROW_LOAD = 1
    FRONT_TARGET = 256
    # Days a refill may walk before it settles for what it has (front
    # non-empty) or jumps straight to the earliest populated day (front
    # empty).  Without the cap a sparse tail behind a wide time gap
    # would have the scan crawl the gap day by day.
    SCAN_CAP = 64
    # Consumed-prefix length at which pop compacts the front window.
    COMPACT_AT = 512

    def __init__(
        self,
        entries: Optional[Iterable[Entry]] = None,
        width: float = 1.0,
        nbuckets: int = 8,
    ) -> None:
        if nbuckets < 1 or nbuckets & (nbuckets - 1):
            raise ValueError(f"nbuckets must be a power of two (got {nbuckets})")
        self._nbuckets = max(nbuckets, self.MIN_BUCKETS)
        self._mask = self._nbuckets - 1
        self._width = width
        self._inv_width = 1.0 / width
        # Lazily-allocated day buckets: None until first use, so that
        # resizing to millions of buckets is a flat [None] * n rather
        # than millions of list allocations.
        self._buckets: List[Optional[List[Entry]]] = [None] * self._nbuckets
        self._size = 0
        self._front: List[Entry] = []
        self._fpos = 0  # cursor: _front[_fpos:] are the live entries
        self._front_vmax = -1  # highest virtual day the front covers
        self._last_time = 0.0  # time of the last dequeued entry
        self._grow_at = self.GROW_LOAD * self._nbuckets
        self._shrink_at = (
            0 if self._nbuckets <= self.MIN_BUCKETS else self._nbuckets // 4
        )
        # Non-finite times (e.g. float('inf') sentinels) cannot be
        # day-mapped; they park here (ascending) and only pop when the
        # finite population is exhausted, which matches their ordering.
        self._far: List[Entry] = []
        self.resizes = 0
        if entries is not None:
            batch = list(entries)
            if len(batch) > self._nbuckets * self.GROW_LOAD:
                # Bulk build (e.g. auto-migration from the heap):
                # pre-size the bucket array and derive the width from
                # the batch's span up front, so the fill files each
                # entry exactly once instead of re-bucketing through
                # every doubling.
                self._presize(batch)
            for entry in batch:
                self.push(entry)

    def _presize(self, batch: List[Entry]) -> None:
        nbuckets = self.MIN_BUCKETS
        while nbuckets * self.GROW_LOAD < len(batch) and nbuckets < self.MAX_BUCKETS:
            nbuckets *= 2
        self._nbuckets = nbuckets
        self._mask = nbuckets - 1
        self._buckets = [None] * nbuckets
        self._grow_at = self.GROW_LOAD * nbuckets
        self._shrink_at = 0 if nbuckets <= self.MIN_BUCKETS else nbuckets // 4
        lo = hi = None
        for entry in batch:
            t = entry[0]
            if t - t == 0.0:  # finite (skips inf/nan bound for _far)
                if lo is None:
                    lo = hi = t
                elif t < lo:
                    lo = t
                elif t > hi:
                    hi = t
        if lo is not None and hi > lo:
            self._width = max((hi - lo) * 16.0 / nbuckets, 1e-12)
            self._inv_width = 1.0 / self._width
            self._front_vmax = int(lo * self._inv_width) - 1

    # ------------------------------------------------------------------
    def push(self, entry: Entry) -> None:
        try:
            vday = int(entry[0] * self._inv_width)
        except (OverflowError, ValueError):  # inf / nan time
            insort(self._far, entry)
            self._size += 1
            return
        if vday <= self._front_vmax:
            # At or before the front boundary (same-instant reschedule,
            # engine push-back, ...): must join the front window to
            # keep its minimum global.  C bisect + C insert on a small
            # list; only the not-yet-consumed tail is searched.
            insort(self._front, entry, self._fpos)
        else:
            idx = vday & self._mask
            bucket = self._buckets[idx]
            if bucket is None:
                self._buckets[idx] = [entry]
            else:
                bucket.append(entry)
        self._size += 1
        if self._size > self._grow_at:
            self._resize(self._nbuckets * 2)

    def pop(self) -> Optional[Entry]:
        front = self._front
        pos = self._fpos
        if pos >= self.COMPACT_AT:
            # Shed the consumed prefix so a steady push-pop regime
            # (which keeps the live window non-empty and never triggers
            # a refill) cannot grow the front without bound.  Amortized
            # O(1): each entry is deleted once.
            del front[:pos]
            pos = 0
            self._fpos = 0
        if pos >= len(front):
            if self._size == 0:
                return None
            self._refill()
            pos = 0
            if not front:
                # Only non-finite times remain.
                if self._far:
                    self._size -= 1
                    return self._far.pop(0)
                return None
        entry = front[pos]
        self._fpos = pos + 1
        self._size -= 1
        self._last_time = entry[0]
        if self._size < self._shrink_at:
            self._resize(self._nbuckets // 2)
        return entry

    def _refill(self) -> None:
        """Advance the day cursor, draining whole days into the front.

        Only called with the front window fully consumed.  On return
        the front holds every entry with day ``<= _front_vmax``
        (possibly none, if only non-finite times remain), ascending,
        with the cursor rewound.
        """
        buckets = self._buckets
        mask = self._mask
        inv_w = self._inv_width
        front = self._front
        front.clear()
        self._fpos = 0
        target = self.FRONT_TARGET
        cap = self.SCAN_CAP
        v = self._front_vmax + 1
        scanned = 0
        remaining = self._size - len(self._far)
        while len(front) < target and remaining > 0:
            if scanned >= cap:
                if front:
                    # Scanned far enough with entries in hand: don't
                    # walk (possibly distant) empty days just to top
                    # the buffer up.
                    break
                # A fruitless stretch: the population ahead is far
                # sparser than the current width.  Jump straight to the
                # earliest populated day instead of crawling the gap.
                # min() compares entry tuples at C speed, so the scan
                # is one truthiness test per bucket plus one C min per
                # non-empty bucket.
                jump = None
                for bucket in buckets:
                    if bucket:
                        m = min(bucket)
                        if jump is None or m < jump:
                            jump = m
                if jump is None:
                    break
                v = int(jump[0] * inv_w)
                scanned = 0
            bucket = buckets[v & mask]
            if bucket:
                # Re-sorting a previously-visited bucket is cheap:
                # timsort recognizes the existing ascending run in
                # O(k).
                bucket.sort()
                if int(bucket[-1][0] * inv_w) <= v:
                    # Whole bucket belongs to day v (no aliasing — the
                    # common case whenever the day range fits in the
                    # bucket array): drain it with C-level extend
                    # instead of re-mapping every entry.
                    front.extend(bucket)
                    remaining -= len(bucket)
                    bucket.clear()
                else:
                    # Aliased bucket: day-v entries form a prefix of
                    # the ascending sort; binary-search the cut so only
                    # O(log k) entries are re-mapped.
                    lo, hi = 0, len(bucket)
                    while lo < hi:
                        mid = (lo + hi) >> 1
                        if int(bucket[mid][0] * inv_w) <= v:
                            lo = mid + 1
                        else:
                            hi = mid
                    if lo:
                        front.extend(bucket[:lo])
                        del bucket[:lo]
                        remaining -= lo
            self._front_vmax = v
            v += 1
            scanned += 1
        # Days were visited in ascending order and each day drained
        # ascending (descending-sorted bucket peeled from the end), so
        # this is a presorted run — timsort verifies it in O(n).
        front.sort()

    def drain(self) -> List[Entry]:
        out: List[Entry] = []
        for bucket in self._buckets:
            if bucket:
                out.extend(bucket)
                bucket.clear()
        out.extend(self._front[self._fpos :])
        self._front.clear()
        self._fpos = 0
        out.extend(self._far)
        self._far.clear()
        self._size = 0
        return out

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------
    def _resize(self, nbuckets: int) -> None:
        nbuckets = max(self.MIN_BUCKETS, min(nbuckets, self.MAX_BUCKETS))
        if nbuckets == self._nbuckets:
            self._grow_at = self.GROW_LOAD * self._nbuckets
            self._shrink_at = (
                0 if self._nbuckets <= self.MIN_BUCKETS else self._nbuckets // 4
            )
            return
        entries: List[Entry] = []
        for bucket in self._buckets:
            if bucket:
                entries.extend(bucket)
        entries.extend(self._front[self._fpos :])
        self._front.clear()
        self._fpos = 0
        # Re-derive the width from the live time span.  min()/max()
        # compare entry tuples at C speed; the time is the leading
        # element, so the lexicographic extremes carry the time
        # extremes.
        n = len(entries)
        anchor = self._last_time
        if n:
            t = min(entries)[0]
            if t < anchor:
                anchor = t
        if n > 1:
            lo = anchor
            hi = max(entries)[0]
            if hi < lo:
                hi = lo
            span = hi - lo
            if span > 0.0:
                # A year covers ~16x the live span: active days carry a
                # handful of entries each and mixed-year buckets are
                # rare, so refill sorts stay short.
                self._width = max(span * 16.0 / nbuckets, 1e-12)
                self._inv_width = 1.0 / self._width
        self._nbuckets = nbuckets
        self._mask = nbuckets - 1
        self._grow_at = self.GROW_LOAD * nbuckets
        self._shrink_at = 0 if nbuckets <= self.MIN_BUCKETS else nbuckets // 4
        self._buckets = [None] * nbuckets
        buckets = self._buckets
        inv_w = self._inv_width
        mask = nbuckets - 1
        for entry in entries:
            idx = int(entry[0] * inv_w) & mask
            bucket = buckets[idx]
            if bucket is None:
                buckets[idx] = [entry]
            else:
                bucket.append(entry)
        self._size = n + len(self._far)
        # All entries are back in buckets, so the front must cover
        # nothing at or past the earliest pending day.  Anchoring on
        # the observed minimum (not just the last dispatch) keeps the
        # invariant even if a caller pushed before the dispatch
        # horizon.
        self._front_vmax = int(anchor * inv_w) - 1
        self.resizes += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CalendarQueueScheduler(pending={self._size}, "
            f"nbuckets={self._nbuckets}, width={self._width:.3g})"
        )


def make_scheduler(name: str) -> Scheduler:
    """Build a scheduler from a policy name (``heap`` or ``calendar``)."""
    if name == "heap":
        return HeapScheduler()
    if name == "calendar":
        return CalendarQueueScheduler()
    raise ValueError(f"unknown scheduler {name!r} (expected 'heap' or 'calendar')")
