"""Discrete-event simulation engine.

A minimal, fast event scheduler in the style of ns-2's event loop.
Pending events are ``(time, sequence, Event)`` entries in a pluggable
scheduler structure (see :mod:`repro.sim.scheduler`): the classic
binary heap, or a calendar queue for very large event populations.
The sequence number breaks ties FIFO so that events scheduled for the
same instant fire in the order they were scheduled, which keeps
simulations deterministic — and because entries order totally, every
scheduler dispatches the *identical* event sequence, a property the
causal journal verifies end-to-end (``repro replay --check``).

Scheduler selection (``Simulator(scheduler=...)``):

* ``"heap"`` / ``"calendar"`` — force one structure;
* ``"auto"`` (default) — start on the heap, migrate once to the
  calendar queue if the live pending population ever exceeds
  :data:`~repro.sim.scheduler.AUTO_CALENDAR_THRESHOLD`;
* a scheduler instance — use it as-is.

The ``REPRO_SCHEDULER`` environment variable supplies the default
policy when the constructor argument is omitted.

The engine is deliberately callback-based (no generator processes): the
paper's workloads are packet-level CBR flows and timer-driven control
protocols, for which callbacks are both faster and simpler than a
process abstraction.  Helper classes (:class:`Timer`,
:func:`Simulator.every`) cover the recurring-timer patterns the defense
protocols need.

Allocation relief: dispatched :class:`Event` objects are recycled
through a per-simulator freelist of at most ``_FREELIST_MAX`` entries.
The contract is that an Event handle is only meaningful until its
callback has run — cancelling after that is a no-op on the handle, but
holders must drop fired-event references promptly (every in-tree holder
reassigns or clears on fire) because the object may be reissued by a
later ``schedule()``.

:meth:`Simulator.run` is the single dispatch loop.  Observers — the
engine profiler, the live streamer, per-event attribution — are picked
once at ``run()`` entry, so an unobserved run pays only for the loop.
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, Optional, Sequence, Union

from .scheduler import (
    AUTO_CALENDAR_THRESHOLD,
    CalendarQueueScheduler,
    HeapScheduler,
    Scheduler,
)

__all__ = [
    "Event",
    "Simulator",
    "Timer",
    "SimulationError",
]

# Cap on recycled Event objects kept per simulator; bounds memory after
# a scheduling burst while still absorbing the steady-state churn.
_FREELIST_MAX = 8192


class SimulationError(RuntimeError):
    """Raised for scheduling errors (e.g. scheduling in the past)."""


def _retired() -> None:  # pragma: no cover - placeholder callback
    """Callback parked on freelist events so a stale fire is harmless."""


class Event:
    """A scheduled callback.  Returned by :meth:`Simulator.schedule`.

    Cancellation is lazy: a cancelled event stays in the scheduler but
    is skipped when popped.  This is O(1) and is the standard trick for
    heap-based schedulers; the engine keeps a separate live counter so
    :meth:`Simulator.pending` can still report the true pending count.

    A handle is valid until its callback runs; after that ``cancel()``
    is a no-op and the object may be recycled for a later ``schedule()``
    call, so holders must not retain fired-event references.
    """

    __slots__ = ("time", "fn", "args", "cancelled", "_queued", "_sim")

    def __init__(self, time: float, fn: Callable[..., Any], args: tuple) -> None:
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self._queued = False
        self._sim: Optional["Simulator"] = None

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired)."""
        if self.cancelled or not self._queued:
            self.cancelled = True
            return
        self.cancelled = True
        sim = self._sim
        if sim is not None:
            sim._live -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"Event(t={self.time:.6f}, fn={name}, {state})"


class Simulator:
    """Event-driven simulator clock and scheduler.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    >>> sim.now
    1.5
    """

    def __init__(
        self,
        scheduler: Union[str, Scheduler, None] = None,
        packet_pool: Union[bool, Any, None] = None,
    ) -> None:
        self.now: float = 0.0
        self._seq: int = 0
        self._running = False
        self._stopped = False
        self.events_processed: int = 0
        # Live (non-cancelled) pending events; see pending(live=True).
        self._live: int = 0
        # Self-profiling (repro.obs.EngineProfiler.attach sets this):
        # run() arms its profiler observers when one is attached.
        self.profiler: Optional[Any] = None
        # Flight recorder (repro.obs.Telemetry.bind sets this): run()
        # brackets each invocation with sim_run_start/sim_run_end
        # journal events.  None costs a single attribute test per run.
        self.journal: Optional[Any] = None
        # Metrics registry (repro.obs.Telemetry.bind sets this); used
        # for low-rate operational counters such as timer_jitter_clamped.
        self.metrics: Optional[Any] = None
        # Live streamer (repro.obs.stream.TelemetryStreamer.attach sets
        # this): run() pulses it at stride boundaries.
        # Snapshots only read engine state — never schedule events —
        # so the journal is identical with or without a stream.
        self.stream: Optional[Any] = None
        self.timer_jitter_clamps: int = 0

        if scheduler is None:
            scheduler = os.environ.get("REPRO_SCHEDULER") or "auto"
        if isinstance(scheduler, str):
            policy = scheduler.strip().lower()
            if policy == "calendar":
                self._sched: Scheduler = CalendarQueueScheduler()
            elif policy in ("auto", "heap"):
                self._sched = HeapScheduler()
            else:
                raise SimulationError(
                    f"unknown scheduler policy {scheduler!r} "
                    "(expected 'auto', 'heap' or 'calendar')"
                )
            self._auto = policy == "auto"
        else:
            self._sched = scheduler
            policy = getattr(scheduler, "name", "custom")
            self._auto = False
        self.scheduler_policy: str = policy

        # Event freelist (allocation relief on the hot path).
        self._free: List[Event] = []

        # Optional packet recycling pool (repro.sim.packet.PacketPool).
        # Off by default: consumers that retain packet references past
        # delivery must copy (borrow-only contract, see packet.py).
        if packet_pool is None:
            packet_pool = os.environ.get("REPRO_PACKET_POOL", "") in (
                "1",
                "true",
                "yes",
            )
        if isinstance(packet_pool, bool):
            if packet_pool:
                from .packet import PacketPool

                self.packet_pool: Optional[Any] = PacketPool()
            else:
                self.packet_pool = None
        else:
            self.packet_pool = packet_pool

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    @property
    def scheduler_name(self) -> str:
        """Name of the scheduler structure currently in use."""
        return getattr(self._sched, "name", "custom")

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulation time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self.now}"
            )
        free = self._free
        if free:
            ev = free.pop()
            ev.time = time
            ev.fn = fn
            ev.args = args
            ev.cancelled = False
        else:
            ev = Event(time, fn, args)
        ev._queued = True
        ev._sim = self
        self._seq += 1
        self._sched.push((time, self._seq, ev))
        self._live += 1
        if self._auto and self._live > AUTO_CALENDAR_THRESHOLD:
            self._migrate_to_calendar()
        return ev

    def schedule_many(
        self, times: Sequence[float], fn: Callable[..., Any], *args: Any
    ) -> List[Event]:
        """Bulk-schedule ``fn(*args)`` at each absolute time in ``times``.

        Equivalent to ``[schedule_at(t, fn, *args) for t in times]`` —
        same sequence numbers, same dispatch order — with the validation
        and attribute traffic amortized over the batch (used by the
        batched CBR fast path).
        """
        now = self.now
        sched = self._sched
        free = self._free
        seq = self._seq
        out: List[Event] = []
        try:
            for time in times:
                if time < now:
                    raise SimulationError(
                        f"cannot schedule at t={time} before current time t={now}"
                    )
                if free:
                    ev = free.pop()
                    ev.time = time
                    ev.fn = fn
                    ev.args = args
                    ev.cancelled = False
                else:
                    ev = Event(time, fn, args)
                ev._queued = True
                ev._sim = self
                seq += 1
                sched.push((time, seq, ev))
                out.append(ev)
        finally:
            self._seq = seq
            self._live += len(out)
        if self._auto and self._live > AUTO_CALENDAR_THRESHOLD:
            self._migrate_to_calendar()
        return out

    def _migrate_to_calendar(self) -> None:
        """One-shot auto migration heap -> calendar queue."""
        self._auto = False
        self._sched = CalendarQueueScheduler(self._sched.drain())

    def every(
        self,
        interval: float,
        fn: Callable[..., Any],
        *args: Any,
        start: Optional[float] = None,
        jitter_fn: Optional[Callable[[], float]] = None,
    ) -> "Timer":
        """Run ``fn(*args)`` every ``interval`` seconds until cancelled.

        ``start`` is the absolute time of the first firing (defaults to
        ``now + interval``).  ``jitter_fn``, if given, is called before
        each firing and its return value is added to the nominal delay —
        used e.g. to de-synchronize periodic control loops.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive (got {interval})")
        timer = Timer(self, interval, fn, args, jitter_fn)
        first = (self.now + interval) if start is None else start
        timer._arm(first)
        return timer

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Process events in time order.

        Runs until the scheduler is empty, or until the clock would pass
        ``until`` (the clock is then advanced to exactly ``until``).

        This is the engine's only dispatch loop.  Observers are chosen
        once, here at entry: an attached profiler (heap high-water mark,
        per-run wall time) and/or live streamer (pulsed once per
        ``check_stride`` dispatched events) sit behind one ``watch``
        test after each callback, and the profiler's per-event
        dimensional attribution, when enabled, wraps the callback itself
        (:meth:`repro.obs.profile.EngineProfiler.attributor`).  With no
        observer attached the loop pays two local tests per event.
        Observers only read engine state, so the journal is
        byte-identical with any combination of them.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        journal = self.journal
        if journal is not None:
            before = self.events_processed
            journal.record("sim_run_start", pending=self._live)
        prof = self.profiler
        stream = self.stream
        watch = prof is not None or stream is not None
        attribute = (
            prof.attributor() if prof is not None and prof.dims is not None else None
        )
        pulse = stream.pulse if stream is not None else None
        # Stream pulse cadence: the pulse fires when `processed` is a
        # multiple of the stream's power-of-two check stride.
        smask = stream.check_mask if stream is not None else 0
        sbase = self.events_processed
        hwm = self._live
        sim_start = self.now
        if prof is not None:
            # reprolint: ignore[RPL002] -- self-profiling measures real
            # wall time for repro.obs; it never feeds back into simulated
            # state
            from time import perf_counter

            wall_start = perf_counter()  # reprolint: ignore[RPL002] -- profiler
        self._running = True
        self._stopped = False
        free = self._free
        free_max = _FREELIST_MAX  # a local: read on every dispatch
        # Sentinel instead of a per-event None test; time > inf is never
        # true, so the untimed loop pays one float compare.
        limit = float("inf") if until is None else until
        processed = 0
        try:
            while True:
                sched = self._sched
                entry = sched.pop()
                if entry is None:
                    break
                time = entry[0]
                if time > limit:
                    sched.push(entry)
                    break
                ev = entry[2]
                ev._queued = False
                if ev.cancelled:
                    if len(free) < free_max:
                        ev.fn = _retired
                        ev.args = ()
                        free.append(ev)
                    continue
                self._live -= 1
                self.now = time
                if attribute is not None:
                    attribute(ev.fn, ev.args)
                else:
                    ev.fn(*ev.args)
                processed += 1
                # Retire only after the callback returns: a callback may
                # legitimately cancel the very event that is firing (a
                # timer cancelling itself), which must see _queued=False
                # on this object, not on a recycled successor.
                if len(free) < free_max:
                    ev.fn = _retired
                    ev.args = ()
                    free.append(ev)
                if watch:
                    # _live here is the pending population the next
                    # iteration starts from, i.e. its high-water sample.
                    if self._live > hwm:
                        hwm = self._live
                    if pulse is not None and (processed & smask) == 0:
                        pulse(self, sbase + processed)
                if self._stopped:
                    break
            if until is not None and not self._stopped and self.now < until:
                self.now = until
        finally:
            self._running = False
            self.events_processed += processed
            if prof is not None:
                prof.note_heap(hwm)
                prof.record_run(
                    processed,
                    perf_counter() - wall_start,  # reprolint: ignore[RPL002]
                    self.now - sim_start,
                )
        if journal is not None:
            journal.record(
                "sim_run_end", events=self.events_processed - before
            )

    def stop(self) -> None:
        """Stop :meth:`run` after the current event returns."""
        self._stopped = True

    def pending(self, live: bool = False) -> int:
        """Number of pending events.

        With ``live=False`` (default) this counts scheduler entries,
        including lazily-cancelled ones still awaiting their skip-pop;
        ``live=True`` counts only events that will actually fire.
        """
        if live:
            return self._live
        return len(self._sched)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulator(now={self.now:.6f}, pending={len(self._sched)}, "
            f"live={self._live}, scheduler={self.scheduler_name})"
        )


class Timer:
    """A recurring timer created by :meth:`Simulator.every`."""

    __slots__ = ("sim", "interval", "fn", "args", "jitter_fn", "_event", "cancelled")

    def __init__(
        self,
        sim: Simulator,
        interval: float,
        fn: Callable[..., Any],
        args: tuple,
        jitter_fn: Optional[Callable[[], float]],
    ) -> None:
        self.sim = sim
        self.interval = interval
        self.fn = fn
        self.args = args
        self.jitter_fn = jitter_fn
        self._event: Optional[Event] = None
        self.cancelled = False

    def _arm(self, at: float) -> None:
        sim = self.sim
        # The nominal firing time never lies in the past.
        floor = at if at > sim.now else sim.now
        if self.jitter_fn is not None:
            at = at + self.jitter_fn()
            if at < floor:
                # A too-negative jitter draw is clamped to the *nominal*
                # time, not to `now`: clamping to `now` silently
                # coalesced firings onto the current instant and hid the
                # de-sync misconfiguration.  The clamp is counted so it
                # stays visible.
                at = floor
                sim.timer_jitter_clamps += 1
                metrics = sim.metrics
                if metrics is not None:
                    metrics.counter("timer_jitter_clamped").inc()
        else:
            at = floor
        self._event = sim.schedule_at(at, self._fire)

    def _fire(self) -> None:
        # Drop the fired-event handle immediately: the engine may
        # recycle the object, so a later cancel() must not reach it.
        self._event = None
        if self.cancelled:
            return
        self.fn(*self.args)
        if not self.cancelled:
            self._arm(self.sim.now + self.interval)

    def cancel(self) -> None:
        """Stop the timer; any armed firing is cancelled."""
        self.cancelled = True
        if self._event is not None:
            self._event.cancel()
            self._event = None
