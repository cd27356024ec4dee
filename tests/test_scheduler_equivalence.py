"""Scheduler equivalence: heap and calendar dispatch identically.

The engine's determinism story rests on total ordering of ``(time,
seq)`` entries: any scheduler that pops entries in that order produces
the *identical* simulation.  These tests verify the property three
ways:

* a hypothesis property over random schedule / cancel / run-until
  interleavings, comparing the full dispatch order across schedulers;
* a deterministic structure-level fuzz over mixed time magnitudes
  (including ``inf``, which the calendar queue routes to an overflow
  list) with interleaved pushes and pops;
* a golden end-to-end check: the same tree scenario run under heap and
  calendar produces byte-identical causal journals (the witness that
  ``repro replay --check`` uses in CI).
"""

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulator
from repro.sim.scheduler import (
    AUTO_CALENDAR_THRESHOLD,
    CalendarQueueScheduler,
    HeapScheduler,
    make_scheduler,
)

SCHEDULERS = ("heap", "calendar")


def _drive(scheduler, delays, cancel_idx, segments):
    """Run one op script on a fresh simulator; return the dispatch log."""
    sim = Simulator(scheduler=scheduler)
    log = []
    events = []
    for i, d in enumerate(delays):
        events.append(sim.schedule(d, lambda i=i: log.append((sim.now, i))))
    for i in cancel_idx:
        events[i % len(events)].cancel()
    for until in segments:
        sim.run(until=until)
    sim.run()
    return log


@settings(max_examples=60, deadline=None)
@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=60,
    ),
    cancel_idx=st.lists(st.integers(min_value=0, max_value=1000), max_size=20),
    segments=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=4
    ),
)
def test_dispatch_order_identical_across_schedulers(delays, cancel_idx, segments):
    segments = sorted(segments)
    logs = [_drive(s, delays, cancel_idx, segments) for s in SCHEDULERS]
    assert logs[0] == logs[1]


@settings(max_examples=30, deadline=None)
@given(
    delays=st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=40,
    )
)
def test_reschedule_during_run_identical(delays):
    """Events scheduled from inside callbacks dispatch identically."""

    def drive(scheduler):
        sim = Simulator(scheduler=scheduler)
        log = []

        def chain(depth, label):
            log.append((sim.now, label))
            if depth > 0:
                sim.schedule(delays[label % len(delays)], chain, depth - 1, label + 1)

        for i, d in enumerate(delays):
            sim.schedule(d, chain, 3, i)
        sim.run()
        return log

    logs = [drive(s) for s in SCHEDULERS]
    assert logs[0] == logs[1]


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_bare_and_event_entries_fire_in_scheduling_order(scheduler):
    """Bare entries and Event handles draw from one sequence counter:
    at one instant they fire in the order they were scheduled, and a
    cancelled handle between them is skipped without reordering."""
    sim = Simulator(scheduler=scheduler)
    log = []

    def spawn(_):
        # Scheduled from inside a callback at the instant it fires.
        sim._post(sim.now, log.append, "b-now")
        sim.schedule(0.0, log.append, "e-now")

    sim.schedule(1.0, log.append, "e0")
    sim._post(1.0, log.append, "b1")
    sim.schedule_at(1.0, log.append, "x").cancel()
    sim.schedule_many([1.0], log.append, "e2")
    sim._post(1.0, spawn, None)
    sim.schedule_at(1.0, log.append, "e3")
    sim._post(1.0, log.append, "b4")
    sim.run()
    assert log == ["e0", "b1", "e2", "e3", "b4", "b-now", "e-now"]
    assert sim.events_processed == 8


def test_structure_fuzz_mixed_magnitudes():
    """Direct scheduler-level fuzz: interleaved push/pop, times spanning
    ten orders of magnitude plus inf, full-drain equality."""

    class _Stub:
        cancelled = False

    for trial in range(6):
        rng = random.Random(1000 + trial)
        heap, cal = HeapScheduler(), CalendarQueueScheduler()
        scales = [1e-3, 1.0, 50.0, 1e5]
        seq = 0
        pushed = 0
        popped = 0
        drained = []
        for _ in range(2000):
            if rng.random() < 0.65:
                t = rng.random() * rng.choice(scales)
                if rng.random() < 0.01:
                    t = float("inf")
                seq += 1
                entry = (t, seq, _Stub())
                heap.push(entry)
                cal.push(entry)
                pushed += 1
            else:
                a, b = heap.pop(), cal.pop()
                assert a is b or (a is None and b is None), (trial, a, b)
                if a is not None:
                    popped += 1
        while True:
            a, b = heap.pop(), cal.pop()
            assert a is b or (a is None and b is None), (trial, a, b)
            if a is None:
                break
            drained.append(a)
        # The final drain (no interleaved pushes) comes out in order,
        # and nothing was lost or duplicated along the way.
        assert drained == sorted(drained, key=lambda e: (e[0], e[1]))
        assert popped + len(drained) == pushed


def test_make_scheduler_and_policy_names():
    assert isinstance(make_scheduler("heap"), HeapScheduler)
    assert isinstance(make_scheduler("calendar"), CalendarQueueScheduler)
    assert Simulator(scheduler="heap").scheduler_name == "heap"
    assert Simulator(scheduler="calendar").scheduler_name == "calendar"


def test_auto_policy_migrates_to_calendar():
    sim = Simulator(scheduler="auto")
    assert sim.scheduler_name == "heap"
    n = AUTO_CALENDAR_THRESHOLD + 1
    sim.schedule_many([float(i) for i in range(n)], lambda: None)
    assert sim.scheduler_name == "calendar"
    assert sim.pending(live=True) == n
    sim.run()
    assert sim.events_processed == n


def test_env_var_selects_scheduler(monkeypatch):
    monkeypatch.setenv("REPRO_SCHEDULER", "calendar")
    assert Simulator().scheduler_name == "calendar"
    monkeypatch.setenv("REPRO_SCHEDULER", "heap")
    assert Simulator().scheduler_name == "heap"


def _journal_bytes(scheduler):
    from repro.experiments.scenarios import TreeScenarioParams, run_tree_scenario
    from repro.obs import Telemetry

    params = TreeScenarioParams(
        n_leaves=20,
        n_attackers=5,
        duration=20.0,
        attack_start=5.0,
        attack_end=15.0,
        seed=3,
        scheduler=scheduler,
    )
    telemetry = Telemetry()
    result = run_tree_scenario(params, telemetry=telemetry)
    lines = [
        json.dumps(e, sort_keys=True) for e in telemetry.journal.to_dicts()
    ]
    return "\n".join(lines), result


def test_golden_scenario_journal_identical():
    """The tree scenario's causal journal is byte-identical under heap
    and calendar scheduling — the equivalence witness the CI perf-smoke
    step checks with ``repro replay --check``."""
    (jh, rh), (jc, rc) = (_journal_bytes(s) for s in SCHEDULERS)
    assert jh == jc
    assert rh.legit_pct == rc.legit_pct
    assert rh.attack_pct == rc.attack_pct
    assert rh.capture_times == rc.capture_times
    assert rh.events_processed == rc.events_processed
