"""Tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, fired.append, "c")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_fifo(self):
        sim = Simulator()
        fired = []
        for tag in "abcde":
            sim.schedule(1.0, fired.append, tag)
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        sim.schedule(2.5, lambda: None)
        sim.run()
        assert sim.now == 2.5

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(4.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [4.0]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    def test_bare_entry_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim._post(1.0, lambda _: None, None)
        assert sim.pending(live=True) == 0

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []

        def first():
            sim.schedule(1.0, fired.append, "second")

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["second"]
        assert sim.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, fired.append, "x")
        ev.cancel()
        sim.run()
        assert fired == []

    def test_cancel_mid_run(self):
        sim = Simulator()
        fired = []
        later = sim.schedule(2.0, fired.append, "later")
        sim.schedule(1.0, later.cancel)
        sim.run()
        assert fired == []


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(5.0, fired.append, "b")
        sim.run(until=3.0)
        assert fired == ["a"]
        assert sim.now == 3.0
        sim.run()
        assert fired == ["a", "b"]

    def test_run_until_advances_clock_when_no_events(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_stop_aborts_processing(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: (fired.append("a"), sim.stop()))
        sim.schedule(2.0, fired.append, "b")
        sim.run()
        assert fired == ["a"]

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestTimer:
    def test_periodic_firings(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now))
        sim.run(until=5.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_timer_cancel_stops_firings(self):
        sim = Simulator()
        ticks = []
        timer = sim.every(1.0, lambda: ticks.append(sim.now))
        sim.schedule(2.5, timer.cancel)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_timer_with_custom_start(self):
        sim = Simulator()
        ticks = []
        sim.every(2.0, lambda: ticks.append(sim.now), start=1.0)
        sim.run(until=6.0)
        assert ticks == [1.0, 3.0, 5.0]

    def test_timer_jitter_applied(self):
        sim = Simulator()
        ticks = []
        sim.every(1.0, lambda: ticks.append(sim.now), jitter_fn=lambda: 0.25)
        sim.run(until=3.0)
        # Each arming adds 0.25 to the nominal next time.
        assert ticks == pytest.approx([1.25, 2.5])

    def test_nonpositive_interval_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda: None)


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_property_events_always_fire_in_nondecreasing_time(delays):
    sim = Simulator()
    seen = []
    for d in delays:
        sim.schedule(d, lambda: seen.append(sim.now))
    sim.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)


OBSERVERS = ("none", "profiler", "dimensions", "streamer")


def _observe(sim, observers, tmp_path):
    """Arm one observer configuration of ``Simulator.run`` on ``sim``."""
    from repro.obs import Telemetry
    from repro.obs.profile import EngineProfiler
    from repro.obs.stream import StreamConfig, TelemetryStreamer

    if observers in ("profiler", "dimensions"):
        prof = EngineProfiler().attach(sim)
        if observers == "dimensions":
            prof.enable_dimensions()
        return prof
    if observers == "streamer":
        config = StreamConfig(
            str(tmp_path / "s.jsonl"), interval=0.5, wall_cap=None, check_stride=1
        )
        return TelemetryStreamer(Telemetry(), config).attach(sim)
    return None


def _exercise(sim):
    """Drive every loop path; return what an observer must not change."""
    out = {}
    log = []
    doomed = sim.schedule(0.5, log.append, "doomed")
    doomed.cancel()

    def burst():
        log.append(("burst", sim.now))
        for i in range(5):
            if i % 2:  # the uncancellable bare-entry path
                sim._post(sim.now + 0.1 * (i + 1), log.append, ("b", i))
            else:
                sim.schedule(0.1 * (i + 1), log.append, ("b", i))

    fired = sim.schedule(1.0, burst)
    holder = []
    holder.append(
        sim.every(0.75, lambda: (log.append(("tick", sim.now)), holder[0].cancel()))
    )
    sim.schedule(5.0, log.append, "late")
    sim.run(until=3.0)
    out["until"] = (sim.now, sim.pending(live=True), sim.pending(), sim.events_processed)
    # Cancelling a handle after it fired leaves the live count alone.
    fired.cancel()
    out["cancel_after_fire"] = sim.pending(live=True)
    later = [
        sim.schedule(1.0, lambda: (log.append("stop"), sim.stop())),
        sim.schedule(1.0, log.append, "after-stop"),
    ]
    # Handles are never reissued: neither the skipped nor the fired one.
    out["reissued"] = any(ev is old for ev in later for old in (doomed, fired))
    sim.run()
    out["stop"] = (sim.now, sim.pending(live=True), sim.events_processed)
    sim.run()
    out["drain"] = (sim.now, sim.pending(live=True), sim.events_processed)
    out["log"] = log
    return out


class TestSingleLoopObservers:
    """``Simulator.run`` is the only dispatch loop: every observer
    configuration must see identical dispatch semantics."""

    @pytest.mark.parametrize("observers", OBSERVERS)
    def test_observers_do_not_change_dispatch(self, observers, tmp_path):
        baseline = _exercise(Simulator())
        sim = Simulator()
        observer = _observe(sim, observers, tmp_path)
        assert _exercise(sim) == baseline
        assert baseline["until"] == (3.0, 1, 1, 7)
        assert baseline["cancel_after_fire"] == 1
        assert not baseline["reissued"]
        assert baseline["stop"] == (4.0, 2, 8)
        assert baseline["drain"] == (5.0, 0, 10)
        assert baseline["log"][:2] == [("tick", 0.75), ("burst", 1.0)]
        assert "doomed" not in baseline["log"]
        if observers in ("profiler", "dimensions"):
            # Two pending at entry, then the burst callback leaves five
            # deliveries plus the late event queued: six live.
            assert observer.heap_hwm == 6
            assert observer.events == 10 and observer.runs == 3
        if observers == "dimensions":
            assert sum(cell[0] for cell in observer.dims.values()) == 10
        if observers == "streamer":
            assert observer.snapshots > 0
            observer.close()
