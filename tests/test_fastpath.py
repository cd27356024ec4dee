"""Fast-path safety: packet recycling, event handles, live pending,
timer-jitter clamp accounting, and batched CBR generation.

The perf machinery must be invisible to simulation semantics:

* a recycled :class:`~repro.sim.packet.Packet` carries no stale header
  state (``mark``/``ttl``/``hops``/``payload``) and uid sequences are
  identical with and without the pool;
* ``Simulator.pending(live=True)`` tracks lazy cancellation exactly;
* jitter clamps in :class:`~repro.sim.engine.Timer` are counted on the
  simulator and the bound metrics registry;
* batched CBR sources emit the bit-identical packet schedule of the
  event-per-packet path.
"""

import random

import pytest

from repro.obs.registry import MetricsRegistry
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Host
from repro.sim.packet import Packet, PacketKind, PacketPool
from repro.traffic.sources import CBRSource


class TestPacketPool:
    def test_recycled_packet_has_no_stale_state(self):
        pool = PacketPool()
        pkt = pool.acquire(1, 2, 100, flow=("f", 1), payload=object())
        pkt.mark = 77
        pkt.ttl = 3
        pkt.hops = 9
        pool.release(pkt)
        again = pool.acquire(5, 6, 200)
        assert again is pkt  # actually recycled
        assert again.mark == 0
        assert again.ttl == 255
        assert again.hops == 0
        assert again.payload is None
        assert again.flow is None
        assert again.src == 5 and again.dst == 6 and again.size == 200
        assert again.true_src == 5

    def test_uid_sequence_identical_with_and_without_pool(self):
        pool = PacketPool()
        a = pool.acquire(1, 2, 10)
        first_uid = a.uid
        pool.release(a)
        b = pool.acquire(1, 2, 10)  # reused object, fresh uid
        c = Packet(1, 2, 10)
        assert b is a
        assert b.uid == first_uid + 1
        assert c.uid == first_uid + 2

    def test_release_is_idempotent(self):
        pool = PacketPool()
        pkt = pool.acquire(1, 2, 10)
        pool.release(pkt)
        pool.release(pkt)
        assert len(pool) == 1
        assert pool.recycled == 1

    def test_max_free_caps_retention(self):
        pool = PacketPool(max_free=2)
        pkts = [Packet(1, 2, 10) for _ in range(4)]
        for p in pkts:
            pool.release(p)
        assert len(pool) == 2

    def test_stats_shape(self):
        pool = PacketPool()
        pool.release(pool.acquire(1, 2, 10))
        pool.acquire(1, 2, 10)
        s = pool.stats()
        assert s == {"created": 1, "reused": 1, "recycled": 1, "free": 0}


class TestPoolEndpoints:
    def _net(self, pool, qlimit=50):
        sim = Simulator(packet_pool=pool)
        a, b = Host(sim, 1), Host(sim, 2)
        Link(sim, a, b, bandwidth_bps=8e6, delay=0.001, queue_limit=qlimit)
        a.routes[2] = a.out_channels[0]
        return sim, a, b

    def test_host_delivery_releases_data_packets(self):
        pool = PacketPool()
        sim, a, b = self._net(pool)
        seen = []
        b.on_deliver(lambda p: seen.append((p.uid, p.src, p.size)))
        a.originate(pool.acquire(1, 2, 100, created_at=sim.now))
        sim.run()
        assert len(seen) == 1 and seen[0][1:] == (1, 100)
        assert pool.recycled == 1 and len(pool) == 1

    def test_control_packets_not_released(self):
        pool = PacketPool()
        sim, a, b = self._net(pool)
        pkt = pool.acquire(1, 2, 64, kind=PacketKind.CONTROL)
        a.originate(pkt)
        sim.run()
        assert pool.recycled == 0
        assert not pkt._in_pool  # payload may outlive delivery

    def test_tail_drop_releases_packet(self):
        pool = PacketPool()
        # 8 kb/s: each 100 B packet serializes for 0.1 s, so back-to-back
        # sends overflow a 1-packet queue immediately.
        sim = Simulator(packet_pool=pool)
        a, b = Host(sim, 1), Host(sim, 2)
        Link(sim, a, b, bandwidth_bps=8e3, delay=0.001, queue_limit=1)
        a.routes[2] = a.out_channels[0]
        ch = a.out_channels[0]
        sent = [pool.acquire(1, 2, 100) for _ in range(4)]
        results = [ch.send(p) for p in sent]
        assert results == [True, True, False, False]
        assert pool.recycled == 2  # the two tail-dropped packets
        sim.run()
        assert ch.packets_dropped == 2

    def test_delivery_consumers_see_valid_fields_under_recycling(self):
        """Heavy recycling: every delivered packet carries exactly the
        fields its source set — no leakage from previous lives."""
        pool = PacketPool(max_free=4)
        sim, a, b = self._net(pool)
        seen = []
        b.on_deliver(lambda p: seen.append((p.src, p.dst, p.size, p.mark, p.hops)))
        rng = random.Random(9)
        src = CBRSource(sim, a, dst=2, rate_bps=8e5, packet_size=100,
                        jitter=0.2, rng=rng)
        src.start()
        sim.run(until=1.0)
        assert len(seen) > 100
        assert all(s == (1, 2, 100, 0, 1) for s in seen)
        assert pool.reused > 0


class TestLivePending:
    def test_live_counter_tracks_lazy_cancellation(self):
        sim = Simulator(scheduler="heap")
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert sim.pending() == 5
        assert sim.pending(live=True) == 5
        events[0].cancel()
        events[3].cancel()
        # Lazily cancelled entries still occupy the scheduler...
        assert sim.pending() == 5
        # ...but the live count excludes them.
        assert sim.pending(live=True) == 3
        events[0].cancel()  # double-cancel must not double-decrement
        assert sim.pending(live=True) == 3
        sim.run()
        assert sim.pending() == 0
        assert sim.pending(live=True) == 0
        assert sim.events_processed == 3

    def test_live_pending_journaled_at_run_start(self):
        from repro.obs import Telemetry

        sim = Simulator()
        telemetry = Telemetry(sim)
        ev = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        ev.cancel()
        sim.run()
        starts = [e for e in telemetry.journal.to_dicts()
                  if e["name"] == "sim_run_start"]
        assert starts[0]["attrs"]["pending"] == 1


class TestTimerJitterClamp:
    def test_clamp_counts_on_sim_and_registry(self):
        sim = Simulator()
        sim.metrics = MetricsRegistry()
        fired = []
        sim.every(1.0, lambda: fired.append(sim.now), jitter_fn=lambda: -50.0)
        sim.run(until=3.5)
        # Every arming clamps (jitter pulls far below the nominal time),
        # and the clamp lands on the nominal time, not on `now`.
        assert fired == [1.0, 2.0, 3.0]
        assert sim.timer_jitter_clamps == 4  # 3 firings + the pending arm
        assert sim.metrics.counter("timer_jitter_clamped").value == 4

    def test_no_clamp_without_jitter(self):
        sim = Simulator()
        sim.every(1.0, lambda: None)
        sim.run(until=2.5)
        assert sim.timer_jitter_clamps == 0


class TestEventHandles:
    def test_fired_handle_is_never_reissued(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run(until=1.5)
        first.cancel()  # after fire: a no-op on the live count
        assert sim.pending(live=True) == 1
        later = [sim.schedule(1.0, lambda: None) for _ in range(3)]
        assert all(ev is not first for ev in later)
        assert sim.pending(live=True) == 4
        sim.run()
        assert sim.events_processed == 5

    def test_timer_self_cancel_during_fire_is_safe(self):
        sim = Simulator()
        fired = []
        timer = sim.every(1.0, lambda: (fired.append(sim.now), timer.cancel()))
        sim.run(until=10.0)
        assert fired == [1.0]


class TestBatchedCBR:
    def _times(self, batch, scheduler="heap", jitter=0.25):
        sim = Simulator(scheduler=scheduler)
        host = Host(sim, 1)
        out = []
        host.on_deliver(lambda p: out.append(sim.now))
        src = CBRSource(sim, host, dst=1, rate_bps=8e5, packet_size=100,
                        jitter=jitter, rng=random.Random(7), batch=batch)
        src.start()
        sim.run(until=2.0)
        return out, src.packets_sent

    def test_batched_schedule_bit_identical(self):
        base, n = self._times(1)
        for batch in (2, 8, 64):
            for scheduler in ("heap", "calendar"):
                got, m = self._times(batch, scheduler)
                assert got == base
                assert m == n

    def test_stop_cancels_pending_batch(self):
        sim = Simulator()
        host = Host(sim, 1)
        src = CBRSource(sim, host, dst=1, rate_bps=8e5, packet_size=100, batch=16)
        src.start()
        sim.run(until=0.005)
        sent = src.packets_sent
        src.stop()
        sim.run(until=1.0)
        assert src.packets_sent == sent
        src.start()  # restart re-enters the batch path cleanly
        sim.run(until=2.0)
        assert src.packets_sent > sent

    def test_batch_env_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_CBR_BATCH", "8")
        sim = Simulator()
        src = CBRSource(sim, Host(sim, 1), dst=1, rate_bps=8e5)
        assert src.batch == 8

    def test_invalid_batch_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            CBRSource(sim, Host(sim, 1), dst=1, rate_bps=8e5, batch=0)
