"""Links: bandwidth + propagation delay + drop-tail buffering.

A :class:`Link` is full-duplex and is modeled as two independent
simplex :class:`Channel`s, as in ns-2's duplex-link.  Each channel
serializes packets at its bandwidth, holds packets awaiting
transmission in a drop-tail queue, and delivers each packet to the far
node one propagation delay after its last bit is sent.

This module is the simulator's hot path; it avoids allocation beyond
the unavoidable scheduler entries.  An idle channel takes the *fused*
path: one event at ``now + tx_time + delay`` performs the send
accounting and the delivery together, replacing the classic
``_tx_done -> _deliver`` two-event chain.  The chain is only needed
when the queue has backlog to drain, because that is the only case
where something has to happen at the end of serialization (start the
next transmission) distinct from the delivery instant.  Send/byte
counters are then updated at delivery time rather than at
end-of-serialization — at most ``delay`` seconds later than the classic
path, which is well inside every consumer's observation interval (the
pushback/defense review timers sample at 100ms+).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from .engine import Simulator
from .packet import Packet
from .queues import DropTailQueue

if TYPE_CHECKING:  # pragma: no cover
    from .node import Node

__all__ = ["Channel", "Link"]


class Channel:
    """Simplex channel from ``src`` to ``dst``.

    Parameters
    ----------
    bandwidth_bps:
        Transmission rate in bits per second.
    delay:
        Propagation delay in seconds.
    queue_limit:
        Drop-tail buffer size in packets (awaiting transmission).
    """

    __slots__ = (
        "sim",
        "src",
        "dst",
        "bandwidth_bps",
        "delay",
        "queue",
        "_busy_until",
        "_draining",
        "packets_sent",
        "bytes_sent",
        "packets_dropped",
        "drop_hook",
        "link",
    )

    def __init__(
        self,
        sim: Simulator,
        src: "Node",
        dst: "Node",
        bandwidth_bps: float,
        delay: float,
        queue_limit: int = 50,
        queue: Optional[DropTailQueue] = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive (got {bandwidth_bps})")
        if delay < 0:
            raise ValueError(f"delay must be >= 0 (got {delay})")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.bandwidth_bps = bandwidth_bps
        self.delay = delay
        # Pluggable discipline: drop-tail by default, RED on request.
        self.queue = queue if queue is not None else DropTailQueue(queue_limit)
        # Fused-path state: the serializer is busy through _busy_until;
        # _draining marks that a classic _tx_done chain is in flight and
        # will pull from the queue when it completes.
        self._busy_until = 0.0
        self._draining = False
        self.packets_sent = 0
        self.bytes_sent = 0
        self.packets_dropped = 0
        # Optional observer called as drop_hook(packet) on a tail drop.
        self.drop_hook: Optional[Callable[[Packet], None]] = None
        self.link: Optional["Link"] = None  # set by Link

    # ------------------------------------------------------------------
    def send(self, pkt: Packet) -> bool:
        """Hand a packet to the channel; False if it was tail-dropped."""
        sim = self.sim
        now = sim.now
        if now >= self._busy_until and not self._draining:
            # Idle channel: fuse serialization end and delivery into a
            # single event — no queue state can change in between, so
            # nothing needs to happen at the serialization boundary.
            tx_time = pkt.size * 8.0 / self.bandwidth_bps
            self._busy_until = now + tx_time
            sim.schedule(tx_time + self.delay, self._fused_done, pkt)
            return True
        if not self.queue.push(pkt):
            self.packets_dropped += 1
            if self.drop_hook is not None:
                self.drop_hook(pkt)
            pool = sim.packet_pool
            if pool is not None:
                pool.release(pkt)
            return False
        if not self._draining:
            # Backlog behind a fused transmission: arrange for the
            # queue to start draining the instant the serializer frees
            # up (the in-flight fused event will not pull the queue).
            self._draining = True
            sim.schedule_at(self._busy_until, self._drain)
        return True

    def _fused_done(self, pkt: Packet) -> None:
        # Send accounting happens at delivery time on the fused path
        # (at most `delay` later than the classic serialization
        # boundary; see the module docstring).
        self.packets_sent += 1
        self.bytes_sent += pkt.size
        pkt.hops += 1
        self.dst.receive(pkt, self)

    def _drain(self) -> None:
        nxt = self.queue.pop()
        if nxt is None:
            self._draining = False
        else:
            self._transmit(nxt)

    def _transmit(self, pkt: Packet) -> None:
        self._draining = True
        tx_time = pkt.size * 8.0 / self.bandwidth_bps
        self._busy_until = self.sim.now + tx_time
        self.sim.schedule(tx_time, self._tx_done, pkt)

    def _tx_done(self, pkt: Packet) -> None:
        self.packets_sent += 1
        self.bytes_sent += pkt.size
        self.sim.schedule(self.delay, self._deliver, pkt)
        nxt = self.queue.pop()
        if nxt is not None:
            self._transmit(nxt)
        else:
            self._draining = False

    def _deliver(self, pkt: Packet) -> None:
        pkt.hops += 1
        self.dst.receive(pkt, self)

    # ------------------------------------------------------------------
    @property
    def utilization_bytes(self) -> int:
        return self.bytes_sent

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Channel({self.src.name}->{self.dst.name}, "
            f"{self.bandwidth_bps/1e6:.2f}Mb/s, {self.delay*1e3:.1f}ms)"
        )


class Link:
    """Full-duplex link between two nodes (a pair of channels)."""

    __slots__ = ("a", "b", "ab", "ba")

    def __init__(
        self,
        sim: Simulator,
        a: "Node",
        b: "Node",
        bandwidth_bps: float,
        delay: float,
        queue_limit: int = 50,
        queue_factory: Optional[Callable[[], DropTailQueue]] = None,
    ) -> None:
        self.a = a
        self.b = b
        q_ab = queue_factory() if queue_factory is not None else None
        q_ba = queue_factory() if queue_factory is not None else None
        self.ab = Channel(sim, a, b, bandwidth_bps, delay, queue_limit, q_ab)
        self.ba = Channel(sim, b, a, bandwidth_bps, delay, queue_limit, q_ba)
        self.ab.link = self
        self.ba.link = self
        a.attach(self.ab, self.ba)
        b.attach(self.ba, self.ab)

    def channel_from(self, node: "Node") -> Channel:
        """The simplex channel whose sender is ``node``."""
        if node is self.a:
            return self.ab
        if node is self.b:
            return self.ba
        raise ValueError(f"{node!r} is not an endpoint of {self!r}")

    def channel_to(self, node: "Node") -> Channel:
        """The simplex channel whose receiver is ``node``."""
        if node is self.a:
            return self.ba
        if node is self.b:
            return self.ab
        raise ValueError(f"{node!r} is not an endpoint of {self!r}")

    def other(self, node: "Node") -> "Node":
        if node is self.a:
            return self.b
        if node is self.b:
            return self.a
        raise ValueError(f"{node!r} is not an endpoint of {self!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.a.name} <-> {self.b.name})"
