"""Conservative sharded execution of one scenario across cores.

The tree topology is partitioned into per-AS subtree shards (the
``subtree_partition`` cut the :mod:`repro.obs.shardplan` advisor costs
out); each shard owns the events of its nodes and cross-shard channels
become message-passing boundaries.  Every shard's safe-advance window
is ``min(next-event clocks) + lookahead`` — the classic
Chandy–Misra/Bryant conservative condition, with lookahead equal to the
minimum inter-shard link latency.

:func:`run_forked` is the execution backend.  The fully built scenario
forks one worker per shard (copy-on-write: every worker holds the whole
object graph but re-filters its scheduler to its own shard's events).
Cross-shard *delivery* schedules are intercepted at the engine's
scheduler seam (``Simulator._shunt``): a boundary send at ``t_s``
schedules its delivery at ``t_d = t_s + tx + delay > t_s + lookahead``,
so the capture happens at send time — when the lookahead guarantee is
real — and ships to the receiving worker at the next window exchange.
Workers advance in lockstep windows of width ``lookahead``: each round
the coordinator gathers every worker's next-event time ``h``, computes
the global horizon ``e = min(until, min(h) + lookahead)``, distributes
pending boundary deliveries, and everyone runs ``run(until=e)`` in
parallel.  Any send inside a window lands strictly after the next
window's start (``t_d > e``), which is the safety proof; positive
lookahead means the globally earliest event is always dispatchable,
which is the liveness proof.

All channel mechanics — serializer busy state, queueing, tail drops,
drop accounting — run on the *real* channel objects in the sending
worker; only the terminal delivery hop crosses the pipe, replayed on
the receiver's copy by :func:`_deliver_boundary`.  Every counter
increment therefore happens in exactly one process, and the
coordinator folds workers' counter deltas back in at the end.
"""

from __future__ import annotations

import json
import os
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .engine import Simulator, SimulationError, Timer
from .link import Channel

__all__ = [
    "ShardError",
    "ShardLayout",
    "shard_layout",
    "plan_groups",
    "resolve_group",
    "run_forked",
    "load_shard_config",
]

_INF = float("inf")

# Attributes probed (up to two hops) when mapping a scheduled callback's
# bound instance to a topology node: apps hold .host or .cbr, adaptive
# bots hold .env (which holds .host), sources hold .host.
_PROBE_ATTRS = ("host", "node", "router", "env", "cbr")


class ShardError(RuntimeError):
    """Sharded execution could not be set up or a worker failed."""


# ----------------------------------------------------------------------
# Callback -> shard resolution
# ----------------------------------------------------------------------
def _addr_of(obj: Any, _depth: int = 0) -> Optional[int]:
    """Best-effort resolution of an object to its topology node address."""
    addr = getattr(obj, "addr", None)
    if isinstance(addr, int):
        return addr
    if _depth >= 2:
        return None
    for name in _PROBE_ATTRS:
        inner = getattr(obj, name, None)
        if inner is not None and inner is not obj:
            found = _addr_of(inner, _depth + 1)
            if found is not None:
                return found
    return None


# Channel methods that fire on the *receiving* side of the wire; all
# other channel events (serializer housekeeping) belong to the sender.
_DELIVERY_METHODS = ("_fused_done", "_deliver")


def resolve_group(
    fn: Callable[..., Any],
    addr_group: Dict[int, int],
    default: int = 0,
    _depth: int = 0,
) -> int:
    """Map a scheduled callback to the shard that must execute it.

    Channel-bound events split by method: delivery events
    (``_fused_done``/``_deliver``) execute on the destination node's
    shard, housekeeping (``_drain``/``_tx_done``) on the source's.
    Timers recurse into their payload callback.  Anything that cannot
    be tied to a topology node (e.g. global measurement timers) lands
    in ``default`` — the core shard, which the coordinator runs.
    """
    owner = getattr(fn, "__self__", None)
    if owner is None:
        return default
    if isinstance(owner, Channel):
        name = getattr(fn, "__name__", "")
        node = owner.dst if name in _DELIVERY_METHODS else owner.src
        return addr_group.get(node.addr, default)
    if isinstance(owner, Timer) and _depth < 8:
        return resolve_group(owner.fn, addr_group, default, _depth + 1)
    addr = _addr_of(owner)
    if addr is None:
        return default
    return addr_group.get(addr, default)


# ----------------------------------------------------------------------
# Partition -> shard layout
# ----------------------------------------------------------------------
@dataclass
class ShardLayout:
    """A concrete shard assignment for one topology.

    ``addr_group`` maps every node address to a dense shard id in
    ``[0, n_groups)``; shard 0 always contains the ``core`` label (the
    root/bottleneck/servers), because the fork-mode coordinator runs
    shard 0 in-process.  ``lookahead`` is the minimum latency over
    cross-shard edges, or None when the partition has no cross edges.
    """

    addr_group: Dict[int, int]
    label_group: Dict[str, int]
    n_groups: int
    lookahead: Optional[float]

    @property
    def parallel(self) -> bool:
        """Whether the cut can run sharded: at least two shards joined
        by positive-latency edges.  Degenerate cuts (one effective
        shard, no cross edges, zero lookahead) run on the serial
        engine instead."""
        return self.n_groups > 1 and (self.lookahead or 0.0) > 0.0


def plan_groups(
    labels: Sequence[str],
    n_shards: int,
    weights: Optional[Dict[str, int]] = None,
    assigned: Optional[Dict[str, int]] = None,
) -> Dict[str, int]:
    """Assign partition labels to ``n_shards`` groups.

    The ``core`` label is pinned to group 0; remaining labels follow an
    explicit ``assigned`` map when given (a ``repro.shardconfig/1``
    artifact), and otherwise greedy bin-packing by descending weight
    onto the lightest group — the same heuristic the shardplan
    advisor's balance bound assumes.
    """
    if n_shards < 1:
        raise ShardError(f"n_shards must be >= 1 (got {n_shards})")
    weights = weights or {}
    out: Dict[str, int] = {}
    load = [0] * n_shards
    rest: List[str] = []
    for label in labels:
        if label == "core":
            out[label] = 0
            load[0] += weights.get(label, 1)
        elif assigned is not None and label in assigned:
            g = int(assigned[label])
            if not 0 <= g < n_shards:
                raise ShardError(
                    f"shard config assigns {label!r} to group {g}, "
                    f"outside [0, {n_shards})"
                )
            out[label] = g
            load[g] += weights.get(label, 1)
        else:
            rest.append(label)
    # Heaviest first onto the lightest group: stable, deterministic.
    rest.sort(key=lambda lab: (-weights.get(lab, 1), lab))
    for label in rest:
        g = min(range(n_shards), key=lambda i: (load[i], i))
        out[label] = g
        load[g] += weights.get(label, 1)
    return out


def shard_layout(
    graph: Any,
    part: Dict[int, str],
    n_shards: int,
    config: Optional[Dict[str, Any]] = None,
) -> ShardLayout:
    """Build a :class:`ShardLayout` from a node->label partition.

    ``graph`` is the topology graph (edges carry ``delay``); ``part``
    is e.g. :func:`repro.topology.tree.subtree_partition` output;
    ``config`` optionally a ``repro.shardconfig/1`` document whose
    ``groups`` map overrides the greedy label placement.
    """
    assigned = None
    if config is not None:
        assigned = {str(k): int(v) for k, v in (config.get("groups") or {}).items()}
        if n_shards < 1:
            n_shards = int(config.get("n_shards", 1))
    labels = sorted(set(part.values()))
    weights: Dict[str, int] = {}
    for label in part.values():
        weights[label] = weights.get(label, 0) + 1
    label_group = plan_groups(labels, n_shards, weights=weights, assigned=assigned)
    # Compact to dense group ids, keeping core's group first.
    used = sorted(set(label_group.values()))
    dense = {g: i for i, g in enumerate(used)}
    label_group = {lab: dense[g] for lab, g in label_group.items()}
    addr_group = {node: label_group[lab] for node, lab in part.items()}
    lookahead: Optional[float] = None
    for u, v, data in graph.edges(data=True):
        gu = addr_group.get(u)
        gv = addr_group.get(v)
        if gu is None or gv is None or gu == gv:
            continue
        delay = float(data.get("delay", 0.0))
        if lookahead is None or delay < lookahead:
            lookahead = delay
    return ShardLayout(
        addr_group=addr_group,
        label_group=label_group,
        n_groups=len(used),
        lookahead=lookahead,
    )


def load_shard_config(path: str) -> Dict[str, Any]:
    """Read and minimally validate a ``repro.shardconfig/1`` file.

    Every defect — unreadable file, non-JSON, wrong schema, missing
    ``groups`` mapping, non-integer group id — raises :class:`ShardError`.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ShardError(f"{path}: unreadable shard config ({exc})") from exc
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != "repro.shardconfig/1":
        raise ShardError(f"{path}: not a repro.shardconfig/1 document ({schema!r})")
    groups = doc.get("groups")
    if not isinstance(groups, dict) or not groups:
        raise ShardError(f"{path}: shard config has no 'groups' mapping")
    for label, group in groups.items():
        if isinstance(group, bool) or not isinstance(group, int):
            raise ShardError(
                f"{path}: group of {label!r} must be an integer (got {group!r})"
            )
    return doc


# ----------------------------------------------------------------------
# Forked worker mode
# ----------------------------------------------------------------------
def _deliver_boundary(ch: Channel, fused: int, pkt: Any) -> None:
    """Replay the terminal delivery hop on the receiver's channel copy.

    ``fused`` distinguishes the fused path (``_fused_done``: the send
    side accounted nothing yet, so sent/bytes count here) from the
    classic path (``_deliver``: ``_tx_done`` already counted on the
    sender's copy).  Matches :mod:`repro.sim.link` exactly.
    """
    if fused:
        ch.packets_sent += 1
        ch.bytes_sent += pkt.size
    pkt.hops += 1
    ch.dst.receive(pkt, ch)


def _make_shunt(
    outbox: List[Tuple[int, int, float, Any]],
    chan_index: Dict[int, int],
    chan_dst_group: List[int],
    my_group: int,
) -> Callable[[float, Callable[..., Any], tuple], bool]:
    """Build the scheduler-seam intercept for one worker.

    Captures schedules of boundary-channel delivery events whose
    destination lives on a peer shard; everything else (local traffic,
    serializer housekeeping, injected :func:`_deliver_boundary` calls,
    which are plain functions) passes through untouched.
    """

    def shunt(time: float, fn: Callable[..., Any], args: tuple) -> bool:
        owner = getattr(fn, "__self__", None)
        if owner is None:
            return False
        ci = chan_index.get(id(owner))
        if ci is None:
            return False
        name = fn.__name__
        if name == "_fused_done":
            fused = 1
        elif name == "_deliver":
            fused = 0
        else:
            return False
        if chan_dst_group[ci] == my_group:
            return False
        outbox.append((ci, fused, time, args[0]))
        return True

    return shunt


_NODE_COUNTERS = (
    "packets_received",
    "packets_originated",
    "bytes_received",
    "packets_forwarded",
    "packets_filtered",
    "no_route_drops",
)


def _channels(net: Any) -> List[Channel]:
    return [ch for link in net.links for ch in (link.ab, link.ba)]


def _collect_deltas(net: Any) -> Tuple[Dict[int, Tuple[int, int, int]], Dict[int, Dict[str, int]]]:
    """Nonzero counters accrued in this worker (all started at zero)."""
    chans: Dict[int, Tuple[int, int, int]] = {}
    for i, ch in enumerate(_channels(net)):
        vals = (ch.packets_sent, ch.bytes_sent, ch.packets_dropped)
        if vals != (0, 0, 0):
            chans[i] = vals
    nodes: Dict[int, Dict[str, int]] = {}
    for addr, node in net.nodes.items():
        vals2 = {}
        for attr in _NODE_COUNTERS:
            v = getattr(node, attr, 0)
            if v:
                vals2[attr] = v
        if vals2:
            nodes[addr] = vals2
    return chans, nodes


def _fold_deltas(
    net: Any,
    chans: Dict[int, Tuple[int, int, int]],
    nodes: Dict[int, Dict[str, int]],
) -> None:
    flat = _channels(net)
    for i, (sent, nbytes, dropped) in chans.items():
        ch = flat[i]
        ch.packets_sent += sent
        ch.bytes_sent += nbytes
        ch.packets_dropped += dropped
    for addr, vals in nodes.items():
        node = net.nodes[addr]
        for attr, v in vals.items():
            setattr(node, attr, getattr(node, attr, 0) + v)


def _refilter_scheduler(sim: Simulator, addr_group: Dict[int, int], my_group: int) -> None:
    """Keep only this shard's pending events (post-fork, per worker).

    Entries keep their original ``(time, seq)``, so within a worker the
    relative dispatch order of surviving events matches serial exactly.
    """
    entries = sim._sched.drain()
    for entry in entries:
        ev = entry[2]
        if ev.cancelled:
            ev._queued = False
            continue  # cancel() already decremented _live
        if resolve_group(ev.fn, addr_group, 0) == my_group:
            sim._sched.push(entry)
        else:
            ev._queued = False
            ev.cancelled = True
            sim._live -= 1


def _child_main(
    conn: Any,
    peer_conns: List[Any],
    net: Any,
    my_group: int,
    boundary: List[Channel],
    chan_index: Dict[int, int],
    chan_dst_group: List[int],
    addr_group: Dict[int, int],
) -> None:
    """Worker body for shard ``my_group`` (runs in a forked process)."""
    try:
        for other in peer_conns:
            if other is not conn:
                other.close()
        sim = net.sim
        base_events = sim.events_processed
        _refilter_scheduler(sim, addr_group, my_group)
        outbox: List[Tuple[int, int, float, Any]] = []
        sim._shunt = _make_shunt(outbox, chan_index, chan_dst_group, my_group)
        while True:
            conn.send((sim.peek_time(), outbox))
            del outbox[:]
            horizon, deliveries, last = conn.recv()
            for ci, fused, t, pkt in deliveries:
                sim.schedule_at(t, _deliver_boundary, boundary[ci], fused, pkt)
            sim.run(until=horizon)
            if last:
                break
        chans, nodes = _collect_deltas(net)
        conn.send(("done", sim.events_processed - base_events, chans, nodes))
        conn.close()
        os._exit(0)
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
        os._exit(1)


def run_forked(net: Any, layout: ShardLayout, until: float) -> Dict[str, Any]:
    """Run a fully built scenario to ``until`` across forked shard workers.

    The calling process is both the coordinator and the shard-0 (core)
    worker, so global measurement timers and the bottleneck/servers run
    in-process and their readings are exact.  Returns a stats dict
    (windows, boundary messages, worker event counts).

    The caller is responsible for restricting this mode to scenarios
    whose scheduled callbacks are fully resolvable to shards (see
    ``repro.experiments.scenarios``); `run_forked` itself enforces the
    engine-level preconditions only.
    """
    import multiprocessing as mp

    sim = net.sim
    n = layout.n_groups
    lookahead = layout.lookahead
    if not layout.parallel:
        raise ShardError(
            f"run_forked needs >= 2 shards and a positive lookahead (got "
            f"{n} shard(s), lookahead {lookahead}); run degenerate cuts serially"
        )
    if not until == until or until == _INF:  # NaN / inf guard
        raise ShardError(f"run_forked needs a finite horizon (got {until})")
    if sim._running:
        raise SimulationError("simulator is already running (re-entrant run())")
    if sim.stream is not None:
        raise ShardError("live streaming is per-process; detach it for fork mode")
    if sim.packet_pool is not None:
        raise ShardError("packet pooling is per-process; disable it for fork mode")
    if "fork" not in mp.get_all_start_methods():
        raise ShardError("fork start method unavailable on this platform")
    addr_group = layout.addr_group
    boundary: List[Channel] = []
    for ch in _channels(net):
        if addr_group.get(ch.src.addr, 0) != addr_group.get(ch.dst.addr, 0):
            if ch.drop_hook is not None:
                raise ShardError(
                    "boundary channels must not carry drop hooks in fork mode"
                )
            boundary.append(ch)
    if not boundary:
        raise ShardError("no cross-shard channels; use the serial loop")
    chan_index = {id(ch): i for i, ch in enumerate(boundary)}
    chan_dst_group = [addr_group.get(ch.dst.addr, 0) for ch in boundary]

    # Journal bracketing is coordinator-side: workers run with no
    # journal and the dispatch total is folded in before sim_run_end,
    # so the bracket bytes match the serial run's exactly.
    journal = sim.journal
    events_before = sim.events_processed
    if journal is not None:
        journal.record("sim_run_start", pending=sim._live)
    sim.journal = None
    # The engine profiler's wall-time view of a forked run is
    # meaningless (each worker times only its own loop); detach it for
    # the run so neither coordinator nor workers record partial numbers.
    profiler = sim.profiler
    sim.profiler = None

    ctx = mp.get_context("fork")
    pipes = [ctx.Pipe(duplex=True) for _ in range(n - 1)]
    child_conns = [c for _parent, c in pipes]
    procs = []
    try:
        for g in range(1, n):
            proc = ctx.Process(
                target=_child_main,
                args=(
                    child_conns[g - 1],
                    child_conns,
                    net,
                    g,
                    boundary,
                    chan_index,
                    chan_dst_group,
                    addr_group,
                ),
            )
            proc.start()
            procs.append(proc)
        for c in child_conns:
            c.close()
        conns = [p for p, _child in pipes]

        _refilter_scheduler(sim, addr_group, 0)
        outbox: List[Tuple[int, int, float, Any]] = []
        sim._shunt = _make_shunt(outbox, chan_index, chan_dst_group, 0)
        windows = 0
        messages = 0
        while True:
            reports = []
            for c in conns:
                msg = c.recv()
                if msg and msg[0] == "error":
                    raise ShardError(f"shard worker failed:\n{msg[1]}")
                reports.append(msg)
            pending = list(outbox)
            del outbox[:]
            for _h, out in reports:
                pending.extend(out)
            messages += len(pending)
            buckets: List[List[Tuple[int, int, float, Any]]] = [[] for _ in range(n)]
            for item in pending:
                buckets[chan_dst_group[item[0]]].append(item)
            for ci, fused, t, pkt in buckets[0]:
                sim.schedule_at(t, _deliver_boundary, boundary[ci], fused, pkt)
            horizon = sim.peek_time()
            for h, _out in reports:
                if h < horizon:
                    horizon = h
            for g in range(1, n):
                for item in buckets[g]:
                    if item[2] < horizon:
                        horizon = item[2]
            end = until if horizon == _INF else min(until, horizon + lookahead)
            last = end >= until
            for g in range(1, n):
                conns[g - 1].send((end, buckets[g], last))
            sim.run(until=end)
            windows += 1
            if last:
                break
        worker_events = []
        for c in conns:
            msg = c.recv()
            if msg and msg[0] == "error":
                raise ShardError(f"shard worker failed:\n{msg[1]}")
            _tag, child_events, chans, nodes = msg
            worker_events.append(child_events)
            _fold_deltas(net, chans, nodes)
        for p in procs:
            p.join(timeout=30)
    except EOFError as exc:
        raise ShardError(
            "a shard worker exited without reporting (see worker stderr)"
        ) from exc
    finally:
        sim._shunt = None
        sim.journal = journal
        sim.profiler = profiler
        for p in procs:
            if p.is_alive():  # pragma: no cover - error-path cleanup
                p.terminate()
    total = sim.events_processed - events_before + sum(worker_events)
    sim.events_processed = events_before + total
    if journal is not None:
        journal.record("sim_run_end", events=total)
    return {
        "shards": n,
        "windows": windows,
        "boundary_messages": messages,
        "lookahead": lookahead,
        "events_per_shard": [total - sum(worker_events)] + worker_events,
    }
