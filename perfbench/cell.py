"""Run one benchmark cell in this (fresh) process and print its record.

    python3 perfbench/cell.py --workload fig10-even-none --seed 1 --cell 0 --trace 0

Prints one JSON object: host timings, peak RSS, the simulated outcome
the checks need, and the outcome digest; with ``--trace 1`` also the
per-layer counts and self times of :mod:`tracing`.  ``run.py`` starts
one of these per cell, one at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

SCRATCH = ROOT / ".perfbench-cache"

# Host-speed probe.  Other tenants of a shared host slow this process
# by up to 1.8x for seconds to minutes at a time; the probe, run at
# every stamp, measures how fast the host is right then, and each
# interval's host time is scaled to the speed at which one probe takes
# PROBE_REF_S (its typical time on the host the benchmark was sized on,
# README.md).  It allocates nothing the garbage collector tracks, so it
# cannot move the program's collections.
PROBE_STEPS = 12_000
PROBE_REF_S = 0.0025
_PROBE_TABLE = list(range(4096))


def probe() -> None:
    table = _PROBE_TABLE
    x = 1
    for _ in range(PROBE_STEPS):
        x = (x * 1103515245 + 12345) & 4095
        table[x] = (table[x] + x) & 4095


class Stamp:
    """A probe and the clock just before and after it."""

    __slots__ = ("before", "after", "probe_s")

    def __init__(self, before: float, after: float) -> None:
        self.before = before
        self.after = after
        self.probe_s = after - before

    @classmethod
    def take(cls) -> "Stamp":
        before = perf_counter()
        probe()
        return cls(before, perf_counter())

    @staticmethod
    def span(a: "Stamp", b: "Stamp") -> Tuple[float, float]:
        """Host seconds from ``a`` to ``b``: (raw, scaled to probe speed)."""
        raw = b.before - a.after
        return raw, raw * PROBE_REF_S / ((a.probe_s + b.probe_s) / 2.0)


def _digest(net: Any, result: Any, journal_sha256: str) -> str:
    """sha256 over the simulated outcome (never over a host timing)."""
    channels: List[List[int]] = []
    routers: List[List[int]] = []
    for node_id in sorted(net.nodes):
        node = net.nodes[node_id]
        for ch in node.out_channels:
            channels.append(
                [node_id, ch.dst.id, ch.packets_sent, ch.packets_dropped]
            )
        if hasattr(node, "packets_forwarded"):
            routers.append([node_id, node.packets_forwarded, node.packets_filtered])
    outcome = {
        "events": result.events_processed,
        "channels": channels,
        "routers": routers,
        "captures": sorted([h, t] for h, t in result.capture_times.items()),
        "legit_pct": result.legit_pct,
        "journal_sha256": journal_sha256,
    }
    blob = json.dumps(outcome, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def run_cell(workload_name: str, seed: int, cell: int, traced: bool) -> Dict[str, Any]:
    import repro
    from repro.experiments import scenarios
    from repro.sim.monitor import ThroughputMonitor
    from repro.sim.network import Network
    from workloads import WORKLOADS, cell_params

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        raise RuntimeError(f"imported repro from {repro.__file__}, not {ROOT}/src")
    workload = WORKLOADS[workload_name]
    params, skipped = cell_params(workload, seed, cell)

    tracer = None
    if traced:
        from tracing import LayerTracer

        tracer = LayerTracer()
        tracer.install()

    # Network.run brackets the simulated part of the cell; everything
    # before its first entry is set-up.  The scenario's throughput
    # monitor ticks once per simulated second; a stamp at each tick
    # probe-scales every simulated second on its own.
    stamps: List[Stamp] = []
    marks: Dict[str, Any] = {}
    network_run = Network.run
    monitor_sample = ThroughputMonitor._sample

    def timed_run(net: Network, until: Any = None) -> None:
        marks["net"] = net
        stamps.append(Stamp.take())
        network_run(net, until)

    def stamped_sample(monitor: Any, *args: Any) -> None:
        stamps.append(Stamp.take())
        monitor_sample(monitor, *args)

    Network.run = timed_run  # type: ignore[method-assign]
    ThroughputMonitor._sample = stamped_sample  # type: ignore[method-assign]
    telemetry = None
    journal_sha256 = ""
    journal_bytes = 0
    journal_write_s = 0.0
    try:
        if workload.telemetry:
            from repro.obs import Telemetry

            telemetry = Telemetry()
        stamps.append(Stamp.take())
        result = scenarios.run_tree_scenario(params, telemetry=telemetry)
        if telemetry is not None:
            SCRATCH.mkdir(exist_ok=True)
            path = SCRATCH / f"journal-{os.getpid()}.jsonl.gz"
            t_write = perf_counter()
            telemetry.journal.write_jsonl(path)
            journal_write_s = perf_counter() - t_write
        stamps.append(Stamp.take())
    finally:
        Network.run = network_run  # type: ignore[method-assign]
        ThroughputMonitor._sample = monitor_sample  # type: ignore[method-assign]
        if tracer is not None:
            tracer.restore()
    if telemetry is not None:
        data = path.read_bytes()
        path.unlink()
        journal_sha256 = hashlib.sha256(data).hexdigest()
        journal_bytes = len(data)

    net = marks["net"]
    # stamps: set-up start, run entry, one tick per simulated second, end.
    if len(stamps) != int(params.duration) + 3:
        raise RuntimeError(
            "expected one Network.run and one monitor tick per simulated second"
        )
    setup, *seconds, post = [Stamp.span(a, b) for a, b in zip(stamps, stamps[1:])]
    record: Dict[str, Any] = {
        "workload": workload_name,
        "seed": seed,
        "cell": cell,
        "scenario_seed": params.seed,
        "skipped_candidates": skipped,
        "traced": traced,
        "sim_s": params.duration,
        "setup_s": setup[1],
        "run_s": sum(cal for _, cal in seconds),
        "cell_s": sum(cal for _, cal in [setup, *seconds, post]),
        "raw_run_s": sum(raw for raw, _ in seconds),
        "raw_cell_s": sum(raw for raw, _ in [setup, *seconds, post]),
        "probe_s": statistics.median(st.probe_s for st in stamps),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "events": result.events_processed,
        "legit_pct": result.legit_pct_during_attack,
        "n_attackers": len(result.attacker_ids),
        "captures": sorted(result.capture_times.values()),
        "false_captures": result.false_captures,
        "digest": _digest(net, result, journal_sha256),
    }
    if tracer is not None:
        # Self times are sums over the whole run: scale them by the
        # run's overall probe factor.
        scale = record["run_s"] / record["raw_run_s"]
        record["layers"] = _layer_record(tracer, net, telemetry, scale)
        record["layers"].update(
            journal_write_s=journal_write_s * scale, journal_bytes=journal_bytes
        )
    return record


def _layer_record(
    tracer: Any, net: Any, telemetry: Any, scale: float
) -> Dict[str, Any]:
    """Per-layer counts and (probe-scaled) self times of one traced cell."""
    from tracing import LAYERS

    nodes = list(net.nodes.values())
    routers = [n for n in nodes if hasattr(n, "packets_forwarded")]
    calls = tracer.calls
    return {
        "self_s": {layer: tracer.self_s.get(layer, 0.0) * scale for layer in LAYERS},
        "events": net.sim.events_processed,
        "originated": sum(n.packets_originated for n in nodes),
        "forwarded": sum(r.packets_forwarded for r in routers),
        "dropped": sum(ch.packets_dropped for n in nodes for ch in n.out_channels),
        "schedules": calls["engine.schedules"],
        "scheduler_ops": sum(
            calls[f"{cls}.{op}"]
            for cls in ("HeapScheduler", "CalendarQueueScheduler")
            for op in ("push", "pop")
        ),
        "live_hwm": tracer.live_hwm,
        "sends": calls["Channel.send"],
        "backlogged_sends": calls["link.backlogged_sends"],
        "receives": calls["Router.receive"] + calls["Host.receive"],
        "router_receives": calls["Router.receive"],
        "hook_calls": tracer.hook_count(),
        "hook_hits": tracer.hook_count(hits=True),
        "pushback_hook_calls": tracer.hook_count("pushback"),
        "pushback_hook_hits": tracer.hook_count("pushback", hits=True),
        "backprop_control": calls["control.backprop.sent"],
        "pushback_control": calls["control.pushback.sent"],
        "backprop_sessions": calls["HoneypotSession.__init__"],
        "journal_records": len(telemetry.journal) if telemetry is not None else 0,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cell", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    record = run_cell(args.workload, args.seed, args.cell, bool(args.trace))
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
