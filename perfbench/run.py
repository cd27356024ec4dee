"""Paper-scale Fig. 10 cell benchmark.

    python3 perfbench/run.py --workload fig10-even-none --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout.  Each cell is a fresh,
single-threaded ``python3 perfbench/cell.py`` process, started one at a
time with the program's defaults (every ``REPRO_*`` knob removed from
its environment).  ``--trace 0`` runs enough cells to fill about
``--seconds`` of host time and reports the end-to-end metrics as
medians over those cells; ``--trace 1`` runs cell 0 untraced and then
traced, and reports the per-layer metrics of the traced run.  Every
cell's simulated outcome is checked (README.md, "Output check").

The last line of standard output is the result object:
``{"correct", "attempted", "failed", "metrics"}``; a provenance line
(commit, Python, cores, seed, cell count) comes just before it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import DEFAULT_SEED, WORKLOADS, cells_per_run  # noqa: E402

REFERENCE = HERE / "reference.json"
CACHE = ROOT / ".perfbench-cache"
SEEN = CACHE / "digests.json"
# Every run must end within 180 s, however slow the program under test.
RUN_BUDGET_S = 170.0
# The program's tuning knobs; cells run with every one at its default.
REPRO_KNOBS = frozenset(
    f"REPRO_{name}"
    for name in (
        "SCHEDULER",
        "SHARDS",
        "JOBS",
        "CBR_BATCH",
        "PACKET_POOL",
        "EVENT_FREELIST",
        "STREAM",
        "POLICY",
    )
)


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in REPRO_KNOBS}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    return env


def run_cell(
    workload: str, seed: int, cell: int, traced: bool, timeout: float
) -> Tuple[Optional[Dict[str, Any]], str]:
    """One cell in a fresh process: (its record or None, error text)."""
    if timeout <= 0:
        return None, f"cell {cell} not started: the run's {RUN_BUDGET_S:.0f} s ran out"
    cmd = [
        sys.executable,
        str(HERE / "cell.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--cell", str(cell),
        "--trace", "1" if traced else "0",
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"cell {cell} timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip()[-2000:]
        return None, f"cell {cell} exited {proc.returncode}: {tail}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (IndexError, json.JSONDecodeError):
        return None, f"cell {cell} printed no record"


def _load(path: Path) -> Dict[str, str]:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def cell_key(rec: Dict[str, Any]) -> str:
    return f"{rec['workload']}/{rec['seed']}/{rec['cell']}"


def check(
    rec: Dict[str, Any], reference: Dict[str, str], seen: Dict[str, str]
) -> List[str]:
    """Reasons this cell's outcome is wrong (empty when it is right)."""
    problems = []
    key = cell_key(rec)
    for name, table in (("stored reference", reference), ("earlier run", seen)):
        want = table.get(key)
        if want is not None and want != rec["digest"]:
            problems.append(f"{key}: digest {rec['digest'][:12]} != {name} {want[:12]}")
    if WORKLOADS[rec["workload"]].defense == "honeypot":
        if len(rec["captures"]) != rec["n_attackers"]:
            problems.append(
                f"{key}: captured {len(rec['captures'])}/{rec['n_attackers']} attackers"
            )
        if rec["false_captures"]:
            problems.append(f"{key}: {rec['false_captures']} false captures")
    if not rec["legit_pct"] > 0.0:
        problems.append(f"{key}: no legitimate throughput")
    return problems


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (p60 of 25 values is the 15th)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def end_to_end(records: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """End-to-end metrics of a run's untraced cells: medians over the
    cells of probe-scaled host seconds (see cell.py) and of peak memory."""

    def med(key: str) -> float:
        return statistics.median(r[key] for r in records)

    return {
        "setup_s": {"value": med("setup_s"), "unit": "s"},
        "host_s_per_sim_s": {
            "value": statistics.median(r["run_s"] / r["sim_s"] for r in records),
            "unit": "s/s",
        },
        "cell_s": {"value": med("cell_s"), "unit": "s"},
        "peak_rss_mb": {"value": med("peak_rss_mb"), "unit": "MB"},
    }


def per_layer(
    traced: Dict[str, Any], untraced: Dict[str, Any]
) -> Dict[str, Dict[str, Any]]:
    lay = traced["layers"]
    self_s = lay["self_s"]
    originated = lay["originated"] or 1
    forwarded = lay["forwarded"] or 1
    sends = lay["sends"] or 1

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    captures = traced["captures"]
    values: Dict[str, Tuple[float, str]] = {
        "engine.events": (lay["events"], "count"),
        "engine.events_per_packet": (lay["events"] / originated, "1/packet"),
        "engine.schedules": (lay["schedules"], "count"),
        "engine.self_s": (self_s["engine"], "s"),
        "scheduler.ops": (lay["scheduler_ops"], "count"),
        "scheduler.self_s": (self_s["scheduler"], "s"),
        "scheduler.live_hwm": (lay["live_hwm"], "count"),
        "link.sends": (lay["sends"], "count"),
        "link.self_s": (self_s["link"], "s"),
        "link.queued_share": (lay["backlogged_sends"] / sends, "ratio"),
        "link.tail_drop_ratio": (lay["dropped"] / sends, "ratio"),
        "node.receives": (lay["receives"], "count"),
        "node.router_receives": (lay["router_receives"], "count"),
        "node.self_s": (self_s["node"], "s"),
        "node.forwards_per_packet": (lay["forwarded"] / originated, "1/packet"),
        "hooks.calls": (lay["hook_calls"], "count"),
        "hooks.calls_per_forward": (lay["hook_calls"] / forwarded, "1/forward"),
        "hooks.self_s": (self_s["hooks"], "s"),
        "hooks.hit_ratio": (ratio(lay["hook_hits"], lay["hook_calls"]), "ratio"),
        "traffic.originated": (lay["originated"], "count"),
        "traffic.self_s": (self_s["traffic"], "s"),
        "legit_pct": (traced["legit_pct"], "%"),
        "backprop.control_msgs": (lay["backprop_control"], "count"),
        "backprop.handler_s": (self_s["backprop"], "s"),
        "backprop.sessions": (lay["backprop_sessions"], "count"),
        "backprop.captures": (len(captures), "count"),
        "capture_s_p50": (percentile(captures, 0.5) if captures else 0.0, "s"),
        "capture_s_p60": (percentile(captures, 0.6) if captures else 0.0, "s"),
        "pushback.review_s": (self_s["pushback"], "s"),
        "pushback.control_msgs": (lay["pushback_control"], "count"),
        "pushback.policed_ratio": (
            ratio(lay["pushback_hook_hits"], lay["pushback_hook_calls"]),
            "ratio",
        ),
        "obs.journal_records": (lay["journal_records"], "count"),
        "obs.record_s": (self_s["obs"], "s"),
        "obs.journal_write_s": (lay["journal_write_s"], "s"),
        "obs.journal_bytes": (lay["journal_bytes"], "bytes"),
        "topology.build_s": (self_s["topology"], "s"),
        "routing.build_s": (self_s["routing"], "s"),
        "trace.overhead_x": (
            traced["run_s"] / untraced["run_s"],
            "x",
        ),
    }
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}


def provenance(workload: str, seed: int, cells: int, trace: bool) -> Dict[str, Any]:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "provenance": {
            "workload": workload,
            "seed": seed,
            "cells": cells,
            "trace": trace,
            "commit": commit,
            "src_sha256": src.hexdigest(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        }
    }


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description="Paper-scale Fig. 10 cell benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--record-reference", action="store_true",
        help="store this run's digests as the reference (run on a trusted tree)",
    )
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    traced = bool(args.trace)
    if traced:
        plan = [(0, False), (0, True)]
    else:
        cells = cells_per_run(WORKLOADS[args.workload], args.seconds)
        plan = [(i, False) for i in range(cells)]
    reference = _load(REFERENCE)
    seen = _load(SEEN)
    records: List[Dict[str, Any]] = []
    failed = 0
    for cell, with_trace in plan:
        rec, error = run_cell(
            args.workload, args.seed, cell, with_trace, deadline - time.monotonic()
        )
        problems = [error] if rec is None else check(rec, reference, seen)
        if rec is not None and with_trace and records:
            if rec["digest"] != records[0]["digest"]:
                problems.append("traced digest differs from the untraced digest")
        for problem in problems:
            print(f"FAILED {problem}", file=sys.stderr)
        failed += bool(problems)
        if rec is not None:
            records.append(rec)
            brief = {k: v for k, v in rec.items() if k != "layers"}
            print(json.dumps(brief), file=sys.stderr)
            if not problems:
                seen[cell_key(rec)] = rec["digest"]
    attempted = len(plan)
    if failed == 0:
        CACHE.mkdir(exist_ok=True)
        SEEN.write_text(json.dumps(seen, indent=1, sort_keys=True))
        if args.record_reference:
            reference.update((cell_key(r), r["digest"]) for r in records)
            REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")

    metrics: Dict[str, Dict[str, Any]] = {}
    if len(records) == attempted:
        metrics = per_layer(records[1], records[0]) if traced else end_to_end(records)
    print(json.dumps(provenance(args.workload, args.seed, attempted, traced)))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
