"""Self-test of the benchmark: it must see a slowdown and a wrong output.

    python3 -m pytest perfbench -q      (about 4 minutes)

The program is perturbed from outside: a ``sitecustomize`` module on
``PYTHONPATH`` patches ``Router.receive`` in every cell process, so
nothing under ``src/`` changes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench-cache" / "selftest"
WORKLOAD = "fig10-even-none"
SELF_TIMES = (
    "engine.self_s",
    "scheduler.self_s",
    "link.self_s",
    "node.self_s",
    "hooks.self_s",
    "traffic.self_s",
    "backprop.handler_s",
    "pushback.review_s",
    "obs.record_s",
    "topology.build_s",
    "routing.build_s",
)

DELAY_HOOK = """
import os
import time

try:
    from repro.sim.node import Router
except ImportError:  # the parent run.py process has no src/ on its path
    Router = None

if Router is not None:
    _delay = float(os.environ["PERFBENCH_TEST_DELAY_S"])
    _receive = Router.receive

    def receive(self, pkt, in_channel):
        end = time.perf_counter() + _delay
        while time.perf_counter() < end:
            pass
        return _receive(self, pkt, in_channel)

    Router.receive = receive
"""

# Drops one packet a router would forward: a small change of outcome.
PERTURB_HOOK = """
try:
    from repro.sim.node import Router
except ImportError:
    Router = None

if Router is not None:
    _receive = Router.receive
    _done = []

    def receive(self, pkt, in_channel):
        if not _done and pkt.dst != self.addr:
            _done.append(pkt)
            return None
        return _receive(self, pkt, in_channel)

    Router.receive = receive
"""


def bench(trace: int, hook: Optional[str] = None, **env: str) -> Dict[str, Any]:
    """One run of run.py (one cell); its result object."""
    run_env = dict(os.environ)
    run_env.update(env)
    if hook is not None:
        site = SCRATCH / "site"
        shutil.rmtree(site, ignore_errors=True)
        site.mkdir(parents=True)
        (site / "sitecustomize.py").write_text(hook)
        run_env["PYTHONPATH"] = str(site)
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", WORKLOAD, "--seed", "1", "--seconds", "1",
            "--trace", str(trace),
        ],
        cwd=ROOT, env=run_env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["stderr"] = proc.stderr
    return result


def cell_record(result: Dict[str, Any]) -> Dict[str, Any]:
    """The (first) per-cell line run.py wrote to standard error."""
    lines = result["stderr"].splitlines()
    return next(json.loads(line) for line in lines if line.startswith("{"))


def value(result: Dict[str, Any], metric: str) -> float:
    return float(result["metrics"][metric]["value"])


def bound(metric: str) -> float:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == metric)


def test_injected_receive_delay_is_reported_in_node_layer() -> None:
    b = bound("host_s_per_sim_s")
    base = bench(0)
    base_tr = bench(1)
    assert base["correct"] and base_tr["correct"]
    # Size the busy-wait so the cell's simulated seconds take 2*b longer:
    # it spreads 2*b of the run's raw host time over the router receives.
    raw_run_s = cell_record(base)["raw_run_s"]
    delay_s = 2 * b * raw_run_s / value(base_tr, "node.router_receives")
    env = {"PERFBENCH_TEST_DELAY_S": repr(delay_s)}
    slow = bench(0, DELAY_HOOK, **env)
    slow_tr = bench(1, DELAY_HOOK, **env)
    assert slow["correct"] and slow_tr["correct"], slow["stderr"] + slow_tr["stderr"]

    ratio = value(slow, "host_s_per_sim_s") / value(base, "host_s_per_sim_s")
    assert ratio > 1 + b, f"slowdown reported as {ratio:.3f}x, bound {b}"

    # Self times are probe-scaled, so compare with the scaled run time.
    added = 2 * b * value(base, "host_s_per_sim_s") * cell_record(base)["sim_s"]
    grew = {name: value(slow_tr, name) - value(base_tr, name) for name in SELF_TIMES}
    print(f"added {added:.3f} s; self-time growth {grew}")
    assert grew["node.self_s"] > 0.6 * added, grew
    # Other layers may not absorb a quarter of it, beyond the 10% their
    # own probe-scaled self time moves between two runs.
    for name, delta in grew.items():
        if name != "node.self_s":
            assert delta < 0.25 * added + 0.1 * value(base_tr, name), (name, grew)


def test_perturbed_outcome_fails_the_run() -> None:
    result = bench(0, PERTURB_HOOK)
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 1
    assert "stored reference" in result["stderr"]


def test_exits_nonzero_without_program() -> None:
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(
        HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOAD, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
