"""Sharded conservative DES — one scenario across all cores.

Runs a scaled Fig. 7 cell (400 leaves, 80 attackers at 1 Mb/s) once
serially and once as four forked shard worker processes
(``shards=4``), and checks the whole contract:

* **identity** — the merged sharded causal journal is byte-identical
  to the serial one, and the headline results (event count, goodput
  percentages) match exactly.  This is the same witness
  ``tests/test_shard.py`` proves on a small tree; here it is re-proved
  at bench scale on every regression run.
* **speedup** — serial vs 4-shard wall time.  The floor (>= 1.5x with
  4 shards, per the acceptance criteria) is only asserted on runners
  with >= 4 cores; on smaller boxes the measured ratio is still
  reported so the trend is tracked.
* **bounds** — achieved speedup is reported against two ceilings: the
  *balance bound* of the actual cut (total simulation events over the
  busiest shard's events — Brent's bound with per-event unit cost),
  and the *available parallelism* that ``repro.obs.critical`` measures
  over the causal journal.  The fork backend requires a defense-free
  run, whose journal records only the run markers, so the critical-path
  number comes from the honeypot twin of the same topology and seed —
  the causal structure the PR 9 shard-cut advisor optimizes for.

All non-wall metrics are deterministic (fixed seed, conservative
sync), so ``baseline.json`` gates them at their exact values; only the
wall-derived speedup numbers float with the machine.
"""

import os
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from repro.experiments.scenarios import TreeScenarioParams, run_tree_scenario
from repro.obs import Telemetry
from repro.obs.critical import critical_report

SHARDS = 4

# Scaled Fig. 7 cell.  Defense-free with per-host RNG streams: the
# process backend's eligibility envelope.
BASE = TreeScenarioParams(
    n_leaves=400,
    n_attackers=80,
    attacker_rate=1.0e6,
    duration=30.0,
    attack_start=5.0,
    attack_end=25.0,
    defense="none",
    rng_discipline="per-host",
    seed=7,
)

# Honeypot twin: same topology, traffic and seed with the defense on —
# its capture journal is where the critical-path Brent bound lives.
TWIN = replace(BASE, defense="honeypot")


def _run(params):
    """One telemetered run: result, wall seconds, journal bytes, extra."""
    telemetry = Telemetry()
    started = time.perf_counter()
    result = run_tree_scenario(params, telemetry=telemetry)
    wall = time.perf_counter() - started
    with tempfile.TemporaryDirectory() as td:
        out = telemetry.journal.write_jsonl(str(Path(td) / "journal.jsonl"))
        journal = Path(out).read_bytes()
    return result, wall, journal, telemetry.extra


def run_measurement():
    serial, wall_serial, journal_serial, _ = _run(BASE)
    sharded, wall_sharded, journal_sharded, extra = _run(
        replace(BASE, shards=SHARDS)
    )
    twin = Telemetry()
    run_tree_scenario(TWIN, telemetry=twin)
    brent = critical_report(twin.journal)["parallelism"]
    return {
        "serial": serial,
        "sharded": sharded,
        "wall_serial": wall_serial,
        "wall_sharded": wall_sharded,
        "identical": journal_serial == journal_sharded,
        "fork": extra["forked"],
        "brent": brent,
    }


def test_shard_speedup(benchmark, report):
    report.name = "shard_speedup"
    m = benchmark.pedantic(run_measurement, iterations=1, rounds=1)

    serial, sharded = m["serial"], m["sharded"]
    fork = m["fork"]
    per_shard = fork["events_per_shard"]
    speedup = (
        m["wall_serial"] / m["wall_sharded"]
        if m["wall_sharded"] > 0
        else float("inf")
    )
    balance_bound = sum(per_shard) / max(per_shard)
    cores = os.cpu_count() or 1

    report(f"scenario: {BASE.n_leaves} leaves, {BASE.n_attackers} attackers,")
    report(f"  {BASE.duration:g} s simulated, {SHARDS} shard workers")
    report(f"serial wall:  {m['wall_serial']:.2f} s")
    report(
        f"sharded wall: {m['wall_sharded']:.2f} s  "
        f"({cores} core(s) available)"
    )
    report(f"achieved speedup:     {speedup:.2f}x")
    report(f"balance bound (cut):  {balance_bound:.2f}x  {per_shard}")
    report(f"available parallelism (critical path, twin): {m['brent']:.2f}x")
    report(
        f"sync: {fork['windows']} windows, "
        f"{fork['boundary_messages']} boundary messages, "
        f"lookahead {fork['lookahead']:g} s"
    )
    report(f"journal byte-identical sharded vs serial: {m['identical']}")

    # --- Identity: the journal is the merge proof ---------------------
    assert m["identical"], "sharded journal diverged from serial"
    assert sharded.events_processed == serial.events_processed
    assert sharded.legit_pct == serial.legit_pct
    assert sharded.attack_pct == serial.attack_pct
    assert sum(per_shard) == serial.events_processed

    report.metric("journal_identical", int(m["identical"]))
    report.metric("events_total", serial.events_processed)
    report.metric("windows", fork["windows"])
    report.metric("boundary_messages", fork["boundary_messages"])
    report.metric("balance_speedup_bound", round(balance_bound, 2))
    report.metric("brent_parallelism", round(m["brent"], 2))
    report.metric("cores", cores)
    report.metric("speedup_4shard_x", round(speedup, 2))

    # --- Speedup floor, only meaningful with real parallelism ---------
    if cores >= 4:
        report.metric("speedup_gate_1p5", int(speedup >= 1.5))
        assert speedup >= 1.5, (
            f"expected >= 1.5x with {SHARDS} shards on {cores} cores, "
            f"got {speedup:.2f}x"
        )
