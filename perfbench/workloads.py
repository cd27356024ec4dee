"""Workload definitions: one paper-scale Fig. 10 cell per benchmark cell.

Every cell is ``paper_scale(TreeScenarioParams(...))`` (1000 leaves,
5 servers behind a 10 Mb/s bottleneck, N=5/k=3, m=10 s, 25 attackers at
1 Mb/s) shortened to the workload's ``sim_s`` simulated seconds, with
the attack running from ``ATTACK_START`` to the end of the cell.  The
three workloads share their scenario seeds, so cell ``i`` of every workload
carries the same topology, roles and traffic; only the placement and
the defense differ.  See README.md for why each workload is here.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from itertools import count
from typing import Any, Dict, Tuple

# Seed 2 is kept for confirming a claimed gain (README.md, "How a run works").
DEFAULT_SEED = 1

ATTACK_START = 10.0
# Simulated seconds a capture may take after its honeypot epoch opens
# (the measured traceback takes under 0.5 s at paper scale).
CAPTURE_SLACK_S = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    defense: str
    placement: str
    # Bind Telemetry and write the journal, as `repro stats --journal-out`.
    telemetry: bool
    # Simulated seconds per cell; the attack runs from ATTACK_START to the end.
    sim_s: float
    # Host seconds one untraced cell takes here (process start included);
    # sizes the number of cells a run of a given length measures.
    cell_wall_s: float


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fig10-even-honeypot", "honeypot", "even", True, 90.0, 13.5),
        Workload("fig10-close-pushback", "pushback", "close", False, 45.0, 8.0),
        Workload("fig10-even-none", "none", "even", False, 45.0, 9.5),
    )
}


def cells_per_run(workload: Workload, seconds: float) -> int:
    """Cells that fill about ``seconds`` of host time (at least one)."""
    return max(1, round(seconds / workload.cell_wall_s))


def _candidate(seed: int, cell: int, attempt: int) -> int:
    digest = hashlib.sha256(f"perfbench:{seed}:{cell}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _schedule_reaches_every_server(params: Any) -> bool:
    """True when the roaming schedule of the honeypot cell ``params``
    makes every server a honeypot in some epoch that opens during the
    attack, early enough to capture.

    Mirrors how ``run_tree_scenario`` builds the schedule (hash-chain
    anchor from the ``hashchain`` stream, chain length from the
    duration); if that changes, captures go missing and the run fails
    its output check rather than passing quietly.
    """
    from repro.crypto.hashchain import HashChain
    from repro.honeypots.schedule import RoamingSchedule
    from repro.sim.rng import RngRegistry

    n_epochs = int(params.duration / params.epoch_len) + 3
    chain = HashChain(
        n_epochs + 64, anchor=RngRegistry(params.seed).stream("hashchain").bytes(32)
    )
    schedule = RoamingSchedule(
        params.n_servers, params.n_active, params.epoch_len, chain
    )
    first = schedule.epoch_index(params.attack_start)
    last = schedule.epoch_index(params.duration - CAPTURE_SLACK_S)
    reached = set()
    for epoch in range(first, last + 1):
        reached.update(
            s for s in range(params.n_servers) if schedule.is_honeypot(s, epoch)
        )
    return len(reached) == params.n_servers


def _params(workload: Workload, scenario_seed: int) -> Any:
    from repro.experiments.scenarios import TreeScenarioParams, paper_scale

    return replace(
        paper_scale(TreeScenarioParams()),
        seed=scenario_seed,
        defense=workload.defense,
        placement=workload.placement,
        duration=workload.sim_s,
        attack_start=ATTACK_START,
        attack_end=workload.sim_s,
    )


def cell_params(workload: Workload, seed: int, cell: int) -> Tuple[Any, int]:
    """Scenario parameters of cell ``cell`` of a run with ``seed``, and
    how many candidate scenario seeds were skipped to reach them.

    Candidates on which the honeypot cell's roaming schedule never turns
    some server into a honeypot are skipped: there the attackers of that
    server cannot be captured within the cell, which would then measure
    a wait for an unlucky schedule rather than the traceback.  Every
    workload takes the same scenario seed for a given cell, so all three
    carry the same topology, roles and traffic.
    """
    honeypot = WORKLOADS["fig10-even-honeypot"]
    for attempt in count():
        scenario_seed = _candidate(seed, cell, attempt)
        if _schedule_reaches_every_server(_params(honeypot, scenario_seed)):
            return _params(workload, scenario_seed), attempt
    raise AssertionError("unreachable")
