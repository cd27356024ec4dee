"""Deterministic engine-cost counters on a small fixed tree scenario.

Link completions (``Channel._fused_done``/``_drain``/``_tx_done``/
``_deliver``) are about nine in ten dispatched events, and nothing ever
cancels them, so the engine posts them as bare heap entries with no
:class:`~repro.sim.engine.Event` handle.  This witness counts every
handle the public ``schedule*`` API issues and bounds it by the
callbacks that really need one: CBR ticks, timer firings, the first
arming of each source and timer, and one attack-stop event per
attacker.  A change that routes link completions back through the
handle API issues one handle per hop and fails the bound by two orders
of magnitude.  The pinned ``events_processed`` fails on any change to
what the scenario dispatches.
"""

from collections import Counter

from repro.experiments.scenarios import TreeScenarioParams, run_tree_scenario
from repro.sim.engine import Event, Simulator, Timer
from repro.traffic.sources import CBRSource

PARAMS = TreeScenarioParams(
    n_leaves=20,
    n_attackers=5,
    duration=20.0,
    attack_start=5.0,
    attack_end=15.0,
    seed=3,
    defense="none",
)


def _counted(monkeypatch, counts, owner, attr, key, weight=None):
    """Wrap ``owner.attr`` so each call adds to ``counts[key]``."""
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        counts[key] += 1 if weight is None else weight(*args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, wrapper)


def test_link_completions_issue_no_event_handles(monkeypatch):
    counts = Counter()
    # Handles issued: schedule() goes through schedule_at(), and
    # schedule_many() issues one per time.
    _counted(monkeypatch, counts, Simulator, "schedule_at", "handles")
    _counted(
        monkeypatch, counts, Simulator, "schedule_many", "handles",
        weight=lambda sim, times, *args: len(times),
    )
    _counted(monkeypatch, counts, Event, "__init__", "constructed")
    _counted(monkeypatch, counts, CBRSource, "_tick", "ticks")
    _counted(monkeypatch, counts, CBRSource, "start", "starts")
    _counted(monkeypatch, counts, Timer, "_fire", "timer_fires")
    _counted(monkeypatch, counts, Simulator, "every", "timers")

    result = run_tree_scenario(PARAMS)

    assert result.events_processed == 385608
    needed = (
        counts["ticks"]
        + counts["timer_fires"]
        + counts["starts"]
        + counts["timers"]
        + PARAMS.n_attackers
    )
    assert counts["handles"] <= needed, counts
    # Every handle is a fresh object: none is reissued.
    assert counts["constructed"] == counts["handles"]
    # Link completions are the bulk of the dispatched events.
    assert counts["handles"] < 0.1 * result.events_processed
