"""Legacy-equivalence: policy refactor changed zero journal bytes.

``tests/fixtures/journals/continuous.jsonl`` and ``onoff.jsonl`` were
generated *before* the attacker code was refactored onto the
:class:`~repro.traffic.policies.AttackerPolicy` interface; replaying
the same scenarios through the policy layer must reproduce them
byte-for-byte.  Any drift here means the refactor perturbed an RNG
draw or event ordering on the seed path — the one thing the policy
subsystem promised not to do.

``follower.jsonl`` is different: it was pinned *after* the
``FollowerAttackHost`` stop()/restart fix (a deliberate behavior
change — the pre-fix bot leaked a stale start event and a poll timer),
so it guards the policy-layer follower against future drift rather
than proving pre-refactor identity.

``interas.jsonl`` and ``hierarchical.jsonl`` pin the defense-lifecycle
journals of the two back-propagation engines that do not run through
the tree scenario: a progressive :class:`InterASBackprop` on an AS chain
and a progressive :class:`HierarchicalBackprop` against a bursty
attacker.  Regenerate them (only for a deliberate behaviour change)
with ``PYTHONPATH=src python -m tests.test_policy_equivalence``.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.runner import run_many
from repro.experiments.scenarios import TreeScenarioParams
from repro.obs import Telemetry
from repro.sim.engine import Simulator

FIXTURES = Path(__file__).parent / "fixtures" / "journals"

TINY = TreeScenarioParams(
    n_leaves=12,
    n_attackers=3,
    duration=12.0,
    attack_start=2.0,
    attack_end=10.0,
    epoch_len=4.0,
)

LEGACY_POINTS = {
    "legacy/continuous": (replace(TINY, seed=11), "continuous.jsonl"),
    "legacy/onoff": (
        replace(TINY, seed=13, attacker_policy="onoff", t_on=1.5, t_off=1.0),
        "onoff.jsonl",
    ),
    "legacy/follower": (
        replace(TINY, seed=17, attacker_policy="follower"),
        "follower.jsonl",
    ),
}


class TestLegacyEquivalence:
    @pytest.mark.parametrize("name", sorted(LEGACY_POINTS))
    def test_journal_bytes_unchanged(self, name, tmp_path):
        params, fixture = LEGACY_POINTS[name]
        telemetry = Telemetry()
        run_many({name: params}, telemetry=telemetry)
        out = tmp_path / fixture
        telemetry.journal.write_jsonl(out)
        expected = (FIXTURES / fixture).read_bytes()
        got = out.read_bytes()
        assert got == expected, (
            f"{name}: journal drifted from the committed fixture "
            f"({len(got)} vs {len(expected)} bytes). The policy layer must "
            f"replay the seed attacker draw-for-draw; if this change is "
            f"intentional (it almost never is), regenerate "
            f"tests/fixtures/journals/{fixture}."
        )

    def test_fixtures_are_nonempty(self):
        # Guard against a silently-truncated fixture making the byte
        # comparison vacuous.
        for _, fixture in LEGACY_POINTS.values():
            data = (FIXTURES / fixture).read_bytes()
            assert data.count(b"\n") > 20, f"{fixture} looks truncated"

    def test_onoff_alias_of_continuous_with_bursts(self):
        # "onoff" is continuous with bursts defaulted: explicit t_on/t_off
        # must produce the identical journal under either name.
        a, b = Telemetry(), Telemetry()
        p_on = replace(TINY, seed=13, attacker_policy="onoff", t_on=1.5, t_off=1.0)
        p_cont = replace(p_on, attacker_policy="continuous")
        run_many({"x": p_on}, telemetry=a)
        run_many({"x": p_cont}, telemetry=b)
        ea = [e.as_dict() for e in a.journal.events]
        eb = [e.as_dict() for e in b.journal.events]
        assert ea == eb


def interas_journal() -> Telemetry:
    """Progressive inter-AS traceback down a 20-transit-AS chain: one
    continuous and one on-off attacker in the stub, roughly half the
    epochs honeypot epochs, so sessions stall, report their frontier
    and resume before the stub closes both attackers' ports."""
    import networkx as nx

    from repro.backprop.interas import (
        ASAttackerSpec,
        InterASBackprop,
        InterASConfig,
    )
    from repro.honeypots.schedule import BernoulliSchedule
    from repro.topology.aslevel import ASTopology

    hops = 20
    graph = nx.path_graph(hops + 2)
    for node in graph.nodes:
        graph.nodes[node]["transit"] = 0 < node < hops + 1
    topo = ASTopology(
        graph=graph,
        victim_as=0,
        transit_ases=list(range(1, hops + 1)),
        stub_ases=[hops + 1],
    )
    sim = Simulator()
    telemetry = Telemetry(sim)
    engine = InterASBackprop(
        topo,
        BernoulliSchedule(0.5, 10.0, seed=3),
        [
            ASAttackerSpec(1, hops + 1, 10.0),
            ASAttackerSpec(2, hops + 1, 10.0, t_on=1.0, t_off=9.0, phase=2.0),
        ],
        InterASConfig(tau=0.5, per_hop_delay=0.05, intra_as_capture_delay=0.5),
        progressive=True,
        sim=sim,
        telemetry=telemetry,
    )
    engine.run(until=100.0)
    return telemetry


def hierarchical_journal() -> Telemetry:
    """Progressive hierarchical traceback across 5 AS hops against an
    attacker sending 0.5 s bursts once per 10 s epoch (too short to walk
    every hop in one epoch), so the frontier list resumes it."""
    from repro.backprop.hierarchical import (
        HierarchicalBackprop,
        build_multi_as_network,
    )
    from repro.backprop.intraas import IntraASConfig
    from repro.traffic.sources import CBRSource, OnOffSource

    topo = build_multi_as_network([1, 0, 0, 0, 0, 1])
    sim = topo.network.sim
    telemetry = Telemetry(sim)
    HierarchicalBackprop(
        topo, epoch_len=10.0, progressive=True,
        config=IntraASConfig(trigger_threshold=2), telemetry=telemetry,
    )
    host = topo.sites[5].hosts[0]
    cbr = CBRSource(
        sim, host, topo.server.addr, rate_bps=4e4, packet_size=500,
        flow=("attack", host.addr), src_fn=lambda: 1_000_000_123,
    )
    OnOffSource(sim, cbr, t_on=0.5, t_off=9.5).start(at=1.0)
    topo.network.run(until=100.0)
    return telemetry


BACKPROP_POINTS = {
    "interas.jsonl": interas_journal,
    "hierarchical.jsonl": hierarchical_journal,
}


class TestBackpropJournals:
    """The inter-AS and hierarchical engines' journals, byte for byte."""

    @pytest.mark.parametrize("fixture", sorted(BACKPROP_POINTS))
    def test_journal_bytes_unchanged(self, fixture, tmp_path):
        out = tmp_path / fixture
        BACKPROP_POINTS[fixture]().journal.write_jsonl(out)
        expected = (FIXTURES / fixture).read_bytes()
        got = out.read_bytes()
        assert got == expected, (
            f"{fixture}: journal drifted from the committed fixture "
            f"({len(got)} vs {len(expected)} bytes); regenerate it only "
            f"for a deliberate behaviour change."
        )

    @pytest.mark.parametrize("fixture", sorted(BACKPROP_POINTS))
    def test_fixture_covers_the_defense_lifecycle(self, fixture):
        # Non-vacuity: a fixture holding only run markers would pin
        # nothing the back-propagation code records.
        names = {
            json.loads(line)["name"]
            for line in (FIXTURES / fixture).read_text().splitlines()
            if '"name"' in line
        }
        for kind in ("port_close", "progressive_resume", "as_session_close"):
            assert kind in names, f"{fixture} records no {kind}"


if __name__ == "__main__":
    for name, build in BACKPROP_POINTS.items():
        build().journal.write_jsonl(FIXTURES / name)
