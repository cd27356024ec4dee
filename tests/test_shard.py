"""Conservative sharded execution (repro.sim.shard).

Evidence that sharding never changes results:

* layout and callback-resolution units, including the degenerate cuts
  that run serially;
* golden-journal identity — a defense-free continuous scenario with
  per-host RNG run serially and forked over 2/4 shards produces
  byte-identical causal journals, with and without a
  ``repro.shardconfig/1`` assignment;
* the fork envelope — every scenario outside it is rejected up front.
"""

import json
from dataclasses import replace

import pytest

from repro.experiments.scenarios import TreeScenarioParams, run_tree_scenario
from repro.obs import Telemetry
from repro.sim import shard as shard_mod
from repro.sim.engine import Simulator
from repro.sim.link import Link
from repro.sim.node import Host, Router
from repro.sim.rng import RngRegistry
from repro.topology.tree import TreeParams, build_tree_topology, subtree_partition


# ----------------------------------------------------------------------
# Layout / resolution / degenerate fallback
# ----------------------------------------------------------------------
def small_topo(n_leaves=24, seed=3):
    return build_tree_topology(
        TreeParams(n_leaves=n_leaves), RngRegistry(seed).stream("topology")
    )


class TestShardLayout:
    def test_layout_is_dense_and_core_is_group_zero(self):
        topo = small_topo()
        part = subtree_partition(topo)
        layout = shard_mod.shard_layout(topo.graph, part, 4)
        assert layout.label_group["core"] == 0
        assert set(layout.addr_group.values()) == set(range(layout.n_groups))
        assert layout.lookahead is not None and layout.lookahead > 0.0
        assert set(part) == set(layout.addr_group)

    def test_config_overrides_the_greedy_placement(self):
        topo = small_topo()
        part = subtree_partition(topo)
        free = shard_mod.shard_layout(topo.graph, part, 2)
        moved = next(
            lab for lab, g in free.label_group.items() if lab != "core" and g != 1
        )
        config = {"groups": {moved: 1}, "n_shards": 2}
        forced = shard_mod.shard_layout(topo.graph, part, 2, config=config)
        assert forced.label_group[moved] == 1

    def test_single_label_partition_falls_back_to_serial(self):
        topo = small_topo()
        part = {node: "core" for node in subtree_partition(topo)}
        assert not shard_mod.shard_layout(topo.graph, part, 4).parallel

    def test_one_shard_request_falls_back_to_serial(self):
        topo = small_topo()
        layout = shard_mod.shard_layout(topo.graph, subtree_partition(topo), 1)
        assert not layout.parallel
        assert shard_mod.shard_layout(topo.graph, subtree_partition(topo), 2).parallel

    def test_zero_lookahead_cut_falls_back_to_serial(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge(0, 1, delay=0.0, bandwidth=1e6)
        part = {0: "core", 1: "subA"}
        layout = shard_mod.shard_layout(g, part, 2)
        assert layout.n_groups == 2 and not layout.parallel


class TestResolveGroup:
    def setup_method(self):
        self.sim = Simulator()
        self.src = Router(self.sim, 0)
        self.dst = Host(self.sim, 1)
        self.link = Link(self.sim, self.src, self.dst, 1e6, 0.01)
        self.groups = {0: 0, 1: 1}

    def test_delivery_methods_execute_on_the_destination(self):
        ch = self.link.ab  # src -> dst
        assert shard_mod.resolve_group(ch._fused_done, self.groups) == 1
        assert shard_mod.resolve_group(ch._deliver, self.groups) == 1

    def test_housekeeping_stays_with_the_sender(self):
        ch = self.link.ab
        assert shard_mod.resolve_group(ch._tx_done, self.groups) == 0

    def test_timer_recurses_into_its_payload(self):
        timer = self.sim.every(1.0, self.dst.receive, None, None)
        bound = timer._event.fn  # Timer._fire bound method
        assert shard_mod.resolve_group(bound, self.groups) == 1
        timer.cancel()

    def test_unresolvable_callbacks_land_on_the_default(self):
        assert shard_mod.resolve_group(lambda: None, self.groups) == 0
        assert shard_mod.resolve_group(lambda: None, self.groups, default=7) == 7

    def test_host_probing_reaches_the_address(self):
        class App:
            def __init__(self, host):
                self.host = host

            def tick(self):
                pass

        app = App(self.dst)
        assert shard_mod.resolve_group(app.tick, self.groups) == 1


# ----------------------------------------------------------------------
# Golden-journal identity: serial vs 2/4 forked shards
# ----------------------------------------------------------------------
FORKABLE = TreeScenarioParams(
    n_leaves=24,
    n_attackers=6,
    duration=8.0,
    attack_start=2.0,
    attack_end=6.0,
    defense="none",
    rng_discipline="per-host",
    seed=9,
)


def journal_lines(params, **kwargs):
    telemetry = Telemetry()
    result = run_tree_scenario(params, telemetry=telemetry, **kwargs)
    lines = [
        json.dumps(e.as_dict(), sort_keys=True) for e in telemetry.journal.events
    ]
    return lines, result, telemetry


SCENARIOS = {"no-defense-per-host": FORKABLE}


@pytest.fixture(scope="module")
def serial_run():
    return journal_lines(FORKABLE)


def assert_forked_matches_serial(serial_run, params):
    serial_lines, serial_result, _ = serial_run
    lines, result, telemetry = journal_lines(params)
    assert lines == serial_lines
    assert result.events_processed == serial_result.events_processed
    assert result.legit_pct == serial_result.legit_pct
    assert result.attack_pct == serial_result.attack_pct
    assert result.capture_times == serial_result.capture_times
    return result, telemetry.extra["forked"]


class TestForkedExecution:
    def test_fork_mode_is_journal_identical_to_serial(self, serial_run):
        result, stats = assert_forked_matches_serial(
            serial_run, replace(FORKABLE, shards=2)
        )
        assert stats["shards"] == 2
        assert stats["windows"] > 0
        assert stats["lookahead"] > 0.0
        assert sum(stats["events_per_shard"]) == result.events_processed

    def test_fork_mode_rejects_unsupported_workloads(self):
        with pytest.raises(ValueError, match="defense"):
            run_tree_scenario(replace(FORKABLE, defense="honeypot", shards=2))
        with pytest.raises(ValueError, match="rng_discipline"):
            run_tree_scenario(
                replace(FORKABLE, rng_discipline="shared", shards=2)
            )

    def test_unknown_modes_are_rejected(self):
        with pytest.raises(ValueError):
            run_tree_scenario(replace(FORKABLE, rng_discipline="psychic"))
        with pytest.raises(ValueError):
            run_tree_scenario(replace(FORKABLE, shards=-1))


class TestInlineGoldenIdentity:
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    @pytest.mark.parametrize("shards", [2, 4])
    def test_journal_identical_to_serial(self, serial_run, name, shards):
        _, stats = assert_forked_matches_serial(
            serial_run, replace(SCENARIOS[name], shards=shards)
        )
        assert 2 <= stats["shards"] <= shards
        assert stats["shards"] > 2 or shards == 2
        assert len(stats["events_per_shard"]) == stats["shards"]

    def test_one_shard_is_the_serial_engine(self, serial_run):
        serial_lines, _, _ = serial_run
        lines, _, telemetry = journal_lines(replace(FORKABLE, shards=1))
        assert lines == serial_lines
        assert "forked" not in telemetry.extra

    def test_shard_config_is_honoured_end_to_end(self, serial_run, tmp_path):
        topo = small_topo(n_leaves=FORKABLE.n_leaves, seed=FORKABLE.seed)
        part = subtree_partition(topo)
        label = min(lab for lab in part.values() if lab != "core")
        config = {
            "schema": "repro.shardconfig/1",
            "by": "as",
            "n_shards": 2,
            "groups": {label: 1},
        }
        path = tmp_path / "shards.json"
        path.write_text(json.dumps(config))
        serial_lines, _, _ = serial_run
        lines, _, telemetry = journal_lines(
            replace(FORKABLE, shards=2),
            shard_config=shard_mod.load_shard_config(str(path)),
        )
        assert lines == serial_lines
        assert telemetry.extra["forked"]["shards"] == 2


class TestShardConfigErrors:
    @pytest.mark.parametrize(
        "case, text",
        [
            ("non-json", "{not json"),
            ("non-integer-group", '{"schema": "repro.shardconfig/1", '
             '"groups": {"as1": "one"}}'),
            ("wrong-schema", '{"schema": "repro.shardplan/1", '
             '"groups": {"as1": 1}}'),
            ("outside-fork-envelope", None),
        ],
    )
    def test_stats_reports_one_error_line_and_exits_2(
        self, tmp_path, capsys, case, text
    ):
        from repro.cli import main

        argv = ["stats", "--scale", "quick", "--shards", "2"]
        if text is None:
            argv += ["--defense", "honeypot"]
        else:
            path = tmp_path / "shards.json"
            path.write_text(text)
            with pytest.raises(shard_mod.ShardError):
                shard_mod.load_shard_config(str(path))
            argv += ["--defense", "none", "--shard-config", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
