"""The remembered ``(hub, uplink, downlink)`` routes of :class:`GeoTopology`.

Routes are resolved by one neighbour scan and then kept; every method that
rewires the graph must drop them, and the health setters — which only flip
``Link.up`` on the same ``Link`` objects — need not.  ``fresh_scan`` is the
per-call resolution the cache replaced, kept here as the reference.
"""

import numpy as np
import pytest

from repro.core.config import TrainingConfig
from repro.core.trainer import SpatioTemporalTrainer
from repro.data.partition import IIDPartitioner
from repro.simnet.latency import ConstantLatency
from repro.simnet.link import Link
from repro.simnet.topology import GeoTopology, multi_hub_star_topology
from repro.simnet.transport import Transport


def fresh_scan(topology, end_system):
    """``(hub, uplink, downlink)`` straight from the graph, no memory."""
    graph = topology.graph
    hubs = [neighbor for neighbor in graph.neighbors(end_system)
            if graph.nodes[neighbor].get("role") == "server"]
    assert len(hubs) == 1
    data = graph.edges[end_system, hubs[0]]
    assert data["source"] == end_system
    downlink = data.get("downlink")
    return hubs[0], data["link"], downlink if downlink is not None else data["link"]


def assert_routes_fresh(topology):
    for name in topology.end_systems:
        hub, uplink, downlink = fresh_scan(topology, name)
        assert topology.hub_of(name) == hub
        assert topology.uplink(name) is uplink
        assert topology.downlink(name) is downlink
        assert tuple(topology.route(name)) == (hub, uplink, downlink)


def count_scans(topology, monkeypatch):
    """Count neighbour scans from here on (returns the live counter)."""
    scans = []
    neighbors = topology.graph.neighbors

    def counted(node):
        scans.append(node)
        return neighbors(node)

    monkeypatch.setattr(topology.graph, "neighbors", counted)
    return scans


def make_multi_hub():
    return multi_hub_star_topology(4, 2, latencies_s=[0.001, 0.002, 0.003, 0.004],
                                   inter_server_latency_s=0.0005)


class TestRouteCache:
    def test_lookups_scan_once_per_end_system(self, monkeypatch):
        topology = make_multi_hub()
        transport = Transport(topology)
        scans = count_scans(topology, monkeypatch)
        for _ in range(5):
            for name in topology.end_systems:
                assert transport.send_to_server(name, np.zeros(2), now=0.0) is not None
                assert transport.send_to_end_system(name, np.zeros(2), now=0.0) is not None
                for lookup in (topology.hub_of, topology.uplink, topology.downlink):
                    lookup(name)
        assert sorted(scans) == sorted(topology.end_systems)
        assert_routes_fresh(topology)

    def test_reroute_invalidates(self):
        topology = make_multi_hub()
        assert_routes_fresh(topology)  # warm every route
        topology.reroute_end_system("end_system_1", "server_0")
        assert topology.hub_of("end_system_1") == "server_0"
        assert_routes_fresh(topology)
        message = Transport(topology).send_to_server("end_system_1", np.zeros(2), now=0.0)
        assert message.destination == "server_0"
        topology.reroute_end_system("end_system_1", "server_1")
        assert topology.hub_of("end_system_1") == "server_1"
        assert_routes_fresh(topology)

    def test_symmetric_edge_downlink_falls_back_to_the_uplink(self):
        topology = GeoTopology()
        topology.add_node("server", role="server")
        topology.add_node("client")
        shared = Link(latency=ConstantLatency(0.001), seed=0)
        topology.add_link("client", "server", shared)
        assert topology.uplink("client") is shared
        assert topology.downlink("client") is shared
        assert_routes_fresh(topology)

    def test_health_flips_are_seen_through_the_cached_links(self, monkeypatch):
        """``set_node_up`` / ``set_edge_partitioned`` flip ``Link.up`` on the
        very objects a route holds, so they need no invalidation."""
        topology = make_multi_hub()
        transport = Transport(topology)
        uplink, downlink = topology.uplink("end_system_1"), topology.downlink("end_system_1")
        scans = count_scans(topology, monkeypatch)

        topology.set_node_up("server_1", False)
        assert transport.send_to_server("end_system_1", np.zeros(2), now=0.0) is None
        assert transport.send_to_end_system("end_system_1", np.zeros(2), now=0.0) is None
        assert (uplink.admin_dropped, downlink.admin_dropped) == (1, 1)
        topology.set_node_up("server_1", True)
        assert transport.send_to_server("end_system_1", np.zeros(2), now=0.0) is not None

        topology.set_edge_partitioned("end_system_1", "server_1", True)
        assert transport.send_to_server("end_system_1", np.zeros(2), now=0.0) is None
        assert transport.send_to_end_system("end_system_1", np.zeros(2), now=0.0) is None
        assert (uplink.admin_dropped, downlink.admin_dropped) == (2, 2)
        topology.set_edge_partitioned("end_system_1", "server_1", False)
        assert transport.send_to_end_system("end_system_1", np.zeros(2), now=0.0) is not None

        assert topology.uplink("end_system_1") is uplink
        assert topology.downlink("end_system_1") is downlink
        assert scans == []  # every lookup above was served from memory

    def test_errors_are_not_remembered(self):
        topology = make_multi_hub()
        for _ in range(2):
            with pytest.raises(KeyError, match="unknown node"):
                topology.hub_of("nowhere")
            with pytest.raises(KeyError, match="unknown node"):
                topology.uplink("nowhere")
        topology.add_node("roamer")
        for hub in ("server_0", "server_1"):
            topology.add_link("roamer", hub, Link(latency=ConstantLatency(0.001), seed=0))
        for _ in range(2):
            with pytest.raises(ValueError, match="2 server hubs"):
                topology.hub_of("roamer")
            with pytest.raises(ValueError, match="2 server hubs"):
                topology.downlink("roamer")
        # A node that appears later resolves: the earlier failure left nothing behind.
        topology.add_node("nowhere")
        topology.add_link("nowhere", "server_0", Link(latency=ConstantLatency(0.001), seed=0))
        assert topology.hub_of("nowhere") == "server_0"

    def test_adding_a_link_after_first_use_invalidates(self):
        topology = make_multi_hub()
        assert topology.hub_of("end_system_0") == "server_0"  # remembered
        topology.add_link("end_system_0", "server_1", Link(latency=ConstantLatency(0.001), seed=0))
        with pytest.raises(ValueError, match="2 server hubs"):
            topology.hub_of("end_system_0")
        assert topology.hub_of("end_system_1") == "server_1"  # the others still resolve


class TestRoutesUnderTheEngine:
    """Failover rebalance + failback and a scripted client move, end to end."""

    @pytest.mark.parametrize("mode", ["synchronous", "asynchronous"])
    def test_every_reroute_leaves_fresh_routes(self, tiny_split_spec, tiny_splits,
                                               normalize, monkeypatch, mode):
        train, _ = tiny_splits
        parts = IIDPartitioner(4, seed=5).partition(train)
        topology = multi_hub_star_topology(
            4, 3, assignment=[0, 1, 2, 0], latencies_s=[0.001, 0.01, 0.01, 0.001])
        config = TrainingConfig.fast_debug(
            epochs=3, num_servers=3, mode=mode, server_sync_every=2,
            server_sync_mode="staleness", failure_schedule=[(0.12, 0, 0.08)],
            failover_policy="rebalance", failover_delay_s=0.001,
            chaos_schedule=[("move", 0.02, 1, 2)])
        trainer = SpatioTemporalTrainer(tiny_split_spec, parts, config, topology=topology,
                                        train_transform=normalize)
        reroute = topology.reroute_end_system
        moves = []

        def checked_reroute(end_system, new_hub):
            assert_routes_fresh(topology)  # warm, so a missed invalidation would show
            reroute(end_system, new_hub)
            moves.append((end_system, new_hub))
            assert topology.hub_of(end_system) == new_hub
            assert_routes_fresh(topology)

        monkeypatch.setattr(topology, "reroute_end_system", checked_reroute)
        trainer.train()
        stats = trainer.engine.stats
        assert stats.shard_crashes == 1 and stats.clients_reassigned >= 3
        # The scripted move, the failover off server_0 and the failback onto it.
        assert ("end_system_1", "server_2") in moves
        assert any(hub != "server_0" for name, hub in moves if name == "end_system_0")
        assert moves.count(("end_system_0", "server_0")) == 1
        assert_routes_fresh(topology)
        for system_id, shard_index in trainer.cluster.assignment.items():
            assert topology.hub_of(f"end_system_{system_id}") == f"server_{shard_index}"
