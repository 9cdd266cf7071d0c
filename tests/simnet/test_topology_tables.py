""":class:`GeoTopology` as two tables: access routes and sync links.

A property test drives random reroutes, node flips and partitions (access
pairs and hub pairs) against a dictionary reference model; the unit tests
pin what ``add_link`` accepts and that the transport follows the tables.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import TrainingConfig
from repro.core.trainer import SpatioTemporalTrainer
from repro.data.partition import IIDPartitioner
from repro.simnet.latency import ConstantLatency
from repro.simnet.link import Link
from repro.simnet.topology import GeoTopology, multi_hub_star_topology
from repro.simnet.transport import Transport

END_SYSTEMS, SERVERS = 3, 3

STEPS = st.lists(st.one_of(
    st.tuples(st.just("reroute"), st.integers(0, END_SYSTEMS - 1),
              st.integers(0, SERVERS - 1)),
    st.tuples(st.just("node"), st.integers(0, END_SYSTEMS + SERVERS - 1), st.booleans()),
    # An access partition cuts an end-system from its hub of the moment.
    st.tuples(st.just("access_partition"), st.integers(0, END_SYSTEMS - 1), st.booleans()),
    st.tuples(st.just("hub_partition"), st.integers(0, SERVERS - 1),
              st.integers(0, SERVERS - 1), st.booleans()),
), max_size=30)


def link_pair(a, b):
    return frozenset((a, b))


class TestAgainstAReferenceModel:
    @settings(max_examples=100, deadline=None)
    @given(assignment=st.lists(st.integers(0, SERVERS - 1),
                               min_size=END_SYSTEMS, max_size=END_SYSTEMS),
           steps=STEPS)
    def test_random_failure_sequences(self, assignment, steps):
        topology = multi_hub_star_topology(END_SYSTEMS, SERVERS, assignment=assignment)
        end_systems, servers = topology.end_systems, topology.servers
        nodes = end_systems + servers
        # The reference model: plain dictionaries and a set.
        hub = {name: servers[shard] for name, shard in zip(end_systems, assignment)}
        up = dict.fromkeys(nodes, True)
        partitioned = set()
        uplinks = {name: topology.uplink(name) for name in end_systems}
        downlinks = {name: topology.downlink(name) for name in end_systems}
        sync = {(a, b): topology.inter_server_link(a, b)
                for a in servers for b in servers if a != b}
        links = dict(topology.links())

        for step in steps:
            kind, first, second = step[:3]
            if kind == "access_partition":
                name = end_systems[first]
                topology.set_edge_partitioned(name, hub[name], second)
                (partitioned.add if second else partitioned.discard)(link_pair(name, hub[name]))
            elif kind == "reroute":
                name, target = end_systems[first], servers[second]
                topology.reroute_end_system(name, target)
                if target != hub[name]:
                    # The partition belonged to the old access pair.
                    partitioned.discard(link_pair(name, hub[name]))
                    hub[name] = target
            elif kind == "node":
                topology.set_node_up(nodes[first], second)
                up[nodes[first]] = second
            else:
                a, b = servers[first], servers[second]
                if a == b:
                    with pytest.raises(KeyError):
                        topology.set_edge_partitioned(a, b, step[3])
                    continue
                topology.set_edge_partitioned(a, b, step[3])
                (partitioned.add if step[3] else partitioned.discard)(link_pair(a, b))

            for name in nodes:
                assert topology.is_up(name) is up[name]
            for name in end_systems:
                route = topology.route(name)
                assert route.hub == hub[name] == topology.hub_of(name)
                assert route.uplink is uplinks[name] is topology.uplink(name)
                assert route.downlink is downlinks[name] is topology.downlink(name)
                usable = (up[name] and up[hub[name]]
                          and link_pair(name, hub[name]) not in partitioned)
                assert route.uplink.up is usable and route.downlink.up is usable
            for (a, b), link in sync.items():
                assert topology.inter_server_link(a, b) is link
                assert link.up is (up[a] and up[b] and link_pair(a, b) not in partitioned)
            now = dict(topology.links())
            assert list(now) == list(links)
            assert all(now[key] is link for key, link in links.items())


def make_multi_hub():
    return multi_hub_star_topology(4, 2, latencies_s=[0.001, 0.002, 0.003, 0.004],
                                   inter_server_latency_s=0.0005)


def make_link(seed):
    return Link(latency=ConstantLatency(0.001), seed=seed)


class TestAddLink:
    def test_a_second_hub_raises_at_add_link(self):
        topology = make_multi_hub()
        with pytest.raises(ValueError, match="already hangs off 'server_0'"):
            topology.add_link("end_system_0", "server_1", make_link(0), make_link(1))
        assert topology.hub_of("end_system_0") == "server_0"

    @pytest.mark.parametrize("pair", [("server_0", "end_system_0"),
                                      ("end_system_0", "end_system_1"),
                                      ("server_0", "server_0")])
    def test_only_end_system_to_hub_or_hub_to_hub(self, pair):
        topology = make_multi_hub()
        with pytest.raises(ValueError, match="cannot link"):
            topology.add_link(*pair, make_link(0), make_link(1))

    def test_both_links_are_required(self):
        topology = GeoTopology()
        topology.add_node("server", role="server")
        topology.add_node("client")
        with pytest.raises(TypeError):
            topology.add_link("client", "server", make_link(0))
        uplink, downlink = make_link(0), make_link(1)
        topology.add_link("client", "server", uplink, downlink)
        assert tuple(topology.route("client")) == ("server", uplink, downlink)
        assert topology.link("client", "server") is uplink
        assert topology.link("server", "client") is downlink

    def test_unknown_names(self):
        topology = make_multi_hub()
        with pytest.raises(KeyError, match="unknown node"):
            topology.is_up("nowhere")
        with pytest.raises(KeyError, match="not a linked end-system"):
            topology.hub_of("nowhere")


class TestTransportFollowsTheTables:
    def test_reroute(self):
        topology = make_multi_hub()
        transport = Transport(topology)
        uplink = topology.uplink("end_system_1")
        topology.reroute_end_system("end_system_1", "server_0")
        message = transport.send_to_server("end_system_1", np.zeros(2), now=0.0)
        assert message.destination == "server_0"
        assert uplink.messages_sent == 1
        topology.reroute_end_system("end_system_1", "server_1")
        message = transport.send_to_end_system("end_system_1", np.zeros(2), now=0.0)
        assert message.source == "server_1"

    def test_health_flips_reach_the_route_links(self):
        topology = make_multi_hub()
        transport = Transport(topology)
        uplink, downlink = topology.uplink("end_system_1"), topology.downlink("end_system_1")

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

    def test_an_access_partition_stays_with_its_pair(self):
        """Moving away drops the partition: coming back finds the links up."""
        topology = make_multi_hub()
        uplink = topology.uplink("end_system_1")
        topology.set_edge_partitioned("end_system_1", "server_1", True)
        topology.reroute_end_system("end_system_1", "server_0")
        assert uplink.up is True
        with pytest.raises(KeyError, match="no link"):
            topology.set_edge_partitioned("end_system_1", "server_1", False)
        topology.reroute_end_system("end_system_1", "server_1")
        assert uplink.up is True

    def test_links_keys(self):
        topology = make_multi_hub()
        assert list(dict(topology.links())) == [
            *(f"{direction}::end_system_{index}" for index in range(4)
              for direction in ("up", "down")),
            "sync::server_0::server_1", "sync::server_1::server_0",
        ]


class TestRoutesUnderTheEngine:
    """Failover rebalance + failback and a scripted client move, end to end."""

    @pytest.mark.parametrize("mode", ["synchronous", "asynchronous"])
    def test_routes_follow_every_reroute(self, tiny_split_spec, tiny_splits,
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
        links = dict(topology.links())
        hubs = {name: topology.hub_of(name) for name in topology.end_systems}
        reroute = topology.reroute_end_system
        moves = []

        def checked_reroute(end_system, new_hub):
            reroute(end_system, new_hub)
            moves.append((end_system, new_hub))
            assert topology.hub_of(end_system) == new_hub

        monkeypatch.setattr(topology, "reroute_end_system", checked_reroute)
        trainer.train()
        stats = trainer.engine.stats
        assert stats.shard_crashes == 1 and stats.clients_reassigned >= 3
        # The scripted move, the failover off server_0 and the failback onto it.
        assert ("end_system_1", "server_2") in moves
        assert any(hub != "server_0" for name, hub in moves if name == "end_system_0")
        assert moves.count(("end_system_0", "server_0")) == 1
        hubs.update(moves)  # each end-system's last target
        assert {name: topology.hub_of(name) for name in topology.end_systems} == hubs
        assert all(dict(topology.links())[key] is link for key, link in links.items())
        for system_id, shard_index in trainer.cluster.assignment.items():
            assert topology.hub_of(f"end_system_{system_id}") == f"server_{shard_index}"
