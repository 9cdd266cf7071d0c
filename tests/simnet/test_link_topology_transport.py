"""Tests for links, topologies and the transport layer."""

import numpy as np
import pytest

from repro.simnet.latency import ConstantLatency
from repro.simnet.link import Link, Message, payload_bytes
from repro.simnet.topology import WORLD_CITIES, GeoTopology, geo_star_topology, star_topology
from repro.simnet.transport import TrafficLog, Transport


class TestPayloadBytes:
    def test_numpy_array(self):
        assert payload_bytes(np.zeros((4, 4), dtype=np.float64)) == 128

    def test_dict_and_list_recursive(self):
        payload = {"a": np.zeros(2), "b": [np.zeros(4), np.zeros(4)]}
        assert payload_bytes(payload) > 16 + 32 + 64

    def test_none_and_scalars(self):
        assert payload_bytes(None) == 0
        assert payload_bytes(42) == 64


class TestLink:
    def test_transfer_time_includes_latency_and_bandwidth(self):
        link = Link(latency=ConstantLatency(0.010), bandwidth_bps=8e6, seed=0)  # 1 MB/s
        assert link.transfer_time(1_000_000) == pytest.approx(0.010 + 1.0)
        assert link.expected_transfer_time(0) == pytest.approx(0.010)

    def test_infinite_bandwidth(self):
        link = Link(latency=ConstantLatency(0.005), bandwidth_bps=None, seed=0)
        assert link.transfer_time(10 ** 9) == pytest.approx(0.005)

    def test_send_stamps_arrival_time(self):
        link = Link(latency=ConstantLatency(0.02), bandwidth_bps=None, seed=0)
        message = link.send("client", "server", np.zeros(10), now=5.0)
        assert isinstance(message, Message)
        assert message.arrival_time == pytest.approx(5.02)
        assert message.transit_time == pytest.approx(0.02)
        assert message.size_bytes == 80

    def test_drop_probability_one_is_rejected_but_high_drop_works(self):
        with pytest.raises(ValueError):
            Link(drop_probability=1.0, seed=0)
        link = Link(latency=ConstantLatency(0.0), drop_probability=0.99, seed=0)
        results = [link.send("a", "b", np.zeros(1), now=0.0) for _ in range(200)]
        dropped = sum(result is None for result in results)
        assert dropped > 150
        assert link.stats()["drop_rate"] == pytest.approx(dropped / 200)

    def test_stats_counters(self):
        link = Link(latency=ConstantLatency(0.001), seed=0)
        link.send("a", "b", np.zeros(100), now=0.0)
        stats = link.stats()
        assert stats["messages_sent"] == 1
        assert stats["bytes_sent"] == 800

    def test_validation(self):
        with pytest.raises(ValueError):
            Link(bandwidth_bps=0, seed=0)


class TestTopology:
    def test_star_topology_structure(self):
        topology = star_topology(3, latencies_s=[0.001, 0.002, 0.003])
        assert topology.server == "server"
        assert len(topology.end_systems) == 3
        latencies = topology.mean_latencies()
        assert latencies["end_system_2"] == pytest.approx(0.003)

    def test_star_topology_default_latencies(self):
        topology = star_topology(2)
        assert all(latency == pytest.approx(0.005) for latency in topology.mean_latencies().values())

    def test_star_topology_with_jitter(self):
        topology = star_topology(2, jitter_std_s=0.001)
        samples = {name: topology.uplink(name).transfer_time(0) for name in topology.end_systems}
        assert all(value > 0 for value in samples.values())

    def test_star_topology_validation(self):
        with pytest.raises(ValueError):
            star_topology(0)
        with pytest.raises(ValueError):
            star_topology(3, latencies_s=[0.001])

    def test_geo_star_topology_latency_orders_by_distance(self):
        topology = geo_star_topology(["tokyo", "new_york"], server_city="seoul",
                                     jitter_std_s=0.0)
        latencies = topology.mean_latencies()
        tokyo = [v for k, v in latencies.items() if "tokyo" in k][0]
        new_york = [v for k, v in latencies.items() if "new_york" in k][0]
        assert new_york > tokyo

    def test_geo_star_topology_unknown_city(self):
        with pytest.raises(KeyError, match="unknown cities"):
            geo_star_topology(["atlantis"])

    def test_manual_topology_api(self):
        topology = GeoTopology()
        topology.add_node("server", role="server")
        topology.add_node("clinic", role="end_system")
        topology.add_link("clinic", "server", Link(latency=ConstantLatency(0.001), seed=0),
                          Link(latency=ConstantLatency(0.002), seed=1, direction="down"))
        assert topology.uplink("clinic").latency.mean() == pytest.approx(0.001)
        assert topology.downlink("clinic").latency.mean() == pytest.approx(0.002)
        with pytest.raises(ValueError):
            topology.add_node("clinic")
        with pytest.raises(KeyError):
            topology.add_link("clinic", "ghost", Link(seed=0), Link(seed=1))
        with pytest.raises(KeyError):
            topology.link("server", "ghost")

    def test_server_property_requires_exactly_one_server(self):
        topology = GeoTopology()
        topology.add_node("a", role="end_system")
        with pytest.raises(ValueError):
            _ = topology.server

    def test_world_cities_have_coordinates(self):
        assert all(len(coords) == 2 for coords in WORLD_CITIES.values())
        assert "seoul" in WORLD_CITIES


class TestAsymmetricLinks:
    def test_star_topology_has_separate_downlinks(self):
        topology = star_topology(2)
        for name in topology.end_systems:
            assert topology.downlink(name) is not topology.uplink(name)
            assert topology.uplink(name).direction == "up"
            assert topology.downlink(name).direction == "down"

    def test_geo_star_topology_has_separate_downlinks(self):
        topology = geo_star_topology(["tokyo", "new_york"], server_city="seoul")
        for name in topology.end_systems:
            assert topology.downlink(name) is not topology.uplink(name)

    def test_downlink_latency_override(self):
        topology = star_topology(2, latencies_s=[0.001, 0.002],
                                 downlink_latencies_s=[0.01, 0.02])
        assert topology.uplink("end_system_1").latency.mean() == pytest.approx(0.002)
        assert topology.downlink("end_system_1").latency.mean() == pytest.approx(0.02)

    def test_transport_downlink_traffic_does_not_touch_uplink(self):
        """Regression: send_to_end_system used topology.uplink(), commingling
        gradient-return traffic into the uplink's counters."""
        topology = star_topology(1)
        transport = Transport(topology)
        transport.send_to_end_system("end_system_0", np.zeros(100), now=0.0)
        assert topology.uplink("end_system_0").messages_sent == 0
        assert topology.downlink("end_system_0").messages_sent == 1
        assert transport.log.downlink_messages == 1
        assert transport.log.uplink_messages == 0

    def test_per_direction_drop_counters(self):
        topology = star_topology(1, drop_probability=0.0,
                                 downlink_drop_probability=0.99, seed=0)
        transport = Transport(topology)
        for _ in range(100):
            transport.send_to_server("end_system_0", np.zeros(4), now=0.0)
            transport.send_to_end_system("end_system_0", np.zeros(4), now=0.0)
        assert transport.log.uplink_dropped == 0
        assert transport.log.downlink_dropped > 50
        assert transport.log.dropped_messages == transport.log.downlink_dropped
        totals = topology.dropped_totals()
        assert totals["uplink"] == 0
        assert totals["downlink"] == transport.log.downlink_dropped


class TestTransport:
    def make_transport(self, latency=0.01):
        topology = star_topology(2, latencies_s=[latency, latency])
        return Transport(topology), topology

    def test_send_to_server_records_uplink(self):
        transport, _ = self.make_transport()
        message = transport.send_to_server("end_system_0", np.zeros(100), now=0.0)
        assert message.arrival_time > 0.0
        assert transport.log.uplink_messages == 1
        assert transport.log.uplink_bytes == 800

    def test_send_to_end_system_records_downlink(self):
        transport, _ = self.make_transport()
        transport.send_to_end_system("end_system_1", np.zeros(50), now=1.0)
        assert transport.log.downlink_messages == 1
        assert transport.log.total_bytes == 400

    def test_clock_does_not_rewrite_send_times(self):
        """A late observation on one link must not delay an independent
        transfer that was handed over earlier."""
        transport, _ = self.make_transport(latency=0.01)
        transport.send_to_server("end_system_0", np.zeros(1), now=5.0)
        message = transport.send_to_server("end_system_1", np.zeros(1), now=1.0)
        assert message.created_at == pytest.approx(1.0)
        assert message.arrival_time < 5.0

    def test_dropped_messages_counted(self):
        topology = star_topology(1, latencies_s=[0.001], drop_probability=0.9, seed=0)
        transport = Transport(topology)
        for _ in range(50):
            transport.send_to_server("end_system_0", np.zeros(10), now=0.0)
        assert transport.log.dropped_messages > 20

    def test_summary_and_reset(self):
        transport, _ = self.make_transport()
        transport.send_to_server("end_system_0", np.zeros(10), now=0.0)
        summary = transport.log.summary()
        assert summary["uplink_messages"] == 1
        assert summary["mean_transit_time_s"] > 0
        old_log = transport.reset_log()
        assert isinstance(old_log, TrafficLog)
        assert transport.log.uplink_messages == 0

    def test_empty_log_statistics(self):
        log = TrafficLog()
        assert log.mean_transit_time == 0.0
        assert log.max_transit_time == 0.0
        assert log.total_bytes == 0


class TestNodeHealthAndRerouting:
    """Failure-injection support: hub down-marking and uplink rerouting."""

    def make_multi_hub(self):
        from repro.simnet.topology import multi_hub_star_topology

        return multi_hub_star_topology(4, 2, latencies_s=[0.002] * 4, seed=0)

    def test_nodes_default_up(self):
        topology = self.make_multi_hub()
        assert topology.is_up("server_0")
        assert topology.is_up("end_system_0")
        with pytest.raises(KeyError):
            topology.is_up("nowhere")

    def test_down_hub_kills_incident_links(self):
        topology = self.make_multi_hub()
        transport = Transport(topology)
        topology.set_node_up("server_1", False)
        # end_system_1 hangs off server_1 (static_hash: 1 % 2).
        assert topology.uplink("end_system_1").up is False
        assert topology.downlink("end_system_1").up is False
        assert topology.inter_server_link("server_0", "server_1").up is False
        # The other hub's client edges are untouched.
        assert topology.uplink("end_system_0").up is True
        # Anything sent over a dead link is deterministically lost and
        # counted on both the link and the transport log.
        assert transport.send_to_server("end_system_1", np.zeros(4), now=0.0) is None
        assert transport.send_to_end_system("end_system_1", np.zeros(4), now=0.0) is None
        assert transport.send_between_servers("server_0", "server_1",
                                              np.zeros(4), now=0.0) is None
        assert transport.log.uplink_dropped == 1
        assert transport.log.downlink_dropped == 1
        assert transport.log.sync_dropped == 1
        assert topology.uplink("end_system_1").messages_dropped == 1
        # Recovery restores every incident link.
        topology.set_node_up("server_1", True)
        assert topology.uplink("end_system_1").up is True
        assert transport.send_to_server("end_system_1", np.zeros(4), now=0.0) is not None

    def test_reroute_end_system_moves_access_links(self):
        topology = self.make_multi_hub()
        uplink = topology.uplink("end_system_1")
        downlink = topology.downlink("end_system_1")
        assert topology.hub_of("end_system_1") == "server_1"
        topology.reroute_end_system("end_system_1", "server_0")
        assert topology.hub_of("end_system_1") == "server_0"
        # Same physical access links, new termination point.
        assert topology.uplink("end_system_1") is uplink
        assert topology.downlink("end_system_1") is downlink
        # Rerouting to the current hub is a no-op; bad names are rejected.
        topology.reroute_end_system("end_system_1", "server_0")
        with pytest.raises(KeyError):
            topology.reroute_end_system("server_0", "server_1")
        with pytest.raises(KeyError):
            topology.reroute_end_system("end_system_1", "end_system_0")

    def test_reroute_respects_target_health(self):
        topology = self.make_multi_hub()
        topology.set_node_up("server_0", False)
        topology.reroute_end_system("end_system_1", "server_0")
        assert topology.uplink("end_system_1").up is False
        topology.set_node_up("server_0", True)
        assert topology.uplink("end_system_1").up is True
