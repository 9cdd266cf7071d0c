"""Geo-distributed topology of end-systems and the centralized server.

The paper's deployment scenario is a set of hospitals (end-systems)
spread across a region, all connected to one centralized server — a star
topology.  :class:`GeoTopology` stores the nodes, their coordinates and
the per-edge :class:`~repro.simnet.link.Link` objects in a
:mod:`networkx` graph, and provides factory helpers for the common
configurations used in the experiments.

Each end-system's ``(hub, uplink, downlink)`` route is resolved by one
neighbour scan on first use and then remembered (``hub_of`` / ``uplink`` /
``downlink`` per message are dictionary accesses).  Hence the rule: **mutate
a topology only through its methods** — they drop the remembered routes
when the wiring changes; editing ``topology.graph`` directly does not.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .latency import ConstantLatency, DistanceLatency, GaussianLatency, LatencyModel
from .link import Link

__all__ = [
    "GeoTopology",
    "star_topology",
    "geo_star_topology",
    "multi_hub_star_topology",
    "WORLD_CITIES",
]

# A handful of city coordinates (latitude, longitude) used to synthesize
# realistic geo-distributed deployments without external data.
WORLD_CITIES: Dict[str, Tuple[float, float]] = {
    "seoul": (37.5665, 126.9780),
    "tokyo": (35.6762, 139.6503),
    "singapore": (1.3521, 103.8198),
    "sydney": (-33.8688, 151.2093),
    "frankfurt": (50.1109, 8.6821),
    "london": (51.5074, -0.1278),
    "new_york": (40.7128, -74.0060),
    "san_francisco": (37.7749, -122.4194),
    "sao_paulo": (-23.5505, -46.6333),
    "mumbai": (19.0760, 72.8777),
    "johannesburg": (-26.2041, 28.0473),
    "toronto": (43.6532, -79.3832),
}


class Route(NamedTuple):
    """Where an end-system's traffic goes: its hub and its two access links."""

    hub: str
    uplink: Link
    downlink: Link


class GeoTopology:
    """Star (or arbitrary) topology of named nodes connected by links."""

    SERVER = "server"

    def __init__(self) -> None:
        # Deferred: a process that builds no topology (the run-server)
        # should not pay the ~0.1 s networkx import.
        import networkx as nx

        self.graph = nx.Graph()
        # Resolved routes; every method that rewires the graph drops them.
        # set_node_up / set_edge_partitioned need not: they only flip
        # ``Link.up`` on the Link objects a route holds.
        self._routes: Dict[str, Route] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, name: str, coordinates: Optional[Tuple[float, float]] = None,
                 role: str = "end_system") -> None:
        """Add a node (``role`` is ``"server"`` or ``"end_system"``)."""
        if name in self.graph:
            raise ValueError(f"node {name!r} already exists")
        self.graph.add_node(name, coordinates=coordinates, role=role)
        self._routes.clear()

    def add_link(self, node_a: str, node_b: str, link: Link,
                 downlink: Optional[Link] = None) -> None:
        """Connect two existing nodes with a link.

        ``link`` carries traffic from ``node_a`` towards ``node_b`` (for an
        end-system/server pair: the uplink).  When ``downlink`` is given the
        reverse direction gets its own :class:`Link` — independent latency
        samples, drop draws and traffic counters — which is how the paper's
        WAN deployments behave: the gradient-return path is not the same
        queue as the activation-upload path.  Without it the single link is
        shared by both directions (the legacy symmetric behaviour).
        """
        for node in (node_a, node_b):
            if node not in self.graph:
                raise KeyError(f"unknown node {node!r}")
        # "source" records the edge's orientation so directional lookups
        # (uplink/downlink/inter-server) work regardless of the order the
        # undirected graph reports the endpoints in.
        self.graph.add_edge(node_a, node_b, link=link, downlink=downlink,
                            source=node_a)
        self._routes.clear()

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def link(self, node_a: str, node_b: str) -> Link:
        """Return the link between two nodes."""
        try:
            return self.graph.edges[node_a, node_b]["link"]
        except KeyError:
            raise KeyError(f"no link between {node_a!r} and {node_b!r}") from None

    def nodes(self, role: Optional[str] = None) -> List[str]:
        """Return node names, optionally filtered by role."""
        if role is None:
            return list(self.graph.nodes)
        return [name for name, data in self.graph.nodes(data=True) if data.get("role") == role]

    @property
    def end_systems(self) -> List[str]:
        """Names of all end-system nodes."""
        return self.nodes(role="end_system")

    @property
    def server(self) -> str:
        """Name of the (single) server node."""
        servers = self.nodes(role="server")
        if len(servers) != 1:
            raise ValueError(f"expected exactly one server node, found {servers}")
        return servers[0]

    @property
    def servers(self) -> List[str]:
        """Names of all server (hub) nodes, in insertion order."""
        return self.nodes(role="server")

    def route(self, end_system: str) -> Route:
        """An end-system's ``(hub, uplink, downlink)``, scanned once.

        Every end-system must hang off exactly one hub (single-server
        stars: the one server).  The downlink falls back to the uplink on
        an edge registered without one (symmetric legacy topologies).  A
        failed resolution raises and is not remembered.
        """
        route = self._routes.get(end_system)
        if route is None:
            if end_system not in self.graph:
                raise KeyError(f"unknown node {end_system!r}")
            hubs = [
                neighbor for neighbor in self.graph.neighbors(end_system)
                if self.graph.nodes[neighbor].get("role") == "server"
            ]
            if len(hubs) != 1:
                raise ValueError(
                    f"end-system {end_system!r} is connected to {len(hubs)} server "
                    f"hubs ({hubs}); expected exactly one"
                )
            hub = hubs[0]
            route = self._routes[end_system] = Route(
                hub, self._directional_link(end_system, hub),
                self._directional_link(hub, end_system))
        return route

    def hub_of(self, end_system: str) -> str:
        """The server hub an end-system is connected to."""
        return self.route(end_system).hub

    def coordinates(self, name: str) -> Optional[Tuple[float, float]]:
        """Coordinates of a node (``None`` if it has none)."""
        return self.graph.nodes[name].get("coordinates")

    # ------------------------------------------------------------------ #
    # Failure injection: node health and uplink rerouting
    # ------------------------------------------------------------------ #
    def is_up(self, name: str) -> bool:
        """Whether a node is administratively up (default ``True``)."""
        if name not in self.graph:
            raise KeyError(f"unknown node {name!r}")
        return self.graph.nodes[name].get("up", True)

    def _refresh_edge_health(self, node_a: str, node_b: str) -> None:
        data = self.graph.edges[node_a, node_b]
        status = (
            self.is_up(node_a)
            and self.is_up(node_b)
            and not data.get("partitioned", False)
        )
        data["link"].up = status
        downlink = data.get("downlink")
        if downlink is not None:
            downlink.up = status

    def set_node_up(self, name: str, up: bool = True) -> None:
        """Mark a node up or down, propagating to every incident link.

        A link is usable only while *both* endpoints are up, so crashing
        a server hub takes down the uplinks/downlinks of every end-system
        hanging off it plus its inter-server links — anything sent over
        them is deterministically lost (and counted on the link) until
        the hub recovers.
        """
        if name not in self.graph:
            raise KeyError(f"unknown node {name!r}")
        self.graph.nodes[name]["up"] = bool(up)
        for _, neighbor in self.graph.edges(name):
            self._refresh_edge_health(name, neighbor)

    def set_edge_partitioned(self, node_a: str, node_b: str,
                             partitioned: bool = True) -> None:
        """Administratively partition (or heal) the edge between two nodes.

        The chaos plane's hub↔hub partition: both directions of the edge
        deterministically lose everything while partitioned, independent
        of the endpoints' own health — and a node crash/recovery during
        the partition cannot accidentally heal it, because
        :meth:`_refresh_edge_health` folds the flag into every
        recomputation.
        """
        try:
            data = self.graph.edges[node_a, node_b]
        except KeyError:
            raise KeyError(f"no link between {node_a!r} and {node_b!r}") from None
        data["partitioned"] = bool(partitioned)
        self._refresh_edge_health(node_a, node_b)

    def reroute_end_system(self, end_system: str, new_hub: str) -> None:
        """Reattach an end-system's access links to a different server hub.

        Failover for a crashed hub: the client keeps its physical access
        links (same latency model, RNG streams and traffic counters — the
        WAN last mile does not change), but they now terminate at
        ``new_hub``.  No-op when the end-system already hangs off
        ``new_hub``.
        """
        if self.graph.nodes.get(end_system, {}).get("role") != "end_system":
            raise KeyError(f"{end_system!r} is not an end-system node")
        if self.graph.nodes.get(new_hub, {}).get("role") != "server":
            raise KeyError(f"{new_hub!r} is not a server node")
        old_hub = self.hub_of(end_system)
        if old_hub == new_hub:
            return
        data = dict(self.graph.edges[end_system, old_hub])
        self.graph.remove_edge(end_system, old_hub)
        self.graph.add_edge(end_system, new_hub, link=data["link"],
                            downlink=data.get("downlink"), source=end_system)
        self._routes.pop(end_system, None)
        self._refresh_edge_health(end_system, new_hub)

    def _directional_link(self, src: str, dst: str) -> Link:
        """The link carrying traffic from ``src`` towards ``dst``."""
        try:
            data = self.graph.edges[src, dst]
        except KeyError:
            raise KeyError(f"no link between {src!r} and {dst!r}") from None
        if data.get("source", src) == src:
            return data["link"]
        downlink = data.get("downlink")
        return downlink if downlink is not None else data["link"]

    def uplink(self, end_system: str) -> Link:
        """Link from an end-system to its server hub."""
        return self.route(end_system).uplink

    def downlink(self, end_system: str) -> Link:
        """Link from the server hub back to an end-system (see :meth:`route`)."""
        return self.route(end_system).downlink

    def inter_server_link(self, src: str, dst: str) -> Link:
        """Link carrying synchronization traffic between two server hubs."""
        for node in (src, dst):
            if self.graph.nodes.get(node, {}).get("role") != "server":
                raise KeyError(f"{node!r} is not a server node")
        return self._directional_link(src, dst)

    def mean_latencies(self) -> Dict[str, float]:
        """Expected one-way latency (s) from each end-system to the server."""
        return {name: self.uplink(name).latency.mean() for name in self.end_systems}

    def stats(self, direction: str = "up") -> Dict[str, Dict[str, float]]:
        """Per-end-system traffic statistics for one direction.

        ``direction="up"`` (default) reports the uplinks, ``"down"`` the
        downlinks (which alias the uplinks on symmetric topologies).
        """
        if direction not in {"up", "down"}:
            raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")
        pick = self.uplink if direction == "up" else self.downlink
        return {name: pick(name).stats() for name in self.end_systems}

    def dropped_totals(self) -> Dict[str, int]:
        """Link-level drop counts summed over every edge, by direction.

        Used by the drop-accounting regression tests: the transport log's
        ``dropped_messages`` must equal ``uplink + downlink + sync`` from
        here.  NACK losses ride the downlink, so they count there.
        """
        uplink_drops = sum(self.uplink(name).messages_dropped for name in self.end_systems)
        downlink_drops = 0
        for name in self.end_systems:
            down = self.downlink(name)
            if down is not self.uplink(name):
                downlink_drops += down.messages_dropped
        sync_drops = 0
        servers = self.servers
        for index, src in enumerate(servers):
            for dst in servers[index + 1:]:
                if not self.graph.has_edge(src, dst):
                    continue
                forward = self._directional_link(src, dst)
                backward = self._directional_link(dst, src)
                sync_drops += forward.messages_dropped
                if backward is not forward:
                    sync_drops += backward.messages_dropped
        return {"uplink": uplink_drops, "downlink": downlink_drops, "sync": sync_drops}


def _make_latency_model(latency_s: float, jitter_std_s: float) -> LatencyModel:
    if jitter_std_s > 0:
        return GaussianLatency(latency_s, jitter_std_s)
    return ConstantLatency(latency_s)


def _edge_latencies(num_end_systems: int, latencies_s: Optional[Iterable[float]],
                    downlink_latencies_s: Optional[Iterable[float]]
                    ) -> Tuple[List[float], List[float]]:
    """Per-end-system uplink and downlink mean latencies (default: 5 ms up, same down)."""
    if num_end_systems <= 0:
        raise ValueError("need at least one end-system")
    latencies = list(latencies_s) if latencies_s is not None else [0.005] * num_end_systems
    if len(latencies) != num_end_systems:
        raise ValueError(f"expected {num_end_systems} latencies, got {len(latencies)}")
    down_latencies = (
        list(downlink_latencies_s) if downlink_latencies_s is not None else list(latencies)
    )
    if len(down_latencies) != num_end_systems:
        raise ValueError(
            f"expected {num_end_systems} downlink latencies, got {len(down_latencies)}"
        )
    return latencies, down_latencies


def _add_end_systems(
    topology: GeoTopology,
    hubs: Sequence[str],
    latencies: Sequence[float],
    down_latencies: Sequence[float],
    bandwidth_bps: Optional[float],
    jitter_std_s: float,
    drop_probability: float,
    seed: int,
    downlink_bandwidth_bps: Optional[float],
    downlink_drop_probability: Optional[float],
) -> None:
    """Attach ``end_system_i`` to ``hubs[i]`` by an uplink and an independent downlink.

    Link seeds are ``seed + i`` (uplink) and ``seed + M + i`` (downlink),
    so every star with the same clients draws the same per-link streams
    whatever its hubs.  The downlink's bandwidth and loss default to the
    uplink's.
    """
    num_end_systems = len(latencies)
    down_bandwidth = (
        downlink_bandwidth_bps if downlink_bandwidth_bps is not None else bandwidth_bps
    )
    down_drop = (
        downlink_drop_probability if downlink_drop_probability is not None else drop_probability
    )
    for index, latency_s in enumerate(latencies):
        name = f"end_system_{index}"
        topology.add_node(name, role="end_system")
        uplink = Link(
            latency=_make_latency_model(latency_s, jitter_std_s),
            bandwidth_bps=bandwidth_bps,
            drop_probability=drop_probability,
            seed=seed + index,
            direction="up",
        )
        downlink = Link(
            latency=_make_latency_model(down_latencies[index], jitter_std_s),
            bandwidth_bps=down_bandwidth,
            drop_probability=down_drop,
            seed=seed + num_end_systems + index,
            direction="down",
        )
        topology.add_link(name, hubs[index], uplink, downlink=downlink)


def star_topology(
    num_end_systems: int,
    latencies_s: Optional[Iterable[float]] = None,
    bandwidth_bps: Optional[float] = 100e6,
    jitter_std_s: float = 0.0,
    drop_probability: float = 0.0,
    seed: int = 0,
    downlink_latencies_s: Optional[Iterable[float]] = None,
    downlink_bandwidth_bps: Optional[float] = None,
    downlink_drop_probability: Optional[float] = None,
) -> GeoTopology:
    """Build a star topology with configurable per-end-system latencies.

    Every end-system gets *two* links: an uplink carrying activations to
    the server and a downlink carrying gradients back.  The downlink
    defaults to the uplink's parameters but is always an independent
    :class:`Link` instance (its own RNG stream and traffic counters), so
    gradient-return traffic is modeled and logged separately.

    Parameters
    ----------
    latencies_s:
        One mean uplink latency per end-system; defaults to 5 ms for
        everyone.  Heterogeneous values reproduce the paper's "far-away
        end-system" scenario.
    jitter_std_s:
        When non-zero, latencies are Gaussian around the mean instead of
        constant.
    downlink_latencies_s / downlink_bandwidth_bps / downlink_drop_probability:
        Optional asymmetric overrides for the gradient-return direction;
        each defaults to the corresponding uplink value.
    """
    latencies, down_latencies = _edge_latencies(
        num_end_systems, latencies_s, downlink_latencies_s)
    topology = GeoTopology()
    topology.add_node(GeoTopology.SERVER, role="server")
    _add_end_systems(topology, [GeoTopology.SERVER] * num_end_systems, latencies,
                     down_latencies, bandwidth_bps, jitter_std_s, drop_probability, seed,
                     downlink_bandwidth_bps, downlink_drop_probability)
    return topology


def multi_hub_star_topology(
    num_end_systems: int,
    num_servers: int,
    assignment: Optional[Iterable[int]] = None,
    assigner: str = "static_hash",
    latencies_s: Optional[Iterable[float]] = None,
    bandwidth_bps: Optional[float] = 100e6,
    jitter_std_s: float = 0.0,
    drop_probability: float = 0.0,
    seed: int = 0,
    downlink_latencies_s: Optional[Iterable[float]] = None,
    downlink_bandwidth_bps: Optional[float] = None,
    downlink_drop_probability: Optional[float] = None,
    inter_server_latency_s: float = 0.01,
    inter_server_bandwidth_bps: Optional[float] = 1e9,
    inter_server_drop_probability: float = 0.0,
) -> GeoTopology:
    """Build a sharded star: one hub per server shard plus inter-server links.

    Every end-system connects (uplink + downlink, exactly like
    :func:`star_topology`) to the single hub its shard assignment names;
    the hubs are pairwise connected by dedicated per-direction links that
    carry the weight-synchronization traffic, typically a datacenter
    interconnect — lower latency and higher bandwidth than the WAN edges.

    With ``num_servers=1`` the result is link-for-link identical to
    :func:`star_topology` (same per-link RNG streams), which is what the
    cluster equivalence tests pin.

    Parameters
    ----------
    assignment:
        Shard index per end-system.  When omitted, the named ``assigner``
        strategy computes it from ``latencies_s``.
    inter_server_latency_s / inter_server_bandwidth_bps / inter_server_drop_probability:
        Parameters shared by every inter-server link.
    """
    latencies, down_latencies = _edge_latencies(
        num_end_systems, latencies_s, downlink_latencies_s)
    if num_servers <= 0:
        raise ValueError("need at least one server")
    if assignment is None:
        from ..cluster.assigner import get_assigner

        assignment = get_assigner(assigner).assign(
            num_end_systems, num_servers, latencies_s=latencies
        )
    assignment = [int(shard) for shard in assignment]
    if len(assignment) != num_end_systems:
        raise ValueError(
            f"expected {num_end_systems} assignment entries, got {len(assignment)}"
        )
    if assignment and not all(0 <= shard < num_servers for shard in assignment):
        raise ValueError(f"assignment indices must be in [0, {num_servers})")
    topology = GeoTopology()
    hubs = [f"server_{index}" for index in range(num_servers)]
    for hub in hubs:
        topology.add_node(hub, role="server")
    # Inter-server links draw from seed+2M onwards, after the client edges.
    _add_end_systems(topology, [hubs[shard] for shard in assignment], latencies,
                     down_latencies, bandwidth_bps, jitter_std_s, drop_probability, seed,
                     downlink_bandwidth_bps, downlink_drop_probability)
    pair_index = 0
    for left in range(num_servers):
        for right in range(left + 1, num_servers):
            forward = Link(
                latency=_make_latency_model(inter_server_latency_s, jitter_std_s),
                bandwidth_bps=inter_server_bandwidth_bps,
                drop_probability=inter_server_drop_probability,
                seed=seed + 2 * num_end_systems + 2 * pair_index,
                direction="sync",
            )
            backward = Link(
                latency=_make_latency_model(inter_server_latency_s, jitter_std_s),
                bandwidth_bps=inter_server_bandwidth_bps,
                drop_probability=inter_server_drop_probability,
                seed=seed + 2 * num_end_systems + 2 * pair_index + 1,
                direction="sync",
            )
            topology.add_link(hubs[left], hubs[right], forward, downlink=backward)
            pair_index += 1
    return topology


def geo_star_topology(
    city_names: Iterable[str],
    server_city: str = "seoul",
    bandwidth_bps: Optional[float] = 100e6,
    jitter_std_s: float = 0.002,
    seed: int = 0,
) -> GeoTopology:
    """Build a star topology whose latencies follow real geographic distances.

    Parameters
    ----------
    city_names:
        Cities hosting the end-systems (keys of :data:`WORLD_CITIES`).
    server_city:
        City hosting the centralized server.
    """
    city_names = list(city_names)
    unknown = [city for city in [server_city, *city_names] if city not in WORLD_CITIES]
    if unknown:
        raise KeyError(f"unknown cities {unknown}; known cities: {sorted(WORLD_CITIES)}")
    num_end_systems = len(city_names)
    topology = GeoTopology()
    topology.add_node(GeoTopology.SERVER, coordinates=WORLD_CITIES[server_city], role="server")
    for index, city in enumerate(city_names):
        name = f"end_system_{index}_{city}"
        topology.add_node(name, coordinates=WORLD_CITIES[city], role="end_system")
        uplink = Link(
            latency=DistanceLatency(
                WORLD_CITIES[city], WORLD_CITIES[server_city], jitter_std_s=jitter_std_s
            ),
            bandwidth_bps=bandwidth_bps,
            seed=seed + index,
            direction="up",
        )
        downlink = Link(
            latency=DistanceLatency(
                WORLD_CITIES[server_city], WORLD_CITIES[city], jitter_std_s=jitter_std_s
            ),
            bandwidth_bps=bandwidth_bps,
            seed=seed + num_end_systems + index,
            direction="down",
        )
        topology.add_link(name, GeoTopology.SERVER, uplink, downlink=downlink)
    return topology
