"""Geo-distributed topology of end-systems and the centralized server.

The paper's deployment scenario is a set of hospitals (end-systems)
spread across a region, all connected to one centralized server — a star
topology.  Sharded deployments put several server hubs at the centre and
connect every pair of hubs for weight synchronization.

:class:`GeoTopology` stores that star as two tables, which are the whole
model: the *access routes* (end-system → its hub, uplink and downlink) and
the *sync links* (``(src hub, dst hub)`` → the link carrying traffic from
``src`` to ``dst``; both directions of every hub pair).  Next to them sit
each node's role, the set of down nodes and the set of partitioned pairs,
from which every :class:`~repro.simnet.link.Link`'s ``up`` flag is
recomputed whenever one of them changes.  The module also provides
factory helpers for the configurations used in the experiments.
"""

from __future__ import annotations

from typing import (Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional,
                    Sequence, Set, Tuple)

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
    """Star of end-systems around one or more server hubs."""

    SERVER = "server"

    def __init__(self) -> None:
        self._roles: Dict[str, str] = {}
        self._routes: Dict[str, Route] = {}
        self._sync: Dict[Tuple[str, str], Link] = {}
        self._down: Set[str] = set()
        self._partitioned: Set[FrozenSet[str]] = set()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, name: str, role: str = "end_system") -> None:
        """Add a node (``role`` is ``"server"`` or ``"end_system"``)."""
        if name in self._roles:
            raise ValueError(f"node {name!r} already exists")
        self._roles[name] = role

    def add_link(self, node_a: str, node_b: str, link: Link, downlink: Link) -> None:
        """Connect two existing nodes by a pair of one-way links.

        ``link`` carries traffic from ``node_a`` to ``node_b`` and
        ``downlink`` the reverse direction, each with its own latency
        samples, drop draws and traffic counters — the gradient-return path
        is not the same queue as the activation-upload path.  Either an
        end-system joins its one hub (``node_a`` the end-system, ``link``
        its uplink) or two hubs are joined for weight synchronization.
        """
        roles = (self._role(node_a), self._role(node_b))
        if roles == ("end_system", "server"):
            if node_a in self._routes:
                raise ValueError(f"end-system {node_a!r} already hangs off "
                                 f"{self._routes[node_a].hub!r}")
            self._routes[node_a] = Route(node_b, link, downlink)
        elif roles == ("server", "server") and node_a != node_b:
            self._sync[node_a, node_b] = link
            self._sync[node_b, node_a] = downlink
        else:
            raise ValueError(f"cannot link {node_a!r} ({roles[0]}) to {node_b!r} "
                             f"({roles[1]}): links join an end-system to a hub "
                             "or two hubs")

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def _role(self, name: str) -> str:
        try:
            return self._roles[name]
        except KeyError:
            raise KeyError(f"unknown node {name!r}") from None

    def _link_pair(self, src: str, dst: str) -> Tuple[Link, Link]:
        """The ``(src → dst, dst → src)`` links of two linked nodes."""
        if (src, dst) in self._sync:
            return self._sync[src, dst], self._sync[dst, src]
        route = self._routes.get(src)
        if route is not None and route.hub == dst:
            return route.uplink, route.downlink
        route = self._routes.get(dst)
        if route is not None and route.hub == src:
            return route.downlink, route.uplink
        raise KeyError(f"no link between {src!r} and {dst!r}")

    def link(self, src: str, dst: str) -> Link:
        """The link carrying traffic from ``src`` to ``dst``."""
        return self._link_pair(src, dst)[0]

    def nodes(self, role: Optional[str] = None) -> List[str]:
        """Return node names in insertion order, optionally filtered by role."""
        return [name for name, node_role in self._roles.items()
                if role in (None, node_role)]

    @property
    def end_systems(self) -> List[str]:
        """Names of all end-system nodes."""
        return self.nodes(role="end_system")

    @property
    def server(self) -> str:
        """Name of the (single) server node."""
        servers = self.servers
        if len(servers) != 1:
            raise ValueError(f"expected exactly one server node, found {servers}")
        return servers[0]

    @property
    def servers(self) -> List[str]:
        """Names of all server (hub) nodes, in insertion order."""
        return self.nodes(role="server")

    def route(self, end_system: str) -> Route:
        """An end-system's ``(hub, uplink, downlink)``."""
        try:
            return self._routes[end_system]
        except KeyError:
            raise KeyError(f"{end_system!r} is not a linked end-system") from None

    def hub_of(self, end_system: str) -> str:
        """The server hub an end-system is connected to."""
        return self.route(end_system).hub

    def uplink(self, end_system: str) -> Link:
        """Link from an end-system to its server hub."""
        return self.route(end_system).uplink

    def downlink(self, end_system: str) -> Link:
        """Link from the server hub back to an end-system."""
        return self.route(end_system).downlink

    def inter_server_link(self, src: str, dst: str) -> Link:
        """Link carrying synchronization traffic from hub ``src`` to hub ``dst``."""
        for node in (src, dst):
            if self._roles.get(node) != "server":
                raise KeyError(f"{node!r} is not a server node")
        return self.link(src, dst)

    def links(self) -> Iterator[Tuple[str, Link]]:
        """Every link under a stable key, in the order the links were added.

        ``up::<node>`` and ``down::<node>`` per end-system, then
        ``sync::<src>::<dst>`` per direction of each hub pair.  Run
        checkpoints key each link's RNG position and counters by these.
        """
        for name, (_, uplink, downlink) in self._routes.items():
            yield f"up::{name}", uplink
            yield f"down::{name}", downlink
        for (src, dst), link in self._sync.items():
            yield f"sync::{src}::{dst}", link

    # ------------------------------------------------------------------ #
    # Failure injection: node health, partitions and rerouting
    # ------------------------------------------------------------------ #
    def is_up(self, name: str) -> bool:
        """Whether a node is administratively up (default ``True``)."""
        self._role(name)
        return name not in self._down

    def _refresh(self, node_a: str, node_b: str) -> None:
        """Recompute ``Link.up`` on both links between two linked nodes."""
        up = (node_a not in self._down and node_b not in self._down
              and frozenset((node_a, node_b)) not in self._partitioned)
        for link in self._link_pair(node_a, node_b):
            link.up = up

    def set_node_up(self, name: str, up: bool = True) -> None:
        """Mark a node up or down, propagating to every incident link.

        A link is usable only while *both* endpoints are up, so crashing
        a server hub takes down the uplinks/downlinks of every end-system
        hanging off it plus its inter-server links — anything sent over
        them is deterministically lost (and counted on the link) until
        the hub recovers.
        """
        self._role(name)
        if up:
            self._down.discard(name)
        else:
            self._down.add(name)
        route = self._routes.get(name)
        if route is not None:
            peers = [route.hub]
        else:
            peers = [end_system for end_system, entry in self._routes.items()
                     if entry.hub == name]
            peers += [dst for src, dst in self._sync if src == name]
        for peer in peers:
            self._refresh(name, peer)

    def set_edge_partitioned(self, node_a: str, node_b: str,
                             partitioned: bool = True) -> None:
        """Administratively partition (or heal) the links between two nodes.

        The chaos plane's hub↔hub partition: both directions
        deterministically lose everything while partitioned, independent
        of the endpoints' own health — and a node crash/recovery during
        the partition cannot accidentally heal it, because every health
        recomputation reads the partition set.
        """
        self._link_pair(node_a, node_b)  # KeyError unless the two are linked
        pair = frozenset((node_a, node_b))
        if partitioned:
            self._partitioned.add(pair)
        else:
            self._partitioned.discard(pair)
        self._refresh(node_a, node_b)

    def reroute_end_system(self, end_system: str, new_hub: str) -> None:
        """Reattach an end-system's access links to a different server hub.

        Failover for a crashed hub: the client keeps its physical access
        links (same latency model, RNG streams and traffic counters — the
        WAN last mile does not change), but they now terminate at
        ``new_hub``.  A partition of the old access pair does not follow
        the links.  No-op when the end-system already hangs off ``new_hub``.
        """
        if self._roles.get(end_system) != "end_system":
            raise KeyError(f"{end_system!r} is not an end-system node")
        if self._roles.get(new_hub) != "server":
            raise KeyError(f"{new_hub!r} is not a server node")
        route = self.route(end_system)
        if route.hub == new_hub:
            return
        self._partitioned.discard(frozenset((end_system, route.hub)))
        self._routes[end_system] = route._replace(hub=new_hub)
        self._refresh(end_system, new_hub)

    def mean_latencies(self) -> Dict[str, float]:
        """Expected one-way latency (s) from each end-system to the server."""
        return {name: self.uplink(name).latency.mean() for name in self.end_systems}

    def dropped_totals(self) -> Dict[str, int]:
        """Link-level drop counts summed over every link, by direction.

        Used by the drop-accounting regression tests: the transport log's
        ``dropped_messages`` must equal ``uplink + downlink + sync`` from
        here.  NACK losses ride the downlink, so they count there.
        """
        totals = {"up": 0, "down": 0, "sync": 0}
        for key, link in self.links():
            totals[key.split("::", 1)[0]] += link.messages_dropped
        return {"uplink": totals["up"], "downlink": totals["down"], "sync": totals["sync"]}


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
    topology.add_node(GeoTopology.SERVER, role="server")
    for index, city in enumerate(city_names):
        name = f"end_system_{index}_{city}"
        topology.add_node(name, role="end_system")
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
