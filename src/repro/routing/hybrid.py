"""The hybrid routing protocol: proactive inside, reactive across.

Combines :class:`~repro.routing.intra_cluster.IntraClusterRoutingProtocol`
(proactive, paper Eqn 13 accounting) with backbone route discovery
(:mod:`repro.routing.inter_cluster`) into a complete routing service:

* same-cluster traffic is forwarded from the proactive tables at zero
  marginal control cost;
* cross-cluster traffic triggers a reactive discovery whose result is
  cached and invalidated when one of its links breaks (with an RERR
  notification per surviving upstream hop, AODV-style).  Cached routes
  are indexed by undirected link, so a break touches only the routes
  that use it; their RERRs still go out in cache-insertion order.

``route(src, dst)`` returns the path actually usable for data delivery;
experiments use the message statistics to compare the hybrid total
against the flat baselines.
"""

from __future__ import annotations

from ..obs.attribution import CAUSE_LINK_BREAK_REPAIR, attributed
from ..sim.engine import Protocol, Simulation
from ..clustering.maintenance import ClusterMaintenanceProtocol
from .inter_cluster import DiscoveryResult, discover_route
from .intra_cluster import IntraClusterRoutingProtocol
from .messages import rerr_bits

__all__ = ["HybridRoutingProtocol"]


class HybridRoutingProtocol(Protocol):
    """Cluster-aware hybrid routing with route caching.

    Parameters
    ----------
    maintenance:
        The cluster maintenance protocol owning the cluster state.
    intra:
        The proactive intra-cluster protocol (attached separately to
        the simulation; this class only consumes its tables).
    """

    name = "hybrid-routing"

    def __init__(
        self,
        maintenance: ClusterMaintenanceProtocol,
        intra: IntraClusterRoutingProtocol,
    ) -> None:
        self.maintenance = maintenance
        self.intra = intra
        self._cache: dict[tuple[int, int], list[int]] = {}
        #: (u, v) with u < v -> keys of the cached routes using that
        #: link, in cache-insertion order (dicts used as ordered sets).
        self._routes_by_link: dict[tuple[int, int], dict[tuple[int, int], None]] = {}
        self.discoveries = 0
        self.cache_hits = 0

    # ------------------------------------------------------------------
    def route(self, sim: Simulation, source: int, destination: int) -> list[int] | None:
        """Return a usable path, running a discovery if needed."""
        if source == destination:
            return [source]
        state = self.maintenance.state
        if state.same_cluster(source, destination):
            return self.intra.path(sim, source, destination)

        cached = self._cache.get((source, destination))
        if cached is not None:
            self.cache_hits += 1
            return cached

        result: DiscoveryResult = discover_route(sim, state, source, destination)
        self.discoveries += 1
        if not result.found:
            return None
        key = (source, destination)
        self._cache[key] = result.path
        for link in _links(result.path):
            self._routes_by_link.setdefault(link, {})[key] = None
        return result.path

    # ------------------------------------------------------------------
    def on_link_down(self, sim: Simulation, u: int, v: int, time: float) -> None:
        """Invalidate cached routes using the broken link, emitting RERRs."""
        broken_link = (u, v) if u < v else (v, u)
        for key in self._routes_by_link.pop(broken_link, {}):
            path = self._cache.pop(key)
            links = _links(path)
            for link in links:
                routes = self._routes_by_link.get(link)
                if routes is not None:
                    del routes[key]
                    if not routes:
                        del self._routes_by_link[link]
            # One RERR transmission per upstream node of the break,
            # the node in front of it included.
            upstream = links.index(broken_link) + 1
            with attributed(
                sim, CAUSE_LINK_BREAK_REPAIR, nodes=path[:upstream]
            ):
                sim.stats.record(
                    "route_error",
                    upstream,
                    upstream * rerr_bits(sim.params.messages),
                )

    # ------------------------------------------------------------------
    @property
    def cached_routes(self) -> int:
        """Number of currently cached cross-cluster routes."""
        return len(self._cache)


def _links(path: list[int]) -> list[tuple[int, int]]:
    """The undirected links ``(u, v)``, ``u < v``, of ``path`` in hop order."""
    return [(a, b) if a < b else (b, a) for a, b in zip(path, path[1:])]
