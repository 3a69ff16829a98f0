"""Routing protocols: clustered hybrid and flat baselines."""

from .messages import (
    RouteEntry,
    rerr_bits,
    route_update_bits,
    rrep_bits,
    rreq_bits,
)
from .intra_cluster import IntraClusterRoutingProtocol
from .inter_cluster import (
    BroadcastResult,
    DiscoveryResult,
    backbone_mask,
    broadcast_flood,
    discover_route,
    is_gateway,
)
from .hybrid import HybridRoutingProtocol
from .dsdv import DsdvProtocol
from .aodv import AodvProtocol, AodvRouteState

__all__ = [
    "RouteEntry",
    "rerr_bits",
    "route_update_bits",
    "rrep_bits",
    "rreq_bits",
    "IntraClusterRoutingProtocol",
    "BroadcastResult",
    "DiscoveryResult",
    "backbone_mask",
    "broadcast_flood",
    "discover_route",
    "is_gateway",
    "HybridRoutingProtocol",
    "DsdvProtocol",
    "AodvProtocol",
    "AodvRouteState",
]
