"""Per-pair reference loop of :class:`repro.noc.analytic.AnalyticNocModel`.

This is the model's original traffic analysis: one ``router_path`` call
per active router pair, channel loads accumulated in a dict in
pair-major, hop-minor order, and the mean latency summed channel by
channel in plain Python floats.  The library walks the routing table in
NumPy instead; the tests compare both with ``==``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.noc.analytic import Channel, RouterParameters
from repro.noc.routing import DimensionOrderedRouting
from repro.noc.topology import GridTopology
from repro.noc.traffic import UniformTraffic


def loop_unit_traffic(topology: GridTopology, traffic_class=UniformTraffic,
                      routing_class=DimensionOrderedRouting,
                      **traffic_kwargs) -> Tuple[Dict[Channel, float], float]:
    """Channel loads and rate-weighted router traversals at unit injection."""
    routing = routing_class(topology)
    rates = traffic_class(topology, 1.0, **traffic_kwargs).rate_matrix()
    loads: Dict[Channel, float] = {}
    total_rate = rates.sum()
    weighted_routers = 0.0
    router_rates = rates.reshape(
        topology.n_routers, topology.concentration,
        topology.n_routers, topology.concentration,
    ).sum(axis=(1, 3))
    for module in range(topology.n_modules):
        injected = rates[module].sum()
        if injected > 0.0:
            loads[("injection", module, -1)] = injected
        received = rates[:, module].sum()
        if received > 0.0:
            loads[("ejection", module, -1)] = received
    for source_router in range(topology.n_routers):
        for destination_router in range(topology.n_routers):
            rate = router_rates[source_router, destination_router]
            if rate <= 0.0:
                continue
            path = routing.router_path(source_router, destination_router)
            weighted_routers += rate * len(path)
            for upstream, downstream in zip(path[:-1], path[1:]):
                key = ("link", upstream, downstream)
                loads[key] = loads.get(key, 0.0) + rate
    if total_rate <= 0.0:
        return loads, 1.0
    return loads, weighted_routers / total_rate


def loop_mean_latency(unit_loads: Dict[Channel, float], weighted_hops: float,
                      router: RouterParameters, injection_rate: float
                      ) -> float:
    """Mean packet latency, channel by channel (``inf`` past saturation)."""
    service = router.service_time_cycles
    base = (weighted_hops * router.pipeline_latency_cycles
            + (weighted_hops - 1.0) * router.link_latency_cycles)
    if injection_rate == 0.0:
        return base
    waiting_total = 0.0
    total_rate = 0.0
    for channel, unit_load in unit_loads.items():
        load = unit_load * injection_rate
        utilisation = load * service
        if utilisation >= 1.0:
            return float("inf")
        waiting = utilisation * service / (1.0 - utilisation)
        waiting_total += waiting * load
        if channel[0] == "injection":
            total_rate += load
    if total_rate <= 0.0:
        return base
    return base + waiting_total / total_rate
