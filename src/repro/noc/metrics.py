"""Network metrics: hop counts, bisection, saturation detection.

These helpers back the claims the paper derives from Fig. 8 — zero-load
latency, saturation throughput and the scaling argument for the 3D mesh —
and are shared by the tests, the examples and the benchmark harness.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.noc.topology import GridTopology
from repro.utils.validation import check_positive


def average_hop_count(topology: GridTopology) -> float:
    """Mean router-to-router hop count over uniformly chosen module pairs.

    Source and destination modules are distinct, but may share a router in
    concentrated topologies (zero network hops).
    """
    n_modules = topology.n_modules
    if n_modules < 2:
        return 0.0
    # Aggregate modules by router: the dimension-ordered hop count is the
    # Manhattan distance of the routers.  Module pairs on one router add
    # no hops, every other router pair stands for c*c module pairs.  The
    # totals are integers, so the mean is exact.
    concentration = topology.concentration
    n_routers = topology.n_routers
    router_hops = sum(int(np.abs(axis[:, None] - axis[None, :]).sum())
                      for axis in topology.router_coordinates().T)
    total = router_hops * concentration * concentration
    pair_count = n_routers * concentration * (
        concentration - 1 + (n_routers - 1) * concentration)
    return float(total) / pair_count


def zero_load_latency(topology: GridTopology,
                      pipeline_latency_cycles: float = 2.0,
                      link_latency_cycles: float = 0.0) -> float:
    """Contention-free mean packet latency (paper calibration by default).

    Every packet traverses ``hops + 1`` routers; each costs the pipeline
    latency, and each link adds the link latency.
    """
    check_positive("pipeline_latency_cycles", pipeline_latency_cycles)
    hops = average_hop_count(topology)
    return (hops + 1.0) * pipeline_latency_cycles + hops * link_latency_cycles


def bisection_links(topology: GridTopology) -> int:
    """Number of unidirectional channels crossing the network bisection.

    The network is cut across the middle of its longest axis, which is the
    standard bisection for meshes.  A larger count means a higher bisection
    bandwidth — the structural advantage of the 3D mesh the paper points
    out.
    """
    dimensions = topology.dimensions
    longest_axis = int(np.argmax(dimensions))
    cut_position = dimensions[longest_axis] // 2
    links = np.array(list(topology.links()), dtype=np.int64).reshape(-1, 2)
    ends = topology.router_coordinates()[links, longest_axis]
    crossing = ((ends.min(axis=1) < cut_position)
                & (cut_position <= ends.max(axis=1)))
    return int(crossing.sum())


def bisection_bandwidth_per_module(topology: GridTopology,
                                   link_bandwidth: float = 1.0) -> float:
    """Bisection bandwidth normalised by the number of modules."""
    check_positive("link_bandwidth", link_bandwidth)
    return bisection_links(topology) * link_bandwidth / topology.n_modules


def saturation_injection_rate(injection_rates: Sequence[float],
                              latencies: Sequence[float],
                              latency_threshold_factor: float = 5.0
                              ) -> float:
    """Estimate the saturation point from a latency-vs-injection curve.

    The saturation point is taken as the smallest injection rate whose
    latency exceeds ``latency_threshold_factor`` times the zero-load
    latency (or is infinite); if no point qualifies, the largest evaluated
    rate is returned.  This mirrors how the saturation throughput is read
    off the knee of the curves in Fig. 8.
    """
    rates = np.asarray(list(injection_rates), dtype=float)
    values = np.asarray(list(latencies), dtype=float)
    if rates.shape != values.shape or rates.size == 0:
        raise ValueError("rates and latencies must be equal-length, non-empty")
    if latency_threshold_factor <= 1.0:
        raise ValueError("latency_threshold_factor must exceed 1")
    order = np.argsort(rates)
    rates = rates[order]
    values = values[order]
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return float(rates[0])
    threshold = latency_threshold_factor * finite[0]
    exceeded = np.where(~np.isfinite(values) | (values > threshold))[0]
    if exceeded.size == 0:
        return float(rates[-1])
    return float(rates[exceeded[0]])


def latency_throughput_summary(injection_rates: Sequence[float],
                               latencies: Sequence[float]
                               ) -> Tuple[float, float]:
    """(zero-load latency, saturation rate) from a latency curve."""
    rates = np.asarray(list(injection_rates), dtype=float)
    values = np.asarray(list(latencies), dtype=float)
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        raise ValueError("the latency curve has no finite points")
    return float(finite[0]), saturation_injection_rate(rates, values)
