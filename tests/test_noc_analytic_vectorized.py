"""The array-native analytic NoC model against its per-pair reference loop.

``AnalyticNocModel`` walks the routing table in NumPy; the per-pair
``router_path`` loop it replaced lives on as a test oracle in
``tests/oracles/noc_analytic_loop.py``.  Every comparison here is ``==``
(never approx): the vectorized model adds the same floats in the same
order, so it must agree bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from oracles.noc_analytic_loop import loop_mean_latency, loop_unit_traffic
from repro.noc.analytic import AnalyticNocModel
from repro.noc.metrics import average_hop_count, bisection_links
from repro.noc.routing import ROUTING_ALGORITHMS
from repro.noc.topology import (
    CiliatedMesh3D,
    GridTopology,
    Mesh2D,
    Mesh3D,
    StarMesh,
)
from repro.noc.traffic import TRAFFIC_PATTERNS

TOPOLOGIES = {
    "mesh2d-8x8": lambda: Mesh2D(8, 8),
    "mesh2d-3x5": lambda: Mesh2D(3, 5),
    "mesh2d-1x1": lambda: Mesh2D(1, 1),
    "starmesh-4x4x4": lambda: StarMesh(4, 4, 4),
    "mesh3d-2x2x2": lambda: Mesh3D(2, 2, 2),
    "mesh3d-3x3x3": lambda: Mesh3D(3, 3, 3),
    "mesh3d-4x4x2": lambda: Mesh3D(4, 4, 2),
    "mesh3d-4x4x4": lambda: Mesh3D(4, 4, 4),
    "mesh3d-5x5x4": lambda: Mesh3D(5, 5, 4),
    "mesh3d-6x6x4": lambda: Mesh3D(6, 6, 4),
    "ciliated3d-3x3x3-c2": lambda: CiliatedMesh3D(3, 3, 3, concentration=2),
}

# The fig8a injection rates, zero load, and a rate past every saturation.
RATES = (0.0, 0.01, 0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 5.0)


@pytest.mark.parametrize("routing", sorted(ROUTING_ALGORITHMS))
@pytest.mark.parametrize("traffic", sorted(TRAFFIC_PATTERNS))
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_model_equals_per_pair_loop(topology, traffic, routing):
    topology = TOPOLOGIES[topology]()
    traffic_class = TRAFFIC_PATTERNS[traffic]
    routing_class = ROUTING_ALGORITHMS[routing]
    model = AnalyticNocModel(topology, traffic_class=traffic_class,
                             routing_class=routing_class)
    loads, weighted_hops = loop_unit_traffic(topology, traffic_class,
                                             routing_class)

    channel_loads = model.channel_loads(1.0)
    assert list(channel_loads) == list(loads)
    assert list(channel_loads.values()) == list(loads.values())
    assert model.weighted_router_traversals == weighted_hops

    rates = list(RATES)
    if np.isfinite(model.saturation_rate()):
        rates.append(model.saturation_rate())
    expected = [loop_mean_latency(loads, weighted_hops, model.router, rate)
                for rate in rates]
    assert [model.mean_latency(rate) for rate in rates] == expected
    curve = model.latency_curve(rates).mean_latency_cycles
    assert curve.tolist() == expected


def test_hotspot_kwargs_reach_the_pattern():
    topology = Mesh2D(4, 4)
    model = AnalyticNocModel(topology,
                             traffic_class=TRAFFIC_PATTERNS["hotspot"],
                             hotspot_modules=[5, 10], hotspot_fraction=0.5)
    loads, weighted_hops = loop_unit_traffic(
        topology, TRAFFIC_PATTERNS["hotspot"],
        hotspot_modules=[5, 10], hotspot_fraction=0.5)
    assert model.channel_loads(1.0) == loads
    assert model.weighted_router_traversals == weighted_hops


def test_512_router_model_stays_below_64_mib():
    topology = Mesh2D(32, 16)
    tracemalloc.start()
    try:
        AnalyticNocModel(topology)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


@pytest.mark.parametrize("dimensions, concentration", [
    ((1, 1), 1), ((1, 1), 3), ((2, 2), 1), ((3, 5), 1), ((4, 4), 4),
    ((2, 3, 4), 1), ((3, 3, 3), 2), ((1, 7), 1),
])
def test_hop_metrics_match_per_pair_sums(dimensions, concentration):
    topology = GridTopology(dimensions, concentration=concentration)
    modules = range(topology.n_modules)
    pairs = [(a, b) for a in modules for b in modules if a != b]
    hops = sum(topology.router_distance(topology.router_of_module(a),
                                        topology.router_of_module(b))
               for a, b in pairs)
    expected = hops / len(pairs) if pairs else 0.0
    assert average_hop_count(topology) == expected

    axis = int(np.argmax(topology.dimensions))
    cut = topology.dimensions[axis] // 2
    crossing = 0
    for upstream, downstream in topology.links():
        ends = sorted((topology.router_coordinate(upstream)[axis],
                       topology.router_coordinate(downstream)[axis]))
        crossing += ends[0] < cut <= ends[1]
    assert bisection_links(topology) == crossing
