"""Unit tests for repro.noc.routing and repro.noc.traffic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.noc.routing import DimensionOrderedRouting, ShortestPathRouting
from repro.noc.topology import Mesh2D, Mesh3D, StarMesh
from repro.noc.traffic import (
    HotspotTraffic,
    NeighborTraffic,
    TransposeTraffic,
    UniformTraffic,
)


class TestDimensionOrderedRouting:
    def test_path_endpoints(self):
        topology = Mesh2D(4, 4)
        routing = DimensionOrderedRouting(topology)
        path = routing.router_path(0, 15)
        assert path[0] == 0
        assert path[-1] == 15

    def test_path_is_minimal(self):
        topology = Mesh3D(4, 4, 4)
        routing = DimensionOrderedRouting(topology)
        rng = np.random.default_rng(1)
        for _ in range(30):
            a, b = rng.integers(0, topology.n_routers, size=2)
            path = routing.router_path(int(a), int(b))
            assert len(path) - 1 == topology.router_distance(int(a), int(b))

    def test_consecutive_routers_are_adjacent(self):
        topology = Mesh3D(3, 3, 3)
        routing = DimensionOrderedRouting(topology)
        path = routing.router_path(0, topology.n_routers - 1)
        for upstream, downstream in zip(path[:-1], path[1:]):
            assert topology.router_distance(upstream, downstream) == 1

    def test_x_before_y(self):
        topology = Mesh2D(4, 4)
        routing = DimensionOrderedRouting(topology)
        source = topology.coordinate_to_router((0, 0))
        destination = topology.coordinate_to_router((2, 2))
        path = routing.router_path(source, destination)
        coordinates = [topology.router_coordinate(r) for r in path]
        # The y coordinate must not change until x has reached its target.
        x_done = False
        for (x, y) in coordinates:
            if y != 0:
                x_done = True
                assert x == 2
            if x_done:
                assert x == 2

    def test_self_path(self):
        topology = Mesh2D(4, 4)
        routing = DimensionOrderedRouting(topology)
        assert routing.router_path(5, 5) == [5]
        assert routing.links_on_path(5, 5) == []

    def test_module_path_uses_module_routers(self):
        topology = StarMesh(4, 4, concentration=4)
        routing = DimensionOrderedRouting(topology)
        # Modules 0 and 3 share router 0.
        assert routing.module_path(0, 3) == [0]
        path = routing.module_path(0, 63)
        assert path[0] == 0
        assert path[-1] == 15

    def test_links_on_path_length(self):
        topology = Mesh2D(5, 5)
        routing = DimensionOrderedRouting(topology)
        links = routing.links_on_path(0, 24)
        assert len(links) == topology.router_distance(0, 24)

    def test_hop_count_matches_distance(self):
        topology = Mesh3D(3, 4, 2)
        routing = DimensionOrderedRouting(topology)
        assert routing.hop_count(0, topology.n_routers - 1) == \
            topology.diameter()


class TestShortestPathRouting:
    def test_same_hop_count_as_dimension_ordered(self):
        topology = Mesh3D(3, 3, 3)
        dor = DimensionOrderedRouting(topology)
        spf = ShortestPathRouting(topology)
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, b = rng.integers(0, topology.n_routers, size=2)
            assert dor.hop_count(int(a), int(b)) == spf.hop_count(int(a), int(b))

    def test_invalid_router_rejected(self):
        topology = Mesh2D(3, 3)
        routing = ShortestPathRouting(topology)
        with pytest.raises(ValueError):
            routing.router_path(0, 99)

    def test_module_path(self):
        topology = StarMesh(2, 2, concentration=2)
        routing = ShortestPathRouting(topology)
        path = routing.module_path(0, 7)
        assert path[0] == 0
        assert path[-1] == 3


class TestTrafficPatterns:
    def test_uniform_row_sums_equal_injection_rate(self):
        topology = Mesh2D(4, 4)
        traffic = UniformTraffic(topology, 0.3)
        rates = traffic.rate_matrix()
        np.testing.assert_allclose(rates.sum(axis=1), 0.3)
        assert np.all(np.diag(rates) == 0.0)

    def test_uniform_total_offered_load(self):
        topology = Mesh2D(4, 4)
        traffic = UniformTraffic(topology, 0.25)
        assert traffic.total_offered_load() == pytest.approx(0.25 * 16)

    def test_uniform_single_module(self):
        topology = Mesh2D(1, 1)
        assert UniformTraffic(topology, 0.5).rate_matrix().sum() == 0.0

    def test_hotspot_concentrates_traffic(self):
        topology = Mesh2D(4, 4)
        traffic = HotspotTraffic(topology, 0.3, hotspot_modules=[5],
                                 hotspot_fraction=0.5)
        rates = traffic.rate_matrix()
        column_loads = rates.sum(axis=0)
        assert column_loads[5] == column_loads.max()
        np.testing.assert_allclose(rates.sum(axis=1),
                                   np.where(np.arange(16) == 5,
                                            rates.sum(axis=1)[5], 0.3),
                                   atol=1e-12)

    def test_hotspot_validation(self):
        topology = Mesh2D(4, 4)
        with pytest.raises(ValueError):
            HotspotTraffic(topology, 0.3, hotspot_modules=[99])
        with pytest.raises(ValueError):
            HotspotTraffic(topology, 0.3, hotspot_fraction=1.5)
        with pytest.raises(ValueError):
            HotspotTraffic(topology, 0.3, hotspot_modules=[])

    def test_transpose_is_permutation(self):
        topology = Mesh2D(4, 4)
        rates = TransposeTraffic(topology, 0.2).rate_matrix()
        row_nonzero = (rates > 0).sum(axis=1)
        assert np.all(row_nonzero <= 1)
        assert rates.max() == pytest.approx(0.2)

    def test_neighbor_traffic_is_local(self):
        topology = Mesh2D(4, 4)
        rates = NeighborTraffic(topology, 0.2).rate_matrix()
        assert np.count_nonzero(rates) == 16
        np.testing.assert_allclose(rates.sum(axis=1), 0.2)

    def test_negative_injection_rejected(self):
        with pytest.raises(ValueError):
            UniformTraffic(Mesh2D(2, 2), -0.1)

    @given(st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=20)
    def test_uniform_scales_linearly(self, rate):
        topology = Mesh2D(3, 3)
        base = UniformTraffic(topology, 1.0).rate_matrix()
        scaled = UniformTraffic(topology, rate).rate_matrix()
        np.testing.assert_allclose(scaled, rate * base, atol=1e-12)


# ----------------------------------------------------------------------
# Property tests: routing equivalence and traffic-rate invariants
# ----------------------------------------------------------------------
from repro.noc.topology import GridTopology  # noqa: E402

mesh_dimensions = st.lists(st.integers(min_value=1, max_value=4),
                           min_size=2, max_size=3)
concentrations = st.integers(min_value=1, max_value=3)


class TestRoutingProperties:
    @given(mesh_dimensions)
    @settings(max_examples=25, deadline=None)
    def test_dor_and_shortest_path_hop_counts_agree_on_meshes(self, dims):
        # Dimension-ordered routing is minimal on every mesh, so its hop
        # counts must equal BFS shortest paths for all router pairs.
        topology = GridTopology(dims)
        dor = DimensionOrderedRouting(topology)
        spf = ShortestPathRouting(topology)
        for source in range(topology.n_routers):
            for destination in range(topology.n_routers):
                assert dor.hop_count(source, destination) == \
                    spf.hop_count(source, destination)

    @given(mesh_dimensions)
    @settings(max_examples=15, deadline=None)
    def test_next_router_tables_take_one_minimal_step(self, dims):
        # Every table entry must be the second router of the full path
        # (DOR) or one hop closer to the destination (both routings).
        topology = GridTopology(dims)
        for routing_class in (DimensionOrderedRouting, ShortestPathRouting):
            routing = routing_class(topology)
            table = routing.next_router_table()
            assert table.shape == (topology.n_routers, topology.n_routers)
            for source in range(topology.n_routers):
                for destination in range(topology.n_routers):
                    step = int(table[source, destination])
                    if source == destination:
                        assert step == source
                        continue
                    assert topology.router_distance(source, step) == 1
                    assert topology.router_distance(step, destination) == \
                        topology.router_distance(source, destination) - 1

    @given(mesh_dimensions)
    @settings(max_examples=15, deadline=None)
    def test_dor_table_matches_router_path(self, dims):
        topology = GridTopology(dims)
        routing = DimensionOrderedRouting(topology)
        table = routing.next_router_table()
        for source in range(topology.n_routers):
            for destination in range(topology.n_routers):
                path = routing.router_path(source, destination)
                expected = path[1] if len(path) > 1 else source
                assert int(table[source, destination]) == expected


def _registry_topologies():
    """Every NoC topology a registry scenario builds, keyed by its name."""
    from repro.scenarios.registry import build_scenario, scenario_names
    from repro.scenarios.specs import NocSpec

    topologies = {}
    for name in scenario_names():
        scenario = build_scenario(name)
        for spec in scenario.specs.values():
            if not isinstance(spec, NocSpec):
                continue
            # mesh3d-scaling sweeps the 3D-mesh shape per point.
            shapes = [tuple(int(v) for v in point["dimensions"].split("x"))
                      for point in scenario.points if "dimensions" in point]
            specs = [spec] + [spec.replace(topology="mesh3d", concentration=1,
                                           dimensions=shape)
                              for shape in shapes]
            for variant in specs:
                topology = variant.make_topology()
                topologies[topology.name] = topology
    return topologies


@pytest.mark.parametrize("routing_class",
                         [DimensionOrderedRouting, ShortestPathRouting])
def test_walking_the_next_router_table_reproduces_router_path(routing_class):
    # The analytic model routes by walking next_router_table(); that is
    # only sound if the walk visits exactly the routers of router_path().
    # Every pair is checked up to 144 routers; on the 512-router meshes
    # every 16th source router is checked against every destination.
    topologies = _registry_topologies()
    assert {"8x8 2D mesh", "32x16 2D mesh", "8x8x8 3D mesh",
            "6x6x4 3D mesh"} <= set(topologies)
    for topology in topologies.values():
        routing = routing_class(topology)
        table = routing.next_router_table().tolist()
        n_routers = topology.n_routers
        stride = 1 if n_routers <= 144 else 16
        for source in range(0, n_routers, stride):
            for destination in range(n_routers):
                walk = [source]
                while walk[-1] != destination:
                    assert len(walk) <= n_routers, topology.name
                    walk.append(table[walk[-1]][destination])
                assert walk == routing.router_path(source, destination), \
                    (topology.name, source, destination)


class TestTrafficRateProperties:
    @given(mesh_dimensions, concentrations,
           st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=25, deadline=None)
    def test_every_pattern_row_sums_to_injection_rate(self, dims,
                                                      concentration, rate):
        # The shared invariant: every module with at least one
        # destination offers exactly ``injection_rate`` flits/cycle.
        # (A module without destinations — a 1-module network, or the
        # transpose fixed point — offers nothing.)
        topology = GridTopology(dims, concentration=concentration)
        for pattern_class in (UniformTraffic, HotspotTraffic,
                              TransposeTraffic, NeighborTraffic):
            rates = pattern_class(topology, rate).rate_matrix()
            assert rates.shape == (topology.n_modules, topology.n_modules)
            assert np.all(rates >= 0.0)
            assert np.all(np.diag(rates) == 0.0)
            row_sums = rates.sum(axis=1)
            has_destinations = row_sums > 0.0
            np.testing.assert_allclose(row_sums[has_destinations], rate,
                                       rtol=1e-9)
            if topology.n_modules > 1 and pattern_class is not TransposeTraffic:
                # Only the transpose fixed point may be silent.
                assert has_destinations.all()
