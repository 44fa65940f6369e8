"""Routing algorithms for the grid topologies.

Dimension-ordered routing (XY for 2D, XYZ for 3D) is the deterministic,
deadlock-free workhorse used for all the paper's results; a shortest-path
router (networkx-based) is provided as an alternative for irregular
extensions and as a cross-check in tests.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Type

import networkx as nx
import numpy as np

from repro.noc.topology import GridTopology

Link = Tuple[int, int]


class DimensionOrderedRouting:
    """Deterministic dimension-ordered (XY/XYZ) routing.

    Packets correct their coordinate one axis at a time, in ascending axis
    order.  On a mesh this is minimal and deadlock-free, and it is the
    routing the queueing model of the paper assumes.
    """

    def __init__(self, topology: GridTopology) -> None:
        self.topology = topology

    def router_path(self, source_router: int, destination_router: int
                    ) -> List[int]:
        """Sequence of routers visited, including source and destination."""
        topology = self.topology
        current = list(topology.router_coordinate(source_router))
        destination = topology.router_coordinate(destination_router)
        path = [source_router]
        for axis in range(topology.n_dimensions):
            step = 1 if destination[axis] > current[axis] else -1
            while current[axis] != destination[axis]:
                current[axis] += step
                path.append(topology.coordinate_to_router(current))
        return path

    def links_on_path(self, source_router: int, destination_router: int
                      ) -> List[Link]:
        """Unidirectional channels traversed between two routers."""
        path = self.router_path(source_router, destination_router)
        return list(zip(path[:-1], path[1:]))

    def module_path(self, source_module: int, destination_module: int
                    ) -> List[int]:
        """Router path between the routers of two modules."""
        return self.router_path(
            self.topology.router_of_module(source_module),
            self.topology.router_of_module(destination_module))

    def hop_count(self, source_router: int, destination_router: int) -> int:
        """Number of router-to-router channels traversed."""
        return self.topology.router_distance(source_router, destination_router)

    def next_router_table(self) -> np.ndarray:
        """``table[current, destination]`` — the next router on the path.

        Diagonal entries equal the router itself (a packet at its
        destination router leaves through the ejection port).  The table
        is what the vectorized simulator routes with: one fancy-indexed
        lookup per cycle instead of one Python path walk per packet.
        """
        topology = self.topology
        n_routers = topology.n_routers
        coordinates = topology.router_coordinates()
        strides = np.asarray(topology.strides, dtype=np.int64)
        # dest - current over all pairs; the first non-matching axis is the
        # one dimension-ordered routing corrects next.
        difference = coordinates[None, :, :] - coordinates[:, None, :]
        first_axis = np.argmax(difference != 0, axis=2)
        step = np.sign(np.take_along_axis(
            difference, first_axis[..., None], axis=2))[..., 0]
        return np.arange(n_routers)[:, None] + step * strides[first_axis]


class ShortestPathRouting:
    """Shortest-path routing on the router graph (networkx BFS).

    On a plain mesh this coincides with dimension-ordered routing in hop
    count (though not necessarily in the exact path); it exists mainly for
    irregular/heterogeneous extensions of the topologies.
    """

    def __init__(self, topology: GridTopology) -> None:
        self.topology = topology
        self._paths = dict(nx.all_pairs_shortest_path(topology.graph))

    def router_path(self, source_router: int, destination_router: int
                    ) -> List[int]:
        """Sequence of routers visited, including source and destination."""
        try:
            return list(self._paths[source_router][destination_router])
        except KeyError as error:
            raise ValueError("router index out of range or unreachable") from error

    def links_on_path(self, source_router: int, destination_router: int
                      ) -> List[Link]:
        """Unidirectional channels traversed between two routers."""
        path = self.router_path(source_router, destination_router)
        return list(zip(path[:-1], path[1:]))

    def module_path(self, source_module: int, destination_module: int
                    ) -> List[int]:
        """Router path between the routers of two modules."""
        return self.router_path(
            self.topology.router_of_module(source_module),
            self.topology.router_of_module(destination_module))

    def hop_count(self, source_router: int, destination_router: int) -> int:
        """Number of router-to-router channels traversed."""
        return len(self.router_path(source_router, destination_router)) - 1

    def next_router_table(self) -> np.ndarray:
        """``table[current, destination]`` — the next router on the path.

        Built from the precomputed all-pairs BFS paths; diagonal entries
        equal the router itself, mirroring
        :meth:`DimensionOrderedRouting.next_router_table`.
        """
        n_routers = self.topology.n_routers
        table = np.empty((n_routers, n_routers), dtype=np.int64)
        for source in range(n_routers):
            paths = self._paths[source]
            for destination in range(n_routers):
                path = paths[destination]
                table[source, destination] = (path[1] if len(path) > 1
                                              else source)
        return table


#: Routing algorithms addressable by name (the :class:`NocSpec.routing`
#: knob and the CLI's ``--set noc.routing=...`` both resolve through this).
ROUTING_ALGORITHMS: Dict[str, Type] = {
    "dimension_ordered": DimensionOrderedRouting,
    "shortest_path": ShortestPathRouting,
}


def make_routing_class(name: str) -> Type:
    """Resolve a routing algorithm class from its registry name."""
    try:
        return ROUTING_ALGORITHMS[name]
    except KeyError:
        raise ValueError(
            f"unknown routing algorithm {name!r}; known: "
            f"{sorted(ROUTING_ALGORITHMS)}") from None
