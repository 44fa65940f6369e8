"""Network topologies for 3D Network-in-Chip-Stacks.

All topologies studied in the paper (Fig. 7) are regular grids of routers
with an optional *concentration* factor (several modules sharing one
router):

* 2D mesh — ``Mesh2D(8, 8)`` gives the paper's 64-module reference.
* star-mesh (concentrated mesh) — ``StarMesh(4, 4, concentration=4)`` is
  the paper's "4x4x4 star-mesh" (16 routers, 4 modules each).
* 3D mesh — ``Mesh3D(4, 4, 4)`` and ``Mesh3D(8, 8, 8)``.
* ciliated 3D mesh — a 3D mesh with concentration, i.e. the star-mesh idea
  applied to a layered 3D architecture.

The common machinery (coordinates, links, module placement) lives in
:class:`GridTopology`; the subclasses only fix the dimensionality and
naming.  Links are full duplex and modelled as two directed channels of
one flit/cycle each.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

Coordinate = Tuple[int, ...]
Link = Tuple[int, int]


class GridTopology:
    """A k-ary n-dimensional mesh of routers with module concentration.

    Parameters
    ----------
    dimensions:
        Number of routers along each axis, e.g. ``(8, 8)`` or ``(4, 4, 4)``.
    concentration:
        Number of modules (processing elements) attached to each router.
    name:
        Human-readable topology name used in benchmark tables.
    """

    def __init__(self, dimensions: Sequence[int], concentration: int = 1,
                 name: Optional[str] = None) -> None:
        dimensions = tuple(int(d) for d in dimensions)
        if not dimensions or any(d < 1 for d in dimensions):
            raise ValueError("every dimension must be a positive integer")
        if concentration < 1:
            raise ValueError("concentration must be at least 1")
        self.dimensions = dimensions
        self.concentration = int(concentration)
        self.name = name or f"{'x'.join(map(str, dimensions))} mesh (c={concentration})"
        self._strides = self._compute_strides(dimensions)
        self._coordinates = self._build_coordinates()
        self._graph = self._build_graph()

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _compute_strides(dimensions: Tuple[int, ...]) -> Tuple[int, ...]:
        strides = []
        stride = 1
        for size in dimensions:
            strides.append(stride)
            stride *= size
        return tuple(strides)

    def _build_coordinates(self) -> List[Coordinate]:
        coordinates = []
        for router in range(int(np.prod(self.dimensions))):
            coordinates.append(self.router_coordinate(router))
        return coordinates

    def _build_graph(self) -> nx.DiGraph:
        graph = nx.DiGraph()
        graph.add_nodes_from(range(self.n_routers))
        for router in range(self.n_routers):
            coordinate = self._coordinates[router]
            for axis, size in enumerate(self.dimensions):
                if coordinate[axis] + 1 < size:
                    neighbor = router + self._strides[axis]
                    graph.add_edge(router, neighbor, axis=axis, direction=+1)
                    graph.add_edge(neighbor, router, axis=axis, direction=-1)
        return graph

    # ------------------------------------------------------------------
    # sizes and identifiers
    # ------------------------------------------------------------------
    @property
    def n_dimensions(self) -> int:
        """Number of mesh axes (2 for planar, 3 for stacked topologies)."""
        return len(self.dimensions)

    @property
    def strides(self) -> Tuple[int, ...]:
        """Router-index stride of a unit step along each axis."""
        return self._strides

    @property
    def n_routers(self) -> int:
        """Number of routers."""
        return int(np.prod(self.dimensions))

    @property
    def n_modules(self) -> int:
        """Number of attached modules (processing elements)."""
        return self.n_routers * self.concentration

    def router_coordinate(self, router: int) -> Coordinate:
        """Grid coordinate of a router."""
        if not 0 <= router < int(np.prod(self.dimensions)):
            raise ValueError("router index out of range")
        coordinate = []
        remaining = router
        for size in self.dimensions:
            coordinate.append(remaining % size)
            remaining //= size
        return tuple(coordinate)

    def router_coordinates(self) -> np.ndarray:
        """Grid coordinates of all routers, ``(n_routers, n_dimensions)``."""
        return np.array(self._coordinates, dtype=np.int64).reshape(
            self.n_routers, self.n_dimensions)

    def coordinate_to_router(self, coordinate: Sequence[int]) -> int:
        """Router index for a grid coordinate."""
        coordinate = tuple(int(c) for c in coordinate)
        if len(coordinate) != self.n_dimensions:
            raise ValueError("coordinate has the wrong number of axes")
        router = 0
        for axis, (value, size) in enumerate(zip(coordinate, self.dimensions)):
            if not 0 <= value < size:
                raise ValueError("coordinate outside the grid")
            router += value * self._strides[axis]
        return router

    def router_of_module(self, module: int) -> int:
        """Router a module is attached to."""
        if not 0 <= module < self.n_modules:
            raise ValueError("module index out of range")
        return module // self.concentration

    def modules_of_router(self, router: int) -> List[int]:
        """Modules attached to a router."""
        if not 0 <= router < self.n_routers:
            raise ValueError("router index out of range")
        start = router * self.concentration
        return list(range(start, start + self.concentration))

    # ------------------------------------------------------------------
    # graph views
    # ------------------------------------------------------------------
    @property
    def graph(self) -> nx.DiGraph:
        """Directed router graph (one edge per unidirectional channel)."""
        return self._graph

    def links(self) -> Iterator[Link]:
        """Iterate over all unidirectional router-to-router channels."""
        return iter(self._graph.edges())

    @property
    def n_links(self) -> int:
        """Number of unidirectional router-to-router channels."""
        return self._graph.number_of_edges()

    def neighbors(self, router: int) -> List[int]:
        """Downstream neighbours of a router."""
        return list(self._graph.successors(router))

    def router_distance(self, source: int, destination: int) -> int:
        """Manhattan (minimal hop) distance between two routers."""
        a = self._coordinates[source]
        b = self._coordinates[destination]
        return int(sum(abs(x - y) for x, y in zip(a, b)))

    def diameter(self) -> int:
        """Largest minimal hop distance between any router pair."""
        return int(sum(size - 1 for size in self.dimensions))

    def max_wire_length(self, router_pitch: float = 1.0,
                        layer_pitch: float = 0.1) -> float:
        """Longest physical link length in arbitrary units.

        Horizontal links span ``router_pitch``; vertical (third-axis) links
        span ``layer_pitch``.  The paper's argument that 3D meshes have
        short wires comes from ``layer_pitch`` being much smaller than the
        die-level ``router_pitch``.
        """
        if router_pitch <= 0 or layer_pitch <= 0:
            raise ValueError("pitches must be strictly positive")
        length = router_pitch if self.n_dimensions <= 2 else max(
            router_pitch, layer_pitch)
        return float(length)

    def describe(self) -> Dict[str, float]:
        """Summary dictionary used by benchmark tables."""
        return {
            "name": self.name,
            "routers": self.n_routers,
            "modules": self.n_modules,
            "concentration": self.concentration,
            "links": self.n_links,
            "diameter": self.diameter(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(dimensions={self.dimensions}, "
                f"concentration={self.concentration})")


class Mesh2D(GridTopology):
    """Classical two-dimensional mesh (one module per router)."""

    def __init__(self, nx_routers: int, ny_routers: int,
                 concentration: int = 1) -> None:
        super().__init__((nx_routers, ny_routers), concentration,
                         name=f"{nx_routers}x{ny_routers} 2D mesh")


class StarMesh(GridTopology):
    """Concentrated (star) mesh: a 2D router mesh with several modules each.

    The paper's "4x4x4 star-mesh" is a 4x4 router grid with 4 modules per
    router; the high concentration yields very low zero-load latency but a
    small bisection bandwidth.
    """

    def __init__(self, nx_routers: int, ny_routers: int,
                 concentration: int = 4) -> None:
        super().__init__((nx_routers, ny_routers), concentration,
                         name=(f"{nx_routers}x{ny_routers}x{concentration} "
                               f"star-mesh"))


class Mesh3D(GridTopology):
    """Three-dimensional mesh enabled by 3D chip stacking."""

    def __init__(self, nx_routers: int, ny_routers: int, nz_routers: int,
                 concentration: int = 1) -> None:
        super().__init__((nx_routers, ny_routers, nz_routers), concentration,
                         name=f"{nx_routers}x{ny_routers}x{nz_routers} 3D mesh")


class CiliatedMesh3D(GridTopology):
    """Ciliated 3D mesh: a 3D mesh whose routers each serve several modules."""

    def __init__(self, nx_routers: int, ny_routers: int, nz_routers: int,
                 concentration: int = 2) -> None:
        super().__init__((nx_routers, ny_routers, nz_routers), concentration,
                         name=(f"{nx_routers}x{ny_routers}x{nz_routers} "
                               f"ciliated 3D mesh (c={concentration})"))
