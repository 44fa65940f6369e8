"""Analytic queueing-theory performance model for NoC topologies.

This reproduces the role of the model the paper cites as [14] (Fischer,
Fehske, Fettweis, "A flexible analytic model for the design space
exploration of many-core network-on-chips based on queueing theory"): mean
packet latency and saturation throughput are obtained without cycle-level
simulation by

1. routing every traffic flow over the topology (dimension-ordered routing),
2. accumulating the per-channel loads,
3. modelling every channel (router-to-router link, injection and ejection
   port) as an M/M/1 queue whose waiting time diverges as the channel load
   approaches its capacity, and
4. summing pipeline latency and waiting times along each flow's path,
   weighted by the flow rates.

Step 1 walks every active (source, destination) router pair at once over
the routing's ``next_router_table()`` (the table the cycle-level simulator
routes with), a block of source routers at a time so memory stays bounded
on 512-router meshes.  The results are bit-for-bit those of a per-pair
Python loop over ``router_path`` (kept as a test oracle): link loads are
accumulated with ``np.add.at`` in that loop's pair-major, hop-minor order,
channels keep its first-seen order, and every scalar total is taken with
``np.add.accumulate`` (left to right, like the loop) rather than
``np.sum`` (pairwise), so each float sum adds the same terms in the same
order.

Calibration: the router pipeline latency (2 cycles per traversed router)
and the effective channel service time (1.2 cycles per flit, absorbing
switch-allocation and protocol overheads of the reference router) are
chosen so the 64-module zero-load latencies and saturation points of the
paper's Fig. 8(a) are reproduced: about 13 / 7 / 10 cycles and
0.41 / 0.19 / 0.75 flits/cycle/module for the 8x8 2D mesh, 4x4x4 star-mesh
and 4x4x4 3D mesh respectively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.noc.routing import DimensionOrderedRouting
from repro.noc.topology import GridTopology
from repro.noc.traffic import UniformTraffic
from repro.utils.validation import check_non_negative, check_positive

Channel = Tuple[str, int, int]

#: Upper bound on the (pair, hop) cells of one block of the routing walk;
#: 2**19 int64 cells keep each walk array at 4 MiB.
_WALK_BLOCK_CELLS = 1 << 19


def _ordered_sum(values: np.ndarray) -> np.ndarray:
    """Left-to-right sum over the last axis (``np.sum`` adds pairwise)."""
    if values.shape[-1] == 0:
        return np.zeros(values.shape[:-1])
    return np.add.accumulate(values, axis=-1)[..., -1]


@dataclass(frozen=True)
class RouterParameters:
    """Timing parameters of the router model.

    Attributes
    ----------
    pipeline_latency_cycles:
        Cycles a head flit spends inside each traversed router at zero load.
    service_time_cycles:
        Effective time a flit occupies a channel (link or local port);
        values above 1.0 absorb allocation/protocol overheads.
    link_latency_cycles:
        Additional wire delay per router-to-router channel.
    """

    pipeline_latency_cycles: float = 2.0
    service_time_cycles: float = 1.2
    link_latency_cycles: float = 0.0

    def __post_init__(self) -> None:
        check_positive("pipeline_latency_cycles", self.pipeline_latency_cycles)
        check_positive("service_time_cycles", self.service_time_cycles)
        check_non_negative("link_latency_cycles", self.link_latency_cycles)


@dataclass(frozen=True)
class LatencyResult:
    """Mean latency evaluated at a list of injection rates.

    Attributes
    ----------
    injection_rates:
        Offered load per module in flits/cycle/module.
    mean_latency_cycles:
        Mean packet latency; ``inf`` beyond the saturation point.
    saturation_rate:
        Injection rate at which the most loaded channel reaches 100 %
        utilisation.
    topology_name:
        Name of the evaluated topology.
    """

    injection_rates: np.ndarray
    mean_latency_cycles: np.ndarray
    saturation_rate: float
    topology_name: str

    def zero_load_latency(self) -> float:
        """Latency of the lowest evaluated injection rate."""
        finite = self.mean_latency_cycles[np.isfinite(self.mean_latency_cycles)]
        if finite.size == 0:
            raise ValueError("no finite latency points in the result")
        return float(finite[0])


class AnalyticNocModel:
    """Queueing-theory latency/throughput model for one topology + pattern.

    Parameters
    ----------
    topology:
        Any :class:`repro.noc.topology.GridTopology`.
    router:
        Timing parameters; defaults reproduce the paper's calibration.
    traffic_class:
        Traffic pattern class (default uniform, as in Fig. 8); the pattern
        is instantiated per injection rate but its *shape* is assumed
        independent of the rate, which holds for all shipped patterns.
    routing_class:
        Routing algorithm class (default dimension-ordered, the paper's
        assumption); any class from :mod:`repro.noc.routing` works.
    """

    def __init__(self, topology: GridTopology,
                 router: RouterParameters = RouterParameters(),
                 traffic_class=UniformTraffic,
                 routing_class=DimensionOrderedRouting,
                 **traffic_kwargs) -> None:
        self.topology = topology
        self.router = router
        self.routing = routing_class(topology)
        self.traffic_class = traffic_class
        self.traffic_kwargs = traffic_kwargs
        (self._channels, self._unit_loads,
         self._weighted_hops) = self._analyse_unit_traffic()
        self._injection = np.array(
            [channel[0] == "injection" for channel in self._channels],
            dtype=bool)

    # ------------------------------------------------------------------
    # traffic analysis (per unit injection rate)
    # ------------------------------------------------------------------
    def _analyse_unit_traffic(self) -> Tuple[List[Channel], np.ndarray, float]:
        """Channels, unit-injection loads and weighted router traversals."""
        topology = self.topology
        rates = self.traffic_class(topology, 1.0,
                                   **self.traffic_kwargs).rate_matrix()
        n_modules = topology.n_modules
        if rates.shape != (n_modules, n_modules):
            raise ValueError("traffic pattern produced a mis-shaped rate matrix")
        total_rate = rates.sum()
        n_routers = topology.n_routers
        # Aggregate module pairs by router pairs to cut the path
        # enumeration from (c*R)^2 to R^2 flows.
        router_rates = rates.reshape(
            n_routers, topology.concentration,
            n_routers, topology.concentration,
        ).sum(axis=(1, 3))

        # Local ports: per module its injection then its ejection channel,
        # each only if it carries traffic.  Row sums of the transposed
        # copy add each column in the same (pairwise) order as
        # ``rates[:, m].sum()``; ``rates.sum(axis=0)`` would not.
        port_loads = np.stack([rates.sum(axis=1),
                               np.ascontiguousarray(rates.T).sum(axis=1)],
                              axis=1).ravel()
        ports = np.flatnonzero(port_loads > 0.0)
        channels: List[Channel] = [
            ("injection" if port % 2 == 0 else "ejection", port // 2, -1)
            for port in ports.tolist()]

        links, link_loads, router_traversals = self._walk_routes(router_rates)
        upstream, downstream = np.divmod(links, n_routers)
        channels.extend(("link", up, down) for up, down in
                        zip(upstream.tolist(), downstream.tolist()))
        unit_loads = np.concatenate([port_loads[ports], link_loads])
        if total_rate <= 0.0:
            return channels, unit_loads, 1.0
        weighted = _ordered_sum(router_traversals) / total_rate
        return channels, unit_loads, weighted

    def _walk_routes(self, router_rates: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Route every active router pair over the next-router table.

        Returns the used links (``upstream * n_routers + downstream``) in
        the order a pair-major, hop-minor walk first meets them, their
        loads, and ``rate * routers_on_path`` per active pair in
        pair-major order.
        """
        n_routers = self.topology.n_routers
        table = self.routing.next_router_table()
        link_loads = np.zeros(n_routers * n_routers)
        unseen = np.iinfo(np.int64).max
        first_seen = np.full(n_routers * n_routers, unseen, dtype=np.int64)
        traversals = []
        offset = 0
        cells_per_source = n_routers * (self.topology.diameter() + 1)
        block = max(1, _WALK_BLOCK_CELLS // cells_per_source)
        for start in range(0, n_routers, block):
            block_rates = router_rates[start:start + block]
            # Skip exactly the pairs the per-pair loop skips (``rate <= 0``).
            sources, destinations = np.nonzero(~(block_rates <= 0.0))
            pair_rates = block_rates[sources, destinations]
            pair = np.arange(len(pair_rates))
            here = sources + start
            there = destinations
            hop_counts = np.zeros(len(pair_rates), dtype=np.int64)
            steps = []
            # One step moves every pair still on its way one hop along
            # the table; arrived pairs drop out.
            while True:
                moving = here != there
                pair, here, there = pair[moving], here[moving], there[moving]
                if pair.size == 0:
                    break
                if len(steps) == n_routers:
                    raise ValueError("routing table does not reach every "
                                     "destination")
                following = table[here, there]
                steps.append((pair, here * n_routers + following))
                hop_counts[pair] += 1
                here = following
            # Lay the links out pair-major, hop-minor: the order the
            # per-pair loop visits them.  A pair still moving at step s
            # has moved at every earlier step, so its hop s sits at
            # (its first slot) + s.
            first_slot = np.cumsum(hop_counts) - hop_counts
            stream = np.empty(int(hop_counts.sum()), dtype=np.int64)
            for step, (moved, link) in enumerate(steps):
                stream[first_slot[moved] + step] = link
            np.add.at(link_loads, stream, np.repeat(pair_rates, hop_counts))
            np.minimum.at(first_seen, stream,
                          np.arange(offset, offset + len(stream)))
            offset += len(stream)
            traversals.append(pair_rates * (hop_counts + 1))
        seen = np.flatnonzero(first_seen != unseen)
        links = seen[np.argsort(first_seen[seen])]
        return links, link_loads[links], np.concatenate(traversals)

    # ------------------------------------------------------------------
    # public queries
    # ------------------------------------------------------------------
    @property
    def weighted_router_traversals(self) -> float:
        """Rate-weighted mean number of routers a packet traverses."""
        return self._weighted_hops

    def channel_loads(self, injection_rate: float) -> Dict[Channel, float]:
        """Per-channel loads (flits/cycle) at an injection rate."""
        check_non_negative("injection_rate", injection_rate)
        return dict(zip(self._channels, self._unit_loads * injection_rate))

    def max_channel_load_per_unit_injection(self) -> float:
        """Load of the busiest channel for unit injection rate."""
        if self._unit_loads.size == 0:
            return 0.0
        return self._unit_loads.max()

    def saturation_rate(self) -> float:
        """Injection rate at which the busiest channel reaches utilisation 1."""
        max_load = self.max_channel_load_per_unit_injection()
        if max_load <= 0.0:
            return float("inf")
        return 1.0 / (max_load * self.router.service_time_cycles)

    def zero_load_latency(self) -> float:
        """Mean packet latency in the no-contention limit."""
        hops = self._weighted_hops - 1.0
        return (self._weighted_hops * self.router.pipeline_latency_cycles
                + hops * self.router.link_latency_cycles)

    def _mean_latencies(self, injection_rates: np.ndarray) -> np.ndarray:
        """Mean packet latency at each (non-negative) injection rate.

        Every channel is an M/M/1 queue; the rate-weighted waiting times
        are summed over the channels in channel order and normalised by
        the total injected rate.  Past saturation the latency is ``inf``.
        """
        service = self.router.service_time_cycles
        base = self.zero_load_latency()
        loads = self._unit_loads[None, :] * injection_rates[:, None]
        utilisation = loads * service
        with np.errstate(divide="ignore", invalid="ignore"):
            waiting = utilisation * service / (1.0 - utilisation)
        waiting_total = _ordered_sum(waiting * loads)
        total_rate = _ordered_sum(loads[:, self._injection])
        offered = injection_rates != 0.0
        latencies = np.full(injection_rates.shape, base, dtype=float)
        loaded = offered & ~(total_rate <= 0.0)
        latencies[loaded] = base + waiting_total[loaded] / total_rate[loaded]
        latencies[offered & (utilisation >= 1.0).any(axis=1)] = np.inf
        return latencies

    def mean_latency(self, injection_rate: float) -> float:
        """Mean packet latency at an injection rate (``inf`` past saturation)."""
        check_non_negative("injection_rate", injection_rate)
        return self._mean_latencies(np.array([injection_rate], dtype=float))[0]

    def evaluate(self, injection_rate: float, rng=None) -> "NocEvaluation":
        """One operating point in the unified :class:`~repro.noc.model.NocModel` shape.

        ``rng`` is accepted for interface parity with the simulated model
        and ignored — the analytic model is deterministic.
        """
        from repro.noc.model import NocEvaluation

        check_non_negative("injection_rate", injection_rate)
        return NocEvaluation(
            injection_rate=float(injection_rate),
            mean_latency_cycles=float(self.mean_latency(injection_rate)),
            accepted_throughput=float(self.throughput_at(injection_rate)),
            saturated=bool(injection_rate >= self.saturation_rate()),
            source="analytic")

    def latency_curve(self, injection_rates: Sequence[float],
                      rng=None) -> LatencyResult:
        """Evaluate the latency at a list of injection rates (Fig. 8 curves).

        ``rng`` is accepted for interface parity with
        :class:`~repro.noc.model.SimulatedNocModel` and ignored.
        """
        rates = np.asarray(list(injection_rates), dtype=float)
        if rates.size == 0:
            raise ValueError("at least one injection rate is required")
        if np.any(rates < 0.0):
            raise ValueError("injection rates must be non-negative")
        latencies = self._mean_latencies(rates)
        return LatencyResult(injection_rates=rates,
                             mean_latency_cycles=latencies,
                             saturation_rate=self.saturation_rate(),
                             topology_name=self.topology.name)

    def throughput_at(self, injection_rate: float) -> float:
        """Accepted throughput (flits/cycle/module): offered load capped at saturation."""
        check_non_negative("injection_rate", injection_rate)
        return float(min(injection_rate, self.saturation_rate()))
