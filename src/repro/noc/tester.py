"""On-chip network testers (Fig. 5 includes one per tile).

Synthetic traffic generation and measurement for characterizing the main
network in isolation: latency-vs-injection-rate curves, saturation
throughput, and the broadcast capacity bound of Sec. 5.3 (a k x k mesh
sustains at most 1/k^2 broadcast flits/node/cycle — 0.027 for 36 cores,
0.01 for 100).

The tester bypasses the coherence stack entirely: it drives the router's
LOCAL port through the same :class:`~repro.noc.vc.OutPort` a NIC injects
through and consumes ejected packets immediately.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.noc.config import NocConfig
from repro.noc.mesh import Mesh
from repro.noc.packet import Packet, VNet
from repro.noc.routing import LOCAL
from repro.noc.vc import OutPort
from repro.sim.engine import Clocked, Engine, EventWheel
from repro.sim.stats import StatsRegistry

PATTERNS = ("uniform", "broadcast", "transpose", "bit_complement",
            "neighbor", "hotspot", "tornado")


@dataclass
class TrafficConfig:
    pattern: str = "uniform"
    injection_rate: float = 0.05   # packets/node/cycle
    vnet: VNet = VNet.GO_REQ
    packet_flits: int = 1
    warmup: int = 200
    seed: int = 0
    # hotspot pattern: fraction of packets aimed at the hot node (the
    # rest go uniform-random); the hot node defaults to the mesh centre.
    hotspot_fraction: float = 0.5
    hotspot_node: Optional[int] = None

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}; "
                             f"known: {PATTERNS}")
        if not 0.0 < self.injection_rate <= 1.0:
            raise ValueError("injection rate must be in (0, 1]")
        if not 0.0 <= self.hotspot_fraction <= 1.0:
            raise ValueError("hotspot fraction must be in [0, 1]")


class NodeTester(Clocked):
    """Traffic generator + sink at one node's LOCAL port."""

    def __init__(self, node: int, noc: NocConfig, traffic: TrafficConfig,
                 stats: StatsRegistry, rng: random.Random) -> None:
        self.node = node
        self.noc = noc
        self.traffic = traffic
        self.stats = stats
        self.rng = rng
        self._lane: Optional[OutPort] = None
        self._credit_returns = EventWheel()
        self._pending_eject = EventWheel()
        self._backlog: List[Packet] = []
        self._seq = 0
        self.injected = 0
        self.received = 0
        self.latencies: List[int] = []

    def attach(self, router) -> None:
        self._lane = OutPort(self.noc, router, LOCAL, self.node)

    # -- destination patterns -------------------------------------------

    def _destination(self) -> Optional[int]:
        n = self.noc.n_nodes
        width, height = self.noc.width, self.noc.height
        pattern = self.traffic.pattern
        if pattern == "broadcast":
            return None
        if pattern == "uniform":
            return self._uniform_destination(n)
        x, y = self.node % width, self.node // width
        if pattern == "transpose":
            if width != height:
                raise ValueError("transpose needs a square mesh")
            return x * width + y
        if pattern == "bit_complement":
            return (n - 1) - self.node
        if pattern == "neighbor":
            return (y * width) + ((x + 1) % width)
        if pattern == "hotspot":
            hot = self.traffic.hotspot_node
            if hot is None:
                hot = (height // 2) * width + width // 2
            if self.node != hot \
                    and self.rng.random() < self.traffic.hotspot_fraction:
                return hot
            return self._uniform_destination(n)
        if pattern == "tornado":
            # Half-way around each dimension: the classic adversarial
            # pattern for dimension-ordered routing.
            return ((y + height // 2) % height) * width \
                + (x + width // 2) % width
        raise AssertionError(pattern)

    def _uniform_destination(self, n: int) -> int:
        dst = self.rng.randrange(n - 1)
        return dst if dst < self.node else dst + 1

    # -- downstream interface -------------------------------------------

    def deliver_packet(self, packet, inport, vnet, vc_index, arrive_cycle):
        self._pending_eject.push(arrive_cycle, (packet, vnet, vc_index))

    def queue_credit_release(self, outport, vnet, vc, flits, cycle):
        self._credit_returns.push(cycle, (vnet, vc, flits))

    # -- clocking --------------------------------------------------------

    # NOTE: the tester draws its Bernoulli injection RNG every single
    # cycle, so it can never declare quiescence — sleeping would shift
    # the draw sequence and change the generated traffic.  Synthetic
    # mesh characterization therefore runs every tick, by design.
    def step(self, cycle: int) -> None:
        lane = self._lane
        for vnet, vc, flits in self._credit_returns.pop_due(cycle):
            lane.give_back(vnet, vc, flits)
        for packet, vnet, vc_index in self._pending_eject.pop_due(cycle):
            self.received += 1
            if packet.inject_cycle >= self.traffic.warmup:
                self.latencies.append(cycle - packet.inject_cycle)
            lane.return_credits(cycle, vnet, vc_index, packet.size_flits)
        # Bernoulli injection process + backlog retry.
        if self.rng.random() < self.traffic.injection_rate:
            self._backlog.append(self._make_packet())
        if self._backlog and self._try_inject(self._backlog[0], cycle):
            self._backlog.pop(0)

    def _make_packet(self) -> Packet:
        packet = Packet(vnet=self.traffic.vnet, src=self.node,
                        dst=self._destination(), sid=self.node,
                        size_flits=self.traffic.packet_flits, seq=self._seq)
        self._seq += 1
        return packet

    def _try_inject(self, packet: Packet, cycle: int) -> bool:
        vc = self._lane.select(packet)
        if vc is None:
            return False
        self._lane.take(packet, vc)
        packet.inject_cycle = cycle
        self._lane.send(cycle, packet, vc)
        self.injected += 1
        return True


@dataclass
class TrafficResult:
    pattern: str
    injection_rate: float
    offered_packets: int
    delivered_packets: int
    avg_latency: float
    p95_latency: float
    throughput: float    # delivered flits/node/cycle (post-warmup approx)
    saturated: bool


class NetworkTester:
    """Drives a standalone mesh with synthetic traffic and measures it."""

    def __init__(self, noc: Optional[NocConfig] = None) -> None:
        self.noc = noc or NocConfig()

    def run(self, traffic: TrafficConfig, cycles: int = 2000) -> TrafficResult:
        engine = Engine(seed=traffic.seed)
        stats = StatsRegistry()
        mesh = Mesh(self.noc, engine, stats)
        rng = random.Random(traffic.seed)
        testers = []
        for node in range(self.noc.n_nodes):
            tester = NodeTester(node, self.noc, traffic, stats,
                                random.Random(rng.randrange(1 << 30)))
            router = mesh.attach(node, tester)
            tester.attach(router)
            engine.register(tester)
            testers.append(tester)
        engine.run(cycles)

        latencies = [lat for t in testers for lat in t.latencies]
        delivered = sum(t.received for t in testers)
        offered = sum(t.injected for t in testers)
        n, measure = self.noc.n_nodes, max(1, cycles - traffic.warmup)
        flits = delivered * traffic.packet_flits
        avg = sum(latencies) / len(latencies) if latencies else 0.0
        p95 = (sorted(latencies)[int(0.95 * (len(latencies) - 1))]
               if latencies else 0.0)
        backlog = sum(len(t._backlog) for t in testers)
        saturated = backlog > 2 * n
        return TrafficResult(
            pattern=traffic.pattern,
            injection_rate=traffic.injection_rate,
            offered_packets=offered,
            delivered_packets=delivered,
            avg_latency=avg,
            p95_latency=p95,
            throughput=flits / (n * measure),
            saturated=saturated,
        )

    def latency_curve(self, pattern: str, rates, cycles: int = 2000,
                      seed: int = 0) -> List[TrafficResult]:
        """Latency-vs-load sweep (the classic NoC characterization)."""
        return [self.run(TrafficConfig(pattern=pattern, injection_rate=r,
                                       seed=seed), cycles)
                for r in rates]

    def broadcast_capacity_bound(self) -> float:
        """Theoretical broadcast throughput of this mesh (Sec. 5.3):
        1/k^2 flits/node/cycle for a k x k mesh."""
        return 1.0 / (self.noc.width * self.noc.height)
