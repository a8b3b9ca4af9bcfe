"""Cycle-driven flit-level simulation of a hybrid-switched mesh.

Each physical link is space-division multiplexed into equal-width subnets:
subnet 0 runs buffered wormhole switching with virtual channels, the
remaining subnets are bufferless and carry pre-configured circuits.

Timing contracts the engine realizes:

  VC     4 router pipeline cycles (route, VC alloc, switch alloc, switch
         traversal) plus 1 link cycle per hop; ejection exits after the
         destination pipeline, so an unloaded h-hop flit takes 5h + 4.
  CS e2e 1 cycle per router and 1 per link end to end: 2h + 1.
  CS r2r full pipeline at the first and last router, single-cycle bypass
         in between: 2(h - 1) + 1 + 2*4 = 2h + 7.

Circuits never buffer flits; contention exists only at their injection
side, where packets of one circuit serialize (one packet in flight at a
time) and packets sharing an NI wire serialize flit by flit.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count, groupby, product
from operator import attrgetter, itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from .allocator import CircuitPlan
from .topology import MAX_CS_SUBNETS, MAX_MESH_SIDE, ConfigError, MeshConfig
from .traffic import PacketClass, TrafficEvent, flits_for_packet

log = logging.getLogger(__name__)

# drain barrier the reconfiguration model allows for in-flight circuits
_RECONFIG_BARRIER_CYCLES = 1000
# cycles a run may take to drain after its last input before the engine
# calls it stuck
_DRAIN_CYCLES = 10_000_000
# most stepped cycles between two retirements of ejected flits
_SETTLE_CYCLES = 256
# the order of sa_active
_BY_KEY = attrgetter("key")
# largest [vc] values VcConfig accepts; the engine builds vnets *
# vcs_per_vnet input VCs per router port
MAX_VNETS = 16
MAX_VCS_PER_VNET = 16
MAX_BUFFER_DEPTH_FLITS = 256


class SimulationError(RuntimeError):
    """Internal consistency failure; indicates an engine bug."""


@dataclass(frozen=True)
class SubnetLayout:
    """How one physical link splits into subnets.

    Exactly one subnet (index 0) is the VC subnet; the other
    subnet_count - 1, at most as many as a plan file may name, are circuit
    switched.  All subnets share the width total_width_bits / subnet_count.
    """

    total_width_bits: int = 128
    subnet_count: int = 2
    gate_cs_buffers: bool = True

    def __post_init__(self) -> None:
        if self.total_width_bits <= 0:
            raise ConfigError("link width must be positive")
        if self.subnet_count < 1:
            raise ConfigError("need at least one subnet")
        if self.subnet_count > MAX_CS_SUBNETS + 1:
            raise ConfigError(f"subnet_count must be at most {MAX_CS_SUBNETS + 1}")
        if self.total_width_bits % self.subnet_count != 0:
            raise ConfigError("subnet count must divide the link width")

    @property
    def subnet_width_bits(self) -> int:
        return self.total_width_bits // self.subnet_count

    @property
    def cs_subnet_count(self) -> int:
        return self.subnet_count - 1


@dataclass(frozen=True)
class VcConfig:
    """Virtual-channel organization of the buffered subnet."""

    vnets: int = 3
    vcs_per_vnet: int = 4
    buffer_depth_flits: int = 4

    def __post_init__(self) -> None:
        if self.vnets < 1 or self.vcs_per_vnet < 1:
            raise ConfigError("need at least one vnet and one VC per vnet")
        if self.buffer_depth_flits < 1:
            raise ConfigError("buffers must hold at least one flit")
        for name, most in (("vnets", MAX_VNETS), ("vcs_per_vnet", MAX_VCS_PER_VNET),
                           ("buffer_depth_flits", MAX_BUFFER_DEPTH_FLITS)):
            if getattr(self, name) > most:
                raise ConfigError(f"{name} must be at most {most}")

    @property
    def vc_count(self) -> int:
        return self.vnets * self.vcs_per_vnet


@dataclass(frozen=True)
class FlitRecord:
    packet_id: int
    flit_index: int
    inject_cycle: int
    eject_cycle: int
    route_class: str
    hops: int


@dataclass
class SimStats:
    """Counters from one window of a run (see Simulation.finalize).

    Fields hold what the engine counts and the figures fixed for the whole
    run.  Every counter, max_vc_occupancy included, covers only its own
    window; in_flight is what the network still holds when the window
    closes.  Per-subnet counters are lists indexed by subnet; index 0 is the
    VC subnet, so a correct run shows zero buffer activity beyond index 0.

    Derived figures, read as properties: lat_sum and lat_count per route
    class from latency_hist; buffer_reads, one per VC switch grant, is
    sw_allocations on subnet 0; crossbar_traversals is hops + 1 per circuit
    flit, link_traversals plus cs_flits_per_subnet on each subnet that
    carried circuit flits (a subnet carries VC or circuit flits, never
    both), plus sw_allocations on subnet 0; active_buffer_cycles and
    gated_buffer_cycles are buffers per cycle times cycles_simulated.
    """

    subnet_count: int = 1
    flits_injected: int = 0
    flits_ejected: int = 0
    in_circuit_flits: int = 0
    packets_seen: int = 0
    buffer_writes: List[int] = field(default_factory=list)
    link_traversals: List[int] = field(default_factory=list)
    cs_flits_per_subnet: List[int] = field(default_factory=list)
    vc_allocations: int = 0
    sw_allocations: int = 0
    lat_net_sum: Dict[str, int] = field(default_factory=lambda: {"vc": 0, "cs": 0})
    latency_hist: Dict[str, Dict[int, int]] = field(
        default_factory=lambda: {"vc": {}, "cs": {}}
    )
    unloaded_sum: int = 0
    cycles_simulated: int = 0
    n_routers: int = 0
    subnet_widths: List[int] = field(default_factory=list)
    active_buffers_per_cycle: int = 0
    gated_buffers_per_cycle: int = 0
    max_vc_occupancy: int = 0
    in_flight: int = 0
    flit_records: List[FlitRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.buffer_writes:
            self.buffer_writes = [0] * self.subnet_count
            self.link_traversals = [0] * self.subnet_count
            self.cs_flits_per_subnet = [0] * self.subnet_count

    # --- derived metrics ---------------------------------------------------

    @property
    def lat_sum(self) -> Dict[str, int]:
        return {kind: sum(lat * n for lat, n in hist.items())
                for kind, hist in self.latency_hist.items()}

    @property
    def lat_count(self) -> Dict[str, int]:
        return {kind: sum(hist.values()) for kind, hist in self.latency_hist.items()}

    @property
    def buffer_reads(self) -> List[int]:
        return [self.sw_allocations] + [0] * (self.subnet_count - 1)

    @property
    def crossbar_traversals(self) -> List[int]:
        out = [links + flits if flits else 0
               for links, flits in zip(self.link_traversals, self.cs_flits_per_subnet)]
        out[0] += self.sw_allocations
        return out

    @property
    def active_buffer_cycles(self) -> int:
        return self.active_buffers_per_cycle * self.cycles_simulated

    @property
    def gated_buffer_cycles(self) -> int:
        return self.gated_buffers_per_cycle * self.cycles_simulated

    def measured_flits(self) -> int:
        return sum(self.lat_count.values())

    def _mean(self, sums: Dict[str, int], route_class: Optional[str]) -> float:
        if route_class is None:
            n = self.measured_flits()
            s = sum(sums.values())
        else:
            n = self.lat_count[route_class]
            s = sums[route_class]
        return s / n if n else 0.0

    def mean_latency(self, route_class: Optional[str] = None) -> float:
        return self._mean(self.lat_sum, route_class)

    def mean_network_latency(self) -> float:
        return self._mean(self.lat_net_sum, None)

    def unloaded_mean(self) -> float:
        n = self.measured_flits()
        return self.unloaded_sum / n if n else 0.0

    def p99_latency(self) -> int:
        total = self.measured_flits()
        if total == 0:
            return 0
        threshold = 0.99 * total
        merged: Dict[int, int] = {}
        for hist in self.latency_hist.values():
            for lat, cnt in hist.items():
                merged[lat] = merged.get(lat, 0) + cnt
        seen = 0
        for lat in sorted(merged):  # seen reaches total at the last latency
            seen += merged[lat]
            if seen >= threshold:
                return lat

    def percent_in_circuit(self) -> float:
        if self.flits_ejected == 0:
            return 0.0
        return 100.0 * self.in_circuit_flits / self.flits_ejected


def unloaded_latency(route_class: str, hops: int) -> int:
    """Contract latency of an uncontended flit."""
    if route_class == "vc":
        return 5 * hops + 4
    if route_class == "cs-e2e":
        return 2 * hops + 1
    if route_class == "cs-r2r":
        return 2 * hops + 7
    raise ConfigError(f"unknown route class {route_class!r}")


# --- engine internals --------------------------------------------------------

class _Flit:
    """Flit idx of packet pkt on the VC subnet.

    entered is the cycle it entered the network; ready_sa, set when it is
    written, is the first cycle it may bid for the switch; out is the cycle
    it ejects, stamped by SA or by _replay.  Circuit flits have no _Flit:
    the ejection ledger holds one record per circuit packet.
    """

    __slots__ = ("pkt", "idx", "is_tail", "entered", "ready_sa", "out")

    def __init__(self, pkt, idx, entered):
        self.pkt = pkt
        self.idx = idx
        self.is_tail = idx == pkt.n_flits - 1
        self.entered = entered


class _InVC:
    """One input VC: its buffer and the route and VC its head flit won.

    Fixed: router; canon, the VC's place p * vc_count + v on its router's
    SA ring; key, its place in the mesh-wide order by router, then canon;
    rr, its router's SA pointers, one per output port, and after, the
    pointer once it wins; upstream, whether it sits on a mesh port, so that
    an upstream router holds credits for it.  credit is the count of free
    slots that upstream holds; reserved holds from VA (or the NI's pick)
    until the tail leaves; down is the downstream input VC VA reserved,
    None when the out port ejects.  From its VA grant until its tail
    leaves, the VC is in Simulation.sa_active, which is kept in key order.
    """

    __slots__ = ("buf", "credit", "out_port", "down", "reserved", "va_ready",
                 "router", "canon", "key", "rr", "after", "upstream")

    def __init__(self, router, canon, key, rr, ring, upstream, depth):
        self.buf: deque = deque()
        self.credit = depth
        self.out_port = -1
        self.down: Optional[_InVC] = None
        self.reserved = False
        self.va_ready = 0
        self.router = router
        self.canon = canon
        self.key = key
        self.rr = rr
        self.after = (canon + 1) % ring
        self.upstream = upstream


class _Packet:
    """A packet from intake to ejection.

    hops, lat (the unloaded latency of each of its flits), resources,
    ports, mask and inputs are its pair's pair_table entry (see
    Simulation._geometry), lat and resources the circuit's on an installed
    circuit; a plan change queues the packets of its circuits again, and
    those with no circuit in the new plan go over the VC subnet.  subnet,
    sent (its head's cycle onto the wire) and seq (its place in send order)
    are set when it is sent on a circuit; subnet stays None on the VC
    subnet.  next_out is the index of the flit that must eject next.
    """

    __slots__ = (
        "pid", "src", "dst", "pair", "created", "ports", "mask", "inputs",
        "n_flits", "vnet", "hops", "resources", "subnet", "lat", "next_out",
        "sent", "seq",
    )

    def __init__(self, ev, pair, geometry, shape):
        self.pid = ev.packet_id
        self.src, self.dst = self.pair = pair
        self.created = ev.inject_cycle
        self.hops, self.lat, self.resources, self.ports, self.mask, self.inputs = geometry
        self.n_flits, self.vnet = shape
        self.subnet: Optional[int] = None
        self.next_out = 0


class _Circuit:
    """One circuit and the packets queued at its source NIs.

    An e2e circuit has one source NI; an r2r circuit serves every NI of its
    source router round-robin.  On the all-circuit fabric each NI has a
    circuit of its own on subnet 0, and lat is None: its packets each take
    the e2e latency of their own path.

    One rule sends every circuit packet: it goes once its NI wire and each
    of its resources (keys of Simulation.wire_free) is free, and holds them
    until its tail flit ejects.  On an installed circuit it holds the
    circuit, so the circuit carries one packet at a time; on the
    all-circuit fabric it holds its path's links and its ejection port.
    Either way a waiting circuit cannot send before the busy entry its
    head meets frees, which is how the clock jumps while circuits wait.
    """

    __slots__ = ("cid", "subnet", "lat", "ni_queues", "rr_nis")

    def __init__(self, cid, subnet, lat, source_nis):
        self.cid = cid
        self.subnet = subnet            # physical subnet index
        self.lat = lat                  # unloaded latency of each flit
        self.rr_nis: List[int] = list(source_nis)  # in the next send's round-robin order
        self.ni_queues: Dict[int, deque] = {ni: deque() for ni in self.rr_nis}


class Simulation:
    """One simulation instance; step it with run_until or run_to_completion.

    The orchestrator drives it epoch by epoch; everything else should go
    through simulate().
    """

    def __init__(
        self,
        mesh: MeshConfig,
        layout: SubnetLayout,
        vc_config: VcConfig,
        trace: Sequence[TrafficEvent],
        plan: Optional[CircuitPlan] = None,
        seed: int = 0,
        warmup_cycles: int = 0,
        record_flits: bool = False,
        cs_all: bool = False,
    ):
        self.mesh = mesh
        self.layout = layout
        self.vcc = vc_config
        self.warmup = warmup_cycles
        self.record_flits = record_flits
        self.cs_all = cs_all
        if cs_all and layout.subnet_count != 1:
            raise ConfigError("the all-circuit fabric uses a single full-width subnet")
        if plan is not None:
            self._check_plan(plan)

        self.width_bits = layout.subnet_width_bits
        self.cycle = 0
        self.trace = list(trace)
        for a, b in zip(self.trace, self.trace[1:]):
            if b.inject_cycle < a.inject_cycle:
                raise ConfigError("trace must be sorted by inject cycle")
        self.trace_ptr = 0

        self._build_geometry(seed)
        # the open counter window: its first cycle and the flits it inherited
        self.stats = self._new_stats()
        self.window_start = 0
        self.carried = 0

        # filled on first use: an NI pair's path (see _geometry); a packet
        # class's (n_flits, vnet); a destination NI's X-Y route, its output
        # port at each router
        self.pair_table: Dict[Tuple[int, int], Tuple] = {}
        self.class_table: Dict[PacketClass, Tuple[int, int]] = {}
        self.route: Dict[int, List[int]] = {}

        # event queues keyed by cycle
        self.arrival_ev: Dict[int, List] = {}
        self.credit_ev: Dict[int, List] = {}
        # the ejection ledger of what is not yet retired: VC flits ejecting
        # at t under 2t; under 2t + 1, records (pkt, i) of circuit packets
        # whose flits i, i + 1, ... eject at t, t + 1, ...
        self.eject_ev: Dict[int, List] = {}
        self.send_order = count()  # numbers the circuit packets sent

        # per-NI VC-side injection; busy_nis holds, in ascending order, every
        # NI with a queued packet or one it is part way through sending
        self.ni_queue: Dict[int, deque] = {}
        self.ni_cur: Dict[int, List] = {}
        self.busy_nis: List[int] = []

        # circuit-switched side
        self.circuits: List[_Circuit] = []
        # the installed circuit of each (source NI, destination NI) pair; an
        # r2r circuit is filed under every NI pair of its two routers
        self.match: Dict[Tuple[int, int], _Circuit] = {}
        # first cycle each wire is free: an NI's wire into a subnet, and
        # each resource a circuit packet holds until its tail ejects
        self.wire_free: Dict[object, int] = {}
        self.waiting: Dict[int, _Circuit] = {}
        # no waiting circuit sends before this cycle (see _phase_cs_service)
        self.next_send: float = math.inf
        self.plan_schedule: List[Tuple[int, CircuitPlan]] = []
        if plan is not None:
            self._activate_plan(plan, 0)
        if cs_all:
            self.circuits = [_Circuit(ni, 0, None, (ni,)) for ni in range(mesh.n_nis)]

        self.pair_flits: Dict[Tuple[int, int], int] = {}

    # --- construction ---------------------------------------------------

    def _build_geometry(self, seed: int) -> None:
        """Ports, buffers and the lookup tables the per-cycle phases read.

        A router's ports are its mesh neighbours in E,W,N,S order, then its
        local NIs; input and output ports share one numbering.  So the
        router and port at the far end of mesh port p of router r,
        peer[r][p], is both where an output port's flits arrive and which
        output port an input port returns credits to.  No route is built
        here: _route_to fills one row per destination NI, when a packet
        first heads there.
        """
        mesh = self.mesh
        n_routers = mesh.n_routers
        self.nbrs = nbrs = [mesh.neighbors(r) for r in range(n_routers)]
        self.local_port: List[int] = [0] * mesh.n_nis
        self.peer: List[List[Optional[Tuple[int, int]]]] = []
        for r in range(n_routers):
            ports: List[Optional[Tuple[int, int]]] = [
                (nbr, nbrs[nbr].index(r)) for nbr in nbrs[r]
            ]
            for ni in mesh.nis_of_router(r):
                self.local_port[ni] = len(ports)
                ports.append(None)
            self.peer.append(ports)

        n_vc = self.n_vc = self.vcc.vc_count
        depth = self.vcc.buffer_depth_flits
        rr0 = seed % n_vc
        self.invc: List[List[List[_InVC]]] = []
        # port ids: input port p of router r is first_port[r] + p, its VCs'
        # key // n_vc, and the ejection port to NI ni is n_ports + ni
        self.first_port: List[int] = []
        n_ports = 0
        for r, ports in enumerate(self.peer):
            ring = len(ports) * n_vc
            rr = [rr0] * len(ports)
            base = n_ports * n_vc
            self.invc.append([
                [_InVC(r, p * n_vc + v, base + p * n_vc + v, rr, ring,
                       far is not None, depth) for v in range(n_vc)]
                for p, far in enumerate(ports)
            ])
            self.first_port.append(n_ports)
            n_ports += len(ports)
        self.n_ports = n_ports
        self.va_pending: List[_InVC] = []
        # the VCs that VA granted, in key order
        self.sa_active: List[_InVC] = []
        # per port id, the stepped VC packets whose path holds it, from
        # their dispatch until their tail ejects
        self.stepping: List[int] = [0] * (n_ports + mesh.n_nis)

    def _new_stats(self) -> SimStats:
        """Zeroed counters carrying the figures fixed for the whole run."""
        k = self.layout.subnet_count
        per_subnet = self.n_ports * self.n_vc
        gated = 0
        if self.layout.gate_cs_buffers or self.cs_all:
            # subnet 0 keeps its VC buffers unless the fabric is all-circuit
            gated = k if self.cs_all else k - 1
        return SimStats(
            subnet_count=k,
            n_routers=self.mesh.n_routers,
            subnet_widths=[self.width_bits] * k,
            active_buffers_per_cycle=(k - gated) * per_subnet,
            gated_buffers_per_cycle=gated * per_subnet,
        )

    def _route_to(self, ni: int) -> List[int]:
        """Fill and return route[ni]: at each router, the port of the X-Y
        route toward NI ni; at ni's own router, ni's local port."""
        d = self.mesh.router_of_ni(ni)
        xy_next, nbrs = self.mesh.xy_next, self.nbrs
        row = self.route[ni] = [nbrs[r].index(xy_next(r, d)) if r != d else self.local_port[ni]
                                for r in range(self.mesh.n_routers)]
        return row

    def _geometry(self, pair: Tuple[int, int]) -> Tuple:
        """pair_table's entry (hops, lat, resources, ports, mask, inputs)
        for an NI pair, worked out and filed.

        It is the one walk of the pair's X-Y path on every fabric: from the
        source NI's input port, along the destination's route row (filled
        here if missing) to the one port with no router at its far end.
        inputs holds the VCs of the input port it enters each router by,
        source first; ports are the ids of those input ports and then of its
        ejection port (see _build_geometry), and mask has the bit of each
        set.  Every output port it leaves by but the last is the next input
        port, so ports are every port of the path.  lat and resources are
        those off installed circuits: the VC latency, or on the all-circuit
        fabric the e2e latency and the path's links and ejection port.
        router_of_ni and _route_to range-check the pair."""
        src, dst = pair
        far = (self.mesh.router_of_ni(src), self.local_port[src])
        row = self.route.get(dst) or self._route_to(dst)
        invc, peer, first_port = self.invc, self.peer, self.first_port
        ports, inputs = [], []
        mask = 0
        while far:
            r, p = far
            inputs.append(invc[r][p])
            port = first_port[r] + p
            ports.append(port)
            mask |= 1 << port
            far = peer[r][row[r]]
        ports.append(self.n_ports + dst)
        hops = len(inputs) - 1
        lat, resources = unloaded_latency("cs-e2e" if self.cs_all else "vc", hops), ()
        if self.cs_all:
            resources = tuple(("link", a[0].router, b[0].router)
                              for a, b in zip(inputs, inputs[1:])) + (("ej", dst),)
        geometry = self.pair_table[pair] = (hops, lat, resources, tuple(ports),
                                            mask | 1 << ports[-1], tuple(inputs))
        return geometry

    def _check_plan(self, plan: CircuitPlan) -> None:
        """Refuse a plan this run cannot install, before anything changes."""
        if self.cs_all:
            raise ConfigError("the all-circuit fabric takes no plan")
        k = self.layout.cs_subnet_count
        if plan.subnet_count > k:
            raise ConfigError(f"plan wants {plan.subnet_count} CS subnets, layout offers {k}")
        e2e = plan.granularity == "e2e"
        unit, n = ("NI", self.mesh.n_nis) if e2e else ("router", self.mesh.n_routers)
        for _, circ in plan.all_circuits():
            if not (0 <= circ.src < n and 0 <= circ.dst < n):
                raise ConfigError(f"plan {unit} pair {(circ.src, circ.dst)} out of range")

    def _install_plan(self, plan: CircuitPlan) -> None:
        self.circuits = []
        self.match = {}
        mesh = self.mesh
        e2e = plan.granularity == "e2e"
        for s, circ in plan.all_circuits():
            srcs, dsts = ((e,) if e2e else mesh.nis_of_router(e) for e in (circ.src, circ.dst))
            c = _Circuit(len(self.circuits), 1 + s,
                         unloaded_latency("cs-" + plan.granularity, circ.path.hops), srcs)
            self.circuits.append(c)
            self.match.update(dict.fromkeys(product(srcs, dsts), c))

    def schedule_plan(self, plan: CircuitPlan, activation_cycle: int) -> None:
        """Install plan at activation_cycle; a plan refused here changes nothing."""
        self._check_plan(plan)
        if activation_cycle < self.cycle:
            raise ConfigError("cannot activate a plan in the past")
        self.plan_schedule.append((activation_cycle, plan))
        self.plan_schedule.sort(key=lambda t: t[0])

    # --- intake and classification ----------------------------------------

    def _intake(self, ev: TrafficEvent) -> None:
        """Make ev's packet and queue it, or replay a VC packet that is alone
        on its ports.

        A packet is alone on its ports from intake to last ejection if no
        stepped VC packet holds a port of its X-Y path, each input VC on its
        path has full credit, none due, and before the cycle of that
        ejection no plan activates and no packet off the circuits comes in
        over one of its ports.  It then takes its vnet's first VC at every
        hop and wins every switch request, so _replay files its life at
        once.  A port test is exact: VA picks among the VCs of one input
        port and credits are kept per VC, and SA is separable and output
        first, with a round-robin pointer per output port, each output port
        granting one request and each input port winning once a cycle.  So
        two packets meet only at an input port both enter by or an output
        port both leave by, which is the next hop's input port or the one
        ejection port to their NI.  A packet that crosses one of its routers
        on other ports changes none of its grants, nor it theirs.  What
        comes in on that last cycle starts after its credits return, as if
        it had stepped.
        """
        pair = (ev.src, ev.dst)
        geometry = self.pair_table.get(pair) or self._geometry(pair)
        shape = self.class_table.get(ev.klass)
        if shape is None:
            shape = self.class_table[ev.klass] = (
                flits_for_packet(ev.klass, self.width_bits),
                0 if ev.klass.kind == "control" else 1 % self.vcc.vnets)
        pkt = _Packet(ev, pair, geometry, shape)
        self.stats.packets_seen += 1
        if self.cs_all:
            circuit = self.circuits[ev.src]
            circuit.ni_queues[ev.src].append(pkt)
            self.waiting[circuit.cid] = circuit
        elif pair in self.match or not self._replay(pkt):
            self._dispatch(pkt)

    def _replay(self, pkt: _Packet) -> bool:
        """File pkt's life from its intake cycle as _lone_life measured it, and
        move its path's SA pointers, if it is alone on its ports (see
        _intake) and limit does not cut it.

        The tests go cheapest first, on pkt's pair_table entry.  A pair first
        met in the look-ahead gets its entry there, so one naming an NI off
        the mesh raises within the call that would take it in."""
        stepping = self.stepping
        for port in pkt.ports:
            if stepping[port]:
                return False
        v, depth = pkt.vnet * self.vcc.vcs_per_vnet, self.vcc.buffer_depth_flits
        for vcs in pkt.inputs:
            if vcs[v].credit != depth:
                return False
        flits, life = _lone_life(pkt.hops, pkt.n_flits, depth)
        last = pkt.created + flits[-1][1]
        if last >= self.limit or self.plan_schedule and self.plan_schedule[0][0] < last:
            return False
        trace, i = self.trace, self.trace_ptr + 1
        while i < len(trace) and trace[i].inject_cycle < last:
            pair = (trace[i].src, trace[i].dst)
            if pair not in self.match and (
                    self.pair_table.get(pair) or self._geometry(pair))[4] & pkt.mask:
                return False
            i += 1
        row = self.route[pkt.dst]
        for vcs in pkt.inputs:
            ivc = vcs[v]
            ivc.rr[row[ivc.router]] = ivc.after
        created, eject_ev = pkt.created, self.eject_ev
        for idx, (entered, out) in enumerate(flits):
            flit = _Flit(pkt, idx, created + entered)
            flit.out = out = created + out
            eject_ev.setdefault(2 * out, []).append(flit)
        st = self.stats
        for name in ("flits_injected", "sw_allocations", "vc_allocations"):
            setattr(st, name, getattr(st, name) + getattr(life, name))
        st.buffer_writes[0] += life.buffer_writes[0]
        st.link_traversals[0] += life.link_traversals[0]
        st.max_vc_occupancy = max(st.max_vc_occupancy, life.max_vc_occupancy)
        return True

    def _dispatch(self, pkt: _Packet) -> None:
        """Queue pkt at its circuit or, with none, at its NI's VC side.

        On the VC side pkt steps: it counts in stepping on each port of its
        path until its tail ejects.  An NI joins busy_nis, at its place
        in ascending order, when its VC queue goes from empty to one packet
        while it sends none; both cover the packets a plan change moves back
        to the VC subnet.
        """
        circuit = self.match.get(pkt.pair)
        if circuit is None:
            stepping = self.stepping
            for port in pkt.ports:
                stepping[port] += 1
            queue = self.ni_queue.setdefault(pkt.src, deque())
            queue.append(pkt)
            if len(queue) == 1 and pkt.src not in self.ni_cur:
                insort(self.busy_nis, pkt.src)
        else:
            pkt.resources = (circuit,)
            pkt.lat = circuit.lat
            circuit.ni_queues[pkt.src].append(pkt)
            self.waiting[circuit.cid] = circuit

    def _activate_plan(self, plan: CircuitPlan, c: int) -> None:
        drain_end = c
        for q in self.circuits:
            drain_end = max(drain_end, self.wire_free.pop(q, 0))
        if drain_end - c > _RECONFIG_BARRIER_CYCLES:
            log.warning(
                "circuit drain needed %d cycles, beyond the %d-cycle barrier",
                drain_end - c, _RECONFIG_BARRIER_CYCLES,
            )
        stranded: List[_Packet] = []
        for q in self.circuits:
            for dq in q.ni_queues.values():
                stranded.extend(dq)
        self.waiting.clear()
        self._install_plan(plan)
        for q in self.circuits:
            self.wire_free[q] = drain_end
        for pkt in sorted(stranded, key=lambda p: (p.created, p.pid)):
            pkt.lat, pkt.resources = self.pair_table[pkt.pair][1:3]
            self._dispatch(pkt)
        # keep per-NI FIFO order after moving packets back to the VC side
        for ni, dq in self.ni_queue.items():
            if len(dq) > 1:
                self.ni_queue[ni] = deque(sorted(dq, key=lambda p: (p.created, p.pid)))

    # --- per-cycle phases --------------------------------------------------
    #
    # _drive calls each phase only in a cycle where it has work.  The events
    # of a cycle, credit returns and VC buffer writes, it does itself, and it
    # settles the ejection ledger on its own cadence (see _settle).

    def _phase_intake(self, c: int) -> None:
        while self.plan_schedule and self.plan_schedule[0][0] == c:
            _, plan = self.plan_schedule.pop(0)
            self._activate_plan(plan, c)
        trace = self.trace
        n = len(trace)
        while self.trace_ptr < n and trace[self.trace_ptr].inject_cycle == c:
            self._intake(trace[self.trace_ptr])
            self.trace_ptr += 1

    def _next_intake(self) -> float:
        """Cycle of the next packet injection or plan activation, or inf."""
        nxt = math.inf
        if self.trace_ptr < len(self.trace):
            nxt = self.trace[self.trace_ptr].inject_cycle
        if self.plan_schedule and self.plan_schedule[0][0] < nxt:
            nxt = self.plan_schedule[0][0]
        return nxt

    def _phase_vc_injection(self, c: int, writes: List[Tuple[_InVC, _Flit]]) -> None:
        """Each busy NI puts at most one flit into its VC; adds it to writes.

        NIs go in the ascending order busy_nis keeps.  An NI leaves it once
        its queue is empty and its last flit is written; the list is pruned
        after the walk, in a call where some NI drained.  _drive writes the
        flits after this cycle's arrivals, which is safe because an NI's VCs
        sit at its own local port, which no arrival and no other NI writes.
        """
        depth = self.vcc.buffer_depth_flits
        ni_cur = self.ni_cur
        busy_nis = self.busy_nis
        drained = False
        injected = 0
        for ni in busy_nis:
            cur = ni_cur.get(ni)
            queue = self.ni_queue[ni]
            if cur is None:
                pkt = queue[0]
                ivc = self._free_vc(pkt.inputs[0], pkt.vnet)
                if ivc is None:
                    continue
                ivc.reserved = True
                queue.popleft()
                cur = ni_cur[ni] = [pkt, ivc, 0]
            pkt, ivc, idx = cur
            if len(ivc.buf) >= depth:
                continue
            writes.append((ivc, _Flit(pkt, idx, c)))
            injected += 1
            cur[2] = idx + 1
            if cur[2] == pkt.n_flits:
                del ni_cur[ni]
                drained |= not queue
        if drained:
            busy_nis[:] = [ni for ni in busy_nis if ni in ni_cur or self.ni_queue[ni]]
        self.stats.flits_injected += injected

    def _free_vc(self, vcs: List[_InVC], vnet: int) -> Optional[_InVC]:
        """The first free VC of vnet among vcs, one input port's VCs, or None.

        A VC is reserved before its head flit is written and freed as its
        tail leaves, so an unreserved VC is also empty.
        """
        base = vnet * self.vcc.vcs_per_vnet
        for v in range(base, base + self.vcc.vcs_per_vnet):
            if not vcs[v].reserved:
                return vcs[v]
        return None

    def _phase_cs_service(self, c: int) -> None:
        """Send on each waiting circuit the first head packet, round-robin
        over its source NIs, that _Circuit's rule lets go.  Set next_send to
        the least of the busy wire_free entries met on circuits left waiting,
        before which none of their heads may go."""
        wire_free = self.wire_free
        held = wire_free.get
        waiting = self.waiting
        next_send = math.inf
        for cid in sorted(waiting):
            q = waiting[cid]
            free = held(q, 0)
            if free > c:
                if free < next_send:
                    next_send = free
                continue  # every packet queued on q holds q
            subnet = q.subnet
            queues = q.ni_queues
            nis = q.rr_nis
            for step, ni in enumerate(nis):
                queue = queues[ni]
                if queue:
                    free = held((ni, subnet), 0)
                    if free <= c:
                        pkt = queue[0]
                        for key in pkt.resources:
                            free = held(key, 0)
                            if free > c:
                                break
                        else:
                            break  # every resource is free: send pkt
                    if free < next_send:
                        next_send = free
            else:
                continue  # nothing on q may go this cycle
            q.rr_nis = nis[step + 1:] + nis[:step + 1]
            queue.popleft()
            done = self._send_on_circuit(pkt, ni, subnet, c)
            for key in pkt.resources:
                wire_free[key] = done
            if not any(queues.values()):
                del waiting[cid]
            else:
                next_send = min(next_send, max(held(q, 0), held((ni, subnet))))
        self.next_send = next_send

    def _send_on_circuit(self, pkt: _Packet, ni: int, subnet: int, c: int) -> int:
        """Put pkt's flits on NI ni's wire back to back from cycle c.

        Flit i enters at c + i and ejects pkt.lat cycles later, so one
        ledger record (pkt, 0) stands for them all.  They count as injected
        now; finalize moves those entering after its window into the next.
        Returns the cycle the tail flit ejects.
        """
        pkt.subnet = subnet
        pkt.sent = c
        pkt.seq = next(self.send_order)
        n = pkt.n_flits
        self.stats.flits_injected += n
        self.eject_ev.setdefault(2 * (c + pkt.lat) + 1, []).append((pkt, 0))
        self.wire_free[(ni, subnet)] = c + n
        return c + n - 1 + pkt.lat

    def _phase_va(self, c: int) -> None:
        """Reserve each routed head a downstream VC; a VC that wins one, or
        whose packet ejects here, joins sa_active, the VCs SA scans, at its
        place in key order."""
        still: List[_InVC] = []
        peer = self.peer
        allocated = 0
        for ivc in self.va_pending:
            if ivc.va_ready > c:
                still.append(ivc)
                continue
            far = peer[ivc.router][ivc.out_port]
            if far is not None:
                nbr, p2 = far
                down = self._free_vc(self.invc[nbr][p2], ivc.buf[0].pkt.vnet)
                if down is None:
                    still.append(ivc)
                    continue
                down.reserved = True
                ivc.down = down
            insort(self.sa_active, ivc, key=_BY_KEY)
            allocated += 1
        self.va_pending = still
        self.stats.vc_allocations += allocated

    def _phase_sa(self, c: int) -> None:
        """Separable, output-first switch allocation with round-robin.

        Requests come from a walk of sa_active, which is in key order and so
        router by router; a VC leaves it here, as its tail flit goes.  Each
        output port grants the requesting VC nearest after its pointer
        on the ring of all input VCs, skipping input ports that already won
        this cycle; output ports go in ascending order.  A lone request
        wins under that rule, so only routers with two or more arbitrate.
        Winners go router by router.  A winner sends its head flit: across
        the link to the VC that VA reserved (3 cycles) or out to its NI (2
        cycles, into the ejection ledger), and returns a credit upstream (2
        cycles).  Buffer reads and crossbar passes are one per grant, so
        SimStats derives them from sw_allocations.  A packet's count in
        stepping drops as its tail ejects.
        """
        sa_active = self.sa_active
        requests: List[_InVC] = []
        last = -1
        contended = False
        for ivc in sa_active:
            buf = ivc.buf
            if buf and buf[0].ready_sa <= c:
                down = ivc.down
                if down is None or down.credit:
                    if ivc.router == last:
                        contended = True
                    last = ivc.router
                    requests.append(ivc)
        if contended:
            requests = self._arbitrate(requests)
        arrivals: List[Tuple[_InVC, _Flit]] = []
        ejects: List[_Flit] = []
        returns: List[_InVC] = []
        out = c + 2
        for ivc in requests:
            ivc.rr[ivc.out_port] = ivc.after
            flit: _Flit = ivc.buf.popleft()
            down = ivc.down
            if down is None:
                flit.out = out
                ejects.append(flit)
            else:
                down.credit -= 1
                arrivals.append((down, flit))
            if ivc.upstream:
                returns.append(ivc)
            if flit.is_tail:
                ivc.reserved = False
                ivc.down = None
                del sa_active[bisect_left(sa_active, ivc.key, key=_BY_KEY)]
                if down is None:
                    stepping = self.stepping
                    for port in flit.pkt.ports:
                        stepping[port] -= 1
        # new keys: SA schedules arrivals and credits once a cycle; a replay
        # may have filed flits ejecting at out on other ports
        if arrivals:
            self.arrival_ev[c + 3] = arrivals
        if ejects:
            filed = self.eject_ev.setdefault(2 * out, ejects)
            if filed is not ejects:
                filed += ejects
        if returns:
            self.credit_ev[out] = returns
        st = self.stats
        st.sw_allocations += len(arrivals) + len(ejects)
        st.link_traversals[0] += len(arrivals)

    def _arbitrate(self, requests: List[_InVC]) -> List[_InVC]:
        """The winners among requests listed router by router."""
        n_vc = self.n_vc
        winners: List[_InVC] = []
        for _, group in groupby(requests, attrgetter("router")):
            group = list(group)
            if len(group) == 1:
                winners += group
                continue
            # the round-robin ring of an output port covers every input VC;
            # requests go by output port, then by distance after that
            # port's pointer, and the first on each port whose input is
            # unused wins
            ring = len(group[0].rr) * n_vc
            used_inputs: set = set()
            granted = -1
            for ivc in sorted(group, key=lambda ivc: ivc.out_port * ring
                              + (ivc.canon - ivc.rr[ivc.out_port]) % ring):
                p = ivc.canon // n_vc
                if ivc.out_port != granted and p not in used_inputs:
                    used_inputs.add(p)
                    winners.append(ivc)
                    granted = ivc.out_port
        return winners

    def _settle(self, end: int) -> None:
        """Retire the ledger's flits that eject before cycle end, filing a
        circuit record with flits left again under 2 * end + 1.  A flit
        counts for per-packet order, latency and pair counts, a circuit flit
        for its subnet's events; flits created before the warm-up window are
        not measured.  Flit records go by cycle, VC first, then by destination
        NI (the order of SA's winners, by router, then by local port) or by
        send order.

        Nothing _drive runs reads what retirement writes, so it settles only
        at the first cycle it reaches, stepped or jumped to, at least
        _SETTLE_CYCLES after the last settle, and when it returns; no flit
        ejected later is ever retired first.
        """
        eject_ev = self.eject_ev
        flits: List[_Flit] = []
        sends: List[Tuple[_Packet, int]] = []
        for key in sorted(k for k in eject_ev if k < 2 * end):
            (sends if key & 1 else flits).extend(eject_ev.pop(key))
        st = self.stats
        pair_flits = self.pair_flits
        warmup = self.warmup
        records: Optional[List] = [] if self.record_flits else None
        hist = st.latency_hist["vc"]
        unloaded = net = 0
        for flit in flits:
            pkt = flit.pkt
            idx = flit.idx
            if idx != pkt.next_out:
                raise SimulationError(f"packet {pkt.pid} flit {idx} ejected out of order")
            pkt.next_out = idx + 1
            if pkt.created >= warmup:
                lat = flit.out - pkt.created
                hist[lat] = hist.get(lat, 0) + 1
                net += flit.out - flit.entered
                unloaded += pkt.lat
            pair = pkt.pair
            pair_flits[pair] = pair_flits.get(pair, 0) + 1
            if records is not None:
                records.append((flit.out, 0, pkt.dst, FlitRecord(
                    pkt.pid, idx, flit.entered, flit.out, "vc", pkt.hops)))
        st.lat_net_sum["vc"] += net
        # a circuit flit's network latency is its unloaded latency, pkt.lat
        hist = st.latency_hist["cs"]
        in_circuit = net = 0
        for pkt, i in sends:
            if i != pkt.next_out:
                raise SimulationError(f"packet {pkt.pid} flit {i} ejected out of order")
            head_out = pkt.sent + pkt.lat  # the cycle flit 0 ejects
            j = pkt.next_out = min(pkt.n_flits, end - head_out)
            if j < pkt.n_flits:
                eject_ev.setdefault(2 * end + 1, []).append((pkt, j))
            if pkt.created >= warmup:
                for lat in range(head_out + i - pkt.created, head_out + j - pkt.created):
                    hist[lat] = hist.get(lat, 0) + 1
                net += pkt.lat * (j - i)
            in_circuit += j - i
            st.cs_flits_per_subnet[pkt.subnet] += j - i
            st.link_traversals[pkt.subnet] += pkt.hops * (j - i)
            pair_flits[pkt.pair] = pair_flits.get(pkt.pair, 0) + j - i
            if records is not None:
                records += [(head_out + k, 1, pkt.seq, FlitRecord(
                    pkt.pid, k, pkt.sent + k, head_out + k, f"cs{pkt.subnet}", pkt.hops))
                    for k in range(i, j)]
        st.lat_net_sum["cs"] += net
        st.unloaded_sum += unloaded + net
        st.flits_ejected += len(flits) + in_circuit
        st.in_circuit_flits += in_circuit
        if records:
            st.flit_records += [rec for *_, rec in sorted(records, key=itemgetter(0, 1, 2))]

    # --- driving ---------------------------------------------------------

    def _drive(self, limit: int, drain: bool) -> None:
        """Step the clock from self.cycle toward the absolute cycle limit.

        Without drain, stop at limit.  With drain, stop as soon as no work
        remains, and raise SimulationError if work remains at limit.  A
        limit before self.cycle is a ConfigError: the clock never runs back.

        Only VC work keeps the clock stepping, and a VC packet alone on its
        ports makes none: _intake replays its life whole if it ends before
        limit, while packets on other ports, of its routers too, step on.
        Without VC work the clock jumps (no further than limit) to the next
        cycle with work: the next packet, plan activation, flit arrival,
        credit return, or next_send, before which no waiting circuit,
        all-circuit NIs included, may send.
        Skipping to it changes nothing: wire_free entries only move later,
        and only in a stepped cycle (a send, or a plan activation), in which
        _phase_cs_service runs after them and sets next_send again.
        Ejections, VC and circuit alike, do not stop the clock: they wait in
        the ledger, which is settled on the cadence _settle states, and a
        drain ends one past the last of them, or where the clock stands if
        that is later.  Counters are unchanged: cycle-integrated figures
        read cycles_simulated, which counts skipped cycles like stepped ones.

        A stepped cycle's events, credit returns and then buffer writes
        (this cycle's arrivals, then its injections), are applied here: a
        head flit routes and queues for VA, and every flit may bid for the
        switch two cycles on.
        """
        if limit < self.cycle:
            raise ConfigError(f"cycle {limit} lies before the current cycle {self.cycle}")
        arrival_ev = self.arrival_ev
        credit_ev = self.credit_ev
        eject_ev = self.eject_ev
        busy_nis = self.busy_nis
        sa_active = self.sa_active
        waiting = self.waiting
        route = self.route
        depth = self.vcc.buffer_depth_flits
        st = self.stats
        max_occ = st.max_vc_occupancy
        next_intake = self._next_intake()
        c = self.cycle
        self.limit = limit
        settle_at = c + _SETTLE_CYCLES
        try:
            while True:
                if not (self.va_pending or busy_nis or sa_active):
                    nxt = next_intake
                    for queue in (arrival_ev, credit_ev):
                        if queue:
                            nxt = min(nxt, min(queue))
                    if waiting:
                        nxt = min(nxt, self.next_send)
                    if drain and nxt == math.inf:
                        if not eject_ev:
                            break
                        nxt = max(c, 1 + max(  # one past a VC key's cycle or a record's tail
                            max(p.sent + p.lat + p.n_flits - 1 for p, _ in evs)
                            if key & 1 else key // 2 for key, evs in eject_ev.items()))
                        if nxt <= limit:
                            c = nxt
                            break
                    if nxt > c:
                        c = min(nxt, limit)
                if c >= settle_at:
                    if eject_ev:
                        self._settle(c)
                    settle_at = c + _SETTLE_CYCLES
                if c >= limit:
                    if drain:
                        raise SimulationError(f"no drain after {limit} cycles")
                    break
                if c == next_intake:
                    self._phase_intake(c)
                    next_intake = self._next_intake()
                returned = credit_ev.pop(c, None)
                if returned:
                    for ivc in returned:
                        ivc.credit += 1
                writes = arrival_ev.pop(c, None)
                if busy_nis:
                    if writes is None:
                        writes = []
                    self._phase_vc_injection(c, writes)
                if writes:
                    ready = c + 2
                    va_pending = self.va_pending
                    for ivc, flit in writes:
                        buf = ivc.buf
                        buf.append(flit)
                        if len(buf) > max_occ:
                            max_occ = len(buf)
                            if max_occ > depth:
                                raise SimulationError(
                                    "VC buffer overflow; credit accounting broke")
                        flit.ready_sa = ready
                        if flit.idx == 0:
                            ivc.va_ready = c + 1
                            ivc.out_port = route[flit.pkt.dst][ivc.router]
                            va_pending.append(ivc)
                    st.buffer_writes[0] += len(writes)
                if waiting:
                    self._phase_cs_service(c)
                if self.va_pending:
                    self._phase_va(c)
                if sa_active:
                    self._phase_sa(c)
                c += 1
        finally:
            st.max_vc_occupancy = max(st.max_vc_occupancy, max_occ)  # a replay's peak
            if eject_ev:
                self._settle(c)
            self.cycle = c

    def run_until(self, target_cycle: int) -> None:
        self._drive(target_cycle, drain=False)

    def run_to_completion(self) -> None:
        """Step until no work remains.

        Raises SimulationError if work remains _DRAIN_CYCLES after the last
        packet injection or scheduled plan activation, as they stand when
        the call starts, so a valid trace drains however late its packets
        come.
        """
        last = self.trace[-1].inject_cycle if self.trace else 0
        for activation, _ in self.plan_schedule:
            last = max(last, activation)
        self._drive(last + _DRAIN_CYCLES, drain=True)

    def take_pair_counts(self) -> Dict[Tuple[int, int], int]:
        counts = self.pair_flits
        self.pair_flits = {}
        return counts

    def finalize(self) -> SimStats:
        """Close the open counter window and return its stats.

        A window runs from the previous finalize (or cycle 0) to the current
        cycle.  Flits still in the network are its in_flight and carry over
        into the next window, which starts from fresh counters; circuit
        flits sent but not yet on their wire are injected in that window.
        """
        st = self.stats
        cycle = self.cycle
        resident = future = 0
        for r in range(self.mesh.n_routers):
            for port in self.invc[r]:
                for ivc in port:
                    resident += len(ivc.buf)
        for evs in self.arrival_ev.values():
            resident += len(evs)
        # a flit is in the network from the cycle it enters: a VC flit in a
        # stepped cycle, flit k of a circuit record (pkt, i) at pkt.sent + k
        for key, evs in self.eject_ev.items():
            if not key & 1:
                resident += len(evs)
                continue
            for pkt, i in evs:
                entered = min(pkt.n_flits, max(i, cycle - pkt.sent)) - i
                resident += entered
                future += pkt.n_flits - i - entered
        st.flits_injected -= future
        st.cycles_simulated = cycle - self.window_start
        st.in_flight = resident
        if self.carried + st.flits_injected - st.flits_ejected != resident:
            raise SimulationError(
                f"conservation broke: carried in {self.carried}, injected "
                f"{st.flits_injected}, ejected {st.flits_ejected}, resident {resident}"
            )
        self.stats = self._new_stats()
        self.stats.flits_injected = future
        self.window_start = cycle
        self.carried = resident
        return st


@lru_cache(maxsize=None)
def _lone_life(hops: int, n_flits: int, depth: int) -> Tuple[tuple, SimStats]:
    """Each flit's (entered, out) cycle and the counters of one n_flits packet
    stepped alone from cycle 0 over hops hops with buffers of depth flits,
    all that a lone packet's life depends on: it takes its vnet's first VC
    at every hop, so it is measured with one VC per port.  It runs corner
    to corner on the smallest mesh whose corners lie hops apart: a line of
    hops + 1 routers below MAX_MESH_SIDE hops, and MAX_MESH_SIDE routers
    wide from there on, 32x32 for the 62 hops of the largest mesh.
    _dispatch queues it with the entry _geometry files for its pair, so the
    measuring run never replays, and it drains within a limit of the key
    alone, 8 (hops + 1)(n_flits + 4) cycles."""
    width = min(hops, MAX_MESH_SIDE - 1) + 1
    mesh = MeshConfig(width, hops + 2 - width, 1 if hops else 2)
    dst = mesh.n_nis - 1
    sim = Simulation(mesh, SubnetLayout(), VcConfig(1, 1, depth), (), record_flits=True)
    sim._dispatch(_Packet(TrafficEvent(0, 0, dst, None, 0), (0, dst),
                          sim._geometry((0, dst)), (n_flits, 0)))
    sim._drive(8 * (hops + 1) * (n_flits + 4), drain=True)
    stats = sim.finalize()
    return tuple((r.inject_cycle, r.eject_cycle) for r in stats.flit_records), stats


def simulate(
    mesh: MeshConfig,
    layout: SubnetLayout,
    vc_config: VcConfig,
    trace: Sequence[TrafficEvent],
    plan: Optional[CircuitPlan] = None,
    cycles_limit: Optional[int] = None,
    seed: int = 0,
    *,
    warmup_cycles: int = 0,
    record_flits: bool = False,
    cs_all: bool = False,
) -> SimStats:
    """Run a trace to completion (or for a fixed window) and return stats.

    With cycles_limit the run stops hard at that cycle and whatever is
    still in flight is reported as such; without it the run drains.
    """
    sim = Simulation(
        mesh, layout, vc_config, trace, plan, seed,
        warmup_cycles=warmup_cycles, record_flits=record_flits, cs_all=cs_all,
    )
    if cycles_limit is not None:
        sim.run_until(cycles_limit)
    else:
        sim.run_to_completion()
    return sim.finalize()
