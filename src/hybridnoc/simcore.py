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
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .allocator import CircuitPlan, greedy_allocate, profile_granularity_for
from .topology import MeshConfig, xy_route
from .traffic import SyntheticSpec, TrafficEvent, flits_for_packet, generate, profile

log = logging.getLogger(__name__)

# input VC states
_IDLE, _WAIT_VA, _ACTIVE = 0, 1, 2

# drain barrier the reconfiguration model allows for in-flight circuits
_RECONFIG_BARRIER_CYCLES = 1000
# cycles a run may take to drain after its last input before the engine
# calls it stuck
_DRAIN_CYCLES = 10_000_000


class ConfigError(ValueError):
    """Mesh, layout, plan or config parameters that do not fit together."""


class SimulationError(RuntimeError):
    """Internal consistency failure; indicates an engine bug."""


@dataclass(frozen=True)
class SubnetLayout:
    """How one physical link splits into subnets.

    Exactly one subnet (index 0) is the VC subnet; the other
    subnet_count - 1 are circuit switched.  All subnets share the width
    total_width_bits / subnet_count.
    """

    total_width_bits: int = 128
    subnet_count: int = 2
    gate_cs_buffers: bool = True

    def __post_init__(self) -> None:
        if self.total_width_bits <= 0:
            raise ConfigError("link width must be positive")
        if self.subnet_count < 1:
            raise ConfigError("need at least one subnet")
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

    Every counter, max_vc_occupancy included, covers only its own window;
    in_flight is what the network still holds when the window closes.
    Event counters that depend on the subnet are lists indexed by subnet;
    index 0 is the VC subnet, so a correct run shows zero buffer activity
    beyond index 0.
    """

    subnet_count: int = 1
    flits_injected: int = 0
    flits_ejected: int = 0
    in_circuit_flits: int = 0
    packets_seen: int = 0
    buffer_writes: List[int] = field(default_factory=list)
    buffer_reads: List[int] = field(default_factory=list)
    crossbar_traversals: List[int] = field(default_factory=list)
    link_traversals: List[int] = field(default_factory=list)
    cs_flits_per_subnet: List[int] = field(default_factory=list)
    vc_allocations: int = 0
    sw_allocations: int = 0
    lat_sum: Dict[str, int] = field(default_factory=lambda: {"vc": 0, "cs": 0})
    lat_net_sum: Dict[str, int] = field(default_factory=lambda: {"vc": 0, "cs": 0})
    lat_count: Dict[str, int] = field(default_factory=lambda: {"vc": 0, "cs": 0})
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
            self.buffer_reads = [0] * self.subnet_count
            self.crossbar_traversals = [0] * self.subnet_count
            self.link_traversals = [0] * self.subnet_count
            self.cs_flits_per_subnet = [0] * self.subnet_count

    # --- derived metrics ---------------------------------------------------

    @property
    def active_buffer_cycles(self) -> int:
        return self.active_buffers_per_cycle * self.cycles_simulated

    @property
    def gated_buffer_cycle_count(self) -> int:
        return self.gated_buffers_per_cycle * self.cycles_simulated

    def measured_flits(self) -> int:
        return sum(self.lat_count.values())

    def mean_latency(self, route_class: Optional[str] = None) -> float:
        if route_class is None:
            n = self.measured_flits()
            s = sum(self.lat_sum.values())
        else:
            n = self.lat_count[route_class]
            s = self.lat_sum[route_class]
        return s / n if n else 0.0

    def mean_network_latency(self, route_class: Optional[str] = None) -> float:
        if route_class is None:
            n = self.measured_flits()
            s = sum(self.lat_net_sum.values())
        else:
            n = self.lat_count[route_class]
            s = self.lat_net_sum[route_class]
        return s / n if n else 0.0

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
        for lat in sorted(merged):
            seen += merged[lat]
            if seen >= threshold:
                return lat
        return max(merged)

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
    raise ValueError(f"unknown route class {route_class!r}")


# --- engine internals --------------------------------------------------------

class _Flit:
    __slots__ = (
        "pid", "idx", "is_head", "is_tail", "src", "dst", "dst_router", "vnet",
        "created", "entered", "ready_sa", "hops",
    )

    def __init__(self, pid, idx, is_head, is_tail, src, dst, dst_router, vnet,
                 created, hops):
        self.pid = pid
        self.idx = idx
        self.is_head = is_head
        self.is_tail = is_tail
        self.src = src
        self.dst = dst
        self.dst_router = dst_router
        self.vnet = vnet
        self.created = created
        self.entered = -1
        self.ready_sa = 0
        self.hops = hops


class _InVC:
    __slots__ = ("buf", "state", "out_port", "out_vc", "reserved", "va_ready")

    def __init__(self):
        self.buf: deque = deque()
        self.state = _IDLE
        self.out_port = -1
        self.out_vc = -1
        self.reserved = False
        self.va_ready = 0


class _Packet:
    __slots__ = (
        "pid", "src", "dst", "klass", "created", "src_router", "dst_router",
        "n_flits", "vnet", "hops", "resources",
    )

    def __init__(self, pid, src, dst, klass, created, src_router, dst_router,
                 n_flits, vnet, hops):
        self.pid = pid
        self.src = src
        self.dst = dst
        self.klass = klass
        self.created = created
        self.src_router = src_router
        self.dst_router = dst_router
        self.n_flits = n_flits
        self.vnet = vnet
        self.hops = hops
        self.resources: Tuple = ()


class _Circuit:
    """One installed circuit and the packets queued at its source NIs.

    An e2e circuit has one source NI; an r2r circuit serves every NI of its
    source router round-robin.
    """

    __slots__ = ("cid", "subnet", "hops", "lat", "free_at", "ni_queues", "rr_nis",
                 "rr_ptr")

    def __init__(self, cid, subnet, hops, lat, source_nis):
        self.cid = cid
        self.subnet = subnet            # physical subnet index (>= 1)
        self.hops = hops
        self.lat = lat                  # unloaded latency of each flit
        self.free_at = 0
        self.rr_nis: List[int] = list(source_nis)
        self.ni_queues: Dict[int, deque] = {ni: deque() for ni in self.rr_nis}
        self.rr_ptr = 0

    def has_waiting(self) -> bool:
        return any(self.ni_queues.values())


PlanSchedule = Sequence[Tuple[int, CircuitPlan]]


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
        if cs_all and plan is not None:
            raise ConfigError("the all-circuit fabric takes no plan")

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

        # event queues keyed by cycle
        self.arrival_ev: Dict[int, List] = {}
        self.credit_ev: Dict[int, List] = {}
        self.vc_eject_ev: Dict[int, List] = {}
        self.cs_entry_ev: Dict[int, int] = {}
        self.cs_eject_ev: Dict[int, List] = {}
        self.release_ev: Dict[int, List] = {}

        # per-NI VC-side injection; busy_nis holds every NI with a queued
        # packet or one it is part way through sending
        self.ni_queue: Dict[int, deque] = {}
        self.ni_cur: Dict[int, List] = {}
        self.busy_nis: set = set()

        # circuit-switched side
        self.circuits: List[_Circuit] = []
        self.match: Dict[Tuple[int, int], _Circuit] = {}
        self.granularity = ""
        self.wire_free: Dict[Tuple[int, int], int] = {}
        self.waiting: Dict[int, _Circuit] = {}
        self.cs_in_flight = 0
        self.plan_schedule: List[Tuple[int, CircuitPlan]] = []
        if plan is not None:
            self._install_plan(plan)

        # all-circuit fabric state
        self.pending_cs_all: Dict[int, deque] = {}
        self.busy_resources: set = set()

        self._order_check: Dict[int, int] = {}
        self.pair_flits: Dict[Tuple[int, int], int] = {}

    # --- construction ---------------------------------------------------

    def _build_geometry(self, seed: int) -> None:
        """Ports, buffers and the lookup tables the per-cycle phases read.

        A router's ports are its mesh neighbours in E,W,N,S order, then its
        local NIs; input and output ports share one numbering.  So the
        router and port at the far end of mesh port p of router r,
        peer[r][p], is both where an output port's flits arrive and which
        output port an input port returns credits to.
        """
        mesh = self.mesh
        n_routers = mesh.n_routers
        nbrs = [mesh.neighbors(r) for r in range(n_routers)]
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
        # X-Y routing: the mesh port toward each other router
        self.route: List[List[int]] = [
            [nbrs[r].index(mesh.xy_next(r, d)) if d != r else -1
             for d in range(n_routers)]
            for r in range(n_routers)
        ]

        n_vc = self.vcc.vc_count
        depth = self.vcc.buffer_depth_flits
        self.invc: List[List[List[_InVC]]] = [
            [[_InVC() for _ in range(n_vc)] for _ in ports] for ports in self.peer
        ]
        self.credits: List[List[Optional[List[int]]]] = [
            [[depth] * n_vc if far is not None else None for far in ports]
            for ports in self.peer
        ]
        rr0 = seed % max(1, n_vc)
        self.sa_rr: List[List[int]] = [[rr0] * len(ports) for ports in self.peer]
        # the round-robin ring of an output port covers every input VC
        self.sa_ring: List[int] = [len(ports) * n_vc for ports in self.peer]
        self.va_pending: List[Tuple[int, int, int, _InVC]] = []
        self.sa_active: List[Dict[Tuple[int, int], _InVC]] = [
            {} for _ in range(n_routers)
        ]
        # routers with an entry in sa_active
        self.busy_routers: set = set()

    def _new_stats(self) -> SimStats:
        """Zeroed counters carrying the figures fixed for the whole run."""
        k = self.layout.subnet_count
        per_subnet = sum(len(ports) for ports in self.peer) * self.vcc.vc_count
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

    def _install_plan(self, plan: CircuitPlan) -> None:
        if plan.subnet_count > self.layout.cs_subnet_count:
            raise ConfigError(
                f"plan wants {plan.subnet_count} CS subnets, layout offers "
                f"{self.layout.cs_subnet_count}"
            )
        plan.validate()
        self.granularity = plan.granularity
        self.circuits = []
        self.match = {}
        mesh = self.mesh
        e2e = plan.granularity == "e2e"
        unit, n = ("NI", mesh.n_nis) if e2e else ("router", mesh.n_routers)
        for s, circ in plan.all_circuits():
            key = (circ.src, circ.dst)
            if not (0 <= circ.src < n and 0 <= circ.dst < n):
                raise ConfigError(f"plan {unit} pair {key} out of range")
            hops = circ.path.hops
            c = _Circuit(len(self.circuits), 1 + s, hops,
                         unloaded_latency("cs-" + plan.granularity, hops),
                         (circ.src,) if e2e else mesh.nis_of_router(circ.src))
            self.circuits.append(c)
            self.match[key] = c

    def schedule_plan(self, plan: CircuitPlan, activation_cycle: int) -> None:
        if activation_cycle < self.cycle:
            raise ConfigError("cannot activate a plan in the past")
        self.plan_schedule.append((activation_cycle, plan))
        self.plan_schedule.sort(key=lambda t: t[0])

    # --- intake and classification ----------------------------------------

    def _intake(self, ev: TrafficEvent) -> None:
        mesh = self.mesh
        if not (0 <= ev.src < mesh.n_nis and 0 <= ev.dst < mesh.n_nis):
            raise ConfigError(f"packet {ev.packet_id} names an unknown NI")
        src_r = mesh.router_of_ni(ev.src)
        dst_r = mesh.router_of_ni(ev.dst)
        n_flits = flits_for_packet(ev.klass, self.width_bits)
        vnet = 0 if ev.klass.kind == "control" else 1 % self.vcc.vnets
        hops = mesh.hop_distance(src_r, dst_r)
        pkt = _Packet(ev.packet_id, ev.src, ev.dst, ev.klass, ev.inject_cycle,
                      src_r, dst_r, n_flits, vnet, hops)
        self.stats.packets_seen += 1
        if self.cs_all:
            path = xy_route(mesh, src_r, dst_r) if src_r != dst_r else None
            links = tuple(("link",) + l for l in path.link_set) if path else ()
            pkt.resources = links + (("ej", ev.dst),)
            self.pending_cs_all.setdefault(ev.src, deque()).append(pkt)
            return
        self._dispatch(pkt)

    def _dispatch(self, pkt: _Packet) -> None:
        circuit = None
        if self.match:
            if self.granularity == "e2e":
                circuit = self.match.get((pkt.src, pkt.dst))
            else:
                circuit = self.match.get((pkt.src_router, pkt.dst_router))
        if circuit is None:
            self.ni_queue.setdefault(pkt.src, deque()).append(pkt)
            self.busy_nis.add(pkt.src)
        else:
            circuit.ni_queues[pkt.src].append(pkt)
            self.waiting[circuit.cid] = circuit

    def _activate_plan(self, plan: CircuitPlan) -> None:
        c = self.cycle
        drain_end = c
        for q in self.circuits:
            if q.free_at > drain_end:
                drain_end = q.free_at
        if drain_end - c > _RECONFIG_BARRIER_CYCLES:
            log.warning(
                "circuit drain needed %d cycles, beyond the %d-cycle barrier",
                drain_end - c, _RECONFIG_BARRIER_CYCLES,
            )
        stranded: List[_Packet] = []
        for q in self.circuits:
            for dq in q.ni_queues.values():
                stranded.extend(dq)
        self.waiting = {}
        self._install_plan(plan)
        for q in self.circuits:
            q.free_at = drain_end
        for pkt in sorted(stranded, key=lambda p: (p.created, p.pid)):
            self._dispatch(pkt)
        # keep per-NI FIFO order after moving packets back to the VC side
        for ni, dq in self.ni_queue.items():
            if len(dq) > 1:
                self.ni_queue[ni] = deque(sorted(dq, key=lambda p: (p.created, p.pid)))

    # --- per-cycle phases --------------------------------------------------

    def _phase_intake(self, c: int) -> None:
        while self.plan_schedule and self.plan_schedule[0][0] == c:
            _, plan = self.plan_schedule.pop(0)
            self._activate_plan(plan)
        trace = self.trace
        n = len(trace)
        while self.trace_ptr < n and trace[self.trace_ptr].inject_cycle == c:
            self._intake(trace[self.trace_ptr])
            self.trace_ptr += 1

    def _phase_events(self, c: int) -> None:
        for keys in self.release_ev.pop(c, ()):
            self.busy_resources.difference_update(keys)
        for r, p, v in self.credit_ev.pop(c, ()):
            self.credits[r][p][v] += 1
        entered = self.cs_entry_ev.pop(c, 0)
        if entered:
            self.stats.flits_injected += entered
            self.cs_in_flight += entered
        for r, p, v, flit in self.arrival_ev.pop(c, ()):
            self._buffer_write(r, p, v, flit, c)

    def _buffer_write(self, r: int, p: int, v: int, flit: _Flit, c: int) -> None:
        ivc = self.invc[r][p][v]
        ivc.buf.append(flit)
        occ = len(ivc.buf)
        if occ > self.stats.max_vc_occupancy:
            self.stats.max_vc_occupancy = occ
        if occ > self.vcc.buffer_depth_flits:
            raise SimulationError("VC buffer overflow; credit accounting broke")
        self.stats.buffer_writes[0] += 1
        flit.ready_sa = c + 2
        if flit.is_head:
            ivc.state = _WAIT_VA
            ivc.va_ready = c + 1
            ivc.out_port = self._route_port(r, flit)
            self.va_pending.append((r, p, v, ivc))
            self.sa_active[r][(p, v)] = ivc
            self.busy_routers.add(r)

    def _route_port(self, r: int, flit: _Flit) -> int:
        if r == flit.dst_router:
            return self.local_port[flit.dst]
        return self.route[r][flit.dst_router]

    def _phase_vc_injection(self, c: int) -> None:
        depth = self.vcc.buffer_depth_flits
        for ni in sorted(self.busy_nis):
            cur = self.ni_cur.get(ni)
            queue = self.ni_queue[ni]
            if cur is None:
                pkt = queue[0]
                r = pkt.src_router
                p = self.local_port[ni]
                v = self._free_vc(r, p, pkt.vnet)
                if v < 0:
                    continue
                self.invc[r][p][v].reserved = True
                queue.popleft()
                cur = [pkt, r, p, v, 0]
                self.ni_cur[ni] = cur
            pkt, r, p, v, idx = cur
            ivc = self.invc[r][p][v]
            if len(ivc.buf) >= depth:
                continue
            flit = _Flit(
                pkt.pid, idx, idx == 0, idx == pkt.n_flits - 1, pkt.src, pkt.dst,
                pkt.dst_router, pkt.vnet, pkt.created, pkt.hops,
            )
            flit.entered = c
            self.stats.flits_injected += 1
            self._buffer_write(r, p, v, flit, c)
            cur[4] = idx + 1
            if cur[4] == pkt.n_flits:
                del self.ni_cur[ni]
                if not queue:
                    self.busy_nis.discard(ni)

    def _free_vc(self, r: int, p: int, vnet: int) -> int:
        """Index of the first free VC of vnet at input port p, or -1."""
        vcs = self.invc[r][p]
        base = vnet * self.vcc.vcs_per_vnet
        for v in range(base, base + self.vcc.vcs_per_vnet):
            ivc = vcs[v]
            if ivc.state == _IDLE and not ivc.buf and not ivc.reserved:
                return v
        return -1

    def _phase_cs_service(self, c: int) -> None:
        if self.cs_all:
            self._phase_cs_all(c)
            return
        for cid in sorted(self.waiting):
            q = self.waiting[cid]
            if q.free_at > c:
                continue
            if not q.has_waiting():
                del self.waiting[cid]
                continue
            n_nis = len(q.rr_nis)
            chosen = None
            for step in range(n_nis):
                ni = q.rr_nis[(q.rr_ptr + step) % n_nis]
                if q.ni_queues[ni] and self.wire_free.get((ni, q.subnet), 0) <= c:
                    chosen = ni
                    q.rr_ptr = (q.rr_ptr + step + 1) % n_nis
                    break
            if chosen is None:
                continue
            pkt = q.ni_queues[chosen].popleft()
            q.free_at = self._send_on_circuit(pkt, chosen, q.subnet, q.hops, q.lat, c)
            if not q.has_waiting():
                del self.waiting[cid]

    def _send_on_circuit(self, pkt: _Packet, ni: int, subnet: int, hops: int,
                         lat: int, c: int) -> int:
        """Put pkt's flits on NI ni's wire back to back from cycle c.

        Each flit ejects lat cycles after it enters.  Returns the cycle the
        tail flit ejects.
        """
        n = pkt.n_flits
        for i in range(n):
            t_in = c + i
            if t_in == c:
                self.stats.flits_injected += 1
                self.cs_in_flight += 1
            else:
                self.cs_entry_ev[t_in] = self.cs_entry_ev.get(t_in, 0) + 1
            self.cs_eject_ev.setdefault(t_in + lat, []).append(
                (pkt.pid, i, pkt.src, pkt.dst, pkt.created, t_in, subnet,
                 hops, lat, i == n - 1)
            )
        self.wire_free[(ni, subnet)] = c + n
        return c + n - 1 + lat

    def _phase_cs_all(self, c: int) -> None:
        busy = self.busy_resources
        for ni in sorted(self.pending_cs_all):
            queue = self.pending_cs_all[ni]
            pkt = queue[0]
            if self.wire_free.get((ni, 0), 0) > c:
                continue
            if any(key in busy for key in pkt.resources):
                continue
            busy.update(pkt.resources)
            queue.popleft()
            if not queue:
                del self.pending_cs_all[ni]
            done = self._send_on_circuit(
                pkt, ni, 0, pkt.hops, unloaded_latency("cs-e2e", pkt.hops), c
            )
            self.release_ev.setdefault(done, []).append(pkt.resources)

    def _phase_va(self, c: int) -> None:
        still: List[Tuple[int, int, int, _InVC]] = []
        for r, p, v, ivc in self.va_pending:
            if ivc.va_ready > c:
                still.append((r, p, v, ivc))
                continue
            far = self.peer[r][ivc.out_port]
            if far is None:
                ivc.out_vc = -1
                ivc.state = _ACTIVE
                self.stats.vc_allocations += 1
                continue
            nbr, p2 = far
            head: _Flit = ivc.buf[0]
            target = self._free_vc(nbr, p2, head.vnet)
            if target < 0:
                still.append((r, p, v, ivc))
                continue
            self.invc[nbr][p2][target].reserved = True
            ivc.out_vc = target
            ivc.state = _ACTIVE
            self.stats.vc_allocations += 1
        self.va_pending = still

    def _phase_sa(self, c: int) -> None:
        """Separable, output-first switch allocation with round-robin.

        Each output port grants the requesting VC nearest after its pointer
        on the ring of all input VCs, skipping input ports that already won
        this cycle; output ports go in ascending order.
        """
        n_vc = self.vcc.vc_count
        for r in sorted(self.busy_routers):
            credits = self.credits[r]
            requests: Dict[int, List[Tuple[int, int, int, _InVC]]] = {}
            for (p, v), ivc in self.sa_active[r].items():
                if ivc.state != _ACTIVE or not ivc.buf:
                    continue
                head: _Flit = ivc.buf[0]
                if head.ready_sa > c:
                    continue
                credit = credits[ivc.out_port]
                if credit is not None and credit[ivc.out_vc] <= 0:
                    continue
                requests.setdefault(ivc.out_port, []).append((p * n_vc + v, p, v, ivc))
            if not requests:
                continue
            ring = self.sa_ring[r]
            rr = self.sa_rr[r]
            used_inputs: set = set()
            for out_p in sorted(requests):
                ptr = rr[out_p]
                winner = None
                nearest = ring
                for t in requests[out_p]:
                    if t[1] in used_inputs:
                        continue
                    dist = (t[0] - ptr) % ring
                    if dist < nearest:
                        winner, nearest = t, dist
                if winner is None:
                    continue
                canon, p, v, ivc = winner
                used_inputs.add(p)
                rr[out_p] = (canon + 1) % ring
                self._grant(r, out_p, p, v, ivc, c)

    def _grant(self, r: int, out_p: int, p: int, v: int, ivc: _InVC, c: int) -> None:
        flit: _Flit = ivc.buf.popleft()
        st = self.stats
        st.buffer_reads[0] += 1
        st.sw_allocations += 1
        st.crossbar_traversals[0] += 1
        ports = self.peer[r]
        far = ports[out_p]
        if far is not None:
            self.credits[r][out_p][ivc.out_vc] -= 1
            st.link_traversals[0] += 1
            self.arrival_ev.setdefault(c + 3, []).append(far + (ivc.out_vc, flit))
        else:
            self.vc_eject_ev.setdefault(c + 2, []).append(flit)
        up = ports[p]
        if up is not None:
            self.credit_ev.setdefault(c + 2, []).append(up + (v,))
        if flit.is_tail:
            ivc.state = _IDLE
            ivc.reserved = False
            ivc.out_port = -1
            ivc.out_vc = -1
            active = self.sa_active[r]
            del active[(p, v)]
            if not active:
                self.busy_routers.discard(r)

    def _check_order(self, pid: int, idx: int, is_tail: bool) -> None:
        expect = self._order_check.get(pid, -1) + 1
        if idx != expect:
            raise SimulationError(f"packet {pid} flit {idx} ejected out of order")
        if is_tail:
            self._order_check.pop(pid, None)
        else:
            self._order_check[pid] = idx

    def _record_latency(self, route_class: str, created: int, entered: int,
                        eject: int, unloaded: int) -> None:
        if created < self.warmup:
            return
        st = self.stats
        st.lat_sum[route_class] += eject - created
        st.lat_net_sum[route_class] += eject - entered
        st.lat_count[route_class] += 1
        hist = st.latency_hist[route_class]
        lat = eject - created
        hist[lat] = hist.get(lat, 0) + 1
        st.unloaded_sum += unloaded

    def _phase_eject(self, c: int) -> None:
        st = self.stats
        for flit in self.vc_eject_ev.pop(c, ()):
            self._check_order(flit.pid, flit.idx, flit.is_tail)
            st.flits_ejected += 1
            self._record_latency("vc", flit.created, flit.entered, c,
                                 unloaded_latency("vc", flit.hops))
            self.pair_flits[(flit.src, flit.dst)] = (
                self.pair_flits.get((flit.src, flit.dst), 0) + 1
            )
            if self.record_flits:
                st.flit_records.append(
                    FlitRecord(flit.pid, flit.idx, flit.entered, c, "vc", flit.hops)
                )
        for (pid, idx, src, dst, created, entered, subnet, hops, lat,
             is_tail) in self.cs_eject_ev.pop(c, ()):
            self._check_order(pid, idx, is_tail)
            self.cs_in_flight -= 1
            st.flits_ejected += 1
            st.in_circuit_flits += 1
            st.cs_flits_per_subnet[subnet] += 1
            st.crossbar_traversals[subnet] += hops + 1
            st.link_traversals[subnet] += hops
            self._record_latency("cs", created, entered, c, lat)
            self.pair_flits[(src, dst)] = self.pair_flits.get((src, dst), 0) + 1
            if self.record_flits:
                st.flit_records.append(
                    FlitRecord(pid, idx, entered, c, f"cs{subnet}", hops)
                )

    # --- driving ---------------------------------------------------------

    def _step(self, c: int) -> None:
        """One cycle; each phase runs only when it has work at c."""
        self._phase_intake(c)
        if (c in self.arrival_ev or c in self.credit_ev or c in self.cs_entry_ev
                or c in self.release_ev):
            self._phase_events(c)
        if self.busy_nis:
            self._phase_vc_injection(c)
        if self.waiting or self.pending_cs_all:
            self._phase_cs_service(c)
        if self.va_pending:
            self._phase_va(c)
        if self.busy_routers:
            self._phase_sa(c)
        if c in self.vc_eject_ev or c in self.cs_eject_ev:
            self._phase_eject(c)

    def _event_queues(self) -> Tuple[dict, ...]:
        return (self.arrival_ev, self.credit_ev, self.vc_eject_ev,
                self.cs_entry_ev, self.cs_eject_ev, self.release_ev)

    def _busy(self) -> bool:
        """True while some phase may act in a cycle that has no events."""
        return bool(self.va_pending or self.busy_nis or self.busy_routers
                    or self.waiting or self.pending_cs_all)

    def _skip_idle(self, limit: int) -> None:
        """Move the clock over cycles in which no phase can act.

        With nothing buffered, queued or waiting, the next cycle with work
        is the next packet, plan activation or event, so every cycle before
        it would step without effect.  The clock stops at limit at the
        latest.  Counters are unchanged: cycle-integrated figures read
        cycles_simulated, which counts skipped cycles like stepped ones.
        """
        if self._busy():
            return
        nxt = limit
        if self.trace_ptr < len(self.trace):
            nxt = min(nxt, self.trace[self.trace_ptr].inject_cycle)
        if self.plan_schedule:
            nxt = min(nxt, self.plan_schedule[0][0])
        for events in self._event_queues():
            if events:
                nxt = min(nxt, min(events))
        if nxt > self.cycle:
            self.cycle = nxt

    def work_remaining(self) -> bool:
        return bool(
            self.trace_ptr < len(self.trace) or self.plan_schedule
            or any(self._event_queues()) or self._busy()
        )

    def run_until(self, target_cycle: int) -> None:
        while self.cycle < target_cycle:
            self._skip_idle(target_cycle)
            if self.cycle < target_cycle:
                self._step(self.cycle)
                self.cycle += 1

    def run_to_completion(self, hard_limit: Optional[int] = None) -> None:
        """Step until no work remains; SimulationError past hard_limit.

        hard_limit is an absolute cycle.  By default it lies _DRAIN_CYCLES
        after the last packet injection or scheduled plan activation, as
        they stand when the call starts, so a valid trace drains however
        late its packets come.
        """
        if hard_limit is None:
            last = self.trace[-1].inject_cycle if self.trace else 0
            for activation, _ in self.plan_schedule:
                last = max(last, activation)
            hard_limit = last + _DRAIN_CYCLES
        while self.work_remaining():
            self._skip_idle(hard_limit)
            if self.cycle >= hard_limit:
                raise SimulationError(f"no drain after {hard_limit} cycles")
            self._step(self.cycle)
            self.cycle += 1

    def take_pair_counts(self) -> Dict[Tuple[int, int], int]:
        counts = self.pair_flits
        self.pair_flits = {}
        return counts

    def finalize(self) -> SimStats:
        """Close the open counter window and return its stats.

        A window runs from the previous finalize (or cycle 0) to the current
        cycle.  Flits still in the network are its in_flight and carry over
        into the next window, which starts from fresh counters.
        """
        st = self.stats
        resident = 0
        for r in range(self.mesh.n_routers):
            for port in self.invc[r]:
                for ivc in port:
                    resident += len(ivc.buf)
        for evs in self.arrival_ev.values():
            resident += len(evs)
        for evs in self.vc_eject_ev.values():
            resident += len(evs)
        resident += self.cs_in_flight
        st.cycles_simulated = self.cycle - self.window_start
        st.in_flight = resident
        if self.carried + st.flits_injected - st.flits_ejected != resident:
            raise SimulationError(
                f"conservation broke: carried in {self.carried}, injected "
                f"{st.flits_injected}, ejected {st.flits_ejected}, resident {resident}"
            )
        self.stats = self._new_stats()
        self.window_start = self.cycle
        self.carried = resident
        return st


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


# --- injection sweeps --------------------------------------------------------

@dataclass
class SweepPoint:
    rate: float
    mean_latency: float
    p99_latency: int
    unloaded_mean: float
    saturated: bool
    flits_ejected: int
    in_circuit_fraction: float


def sweep_injection(
    mesh: MeshConfig,
    layout: SubnetLayout,
    vc_config: VcConfig,
    pattern: str,
    rates: Sequence[float],
    seed: int = 0,
    *,
    fabric: str = "hybrid",
    granularity: str = "e2e",
    cycles: int = 20000,
    control_fraction: float = 0.5,
    regularity: float = 0.0,
    designated_pair_count: int = 8,
    saturation_factor: float = 10.0,
) -> List[SweepPoint]:
    """Latency-vs-rate curve for one fabric.

    fabric selects what carries the traffic: "vc" forces a full-width
    buffered fabric, "cs" a full-width fabric where every packet reserves
    its whole path (no set-up delay modelled), "hybrid" uses the given
    layout, planning each rate greedily at this granularity from the fold
    of that rate's trace at the subnet width.  A point is saturated when
    its mean latency exceeds saturation_factor times the unloaded mean of
    its own traffic.
    """
    if list(rates) != sorted(rates):
        raise ConfigError("rates must be ascending")
    if fabric not in ("vc", "cs", "hybrid"):
        raise ConfigError(f"unknown fabric {fabric!r}")

    if fabric in ("vc", "cs"):
        run_layout = SubnetLayout(layout.total_width_bits, 1, layout.gate_cs_buffers)
    else:
        if layout.cs_subnet_count < 1:
            raise ConfigError("a hybrid sweep needs at least one CS subnet")
        run_layout = layout
        profile_granularity = profile_granularity_for(granularity)

    points: List[SweepPoint] = []
    warmup = cycles // 10
    for rate in rates:
        spec = SyntheticSpec(
            pattern, rate, control_fraction=control_fraction,
            regularity=regularity, designated_pair_count=designated_pair_count,
        )
        trace = generate(spec, mesh, seed, cycles)
        plan = None
        if fabric == "hybrid":
            prof = profile(trace, mesh, profile_granularity, layout.subnet_width_bits)
            plan = greedy_allocate(prof, mesh, layout.cs_subnet_count, granularity)
        stats = simulate(
            mesh, run_layout, vc_config, trace, plan,
            cycles_limit=cycles, seed=seed, warmup_cycles=warmup,
            cs_all=(fabric == "cs"),
        )
        mean = stats.mean_latency()
        unloaded = stats.unloaded_mean()
        if stats.measured_flits() == 0:
            # nothing measurable got through the window at all
            saturated = stats.flits_injected > 0
        else:
            saturated = unloaded > 0 and mean > saturation_factor * unloaded
        frac = (stats.in_circuit_flits / stats.flits_ejected) if stats.flits_ejected else 0.0
        points.append(
            SweepPoint(rate, mean, stats.p99_latency(), unloaded, saturated,
                       stats.flits_ejected, frac)
        )
    return points
