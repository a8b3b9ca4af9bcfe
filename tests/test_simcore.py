"""Flit-level engine: timing contracts, event counts, circuit service."""

import collections
import dataclasses
import logging
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from hybridnoc import (
    CandidatePair,
    CircuitPlan,
    ConfigError,
    ExperimentConfig,
    MeshConfig,
    PacketClass,
    SimStats,
    Simulation,
    SimulationError,
    SubnetLayout,
    SyntheticSpec,
    TrafficEvent,
    VcConfig,
    generate,
    greedy_allocate,
    load_config,
    profile,
    profile_granularity_for,
    simulate,
    sweep_injection,
    unloaded_latency,
    xy_route,
)
from hybridnoc import simcore, topology
from hybridnoc.simcore import _SETTLE_CYCLES

MESH = MeshConfig.grid(4, 4)
FULL = SubnetLayout(128, 1)
HALF = SubnetLayout(128, 2)
VC = VcConfig()

# one destination per hop count from NI 0 on the 4x4 grid
DST_AT_HOPS = {1: 1, 2: 2, 3: 3, 4: 7, 5: 11, 6: 15}


def one_packet(dst, klass, cycle=0, src=0):
    return [TrafficEvent(cycle, src, dst, klass, 0)]


def no_xy_route(*args):
    raise AssertionError("the engine routes through its route rows only")


def e2e_plan(mesh, *pairs):
    cands = tuple(
        CandidatePair(s, d, 1, xy_route(mesh, mesh.router_of_ni(s), mesh.router_of_ni(d)))
        for s, d in pairs
    )
    return CircuitPlan("e2e", (cands,))


def test_unloaded_latency_contract():
    assert unloaded_latency("vc", 3) == 19
    assert unloaded_latency("vc", 0) == 4
    assert unloaded_latency("cs-e2e", 3) == 7
    assert unloaded_latency("cs-e2e", 0) == 1
    assert unloaded_latency("cs-r2r", 3) == 13
    with pytest.raises(ValueError):
        unloaded_latency("bus", 2)


@pytest.mark.parametrize("hops,dst", sorted(DST_AT_HOPS.items()))
def test_vc_single_flit_latency(hops, dst):
    # 4 pipeline stages per router plus 1 link cycle per hop
    stats = simulate(MESH, FULL, VC, one_packet(dst, PacketClass("control", 128)))
    assert stats.flits_ejected == 1
    assert stats.mean_latency() == 5 * hops + 4


def test_vc_zero_hop_latency():
    mesh = MeshConfig.grid(2, 2, 2)
    stats = simulate(mesh, FULL, VC, one_packet(1, PacketClass("control", 128)))
    assert stats.mean_latency() == 4.0


def test_vc_multi_flit_packet():
    # 640-bit payload at 128-bit width is 5 flits over 2 hops; the head
    # obeys the single-flit contract and bodies stream behind it, with the
    # depth-4 credit loop opening one bubble before the tail
    stats = simulate(
        MESH, FULL, VC, one_packet(2, PacketClass("data", 640)), record_flits=True
    )
    ejects = [r.eject_cycle for r in sorted(stats.flit_records, key=lambda r: r.flit_index)]
    assert ejects == [14, 15, 16, 17, 21]
    assert all(r.route_class == "vc" for r in stats.flit_records)


def test_vc_event_count_table():
    # n flits over h hops cross h+1 routers: one write, read, switch grant
    # and crossbar pass each, h link traversals; VA happens once per router
    # per packet
    for hops, dst in sorted(DST_AT_HOPS.items()):
        for payload, n in ((128, 1), (640, 5)):
            stats = simulate(MESH, FULL, VC, one_packet(dst, PacketClass("data", payload)))
            assert stats.buffer_writes == [n * (hops + 1)]
            assert stats.buffer_reads == [n * (hops + 1)]
            assert stats.crossbar_traversals == [n * (hops + 1)]
            assert stats.sw_allocations == n * (hops + 1)
            assert stats.link_traversals == [n * hops]
            assert stats.vc_allocations == hops + 1


@pytest.mark.parametrize("hops,dst", sorted(DST_AT_HOPS.items()))
def test_cs_e2e_single_flit_latency(hops, dst):
    # 64-bit payload on a 64-bit CS subnet is exactly one flit
    plan = e2e_plan(MESH, (0, dst))
    stats = simulate(
        MESH, HALF, VC, one_packet(dst, PacketClass("control", 64)), plan,
        record_flits=True,
    )
    rec = stats.flit_records[0]
    assert rec.eject_cycle - rec.inject_cycle == 2 * hops + 1
    assert rec.route_class == "cs1"
    assert stats.in_circuit_flits == 1


@pytest.mark.parametrize("hops,dst", sorted(DST_AT_HOPS.items()))
def test_cs_r2r_single_flit_latency(hops, dst):
    path = xy_route(MESH, 0, dst)
    plan = CircuitPlan("r2r", ((CandidatePair(0, dst, 1, path),),))
    stats = simulate(
        MESH, HALF, VC, one_packet(dst, PacketClass("control", 64)), plan,
        record_flits=True,
    )
    rec = stats.flit_records[0]
    # r2r pays the buffered injection and ejection routers on top of the wire
    assert rec.eject_cycle - rec.inject_cycle == 2 * hops + 7


def test_cs_event_count_table():
    # circuit flits touch the crossbars and links, never a buffer or an
    # allocation stage
    for hops, dst in sorted(DST_AT_HOPS.items()):
        plan = e2e_plan(MESH, (0, dst))
        trace = [
            TrafficEvent(0, 0, dst, PacketClass("data", 128), 0),  # 2 flits
            TrafficEvent(4, 0, dst, PacketClass("control", 64), 1),
        ]
        stats = simulate(MESH, HALF, VC, trace, plan)
        assert stats.in_circuit_flits == 3
        assert stats.crossbar_traversals == [0, 3 * (hops + 1)]
        assert stats.link_traversals == [0, 3 * hops]
        assert stats.buffer_writes == [0, 0]
        assert stats.buffer_reads == [0, 0]
        assert stats.vc_allocations == 0
        assert stats.sw_allocations == 0


def test_cs_circuit_serializes_packets():
    # one packet in flight per circuit: the second 2-flit packet waits for
    # the first to clear the wire end to end
    plan = e2e_plan(MESH, (0, 1))
    trace = [
        TrafficEvent(0, 0, 1, PacketClass("data", 128), 0),
        TrafficEvent(0, 0, 1, PacketClass("data", 128), 1),
    ]
    stats = simulate(MESH, HALF, VC, trace, plan, record_flits=True)
    by_packet = {}
    for r in stats.flit_records:
        by_packet.setdefault(r.packet_id, []).append(r.eject_cycle)
    assert sorted(by_packet[0]) == [3, 4]
    assert sorted(by_packet[1]) == [7, 8]


def test_cs_injection_wire_is_shared_per_subnet():
    # two circuits from the same NI in one subnet cannot drive the
    # injection wire in the same cycle
    plan = e2e_plan(MESH, (0, 1), (0, 4))
    trace = [
        TrafficEvent(0, 0, 1, PacketClass("control", 64), 0),
        TrafficEvent(0, 0, 4, PacketClass("control", 64), 1),
    ]
    stats = simulate(MESH, HALF, VC, trace, plan, record_flits=True)
    ejects = sorted((r.packet_id, r.eject_cycle) for r in stats.flit_records)
    assert ejects == [(0, 3), (1, 4)]


def test_hybrid_latency_split_by_class():
    plan = e2e_plan(MESH, (0, 3))
    trace = [
        TrafficEvent(0, 0, 3, PacketClass("control", 64), 0),
        TrafficEvent(0, 5, 6, PacketClass("control", 64), 1),
    ]
    stats = simulate(MESH, HALF, VC, trace, plan)
    assert stats.mean_latency("cs") == 7.0  # 3 hops on the circuit
    assert stats.mean_latency("vc") == 9.0  # 1 hop buffered
    assert stats.percent_in_circuit() == 50.0
    assert stats.mean_latency() == 8.0


def route_classes(mesh, trace, plan):
    """The route classes each packet's flits ejected under, by packet id."""
    stats = simulate(mesh, HALF, VC, trace, plan, record_flits=True)
    out = {}
    for r in stats.flit_records:
        out.setdefault(r.packet_id, set()).add(r.route_class)
    return out


def test_classify_packet():
    # the engine's own dispatch decides; plan subnet 0 is physical subnet 1
    fwd_rev = [
        TrafficEvent(0, 0, 5, PacketClass("control", 64), 0),
        TrafficEvent(0, 5, 0, PacketClass("control", 64), 1),
    ]
    assert route_classes(MESH, fwd_rev, None) == {0: {"vc"}, 1: {"vc"}}
    # circuits are directed
    plan = e2e_plan(MESH, (0, 5))
    assert route_classes(MESH, fwd_rev, plan) == {0: {"cs1"}, 1: {"vc"}}
    # r2r plans capture every NI pair between the two routers; NI 2 sits on
    # router 1, so its packet to router 3 is a stray and rides VC
    mesh = MeshConfig.grid(2, 2, 2)
    rplan = CircuitPlan("r2r", ((CandidatePair(0, 3, 1, xy_route(mesh, 0, 3)),),))
    pairs = [(0, 6), (0, 7), (1, 6), (1, 7), (2, 6)]
    trace = [
        TrafficEvent(0, src, dst, PacketClass("control", 64), pid)
        for pid, (src, dst) in enumerate(pairs)
    ]
    assert route_classes(mesh, trace, rplan) == {
        0: {"cs1"}, 1: {"cs1"}, 2: {"cs1"}, 3: {"cs1"}, 4: {"vc"},
    }


def test_plan_activation_mid_run():
    plan = e2e_plan(MESH, (0, 3))
    trace = [
        TrafficEvent(c, 0, 3, PacketClass("control", 64), c) for c in range(0, 100, 5)
    ]
    sim = Simulation(MESH, HALF, VC, trace, None, 0, record_flits=True)
    sim.schedule_plan(plan, 50)
    sim.run_to_completion()
    stats = sim.finalize()
    cs_records = [r for r in stats.flit_records if r.route_class.startswith("cs")]
    vc_records = [r for r in stats.flit_records if r.route_class == "vc"]
    assert cs_records and vc_records
    # packets entering before activation ride the buffered subnet
    assert all(r.inject_cycle >= 50 for r in cs_records)
    assert all(r.inject_cycle < 50 for r in vc_records)


def test_plan_activation_rejects_past_cycles():
    sim = Simulation(MESH, HALF, VC, [], None, 0)
    sim.run_until(10)
    with pytest.raises(ConfigError):
        sim.schedule_plan(e2e_plan(MESH, (0, 1)), 5)


def test_plan_on_an_empty_trace_steps_no_cycle():
    stats = simulate(MESH, HALF, VC, [], e2e_plan(MESH, (0, 3)))
    assert stats.cycles_simulated == 0
    assert stats.flits_injected == 0


def test_refused_plan_leaves_the_run_as_it_was():
    # packets queue on a busy circuit when a plan that does not fit the
    # layout is offered: the refusal comes at once and changes nothing
    data = PacketClass("data", 640)
    trace = [TrafficEvent(c, 0, 3, data, c) for c in range(0, 60, 2)]
    trace += [TrafficEvent(c, 5, 9, data, 100 + c) for c in range(0, 60, 7)]
    trace.sort(key=lambda ev: ev.inject_cycle)
    too_wide = CircuitPlan("e2e", e2e_plan(MESH, (0, 3)).subnets + e2e_plan(MESH, (5, 9)).subnets)
    # NI 16 is one past the mesh's last; its path is a valid one
    off_mesh = CircuitPlan("e2e", ((CandidatePair(0, 16, 1, xy_route(MESH, 0, 15)),),))
    with pytest.raises(ConfigError, match="NI 16 out of range"):
        Simulation(MESH, HALF, VC, trace, off_mesh, 0)

    def run(offer):
        sim = Simulation(MESH, HALF, VC, trace, e2e_plan(MESH, (0, 3)), 0, record_flits=True)
        sim.run_until(20)
        if offer:
            with pytest.raises(ConfigError, match="plan wants 2 CS subnets, layout offers 1"):
                sim.schedule_plan(too_wide, 30)
            with pytest.raises(ConfigError, match="NI 16 out of range"):
                sim.schedule_plan(off_mesh, 30)
        sim.run_to_completion()
        return dataclasses.asdict(sim.finalize())

    assert run(True) == run(False)


@pytest.mark.parametrize("granularity", ["e2e", "r2r"])
def test_plan_drawn_on_another_mesh_is_refused(granularity):
    # NIs 0-3 and 4-7 are two rows of the 4x4 mesh, 3 hops end to end; a
    # 2x8 mesh has them too, but 2 hops apart on other links
    data = PacketClass("data", 640)
    trace = [TrafficEvent(2 * i, *pair, data, i) for i, pair in enumerate([(0, 3), (4, 7)] * 10)]
    gran = profile_granularity_for(granularity)
    plan = greedy_allocate(profile(trace, MESH, gran), MESH, 1, granularity)
    assert sorted((c.src, c.dst) for _, c in plan.all_circuits()) == [(0, 3), (4, 7)]
    tall = MeshConfig.grid(2, 8)
    with pytest.raises(ConfigError, match="plan circuit 0,3 is not an X-Y route of this mesh"):
        Simulation(tall, HALF, VC, trace, plan, 0)

    def run(offer):
        sim = Simulation(tall, HALF, VC, trace, None, 0, record_flits=True)
        sim.run_until(10)
        if offer:
            with pytest.raises(ConfigError, match="not an X-Y route of this mesh"):
                sim.schedule_plan(plan, 20)
        sim.run_to_completion()
        return dataclasses.asdict(sim.finalize())

    assert run(True) == run(False)
    # with two NIs a router, NIs 0 and 1 share one: no circuit joins them
    if granularity == "e2e":
        pair = e2e_plan(MESH, (0, 1))
        with pytest.raises(ConfigError, match="plan circuit 0,1 is not an X-Y route"):
            Simulation(MeshConfig.grid(4, 4, 2), HALF, VC, [], pair, 0)
    # the plan drawn on the 2x8 mesh is taken, and its circuits carry traffic
    own = greedy_allocate(profile(trace, tall, gran), tall, 1, granularity)
    assert {c.path.hops for _, c in own.all_circuits()} == {2}
    assert simulate(tall, HALF, VC, trace, own).in_circuit_flits > 0


def test_plan_change_past_the_drain_barrier_logs_a_warning(caplog):
    # a 2000-flit packet holds its circuit from cycle 0 until its tail
    # ejects near cycle 2000, so a plan activated at 10 waits past the
    # 1000-cycle barrier for the old circuit to drain
    trace = [TrafficEvent(0, 0, 3, PacketClass("data", 128_000), 0)]
    sim = Simulation(MESH, HALF, VC, trace, e2e_plan(MESH, (0, 3)), 0)
    sim.schedule_plan(e2e_plan(MESH, (5, 6)), 10)
    with caplog.at_level(logging.WARNING, logger="hybridnoc.simcore"):
        sim.run_to_completion()
    assert any("beyond the 1000-cycle barrier" in rec.getMessage() for rec in caplog.records)
    assert sim.finalize().flits_ejected == 2000


@pytest.mark.parametrize("step_back", [
    lambda sim: sim.run_until(50),
    lambda sim: sim.run_to_completion(),
], ids=["run_until", "run_to_completion"])
def test_clock_never_runs_back(step_back, monkeypatch):
    ctrl = PacketClass("control", 64)
    trace = [TrafficEvent(0, 0, 3, ctrl, 0), TrafficEvent(200, 0, 3, ctrl, 1)]
    sim = Simulation(MESH, HALF, VC, trace, None, 0)
    sim.run_until(100)
    # a drain may then run to 200 + _DRAIN_CYCLES: patched, cycle 50
    monkeypatch.setattr(simcore, "_DRAIN_CYCLES", -150)
    with pytest.raises(ConfigError, match="before the current cycle 100"):
        step_back(sim)
    assert sim.cycle == 100
    assert sim.finalize().cycles_simulated == 100


def test_plan_scheduled_in_idle_gap_activates_on_its_cycle():
    # nothing is in flight between the two packets, so the engine skips
    # cycles there; it must still stop at the activation cycle
    ctrl = PacketClass("control", 64)
    trace = [TrafficEvent(0, 0, 3, ctrl, 0), TrafficEvent(6000, 0, 3, ctrl, 1)]
    sim = Simulation(MESH, HALF, VC, trace, None, 0, record_flits=True)
    sim.schedule_plan(e2e_plan(MESH, (0, 3)), 3000)
    sim.run_until(3000)
    assert sim.circuits == []
    sim.run_until(3001)
    assert len(sim.circuits) == 1
    sim.run_to_completion()
    classes = {r.packet_id: r.route_class for r in sim.finalize().flit_records}
    assert classes == {0: "vc", 1: "cs1"}


def test_drain_after_a_late_plan_activation_ends_past_it():
    # the flit ejects at cycle 19 and waits in the ledger, which is not
    # settled when the clock jumps to the activation at 100; the drain must
    # end one past the activation, not one past the eject
    sim = Simulation(MESH, HALF, VC, one_packet(3, PacketClass("control", 64)), None, 0)
    sim.schedule_plan(e2e_plan(MESH, (0, 3)), 100)
    sim.run_to_completion()
    assert sim.cycle == 101
    stats = sim.finalize()
    assert (stats.cycles_simulated, stats.flits_ejected) == (101, 1)


def test_run_until_with_nothing_to_do_stops_on_target():
    for trace in ([], [TrafficEvent(20000, 0, 3, PacketClass("control", 64), 0)]):
        sim = Simulation(MESH, HALF, VC, trace, None, 0)
        sim.run_until(12345)
        assert sim.cycle == 12345
        stats = sim.finalize()
        assert stats.cycles_simulated == 12345
        assert stats.packets_seen == 0


def test_hard_limit_holds_across_an_idle_gap():
    trace = [TrafficEvent(50_000, 0, 3, PacketClass("control", 64), 0)]
    sim = Simulation(MESH, HALF, VC, trace, None, 0)
    with pytest.raises(SimulationError, match="10000"):
        sim._drive(10_000, drain=True)
    assert sim.cycle == 10_000


def r2r_train():
    """One 10-flit data packet on an r2r circuit from router 0 to router 15,
    injected at cycle 10.  Its flits enter the wire in cycles 10-19 and
    eject 2 * 6 + 7 = 19 cycles later, in cycles 29-38; no VC work is ever
    pending, so the clock steps only cycle 10."""
    plan = CircuitPlan("r2r", ((CandidatePair(0, 15, 1, xy_route(MESH, 0, 15)),),))
    trace = [TrafficEvent(10, 0, 15, PacketClass("data", 640), 0)]
    return Simulation(MESH, HALF, VC, trace, plan, 0)


@pytest.mark.parametrize("limit,entered", [(15, 5), (20, 10)])
def test_hard_limit_cuts_a_circuit_train_in_flight(limit, entered):
    sim = r2r_train()
    with pytest.raises(SimulationError, match=str(limit)):
        sim._drive(limit, drain=True)
    assert sim.cycle == limit
    stats = sim.finalize()
    assert (stats.flits_injected, stats.flits_ejected, stats.in_flight) == (entered, 0, entered)


def test_circuit_train_drains_one_past_its_last_eject():
    sim = r2r_train()
    sim._drive(40, drain=True)
    assert sim.cycle == 39


def test_window_cut_inside_a_circuit_train():
    sim = r2r_train()
    sim.run_until(25)
    first = sim.finalize()
    sim.run_to_completion()
    second = sim.finalize()
    assert [(w.flits_injected, w.flits_ejected, w.in_flight, w.cycles_simulated)
            for w in (first, second)] == [(10, 0, 10, 25), (0, 10, 0, 14)]


def vc_train():
    """One 5-flit data packet from NI 0 to NI 2, two hops on the VC subnet,
    injected at cycle 0.  Its flits eject in cycles 14-17 and 21 (see
    test_vc_multi_flit_packet); the tail wins the ejection port in cycle 19
    and waits in the ejection ledger until it is retired."""
    return Simulation(MESH, FULL, VC, one_packet(2, PacketClass("data", 640)), None, 0)


@pytest.mark.parametrize("cut", [19, 20, 21, 22])
def test_window_cut_inside_a_vc_tail_ejection(cut):
    sim = vc_train()
    sim.run_until(cut)
    pairs = [sim.take_pair_counts()]
    first = sim.finalize()
    sim.run_to_completion()
    pairs.append(sim.take_pair_counts())
    second = sim.finalize()
    out = 5 if cut > 21 else 4
    assert [(w.flits_injected, w.flits_ejected, w.in_flight, w.cycles_simulated)
            for w in (first, second)] == [(5, out, 5 - out, cut), (0, 5 - out, 0, 22 - cut)]
    assert pairs == [{(0, 2): out}, {(0, 2): 5 - out} if out < 5 else {}]


@pytest.mark.parametrize("limit", [20, 21])
def test_hard_limit_cuts_a_vc_ejection_in_flight(limit):
    sim = vc_train()
    with pytest.raises(SimulationError, match=str(limit)):
        sim._drive(limit, drain=True)
    assert sim.cycle == limit
    stats = sim.finalize()
    assert (stats.flits_injected, stats.flits_ejected, stats.in_flight) == (5, 4, 1)


def test_vc_flit_drains_one_past_its_eject():
    # 3 hops: the flit ejects at 5h + 4 = 19, so a drain needs cycle 20
    sim = Simulation(MESH, FULL, VC, one_packet(3, PacketClass("control", 128)), None, 0)
    with pytest.raises(SimulationError, match="19"):
        sim._drive(19, drain=True)
    sim._drive(20, drain=True)
    assert sim.cycle == 5 * 3 + 4 + 1
    assert sim.finalize().flits_ejected == 1


@pytest.mark.parametrize("fabric", ["vc", "planned", "cs_all"])
@pytest.mark.parametrize("ni", [-1, MESH.n_nis])
@pytest.mark.parametrize("end", ["src", "dst"])
def test_events_naming_nis_off_the_mesh_raise_topology_error(fabric, ni, end):
    # library callers hand simulate events that ingest never checked; the
    # packets before the bad one fill the per-pair table, so the bad NI
    # meets it as a miss, which must not index a tuple from its end
    ctrl = PacketClass("control", 128)
    src, dst = (ni, 3) if end == "src" else (3, ni)
    trace = [TrafficEvent(0, 0, 5, ctrl, 0), TrafficEvent(0, 15, 3, ctrl, 1),
             TrafficEvent(2, src, dst, ctrl, 2)]
    layout, plan = FULL, None
    if fabric == "planned":
        layout = HALF
        plan = CircuitPlan("e2e", ((CandidatePair(0, 5, 1, xy_route(MESH, 0, 5)),),))
    with pytest.raises(ConfigError, match=f"NI {ni} out of range"):
        simulate(MESH, layout, VC, trace, plan, cs_all=(fabric == "cs_all"))


@pytest.mark.parametrize("cs_all", [False, True])
def test_per_packet_figures_are_worked_out_once_per_pair_and_class(monkeypatch, cs_all):
    # a packet's routers, hops, latency, path and flit count come from
    # tables filled on first use, its pair's from one walk of a route row,
    # and circuit packets make no _Flit
    trace = generate(SyntheticSpec("uniform_random", 0.3), MESH, 1, 1500)
    calls = collections.Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    geometry = Simulation._geometry

    def walked(sim, pair):
        calls[sim.mesh] += 1  # the lone-life runs walk meshes of their own
        return geometry(sim, pair)

    for name in ("flits_for_packet", "unloaded_latency"):
        monkeypatch.setattr(simcore, name, counted(name, getattr(simcore, name)))
    monkeypatch.setattr(Simulation, "_geometry", walked)
    monkeypatch.setattr(topology, "xy_route", no_xy_route)
    if cs_all:
        monkeypatch.setattr(simcore, "_Flit", None)
    stats = simulate(MESH, FULL, VC, trace, cs_all=cs_all)
    pairs = {(ev.src, ev.dst) for ev in trace}
    assert stats.packets_seen == len(trace) > 3 * len(pairs)
    assert calls[MESH] == len(pairs)
    assert calls["flits_for_packet"] == len({ev.klass for ev in trace}) == 2
    assert calls["unloaded_latency"] <= 2 * len(pairs)


def test_never_idle_run_holds_ejections_at_most_the_settle_bound():
    # at 0.2 packets per NI per cycle the VC subnet is busy in every cycle,
    # so between the cuts only the settle bound retires ejected flits
    trace = generate(SyntheticSpec("uniform_random", 0.2), MESH, 3, 1500)
    sim = Simulation(MESH, FULL, VC, trace, None, 0)
    settles = []
    settle = sim._settle

    def spy(end):
        held = [key // 2 for key in sim.eject_ev]
        settles.append((end, min(held, default=end), max(held, default=end)))
        settle(end)

    sim._settle = spy
    cuts = (700, 1500)
    for cut in cuts:
        sim.run_until(cut)
        held = [key // 2 for key in sim.eject_ev]
        assert min(held) >= cut and max(held) - min(held) < _SETTLE_CYCLES + 2
    for end, oldest, newest in settles:
        assert end - oldest <= _SETTLE_CYCLES
        assert newest - oldest < _SETTLE_CYCLES + 2
    bound = [end for end, _, _ in settles if end not in cuts]
    assert len(bound) >= 4
    assert sim.finalize().flits_ejected > 0


def test_short_jumps_settle_once_per_settle_bound():
    # one control packet every 40 cycles crosses the mesh in at most 34, so
    # the clock jumps before almost every packet, far more often than once
    # per settle bound; retirement waits for the bound or a _drive return
    ctrl = PacketClass("control", 64)
    trace = [TrafficEvent(40 * i, i % 16, (7 * i + 3) % 16, ctrl, i) for i in range(200)]
    sim = Simulation(MESH, FULL, VC, trace, None, 0)
    ends = []
    settle = sim._settle

    def spy(end):
        ends.append(end)
        settle(end)

    sim._settle = spy
    returns = set()  # the settle, if any, of each _drive return
    for run in (lambda: sim.run_until(3001), lambda: sim.run_until(5000),
                sim.run_to_completion):
        run()
        if ends and ends[-1] == sim.cycle:
            returns.add(len(ends) - 1)
    assert len(ends) <= sim.cycle // _SETTLE_CYCLES + 3
    for i, end in enumerate(ends):
        if i not in returns:
            assert end - (ends[i - 1] if i else 0) >= _SETTLE_CYCLES
    assert len(trace) > 5 * len(ends)
    assert sim.finalize().flits_ejected == len(trace)


def test_packets_a_million_cycles_apart_keep_the_vc_contract():
    ctrl = PacketClass("control", 128)
    trace = [TrafficEvent(0, 0, 15, ctrl, 0), TrafficEvent(1_000_000, 0, 15, ctrl, 1)]
    stats = simulate(MESH, FULL, VC, trace, record_flits=True)
    hops = MESH.hop_distance(0, 15)
    assert [r.eject_cycle - r.inject_cycle for r in stats.flit_records] == [5 * hops + 4] * 2
    assert stats.cycles_simulated == 1_000_000 + 5 * hops + 4 + 1


def test_packets_past_ten_million_cycles_drain():
    # the default drain limit counts from the last injection, not cycle 0
    ctrl = PacketClass("control", 128)
    trace = [TrafficEvent(0, 0, 15, ctrl, 0), TrafficEvent(11_000_000, 0, 15, ctrl, 1)]
    stats = simulate(MESH, FULL, VC, trace)
    hops = MESH.hop_distance(0, 15)
    assert stats.packets_seen == 2
    assert stats.cycles_simulated == 11_000_000 + 5 * hops + 4 + 1


def test_cs_all_timing():
    mesh2 = MeshConfig.grid(2, 2, 2)
    stats = simulate(
        mesh2, FULL, VC, one_packet(1, PacketClass("control", 128)),
        cs_all=True, record_flits=True,
    )
    assert stats.flit_records[0].eject_cycle == 1  # same router, 2*0+1
    stats = simulate(
        MESH, FULL, VC, one_packet(5, PacketClass("control", 128)),
        cs_all=True, record_flits=True,
    )
    assert stats.flit_records[0].eject_cycle == 5  # 2 hops


def test_cs_all_holds_the_whole_path():
    # 0->2 holds links (0,1) and (1,2) and NI 2's ejection port until its
    # tail ejects at cycle 9; 1->2 needs (1,2) and that port, so its one
    # flit enters in that very cycle and ejects 2*1 + 1 cycles later
    trace = [
        TrafficEvent(0, 0, 2, PacketClass("data", 640), 0),
        TrafficEvent(0, 1, 2, PacketClass("control", 128), 1),
    ]
    stats = simulate(MESH, FULL, VC, trace, cs_all=True, record_flits=True)
    first_tail = max(r.eject_cycle for r in stats.flit_records if r.packet_id == 0)
    second = [r for r in stats.flit_records if r.packet_id == 1]
    assert first_tail == 9
    assert [(r.inject_cycle, r.eject_cycle) for r in second] == [(9, 12)]
    assert stats.in_circuit_flits == stats.flits_ejected


def test_validation_errors(tmp_path):
    with pytest.raises(ConfigError):
        SubnetLayout(128, 3)  # does not divide
    with pytest.raises(ConfigError):
        SubnetLayout(128, 0)
    with pytest.raises(ConfigError, match="link width must be positive"):
        SubnetLayout(total_width_bits=0)
    # a layout offers at most as many circuit subnets as a plan file names
    assert SubnetLayout(1025, 1025).cs_subnet_count == 1024
    with pytest.raises(ConfigError, match="subnet_count must be at most 1025"):
        SubnetLayout(1026, 1026)
    # the engine has a fixed 4-stage pipeline and single-cycle links, so the
    # config loader knows no key for either; a typo is rejected the same way
    for section, line in (("vc", "pipeline_stages = 5"), ("vc", "link_cycles = 2"),
                          ("traffic", "cycels = 2000")):
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[experiment]\nmode = static_hybrid\n[{section}]\n{line}\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(str(ini))
    with pytest.raises(ConfigError):
        VcConfig(vnets=0)
    with pytest.raises(ConfigError, match="buffers must hold at least one flit"):
        VcConfig(buffer_depth_flits=0)
    trace = [
        TrafficEvent(5, 0, 1, PacketClass("control", 64), 0),
        TrafficEvent(2, 0, 1, PacketClass("control", 64), 1),
    ]
    with pytest.raises(ConfigError):
        Simulation(MESH, HALF, VC, trace, None, 0)
    with pytest.raises(ConfigError):
        Simulation(MESH, HALF, VC, [], None, 0, cs_all=True)  # needs one subnet
    with pytest.raises(ConfigError):
        Simulation(MESH, FULL, VC, [], e2e_plan(MESH, (0, 1)), 0, cs_all=True)
    with pytest.raises(ConfigError):
        # its NIs queue on circuits that a plan activation would replace
        Simulation(MESH, FULL, VC, [], None, 0, cs_all=True).schedule_plan(
            CircuitPlan.empty(0, "e2e"), 10)
    with pytest.raises(ConfigError):
        # plan asks for a CS subnet the layout does not have
        Simulation(MESH, FULL, VC, [], e2e_plan(MESH, (0, 1)), 0)
    bad_ni = [TrafficEvent(0, 0, 99, PacketClass("control", 64), 0)]
    with pytest.raises(ConfigError):
        simulate(MESH, HALF, VC, bad_ni)


def test_simulation_determinism():
    trace = generate(SyntheticSpec("uniform_random", 0.05), MESH, 13, 600)
    plan = e2e_plan(MESH, (0, 5), (3, 12))
    a = simulate(MESH, HALF, VC, trace, plan, seed=2)
    b = simulate(MESH, HALF, VC, trace, plan, seed=2)
    assert a == b


def test_occupancy_stays_within_depth():
    trace = generate(SyntheticSpec("uniform_random", 0.2), MESH, 3, 1500)
    stats = simulate(MESH, FULL, VC, trace, cycles_limit=1500)
    assert 0 < stats.max_vc_occupancy <= VC.buffer_depth_flits


def blocked_vc_train(extra_credits):
    """vc_train's packet 0 -> 2, which router 2 never takes from router 1,
    so it piles up in a 4-flit VC of router 1, whose upstream router 0
    holds extra_credits more credits for it than it has slots."""
    sim = vc_train()

    def facing(r, toward):
        return next(p for p, far in enumerate(sim.peer[r]) if far and far[0] == toward)

    for ivc in sim.invc[1][facing(1, 0)]:
        ivc.credit += extra_credits
    for ivc in sim.invc[2][facing(2, 1)]:
        ivc.credit = 0
    return sim


def test_credits_beyond_the_buffer_depth_overflow_it():
    sim = blocked_vc_train(0)
    sim.run_until(200)
    assert sim.finalize().max_vc_occupancy == VC.buffer_depth_flits
    # the fifth flit finds the VC full
    with pytest.raises(SimulationError, match="VC buffer overflow; credit accounting broke"):
        blocked_vc_train(1).run_until(200)


def test_flit_order_check_catches_a_tampered_ledger():
    # each flit is checked against its packet's next flit as it retires: a
    # stepped VC packet's flit by flit, a circuit packet's unretired flits
    # as one ledger record
    data = PacketClass("data", 640)
    trace = [TrafficEvent(0, 0, 3, data, 0)]
    sim = Simulation(MESH, HALF, VC, trace, None, 0)
    sim.run_until(5)  # too short a run to replay the packet, so it steps
    pkt = sim.ni_cur[0][0]
    assert pkt.next_out == 0
    pkt.next_out = 1
    with pytest.raises(SimulationError, match="packet 0 flit 0 ejected out of order"):
        sim.run_to_completion()
    sim = Simulation(MESH, HALF, VC, trace, e2e_plan(MESH, (0, 3)), 0)
    sim.run_until(10)
    [(pkt, i)] = [r for key, records in sim.eject_ev.items() if key & 1 for r in records]
    assert 0 < i < pkt.n_flits
    pkt.next_out = i + 1
    with pytest.raises(SimulationError, match=f"packet 0 flit {i} ejected out of order"):
        sim.run_to_completion()


def test_conservation_check_catches_a_tampered_counter():
    trace = generate(SyntheticSpec("uniform_random", 0.1), MESH, 5, 100)
    sim = Simulation(MESH, HALF, VC, trace, None, 0)
    sim.run_until(50)
    sim.stats.flits_injected += 1
    with pytest.raises(SimulationError, match="conservation broke: carried in 0, injected"):
        sim.finalize()


def test_cycles_limit_reports_in_flight():
    trace = generate(SyntheticSpec("uniform_random", 0.1), MESH, 5, 400)
    stats = simulate(MESH, FULL, VC, trace, cycles_limit=60)
    assert stats.cycles_simulated == 60
    assert stats.flits_injected == stats.flits_ejected + stats.in_flight
    drained = simulate(MESH, FULL, VC, trace)
    assert drained.in_flight == 0
    assert drained.flits_injected == drained.flits_ejected


# set for the whole run, so every window repeats the run's value
PER_RUN_FIELDS = {"subnet_count", "n_routers", "subnet_widths",
                  "active_buffers_per_cycle", "gated_buffers_per_cycle"}


def sum_windows(values):
    """Add one counter over windows: ints add, dicts add per key, lists of
    per-subnet counts add per index, and flit records concatenate."""
    first = values[0]
    if isinstance(first, int):
        return sum(values)
    if isinstance(first, dict):
        keys = set().union(*values)
        return {k: sum_windows([v[k] for v in values if k in v]) for k in keys}
    if all(isinstance(x, int) for v in values for x in v):
        return [sum(col) for col in zip(*values)]
    return [x for v in values for x in v]


def test_finalize_windows_add_up_to_one_run():
    trace = generate(SyntheticSpec("uniform_random", 0.06), MESH, 9, 800)
    plan = e2e_plan(MESH, (0, 5), (3, 12), (9, 2))
    whole = simulate(MESH, HALF, VC, trace, plan, seed=4, warmup_cycles=50,
                     record_flits=True)
    sim = Simulation(MESH, HALF, VC, trace, plan, 4, warmup_cycles=50,
                     record_flits=True)
    windows = []
    for end in (300, 550):
        sim.run_until(end)
        windows.append(sim.finalize())
    sim.run_to_completion()
    windows.append(sim.finalize())

    assert all(w.in_flight > 0 for w in windows[:-1])  # windows cut mid-flight
    assert [w.cycles_simulated for w in windows[:2]] == [300, 250]
    assert_windows_add_up(windows, whole)


def assert_windows_add_up(windows, whole):
    """The conservation chain holds across windows, and their counters add
    up to those of the uncut run."""
    carried = 0
    for w in windows:
        assert carried + w.flits_injected == w.flits_ejected + w.in_flight
        carried = w.in_flight
    for f in dataclasses.fields(SimStats):
        got = [getattr(w, f.name) for w in windows]
        want = getattr(whole, f.name)
        if f.name in PER_RUN_FIELDS:
            assert all(g == want for g in got), f.name
        elif f.name == "max_vc_occupancy":
            assert max(got) == want
        elif f.name == "in_flight":
            assert got[-1] == want == 0
        else:
            assert sum_windows(got) == want, f.name


@st.composite
def cut_runs(draw):
    """A random mesh, trace, fabric and plan, and cycles to cut the run at.

    Bursts of packets are separated by idle gaps; some cuts fall in the
    middle of a gap, where the clock skips idle cycles."""
    width = draw(st.integers(1, 4))
    height = draw(st.integers(1, 4))
    nis = draw(st.lists(st.integers(1, 2), min_size=width * height,
                        max_size=width * height))
    mesh = MeshConfig(width, height, tuple(nis))
    assume(mesh.n_nis >= 2)
    k = draw(st.sampled_from([1, 2, 4]))
    fabric = draw(st.sampled_from(["vc", "cs_all"] if k == 1 else ["e2e", "r2r"]))
    trace = []
    idle = []
    cycle = 0
    for burst in range(draw(st.integers(1, 3))):
        if burst:
            gap = draw(st.integers(400, 5000))
            idle.append(cycle + gap // 2)
            cycle += gap
        for _ in range(draw(st.integers(1, 30))):
            cycle += draw(st.sampled_from([0, 0, 1, 3]))
            src = draw(st.integers(0, mesh.n_nis - 1))
            dst = draw(st.integers(0, mesh.n_nis - 2))
            kind, bits = draw(st.sampled_from(
                [("control", 64), ("control", 128), ("data", 640)]))
            trace.append(TrafficEvent(cycle, src, dst + (dst >= src),
                                      PacketClass(kind, bits), len(trace)))
    layout = SubnetLayout(128, k)
    plan = None
    if fabric in ("e2e", "r2r"):
        prof = profile(trace, mesh, profile_granularity_for(fabric),
                       layout.subnet_width_bits)
        plan = greedy_allocate(prof, mesh, layout.cs_subnet_count, fabric)
    anywhere = st.integers(1, cycle + 200)
    cuts = draw(st.lists(st.sampled_from(idle) | anywhere if idle else anywhere,
                         max_size=4, unique=True))
    kwargs = dict(seed=draw(st.integers(0, 3)), warmup_cycles=draw(st.integers(0, 50)),
                  record_flits=True, cs_all=fabric == "cs_all")
    return mesh, layout, trace, plan, sorted(cuts), kwargs


@settings(max_examples=60)
@given(cut_runs())
def test_windows_at_random_cuts_add_up_to_one_run(case):
    mesh, layout, trace, plan, cuts, kwargs = case
    whole = simulate(mesh, layout, VC, trace, plan, **kwargs)
    # determinism: the same inputs and seed give the same stats
    assert dataclasses.asdict(simulate(mesh, layout, VC, trace, plan, **kwargs)) == \
        dataclasses.asdict(whole)
    # past the cycle the uncut run drains at, a cut would add idle cycles
    cuts = [cut for cut in cuts if cut <= whole.cycles_simulated]
    seed = kwargs.pop("seed")
    sim = Simulation(mesh, layout, VC, trace, plan, seed, **kwargs)
    windows = []
    for cut in cuts:
        sim.run_until(cut)
        windows.append(sim.finalize())
    sim.run_to_completion()
    windows.append(sim.finalize())
    assert [w.cycles_simulated for w in windows[:-1]] == \
        [b - a for a, b in zip([0] + cuts, cuts)]
    assert_windows_add_up(windows, whole)


def test_window_max_occupancy_is_its_own():
    # a heavy burst fills VC buffers; a lone control packet long after it
    # never queues behind anything, so its window peaks at one flit
    burst = generate(SyntheticSpec("uniform_random", 0.3), MESH, 3, 200)
    lone = TrafficEvent(3000, 0, 15, PacketClass("control", 128), len(burst))
    sim = Simulation(MESH, FULL, VC, burst + [lone], None, 0)
    sim.run_until(3000)
    first = sim.finalize()
    sim.run_to_completion()
    second = sim.finalize()
    assert first.in_flight == 0
    assert first.max_vc_occupancy == VC.buffer_depth_flits
    assert second.flits_ejected == 1
    assert second.max_vc_occupancy == 1


def test_warmup_excludes_early_packets():
    trace = [
        TrafficEvent(0, 0, 3, PacketClass("control", 128), 0),
        TrafficEvent(50, 0, 3, PacketClass("control", 128), 1),
    ]
    stats = simulate(MESH, FULL, VC, trace, warmup_cycles=10)
    assert stats.flits_ejected == 2
    assert stats.measured_flits() == 1  # only the post-warmup packet counts
    assert stats.mean_latency() == 19.0


def test_p99_matches_recorded_latencies():
    trace = generate(SyntheticSpec("uniform_random", 0.05), MESH, 27, 1200)
    stats = simulate(MESH, FULL, VC, trace, record_flits=True)
    # records carry the network-entry cycle; measure from packet creation
    created = {ev.packet_id: ev.inject_cycle for ev in trace}
    lats = sorted(r.eject_cycle - created[r.packet_id] for r in stats.flit_records)
    # smallest latency whose cumulative count covers 99% of the flits
    expect = lats[math.ceil(0.99 * len(lats)) - 1]
    assert stats.p99_latency() == expect
    assert stats.p99_latency() >= stats.mean_latency() * 0.5


def test_flit_records_are_causal():
    trace = generate(SyntheticSpec("uniform_random", 0.08), MESH, 31, 500)
    plan = e2e_plan(MESH, (0, 5))
    stats = simulate(MESH, HALF, VC, trace, plan, record_flits=True)
    assert len(stats.flit_records) == stats.flits_ejected
    for r in stats.flit_records:
        assert r.eject_cycle > r.inject_cycle
        assert r.hops >= 0


def sweep_config(layout, pattern, seed=0, cycles=None, granularity="e2e", regularity=0.0):
    """A sweep's base config: pattern traffic on MESH, at a rate each point replaces."""
    return ExperimentConfig(
        MESH, layout, VC, "baseline_vc", granularity=granularity,
        traffic_spec=SyntheticSpec(pattern, 0.0, regularity=regularity),
        traffic_cycles=cycles, seed=seed,
    )


def test_sweep_validation_and_low_rate_behavior():
    with pytest.raises(ConfigError):
        sweep_injection(sweep_config(FULL, "uniform_random"), [0.2, 0.1])
    with pytest.raises(ConfigError):
        sweep_injection(sweep_config(FULL, "uniform_random"), [0.1], fabric="optical")
    with pytest.raises(ConfigError, match="takes no trace"):
        traced = dataclasses.replace(sweep_config(FULL, "uniform_random"),
                                     traffic_spec=None, trace_path="never-read.trace")
        sweep_injection(traced, [0.1], fabric="vc")
    points = sweep_injection(
        sweep_config(FULL, "uniform_random", seed=1, cycles=3000), [0.02, 0.05], fabric="vc",
    )
    assert [p.rate for p in points] == [0.02, 0.05]
    low = points[0]
    assert not low.saturated
    assert low.mean_latency < 1.5 * low.unloaded_mean
    assert low.in_circuit_fraction == 0.0


def test_sweep_cs_fabric_runs_full_width_circuits():
    points = sweep_injection(
        sweep_config(HALF, "uniform_random", seed=1, cycles=2000), [0.02], fabric="cs"
    )
    assert points[0].in_circuit_fraction == 1.0
    assert points[0].flits_ejected > 0


@pytest.mark.parametrize("granularity", ["e2e", "r2r"])
def test_sweep_hybrid_fabric_plans_circuits(granularity):
    with pytest.raises(ConfigError):
        sweep_injection(sweep_config(FULL, "regular_mix"), [0.02], fabric="hybrid")
    config = sweep_config(SubnetLayout(128, 4), "regular_mix", seed=1, cycles=2000,
                          granularity=granularity, regularity=0.9)
    points = sweep_injection(config, [0.02, 0.05], fabric="hybrid")
    assert all(p.in_circuit_fraction > 0 for p in points)


# --- lone VC packets, replayed at intake --------------------------------------

CTRL = PacketClass("control", 64)
DATA = PacketClass("data", 640)
# the cycle, from its intake, that the tail of a lone DATA packet over 6 hops
# ejects on a subnet of HALF: 10 flits of 64 bits
LAST = simcore._lone_life(6, 10, VC.buffer_depth_flits)[0][-1][1]


def stepping(sim):
    """sim with the replay turned off, so that every VC packet steps."""
    sim._replay = lambda pkt: False
    return sim


def decisions(sim):
    """The list that a spy on sim's replay fills, one entry per call."""
    made = []
    replay = sim._replay

    def spy(pkt):
        made.append(replay(pkt))
        return made[-1]

    sim._replay = spy
    return made


def run_windows(sim, cuts):
    """Run sim to each cut, then drain it, closing a window each time; per
    window, its stats, pair counts, clock and every router's SA pointers."""
    out = []
    for cut in list(cuts) + [None]:
        sim.run_to_completion() if cut is None else sim.run_until(cut)
        pairs = sim.take_pair_counts()
        out.append((dataclasses.asdict(sim.finalize()), pairs, sim.cycle,
                    [list(router[0][0].rr) for router in sim.invc]))
    return out


def test_lone_packets_are_replayed_without_switch_allocation():
    # 24 packets 60 cycles apart, longer than any life on the 4x4 mesh
    trace = [TrafficEvent(60 * i, 5 * i % 16, (5 * i + 3 + i % 7) % 16, (CTRL, DATA)[i % 2], i)
             for i in range(24)]
    sim = Simulation(MESH, FULL, VC, trace, None, 3, record_flits=True)
    made = decisions(sim)

    def phase_sa(c):
        raise AssertionError(f"a lone packet bid for the switch in cycle {c}")

    sim._phase_sa = phase_sa
    stepped = stepping(Simulation(MESH, FULL, VC, trace, None, 3, record_flits=True))
    assert run_windows(sim, [700]) == run_windows(stepped, [700])
    assert made == [True] * len(trace)


def test_packets_on_routers_apart_replay_side_by_side():
    # the four rows of the 4x4 mesh share no router: two packets start
    # together on rows 0 and 3, two more on rows 1 and 2 while both are in
    # flight, and none steps
    trace = [TrafficEvent(0, 0, 3, DATA, 0), TrafficEvent(0, 12, 15, DATA, 1),
             TrafficEvent(4, 4, 7, CTRL, 2), TrafficEvent(9, 8, 11, DATA, 3)]
    sim = Simulation(MESH, HALF, VC, trace, None, 1, record_flits=True)
    made = decisions(sim)

    def phase_sa(c):
        raise AssertionError(f"a replayed packet bid for the switch in cycle {c}")

    sim._phase_sa = phase_sa
    stepped = stepping(Simulation(MESH, HALF, VC, trace, None, 1, record_flits=True))
    assert run_windows(sim, [150]) == run_windows(stepped, [150])
    assert made == [True] * 4


def test_packets_crossing_a_router_on_other_ports_replay_side_by_side():
    # NI 0 -> 3 runs along row 0 and NI 1 -> 13 down column 1: both cross
    # router 1, the first from its west to its east port, the second from
    # NI 1's port to its south port, so they share no port and neither steps
    trace = [TrafficEvent(0, 0, 3, DATA, 0), TrafficEvent(0, 1, 13, DATA, 1)]
    sim = Simulation(MESH, HALF, VC, trace, None, 1, record_flits=True)
    made = decisions(sim)

    def phase_sa(c):
        raise AssertionError(f"a replayed packet bid for the switch in cycle {c}")

    sim._phase_sa = phase_sa
    stepped = stepping(Simulation(MESH, HALF, VC, trace, None, 1, record_flits=True))
    assert run_windows(sim, [150]) == run_windows(stepped, [150])
    assert made == [True, True]


@pytest.mark.parametrize("later, activation, cuts, tamper, made", [
    ([TrafficEvent(20, 5, 6, CTRL, 1)], None, [], False, [True, True]),
    ([TrafficEvent(20, 2, 6, CTRL, 1)], None, [], False, [True, True]),
    ([TrafficEvent(20, 14, 15, CTRL, 1)], None, [], False, [False, False]),
    ([TrafficEvent(20, 1, 3, CTRL, 1)], None, [], False, [False, False]),
    ([TrafficEvent(LAST, 5, 6, CTRL, 1)], None, [], False, [True, True]),
    ([TrafficEvent(20, 1, 2, CTRL, 1)], None, [], False, [True]),
    ([TrafficEvent(LAST - 3, 11, 15, CTRL, 1)], None, [], False, [False, False]),
    ([TrafficEvent(LAST - 1, 11, 15, CTRL, 1)], None, [], False, [False, True]),
    ([TrafficEvent(LAST - 1, 11, 15, DATA, 1)], None, [], False, [False, False]),
    ([TrafficEvent(LAST - 3, 11, 15, CTRL, 1)], 10, [], False, [False, False]),
    ([TrafficEvent(LAST - 1, 11, 15, CTRL, 1)], 10, [], False, [False, True]),
    ([], 10, [], False, [False]),
    ([], LAST, [], False, [True]),
    ([], None, [LAST], False, [False]),
    ([], None, [LAST + 1], False, [True]),
    ([], None, [], True, [False]),
], ids=["vc-intake-off-path", "vc-intake-on-path", "ejection-port-only", "input-port-shared",
        "vc-intake-at-last", "circuit-intake-inside",
        "tail-in-a-router", "credit-due-off-path", "credit-due-on-path",
        "stepped-tail-in-a-router", "stepped-tail-ejected", "plan-inside", "plan-at-last",
        "cut-at-last", "cut-past-last", "credits"])
def test_replay_declines_what_may_meet_the_packet(later, activation, cuts, tamper, made):
    # a DATA packet NI 0 -> 15 at cycle 0 over routers 0, 1, 2, 3, 7, 11, 15,
    # with a circuit NI 1 -> 2 installed; a VC packet that comes in before its
    # last cycle over one of its ports, or a plan or cut before then, makes
    # it step, and each run matches one where every packet steps.  A packet
    # on routers 5 and 6 replays beside it, and so does NI 2 -> 6, which
    # crosses router 2 on ports the first does not use.  NI 14 -> 15 shares
    # only the ejection port to NI 15, and NI 1 -> 3 enters router 2 by the
    # first's west port: both step, as the first then steps too.  Stepped,
    # its tail waits alone in router 15 in cycle LAST - 3, which makes a
    # packet into router 15 by its north port step even when a plan, not
    # that packet, made the first one step; in LAST - 1 it has left but
    # router 11 still waits for credits of its VC of vnet 1, the vnet of
    # DATA (CTRL takes vnet 0)
    trace = [TrafficEvent(0, 0, 15, DATA, 0)] + later

    def run(sim):
        if activation is not None:
            sim.schedule_plan(e2e_plan(MESH, (1, 2), (5, 6)), activation)
        if tamper:  # upstream router 0 holds one credit less for router 1's VCs
            port = next(p for p, far in enumerate(sim.peer[1]) if far and far[0] == 0)
            for ivc in sim.invc[1][port]:
                ivc.credit -= 1
        return run_windows(sim, cuts)

    sim = Simulation(MESH, HALF, VC, trace, e2e_plan(MESH, (1, 2)), 2, record_flits=True)
    seen = decisions(sim)
    assert run(sim) == run(stepping(Simulation(MESH, HALF, VC, trace, e2e_plan(MESH, (1, 2)),
                                               2, record_flits=True)))
    assert seen == made


def assert_lives_as_on_a_line(mesh, layout, vcc, event, seed):
    """event's packet, stepped alone on mesh, has the schedule and counts
    _lone_life measures on a line of the same length with one VC per port
    of vcc's buffer depth."""
    sim = stepping(Simulation(mesh, layout, vcc, [event], None, seed, record_flits=True))
    sim.run_to_completion()
    stats = sim.finalize()
    hops = mesh.hop_distance(mesh.router_of_ni(event.src), mesh.router_of_ni(event.dst))
    flits, life = simcore._lone_life(hops, len(stats.flit_records), vcc.buffer_depth_flits)
    start = event.inject_cycle
    assert [(r.inject_cycle - start, r.eject_cycle - start) for r in stats.flit_records] == \
        list(flits)

    def counts(s):
        return (s.flits_injected, s.sw_allocations, s.vc_allocations, s.buffer_writes[0],
                s.link_traversals[0], s.max_vc_occupancy)

    assert counts(stats) == counts(life)


@settings(max_examples=200)
@given(st.integers(1, 5), st.integers(1, 5), st.data())
def test_a_lone_packet_lives_as_on_a_line(width, height, data):
    nis = data.draw(st.lists(st.integers(1, 3), min_size=width * height,
                             max_size=width * height))
    mesh = MeshConfig(width, height, tuple(nis))
    assume(mesh.n_nis > 1)
    src, dst = data.draw(st.permutations(range(mesh.n_nis)))[:2]
    klass = PacketClass(*data.draw(st.sampled_from(
        [("control", 64), ("control", 128), ("data", 640), ("data", 1280)])))
    vcc = VcConfig(*data.draw(st.tuples(st.integers(1, 3), st.integers(1, 4),
                                        st.integers(1, 8))))
    layout = data.draw(st.sampled_from([FULL, HALF, SubnetLayout(128, 4)]))
    event = TrafficEvent(data.draw(st.integers(0, 500)), src, dst, klass, 0)
    assert_lives_as_on_a_line(mesh, layout, vcc, event, data.draw(st.integers(0, 7)))


@pytest.mark.parametrize("mesh, vcc, cuts", [
    (MeshConfig.grid(20, 15), VcConfig(2, 2, 2), []),
    (MeshConfig.grid(32, 32), VC, [1000]),
], ids=["33-hops", "62-hops"])
def test_a_lone_packet_as_long_as_a_mesh_side_replays(mesh, vcc, cuts):
    # corner to corner: no mesh is a line of 34 or 63 routers, so _lone_life
    # measures these lives on the smallest mesh whose corners lie that far
    # apart; the 62-hop packet is the longest any mesh has
    trace = [TrafficEvent(7, 0, mesh.n_nis - 1, DATA, 0)]
    sim = Simulation(mesh, HALF, vcc, trace, None, 1, record_flits=True)
    made = decisions(sim)
    stepped = stepping(Simulation(mesh, HALF, vcc, trace, None, 1, record_flits=True))
    assert run_windows(sim, cuts) == run_windows(stepped, cuts)
    assert made == [True]


def test_a_lone_life_is_measured_whatever_the_drain_limit(monkeypatch):
    # the measuring run drains within a limit of its own, so a small
    # _DRAIN_CYCLES, as a drain-limit test may set, neither fails it nor
    # makes the outcome depend on which lives are already cached
    monkeypatch.setattr(simcore, "_DRAIN_CYCLES", 20)
    simcore._lone_life.cache_clear()
    trace = [TrafficEvent(0, 0, 15, PacketClass("data", 320), 0)]  # 5 flits on HALF
    sim = Simulation(MESH, HALF, VC, trace, None, 0)
    made = decisions(sim)
    sim.run_until(200)
    assert made == [True]
    assert sim.finalize().flits_ejected == 5


@pytest.mark.parametrize("n_flits", [1, 5, 40])
def test_the_lone_life_limit_holds_with_margin(n_flits):
    # with one-flit buffers each hop waits a credit round trip, the slowest
    # a lone packet goes; over 62 hops, the longest route on any mesh, the
    # life takes under half the measuring run's limit
    hops = 62
    flits, _ = simcore._lone_life(hops, n_flits, 1)
    assert 2 * flits[-1][1] < 8 * (hops + 1) * (n_flits + 4)


def test_routes_are_built_per_destination_on_first_use(monkeypatch):
    # building a Simulation routes nothing but its plan's circuits, which it
    # checks against this mesh's X-Y routes; a run routes toward each NI its
    # traffic heads for, once, from every other router, on the all-circuit
    # fabric too
    plan = e2e_plan(MESH, (0, 5))
    calls = collections.Counter()
    xy_next = MeshConfig.xy_next

    def counted(mesh, router, dst_router):
        calls[mesh] += 1
        return xy_next(mesh, router, dst_router)

    monkeypatch.setattr(MeshConfig, "xy_next", counted)
    monkeypatch.setattr(topology, "xy_route", no_xy_route)
    Simulation(MeshConfig.grid(32, 32), HALF, VC, [], None, 0)
    assert not calls
    trace = generate(SyntheticSpec("uniform_random", 0.05), MESH, 2, 400)
    sim = Simulation(MESH, HALF, VC, trace, plan, 0)
    assert calls[MESH] == plan.subnets[0][0].path.hops == 2
    calls.clear()
    sim.run_to_completion()
    dsts = {ev.dst for ev in trace}
    assert len(dsts) > 1
    assert calls[MESH] == (MESH.n_routers - 1) * len(dsts)
    calls.clear()
    sim = Simulation(MESH, FULL, VC, trace, None, 0, cs_all=True)
    assert not calls
    sim.run_to_completion()
    assert calls[MESH] == (MESH.n_routers - 1) * len(dsts)
