"""Differential test: the engine against the frozen copy in bench/baseline.

Whatever the engine does faster, a whole run must still produce the same
SimStats, flit records included, as the frozen copy on the same inputs.
Two kinds of scenario: bursts between a few routers, and hot spots where
NIs all over the mesh send to one or two NIs in the same few cycles, so
inputs from every direction contend for one output port and the switch
allocator's round-robin ring decides who goes first.  On the all-circuit
fabric, hot spots make packets wait for paths that end at the same
ejection port, so the cycle a path is free again decides when each
packet goes.  Re-plan scenarios activate a second plan while packets
still queue on the first plan's circuits, so those packets go again by
the new plan, over a new circuit or over the VC subnet.  Train scenarios
send back-to-back data packets over a few circuits with sparse VC traffic
around them, and cut the run or change the plan while a train is on its
wires, where the engine settles circuit flits of cycles it never steps.
Saturation scenarios keep the VC subnet busy in every cycle for at least
twice the engine's settle bound, with VC and circuit flits ejecting in the
same cycles, and cut the run inside that stretch, where ejections are
retired only on that bound.  On the all-circuit fabric, saturation keeps
packets queued at their NIs for many cycles, where the clock jumps between
the cycles a path frees, and the cut falls while they queue.  Gapped
scenarios put idle gaps shorter and longer than the settle bound between
bursts, so ejections wait in the ledger across jumps of both kinds, and
cut the run inside a gap and inside a burst.

Lone-packet scenarios send VC packets far enough apart that most are
alone in the network, which the engine replays at intake instead of
stepping them, with circuit packets coming in inside their lives, then a
contended burst through the same routers, where the switch allocator's
pointers that the replays moved decide who goes first; runs are cut inside
a replayed life, in the warm-up and at an epoch boundary, where a new plan
activates.  Concurrent-lives scenarios run VC streams on two or three rows
of a 4x4 mesh at once, which replay side by side, each packet alone on its
ports, with packets crossing between the rows past replayed lives and
stepped packets; VC flits of different routers eject in one cycle, and
flit records hold their order.  Crossing-lives scenarios run streams along
rows and columns at once, which meet at routers on disjoint ports and
replay there side by side, with packets turning from a row onto a column
over ports of both.  All three kinds end with no stepped packet still
counted on any port.

Burst, hot-spot and saturation scenarios draw 1-4 NIs per router, as on
the 51-NI CMP; they and the concurrent-lives scenarios draw the VC
organization (vnets, VCs per vnet, buffer depth), down to one VC of one
slot, so NIs and heads often wait for a free VC or a free buffer slot.
"""

import dataclasses
import random

from hypothesis import assume, given, settings, strategies as st

import hybridnoc as hn
from frozen_baseline import NO_SHRINK, base
from hybridnoc.simcore import _SETTLE_CYCLES

# every figure the frozen copy's SimStats stores; the engine derives some
FIGURES = tuple(f.name for f in dataclasses.fields(base.SimStats))

# VcConfig(vnets, vcs_per_vnet, buffer_depth_flits): the default, and drawn
DEFAULT_VC = (3, 4, 4)
vc_configs = st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 6))


def ni_counts(width, height, most=4):
    """The NI count of each router of a width x height mesh."""
    return st.lists(st.integers(1, most), min_size=width * height, max_size=width * height)


def figures(stats):
    """stats as a dict of FIGURES: its fields as asdict gives them, and
    the figures it derives read under their names."""
    stored = dataclasses.asdict(stats)
    return {name: stored[name] if name in stored else getattr(stats, name)
            for name in FIGURES}


@st.composite
def scenarios(draw):
    width = draw(st.integers(2, 4))
    height = draw(st.integers(2, 4))
    nis = tuple(draw(ni_counts(width, height)))
    k = draw(st.sampled_from([1, 2, 4]))
    fabric = draw(st.sampled_from(["vc", "cs_all"] if k == 1 else ["e2e", "r2r"]))
    mesh = hn.MeshConfig(width, height, nis)
    # bursts of packets separated by gaps of up to thousands of idle
    # cycles; within a burst, packets run between the NIs of two or three
    # routers, mostly several in one cycle, so they contend for VCs and
    # switch ports and NIs sharing a router inject side by side
    packets = []
    cycle = 0
    for _ in range(draw(st.integers(1, 4))):
        cycle += draw(st.integers(0, 4000))
        routers = draw(st.lists(st.integers(0, mesh.n_routers - 1), min_size=2,
                                max_size=3, unique=True))
        ends = [ni for r in routers for ni in mesh.nis_of_router(r)]
        for _ in range(draw(st.integers(1, 60))):
            cycle += draw(st.sampled_from([0, 0, 0, 0, 1]))
            src, dst = draw(st.permutations(ends))[:2]
            kind, bits = draw(st.sampled_from(
                [("control", 64), ("control", 128), ("data", 640)]))
            packets.append((cycle, src, dst, kind, bits))
    cut = draw(st.none() | st.integers(1, cycle + 1))
    seed = draw(st.integers(0, 3))
    return width, height, nis, k, fabric, packets, cut, seed, draw(vc_configs)


@st.composite
def hot_spots(draw):
    width = draw(st.integers(3, 4))
    height = draw(st.integers(3, 4))
    nis = tuple(draw(ni_counts(width, height)))
    k = draw(st.sampled_from([1, 2, 4]))
    fabric = draw(st.sampled_from(["vc", "cs_all"] if k == 1 else ["e2e", "r2r"]))
    mesh = hn.MeshConfig(width, height, nis)
    every_ni = list(range(mesh.n_nis))
    # NIs of routers with a neighbour on all four sides: under X-Y routing,
    # flits for them come in from E, W, N and S and meet at the local port
    inner = [ni for x in range(1, width - 1) for y in range(1, height - 1)
             for ni in mesh.nis_of_router(y * width + x)]
    packets = []
    cycle = 0
    for _ in range(draw(st.integers(1, 2))):
        cycle += draw(st.integers(0, 300))
        hot = draw(st.lists(st.sampled_from(inner), min_size=1, max_size=2,
                            unique=True))
        senders = draw(st.lists(st.sampled_from(every_ni), min_size=len(every_ni) // 2,
                                unique=True))
        for src in senders:
            for _ in range(draw(st.integers(1, 3))):
                dst = draw(st.sampled_from(hot))
                if dst == src:
                    continue
                kind, bits = draw(st.sampled_from(
                    [("control", 64), ("control", 128), ("data", 640)]))
                packets.append((cycle + draw(st.integers(0, 3)), src, dst, kind, bits))
    packets.sort(key=lambda pkt: pkt[0])
    # a cut lands while the last burst still drains
    cut = draw(st.none() | st.integers(cycle + 1, cycle + 60))
    seed = draw(st.integers(0, 3))
    return width, height, nis, k, fabric, packets, cut, seed, draw(vc_configs)


def _inputs(pkg, scenario):
    """The scenario's mesh and trace, built from pkg's own classes."""
    width, height, nis, _, _, packets = scenario[:6]
    mesh = pkg.MeshConfig(width, height, nis)
    trace = [
        pkg.TrafficEvent(cycle, src, dst, pkg.PacketClass(kind, bits), pid)
        for pid, (cycle, src, dst, kind, bits) in enumerate(packets)
    ]
    return mesh, trace


def _run(pkg, scenario, plan):
    _, _, _, k, fabric, _, cut, seed, vc = scenario
    mesh, trace = _inputs(pkg, scenario)
    return pkg.simulate(
        mesh, pkg.SubnetLayout(128, k), pkg.VcConfig(*vc), trace, plan,
        cycles_limit=cut, seed=seed, warmup_cycles=20, record_flits=True,
        cs_all=(fabric == "cs_all"),
    )


def _plan(scenario, hot=None):
    """The greedy plan of scenario's planned fabric from its trace, or from
    the packets of the hot pairs only, if given."""
    k, fabric = scenario[3:5]
    if fabric not in ("e2e", "r2r"):
        return None
    mesh, trace = _inputs(hn, scenario)
    if hot is not None:
        trace = [ev for ev in trace if (ev.src, ev.dst) in hot]
    layout = hn.SubnetLayout(128, k)
    prof = hn.profile(trace, mesh, hn.profile_granularity_for(fabric),
                      layout.subnet_width_bits)
    return hn.greedy_allocate(prof, mesh, layout.cs_subnet_count, fabric)


@settings(max_examples=100, phases=NO_SHRINK)
@given(scenarios() | hot_spots())
def test_simulate_matches_frozen_baseline(scenario):
    plan = _plan(scenario)
    ours = _run(hn, scenario, plan)
    theirs = _run(base, scenario, plan)
    assert figures(ours) == figures(theirs)
    assert (ours.active_buffer_cycles, ours.gated_buffer_cycles) == \
        (theirs.active_buffer_cycles, theirs.gated_buffer_cycle_count)


@st.composite
def replans(draw):
    """A burst scenario on a planned fabric, a second plan and its cycle.

    The second plan is empty or planned from the packets created from its
    activation on; it activates a few cycles after some packet's
    creation, mostly while that burst still queues at its circuits.
    """
    scenario = draw(scenarios().filter(lambda s: s[4] in ("e2e", "r2r")))
    packets = scenario[5]
    activation = draw(st.sampled_from(packets))[0] + draw(st.integers(0, 20))
    return scenario, activation, draw(st.sampled_from(["empty", "later"]))


def _replan(scenario, activation, second):
    k, fabric = scenario[3:5]
    if second == "empty":
        return hn.CircuitPlan.empty(k - 1, fabric)
    mesh, trace = _inputs(hn, scenario)
    layout = hn.SubnetLayout(128, k)
    later = [ev for ev in trace if ev.inject_cycle >= activation]
    prof = hn.profile(later, mesh, hn.profile_granularity_for(fabric),
                      layout.subnet_width_bits)
    return hn.greedy_allocate(prof, mesh, layout.cs_subnet_count, fabric)


def _simulation(pkg, scenario, plan, activation=None, second_plan=None):
    """pkg's Simulation of scenario with plan, and with second_plan, if any,
    scheduled at activation."""
    _, _, _, k, fabric, _, _, seed, vc = scenario
    mesh, trace = _inputs(pkg, scenario)
    sim = pkg.Simulation(mesh, pkg.SubnetLayout(128, k), pkg.VcConfig(*vc), trace,
                         plan, seed, warmup_cycles=20, record_flits=True,
                         cs_all=(fabric == "cs_all"))
    if second_plan is not None:
        sim.schedule_plan(second_plan, activation)
    return sim


def _run_stepped(pkg, scenario, plan, activation=None, second_plan=None):
    """Stats and pair counts of a Simulation run to the cut or to its
    drain, with second_plan, if any, scheduled at activation."""
    sim = _simulation(pkg, scenario, plan, activation, second_plan)
    cut = scenario[6]
    if cut is None:
        sim.run_to_completion()
    else:
        sim.run_until(cut)
    pairs = sim.take_pair_counts()
    return figures(sim.finalize()), pairs


@settings(max_examples=60, phases=NO_SHRINK)
@given(replans())
def test_replanned_run_matches_frozen_baseline(case):
    scenario, activation, second = case
    plans = (_plan(scenario), activation, _replan(scenario, activation, second))
    assert _run_stepped(hn, scenario, *plans) == _run_stepped(base, scenario, *plans)


@st.composite
def trains(draw):
    """Trains of data packets over a few hot pairs' circuits, and a cut.

    Each hot pair gets 2-5 data packets of 10 or 20 flits within two
    cycles, so they queue at its circuit and go one after another, each
    tail ejecting while VC control packets between random NIs come and go
    around them.  The cut, and in most cases the activation of a second
    plan, falls while a train is still on its wires.
    """
    width = draw(st.integers(3, 4))
    height = draw(st.integers(3, 4))
    nis = tuple(draw(ni_counts(width, height, 2)))
    k = draw(st.sampled_from([2, 4]))
    fabric = draw(st.sampled_from(["e2e", "r2r"]))
    mesh = hn.MeshConfig(width, height, nis)
    every_ni = range(mesh.n_nis)
    pairs = st.tuples(st.sampled_from(every_ni), st.sampled_from(every_ni)).filter(
        lambda p: mesh.router_of_ni(p[0]) != mesh.router_of_ni(p[1]))
    hot = draw(st.lists(pairs, min_size=1, max_size=3, unique=True))
    packets = []
    starts = []
    cycle = 0
    for _ in range(draw(st.integers(1, 3))):
        cycle += draw(st.integers(0, 300))
        starts.append(cycle)
        for src, dst in hot:
            for _ in range(draw(st.integers(2, 5))):
                packets.append((cycle + draw(st.integers(0, 2)), src, dst, "data", 640))
        for _ in range(draw(st.integers(1, 6))):
            src, dst = draw(st.permutations(every_ni))[:2]
            packets.append((cycle + draw(st.integers(0, 150)), src, dst, "control", 64))
    packets.sort(key=lambda pkt: pkt[0])
    in_flight = st.sampled_from(starts).flatmap(lambda t: st.integers(t + 1, t + 80))
    cut = draw(in_flight | st.none())
    seed = draw(st.integers(0, 3))
    scenario = (width, height, nis, k, fabric, packets, cut, seed, DEFAULT_VC)
    second = draw(st.sampled_from([None, "empty", "later"]))
    if second is None:
        return scenario, None, None
    return scenario, draw(in_flight), second


@settings(max_examples=60, phases=NO_SHRINK)
@given(trains())
def test_circuit_trains_match_frozen_baseline(case):
    scenario, activation, second = case
    plans = (_plan(scenario),)
    if activation is not None:
        plans += (activation, _replan(scenario, activation, second))
    assert _run_stepped(hn, scenario, *plans) == _run_stepped(base, scenario, *plans)


def test_packets_stranded_by_a_replan_go_over_vc():
    # six data packets NI 0 -> 3 queue on one e2e circuit after the warm-up;
    # the empty plan 15 cycles on sends those not yet on the wire over the
    # VC subnet, and their flits read "vc" and 5h + 4 = 19 cycles unloaded
    packets = [(30, 0, 3, "data", 640)] * 6
    scenario = (4, 4, (1,) * 16, 2, "e2e", packets, None, 0, DEFAULT_VC)
    plans = (_plan(scenario), 45, hn.CircuitPlan.empty(1, "e2e"))
    assert plans[0].circuit_count() == 1
    ours, pairs = _run_stepped(hn, scenario, *plans)
    assert (ours, pairs) == _run_stepped(base, scenario, *plans)
    classes = [r["route_class"] for r in ours["flit_records"]]
    assert set(classes) == {"cs1", "vc"}
    n_vc = classes.count("vc")
    assert ours["unloaded_sum"] == 19 * n_vc + 7 * (len(classes) - n_vc)
    assert pairs == {(0, 3): 60}

    # on the 51-NI CMP, the empty plan strands the packets of three e2e
    # circuits at once: NI 0 sends nothing over VC, NI 14 is part way
    # through a VC packet, and NI 26 is part way through one with two more
    # queued, behind which its stranded packets, created earlier, do not wait
    cmp = hn.MeshConfig.cmp_4x4_51ni()
    circuits = ((0, 4), (14, 17), (26, 29))
    packets = sorted([(30, src, dst, "data", 640) for src, dst in circuits] * 6
                     + [(cycle, 26, 33, "data", 640) for cycle in (38, 39, 40)]
                     + [(40, 14, 20, "data", 640)])
    scenario = (4, 4, cmp.ni_per_router, 2, "e2e", packets, None, 0, DEFAULT_VC)
    plan = hn.CircuitPlan("e2e", (tuple(
        hn.CandidatePair(src, dst, 1, hn.xy_route(cmp, cmp.router_of_ni(src),
                                                  cmp.router_of_ni(dst)))
        for src, dst in circuits),))
    mesh, trace = _inputs(hn, scenario)
    sim = hn.Simulation(mesh, hn.SubnetLayout(128, 2), hn.VcConfig(), trace, plan, 0)
    sim.run_until(45)
    assert sim.busy_nis == [14, 26] and set(sim.ni_cur) == {14, 26}
    assert not sim.ni_queue.get(14) and len(sim.ni_queue[26]) == 2
    plans = (plan, 45, hn.CircuitPlan.empty(1, "e2e"))
    ours, pairs = _run_stepped(hn, scenario, *plans)
    assert (ours, pairs) == _run_stepped(base, scenario, *plans)
    pair_of = {pid: (src, dst) for pid, (_, src, dst, _, _) in enumerate(packets)}
    for pair in circuits:
        assert {r["route_class"] for r in ours["flit_records"]
                if pair_of[r["packet_id"]] == pair} == {"cs1", "vc"}


@st.composite
def saturations(draw):
    """Every NI sends for 600-800 cycles at a rate the VC subnet cannot
    carry, and the run is cut after at least two settle bounds, while it
    still sends.

    Besides, 0.15 data packets a cycle (7-22% of all packets) go between
    three hot pairs, whose circuits carry them as trains that eject in the
    same cycles as VC flits.
    """
    width = draw(st.integers(3, 4))
    height = draw(st.integers(3, 4))
    nis = tuple(draw(ni_counts(width, height)))
    k = draw(st.sampled_from([2, 4]))
    fabric = draw(st.sampled_from(["e2e", "r2r"]))
    mesh = hn.MeshConfig(width, height, nis)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = mesh.n_nis
    hot = [(src, (src + 1 + rng.randrange(n - 1)) % n) for src in rng.sample(range(n), 3)]
    length = draw(st.integers(600, 800))
    packets = []
    for cycle in range(length):
        for src in range(n):
            if rng.random() < 0.06:
                dst = (src + 1 + rng.randrange(n - 1)) % n
                kind, bits = rng.choice([("control", 64), ("control", 128), ("data", 640)])
                packets.append((cycle, src, dst, kind, bits))
        if rng.random() < 0.15:
            src, dst = rng.choice(hot)
            packets.append((cycle, src, dst, "data", 640))
    cut = draw(st.integers(2 * _SETTLE_CYCLES, length))
    return (width, height, nis, k, fabric, packets, cut, draw(st.integers(0, 3)),
            draw(vc_configs))


@settings(max_examples=6, phases=NO_SHRINK)
@given(saturations())
def test_saturated_run_cut_past_the_settle_bound_matches_frozen_baseline(scenario):
    plans = (_plan(scenario),)
    ours, pairs = _run_stepped(hn, scenario, *plans)
    assert (ours, pairs) == _run_stepped(base, scenario, *plans)
    # the scenario does what it is for: VC flits eject in every stretch of
    # 32 cycles from cycle 64 up to the cut, and in some cycles circuit
    # flits eject beside them
    cut = scenario[6]
    vc_out = {r["eject_cycle"] for r in ours["flit_records"] if r["route_class"] == "vc"}
    cs_out = {r["eject_cycle"] for r in ours["flit_records"] if r["route_class"] != "vc"}
    assert all(vc_out & set(range(t, t + 32)) for t in range(64, cut - 32, 32))
    assert vc_out & cs_out
    assert ours["in_flight"] > 0


@st.composite
def saturated_all_circuit(draw):
    """On the all-circuit fabric, every NI sends for 300-500 cycles at a
    rate its paths cannot carry, so packets queue at their NIs for many
    cycles, waiting for links and ejection ports that packets sent before
    them hold; the run is cut while they still queue."""
    width = draw(st.integers(3, 4))
    height = draw(st.integers(3, 4))
    nis = tuple(draw(ni_counts(width, height)))
    mesh = hn.MeshConfig(width, height, nis)
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = mesh.n_nis
    length = draw(st.integers(300, 500))
    packets = []
    for cycle in range(length):
        for src in range(n):
            if rng.random() < 0.08:
                dst = (src + 1 + rng.randrange(n - 1)) % n
                kind, bits = rng.choice([("control", 64), ("control", 128), ("data", 640)])
                packets.append((cycle, src, dst, kind, bits))
    cut = draw(st.integers(length // 2, length))
    return (width, height, nis, 1, "cs_all", packets, cut, draw(st.integers(0, 3)),
            draw(vc_configs))


@settings(max_examples=6, phases=NO_SHRINK)
@given(saturated_all_circuit())
def test_saturated_all_circuit_run_cut_mid_queue_matches_frozen_baseline(scenario):
    ours, pairs = _run_stepped(hn, scenario, None)
    assert (ours, pairs) == _run_stepped(base, scenario, None)
    # the scenario does what it is for: some head packet waited 50 cycles or
    # more for its path, and packets still queue at the cut
    created = [pkt[0] for pkt in scenario[5]]
    assert max(r["inject_cycle"] - created[r["packet_id"]]
               for r in ours["flit_records"] if r["flit_index"] == 0) >= 50
    mesh, trace = _inputs(hn, scenario)
    sim = hn.Simulation(mesh, hn.SubnetLayout(128, 1), hn.VcConfig(), trace, cs_all=True)
    sim.run_until(scenario[6])
    assert any(queue for q in sim.waiting.values() for queue in q.ni_queues.values())


@st.composite
def gapped(draw):
    """Bursts apart by idle gaps both shorter and longer than the settle
    bound, two cuts, one inside a gap and one inside a burst, and on a
    planned fabric a second plan that activates inside a gap or after the
    last burst.

    The engine settles the ejection ledger only on its bound and when a
    run call returns, so ejections wait in it across short jumps and
    long ones.
    """
    width = draw(st.integers(2, 4))
    height = draw(st.integers(2, 3))
    nis = tuple(draw(ni_counts(width, height, 3)))
    k = draw(st.sampled_from([1, 2, 4]))
    fabric = draw(st.sampled_from(["vc", "cs_all"] if k == 1 else ["e2e", "r2r"]))
    mesh = hn.MeshConfig(width, height, nis)
    short = st.integers(1, _SETTLE_CYCLES - 1)
    long = st.integers(_SETTLE_CYCLES + 100, 5 * _SETTLE_CYCLES)
    gaps = draw(st.permutations([draw(short), draw(long)] + draw(st.lists(short | long,
                                                                           max_size=3))))
    packets = []
    bursts = []  # (first cycle, last cycle) of each burst's packets
    cycle = draw(st.integers(0, 50))
    for gap in gaps + [None]:
        first = cycle
        for _ in range(draw(st.integers(1, 15))):
            cycle += draw(st.sampled_from([0, 0, 1, 2]))
            src, dst = draw(st.permutations(range(mesh.n_nis)))[:2]
            kind, bits = draw(st.sampled_from([("control", 64), ("data", 640)]))
            packets.append((cycle, src, dst, kind, bits))
        bursts.append((first, cycle))
        if gap is not None:
            cycle += gap
    # a gap runs from one burst's last packet to the next burst's first;
    # the last one, from the last packet on, holds the drain
    quiet = [(a[1] + 1, b[0] - 1) for a, b in zip(bursts, bursts[1:]) if b[0] - a[1] > 1]
    quiet.append((cycle + 1, cycle + 5 * _SETTLE_CYCLES))
    lo, hi = draw(st.sampled_from(quiet[:-1] or quiet))
    in_gap = draw(st.integers(lo, hi))
    lo, hi = draw(st.sampled_from(bursts))
    in_burst = draw(st.integers(lo + 1, hi + 30))
    cuts = tuple(sorted({in_gap, in_burst}))
    scenario = (width, height, nis, k, fabric, packets, None, draw(st.integers(0, 3)),
                draw(vc_configs))
    if fabric not in ("e2e", "r2r"):
        return scenario, cuts, None, None
    lo, hi = draw(st.sampled_from(quiet))
    return scenario, cuts, draw(st.integers(lo, hi)), draw(st.sampled_from(["empty", "later"]))


def _retired(sim):
    """sim's clock, the pair counts it took since the last call, and what
    it has retired so far; with no window closed, its counters run from
    cycle 0 on either copy."""
    stats = sim.stats
    return (sim.cycle, sim.take_pair_counts(), stats.flits_ejected, stats.in_circuit_flits,
            stats.latency_hist, [dataclasses.asdict(r) for r in stats.flit_records])


@settings(max_examples=40, phases=NO_SHRINK)
@given(gapped())
def test_gapped_run_cut_in_a_gap_and_a_burst_matches_frozen_baseline(case):
    scenario, cuts, activation, second = case
    plans = (_plan(scenario),)
    if activation is not None:
        plans += (activation, _replan(scenario, activation, second))
    sims = [_simulation(pkg, scenario, *plans) for pkg in (hn, base)]
    for cut in cuts:
        for sim in sims:
            sim.run_until(cut)
        assert _retired(sims[0]) == _retired(sims[1])
    for sim in sims:
        sim.run_to_completion()
    assert _retired(sims[0]) == _retired(sims[1])
    assert figures(sims[0].finalize()) == figures(sims[1].finalize())


@st.composite
def lone_lives(draw):
    """VC packets 0-150 cycles apart, mostly alone in the network, some in
    the 20-cycle warm-up; on a planned fabric, data packets of 1-2 hot
    pairs, which the first plan puts on circuits, come in 1-12 cycles after
    VC packets; then a burst from NIs on the lone packets' routers to their
    destinations.  Up to three cuts fall in the warm-up, inside a lone
    packet's life, or at an epoch boundary where a second plan activates.
    """
    width = draw(st.integers(2, 4))
    height = draw(st.integers(1, 4))
    nis = tuple(draw(ni_counts(width, height, 3)))
    mesh = hn.MeshConfig(width, height, nis)
    n = mesh.n_nis
    assume(n > 2)
    k = draw(st.sampled_from([1, 2, 4]))
    fabric = "vc" if k == 1 else draw(st.sampled_from(["e2e", "r2r"]))
    ni_pairs = st.permutations(range(n)).map(lambda p: tuple(p[:2]))
    hot = draw(st.lists(ni_pairs, min_size=1, max_size=2, unique=True))
    classes = st.sampled_from([("control", 64), ("control", 128), ("data", 640)])
    packets = []
    lives = []  # intake cycles of the VC packets
    cycle = draw(st.integers(0, 15))
    for _ in range(draw(st.integers(2, 14))):
        src, dst = draw(ni_pairs)
        packets.append((cycle, src, dst) + draw(classes))
        lives.append(cycle)
        for _ in range(draw(st.integers(0, 3) if k > 1 else st.just(0))):
            packets.append((cycle + draw(st.integers(1, 12)),) + draw(st.sampled_from(hot))
                           + ("data", 640))
        cycle += draw(st.sampled_from([0, 10, 60, 80, 100, 150]))
    cycle += draw(st.integers(0, 40))
    lone = packets[:]
    near = sorted({ni for _, src, dst, _, _ in lone
                   for r in (mesh.router_of_ni(src), mesh.router_of_ni(dst))
                   for ni in mesh.nis_of_router(r)})
    targets = sorted({dst for _, _, dst, _, _ in lone})
    for _ in range(draw(st.integers(2, 16))):
        src = draw(st.sampled_from(near))
        dst = draw(st.sampled_from(targets))
        if src != dst:
            packets.append((cycle + draw(st.integers(0, 2)), src, dst) + draw(classes))
    packets.sort(key=lambda pkt: pkt[0])
    cuts = {draw(st.integers(1, 19)), draw(st.sampled_from(lives)) + draw(st.integers(1, 40))}
    boundary = draw(st.integers(1, cycle + 10))
    cuts = sorted(draw(st.sets(st.sampled_from(sorted(cuts | {boundary})), min_size=1)))
    scenario = (width, height, nis, k, fabric, packets, None, draw(st.integers(0, 3)),
                (draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 8))))
    second = draw(st.sampled_from([None, "empty", "later"])) if k > 1 else None
    return scenario, hot, cuts, boundary, second


@settings(max_examples=80, phases=NO_SHRINK)
@given(lone_lives())
def test_lone_packets_then_a_burst_match_frozen_baseline(case):
    _assert_cut_runs_match(*case)


@st.composite
def concurrent_lives(draw):
    """VC streams on two or three rows of a 4x4 mesh, which X-Y routes keep
    apart, so their packets replay side by side, each alone on its routers;
    a few packets cross from one stream's row to another's, meeting replayed
    lives and stepped packets on the way; on a planned fabric, data packets
    of 1-2 hot pairs come in too.  Up to two cuts fall inside a stream
    packet's life and at an epoch boundary where a second plan activates.
    """
    nis = tuple(draw(ni_counts(4, 4, 2)))
    mesh = hn.MeshConfig(4, 4, nis)
    k = draw(st.sampled_from([1, 2, 4]))
    fabric = "vc" if k == 1 else draw(st.sampled_from(["e2e", "r2r"]))
    classes = st.sampled_from([("control", 64), ("control", 128), ("data", 640)])
    rows = draw(st.lists(st.integers(0, 3), min_size=2, max_size=3, unique=True))
    row_nis = [[ni for x in range(4) for ni in mesh.nis_of_router(4 * y + x)] for y in rows]
    packets = []
    lives = []  # intake cycles of the stream packets
    for ends in row_nis:
        cycle = draw(st.integers(0, 30))
        for _ in range(draw(st.integers(2, 8))):
            src, dst = draw(st.permutations(ends))[:2]
            packets.append((cycle, src, dst) + draw(classes))
            lives.append(cycle)
            cycle += draw(st.sampled_from([0, 5, 20, 40, 60, 90]))
    end = max(lives)
    for _ in range(draw(st.integers(1, 4))):
        src_row, dst_row = draw(st.permutations(row_nis))[:2]
        packets.append((draw(st.integers(0, end)), draw(st.sampled_from(src_row)),
                        draw(st.sampled_from(dst_row))) + draw(classes))
    ni_pairs = st.permutations(range(mesh.n_nis)).map(lambda p: tuple(p[:2]))
    hot = draw(st.lists(ni_pairs, min_size=1, max_size=2, unique=True))
    for _ in range(draw(st.integers(0, 4) if k > 1 else st.just(0))):
        packets.append((draw(st.integers(0, end)),) + draw(st.sampled_from(hot))
                       + ("data", 640))
    packets.sort(key=lambda pkt: pkt[0])
    boundary = draw(st.integers(1, end + 10))
    cuts = {draw(st.sampled_from(lives)) + draw(st.integers(1, 40)), boundary}
    cuts = sorted(draw(st.sets(st.sampled_from(sorted(cuts)), min_size=1)))
    scenario = (4, 4, nis, k, fabric, packets, None, draw(st.integers(0, 3)),
                (draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 6))))
    second = draw(st.sampled_from([None, "empty", "later"])) if k > 1 else None
    return scenario, hot, cuts, boundary, second


@settings(max_examples=60, phases=NO_SHRINK)
@given(concurrent_lives())
def test_concurrent_lone_lives_match_frozen_baseline(case):
    _assert_cut_runs_match(*case)


@st.composite
def crossing_lives(draw):
    """VC streams along one or two rows and one or two columns of a 4x4
    mesh: X-Y routes keep a row's packets on its east and west ports and a
    column's on its north and south ports, so streams meet at routers on
    disjoint ports and replay side by side there.  One to three packets
    turn from a row stream's NIs to a column stream's, over ports of both;
    on a planned fabric, data packets of 1-2 hot pairs come in too.  Up to
    two cuts fall inside a stream packet's life and at an epoch boundary
    where a second plan activates.
    """
    nis = tuple(draw(ni_counts(4, 4, 2)))
    mesh = hn.MeshConfig(4, 4, nis)
    k = draw(st.sampled_from([1, 2, 4]))
    fabric = "vc" if k == 1 else draw(st.sampled_from(["e2e", "r2r"]))
    classes = st.sampled_from([("control", 64), ("control", 128), ("data", 640)])

    def stream_nis(routers):
        return [ni for r in routers for ni in mesh.nis_of_router(r)]

    rows = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True))
    cols = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True))
    row_nis = [stream_nis(range(4 * y, 4 * y + 4)) for y in rows]
    col_nis = [stream_nis(range(x, 16, 4)) for x in cols]
    packets = []
    lives = []  # intake cycles of the stream packets
    for ends in row_nis + col_nis:
        cycle = draw(st.integers(0, 30))
        for _ in range(draw(st.integers(2, 8))):
            src, dst = draw(st.permutations(ends))[:2]
            packets.append((cycle, src, dst) + draw(classes))
            lives.append(cycle)
            cycle += draw(st.sampled_from([0, 5, 20, 40, 60, 90]))
    end = max(lives)
    for _ in range(draw(st.integers(1, 3))):
        src = draw(st.sampled_from(draw(st.sampled_from(row_nis))))
        dst = draw(st.sampled_from(draw(st.sampled_from(col_nis))))
        if src != dst:
            packets.append((draw(st.integers(0, end)), src, dst) + draw(classes))
    ni_pairs = st.permutations(range(mesh.n_nis)).map(lambda p: tuple(p[:2]))
    hot = draw(st.lists(ni_pairs, min_size=1, max_size=2, unique=True))
    for _ in range(draw(st.integers(0, 4) if k > 1 else st.just(0))):
        packets.append((draw(st.integers(0, end)),) + draw(st.sampled_from(hot))
                       + ("data", 640))
    packets.sort(key=lambda pkt: pkt[0])
    boundary = draw(st.integers(1, end + 10))
    cuts = {draw(st.sampled_from(lives)) + draw(st.integers(1, 40)), boundary}
    cuts = sorted(draw(st.sets(st.sampled_from(sorted(cuts)), min_size=1)))
    scenario = (4, 4, nis, k, fabric, packets, None, draw(st.integers(0, 3)),
                (draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 6))))
    second = draw(st.sampled_from([None, "empty", "later"])) if k > 1 else None
    return scenario, hot, cuts, boundary, second


@settings(max_examples=60, phases=NO_SHRINK)
@given(crossing_lives())
def test_crossing_lives_match_frozen_baseline(case):
    _assert_cut_runs_match(*case)


def _assert_cut_runs_match(scenario, hot, cuts, boundary, second):
    """The engine and the frozen copy retire the same flits by each cut and
    end with the same figures, with no packet left counted on a port, and
    the engine's windows, pair counts and SA pointers equal those of its
    own run that never replays."""
    plans = (_plan(scenario, hot),)
    if second is not None:
        plans += (boundary, _replan(scenario, boundary, second))
    sims = [_simulation(pkg, scenario, *plans) for pkg in (hn, base)]
    for cut in cuts:
        for sim in sims:
            sim.run_until(cut)
        assert _retired(sims[0]) == _retired(sims[1])
    for sim in sims:
        sim.run_to_completion()
    assert _retired(sims[0]) == _retired(sims[1])
    assert figures(sims[0].finalize()) == figures(sims[1].finalize())
    assert not any(sims[0].stepping)  # every stepped packet left its ports
    # the frozen copy's counters do not close per window, so the windows
    # closed at the cuts are held to a run of the engine that never replays
    sims = [_simulation(hn, scenario, *plans) for _ in range(2)]
    sims[1]._replay = lambda pkt: False
    windows = [[], []]
    for cut in cuts + [None]:
        for sim, out in zip(sims, windows):
            sim.run_to_completion() if cut is None else sim.run_until(cut)
            out.append((sim.cycle, sim.take_pair_counts(), figures(sim.finalize()),
                        [list(router[0][0].rr) for router in sim.invc]))
    assert windows[0] == windows[1]
