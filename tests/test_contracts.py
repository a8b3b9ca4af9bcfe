"""README contracts as properties over random meshes and NI counts.

Unloaded latency read from flit records (5h+4 on VC, 2h+1 on an e2e
circuit, 2h+7 on an r2r circuit) and plan files that load back as the
plan that was saved.  Flit conservation and per-packet order are checked
inside the engine on every run these tests make.
"""

import os
import tempfile

from hypothesis import assume, given, settings, strategies as st

from hybridnoc import (
    CandidatePair,
    CircuitPlan,
    GaParams,
    MeshConfig,
    PacketClass,
    SubnetLayout,
    TrafficEvent,
    VcConfig,
    candidates_from_profile,
    load_plan,
    profile_from_flit_counts,
    profile_granularity_for,
    save_plan,
    simulate,
    xy_route,
)
from hybridnoc.allocator import MAX_ORACLE_PAIRS, METHODS, allocate

HALF = SubnetLayout(128, 2)  # one 64-bit VC subnet, one 64-bit CS subnet


@st.composite
def meshes(draw):
    width = draw(st.integers(1, 5))
    height = draw(st.integers(1, 5))
    nis = draw(st.lists(st.integers(1, 3), min_size=width * height,
                        max_size=width * height))
    return MeshConfig(width, height, tuple(nis))


@st.composite
def lone_packets(draw):
    """A mesh and two distinct NIs on it."""
    mesh = draw(meshes())
    assume(mesh.n_nis >= 2)
    src = draw(st.integers(0, mesh.n_nis - 1))
    dst = draw(st.integers(0, mesh.n_nis - 2))
    return mesh, src, dst + (dst >= src)


def records(mesh, src, dst, payload_bits, plan=None):
    trace = [TrafficEvent(0, src, dst, PacketClass("data", payload_bits), 0)]
    stats = simulate(mesh, HALF, VcConfig(), trace, plan, record_flits=True)
    assert stats.flits_ejected == len(stats.flit_records) == -(-payload_bits // 64)
    return stats.flit_records


@settings(max_examples=60)
@given(lone_packets())
def test_lone_packet_latency_contracts(case):
    mesh, src, dst = case
    ra, rb = mesh.router_of_ni(src), mesh.router_of_ni(dst)
    h = mesh.hop_distance(ra, rb)
    # a single flit on the VC subnet
    (rec,) = records(mesh, src, dst, 64)
    assert (rec.route_class, rec.hops) == ("vc", h)
    assert rec.eject_cycle - rec.inject_cycle == 5 * h + 4
    assume(ra != rb)
    path = xy_route(mesh, ra, rb)
    # every flit of a 10-flit packet pays the circuit's wire latency alone
    for granularity, key, lat in (("e2e", (src, dst), 2 * h + 1),
                                  ("r2r", (ra, rb), 2 * h + 7)):
        plan = CircuitPlan(granularity, ((CandidatePair(*key, 1, path),),))
        for rec in records(mesh, src, dst, 640, plan):
            assert (rec.route_class, rec.hops) == ("cs1", h)
            assert rec.eject_cycle - rec.inject_cycle == lat


@st.composite
def profiles(draw):
    """A mesh, a plan granularity, k and NI-pair flit counts."""
    mesh = draw(meshes())
    pair = st.tuples(st.integers(0, mesh.n_nis - 1), st.integers(0, mesh.n_nis - 1))
    counts = draw(st.dictionaries(pair, st.integers(1, 200), max_size=30))
    counts = {p: f for p, f in counts.items() if p[0] != p[1]}
    return mesh, draw(st.sampled_from(["e2e", "r2r"])), draw(st.integers(1, 3)), counts


def subnet_pairs(plan):
    return [[(c.src, c.dst) for c in circuits] for circuits in plan.subnets]


@settings(max_examples=60)
@given(profiles())
def test_allocated_plan_file_round_trip(case):
    # every allocator's plan is conflict-free: it saves, and loads back
    # through load_plan's checks as the same subnets and paths
    mesh, granularity, k, counts = case
    prof = profile_from_flit_counts(counts, mesh, profile_granularity_for(granularity))
    n = len(candidates_from_profile(prof, mesh, granularity))
    for method in METHODS:
        if method == "oracle" and n > MAX_ORACLE_PAIRS:
            continue
        plan = allocate(method, prof, mesh, k, granularity, GaParams(generations=5))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, f"{method}.plan")
            save_plan(plan, path)
            back = load_plan(path, mesh)
        assert back.granularity == granularity
        assert back.subnet_count == k
        assert subnet_pairs(back) == subnet_pairs(plan)
        assert [c.path for _, c in back.all_circuits()] == \
            [c.path for _, c in plan.all_circuits()]
