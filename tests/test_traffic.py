"""Synthetic traffic, trace files and profiles."""

import logging
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import hybridnoc as hn
from frozen_baseline import base
from hybridnoc import (
    ConfigError,
    MeshConfig,
    PacketClass,
    PairTraffic,
    Simulation,
    SubnetLayout,
    SyntheticSpec,
    TraceFormatError,
    TrafficEvent,
    TrafficProfile,
    VcConfig,
    designated_pairs,
    flits_for_packet,
    generate,
    ingest,
    load_profile,
    load_trace,
    packet_class,
    profile,
    profile_from_flit_counts,
    save_profile,
    save_trace,
)
from hybridnoc.traffic import read_records


def test_flits_for_packet():
    assert flits_for_packet(PacketClass("data", 640), 128) == 5
    assert flits_for_packet(PacketClass("data", 640), 64) == 10
    assert flits_for_packet(PacketClass("control", 128), 128) == 1
    assert flits_for_packet(PacketClass("control", 128), 16) == 8
    # partial flits round up
    assert flits_for_packet(PacketClass("data", 130), 128) == 2
    with pytest.raises(ValueError):
        flits_for_packet(PacketClass("data", 640), 0)
    with pytest.raises(ValueError):
        PacketClass("data", 0)


def test_packet_class_lookup():
    assert packet_class("control").payload_bits == 128
    assert packet_class("data").payload_bits == 640
    with pytest.raises(TraceFormatError):
        packet_class("jumbo")


def test_traffic_event_validation():
    with pytest.raises(ValueError):
        TrafficEvent(-1, 0, 1, packet_class("control"), 0)
    with pytest.raises(ValueError):
        TrafficEvent(0, 3, 3, packet_class("control"), 0)


def test_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec("zipf", 0.1)
    with pytest.raises(ValueError):
        SyntheticSpec("uniform_random", -0.1)
    with pytest.raises(ValueError):
        SyntheticSpec("uniform_random", 0.1, control_fraction=1.5)
    with pytest.raises(ValueError):
        SyntheticSpec("regular_mix", 0.1, regularity=2.0)
    with pytest.raises(ValueError):
        SyntheticSpec("regular_mix", 0.1, designated_pair_count=0)
    with pytest.raises(ValueError, match="payload bits"):
        SyntheticSpec("uniform_random", 0.1, data_payload_bits=0)
    with pytest.raises(ValueError, match="payload bits"):
        SyntheticSpec("uniform_random", 0.1, control_payload_bits=-8)
    # sized with integer division: no float overflow on a huge payload
    assert flits_for_packet(PacketClass("data", 10**400 + 1), 128) == 10**400 // 128 + 1
    with pytest.raises(ValueError, match="data_payload_bits is too large"):
        SyntheticSpec("uniform_random", 0.1, data_payload_bits=10**400)


def test_generate_deterministic():
    m = MeshConfig.grid(4, 4)
    spec = SyntheticSpec("uniform_random", 0.05)
    a = generate(spec, m, 42, 500)
    b = generate(spec, m, 42, 500)
    assert a == b
    c = generate(spec, m, 43, 500)
    assert a != c


def test_generate_event_invariants():
    m = MeshConfig.grid(3, 3)
    spec = SyntheticSpec("uniform_random", 0.08)
    events = generate(spec, m, 7, 400)
    assert events, "rate 0.08 over 400 cycles must produce traffic"
    last = -1
    for i, ev in enumerate(events):
        assert ev.packet_id == i
        assert 0 <= ev.src < m.n_nis
        assert 0 <= ev.dst < m.n_nis
        assert ev.src != ev.dst
        assert ev.inject_cycle >= last
        last = ev.inject_cycle
    assert generate(spec, m, 7, 0) == []


def test_generate_rate_accuracy():
    # accounting is in full-width flits per NI per cycle
    m = MeshConfig.grid(4, 4)
    cycles = 100_000
    spec = SyntheticSpec("uniform_random", 0.05)
    events = generate(spec, m, 3, cycles)
    flits = sum(flits_for_packet(ev.klass, 128) for ev in events)
    offered = flits / (m.n_nis * cycles)
    assert abs(offered - 0.05) / 0.05 < 0.05


def test_generate_rate_too_high():
    # the spec itself rejects the rate, so generate never sees it
    with pytest.raises(ValueError, match="one packet per NI per cycle"):
        SyntheticSpec("uniform_random", 5.0)
    # the limit is one packet per NI per cycle, in full-width flits
    assert SyntheticSpec("uniform_random", 3.0, control_fraction=0.5).injection_rate == 3.0
    with pytest.raises(ValueError, match="one packet per NI per cycle"):
        SyntheticSpec("uniform_random", 3.01, control_fraction=0.5)


def test_permutation_pattern_is_a_derangement():
    m = MeshConfig.grid(3, 3)
    spec = SyntheticSpec("permutation", 0.1)
    events = generate(spec, m, 11, 1000)
    dst_of = {}
    for ev in events:
        assert ev.dst != ev.src
        assert dst_of.setdefault(ev.src, ev.dst) == ev.dst
    # the map is injective on the sources that sent anything
    dsts = list(dst_of.values())
    assert len(set(dsts)) == len(dsts)


def listed_designated_pairs(mesh, seed, count):
    """The reference draw: sample from the full source-major list of NI pairs."""
    n = mesh.n_nis
    all_pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    return random.Random(f"{seed}/designated").sample(all_pairs, count)


@pytest.mark.parametrize("mesh", [
    MeshConfig(2, 1, 1), MeshConfig.grid(2, 2), MeshConfig(3, 2, (1, 2, 0, 3, 1, 1)),
    MeshConfig.grid(4, 4), MeshConfig.cmp_4x4_51ni(),
], ids=["1x2", "2x2", "3x2-mixed", "4x4", "cmp51"])
def test_designated_pairs_match_the_listed_draw(mesh):
    n = mesh.n_nis
    for seed in range(6):
        for count in sorted({0, 1, 2, 8, n * (n - 1) // 2, n * (n - 1)}):
            if count <= n * (n - 1):
                assert designated_pairs(mesh, seed, count) == \
                    listed_designated_pairs(mesh, seed, count)


def test_designated_pairs_on_the_largest_mesh_build_no_pair_list():
    mesh = MeshConfig.grid(32, 32)
    tracemalloc.start()
    try:
        pairs = designated_pairs(mesh, 0, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(set(pairs)) == 8
    assert all(a != b and 0 <= a < 1024 and 0 <= b < 1024 for a, b in pairs)
    # the full list of 1,047,552 pairs would take tens of megabytes
    assert peak < 1_000_000


def test_regular_mix_full_regularity():
    m = MeshConfig.grid(4, 4)
    spec = SyntheticSpec("regular_mix", 0.1, regularity=1.0, designated_pair_count=6)
    pairs = set(designated_pairs(m, 21, 6))
    events = generate(spec, m, 21, 2000)
    assert events
    assert all((ev.src, ev.dst) in pairs for ev in events)


def test_regular_mix_partial_regularity():
    m = MeshConfig.grid(4, 4)
    r = 0.8
    spec = SyntheticSpec("regular_mix", 0.1, regularity=r, designated_pair_count=6)
    pairs = set(designated_pairs(m, 5, 6))
    events = generate(spec, m, 5, 20_000)
    hit = sum((ev.src, ev.dst) in pairs for ev in events) / len(events)
    # background traffic can also land on a designated pair, so >= r
    assert hit >= r - 0.02


def test_hotspot_concentrates_traffic():
    m = MeshConfig.grid(4, 4)
    spec = SyntheticSpec("hotspot", 0.1)
    events = generate(spec, m, 9, 10_000)
    by_dst = {}
    for ev in events:
        by_dst[ev.dst] = by_dst.get(ev.dst, 0) + 1
    top = max(by_dst.values())
    # the hot NI should draw far more than a uniform share
    assert top / len(events) > 3 / m.n_nis


def test_designated_pairs_deterministic():
    m = MeshConfig.grid(4, 4)
    assert designated_pairs(m, 2, 8) == designated_pairs(m, 2, 8)
    assert designated_pairs(m, 2, 8) != designated_pairs(m, 3, 8)
    got = designated_pairs(m, 2, 8)
    assert len(set(got)) == 8
    assert all(a != b for a, b in got)
    with pytest.raises(ValueError):
        designated_pairs(MeshConfig.grid(2, 1), 0, 50)


def test_ingest_basic():
    m = MeshConfig.grid(4, 4)
    events = ingest(["# header", "", "0,3,7,control", "2, 1, 5, data"], m)
    assert len(events) == 2
    assert events[0].inject_cycle == 0
    assert events[0].src == 3 and events[0].dst == 7
    assert events[0].klass.kind == "control"
    assert events[1].klass.payload_bits == 640
    assert [ev.packet_id for ev in events] == [0, 1]


def test_ingest_shares_one_class_per_kind_and_equals_fresh_events():
    m = MeshConfig.grid(4, 4)
    lines = ["0,3,7,control", "1,2,9,data", "1,4,0,control", "3,15,1,data"]
    events = ingest(lines, m)
    fresh = [
        TrafficEvent(int(c), int(s), int(d), PacketClass(k, 128 if k == "control" else 640), pid)
        for pid, (c, s, d, k) in enumerate(line.split(",") for line in lines)
    ]
    assert events == fresh
    assert events[0].klass is events[2].klass is packet_class("control")
    assert events[1].klass is events[3].klass is packet_class("data")


@pytest.mark.parametrize(
    "line,fragment",
    [
        ("5,9,9,data", "line 1"),
        ("0,99,1,data", "unknown source"),
        ("0,1,99,data", "unknown destination"),
        ("0,1,2", "expected 4 fields"),
        ("0,1,2,data,extra", "expected 4 fields"),
        ("-1,0,1,data", "negative inject cycle"),
        ("x,0,1,data", "line 1"),
        ("0,0,1,jumbo", "unknown packet class"),
        # int() reads these as 10, 5 and 3; a data file takes ASCII decimal only
        ("1_0,0,1,data", "line 1: '1_0' is not an ASCII decimal integer"),
        ("0,+5,1,data", "line 1: '+5' is not an ASCII decimal integer"),
        ("0,0,\u0663,data", "line 1: '\u0663' is not an ASCII decimal integer"),
        ("0, 0 ,1_0, data", "line 1: '1_0' is not an ASCII decimal integer"),
    ],
)
def test_ingest_rejects_bad_records(line, fragment):
    m = MeshConfig.grid(4, 4)
    with pytest.raises(TraceFormatError) as err:
        ingest([line], m)
    assert fragment in str(err.value)


# fields that split, strip or int() treat specially, next to plain ones
_INTS = ["0", "-3", "007", "-0", "12", " 4", "4\t", "\x1c4", "4\u00a0",
         "1_0", "+5", "\u0663", "--1", "1-", "", "-"]
_NAMES = ["ad", " ad", "ad ", "\tad", "\x1cad", "\u00a0ad", "a d", "ad_", ""]
_RECORDS = st.tuples(*[st.sampled_from(_INTS)] * 2, st.sampled_from(_NAMES)).map(",".join)
_LINES = _RECORDS | st.lists(st.sampled_from(_INTS + _NAMES), max_size=5).map(",".join)


def _ad(text):
    if text != "ad":
        raise ValueError(f"not ad: {text!r}")
    return text


@settings(max_examples=300)
@given(st.lists(_LINES, min_size=1, max_size=8))
def test_read_records_matches_split_strip_and_ascii_decimal(lines):
    # the reference reads a record by split and strip, and an int field only
    # from an optional minus sign and the digits 0-9; each line on its own
    for line in lines:
        text = line.strip()
        parts = [p.strip() for p in text.split(",")]
        if not text or text.startswith("#"):
            expected = []
        elif (len(parts) == 3 and parts[2] == "ad"
              and all(re.fullmatch("-?[0-9]+", p) for p in parts[:2])):
            expected = [[int(parts[0]), int(parts[1]), "ad"]]
        else:
            expected = None
        try:
            got = [fields for _, fields in read_records([line], (int, int, _ad))]
        except TraceFormatError as exc:
            assert str(exc).startswith("line 1: ")
            assert expected is None
        else:
            assert got == expected


def test_read_records_keeps_spaces_leading_zeros_and_minus_signs():
    lines = ["# c", " 007 , -3,\tad ", "0,-0,ad"]
    assert list(read_records(lines, (int, int, str))) == [(2, [7, -3, "ad"]), (3, [0, 0, "ad"])]


def test_ingest_line_numbers_skip_comments():
    m = MeshConfig.grid(2, 2)
    with pytest.raises(TraceFormatError) as err:
        ingest(["# c", "0,0,1,data", "0,2,2,data"], m)
    assert "line 3" in str(err.value)


def test_ingest_reorders_with_warning(caplog):
    m = MeshConfig.grid(2, 2)
    with caplog.at_level(logging.WARNING):
        events = ingest(["5,0,1,data", "2,1,0,control"], m)
    assert [ev.inject_cycle for ev in events] == [2, 5]
    assert any("re-sorted" in rec.message for rec in caplog.records)


def test_trace_round_trip(tmp_path):
    m = MeshConfig.grid(4, 4)
    spec = SyntheticSpec("uniform_random", 0.05)
    events = generate(spec, m, 17, 300)
    path = tmp_path / "trace.csv"
    save_trace(events, str(path))
    back = load_trace(str(path), m)
    assert len(back) == len(events)
    for a, b in zip(events, back):
        assert (a.inject_cycle, a.src, a.dst, a.klass.kind) == (
            b.inject_cycle,
            b.src,
            b.dst,
            b.klass.kind,
        )


def test_save_trace_refuses_a_class_a_trace_file_cannot_hold(tmp_path):
    # a record carries only the class name, which reads back as 128 or 640
    # bits: a generated 256-bit data packet would come back as 640 bits
    path = tmp_path / "trace.csv"
    spec = SyntheticSpec("uniform_random", 0.5, data_payload_bits=256)
    generated = generate(spec, MeshConfig.grid(2, 2), 1, 50)
    first = next(ev for ev in generated if ev.klass.kind == "data")
    with pytest.raises(ConfigError, match=f"packet {first.packet_id}:"):
        save_trace(generated, str(path))
    for klass in (PacketClass("control", 64), PacketClass("bulk", 128)):
        events = [TrafficEvent(0, 0, 1, packet_class("data"), 0), TrafficEvent(3, 1, 0, klass, 7)]
        with pytest.raises(ConfigError, match="packet 7:"):
            save_trace(events, str(path))
    assert not path.exists()


def test_profile_weights():
    m = MeshConfig.grid(4, 4)
    ev = [TrafficEvent(i, 0, 5, packet_class("data"), i) for i in range(3)]
    prof = profile(ev, m, "ni")
    entry = prof.entries[(0, 5)]
    assert entry.flit_count == 15  # 3 packets x 5 flits at 128 bits
    assert entry.hop_count == 2
    assert entry.weight == 30
    assert sum(e.flit_count for e in prof.entries.values()) == 15


def test_profile_router_granularity_merges_nis():
    m = MeshConfig.grid(2, 2, 2)  # NIs 0,1 -> router 0; NIs 6,7 -> router 3
    ev = [
        TrafficEvent(0, 0, 6, packet_class("control"), 0),
        TrafficEvent(1, 1, 7, packet_class("control"), 1),
    ]
    prof = profile(ev, m, "router")
    assert set(prof.entries) == {(0, 3)}
    assert prof.entries[(0, 3)].flit_count == 2
    # same-router traffic never reaches the mesh, so router profiles drop it
    local = [TrafficEvent(0, 0, 1, packet_class("data"), 0)]
    assert profile(local, m, "router").entries == {}
    ni_prof = profile(local, m, "ni")
    assert ni_prof.entries[(0, 1)].weight == 0


def test_profile_width_changes_flit_counts():
    m = MeshConfig.grid(4, 4)
    ev = [TrafficEvent(0, 0, 5, packet_class("data"), 0)]
    assert profile(ev, m, "ni", channel_width_bits=64).entries[(0, 5)].flit_count == 10


def test_profile_rejects_unknown_ni():
    m = MeshConfig.grid(2, 2)
    ev = [TrafficEvent(0, 0, 9, packet_class("data"), 0)]
    with pytest.raises(TraceFormatError):
        profile(ev, m, "ni")


def test_profile_from_flit_counts():
    m = MeshConfig.grid(4, 4)
    prof = profile_from_flit_counts({(0, 5): 12, (5, 0): 3, (2, 2): 0}, m, "ni")
    assert prof.entries[(0, 5)].weight == 24
    assert prof.entries[(5, 0)].weight == 6
    assert (2, 2) not in prof.entries  # zero-flit pairs dropped


@pytest.mark.parametrize("mesh", [
    MeshConfig.grid(4, 3),
    MeshConfig.grid(3, 3, 2),
    MeshConfig.cmp_4x4_51ni(),
], ids=["4x3", "3x3x2", "cmp51"])
def test_trace_fold_equals_drained_all_vc_counts(mesh):
    # static plans rest on this: folding the trace at the subnet width gives
    # the profile an all-VC run of the hybrid layout ejects
    for seed, k in enumerate((2, 4, 8)):
        layout = SubnetLayout(128, k)
        spec = SyntheticSpec("regular_mix", 0.04, regularity=0.6)
        trace = generate(spec, mesh, seed, 300)
        sim = Simulation(mesh, layout, VcConfig(), trace, None, seed)
        sim.run_to_completion()
        sim.finalize()
        counts = sim.take_pair_counts()
        for gran in ("ni", "router"):
            folded = profile(trace, mesh, gran, layout.subnet_width_bits)
            assert folded == profile_from_flit_counts(counts, mesh, gran)
            assert folded.entries


def test_sorted_pairs_order():
    prof = TrafficProfile("router")
    prof.entries[(0, 1)] = PairTraffic(flit_count=5, hop_count=1)
    prof.entries[(0, 2)] = PairTraffic(flit_count=5, hop_count=2)
    prof.entries[(1, 2)] = PairTraffic(flit_count=10, hop_count=1)
    # descending weight, ties by ascending pair
    assert prof.sorted_pairs() == [(0, 2), (1, 2), (0, 1)]
    with pytest.raises(ValueError):
        TrafficProfile("tile")


def test_profile_round_trip(tmp_path):
    m = MeshConfig.grid(4, 4)
    events = generate(SyntheticSpec("uniform_random", 0.05), m, 23, 400)
    prof = profile(events, m, "router")
    path = tmp_path / "profile.csv"
    save_profile(prof, str(path))
    back = load_profile(str(path), "router")
    assert back.granularity == "router"
    assert back.entries == prof.entries


GENERATE_MESHES = {
    "4x4": lambda pkg: pkg.MeshConfig.grid(4, 4),
    "cmp_4x4_51ni": lambda pkg: pkg.MeshConfig.cmp_4x4_51ni(),
    "3x2x2": lambda pkg: pkg.MeshConfig.grid(3, 2, 2),
}


@pytest.mark.parametrize("mesh_name", sorted(GENERATE_MESHES))
@pytest.mark.parametrize("pattern", ["uniform_random", "permutation", "hotspot", "regular_mix"])
def test_generate_matches_frozen_baseline(pattern, mesh_name):
    # the same draws in the same order: every row the frozen copy generates
    def rows(pkg, seed):
        mesh = GENERATE_MESHES[mesh_name](pkg)
        spec = pkg.SyntheticSpec(pattern, 0.2, regularity=0.5, designated_pair_count=6)
        return [(ev.inject_cycle, ev.src, ev.dst, ev.klass.kind, ev.klass.payload_bits,
                 ev.packet_id) for ev in pkg.generate(spec, mesh, seed, 200)]

    for seed in range(3):
        ours = rows(hn, seed)
        assert ours and ours == rows(base, seed)
