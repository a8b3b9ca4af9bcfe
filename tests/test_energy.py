"""Energy accounting over simulation counters."""

import pytest

from hybridnoc import (
    CandidatePair,
    CircuitPlan,
    ConfigError,
    EnergyCoefficients,
    EnergyReport,
    MeshConfig,
    PacketClass,
    SubnetLayout,
    SyntheticSpec,
    TrafficEvent,
    VcConfig,
    account,
    generate,
    load_config,
    simulate,
    xy_route,
)

MESH = MeshConfig.grid(4, 4)
FULL = SubnetLayout(128, 1)
VC = VcConfig()
BREAKDOWN = ("buffer", "allocation", "crossbar", "link", "static")


def run_one_packet():
    # single control flit over 3 hops: 4 writes, 4 reads, 4 crossbar
    # passes, 4 switch grants, 4 VC grants, 3 link traversals
    trace = [TrafficEvent(0, 0, 3, PacketClass("control", 128), 0)]
    return simulate(MESH, FULL, VC, trace)


def test_breakdown_keys_fixed():
    assert tuple(account(run_one_packet(), EnergyCoefficients()).breakdown) == BREAKDOWN


def test_account_exact_dynamic_terms():
    stats = run_one_packet()
    report = account(stats, EnergyCoefficients())
    assert report.breakdown["buffer"] == 8.0  # 4 writes + 4 reads at 1.0
    assert report.breakdown["allocation"] == 4.0  # (4 + 4) at 0.5
    assert report.breakdown["crossbar"] == 4.0
    assert report.breakdown["link"] == pytest.approx(0.01 * 3 * 128)
    expect_static = (
        stats.active_buffer_cycles * 0.1 + stats.cycles_simulated * 16 * 0.5
    )
    assert report.breakdown["static"] == pytest.approx(expect_static)
    assert report.total_energy == pytest.approx(sum(report.breakdown.values()))
    assert report.energy_per_flit == pytest.approx(report.total_energy)
    assert stats.flits_ejected == 1
    assert report.gated_savings == 0.0  # single full-width subnet, no gating


def test_account_zero_coefficients():
    stats = run_one_packet()
    zero = EnergyCoefficients(0, 0, 0, 0, 0, 0, 0, 0)
    report = account(stats, zero)
    assert report.total_energy == 0.0
    assert all(v == 0.0 for v in report.breakdown.values())


def test_account_refuses_empty_runs():
    stats = simulate(MESH, FULL, VC, [])
    with pytest.raises(ConfigError, match="no ejected flits"):
        account(stats, EnergyCoefficients())


def test_all_circuit_traffic_has_no_buffer_energy():
    layout = SubnetLayout(128, 2)
    plan = CircuitPlan(
        "e2e", ((CandidatePair(0, 3, 1, xy_route(MESH, 0, 3)),),)
    )
    trace = [TrafficEvent(c, 0, 3, PacketClass("control", 64), c) for c in range(0, 40, 8)]
    stats = simulate(MESH, layout, VC, trace, plan)
    assert stats.in_circuit_flits == stats.flits_ejected > 0
    report = account(stats, EnergyCoefficients())
    assert report.breakdown["buffer"] == 0.0
    assert report.breakdown["allocation"] == 0.0
    assert report.breakdown["crossbar"] > 0.0
    assert report.gated_savings > 0.0


def test_circuits_strictly_cut_dynamic_energy():
    # same trace, same layout: moving flits onto circuits removes the
    # buffer and allocation events while crossbar and link work match
    layout = SubnetLayout(128, 2)
    plan = CircuitPlan(
        "e2e",
        ((CandidatePair(0, 5, 1, xy_route(MESH, 0, 5)),
          CandidatePair(3, 12, 1, xy_route(MESH, 3, 12))),),
    )
    trace = []
    for c in range(0, 200, 5):
        trace.append(TrafficEvent(c, 0, 5, PacketClass("data", 640), len(trace)))
        trace.append(TrafficEvent(c, 3, 12, PacketClass("control", 128), len(trace)))
    buffered = simulate(MESH, layout, VC, trace)
    circuit = simulate(MESH, layout, VC, trace, plan)
    assert buffered.flits_ejected == circuit.flits_ejected
    rb = account(buffered, EnergyCoefficients())
    rc = account(circuit, EnergyCoefficients())
    assert rc.breakdown["buffer"] == 0.0 < rb.breakdown["buffer"]
    assert rc.breakdown["allocation"] == 0.0 < rb.breakdown["allocation"]
    assert rc.breakdown["crossbar"] == rb.breakdown["crossbar"]
    assert rc.breakdown["link"] == rb.breakdown["link"]


def test_gating_delta_is_exact():
    gated_layout = SubnetLayout(128, 4, gate_cs_buffers=True)
    open_layout = SubnetLayout(128, 4, gate_cs_buffers=False)
    trace = generate(SyntheticSpec("uniform_random", 0.04), MESH, 6, 500)
    coeffs = EnergyCoefficients()
    gated_stats = simulate(MESH, gated_layout, VC, trace)
    open_stats = simulate(MESH, open_layout, VC, trace)
    assert gated_stats.cycles_simulated == open_stats.cycles_simulated
    gated = account(gated_stats, coeffs)
    opened = account(open_stats, coeffs)
    delta = opened.breakdown["static"] - gated.breakdown["static"]
    assert delta == pytest.approx(gated_stats.gated_buffer_cycles * 0.1)
    assert gated.gated_savings == pytest.approx(delta)
    assert opened.gated_savings == 0.0


def test_link_energy_scales_with_subnet_width():
    stats = run_one_packet()
    half = account(stats, EnergyCoefficients(e_link_per_bit=0.005))
    full = account(stats, EnergyCoefficients())
    assert half.breakdown["link"] == pytest.approx(full.breakdown["link"] / 2)


def test_energy_coefficients_from_config(tmp_path):
    ini = tmp_path / "exp.ini"

    def coeffs(lines):
        ini.write_text("[experiment]\nmode = static_hybrid\n[energy]\n" + lines)
        return load_config(str(ini)).coeffs

    read = coeffs("e_crossbar = 2.5\np_router_other = 0\n")
    assert read == EnergyCoefficients(e_crossbar=2.5, p_router_other=0.0)
    assert read.e_buffer_write == 1.0  # untouched default
    for bad in ("e_fan = 1.0", "e_crossbar = fast", "e_buffer_write = -1.0"):
        with pytest.raises(ConfigError):
            coeffs(bad + "\n")
    with pytest.raises(ConfigError, match="e_buffer_write must be >= 0"):
        EnergyCoefficients(e_buffer_write=-1.0)


def test_report_rejects_breakdown_drift():
    with pytest.raises(ConfigError, match="breakdown does not sum to total"):
        EnergyReport(
            total_energy=10.0,
            energy_per_flit=10.0,
            breakdown={k: 1.0 for k in BREAKDOWN},
            gated_savings=0.0,
        )
