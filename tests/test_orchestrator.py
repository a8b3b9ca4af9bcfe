"""Experiment drivers: baseline, static two-pass, adaptive epochs."""

import dataclasses
import logging
import re
from pathlib import Path

import pytest

from hybridnoc import (
    DESK_EPOCH_CYCLES,
    SUMMARY_HEADER,
    ConfigError,
    ExperimentConfig,
    GaParams,
    MeshConfig,
    SubnetLayout,
    SyntheticSpec,
    TraceFormatError,
    VcConfig,
    build_plan,
    designated_pairs,
    generate,
    load_config,
    read_run_report,
    run_adaptive,
    run_baseline,
    run_experiment,
    run_report,
    run_static,
    save_trace,
    summary_rows,
    summary_table,
    write_run_report,
)
from hybridnoc.orchestrator import _CONFIG_KEYS, EVENT_KEYS

MESH = MeshConfig.grid(4, 4)
README = Path(__file__).resolve().parent.parent / "README.md"


def make_config(**over):
    base = dict(
        mesh=MESH,
        layout=SubnetLayout(128, 2),
        vc=VcConfig(),
        mode="static_hybrid",
        granularity="e2e",
        traffic_spec=SyntheticSpec("regular_mix", 0.05, regularity=1.0),
        traffic_cycles=2000,
        seed=3,
        label="t",
    )
    base.update(over)
    return ExperimentConfig(**base)


def placed(plan):
    """(src, dst) -> subnet of each of plan's circuits."""
    return {(c.src, c.dst): s for s, c in plan.all_circuits()}


def test_run_baseline_ignores_layout_split():
    cfg = make_config(mode="baseline_vc", layout=SubnetLayout(128, 8))
    result = run_baseline(cfg)
    assert result.stats.subnet_widths == [128]
    assert result.meta["width_bits"] == "128"
    assert result.stats.in_circuit_flits == 0
    assert result.energy is not None


def test_run_baseline_flit_math(tmp_path):
    # one data packet is 5 flits at the full 128-bit width
    trace_file = tmp_path / "one.csv"
    trace_file.write_text("# c,s,d,k\n0,0,5,data\n")
    cfg = make_config(
        mode="baseline_vc", traffic_spec=None, trace_path=str(trace_file),
        traffic_cycles=None,
    )
    result = run_baseline(cfg)
    assert result.stats.flits_ejected == 5


def test_run_static_places_circuits():
    cfg = make_config()
    production = run_static(cfg)
    assert production.label == "t"
    assert production.stats.in_circuit_flits > 0
    assert production.plan is not None and production.plan.circuit_count() > 0
    assert int(production.meta["plan_weight"]) > 0


def test_run_static_deterministic():
    a = run_static(make_config())
    b = run_static(make_config())
    assert a.stats == b.stats
    assert placed(a.plan) == placed(b.plan)


def test_run_static_empty_trace(tmp_path):
    trace_file = tmp_path / "empty.csv"
    trace_file.write_text("# nothing\n")
    cfg = make_config(traffic_spec=None, trace_path=str(trace_file), traffic_cycles=None)
    production = run_static(cfg)
    assert production.stats.flits_ejected == 0
    assert production.energy is None
    assert production.plan.circuit_count() == 0


def test_run_static_wrong_mode():
    with pytest.raises(ConfigError):
        run_static(make_config(mode="baseline_vc"))


def test_baseline_and_adaptive_wrong_mode():
    # a record's mode is its config's, so each driver runs only its own
    with pytest.raises(ConfigError, match="run_baseline needs"):
        run_baseline(make_config())
    with pytest.raises(ConfigError, match="run_adaptive needs"):
        run_adaptive(make_config())


def stationary_adaptive_config(**over):
    base = dict(
        mode="adaptive_hybrid",
        layout=SubnetLayout(128, 4),
        traffic_spec=SyntheticSpec("regular_mix", 0.05, regularity=0.9),
        traffic_cycles=9000,
        epoch_cycles=3000,
    )
    base.update(over)
    return make_config(**base)


def test_run_adaptive_epoch_structure():
    cfg = stationary_adaptive_config()
    epochs = run_adaptive(cfg)
    assert [er.meta["epoch"] for er in epochs] == ["0", "1", "2"]
    assert [er.label for er in epochs] == ["t-epoch0", "t-epoch1", "t-epoch2"]
    # nothing is known before the first profile, so epoch 0 runs all-VC
    assert epochs[0].plan.circuit_count() == 0
    assert epochs[0].profile is None
    assert epochs[0].stats.in_circuit_flits == 0
    for er in epochs[1:]:
        assert er.plan.circuit_count() > 0
        assert er.stats.in_circuit_flits > 0


def test_run_adaptive_stationary_traffic_converges():
    cfg = stationary_adaptive_config(
        traffic_spec=SyntheticSpec("regular_mix", 0.05, regularity=1.0)
    )
    epochs = run_adaptive(cfg)
    pairs1 = set(placed(epochs[1].plan))
    pairs2 = set(placed(epochs[2].plan))
    # the hot set does not move, so neither should the plan
    assert pairs1 == pairs2
    assert pairs1 == set(designated_pairs(cfg.mesh, cfg.seed, 8))


def test_run_adaptive_plans_come_from_reported_profiles():
    cfg = stationary_adaptive_config()
    epochs = run_adaptive(cfg)
    for er in epochs[1:]:
        rebuilt = build_plan(er.profile, cfg, adaptive=True)
        assert placed(rebuilt) == placed(er.plan)


def test_run_adaptive_short_trace_falls_back(caplog):
    cfg = make_config(
        mode="adaptive_hybrid", layout=SubnetLayout(128, 4),
        traffic_cycles=500, epoch_cycles=3000,
    )
    with caplog.at_level(logging.WARNING):
        epochs = run_adaptive(cfg)
    assert len(epochs) == 1
    assert epochs[0].label == "t-epoch0"
    assert epochs[0].meta == {"epoch": "0", "circuits": str(epochs[0].plan.circuit_count())}
    assert epochs[0].stats.in_circuit_flits > 0  # static-style, planned pass
    assert epochs[0].profile is not None
    assert any("single static-style pass" in rec.message for rec in caplog.records)


def test_run_adaptive_ga_is_flagged(caplog):
    cfg = stationary_adaptive_config(
        allocator="ga", ga=GaParams(generations=40), granularity="r2r"
    )
    with caplog.at_level(logging.WARNING):
        epochs = run_adaptive(cfg)
    assert any("comparison only" in rec.message for rec in caplog.records)
    assert epochs[1].plan.meta["note"] == "comparison only"
    assert list(epochs[1].meta) == ["epoch", "circuits", "note"]
    assert epochs[1].meta["note"] == "comparison only"


def test_run_experiment_dispatch():
    results = run_experiment(make_config(label="s"))
    assert [r.label for r in results] == ["s-profile", "s"]
    # the profile report is the all-VC run at the hybrid layout's width
    profile_run, production = results
    assert profile_run.mode == "static_hybrid"
    assert profile_run.plan is None
    assert profile_run.stats.in_circuit_flits == 0
    assert profile_run.stats.subnet_widths == [64, 64]
    assert profile_run.stats.flits_ejected == production.stats.flits_ejected
    assert production.stats == run_static(make_config(label="s")).stats
    epochs = run_experiment(stationary_adaptive_config(label="a"))
    assert [r.label for r in epochs] == ["a-epoch0", "a-epoch1", "a-epoch2"]
    base = run_experiment(make_config(mode="baseline_vc"))
    assert len(base) == 1 and base[0].mode == "baseline_vc"


def test_compare_self_is_unity():
    base = run_report(run_baseline(make_config(mode="baseline_vc")))
    rows = summary_rows([base], base)
    assert len(rows) == 1
    label, pct, nlat, nen = rows[0]
    assert label == "t"
    assert pct == 0.0
    assert nlat == pytest.approx(1.0)
    assert nen == pytest.approx(1.0)


def test_compare_rejects_empty_baseline(tmp_path):
    trace_file = tmp_path / "empty.csv"
    trace_file.write_text("# nothing\n")
    cfg = make_config(
        mode="baseline_vc", traffic_spec=None, trace_path=str(trace_file),
        traffic_cycles=None,
    )
    # a run that ejects no flits reports no energy to normalize by
    empty = run_report(run_baseline(cfg))
    assert "energy" not in empty
    good = run_report(run_baseline(make_config(mode="baseline_vc")))
    with pytest.raises(ValueError, match="baseline report is missing 'energy'"):
        summary_rows([good], empty)
    with pytest.raises(ValueError, match="report is missing 'energy'"):
        summary_rows([empty], good)


def test_summary_table_format():
    base = run_report(run_baseline(make_config(mode="baseline_vc")))
    text = summary_table(summary_rows([base], base))
    lines = text.splitlines()
    assert lines[0] == SUMMARY_HEADER
    assert lines[1].startswith("t,0.00,1.0000,1.0000")


def test_report_round_trip(tmp_path):
    production = run_static(make_config())
    path = tmp_path / "run.report"
    write_run_report(str(path), production)
    rep = read_run_report(str(path))
    assert rep["run"]["label"] == "t"
    assert rep["run"]["mode"] == "static_hybrid"
    assert int(rep["run"]["flits_ejected"]) == production.stats.flits_ejected
    assert float(rep["latency"]["mean"]) == pytest.approx(
        production.stats.mean_latency()
    )
    assert float(rep["energy"]["per_flit"]) == pytest.approx(
        production.energy.energy_per_flit
    )
    # the file holds the report record exactly, with and without a plan and
    # with the plan's note
    baseline = run_baseline(make_config(mode="baseline_vc"))
    ga_epoch = run_experiment(stationary_adaptive_config(
        allocator="ga", ga=GaParams(generations=5), label="ga",
    ))[1]
    assert ga_epoch.plan.meta["note"] == "comparison only"
    for i, result in enumerate((baseline, production, ga_epoch)):
        path = tmp_path / f"{i}.report"
        write_run_report(str(path), result)
        assert read_run_report(str(path)) == run_report(result)
    assert "plan" not in run_report(baseline)
    assert run_report(ga_epoch)["plan"]["note"] == "comparison only"


def test_read_run_report_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_run_report(str(tmp_path / "missing.report"))
    bad = tmp_path / "bad.report"
    bad.write_text("[something]\nkey = 1\n")
    with pytest.raises(TraceFormatError):
        read_run_report(str(bad))


@pytest.mark.parametrize(
    "over",
    [
        {"mode": "quantum"},
        {"allocator": "lp"},
        {"granularity": "socket"},
        {"allocator": "plan-file"},  # no plan_file given
        {"trace_path": "also.csv"},  # two traffic sources
        {"traffic_spec": None},  # no traffic source
        {"layout": SubnetLayout(128, 1)},  # hybrid needs a CS subnet
        {"epoch_cycles": 100, "config_period_cycles": 100},
        {"traffic_cycles": 0},
    ],
)
def test_config_validation_rejects(over):
    with pytest.raises(ConfigError):
        make_config(**over)


def test_config_validation_accepts_plain_baseline():
    # an undivided link is fine when nothing needs circuits
    make_config(mode="baseline_vc", layout=SubnetLayout(128, 1))


def test_epoch_and_period_defaults():
    cfg = make_config(
        mode="adaptive_hybrid", layout=SubnetLayout(128, 4), traffic_cycles=None
    )
    assert cfg.resolved_epoch_cycles() == DESK_EPOCH_CYCLES
    assert cfg.resolved_config_period() == DESK_EPOCH_CYCLES // 200
    assert cfg.resolved_traffic_cycles() == 2 * DESK_EPOCH_CYCLES
    pinned = dataclasses.replace(cfg, epoch_cycles=4000, config_period_cycles=7)
    assert pinned.resolved_epoch_cycles() == 4000
    assert pinned.resolved_config_period() == 7
    assert make_config().resolved_traffic_cycles() == 2000
    assert make_config(traffic_cycles=None).resolved_traffic_cycles() == 20_000


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(
        "[experiment]\n"
        "mode = adaptive_hybrid\n"
        "allocator = greedy\n"
        "granularity = r2r\n"
        "epoch_cycles = 5000\n"
        "seed = 9\n"
        "[mesh]\n"
        "width = 3\n"
        "height = 3\n"
        "ni_per_router = 2\n"
        "[layout]\n"
        "total_width_bits = 128\n"
        "subnet_count = 4\n"
        "[traffic]\n"
        "pattern = regular_mix\n"
        "injection_rate = 0.04\n"
        "regularity = 0.8\n"
        "cycles = 12000\n"
        "[energy]\n"
        "e_crossbar = 2.0\n"
    )
    cfg = load_config(str(path))
    assert cfg.mode == "adaptive_hybrid"
    assert cfg.granularity == "r2r"
    assert cfg.mesh.n_routers == 9 and cfg.mesh.n_nis == 18
    assert cfg.layout.subnet_count == 4
    assert cfg.traffic_spec.pattern == "regular_mix"
    assert cfg.traffic_cycles == 12000
    assert cfg.epoch_cycles == 5000
    assert cfg.seed == 9
    assert cfg.coeffs.e_crossbar == 2.0
    assert cfg.coeffs.e_buffer_write == 1.0
    assert cfg.label == "exp"  # defaults to the file stem


def test_load_config_mesh_preset_and_trace(tmp_path):
    trace_file = tmp_path / "t.csv"
    save_trace(generate(SyntheticSpec("uniform_random", 0.02), MeshConfig.cmp_4x4_51ni(), 1, 100), str(trace_file))
    path = tmp_path / "exp.ini"
    path.write_text(
        "[experiment]\nmode = static_hybrid\nlabel = cmp\n"
        "[mesh]\npreset = cmp-4x4-51ni\n"
        f"[traffic]\ntrace = {trace_file}\n"
    )
    cfg = load_config(str(path))
    assert cfg.mesh.n_nis == 51
    assert cfg.trace_path == str(trace_file)
    assert cfg.traffic_spec is None
    assert cfg.label == "cmp"


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "missing.ini"))
    bad = tmp_path / "bad.ini"
    bad.write_text("[experiment]\nmode = static_hybrid\n[traffic]\npattern = zipf\n")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    bad.write_text(
        "[experiment]\nmode = static_hybrid\n[layout]\nsubnet_count = 5\n"
        "[traffic]\npattern = uniform_random\n"
    )
    with pytest.raises(ConfigError):
        load_config(str(bad))
    bad.write_text("[experiment]\nmode = static_hybrid\n[mesh]\nwidth = x\n")
    with pytest.raises(ConfigError):
        load_config(str(bad))
    # one mesh source and one traffic source: a preset or a grid, a trace or
    # a generator, never both
    bad.write_text(
        "[experiment]\nmode = static_hybrid\n"
        "[mesh]\npreset = cmp-4x4-51ni\nwidth = 8\nheight = 8\n"
    )
    with pytest.raises(ConfigError, match="preset cannot be combined with width, height"):
        load_config(str(bad))
    bad.write_text(
        "[experiment]\nmode = static_hybrid\n"
        "[traffic]\ntrace = t.csv\npattern = hotspot\ninjection_rate = 0.3\ncycles = 5\n"
    )
    with pytest.raises(
        ConfigError, match="trace cannot be combined with pattern, injection_rate, cycles"
    ):
        load_config(str(bad))
    # sections the loader does not read are rejected, not ignored
    for text in ("[experiment]\nmode = static_hybrid\n[router]\nstages = 4\n",
                 "[DEFAULT]\nseed = 3\n[experiment]\nmode = static_hybrid\n"):
        bad.write_text(text)
        with pytest.raises(ConfigError, match="unknown config section"):
            load_config(str(bad))


def test_readme_config_block_loads_and_names_every_key(tmp_path):
    text = README.read_text(encoding="utf-8").split("## Experiment config format", 1)[1]
    block = text.split("```ini\n", 1)[1].split("```", 1)[0]
    ini = tmp_path / "readme.ini"
    ini.write_text(block)
    load_config(str(ini))
    # keys set in the block, or named on a commented "; key =" line
    named = {}
    for line in block.splitlines():
        header = re.match(r"\[(\w+)\]", line)
        if header:
            section = named.setdefault(header.group(1), set())
        key = re.match(r";?\s*(\w+)\s*=", line)
        if key:
            section.add(key.group(1))
    assert named == {name: set(keys) for name, keys in _CONFIG_KEYS.items()}


def test_readme_lists_the_events_keys_in_report_order():
    text = README.read_text(encoding="utf-8").split("`[events]` holds, in this order,", 1)[1]
    assert tuple(re.findall(r"`(\w+)`", text.split(";", 1)[0])) == EVENT_KEYS


def test_two_phase_trace_recovers(tmp_path):
    # hot pairs flip at an epoch boundary; the next profile must catch it
    epoch = 3000
    spec = SyntheticSpec("regular_mix", 0.05, regularity=1.0, designated_pair_count=8)
    ph1 = generate(spec, MESH, 11, 2 * epoch)
    ph2 = generate(spec, MESH, 77, 2 * epoch)
    shift = max(ev.packet_id for ev in ph1) + 1
    ph2 = [
        dataclasses.replace(
            ev, inject_cycle=ev.inject_cycle + 2 * epoch, packet_id=ev.packet_id + shift
        )
        for ev in ph2
    ]
    trace_file = tmp_path / "flip.csv"
    save_trace(ph1 + ph2, str(trace_file))
    cfg = make_config(
        mode="adaptive_hybrid", layout=SubnetLayout(128, 4),
        traffic_spec=None, trace_path=str(trace_file), traffic_cycles=None,
        epoch_cycles=epoch, label="flip",
    )
    epochs = run_adaptive(cfg)
    assert len(epochs) == 4
    new_hot = set(designated_pairs(MESH, 77, 8))
    stale = set(placed(epochs[2].plan))
    fresh = set(placed(epochs[3].plan))
    # epoch 2 still runs the pre-flip plan; epoch 3 was planned from
    # post-flip observations
    assert not (stale & new_hot)
    assert fresh & new_hot
    assert epochs[2].stats.percent_in_circuit() < 20.0
    assert epochs[3].stats.percent_in_circuit() > 50.0


def test_sparse_trace_drains_through_adaptive_epochs(tmp_path):
    # three packets 15M cycles apart under 10M-cycle epochs: the last one
    # comes 31M cycles in, far past any fixed drain allowance from cycle 0
    trace_file = tmp_path / "sparse.csv"
    trace_file.write_text(
        "# c,s,d,k\n0,0,15,data\n15000000,0,15,data\n31000000,3,12,control\n"
    )
    cfg = make_config(
        mode="adaptive_hybrid", layout=SubnetLayout(128, 4),
        traffic_spec=None, trace_path=str(trace_file), traffic_cycles=None,
        epoch_cycles=10_000_000, label="sparse",
    )
    epochs = run_adaptive(cfg)
    assert len(epochs) == 4
    carried = 0
    for er in epochs:
        st = er.stats
        assert st.cycles_simulated > 0
        assert carried + st.flits_injected - st.flits_ejected == st.in_flight
        carried = st.in_flight
    assert carried == 0
    # two 640-bit packets and one 128-bit one at the 32-bit subnet width
    assert sum(er.stats.flits_ejected for er in epochs) == 20 + 20 + 4
    # epoch 1 runs the circuit planned from epoch 0's packet
    assert (0, 15) in placed(epochs[1].plan)
    assert epochs[1].stats.in_circuit_flits == 20
