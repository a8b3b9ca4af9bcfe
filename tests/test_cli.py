"""Exercise the console entry points end to end."""

import os
import subprocess
import sys

import pytest

import hybridnoc
from hybridnoc import (
    SUMMARY_HEADER,
    ConfigError,
    GaParams,
    MeshConfig,
    SimulationError,
    SyntheticSpec,
    TraceFormatError,
    generate,
    load_config,
    load_plan,
    profile,
    read_run_report,
    save_profile,
    save_trace,
)
from hybridnoc.cli import build_parser, main
from hybridnoc.simcore import MAX_BUFFER_DEPTH_FLITS, MAX_VCS_PER_VNET, MAX_VNETS
from hybridnoc.topology import MAX_CS_SUBNETS, MAX_MESH_SIDE, MAX_NIS
from hybridnoc.traffic import MAX_PAYLOAD_BITS

MESH = MeshConfig.grid(4, 4)


def write_static_config(tmp_path, label="demo", extra=""):
    path = tmp_path / f"{label}.ini"
    path.write_text(
        "[experiment]\n"
        "mode = static_hybrid\n"
        f"label = {label}\n"
        "[mesh]\n"
        "width = 4\n"
        "height = 4\n"
        "[layout]\n"
        "total_width_bits = 128\n"
        "subnet_count = 2\n"
        "[traffic]\n"
        "pattern = regular_mix\n"
        "injection_rate = 0.05\n"
        "regularity = 1.0\n"
        "cycles = 2000\n"
        + extra
    )
    return str(path)


def test_run_writes_reports(tmp_path, capsys):
    cfg = write_static_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", cfg, "--output", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "demo:" in stdout and "reports written to" in stdout
    assert (out / "demo-profile.report").is_file()
    assert (out / "demo.report").is_file()
    assert (out / "demo.plan").is_file()


def test_compare_reads_reports(tmp_path, capsys):
    out = tmp_path / "out"
    base_cfg = tmp_path / "base.ini"
    base_cfg.write_text(
        "[experiment]\nmode = baseline_vc\nlabel = base\n"
        "[mesh]\nwidth = 4\nheight = 4\n"
        "[traffic]\npattern = regular_mix\ninjection_rate = 0.05\n"
        "regularity = 1.0\ncycles = 2000\n"
    )
    assert main(["run", str(base_cfg), "--output", str(out)]) == 0
    assert main(["run", write_static_config(tmp_path), "--output", str(out)]) == 0
    capsys.readouterr()
    table_file = tmp_path / "summary.csv"
    rc = main([
        "compare", str(out / "base.report"), str(out / "demo.report"),
        "--out", str(table_file),
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    lines = stdout.splitlines()
    assert lines[0] == SUMMARY_HEADER
    assert lines[1].startswith("demo,")
    assert table_file.read_text() == stdout


def test_allocate_emits_loadable_plan(tmp_path, capsys):
    events = generate(
        SyntheticSpec("regular_mix", 0.05, regularity=1.0), MESH, 5, 3000
    )
    prof = profile(events, MESH, "ni")
    prof_path = tmp_path / "traffic.profile"
    save_profile(prof, str(prof_path))
    plan_path = tmp_path / "circuits.plan"
    rc = main([
        "allocate", str(prof_path), "--mesh", "4x4", "--subnets", "2",
        "--limit", "6", "--out", str(plan_path),
    ])
    assert rc == 0
    assert "-> " in capsys.readouterr().out
    plan = load_plan(str(plan_path), MESH)
    assert plan.granularity == "e2e"
    assert plan.subnet_count == 2
    assert 0 < plan.circuit_count() <= 6


def test_allocate_rejects_negative_limit(tmp_path, capsys):
    prof_path = tmp_path / "p.profile"
    prof_path.write_text("0,5,10,2\n1,6,4,2\n")
    plan_path = tmp_path / "p.plan"
    rc = main([
        "allocate", str(prof_path), "--mesh", "4x4", "--limit", "-1",
        "--out", str(plan_path),
    ])
    assert rc == 1
    assert "config error" in capsys.readouterr().err
    assert not plan_path.exists()


def test_only_the_ga_reads_generations_and_seed(tmp_path, capsys):
    # greedy and oracle ignore --generations and --seed, bad values included
    prof_path = tmp_path / "p.profile"
    prof_path.write_text("0,5,10,2\n1,6,4,2\n3,12,7,3\n")
    for method in ("greedy", "oracle", "ga"):
        plans = []
        for generations, seed in (("3", "0"), ("-1", "7")):
            plan_path = tmp_path / f"{method}{len(plans)}.plan"
            rc = main(["allocate", str(prof_path), "--method", method, "--subnets", "2",
                       "--generations", generations, "--seed", seed, "--out", str(plan_path)])
            plans.append(plan_path.read_text() if rc == 0 else rc)
        if method == "ga":
            assert isinstance(plans[0], str) and plans[1] == 1
            assert "generations cannot be negative" in capsys.readouterr().err
        else:
            assert isinstance(plans[0], str) and plans[0] == plans[1]


def test_option_defaults_are_their_owners_defaults(tmp_path):
    # each default is read from the one place that owns it: a config file
    # with no [traffic] keys, an ExperimentConfig, a SyntheticSpec, GaParams
    ini = tmp_path / "bare.ini"
    ini.write_text("")
    config = load_config(str(ini))
    spec = config.traffic_spec
    ga = GaParams()
    sweep = build_parser().parse_args(["sweep"])
    assert (sweep.pattern, sweep.rate, sweep.cycles, sweep.regularity) == \
        (spec.pattern, spec.injection_rate, config.resolved_traffic_cycles(), spec.regularity)
    assert (sweep.allocator, sweep.granularity, sweep.seed) == \
        (config.allocator, config.granularity, config.seed)
    alloc = build_parser().parse_args(["allocate", "p.profile", "--out", "p.plan"])
    assert (alloc.granularity, alloc.generations, alloc.seed) == \
        (config.granularity, ga.generations, ga.seed)


def test_allocate_requires_out(tmp_path, capsys):
    prof_path = tmp_path / "p.profile"
    prof_path.write_text("# pair profile\n")
    assert main(["allocate", str(prof_path)]) == 1


@pytest.mark.parametrize(
    "row, granularity",
    [("0,99,10,3", "e2e"), ("-1,5,10,3", "e2e"), ("0,16,10,3", "r2r")],
)
def test_allocate_rejects_out_of_mesh_endpoints(tmp_path, capsys, row, granularity):
    prof_path = tmp_path / "p.profile"
    prof_path.write_text("0,5,10,3\n" + row + "\n")
    rc = main([
        "allocate", str(prof_path), "--mesh", "4x4", "--granularity", granularity,
        "--out", str(tmp_path / "p.plan"),
    ])
    assert rc == 2
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "p.plan").exists()


def test_sweep_rates_csv(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    rc = main([
        "sweep", "--mesh", "2x2", "--rates", "0.02,0.05", "--cycles", "2000",
        "--fabric", "vc", "--out", str(out_file),
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    lines = stdout.splitlines()
    assert lines[0] == ("fabric,rate,mean_latency,p99_latency,unloaded_mean,saturated,"
                        "in_circuit_fraction,flits_ejected")
    assert len(lines) == 3
    assert lines[1].startswith("vc,0.0200,")
    assert lines[1].split(",")[6] == "0.0000"
    assert int(lines[1].split(",")[7]) > 0
    assert out_file.read_text() == stdout


def test_sweep_rates_hybrid_reports_circuit_traffic(capsys):
    rc = main([
        "sweep", "--mesh", "4x4", "--rates", "0.02", "--cycles", "2000",
        "--fabric", "hybrid", "--subnets", "4", "--pattern", "regular_mix",
        "--regularity", "0.9",
    ])
    assert rc == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[0] == "hybrid"
    assert float(row[6]) > 0


RATE_SWEEP_HEADER = ("fabric,rate,mean_latency,p99_latency,unloaded_mean,saturated,"
                     "in_circuit_fraction,flits_ejected\n")

# golden bytes of the hybrid rate sweep below; the frozen copy's hybrid sweep
# installs no circuits, so these rows are pinned here instead
HYBRID_SWEEP_TABLES = {
    "e2e": RATE_SWEEP_HEADER + (
        "hybrid,0.0200,18.90,56,7.70,0,0.9967,2435\n"
        "hybrid,0.1000,175.10,780,7.80,1,0.9569,10232\n"
        "hybrid,0.3000,609.92,1478,9.37,1,0.8319,13399\n"
    ),
    "r2r": RATE_SWEEP_HEADER + (
        "hybrid,0.0200,26.12,73,13.68,0,0.9868,2427\n"
        "hybrid,0.1000,301.53,873,13.66,1,0.9338,8722\n"
        "hybrid,0.3000,621.25,1535,14.51,1,0.7706,11301\n"
    ),
}


@pytest.mark.parametrize("granularity", ["e2e", "r2r"])
def test_hybrid_rate_sweep_prints_the_golden_table(capsys, granularity):
    assert main([
        "sweep", "--mesh", "4x4", "--rates", "0.02,0.1,0.3", "--cycles", "2000",
        "--seed", "3", "--subnets", "4", "--fabric", "hybrid", "--pattern", "regular_mix",
        "--regularity", "0.9", "--granularity", granularity,
    ]) == 0
    assert capsys.readouterr().out == HYBRID_SWEEP_TABLES[granularity]


def test_hybrid_rate_sweep_plans_with_the_allocator_option(capsys):
    # the oracle refuses the 4x4 fold at 0.3, so the sweep must have asked it
    assert main(["sweep", "--mesh", "4x4", "--rates", "0.3", "--cycles", "200",
                 "--fabric", "hybrid", "--subnets", "4", "--allocator", "oracle"]) == 1
    assert "exceed the oracle cap" in capsys.readouterr().err


def test_rate_sweep_at_rate_zero_on_a_one_ni_mesh_prints_its_row(capsys):
    # only a nonzero rate needs a second interface, whatever --rate says
    assert main(["sweep", "--mesh", "1x1", "--rates", "0"]) == 0
    assert capsys.readouterr().out == RATE_SWEEP_HEADER + "vc,0.0000,0.00,0,0.00,0,0.0000,0\n"


def test_sweep_subnet_counts(capsys):
    rc = main([
        "sweep", "--mesh", "2x2", "--subnet-counts", "2,4", "--cycles", "1500",
        "--rate", "0.05", "--pattern", "regular_mix", "--regularity", "1.0",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == SUMMARY_HEADER
    assert lines[1].startswith("subnets-2,")
    assert lines[2].startswith("subnets-4,")


# golden bytes of `sweep --mesh 2x2 --subnet-counts 2,4 --cycles 1500`, as
# printed when the sweep still normalized live results instead of reports
SWEEP_2X2_TABLE = (
    "config,percent_in_circuit,norm_latency,norm_energy\n"
    "subnets-2,37.65,0.9799,0.5167\n"
    "subnets-4,100.00,0.9391,0.2532\n"
)


def test_subnet_sweep_and_compare_print_the_golden_table(tmp_path, capsys):
    argv = ["sweep", "--mesh", "2x2", "--subnet-counts", "2,4", "--cycles", "1500"]
    assert main(argv) == 0
    assert capsys.readouterr().out == SWEEP_2X2_TABLE
    # the same runs from INI files: uniform_random at 0.05, seed 0, greedy e2e
    out = tmp_path / "out"
    labels = {"baseline": 1, "subnets-2": 2, "subnets-4": 4}
    for label, k in labels.items():
        ini = tmp_path / f"{label}.ini"
        ini.write_text(
            f"[experiment]\nmode = {'baseline_vc' if k == 1 else 'static_hybrid'}\n"
            f"label = {label}\n[mesh]\nwidth = 2\nheight = 2\n"
            f"[layout]\nsubnet_count = {k}\n[traffic]\ncycles = 1500\n"
        )
        assert main(["run", str(ini), "--output", str(out)]) == 0
    capsys.readouterr()
    assert main(["compare"] + [str(out / f"{label}.report") for label in labels]) == 0
    assert capsys.readouterr().out == SWEEP_2X2_TABLE


def test_compare_without_baseline_energy_is_exit_2(tmp_path, capsys):
    # a run that ejects no flits writes no [energy] section
    base_cfg = tmp_path / "base.ini"
    base_cfg.write_text(
        "[experiment]\nmode = baseline_vc\nlabel = base\n"
        "[traffic]\ninjection_rate = 0\ncycles = 200\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(base_cfg), "--output", str(out)]) == 0
    assert main(["run", write_static_config(tmp_path), "--output", str(out)]) == 0
    capsys.readouterr()
    assert main(["compare", str(out / "base.report"), str(out / "demo.report")]) == 2
    assert "baseline report is missing 'energy'" in capsys.readouterr().err


def test_subnet_sweep_without_baseline_flits_is_exit_1(capsys, monkeypatch):
    # the empty baseline is caught before any static config runs
    def run_static(config):
        raise AssertionError("run_static called")

    monkeypatch.setattr(hybridnoc.cli, "run_static", run_static)
    assert main([
        "sweep", "--mesh", "2x2", "--subnet-counts", "2", "--rate", "0.0001",
        "--cycles", "5",
    ]) == 1
    err = capsys.readouterr().err
    assert "config error: the baseline run ejected no flits" in err


@pytest.mark.parametrize("cycles", ["0", "-5"])
def test_rate_sweep_needs_positive_cycles(capsys, cycles):
    assert main(["sweep", "--rates", "0.01", "--cycles", cycles]) == 1
    assert "cycles must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--mesh", "1x1", "--rates", "0.01"],
    ["sweep", "--mesh", "1x1", "--subnet-counts", "2"],
    ["run", "{ini}"],
], ids=["rate-sweep", "subnet-sweep", "ini"])
def test_traffic_on_a_one_ni_mesh_is_exit_1(tmp_path, capsys, argv):
    ini = tmp_path / "one.ini"
    ini.write_text("[experiment]\nmode = baseline_vc\n[mesh]\nwidth = 1\nheight = 1\n")
    assert main([arg.format(ini=ini) for arg in argv]) == 1
    assert "needs at least two interfaces" in capsys.readouterr().err


def test_sweep_needs_exactly_one_axis(capsys):
    assert main(["sweep", "--mesh", "2x2"]) == 1
    assert main([
        "sweep", "--rates", "0.1", "--subnet-counts", "2",
    ]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("listed", [",", ""], ids=["comma", "empty"])
@pytest.mark.parametrize("axis", ["--rates", "--subnet-counts"])
def test_sweep_axis_with_no_value_is_exit_1(capsys, monkeypatch, axis, listed):
    # the empty axis is refused before any run, the subnet sweep's baseline included
    def run(config):
        raise AssertionError("a sweep run started")

    monkeypatch.setattr(hybridnoc.cli, "run_baseline", run)
    monkeypatch.setattr(hybridnoc.cli, "sweep_injection", run)
    assert main(["sweep", "--mesh", "2x2", "--cycles", "200", axis, listed]) == 1
    captured = capsys.readouterr()
    assert f"config error: list {listed!r} holds no value" in captured.err
    assert captured.out == ""


def test_missing_config_is_exit_1(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.ini")]) == 1
    assert "config error" in capsys.readouterr().err


def test_full_scale_key_is_exit_1(tmp_path, capsys):
    # paper-scale epochs are epoch_cycles = 200000000; there is no switch
    ini = tmp_path / "exp.ini"
    ini.write_text("[experiment]\nmode = adaptive_hybrid\nfull_scale = true\n")
    assert main(["run", str(ini)]) == 1
    assert "unknown key 'full_scale'" in capsys.readouterr().err


def test_bad_ga_values_are_exit_1_under_any_allocator(tmp_path, capsys):
    # the config runs the greedy allocator, so only loading reads [ga]
    ini = write_static_config(tmp_path, extra="[ga]\npopulation_size = 1\nelitism_count = 5\n")
    assert main(["run", ini, "--output", str(tmp_path / "out")]) == 1
    assert "population must hold at least two" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra,message", [
    ("data_payload_bits = 0\n", "payload bits must be positive"),
    ("injection_rate = 5\n", "exceeds one packet per NI per cycle"),
    # too large to size in flits, which are averaged as floats
    ("data_payload_bits = 1" + "0" * 400 + "\n", "data_payload_bits is too large"),
], ids=["payload-bits-0", "rate-5", "payload-bits-too-large"])
def test_bad_traffic_values_are_exit_1(tmp_path, capsys, extra, message):
    ini = tmp_path / "t.ini"
    ini.write_text(
        "[experiment]\nmode = baseline_vc\n"
        "[mesh]\nwidth = 4\nheight = 4\n"
        "[traffic]\npattern = uniform_random\ncycles = 200\n" + extra
    )
    assert main(["run", str(ini), "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, most", [
    ("vnets", MAX_VNETS),
    ("vcs_per_vnet", MAX_VCS_PER_VNET),
    ("buffer_depth_flits", MAX_BUFFER_DEPTH_FLITS),
])
def test_vc_value_above_its_bound_is_exit_1(tmp_path, capsys, key, most):
    # VcConfig takes the bound itself and rejects one more as the config
    # loads, before an engine is built
    assert getattr(hybridnoc.VcConfig(**{key: most}), key) == most
    ini = write_static_config(tmp_path, extra=f"[vc]\n{key} = {most + 1}\n")
    assert main(["run", ini, "--output", str(tmp_path / "out")]) == 1
    assert f"config error: {key} must be at most {most}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("args", [
    ["--rates", "5"],
    ["--rates", "-1"],
    ["--rates", "0.02,5"],
    ["--subnet-counts", "2", "--rate", "5"],
], ids=["rates-5", "rates-minus-1", "second-rate-5", "subnet-counts-rate-5"])
def test_bad_sweep_rates_are_exit_1(capsys, args):
    assert main(["sweep", "--mesh", "2x2", "--cycles", "200"] + args) == 1
    assert "config error" in capsys.readouterr().err


def test_bad_mesh_is_exit_1(capsys):
    assert main(["sweep", "--mesh", "donut", "--rates", "0.1"]) == 1


@pytest.mark.parametrize("argv", [
    ["sweep", "--mesh", f"{MAX_MESH_SIDE + 1}x2", "--rates", "0.1"],
    ["sweep", "--mesh", f"2x{MAX_MESH_SIDE + 1}", "--subnet-counts", "2"],
    ["allocate", "p.profile", "--mesh", f"{MAX_MESH_SIDE + 1}x1", "--out", "p.plan"],
], ids=["sweep-width", "sweep-height", "allocate-width"])
def test_mesh_option_above_its_bound_is_exit_1(tmp_path, capsys, argv):
    # --mesh WxH is bounded as it is parsed, before the profile is read
    assert main(argv) == 1
    assert f"config error: mesh sides must be 1 to {MAX_MESH_SIDE}" in capsys.readouterr().err


@pytest.mark.parametrize("mesh, message", [
    (f"width = {MAX_MESH_SIDE + 1}\nheight = 2\n", f"mesh sides must be 1 to {MAX_MESH_SIDE}"),
    (f"width = 2\nheight = {MAX_MESH_SIDE + 1}\n", f"mesh sides must be 1 to {MAX_MESH_SIDE}"),
    (f"width = 2\nheight = 1\nni_per_router = {MAX_NIS // 2 + 1}\n",
     f"a mesh needs 1 to {MAX_NIS} network interfaces"),
], ids=["width", "height", "one-value-ni-per-router"])
def test_mesh_section_above_its_bound_is_exit_1(tmp_path, capsys, mesh, message):
    ini = tmp_path / "t.ini"
    ini.write_text("[experiment]\nmode = baseline_vc\n[mesh]\n" + mesh
                   + "[traffic]\ncycles = 200\n")
    assert main(["run", str(ini), "--output", str(tmp_path / "out")]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # the bound itself loads
    ini.write_text(f"[mesh]\nwidth = {MAX_MESH_SIDE}\nheight = 2\nni_per_router = "
                   f"{MAX_NIS // (2 * MAX_MESH_SIDE)}\n")
    assert hybridnoc.load_config(str(ini)).mesh.n_nis == MAX_NIS


def test_payload_bits_above_the_bound_are_exit_1(tmp_path, capsys):
    for key in ("control_payload_bits", "data_payload_bits"):
        assert getattr(SyntheticSpec("uniform_random", 0.01, **{key: MAX_PAYLOAD_BITS}),
                       key) == MAX_PAYLOAD_BITS
        ini = write_static_config(tmp_path, extra=f"{key} = {MAX_PAYLOAD_BITS + 1}\n")
        assert main(["run", ini, "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"config error: {key} is too large: at most {MAX_PAYLOAD_BITS}" in err
        assert not (tmp_path / "out").exists()


def test_corrupt_trace_is_exit_2(tmp_path, capsys):
    trace_path = tmp_path / "bad.csv"
    trace_path.write_text("0,0,5,data\n1,0,oops,data\n")
    cfg = tmp_path / "t.ini"
    cfg.write_text(
        "[experiment]\nmode = baseline_vc\n"
        "[mesh]\nwidth = 4\nheight = 4\n"
        f"[traffic]\ntrace = {trace_path}\n"
    )
    assert main(["run", str(cfg)]) == 2
    assert "data error" in capsys.readouterr().err


def test_usage_error_is_exit_1(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_module_entry_point(tmp_path):
    # the child imports the same hybridnoc as this process, installed or not
    src = os.path.dirname(os.path.dirname(hybridnoc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hybridnoc", "--help"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "sweep" in proc.stdout


def test_trace_reuse_through_cli(tmp_path, capsys):
    # a saved trace drives the same run the generator would
    events = generate(
        SyntheticSpec("regular_mix", 0.05, regularity=1.0), MESH, 0, 2000
    )
    trace_path = tmp_path / "t.csv"
    save_trace(events, str(trace_path))
    cfg = tmp_path / "t2.ini"
    cfg.write_text(
        "[experiment]\nmode = static_hybrid\nlabel = fromtrace\n"
        "[mesh]\nwidth = 4\nheight = 4\n"
        "[layout]\ntotal_width_bits = 128\nsubnet_count = 2\n"
        f"[traffic]\ntrace = {trace_path}\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--output", str(out)]) == 0
    assert (out / "fromtrace.report").is_file()
    stdout = capsys.readouterr().out
    assert "fromtrace:" in stdout


# --- exit codes: configuration exits 1, a malformed data file exits 2 ---------

def test_every_exported_error_maps_to_an_exit_code():
    errors = [obj for obj in vars(hybridnoc).values()
              if isinstance(obj, type) and issubclass(obj, BaseException)]
    assert errors
    for error in errors:
        assert issubclass(error, (ConfigError, TraceFormatError, SimulationError)), error


def run_ini(tmp_path, body, name="t.ini"):
    """main(["run", ...]) on an INI file holding body (text or bytes)."""
    ini = tmp_path / name
    if isinstance(body, str):
        body = body.encode("utf-8")
    ini.write_bytes(body)
    return main(["run", str(ini), "--output", str(tmp_path / "out")])


def test_more_designated_pairs_than_the_mesh_has_is_exit_1(tmp_path, capsys):
    # a 4x4 mesh offers 16 * 15 = 240 distinct NI pairs
    body = ("[experiment]\nmode = baseline_vc\n"
            "[traffic]\npattern = regular_mix\ndesignated_pair_count = 1000\ncycles = 200\n")
    assert run_ini(tmp_path, body) == 1
    err = capsys.readouterr().err
    assert "config error: designated_pair_count exceeds the 240 NI pairs" in err
    assert not (tmp_path / "out").exists()


def test_rate_sweep_with_more_designated_pairs_than_the_mesh_has_is_exit_1(capsys):
    argv = ["sweep", "--rates", "0.1", "--pattern", "regular_mix", "--mesh", "2x1",
            "--cycles", "100"]
    assert main(argv) == 1
    assert "config error: designated_pair_count exceeds the 2 NI pairs" in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    "mode = baseline_vc\n",
    "[experiment]\nmode = baseline_vc\nmode = static_hybrid\n",
    "[experiment]\nlabel = caf\xe9\n".encode("latin-1"),
], ids=["no-section-header", "key-given-twice", "not-utf8"])
def test_config_file_that_does_not_parse_is_exit_1(tmp_path, capsys, body):
    assert run_ini(tmp_path, body) == 1
    assert "config error: cannot parse config file" in capsys.readouterr().err


@pytest.mark.parametrize("body, fragment", [
    ("[experiment]\nlabel = a/b\n", "cannot name a report file"),
    ("[experiment]\nlabel = a\0b\n", "cannot name a report file"),
    ("[experiment]\nseed = 50%\n", "seed must be of type int, got '50%'"),
    ("injection_rate = nan\n", "injection_rate must be at least 0"),
    ("[energy]\ne_crossbar = nan\n", "e_crossbar must be >= 0"),
    ("[experiment]\nmode = adaptive_hybrid\nepoch_cycles = 40\nconfig_period_cycles = -1\n",
     "config period must be at least 0"),
    ("[mesh]\nni_per_router = 1,x\n", "ni_per_router must be integers, got '1,x'"),
], ids=["label-slash", "label-nul", "percent", "nan-rate", "nan-energy", "negative-period",
        "ni-per-router"])
def test_values_are_checked_as_the_config_loads(tmp_path, capsys, body, fragment):
    # body goes on from [traffic]; the output directory is made only after
    # the config has loaded
    assert run_ini(tmp_path, "[traffic]\ncycles = 100\n" + body) == 1
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_percent_in_a_config_value_is_read_literally(tmp_path, capsys):
    body = "[experiment]\nmode = baseline_vc\nlabel = 100%\n[traffic]\ncycles = 100\n"
    assert run_ini(tmp_path, body) == 0
    report = read_run_report(str(tmp_path / "out" / "100%.report"))
    assert report["run"]["label"] == "100%"


def test_permutation_on_a_one_ni_mesh_sends_nothing(tmp_path):
    # the derangement draw for a single NI never ended; run it in a child
    # so that a hang fails the test instead of stalling the suite
    ini = tmp_path / "one.ini"
    ini.write_text("[experiment]\nmode = baseline_vc\n[mesh]\nwidth = 1\nheight = 1\n"
                   "[traffic]\npattern = permutation\ninjection_rate = 0\ncycles = 50\n")
    src = os.path.dirname(os.path.dirname(hybridnoc.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "hybridnoc", "run", str(ini), "--output", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "flits=0" in proc.stdout


def plan_file_config(tmp_path, plan):
    plan_path = tmp_path / "c.plan"
    plan_path.write_bytes(plan if isinstance(plan, bytes) else plan.encode())
    return (f"[experiment]\nmode = static_hybrid\nallocator = plan-file\nplan_file = {plan_path}\n"
            "[traffic]\ncycles = 200\n")


@pytest.mark.parametrize("plan, fragment", [
    ("granularity=e2e\n0,0,5\n", "line 1: bad plan header"),
    ("# NIs 0-15\ngranularity=e2e subnets=1\n0,0,16\n", "line 3: circuit 0,16 leaves the mesh"),
    ("granularity=e2e subnets=1\n0,0,3\n\n0,1,2\n", "line 4: circuit conflicts with line 2"),
    (f"granularity=e2e subnets={MAX_CS_SUBNETS + 1}\n0,0,3\n",
     f"line 1: a plan has at most {MAX_CS_SUBNETS} subnets"),
    ("granularity=e2e subnets=2\n0,0,3\n# again\n1,0,3\n", "line 4: pair repeats line 2"),
], ids=["header", "off-mesh", "conflict", "subnets", "repeat"])
def test_malformed_plan_file_is_exit_2(tmp_path, capsys, plan, fragment):
    assert run_ini(tmp_path, plan_file_config(tmp_path, plan)) == 2
    assert f"data error: {fragment}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1_0", "+5", "\u0663"], ids=["underscore", "plus", "digit"])
@pytest.mark.parametrize("kind", ["trace", "profile", "plan"])
def test_data_file_integer_that_is_not_ascii_decimal_is_exit_2(tmp_path, capsys, kind, value):
    # int() reads the value as 10, 5 or 3, each of which the file could hold
    if kind == "trace":
        (tmp_path / "t.csv").write_text(f"# records\n0,1,2,data\n{value},1,2,data\n",
                                        encoding="utf-8")
        rc = run_ini(tmp_path, f"[traffic]\ntrace = {tmp_path / 't.csv'}\n")
        line = 3
    elif kind == "profile":
        (tmp_path / "p.profile").write_text(f"0,5,10,3\n1,6,{value},2\n", encoding="utf-8")
        rc = main(["allocate", str(tmp_path / "p.profile"), "--out", str(tmp_path / "c.plan")])
        line = 2
    else:
        rc = run_ini(tmp_path, plan_file_config(
            tmp_path, f"granularity=e2e subnets=1\n0,0,{value}\n".encode()))
        line = 2
    assert rc == 2
    assert (f"data error: line {line}: {value!r} is not an ASCII decimal integer"
            in capsys.readouterr().err)


def test_plan_header_subnet_count_in_another_script_is_exit_2(tmp_path, capsys):
    body = plan_file_config(tmp_path, "granularity=e2e subnets=\u0662\n0,0,3\n".encode())
    assert run_ini(tmp_path, body) == 2
    assert "data error: line 1: bad plan header" in capsys.readouterr().err


def test_plan_file_with_another_allocator_is_exit_1(tmp_path, capsys):
    # the file is never opened, so that it is missing is not the error
    body = ("[experiment]\nmode = static_hybrid\nallocator = greedy\n"
            "plan_file = missing.plan\n[traffic]\ncycles = 200\n")
    assert run_ini(tmp_path, body) == 1
    assert "config error: plan_file goes with allocator plan-file" in capsys.readouterr().err


def test_plan_file_of_another_granularity_is_exit_1(tmp_path, capsys):
    # an r2r plan under the default granularity, e2e
    body = plan_file_config(tmp_path, "granularity=r2r subnets=1\n0,0,3\n")
    assert run_ini(tmp_path, body) == 1
    assert "config error: plan file is r2r, the config asks for e2e" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["static_hybrid", "adaptive_hybrid"])
def test_plan_file_with_more_subnets_than_the_layout_is_exit_1(tmp_path, capsys, mode):
    # the default layout has one circuit subnet; an adaptive run of two
    # epochs meets the plan at its first re-plan
    body = plan_file_config(tmp_path, "granularity=e2e subnets=2\n1,0,3\n").replace(
        "mode = static_hybrid", f"mode = {mode}\nepoch_cycles = 100")
    assert run_ini(tmp_path, body) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "subnets, layout offers 1" in err
    assert not (tmp_path / "out").exists() or not os.listdir(tmp_path / "out")


def test_plan_circuit_whose_pair_sent_nothing_weighs_0(tmp_path):
    (tmp_path / "t.csv").write_text("0,1,2,data\n5,1,2,control\n")
    body = plan_file_config(tmp_path, "granularity=e2e subnets=1\n0,0,3\n").replace(
        "cycles = 200", f"trace = {tmp_path / 't.csv'}")
    assert run_ini(tmp_path, body) == 0
    report = read_run_report(str(tmp_path / "out" / "t.report"))
    assert report["meta"]["plan_weight"] == "0"
    assert report["plan"]["circuits"] == "1"


def test_compare_on_a_report_without_sections_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.report"
    bad.write_text("label = x\n")
    assert main(["compare", str(bad), str(bad)]) == 2
    assert "data error: cannot parse run report" in capsys.readouterr().err


def test_profile_with_a_negative_count_is_exit_2(tmp_path, capsys):
    prof_path = tmp_path / "p.profile"
    prof_path.write_text("0,5,10,3\n0,6,-10,3\n")
    assert main(["allocate", str(prof_path), "--out", str(tmp_path / "p.plan")]) == 2
    assert "data error: line 2: negative count" in capsys.readouterr().err
    assert not (tmp_path / "p.plan").exists()


@pytest.mark.parametrize("text, message", [
    ("0,5,10,2\n0,5,20,2\n", "line 2: pair repeats line 1"),
    ("# src,dst,flit_count,hop_count\n0,5,10,2\n\n3,3,10,0\n",
     "line 4: endpoint 3 is paired with itself"),
], ids=["repeat", "self"])
def test_profile_with_a_repeated_or_self_pair_is_exit_2(tmp_path, capsys, text, message):
    # a profile holds one line per pair of distinct endpoints
    prof_path = tmp_path / "p.profile"
    prof_path.write_text(text)
    assert main(["allocate", str(prof_path), "--out", str(tmp_path / "p.plan")]) == 2
    assert f"data error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "p.plan").exists()


def test_compare_against_a_baseline_of_zero_latency_is_exit_2(tmp_path, capsys):
    report = ("[run]\nlabel = {}\npercent_in_circuit = 0\n"
              "[latency]\nmean = {}\n[energy]\nper_flit = 2\n")
    (tmp_path / "base.report").write_text(report.format("base", "0"))
    (tmp_path / "run.report").write_text(report.format("run", "10"))
    assert main(["compare", str(tmp_path / "base.report"), str(tmp_path / "run.report")]) == 2
    assert "data error: baseline latency/energy must be positive" in capsys.readouterr().err


def test_compare_on_a_report_value_that_is_no_number_is_exit_2(tmp_path, capsys):
    report = ("[run]\nlabel = {}\npercent_in_circuit = 0\n"
              "[latency]\nmean = {}\n[energy]\nper_flit = 2\n")
    (tmp_path / "base.report").write_text(report.format("base", "10"))
    (tmp_path / "bad.report").write_text(report.format("bad", "abc"))
    assert main(["compare", str(tmp_path / "base.report"), str(tmp_path / "bad.report")]) == 2
    assert "data error: report [latency] mean: could not convert" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["trace", "profile", "plan"])
def test_data_file_that_is_not_utf8_is_exit_2(tmp_path, capsys, kind):
    # line 2 holds the byte 0xe9, which is not UTF-8 on its own
    first = b"granularity=e2e subnets=1\n" if kind == "plan" else b"# records\n"
    data = first + b"# caf\xe9\n"
    if kind == "trace":
        (tmp_path / "t.csv").write_bytes(data)
        rc = run_ini(tmp_path, f"[traffic]\ntrace = {tmp_path / 't.csv'}\n")
    elif kind == "profile":
        (tmp_path / "p.profile").write_bytes(data)
        rc = main(["allocate", str(tmp_path / "p.profile"), "--out", str(tmp_path / "c.plan")])
    else:
        rc = run_ini(tmp_path, plan_file_config(tmp_path, data))
    assert rc == 2
    assert "data error: line 2: not UTF-8 text" in capsys.readouterr().err
