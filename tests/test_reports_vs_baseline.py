"""Differential test: report and plan files against the frozen copy.

The same INI file goes through hybridnoc.cli.main and through the frozen
copy's cli.main, and every file each writes must be byte-identical.  This
pins every section of a run report, [events] and [energy] included, where
the golden tables pin only the summary figures.  A sweep's table must
match the frozen copy's on the columns both print.
"""

import importlib
import itertools
import os

import pytest

from frozen_baseline import base
from hybridnoc import cli

cli_base = importlib.import_module(f"{base.__name__}.cli")

STATIC = list(itertools.product(
    ("baseline_vc", "static_hybrid"), ("e2e", "r2r"), ("true", "false"), (2, 4)))


def _write_ini(path, experiment, mesh, layout, traffic, **extra):
    sections = {"experiment": experiment, "mesh": mesh, "layout": layout,
                "traffic": traffic, **extra}
    path.write_text("".join(
        f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
        for name, keys in sections.items()))
    return str(path)


def _outputs(main, config, out_dir):
    """Every file main writes for config, by name, as bytes."""
    assert main(["run", config, "--output", str(out_dir)]) == 0
    return {name: (out_dir / name).read_bytes() for name in sorted(os.listdir(out_dir))}


def _assert_same_files(tmp_path, capsys, config):
    ours = _outputs(cli.main, config, tmp_path / "ours")
    theirs = _outputs(cli_base.main, config, tmp_path / "theirs")
    capsys.readouterr()
    assert any(name.endswith(".report") for name in ours)
    assert ours == theirs


@pytest.mark.parametrize("mode,granularity,gate,k", STATIC,
                         ids=["-".join(map(str, case)) for case in STATIC])
def test_static_reports_match_frozen_baseline(tmp_path, capsys, mode, granularity,
                                              gate, k):
    config = _write_ini(
        tmp_path / "run.ini",
        {"mode": mode, "granularity": granularity, "label": "run", "seed": 3},
        {"width": 3, "height": 3, "ni_per_router": 2},
        {"total_width_bits": 128, "subnet_count": k, "gate_cs_buffers": gate},
        {"pattern": "regular_mix", "injection_rate": 0.05, "regularity": 0.8,
         "cycles": 1500},
    )
    _assert_same_files(tmp_path, capsys, config)


def test_rate_zero_static_reports_match_frozen_baseline(tmp_path, capsys):
    # no packet at all: the run installs its empty plan and steps no cycle
    config = _write_ini(
        tmp_path / "idle.ini",
        {"mode": "static_hybrid", "label": "idle"},
        {"width": 3, "height": 3},
        {"total_width_bits": 128, "subnet_count": 4},
        {"pattern": "uniform_random", "injection_rate": 0, "cycles": 500},
    )
    _assert_same_files(tmp_path, capsys, config)
    report = (tmp_path / "ours" / "idle.report").read_text(encoding="utf-8")
    assert "cycles_simulated = 0" in report


def test_adaptive_reports_match_frozen_baseline(tmp_path, capsys):
    config = _write_ini(
        tmp_path / "adaptive.ini",
        {"mode": "adaptive_hybrid", "granularity": "r2r", "label": "adaptive",
         "epoch_cycles": 800, "seed": 1},
        {"preset": "cmp-4x4-51ni"},
        {"total_width_bits": 128, "subnet_count": 4, "gate_cs_buffers": "true"},
        {"pattern": "regular_mix", "injection_rate": 0.02, "regularity": 0.9,
         "cycles": 2400},
    )
    _assert_same_files(tmp_path, capsys, config)
    epochs = [n for n in os.listdir(tmp_path / "ours") if "epoch" in n and n.endswith(".report")]
    assert len(epochs) >= 3


def test_adaptive_ga_reports_match_frozen_baseline(tmp_path, capsys):
    # a GA plan per epoch carries its note into [plan] and [meta]
    config = _write_ini(
        tmp_path / "adaptive-ga.ini",
        {"mode": "adaptive_hybrid", "granularity": "r2r", "allocator": "ga",
         "label": "ga", "epoch_cycles": 600, "seed": 2},
        {"width": 3, "height": 3, "ni_per_router": 2},
        {"total_width_bits": 128, "subnet_count": 4},
        {"pattern": "regular_mix", "injection_rate": 0.04, "regularity": 0.9,
         "cycles": 1800},
        ga={"generations": 20, "seed": 1},
    )
    _assert_same_files(tmp_path, capsys, config)
    report = (tmp_path / "ours" / "ga-epoch1.report").read_text(encoding="utf-8")
    assert report.count("note = comparison only") == 2


def test_short_adaptive_trace_reports_match_frozen_baseline(tmp_path, capsys):
    # a trace no longer than one epoch runs one planned pass, reported as epoch 0
    config = _write_ini(
        tmp_path / "short.ini",
        {"mode": "adaptive_hybrid", "label": "short", "epoch_cycles": 3000, "seed": 4},
        {"width": 3, "height": 3},
        {"total_width_bits": 128, "subnet_count": 4},
        {"pattern": "regular_mix", "injection_rate": 0.05, "regularity": 0.9,
         "cycles": 500},
    )
    _assert_same_files(tmp_path, capsys, config)
    assert sorted(os.listdir(tmp_path / "ours")) == ["short-epoch0.plan", "short-epoch0.report"]


@pytest.mark.parametrize("fabric", ["vc", "cs"])
def test_sweep_rows_match_frozen_baseline(capsys, fabric):
    # the frozen copy prints the first six of the columns this one prints
    argv = ["sweep", "--mesh", "4x4", "--rates", "0.02,0.1,0.3,0.6", "--cycles", "2000",
            "--seed", "3", "--subnets", "4", "--fabric", fabric]
    assert cli.main(argv) == 0
    ours = capsys.readouterr().out.splitlines()
    assert cli_base.main(argv) == 0
    theirs = capsys.readouterr().out.splitlines()
    assert len(ours) == 5
    assert [",".join(row.split(",")[:6]) for row in ours] == theirs
