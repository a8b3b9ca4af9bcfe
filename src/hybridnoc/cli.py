"""Command-line front end.

Subcommands: run (one experiment config), sweep (injection-rate or
subnet-count sweeps), allocate (profile file to plan file), compare
(run reports to a summary table).  Exit codes: 0 success, 1 bad
configuration (ConfigError), 2 a malformed or unreadable data file
(TraceFormatError, OSError); any other exception is a defect.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from typing import List, Optional

from .allocator import (
    METHODS,
    PLAN_GRANULARITIES,
    GaParams,
    allocate,
    endpoint_routers,
    profile_granularity_for,
    save_plan,
)
from .orchestrator import (
    DEFAULT_INJECTION_RATE,
    DEFAULT_PATTERN,
    DEFAULT_TRAFFIC_CYCLES,
    MESH_PRESETS,
    ExperimentConfig,
    load_config,
    read_run_report,
    run_baseline,
    run_experiment,
    run_report,
    run_static,
    summary_rows,
    summary_table,
    sweep_injection,
    write_run_report,
)
from .simcore import SubnetLayout, VcConfig
from .topology import ConfigError, MeshConfig
from .traffic import (PATTERNS, SyntheticSpec, TraceFormatError, comma_list, integer,
                      load_profile, real)


def _parse_mesh(arg: str) -> MeshConfig:
    if arg in MESH_PRESETS:
        return MESH_PRESETS[arg]()
    try:
        w, h = (integer(side) for side in arg.lower().split("x"))
    except ValueError as exc:
        raise ConfigError(f"bad mesh {arg!r}; want WxH or {' or '.join(MESH_PRESETS)}") from exc
    return MeshConfig.grid(w, h)


def _emit(table: str, out: Optional[str]) -> int:
    """Print a table, and also write it to out when one is given."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(table)
    sys.stdout.write(table)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    out_dir = args.output or config.output_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    results = run_experiment(config)
    for result in results:
        report_path = os.path.join(out_dir, f"{result.label}.report")
        write_run_report(report_path, result)
        if result.plan is not None:
            save_plan(result.plan, os.path.join(out_dir, f"{result.label}.plan"))
        lat = result.stats.mean_latency()
        epf = result.energy.energy_per_flit if result.energy else float("nan")
        print(
            f"{result.label}: cycles={result.stats.cycles_simulated} "
            f"flits={result.stats.flits_ejected} "
            f"in_circuit={result.stats.percent_in_circuit():.2f}% "
            f"mean_latency={lat:.2f} energy_per_flit={epf:.4f}"
        )
    print(f"reports written to {out_dir}")
    return 0


def _sweep_config(args: argparse.Namespace, subnets: int, rate: float) -> ExperimentConfig:
    """The baseline run of a sweep: --pattern traffic at rate on subnets subnets."""
    return ExperimentConfig(
        mesh=_parse_mesh(args.mesh),
        layout=SubnetLayout(subnet_count=subnets),
        vc=VcConfig(),
        mode="baseline_vc",
        allocator=args.allocator,
        granularity=args.granularity,
        traffic_spec=SyntheticSpec(args.pattern, rate, regularity=args.regularity),
        traffic_cycles=args.cycles,
        seed=args.seed,
        label="baseline",
    )


def _sweep_rates(args: argparse.Namespace) -> int:
    # the base rate is 0, not --rate: only the swept rates need two interfaces
    config = _sweep_config(args, args.subnets, 0.0)
    points = sweep_injection(config, comma_list(args.rates, real), args.fabric)
    lines = ["fabric,rate,mean_latency,p99_latency,unloaded_mean,saturated,"
             "in_circuit_fraction,flits_ejected"]
    for p in points:
        lines.append(
            f"{args.fabric},{p.rate:.4f},{p.mean_latency:.2f},{p.p99_latency},"
            f"{p.unloaded_mean:.2f},{int(p.saturated)},{p.in_circuit_fraction:.4f},"
            f"{p.flits_ejected}"
        )
    return _emit("\n".join(lines) + "\n", args.out)


def _sweep_subnets(args: argparse.Namespace) -> int:
    base_config = _sweep_config(args, 1, args.rate)
    counts = comma_list(args.subnet_counts, integer)
    baseline = run_baseline(base_config)
    if not baseline.stats.flits_ejected:
        raise ConfigError("the baseline run ejected no flits, so it cannot "
                          "normalize the sweep; raise --rate or --cycles")
    baseline = run_report(baseline)
    reports = [
        run_report(run_static(dataclasses.replace(
            base_config, layout=SubnetLayout(subnet_count=k),
            mode="static_hybrid", label=f"subnets-{k}",
        )))
        for k in counts
    ]
    return _emit(summary_table(summary_rows(reports, baseline)), args.out)


def cmd_sweep(args: argparse.Namespace) -> int:
    if (args.rates is None) == (args.subnet_counts is None):
        raise ConfigError("pick exactly one of --rates or --subnet-counts")
    if args.rates is not None:
        return _sweep_rates(args)
    return _sweep_subnets(args)


def cmd_allocate(args: argparse.Namespace) -> int:
    mesh = _parse_mesh(args.mesh)
    if args.limit is not None and args.limit < 0:
        raise ConfigError(f"--limit must not be negative, got {args.limit}")
    profile = load_profile(args.profile, profile_granularity_for(args.granularity))
    at = {}  # each endpoint's router coordinates, worked out once, in file order
    for end in dict.fromkeys(end for pair in profile.entries for end in pair):
        try:
            at[end] = mesh.coords(*endpoint_routers(mesh, args.granularity, end))
        except ConfigError:
            raise TraceFormatError(f"profile endpoint {end} is outside mesh {args.mesh}") from None
    for (a, b), entry in profile.entries.items():
        (xa, ya), (xb, yb) = at[a], at[b]
        if entry.hop_count != abs(xa - xb) + abs(ya - yb):
            raise TraceFormatError(f"profile pair {a},{b}: hop_count is not its X-Y distance")
    if args.limit is not None:
        keep = profile.sorted_pairs()[: args.limit]
        profile.entries = {pair: profile.entries[pair] for pair in keep}
    # the other methods ignore --generations and --seed, bad values included
    ga = GaParams(generations=args.generations, seed=args.seed) if args.method == "ga" else None
    plan = allocate(args.method, profile, mesh, args.subnets, args.granularity, ga)
    save_plan(plan, args.out)
    print(f"{plan.circuit_count()} circuits over {plan.subnet_count} subnets -> {args.out}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    baseline = read_run_report(args.baseline)
    reports = [read_run_report(p) for p in args.reports]
    return _emit(summary_table(summary_rows(reports, baseline)), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybridnoc",
        description="Flit-level simulation of SDM hybrid-switched mesh NoCs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config (INI file)")
    p_run.add_argument("config")
    p_run.add_argument("--output", help="directory for report/plan files")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="injection-rate or subnet-count sweep")
    p_sweep.add_argument("--mesh", default="4x4")
    p_sweep.add_argument("--pattern", default=DEFAULT_PATTERN, choices=PATTERNS)
    p_sweep.add_argument("--regularity", type=real, default=SyntheticSpec.regularity)
    p_sweep.add_argument("--cycles", type=integer, default=DEFAULT_TRAFFIC_CYCLES)
    p_sweep.add_argument("--seed", type=integer, default=ExperimentConfig.seed)
    p_sweep.add_argument("--out", help="also write the table to this file")
    p_sweep.add_argument("--rates", help="comma list of injection rates")
    p_sweep.add_argument(
        "--fabric", default="vc", choices=("vc", "cs", "hybrid"),
        help="fabric for an injection-rate sweep",
    )
    p_sweep.add_argument("--subnets", type=integer, default=1,
                         help="subnet count for --rates with --fabric hybrid")
    p_sweep.add_argument("--subnet-counts", help="comma list, e.g. 2,4,8")
    p_sweep.add_argument("--rate", type=real, default=DEFAULT_INJECTION_RATE,
                         help="injection rate for a subnet-count sweep")
    p_sweep.add_argument("--allocator", default=ExperimentConfig.allocator, choices=METHODS)
    p_sweep.add_argument("--granularity", default=ExperimentConfig.granularity,
                         choices=PLAN_GRANULARITIES)
    p_sweep.set_defaults(func=cmd_sweep)

    p_alloc = sub.add_parser("allocate", help="profile file -> plan file")
    p_alloc.add_argument("profile")
    p_alloc.add_argument("--mesh", default="4x4")
    p_alloc.add_argument("--granularity", default=ExperimentConfig.granularity,
                         choices=PLAN_GRANULARITIES)
    p_alloc.add_argument("--subnets", type=integer, default=1,
                         help="number of CS subnets to fill")
    p_alloc.add_argument("--method", default="greedy", choices=METHODS)
    p_alloc.add_argument("--generations", type=integer, default=GaParams.generations)
    p_alloc.add_argument("--seed", type=integer, default=GaParams.seed)
    p_alloc.add_argument("--limit", type=integer,
                         help="keep only the heaviest N profile pairs")
    p_alloc.add_argument("--out", required=True)
    p_alloc.set_defaults(func=cmd_allocate)

    p_cmp = sub.add_parser("compare", help="normalize run reports to a baseline")
    p_cmp.add_argument("baseline")
    p_cmp.add_argument("reports", nargs="+")
    p_cmp.add_argument("--out", help="also write the table to this file")
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that's a config problem here
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (TraceFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
