"""Seeded inputs and timed CLI calls for the benchmark workloads.

Every input file is written from the workload seed with the benchmark's
own ``random.Random``; the program under test only ever sees the files.
Sizes were chosen so that one pass over a workload takes about 2-6 s on
a 2-core host running Python 3.11.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

# adaptive-cmp51-phased
PHASED_CYCLES = 300_000
PHASED_PACKET_PROB = 0.028  # packets per cycle over the whole network
PHASED_HOT_PAIRS = 16
PHASED_HOT_SHARE = 0.8
PHASED_PHASE_CYCLES = 100_000
PHASED_EPOCH_CYCLES = 50_000

# allocate-8x8-2000
ALLOC_PAIRS = 2000
ALLOC_GA_GENERATIONS = 400
ALLOC_SUBNETS = 3
# At 3 subnets the oracle's run time over the top 20 pairs is bimodal across
# seeds (about 1 ms or 2-3 s), which no run-to-run bound can absorb; at 2
# subnets it stays within 1-60 ms while still searching a real conflict graph.
ALLOC_ORACLE_SUBNETS = 2
ALLOC_ORACLE_LIMIT = 20


@dataclass
class Prepared:
    """What one workload needs after set-up: the timed calls and their context."""

    calls: List[List[str]]
    mesh: object  # hybridnoc.MeshConfig used to reload plans
    config_path: Optional[str] = None
    profile_path: Optional[str] = None
    ga_plan: Optional[str] = None
    ga_subnets: int = 0
    ga_generations: int = 0
    # INI-derived facts the benchmark asserts against load_config()
    expected: Dict[str, object] = field(default_factory=dict)


def _write_ini(path: str, sections: Dict[str, Dict[str, object]]) -> None:
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
        lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def write_phased_trace(path: str, mesh, seed: int) -> None:
    """A trace whose hot pairs change every PHASED_PHASE_CYCLES cycles.

    PHASED_HOT_SHARE of the packets go to PHASED_HOT_PAIRS pairs that sit on
    different routers (so each can become an r2r circuit); the rest are
    uniform.  With 50k-cycle epochs every other epoch is planned from
    traffic of the previous phase, which forces real plan churn.
    """
    rng = random.Random(seed)
    n = mesh.n_nis

    def uniform_pair():
        src = rng.randrange(n)
        dst = rng.randrange(n - 1)
        return src, dst + (dst >= src)

    hot: List = []
    lines = ["# inject_cycle,src_ni,dst_ni,class"]
    for cycle in range(PHASED_CYCLES):
        if cycle % PHASED_PHASE_CYCLES == 0:
            hot = []
            while len(hot) < PHASED_HOT_PAIRS:
                pair = uniform_pair()
                if (mesh.router_of_ni(pair[0]) != mesh.router_of_ni(pair[1])
                        and pair not in hot):
                    hot.append(pair)
        if rng.random() >= PHASED_PACKET_PROB:
            continue
        if rng.random() < PHASED_HOT_SHARE:
            src, dst = hot[rng.randrange(PHASED_HOT_PAIRS)]
        else:
            src, dst = uniform_pair()
        kind = "control" if rng.random() < 0.5 else "data"
        lines.append(f"{cycle},{src},{dst},{kind}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _prepare_adaptive(hn, in_dir: str, out_dir: str, seed: int) -> Prepared:
    mesh = hn.MeshConfig.cmp_4x4_51ni()
    trace = os.path.join(in_dir, "phased.trace")
    write_phased_trace(trace, mesh, seed)
    ini = os.path.join(in_dir, "adaptive.ini")
    _write_ini(ini, {
        "experiment": {"mode": "adaptive_hybrid", "allocator": "greedy",
                       "granularity": "r2r", "label": "adaptive", "seed": seed,
                       "epoch_cycles": PHASED_EPOCH_CYCLES},
        "mesh": {"preset": "cmp-4x4-51ni"},
        "layout": {"total_width_bits": 128, "subnet_count": 4,
                   "gate_cs_buffers": "true"},
        "traffic": {"trace": trace},
    })
    return Prepared(
        calls=[["run", ini, "--output", out_dir]],
        mesh=mesh,
        config_path=ini,
        expected={
            "mode": "adaptive_hybrid", "allocator": "greedy", "granularity": "r2r",
            "seed": seed, "label": "adaptive", "mesh": _mesh_key(mesh),
            "layout": (128, 4, True), "epoch_cycles": PHASED_EPOCH_CYCLES,
            "traffic_cycles": None, "traffic_spec": None, "trace_path": trace,
        },
    )


def write_heavy_tailed_profile(path: str, width: int, height: int, pairs: int,
                               seed: int) -> None:
    """An NI-pair profile for a WxH grid with one NI per router.

    Flit counts are Pareto distributed (shape 1.2), hop counts are the X-Y
    distance, so the file loads as either an NI or a router profile.
    """
    rng = random.Random(seed)
    n = width * height
    universe = [(s, d) for s in range(n) for d in range(n) if s != d]
    lines = ["# src,dst,flit_count,hop_count"]
    for s, d in sorted(rng.sample(universe, pairs)):
        flits = int(10 * rng.paretovariate(1.2))
        hops = abs(s % width - d % width) + abs(s // width - d // width)
        lines.append(f"{s},{d},{flits},{hops}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _prepare_allocate(hn, in_dir: str, out_dir: str, seed: int) -> Prepared:
    prof = os.path.join(in_dir, "pairs.profile")
    write_heavy_tailed_profile(prof, 8, 8, ALLOC_PAIRS, seed)
    common = [prof, "--mesh", "8x8"]
    ga_plan = os.path.join(out_dir, "ga.plan")
    return Prepared(
        calls=[
            ["allocate", *common, "--granularity", "e2e", "--method", "greedy",
             "--subnets", str(ALLOC_SUBNETS),
             "--out", os.path.join(out_dir, "greedy.plan")],
            ["allocate", *common, "--granularity", "e2e", "--method", "ga",
             "--subnets", str(ALLOC_SUBNETS),
             "--generations", str(ALLOC_GA_GENERATIONS), "--seed", str(seed),
             "--out", ga_plan],
            ["allocate", *common, "--granularity", "r2r", "--method", "oracle",
             "--subnets", str(ALLOC_ORACLE_SUBNETS),
             "--limit", str(ALLOC_ORACLE_LIMIT),
             "--out", os.path.join(out_dir, "oracle.plan")],
        ],
        mesh=hn.MeshConfig.grid(8, 8),
        profile_path=prof,
        ga_plan=ga_plan,
        ga_subnets=ALLOC_SUBNETS,
        ga_generations=ALLOC_GA_GENERATIONS,
    )


def _mesh_key(mesh) -> tuple:
    return (mesh.width, mesh.height, tuple(mesh.ni_per_router))


def config_facts(config) -> Dict[str, object]:
    """The facts of a loaded ExperimentConfig that a workload pins down."""
    spec = config.traffic_spec
    return {
        "mode": config.mode,
        "allocator": config.allocator,
        "granularity": config.granularity,
        "seed": config.seed,
        "label": config.label,
        "mesh": _mesh_key(config.mesh),
        "layout": (config.layout.total_width_bits, config.layout.subnet_count,
                   config.layout.gate_cs_buffers),
        "epoch_cycles": config.resolved_epoch_cycles(),
        "traffic_cycles": config.traffic_cycles,
        "traffic_spec": None if spec is None else (
            spec.pattern, spec.injection_rate, spec.regularity),
        "trace_path": config.trace_path,
    }


# Why each workload is there is recorded beside its name in BENCHMARK.json.
WORKLOADS: Dict[str, Callable[..., Prepared]] = {
    "adaptive-cmp51-phased": _prepare_adaptive,
    "allocate-8x8-2000": _prepare_allocate,
}
