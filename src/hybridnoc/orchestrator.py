"""Experiment drivers: baseline, static hybrid, adaptive hybrid, sweeps, reports.

A run is described by an ExperimentConfig (parseable from an INI file with
one section per concern).  Baseline runs use the undivided full-width link;
static hybrid folds the whole trace into a profile at the subnet width and
runs it under one plan built from that profile; adaptive hybrid re-plans
every epoch from the previous epoch's observed flit counts, with each plan
taking effect only after the configuration period has elapsed inside its
epoch.  A run's report is one mapping of sections to string values; the
summary table is built from such mappings only, whether they come from
live runs or from report files.
"""

from __future__ import annotations

import configparser
import logging
import math
import os
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import (
    Dict, List, Mapping, Optional, Sequence, Tuple, Union, get_args, get_origin,
    get_type_hints,
)

from .allocator import (
    CircuitPlan,
    GaParams,
    METHODS,
    PLAN_GRANULARITIES,
    allocate,
    load_plan,
    plan_weight,
    profile_granularity_for,
)
from .energy import EnergyCoefficients, EnergyReport, account
from .simcore import SimStats, Simulation, SubnetLayout, VcConfig, simulate
from .topology import ConfigError, MeshConfig
from .traffic import (
    SyntheticSpec,
    TraceFormatError,
    TrafficEvent,
    TrafficProfile,
    generate,
    load_trace,
    profile,
    profile_from_flit_counts,
)

log = logging.getLogger(__name__)

MODES = ("baseline_vc", "static_hybrid", "adaptive_hybrid")
ALLOCATORS = METHODS + ("plan-file",)

# sweep_injection's saturation threshold, as a multiple of the unloaded mean
_SATURATION_FACTOR = 10.0

# desk-scale epochs; paper-scale runs set epoch_cycles = 200_000_000 (same
# 200:1 epoch-to-period ratio)
DESK_EPOCH_CYCLES = 100_000
EPOCH_TO_PERIOD_RATIO = 200

# generated traffic that names none of these, in a config file or a sweep:
# SyntheticSpec has no default pattern or rate, and every mode but adaptive
# (two epochs) runs this many cycles
DEFAULT_PATTERN = "uniform_random"
DEFAULT_INJECTION_RATE = 0.05
DEFAULT_TRAFFIC_CYCLES = 20_000


@dataclass(frozen=True)
class ExperimentConfig:
    mesh: MeshConfig
    layout: SubnetLayout
    vc: VcConfig
    mode: str
    allocator: str = "greedy"
    granularity: str = "e2e"
    plan_file: Optional[str] = None
    traffic_spec: Optional[SyntheticSpec] = None
    trace_path: Optional[str] = None
    traffic_cycles: Optional[int] = None
    epoch_cycles: Optional[int] = None
    config_period_cycles: Optional[int] = None
    seed: int = 0
    ga: GaParams = field(default_factory=GaParams)
    coeffs: EnergyCoefficients = field(default_factory=EnergyCoefficients)
    label: str = "run"
    output_dir: Optional[str] = None

    def resolved_epoch_cycles(self) -> int:
        if self.epoch_cycles is not None:
            return self.epoch_cycles
        return DESK_EPOCH_CYCLES

    def resolved_config_period(self) -> int:
        if self.config_period_cycles is not None:
            return self.config_period_cycles
        return max(1, self.resolved_epoch_cycles() // EPOCH_TO_PERIOD_RATIO)

    def resolved_traffic_cycles(self) -> int:
        if self.traffic_cycles is not None:
            return self.traffic_cycles
        if self.mode == "adaptive_hybrid":
            return 2 * self.resolved_epoch_cycles()
        return DEFAULT_TRAFFIC_CYCLES

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; pick one of {MODES}")
        if self.allocator not in ALLOCATORS:
            raise ConfigError(f"unknown allocator {self.allocator!r}; pick one of {ALLOCATORS}")
        if self.granularity not in PLAN_GRANULARITIES:
            raise ConfigError(f"unknown granularity {self.granularity!r}")
        if (self.allocator == "plan-file") != bool(self.plan_file):
            raise ConfigError("plan_file goes with allocator plan-file and only with it")
        if (self.traffic_spec is None) == (self.trace_path is None):
            raise ConfigError("configure exactly one traffic source (spec or trace)")
        # generated packets need a destination other than their source NI
        spec, n = self.traffic_spec, self.mesh.n_nis
        rate, pairs = (spec.injection_rate if spec else 0), n * (n - 1)
        if rate > 0 and n < 2:
            raise ConfigError(f"traffic at rate {rate} needs at least two interfaces")
        if spec and spec.pattern == "regular_mix" and spec.designated_pair_count > pairs:
            raise ConfigError(f"designated_pair_count exceeds the {pairs} NI pairs of the mesh")
        if not 0 <= self.resolved_config_period() < self.resolved_epoch_cycles():
            raise ConfigError("config period must be at least 0 and shorter than an epoch")
        if self.mode != "baseline_vc" and self.layout.cs_subnet_count < 1:
            raise ConfigError(f"{self.mode} needs at least one CS subnet")
        if self.traffic_cycles is not None and self.traffic_cycles <= 0:
            raise ConfigError("traffic cycles must be positive")
        if not self.label or "/" in self.label or "\0" in self.label:
            raise ConfigError(f"label {self.label!r} cannot name a report file")


@dataclass
class RunResult:
    """One run's stats and energy, with the plan it ran under and that plan's profile."""
    label: str
    mode: str
    stats: SimStats
    energy: Optional[EnergyReport]
    plan: Optional[CircuitPlan] = None
    profile: Optional[TrafficProfile] = None
    meta: Dict[str, str] = field(default_factory=dict)


def make_trace(config: ExperimentConfig) -> List[TrafficEvent]:
    """Materialize the configured traffic source."""
    if config.trace_path is not None:
        return load_trace(config.trace_path, config.mesh)
    assert config.traffic_spec is not None
    return generate(
        config.traffic_spec, config.mesh, config.seed, config.resolved_traffic_cycles()
    )


def build_plan(
    profile: TrafficProfile,
    config: ExperimentConfig,
    *,
    adaptive: bool,
) -> CircuitPlan:
    """Run the configured allocator over one profile; the engine checks a plan's fit."""
    k = config.layout.cs_subnet_count
    if config.allocator == "plan-file":
        assert config.plan_file is not None
        plan = load_plan(config.plan_file, config.mesh)
        if plan.granularity != config.granularity:
            raise ConfigError(
                f"plan file is {plan.granularity}, the config asks for {config.granularity}"
            )
        return plan
    ga = config.allocator == "ga"
    # GA is an offline-budget search; fine for static runs, out of budget for
    # per-epoch reconfiguration, so adaptive runs carry an annotation.
    if ga and adaptive:
        log.warning("GA allocation per epoch is beyond the online budget; "
                    "results are for comparison only")
    elif ga:
        log.warning("GA allocation runs an offline-sized search budget")
    plan = allocate(config.allocator, profile, config.mesh, k, config.granularity, config.ga)
    if ga and adaptive:
        plan.meta["note"] = "comparison only"
    return plan


def _result(config: ExperimentConfig, label: str, stats: SimStats,
            plan: Optional[CircuitPlan] = None, profile: Optional[TrafficProfile] = None,
            **meta: str) -> RunResult:
    """The record of one run of config; a run that ejected no flits has no energy."""
    energy = account(stats, config.coeffs) if stats.flits_ejected else None
    return RunResult(label, config.mode, stats, energy, plan, profile, meta)


def _full_width(layout: SubnetLayout) -> SubnetLayout:
    """The undivided link of layout's total width."""
    return SubnetLayout(layout.total_width_bits, 1, layout.gate_cs_buffers)


def run_baseline(config: ExperimentConfig) -> RunResult:
    """Pure-VC run on the undivided full-width link."""
    if config.mode != "baseline_vc":
        raise ConfigError("run_baseline needs mode baseline_vc")
    trace = make_trace(config)
    layout = _full_width(config.layout)
    stats = simulate(config.mesh, layout, config.vc, trace, None, seed=config.seed)
    return _result(config, config.label, stats, width_bits=str(layout.subnet_width_bits))


def _planned_run(
    config: ExperimentConfig, trace: Sequence[TrafficEvent], **window: int
) -> Tuple[TrafficProfile, CircuitPlan, SimStats]:
    """Fold the trace at the subnet width, plan from it, and run the plan,
    cut and measured by window (simulate's cycles_limit and warmup_cycles) if given."""
    gran = profile_granularity_for(config.granularity)
    prof = profile(trace, config.mesh, gran, config.layout.subnet_width_bits)
    plan = build_plan(prof, config, adaptive=False)
    stats = simulate(
        config.mesh, config.layout, config.vc, trace, plan, seed=config.seed, **window
    )
    return prof, plan, stats


def run_static(
    config: ExperimentConfig, trace: Optional[Sequence[TrafficEvent]] = None
) -> RunResult:
    """Static hybrid: plan once from the whole trace, then run under the plan."""
    if config.mode != "static_hybrid":
        raise ConfigError("run_static needs mode static_hybrid")
    if trace is None:
        trace = make_trace(config)
    prof, plan, stats = _planned_run(config, trace)
    return _result(config, config.label, stats, plan, prof,
                   plan_weight=str(plan_weight(plan, prof)))


def run_adaptive(config: ExperimentConfig) -> List[RunResult]:
    """Epoch loop: plan epoch i from epoch i-1's ejected flit counts.

    Epoch 0 runs all-VC under the empty plan.  Each later plan is scheduled
    at its epoch start plus the configuration period, so flits injected
    before that moment still ride the previous plan.  Each epoch reports
    the counter window that Simulation.finalize closes at the epoch's end,
    labelled <label>-epoch<i>.
    """
    if config.mode != "adaptive_hybrid":
        raise ConfigError("run_adaptive needs mode adaptive_hybrid")
    trace = make_trace(config)
    epoch = config.resolved_epoch_cycles()
    period = config.resolved_config_period()
    span = trace[-1].inject_cycle + 1 if trace else 0

    def record(i: int, prof: Optional[TrafficProfile], plan: CircuitPlan,
               stats: SimStats) -> RunResult:
        note = {"note": str(plan.meta["note"])} if "note" in plan.meta else {}
        return _result(config, f"{config.label}-epoch{i}", stats, plan, prof,
                       epoch=str(i), circuits=str(plan.circuit_count()), **note)

    if span <= epoch:
        log.warning(
            "trace covers %d cycles, not more than one %d-cycle epoch; "
            "running a single static-style pass instead", span, epoch,
        )
        return [record(0, *_planned_run(config, trace))]

    n_epochs = math.ceil(span / epoch)
    sim = Simulation(config.mesh, config.layout, config.vc, trace, None, config.seed)
    results: List[RunResult] = []
    current_plan = CircuitPlan.empty(config.layout.cs_subnet_count, config.granularity)
    prev_counts: Dict[Tuple[int, int], int] = {}
    gran = profile_granularity_for(config.granularity)
    for i in range(n_epochs):
        profile_i: Optional[TrafficProfile] = None
        if i >= 1:
            profile_i = profile_from_flit_counts(prev_counts, config.mesh, gran)
            current_plan = build_plan(profile_i, config, adaptive=True)
            sim.schedule_plan(current_plan, i * epoch + period)
        if i == n_epochs - 1:
            sim.run_to_completion()
        else:
            sim.run_until((i + 1) * epoch)
        prev_counts = sim.take_pair_counts()
        results.append(record(i, profile_i, current_plan, sim.finalize()))
    return results


def run_experiment(config: ExperimentConfig) -> List[RunResult]:
    """Dispatch one config to its mode's driver."""
    if config.mode == "baseline_vc":
        return [run_baseline(config)]
    if config.mode == "adaptive_hybrid":
        return run_adaptive(config)
    # the all-VC run at the hybrid width is reported next to the plan's run
    trace = make_trace(config)
    stats = simulate(config.mesh, config.layout, config.vc, trace, None, seed=config.seed)
    return [_result(config, f"{config.label}-profile", stats), run_static(config, trace)]


# --- injection sweeps ----------------------------------------------------------

@dataclass
class SweepPoint:
    rate: float
    mean_latency: float
    p99_latency: int
    unloaded_mean: float
    saturated: bool
    flits_ejected: int
    in_circuit_fraction: float


def sweep_injection(
    config: ExperimentConfig, rates: Sequence[float], fabric: str = "hybrid"
) -> List[SweepPoint]:
    """Latency-vs-rate curve for one fabric: a run of config at each rate.

    fabric selects what carries the traffic: "vc" forces a full-width
    buffered fabric, "cs" a full-width fabric where every packet reserves
    its whole path (no set-up delay modelled), "hybrid" runs config's
    layout as a static run does, under config's allocator.  Every point's
    config is built, and so checked, before any point runs.  A run is cut
    at config.resolved_traffic_cycles() and measures the packets created
    after its first tenth.  A point is saturated when its mean latency
    exceeds _SATURATION_FACTOR times the unloaded mean of its own traffic,
    or when flits go in and no flit created after the warm-up comes out.
    """
    if list(rates) != sorted(rates):
        raise ConfigError("rates must be ascending")
    if fabric not in ("vc", "cs", "hybrid"):
        raise ConfigError(f"unknown fabric {fabric!r}")
    if config.trace_path is not None:
        raise ConfigError("a sweep generates its traffic, so it takes no trace")
    hybrid = fabric == "hybrid"
    runs = [
        replace(config, mode="static_hybrid" if hybrid else "baseline_vc",
                traffic_spec=replace(config.traffic_spec, injection_rate=rate))
        for rate in rates
    ]

    points: List[SweepPoint] = []
    for rate, run in zip(rates, runs):
        cycles = run.resolved_traffic_cycles()
        window = {"cycles_limit": cycles, "warmup_cycles": cycles // 10}
        trace = make_trace(run)
        if hybrid:
            stats = _planned_run(run, trace, **window)[2]
        else:
            stats = simulate(run.mesh, _full_width(run.layout), run.vc, trace, None,
                             seed=run.seed, cs_all=(fabric == "cs"), **window)
        mean = stats.mean_latency()
        unloaded = stats.unloaded_mean()
        if stats.measured_flits() == 0:
            # nothing measurable got through the window at all
            saturated = stats.flits_injected > 0
        else:
            saturated = unloaded > 0 and mean > _SATURATION_FACTOR * unloaded
        frac = (stats.in_circuit_flits / stats.flits_ejected) if stats.flits_ejected else 0.0
        points.append(
            SweepPoint(rate, mean, stats.p99_latency(), unloaded, saturated,
                       stats.flits_ejected, frac)
        )
    return points


# --- run reports and the summary table ----------------------------------------

SUMMARY_HEADER = "config,percent_in_circuit,norm_latency,norm_energy"

# section -> key -> value, exactly as a report file holds them
Report = Dict[str, Dict[str, str]]

# the [run] counts in key order, by SimStats name
RUN_KEYS = ("cycles_simulated", "packets_seen", "flits_injected", "flits_ejected",
            "in_flight", "in_circuit_flits")

# the [events] section in key order, by SimStats name, stored or derived
EVENT_KEYS = (
    "subnet_widths", "buffer_writes", "buffer_reads", "crossbar_traversals",
    "link_traversals", "cs_flits_per_subnet", "vc_allocations", "sw_allocations",
    "max_vc_occupancy", "active_buffer_cycles", "gated_buffer_cycles",
)


def _event_value(value) -> str:
    """A count in decimal; a per-subnet list as its counts joined by commas."""
    return ",".join(map(str, value)) if isinstance(value, list) else str(value)


def run_report(result: RunResult) -> Report:
    """A run's report: everything summary_rows needs to rebuild its row."""
    st = result.stats
    report = {
        "run": {
            "label": result.label,
            "mode": result.mode,
            **{key: str(getattr(st, key)) for key in RUN_KEYS},
            "percent_in_circuit": f"{st.percent_in_circuit():.6f}",
        },
        "latency": {
            "mean": f"{st.mean_latency():.6f}",
            "mean_vc": f"{st.mean_latency('vc'):.6f}",
            "mean_cs": f"{st.mean_latency('cs'):.6f}",
            "mean_network": f"{st.mean_network_latency():.6f}",
            "p99": str(st.p99_latency()),
            "unloaded_mean": f"{st.unloaded_mean():.6f}",
            "measured_flits": str(st.measured_flits()),
        },
        "events": {key: _event_value(getattr(st, key)) for key in EVENT_KEYS},
    }
    if result.energy is not None:
        e = result.energy
        report["energy"] = {
            "total": f"{e.total_energy:.6f}",
            "per_flit": f"{e.energy_per_flit:.6f}",
            "gated_savings": f"{e.gated_savings:.6f}",
            **{key: f"{val:.6f}" for key, val in e.breakdown.items()},
        }
    if result.plan is not None:
        report["plan"] = {
            "granularity": result.plan.granularity,
            "subnet_count": str(result.plan.subnet_count),
            "circuits": str(result.plan.circuit_count()),
            "provenance": result.plan.provenance,
        }
        if "note" in result.plan.meta:
            report["plan"]["note"] = str(result.plan.meta["note"])
    if result.meta:
        report["meta"] = {k: str(v) for k, v in result.meta.items()}
    return report


def write_run_report(path: str, result: RunResult) -> None:
    """Write run_report(result) as one INI-style file."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict(run_report(result))
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)


def read_run_report(path: str) -> Report:
    """A report file as the mapping run_report returns; TraceFormatError if malformed."""
    cp = configparser.ConfigParser(interpolation=None)
    with open(path, encoding="utf-8") as fh:
        try:
            cp.read_file(fh)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise TraceFormatError(f"cannot parse run report {path}: {exc}") from None
    if not cp.has_section("run"):
        raise TraceFormatError(f"{path} is not a run report (no [run] section)")
    return {section: dict(cp[section]) for section in cp.sections()}


def _report_value(report: Mapping[str, Mapping[str, str]], name: str,
                  section: str, key: str, cast=float):
    """cast(report[section][key]); TraceFormatError if it is missing or malformed."""
    try:
        return cast(report[section][key])
    except KeyError as exc:
        raise TraceFormatError(f"{name} is missing {exc}") from None
    except ValueError as exc:
        raise TraceFormatError(f"{name} [{section}] {key}: {exc}") from None


def summary_rows(
    reports: Sequence[Mapping[str, Mapping[str, str]]],
    baseline: Mapping[str, Mapping[str, str]],
) -> List[Tuple[str, float, float, float]]:
    """Per-report rows normalized against the baseline report.

    A run that ejected no flits has no [energy] section, so it cannot be
    a row or the baseline.
    """
    base_lat = _report_value(baseline, "baseline report", "latency", "mean")
    base_epf = _report_value(baseline, "baseline report", "energy", "per_flit")
    if not (base_lat > 0 and base_epf > 0):
        raise TraceFormatError("baseline latency/energy must be positive")
    rows = []
    for rep in reports:
        rows.append((
            _report_value(rep, "report", "run", "label", str),
            _report_value(rep, "report", "run", "percent_in_circuit"),
            _report_value(rep, "report", "latency", "mean") / base_lat,
            _report_value(rep, "report", "energy", "per_flit") / base_epf,
        ))
    return rows


def summary_table(rows: Sequence[Tuple[str, float, float, float]]) -> str:
    lines = [SUMMARY_HEADER]
    for label, pct, nlat, nenergy in rows:
        lines.append(f"{label},{pct:.2f},{nlat:.4f},{nenergy:.4f}")
    return "\n".join(lines) + "\n"


# --- INI experiment configs -----------------------------------------------------

def _declared(kind: object) -> type:
    """X for a field declared Optional[X], else the declared type itself."""
    return get_args(kind)[0] if get_origin(kind) is Union else kind


def _parse_value(kind: object, key: str, raw: str) -> object:
    """One INI value as the declared type of the field it sets."""
    kind = _declared(kind)
    if kind is bool:
        try:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        except KeyError:
            raise ConfigError(f"{key} must be a boolean, got {raw!r}") from None
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"{key} must be of type {kind.__name__}, got {raw!r}") from exc


def _from_section(cls: type, section: Mapping[str, str], **defaults: object):
    """Build dataclass cls from the section keys that name its fields.

    Fields the section leaves out take the given defaults, else the
    dataclass defaults; keys that name no field are left for the caller.
    """
    kinds = get_type_hints(cls)
    values = dict(defaults)
    for f in fields(cls):
        if f.name in section:
            values[f.name] = _parse_value(kinds[f.name], f.name, section[f.name])
    return cls(**values)


def _get_int(section: Mapping[str, str], key: str, default: Optional[int]) -> Optional[int]:
    return _parse_value(int, key, section[key]) if key in section else default


def _mesh_from_section(section: Mapping[str, str]) -> MeshConfig:
    preset = section.get("preset")
    if preset:
        mixed = [k for k in section if k != "preset"]
        if mixed:
            raise ConfigError(f"[mesh] preset cannot be combined with {', '.join(mixed)}")
        if preset == "cmp-4x4-51ni":
            return MeshConfig.cmp_4x4_51ni()
        raise ConfigError(f"unknown mesh preset {preset!r}")
    width = _get_int(section, "width", 4)
    height = _get_int(section, "height", 4)
    raw = section.get("ni_per_router", "1").strip()
    parts = [p for p in raw.split(",") if p.strip()]
    try:
        counts = [int(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"ni_per_router must be integers, got {raw!r}") from exc
    return MeshConfig(width, height, counts[0] if len(counts) == 1 else tuple(counts))


def _field_names(cls: type) -> Tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


# [traffic] keys that set ExperimentConfig fields, not SyntheticSpec ones
_TRAFFIC_FIELDS = {"trace": "trace_path", "cycles": "traffic_cycles"}

# every section and key load_config reads; anything else is rejected.  The
# sections after [mesh] are read field by field into their dataclasses, and
# [experiment] sets the ExperimentConfig fields that no other section sets.
_CONFIG_KEYS: Dict[str, Tuple[str, ...]] = {
    "experiment": tuple(
        name for name, kind in get_type_hints(ExperimentConfig).items()
        if not is_dataclass(_declared(kind)) and name not in _TRAFFIC_FIELDS.values()
    ),
    "mesh": ("preset", "width", "height", "ni_per_router"),
    "layout": _field_names(SubnetLayout),
    "vc": _field_names(VcConfig),
    "traffic": tuple(_TRAFFIC_FIELDS) + _field_names(SyntheticSpec),
    "energy": _field_names(EnergyCoefficients),
    "ga": _field_names(GaParams),
}


def load_config(path: str) -> ExperimentConfig:
    """Parse one experiment INI file (UTF-8, no % interpolation) into an
    ExperimentConfig; anything wrong with it, unreadable included, is a ConfigError."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";",), interpolation=None)
    try:
        loaded = cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    if not loaded:
        raise ConfigError(f"cannot read config file {path}")
    if cp.defaults():
        raise ConfigError(f"unknown config section [{cp.default_section}]")
    for name in cp.sections():
        if name not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config section [{name}]")
        for key in cp[name]:
            if key not in _CONFIG_KEYS[name]:
                raise ConfigError(f"unknown key {key!r} in [{name}]")

    def section(name: str) -> Mapping[str, str]:
        return cp[name] if cp.has_section(name) else {}

    mesh = _mesh_from_section(section("mesh"))
    layout = _from_section(SubnetLayout, section("layout"))
    vc = _from_section(VcConfig, section("vc"))

    traffic_spec = None
    tr = section("traffic")
    if "trace" in tr:
        mixed = [k for k in tr if k != "trace"]
        if mixed:
            raise ConfigError(f"[traffic] trace cannot be combined with {', '.join(mixed)}")
    else:
        traffic_spec = _from_section(
            SyntheticSpec, tr, pattern=DEFAULT_PATTERN, injection_rate=DEFAULT_INJECTION_RATE
        )
    return _from_section(
        ExperimentConfig, section("experiment"),
        mesh=mesh,
        layout=layout,
        vc=vc,
        traffic_spec=traffic_spec,
        trace_path=tr.get("trace"),
        traffic_cycles=_get_int(tr, "cycles", None),
        coeffs=_from_section(EnergyCoefficients, section("energy")),
        ga=_from_section(GaParams, section("ga")),
        mode="static_hybrid",
        label=os.path.splitext(os.path.basename(path))[0],
    )
