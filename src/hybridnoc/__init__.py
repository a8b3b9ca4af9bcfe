"""Flit-level simulator and circuit allocator for SDM hybrid-switched NoCs.

A mesh of VC routers shares each physical link with a set of narrow,
bufferless circuit-switched subnets.  The package covers the whole loop:
synthetic traffic or trace files, profiling, circuit allocation (greedy,
genetic, exact), cycle-driven simulation, energy accounting, and the
baseline/static/adaptive experiment drivers behind the ``hybridnoc`` CLI.
"""

from .allocator import (
    CandidatePair,
    CircuitPlan,
    GaParams,
    candidates_from_profile,
    enumerate_oracle,
    ga_allocate,
    greedy_allocate,
    load_plan,
    plan_weight,
    profile_granularity_for,
    save_plan,
)
from .energy import (
    EnergyCoefficients,
    EnergyReport,
    account,
)
from .orchestrator import (
    DESK_EPOCH_CYCLES,
    SUMMARY_HEADER,
    ExperimentConfig,
    RunResult,
    build_plan,
    load_config,
    make_trace,
    read_run_report,
    run_adaptive,
    run_baseline,
    run_experiment,
    run_report,
    run_static,
    summary_rows,
    summary_table,
    sweep_injection,
    write_run_report,
)
from .simcore import (
    SimStats,
    Simulation,
    SimulationError,
    SubnetLayout,
    VcConfig,
    simulate,
    unloaded_latency,
)
from .topology import (
    ConfigError,
    MeshConfig,
    Path,
    xy_route,
)
from .traffic import (
    PacketClass,
    PairTraffic,
    SyntheticSpec,
    TraceFormatError,
    TrafficEvent,
    TrafficProfile,
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

__version__ = "0.1.0"
