"""Event-based energy accounting over simulation counters.

Energy is tracked in abstract units: per-event dynamic costs plus static
power integrated over the run.  Only the orderings matter (buffers are
the expensive part); absolute joules are out of scope.  Link energy is
the one width-dependent term, so a narrow subnet pays less per traversal
but needs proportionally more traversals for the same payload.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict

from .simcore import SimStats
from .topology import ConfigError


@dataclass(frozen=True)
class EnergyCoefficients:
    """Per-event dynamic energies and per-cycle static powers.

    Gated buffers contribute no static power at all; their would-be cost
    is reported separately as savings.
    """

    e_buffer_write: float = 1.0
    e_buffer_read: float = 1.0
    e_vc_alloc: float = 0.5
    e_sw_alloc: float = 0.5
    e_crossbar: float = 1.0
    e_link_per_bit: float = 0.01
    p_buffer_static: float = 0.1
    p_router_other: float = 0.5

    def __post_init__(self) -> None:
        for f in fields(self):
            if not 0 <= getattr(self, f.name) < float("inf"):
                raise ConfigError(f"{f.name} must be finite and >= 0")


@dataclass(frozen=True)
class EnergyReport:
    total_energy: float
    energy_per_flit: float
    breakdown: Dict[str, float]
    gated_savings: float

    def __post_init__(self) -> None:
        drift = abs(sum(self.breakdown.values()) - self.total_energy)
        if drift > 1e-9 * max(1.0, abs(self.total_energy)):
            raise ConfigError("breakdown does not sum to total")


def account(stats: SimStats, coeffs: EnergyCoefficients) -> EnergyReport:
    """Convert one run's counters into an energy report.

    Dynamic energy is event count times coefficient; the link term scales
    with each subnet's width in bits.  Static energy integrates buffer
    power over non-gated buffers plus a per-router rest-of-router term.
    """
    if stats.flits_ejected == 0:
        raise ConfigError("no ejected flits; energy per flit is undefined")

    buffer_dyn = (
        sum(stats.buffer_writes) * coeffs.e_buffer_write
        + sum(stats.buffer_reads) * coeffs.e_buffer_read
    )
    allocation = (
        stats.vc_allocations * coeffs.e_vc_alloc
        + stats.sw_allocations * coeffs.e_sw_alloc
    )
    crossbar = sum(stats.crossbar_traversals) * coeffs.e_crossbar
    link = coeffs.e_link_per_bit * float(
        sum(n * w for n, w in zip(stats.link_traversals, stats.subnet_widths))
    )
    static = (
        stats.active_buffer_cycles * coeffs.p_buffer_static
        + stats.cycles_simulated * stats.n_routers * coeffs.p_router_other
    )
    breakdown = {
        "buffer": buffer_dyn,
        "allocation": allocation,
        "crossbar": crossbar,
        "link": link,
        "static": static,
    }
    total = sum(breakdown.values())
    return EnergyReport(
        total_energy=total,
        energy_per_flit=total / stats.flits_ejected,
        breakdown=breakdown,
        gated_savings=stats.gated_buffer_cycles * coeffs.p_buffer_static,
    )
