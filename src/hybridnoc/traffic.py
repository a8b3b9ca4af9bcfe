"""Synthetic traffic generation, trace files and per-pair traffic profiles.

Traces are packet granular: one record per packet with the cycle it is
handed to its source NI.  Serialization into flits depends on the channel
width of the subnet a packet ends up on, so a profile counts flits at the
width it was taken at: static and epoch profiles use the subnet width
128/k, the width an all-VC run of the hybrid layout carries them at.
"""

from __future__ import annotations

import logging
import math
import random
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .topology import ConfigError, MeshConfig

log = logging.getLogger(__name__)

FULL_LINK_WIDTH_BITS = 128

# largest packet payload, in bits, that the generator accepts
MAX_PAYLOAD_BITS = 65536

PATTERNS = ("uniform_random", "permutation", "hotspot", "regular_mix")

# fraction of hotspot-pattern traffic aimed at the hot interface
_HOTSPOT_FRACTION = 0.5


class TraceFormatError(ValueError):
    """A fault in a trace, profile, plan or run report file (CLI exit 2)."""


@dataclass(frozen=True)
class PacketClass:
    """A payload size category.  payload_bits sets the flit count and kind
    the vnet: control packets take vnet 0, any other kind vnet 1 % vnets."""

    kind: str
    payload_bits: int

    def __post_init__(self) -> None:
        if self.payload_bits <= 0:
            raise ConfigError("payload_bits must be positive")


@lru_cache(maxsize=None)
def packet_class(kind: str) -> PacketClass:
    """The payload class of a trace record's kind; one shared object per kind."""
    if kind == "control":
        return PacketClass("control", 128)
    if kind == "data":
        return PacketClass("data", 640)
    raise TraceFormatError(f"unknown packet class {kind!r}")


def flits_for_packet(klass: PacketClass, channel_width_bits: int) -> int:
    """Number of flits needed to carry one packet on a channel."""
    if channel_width_bits <= 0:
        raise ConfigError("channel width must be positive")
    return -(-klass.payload_bits // channel_width_bits)


@dataclass(frozen=True)
class TrafficEvent:
    inject_cycle: int
    src: int
    dst: int
    klass: PacketClass
    packet_id: int

    def __post_init__(self) -> None:
        if self.inject_cycle < 0:
            raise ConfigError("inject_cycle cannot be negative")
        if self.src == self.dst:
            raise ConfigError("packet source and destination NI must differ")


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the synthetic packet generator; bad values raise ConfigError."""

    pattern: str
    injection_rate: float
    control_fraction: float = 0.5
    regularity: float = 0.0
    designated_pair_count: int = 8
    control_payload_bits: int = 128
    data_payload_bits: int = 640

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ConfigError(f"unknown pattern {self.pattern!r}")
        if not self.injection_rate >= 0:
            raise ConfigError(f"injection_rate must be at least 0, got {self.injection_rate}")
        if not 0.0 <= self.control_fraction <= 1.0:
            raise ConfigError("control_fraction must lie in [0, 1]")
        if not 0.0 <= self.regularity <= 1.0:
            raise ConfigError("regularity must lie in [0, 1]")
        if self.designated_pair_count < 1:
            raise ConfigError("need at least one designated pair")
        for key in ("control_payload_bits", "data_payload_bits"):
            bits = getattr(self, key)
            if bits <= 0:
                raise ConfigError(f"payload bits must be positive, got {key} = {bits}")
            if bits > MAX_PAYLOAD_BITS:
                raise ConfigError(f"{key} is too large: at most {MAX_PAYLOAD_BITS}")
        if self.injection_rate / self.mean_flits_per_packet() > 1.0:
            raise ConfigError("injection_rate exceeds one packet per NI per cycle")

    def mean_flits_per_packet(self) -> float:
        """Flits per packet at the full link width, the unit of injection_rate."""
        width = FULL_LINK_WIDTH_BITS
        ctrl = flits_for_packet(PacketClass("control", self.control_payload_bits), width)
        data = flits_for_packet(PacketClass("data", self.data_payload_bits), width)
        return self.control_fraction * ctrl + (1.0 - self.control_fraction) * data


def designated_pairs(mesh: MeshConfig, seed: int, count: int) -> List[Tuple[int, int]]:
    """The fixed NI pair set used by the regular_mix pattern for this seed."""
    n = mesh.n_nis
    if count > n * (n - 1):
        raise ConfigError(f"mesh only offers {n * (n - 1)} distinct pairs")
    rng = random.Random(f"{seed}/designated")
    # index i of the source-major pair list, drawn without building the list
    return [(a, b + (b >= a)) for a, b in
            (divmod(i, n - 1) for i in rng.sample(range(n * (n - 1)), count))]


def _derangement(rng: random.Random, n: int) -> List[int]:
    # resample until no NI maps to itself; expected a handful of tries
    perm = list(range(n))
    while True:
        rng.shuffle(perm)
        if all(perm[i] != i for i in range(n)):
            return list(perm)


def generate(spec: SyntheticSpec, mesh: MeshConfig, seed: int, cycles: int) -> List[TrafficEvent]:
    """Deterministic synthetic trace for `cycles` cycles.

    injection_rate is accounted in full-width flits per NI per cycle, so
    the Bernoulli packet probability is rate / mean flits per packet.
    """
    if cycles < 0:
        raise ConfigError("cycles cannot be negative")
    n = mesh.n_nis
    if n < 2:
        if spec.injection_rate > 0:
            raise ConfigError("traffic needs at least two interfaces")
        return []  # no pair to draw from, and no packet to draw
    p_packet = spec.injection_rate / spec.mean_flits_per_packet()

    rng = random.Random(seed)
    ctrl = PacketClass("control", spec.control_payload_bits)
    data = PacketClass("data", spec.data_payload_bits)

    perm: Optional[List[int]] = None
    hot: Optional[int] = None
    regular: Optional[List[Tuple[int, int]]] = None
    if spec.pattern == "permutation":
        perm = _derangement(rng, n)
    elif spec.pattern == "hotspot":
        hot = rng.randrange(n)
    elif spec.pattern == "regular_mix":
        regular = designated_pairs(mesh, seed, spec.designated_pair_count)

    def other_than(src: int) -> int:  # each NI but src equally likely
        dst = rng.randrange(n - 1)
        return dst + 1 if dst >= src else dst

    events: List[TrafficEvent] = []
    for cycle in range(cycles):
        for ni in range(n):
            if rng.random() >= p_packet:
                continue
            klass = ctrl if rng.random() < spec.control_fraction else data
            src = ni
            if spec.pattern == "uniform_random":
                dst = other_than(src)
            elif spec.pattern == "permutation":
                dst = perm[ni]  # type: ignore[index]
            elif spec.pattern == "hotspot":
                dst = hot if src != hot and rng.random() < _HOTSPOT_FRACTION else other_than(src)
            # regular_mix draws the whole pair; the ni slot only sets the rate
            elif rng.random() < spec.regularity:
                src, dst = regular[rng.randrange(len(regular))]  # type: ignore[index]
            else:
                src = rng.randrange(n)
                dst = other_than(src)
            events.append(TrafficEvent(cycle, src, dst, klass, len(events)))
    return events


# --- trace files -----------------------------------------------------------

def save_trace(events: Iterable[TrafficEvent], path: str) -> None:
    """Write events as a trace file, the format load_trace reads.

    A record names only its class, so only the two classes a trace file
    reads back, packet_class("control") and packet_class("data"), can be
    saved; an event of any other class raises ConfigError naming its packet.
    """
    lines = ["# inject_cycle,src_ni,dst_ni,class"]
    for ev in events:
        if ev.klass not in (packet_class("control"), packet_class("data")):
            raise ConfigError(f"packet {ev.packet_id}: a trace file cannot hold class "
                              f"{ev.klass.kind!r} of {ev.klass.payload_bits} bits")
        lines.append(f"{ev.inject_cycle},{ev.src},{ev.dst},{ev.klass.kind}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# integer, real and comma_list read every number of a config, command line or file
def integer(text: str) -> int:
    """int(text) from ASCII decimal only: int() also reads 1_0, +5 and other digits."""
    if re.fullmatch("-?[0-9]+", text) is None:
        raise ValueError(f"{text!r} is not an ASCII decimal integer")
    return int(text)


def real(text: str) -> float:
    """float(text) if finite and ASCII without _: float() also reads nan, inf, 1_0 and others."""
    if text.isascii() and "_" not in text and math.isfinite(value := float(text)):
        return value
    raise ValueError(f"{text!r} is not a finite ASCII number")


def comma_list(text: str, read: Callable[[str], Any]) -> List[Any]:
    """read() of each stripped comma-list entry; ConfigError if read refuses one, as it must ""."""
    try:
        return [read(entry.strip()) for entry in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad list {text!r}: {exc}") from None


def read_records(
    lines: Iterable[Union[str, bytes]], kinds: Sequence[Callable[[str], Any]],
    *, header: bool = False,
) -> Iterator[Tuple[int, List[Any]]]:
    """(line number, fields) for each record of a comma-separated data file.

    Blank and '#' lines are skipped but counted; bytes lines are decoded as
    UTF-8.  Each field is stripped and converted by its entry of kinds, an
    int field only from ASCII decimal, except that with header the first
    record is its whole line.  Any fault raises TraceFormatError naming the
    line.
    """
    strict = [integer if kind is int else kind for kind in kinds]
    for lineno, raw in enumerate(lines, start=1):
        try:
            line = (raw.decode("utf-8") if isinstance(raw, bytes) else raw).strip()
        except UnicodeDecodeError:
            raise TraceFormatError(f"line {lineno}: not UTF-8 text") from None
        if not line or line[0] == "#":
            continue
        if header:
            header = False
            yield lineno, [line]
            continue
        parts = line.split(",")
        if len(parts) != len(kinds):
            raise TraceFormatError(
                f"line {lineno}: expected {len(kinds)} fields, got {len(parts)}"
            )
        # int() reads an ASCII field free of _ and + as ASCII decimal
        plain = line.isascii() and "_" not in line and "+" not in line
        try:
            fields = [kind(p.strip()) for kind, p in zip(kinds if plain else strict, parts)]
        except ValueError as exc:  # TraceFormatError included
            raise TraceFormatError(f"line {lineno}: {exc}") from None
        yield lineno, fields


def ingest(lines: Iterable[Union[str, bytes]], mesh: MeshConfig) -> List[TrafficEvent]:
    """Parse trace records, validating endpoints against the mesh.

    Lines are read by read_records.  Bad records raise TraceFormatError
    naming the offending line.  Events arriving out of cycle order are
    re-sorted with a warning.
    """
    events: List[TrafficEvent] = []
    n_nis = mesh.n_nis
    last_cycle = 0
    out_of_order = False
    for lineno, (cycle, src, dst, klass) in read_records(lines, (int, int, int, packet_class)):
        if cycle < 0:
            raise TraceFormatError(f"line {lineno}: negative inject cycle")
        if not 0 <= src < n_nis:
            raise TraceFormatError(f"line {lineno}: unknown source NI {src}")
        if not 0 <= dst < n_nis:
            raise TraceFormatError(f"line {lineno}: unknown destination NI {dst}")
        if src == dst:
            raise TraceFormatError(f"line {lineno}: source and destination are both NI {src}")
        if cycle < last_cycle:
            out_of_order = True
        else:
            last_cycle = cycle
        events.append(TrafficEvent(cycle, src, dst, klass, len(events)))
    if out_of_order:
        log.warning("trace cycles were not monotone; records re-sorted")
        events.sort(key=lambda ev: (ev.inject_cycle, ev.packet_id))
    return events


def load_trace(path: str, mesh: MeshConfig) -> List[TrafficEvent]:
    with open(path, "rb") as fh:
        return ingest(fh, mesh)


# --- profiles --------------------------------------------------------------

@dataclass
class PairTraffic:
    flit_count: int = 0
    hop_count: int = 0

    @property
    def weight(self) -> int:
        return self.flit_count * self.hop_count


@dataclass
class TrafficProfile:
    """Aggregated flit counts per endpoint pair at a chosen granularity.

    Flit counts are at the channel width the profile was taken at (the
    subnet width 128/k for static and epoch profiles); weights multiply in
    the X-Y hop distance so long heavy flows rank first.
    """

    granularity: str
    entries: Dict[Tuple[int, int], PairTraffic] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.granularity not in ("ni", "router"):
            raise ConfigError(f"unknown granularity {self.granularity!r}")

    def sorted_pairs(self) -> List[Tuple[int, int]]:
        """Pairs by descending weight, ties by ascending (src, dst)."""
        return sorted(self.entries, key=lambda p: (-self.entries[p].weight, p))


def profile(
    trace: Sequence[TrafficEvent],
    mesh: MeshConfig,
    granularity: str,
    channel_width_bits: int = FULL_LINK_WIDTH_BITS,
) -> TrafficProfile:
    """Fold a trace into per-pair flit totals and hop counts.

    Flits are counted per NI pair at channel_width_bits, which are the counts
    a drained all-VC run at that width ejects.
    """
    counts: Dict[Tuple[int, int], int] = {}
    for ev in trace:
        if not (0 <= ev.src < mesh.n_nis and 0 <= ev.dst < mesh.n_nis):
            raise TraceFormatError(f"packet {ev.packet_id} names an unknown NI")
        pair = (ev.src, ev.dst)
        counts[pair] = counts.get(pair, 0) + flits_for_packet(ev.klass, channel_width_bits)
    return profile_from_flit_counts(counts, mesh, granularity)


def profile_from_flit_counts(
    counts: Dict[Tuple[int, int], int],
    mesh: MeshConfig,
    granularity: str,
) -> TrafficProfile:
    """Build a profile from NI-pair flit counts (a trace fold or one epoch)."""
    prof = TrafficProfile(granularity)
    for (src, dst), flits in counts.items():
        if flits <= 0:
            continue
        key = (mesh.router_of_ni(src), mesh.router_of_ni(dst))
        hops = mesh.hop_distance(*key)
        if granularity == "ni":
            key = (src, dst)
        elif hops == 0:
            continue  # same-router pairs never leave the local crossbar
        prof.entries.setdefault(key, PairTraffic(hop_count=hops)).flit_count += flits
    return prof


def save_profile(prof: TrafficProfile, path: str) -> None:
    """Write prof as a profile file, the format load_profile reads."""
    lines = ["# src,dst,flit_count,hop_count"]
    for pair in sorted(prof.entries):
        e = prof.entries[pair]
        lines.append(f"{pair[0]},{pair[1]},{e.flit_count},{e.hop_count}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_profile(path: str, granularity: str) -> TrafficProfile:
    prof = TrafficProfile(granularity)
    seen: Dict[Tuple[int, int], int] = {}  # pair -> its line
    with open(path, "rb") as fh:
        for lineno, (src, dst, flits, hops) in read_records(fh, (int,) * 4):
            if flits < 0 or hops < 0:
                raise TraceFormatError(f"line {lineno}: negative count")
            if src == dst:
                raise TraceFormatError(f"line {lineno}: endpoint {src} is paired with itself")
            if seen.setdefault((src, dst), lineno) != lineno:
                raise TraceFormatError(f"line {lineno}: pair repeats line {seen[src, dst]}")
            prof.entries[(src, dst)] = PairTraffic(flits, hops)
    return prof
