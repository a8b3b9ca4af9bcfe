"""Circuit selection: greedy first-fit, a genetic search and an exact oracle.

A circuit plan assigns endpoint pairs to the k circuit-switched subnets of
a link so that no two circuits in the same subnet share a directed link
(and, for router-granularity circuits, no source or destination router
either).  Pair weight is flit volume times hop distance, so the allocators
chase the largest buffer-bypass payoff first.
"""

from __future__ import annotations

import logging
import random
import re
from dataclasses import dataclass, field
from itertools import compress
from struct import unpack_from
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .topology import ConfigError, MeshConfig, Path, xy_route
from .traffic import TraceFormatError, TrafficProfile, read_records

log = logging.getLogger(__name__)

PLAN_GRANULARITIES = ("e2e", "r2r")

# profile granularity feeding each plan granularity
_PROFILE_GRAN = {"e2e": "ni", "r2r": "router"}


class AllocationError(ConfigError):
    """Inconsistent plan, profile or allocator parameters."""


def profile_granularity_for(plan_granularity: str) -> str:
    try:
        return _PROFILE_GRAN[plan_granularity]
    except KeyError:
        raise AllocationError(f"unknown plan granularity {plan_granularity!r}") from None


@dataclass(frozen=True)
class CandidatePair:
    """An endpoint pair that could become a circuit."""

    src: int
    dst: int
    weight: int
    path: Path


@dataclass
class CircuitPlan:
    """Circuits packed into subnets, indexed 0..k-1 over the CS subnets."""

    granularity: str
    subnets: Tuple[Tuple[CandidatePair, ...], ...]
    provenance: str = ""
    meta: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.granularity not in PLAN_GRANULARITIES:
            raise AllocationError(f"unknown plan granularity {self.granularity!r}")

    @classmethod
    def empty(cls, k: int, granularity: str, provenance: str = "empty") -> "CircuitPlan":
        if k < 0:
            raise AllocationError("subnet count cannot be negative")
        return cls(granularity, tuple(() for _ in range(k)), provenance)

    @property
    def subnet_count(self) -> int:
        return len(self.subnets)

    def all_circuits(self) -> List[Tuple[int, CandidatePair]]:
        return [(s, c) for s, circuits in enumerate(self.subnets) for c in circuits]

    def circuit_count(self) -> int:
        return sum(len(s) for s in self.subnets)

    def pair_index(self) -> Dict[Tuple[int, int], int]:
        """(src, dst) -> subnet index; a pair appears at most once."""
        index: Dict[Tuple[int, int], int] = {}
        for s, c in self.all_circuits():
            key = (c.src, c.dst)
            if key in index:
                raise AllocationError(f"pair {key} placed in two subnets")
            index[key] = s
        return index

    def validate(self) -> None:
        """Recheck conflict freedom from scratch; raises on violation."""
        self.pair_index()
        for circuits in self.subnets:
            clash = _first_clash(circuits, self.granularity == "r2r")
            if clash:
                a, b = ((circuits[i].src, circuits[i].dst) for i in clash)
                raise AllocationError(f"circuits {a} and {b} conflict in one subnet")


def _conflict_masks(candidates: Sequence[CandidatePair], endpoint_ports: bool) -> List[int]:
    """Bitmask of the candidates that each candidate cannot share a subnet with.

    A candidate holds the directed links of its path; with endpoint_ports
    (r2r circuits) it also holds the injection port of its source router and
    the ejection port of its destination router.  Two candidates conflict
    when they hold a common resource.
    """
    held: List[List[object]] = []
    users: Dict[object, int] = {}
    for i, cand in enumerate(candidates):
        resources: List[object] = list(cand.path.link_set)
        if endpoint_ports:
            resources += [("inject", cand.path.src_router), ("eject", cand.path.dst_router)]
        held.append(resources)
        bit = 1 << i
        for r in resources:
            users[r] = users.get(r, 0) | bit
    masks: List[int] = []
    for i, resources in enumerate(held):
        mask = 0
        for r in resources:
            mask |= users[r]
        masks.append(mask & ~(1 << i))
    return masks


def _first_clash(
    candidates: Sequence[CandidatePair], endpoint_ports: bool
) -> Optional[Tuple[int, int]]:
    """Indices i < j of the first two candidates that conflict, or None."""
    for i, mask in enumerate(_conflict_masks(candidates, endpoint_ports)):
        if mask:
            # i is the first candidate with a clash, so its lowest partner j > i
            return i, (mask & -mask).bit_length() - 1
    return None


def _first_fit_bits(order: Iterable[int], masks: Sequence[int], k: int) -> List[List[int]]:
    """Place candidate indices in order into the first subnet they fit; drop the rest.

    Returns the indices placed in each of the k subnets, in placement order.
    """
    occupied = [0] * k
    placed: List[List[int]] = [[] for _ in range(k)]
    subnets = range(k)
    for idx in order:
        mask = masks[idx]
        for s in subnets:
            if not occupied[s] & mask:
                occupied[s] |= 1 << idx
                placed[s].append(idx)
                break
    return placed


def _plan_from_indices(
    granularity: str,
    candidates: Sequence[CandidatePair],
    subnets: Sequence[Sequence[int]],
    provenance: str,
) -> CircuitPlan:
    return CircuitPlan(
        granularity,
        tuple(tuple(candidates[i] for i in s) for s in subnets),
        provenance=provenance,
    )


def candidates_from_profile(
    profile: TrafficProfile,
    mesh: MeshConfig,
    plan_granularity: str,
) -> List[CandidatePair]:
    """Profile pairs as allocation candidates, heaviest first.

    Zero-weight pairs (no flits, or endpoints on one router) are dropped;
    ties break on ascending (src, dst) so the order is total.
    """
    expected = profile_granularity_for(plan_granularity)
    if profile.granularity != expected:
        raise AllocationError(
            f"{plan_granularity} plans need a {expected}-granularity profile, "
            f"got {profile.granularity}"
        )
    out: List[CandidatePair] = []
    for pair in profile.sorted_pairs():
        entry = profile.entries[pair]
        if entry.weight <= 0:
            continue
        if profile.granularity == "ni":
            ra = mesh.router_of_ni(pair[0])
            rb = mesh.router_of_ni(pair[1])
        else:
            ra, rb = pair
        if ra == rb:
            continue
        out.append(CandidatePair(pair[0], pair[1], entry.weight, xy_route(mesh, ra, rb)))
    return out


def greedy_allocate(
    profile: TrafficProfile, mesh: MeshConfig, k: int, granularity: str
) -> CircuitPlan:
    """Sweep candidates by descending weight, first-fit into k subnets."""
    if k < 1:
        raise AllocationError("need at least one CS subnet to allocate into")
    cands = candidates_from_profile(profile, mesh, granularity)
    masks = _conflict_masks(cands, granularity == "r2r")
    return _plan_from_indices(
        granularity, cands, _first_fit_bits(range(len(cands)), masks, k), "greedy"
    )


def plan_weight(plan: CircuitPlan, profile: TrafficProfile) -> int:
    """Total profile weight carried by the plan's circuits."""
    total = 0
    for _, circuit in plan.all_circuits():
        key = (circuit.src, circuit.dst)
        if key not in profile.entries:
            raise AllocationError(f"plan pair {key} not present in the profile")
        total += profile.entries[key].weight
    return total


# each GA child takes its genes from its second parent at a rate drawn
# uniformly from this range
_CROSSOVER_RATE_RANGE = (0.3, 0.7)


@dataclass(frozen=True)
class GaParams:
    population_size: int = 10
    generations: int = 5000
    chromosome_mutation_probability: float = 0.5
    elitism_count: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise AllocationError("population must hold at least two individuals")
        if self.generations < 0:
            raise AllocationError("generations cannot be negative")
        if not 0.0 <= self.chromosome_mutation_probability <= 1.0:
            raise AllocationError("chromosome_mutation_probability must be in [0, 1]")
        if not 0 <= self.elitism_count < self.population_size:
            raise AllocationError("elitism_count must be below the population size")


def _draws_below(rng: random.Random, n: int, p: float) -> bytes:
    """Flags, one byte per draw: is the j-th of the next n rng.random() draws below p?

    random() builds each draw from two 32-bit Mersenne Twister words a and
    b as ((a >> 5) * 2**26 + (b >> 6)) * 2**-53, so getrandbits(64 * n)
    holds the same 2n words in the same order (least significant first)
    and leaves rng in the state that n random() calls would.  A draw whose
    a has high byte h lies in [h/256, (h+1)/256), which decides it unless
    p falls strictly inside that interval; those ties (about n/256) are
    settled from the full draw.
    """
    data = rng.getrandbits(64 * n).to_bytes(8 * n, "little")
    # high byte -> 1 (below p), 0 (not below) or 2 (tie: p * 256 not whole)
    scaled = p * 256.0
    below = min(int(scaled), 256)
    table = (b"\x01" * below + (b"\x02" if below < scaled else b"") + bytes(256))[:256]
    flags = data[3::8].translate(table)
    j = flags.find(2)
    if j < 0:
        return flags
    out = bytearray(flags)
    while j >= 0:
        a, b = unpack_from("<II", data, 8 * j)
        out[j] = ((a >> 5) * 67108864.0 + (b >> 6)) * 2**-53 < p
        j = flags.find(2, j + 1)
    return bytes(out)


def ga_allocate(
    profile: TrafficProfile,
    mesh: MeshConfig,
    k: int,
    params: GaParams,
    granularity: str,
) -> CircuitPlan:
    """Genetic search seeded with greedy variants.

    One byte (0 or 1) per candidate pair; first-fit repairs infeasible
    selections by dropping conflicting pairs in weight order.  Elitism keeps
    the best individual, so best fitness never decreases across generations.
    The per-generation best is left in plan.meta["fitness_history"].

    Children are built from blocks of draws (_draws_below) that take the
    same values from rng, in the same order, as one random() per gene.
    """
    if k < 1:
        raise AllocationError("need at least one CS subnet to allocate into")
    cands = candidates_from_profile(profile, mesh, granularity)
    n = len(cands)
    if n == 0:
        plan = CircuitPlan.empty(k, granularity, provenance="ga")
        plan.meta["fitness_history"] = [0] * max(params.generations, 1)
        return plan

    masks = _conflict_masks(cands, granularity == "r2r")
    weights = [c.weight for c in cands]
    flip_rate = 1.0 / n
    rng = random.Random(params.seed)

    def seed_chromosome(excluded: Optional[int]) -> bytes:
        order = [i for i in range(n) if i != excluded]
        bits = bytearray(n)
        for placed in _first_fit_bits(order, masks, k):
            for i in placed:
                bits[i] = 1
        return bytes(bits)

    population: List[bytes] = []
    for i in range(params.population_size):
        excluded = i - 1 if 1 <= i <= n else None
        population.append(seed_chromosome(excluded))

    fitness_cache: Dict[bytes, int] = {}

    def fitness(chrom: bytes) -> int:
        cached = fitness_cache.get(chrom)
        if cached is None:
            placed = _first_fit_bits(compress(range(n), chrom), masks, k)
            cached = sum(weights[i] for s in placed for i in s)
            fitness_cache[chrom] = cached
        return cached

    def tournament(scores: List[int]) -> int:
        a = rng.randrange(params.population_size)
        b = rng.randrange(params.population_size)
        return a if scores[a] >= scores[b] else b

    history: List[int] = []
    best_chrom = population[0]
    best_score = fitness(best_chrom)
    lo, hi = _CROSSOVER_RATE_RANGE
    for _ in range(params.generations):
        scores = [fitness(c) for c in population]
        gen_best = max(range(len(population)), key=lambda i: scores[i])
        if scores[gen_best] > best_score:
            best_score = scores[gen_best]
            best_chrom = population[gen_best]
        history.append(best_score)

        # genes as little-endian ints, one byte per gene, for bytewise crossover
        genes = [int.from_bytes(c, "little") for c in population]
        elites = sorted(range(len(population)), key=lambda i: -scores[i])[: params.elitism_count]
        nxt: List[bytes] = [population[i] for i in elites]
        while len(nxt) < params.population_size:
            g1 = genes[tournament(scores)]
            g2 = genes[tournament(scores)]
            rho = rng.uniform(lo, hi)
            # 0xff in every byte whose gene comes from the second parent
            take2 = int.from_bytes(_draws_below(rng, n, rho), "little") * 255
            child = (g1 & ~take2) | (g2 & take2)
            if rng.random() < params.chromosome_mutation_probability:
                child ^= int.from_bytes(_draws_below(rng, n, flip_rate), "little")
            nxt.append(child.to_bytes(n, "little"))
        population = nxt

    if params.generations == 0:
        history.append(best_score)
    plan = _plan_from_indices(
        granularity, cands, _first_fit_bits(compress(range(n), best_chrom), masks, k), "ga"
    )
    plan.meta["fitness_history"] = history
    plan.meta["fitness"] = best_score
    return plan


def enumerate_oracle(
    profile: TrafficProfile,
    mesh: MeshConfig,
    k: int,
    granularity: str,
    max_pairs: int = 20,
) -> CircuitPlan:
    """Exact optimum by exhaustive subnet packing with pruning.

    Refuses instances above max_pairs candidates; intended as a reference
    for small cases, not a production allocator.
    """
    if k < 1:
        raise AllocationError("need at least one CS subnet to allocate into")
    cands = candidates_from_profile(profile, mesh, granularity)
    n = len(cands)
    if n > max_pairs:
        raise AllocationError(f"{n} candidates exceed the oracle cap of {max_pairs}")
    if n == 0:
        return CircuitPlan.empty(k, granularity, provenance="oracle")

    masks = _conflict_masks(cands, granularity == "r2r")
    weights = [c.weight for c in cands]
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i]

    best_weight = -1
    best_assign: List[List[int]] = [[] for _ in range(k)]
    subnets = [0] * k
    assign: List[List[int]] = [[] for _ in range(k)]

    def search(i: int, current: int) -> None:
        nonlocal best_weight, best_assign
        if current + suffix[i] <= best_weight:
            return
        if i == n:
            best_weight = current
            best_assign = [list(s) for s in assign]
            return
        bit = 1 << i
        mask = masks[i]
        tried_empty = False
        for s in range(k):
            if subnets[s] == 0:
                if tried_empty:
                    continue  # empty subnets are interchangeable
                tried_empty = True
            if subnets[s] & mask:
                continue
            subnets[s] |= bit
            assign[s].append(i)
            search(i + 1, current + weights[i])
            assign[s].pop()
            subnets[s] &= ~bit
        search(i + 1, current)  # leave candidate i out

    search(0, 0)
    plan = _plan_from_indices(granularity, cands, best_assign, "oracle")
    plan.meta["weight"] = best_weight
    return plan


# --- plan files -------------------------------------------------------------

def format_plan(plan: CircuitPlan) -> str:
    lines = [f"granularity={plan.granularity} subnets={plan.subnet_count}"]
    for s, circuits in enumerate(plan.subnets):
        for c in circuits:
            lines.append(f"{s},{c.src},{c.dst}")
    return "\n".join(lines) + "\n"


def save_plan(plan: CircuitPlan, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(format_plan(plan))


def load_plan(path: str, mesh: MeshConfig) -> CircuitPlan:
    """Rebuild a plan from its file; weights are not stored, paths are.

    Any fault, a circuit off the mesh or in conflict included, raises
    TraceFormatError naming its line.
    """
    with open(path, "rb") as fh:
        rows = read_records(fh, (int,) * 3, header=True)
        lineno, (head,) = next(rows, (1, ("",)))
        header = re.fullmatch(r"granularity=(e2e|r2r) subnets=(\d+)", head)
        if not header:
            raise TraceFormatError(f"line {lineno}: bad plan header {head!r}")
        granularity, k = header[1], int(header[2])
        e2e = granularity == "e2e"
        n_endpoints = mesh.n_nis if e2e else mesh.n_routers
        subnets: List[List[CandidatePair]] = [[] for _ in range(k)]
        seen: Dict[Tuple[int, int], int] = {}  # pair -> its line
        for lineno, (s, src, dst) in rows:
            if not 0 <= s < k:
                raise TraceFormatError(f"line {lineno}: subnet {s} out of range")
            if not (0 <= src < n_endpoints and 0 <= dst < n_endpoints):
                raise TraceFormatError(f"line {lineno}: circuit {src},{dst} leaves the mesh")
            if seen.setdefault((src, dst), lineno) != lineno:
                raise TraceFormatError(f"line {lineno}: pair repeats line {seen[src, dst]}")
            ra, rb = (mesh.router_of_ni(src), mesh.router_of_ni(dst)) if e2e else (src, dst)
            if ra == rb:
                raise TraceFormatError(f"line {lineno}: circuit endpoints share a router")
            subnets[s].append(CandidatePair(src, dst, 0, xy_route(mesh, ra, rb)))
    for circuits in subnets:
        clash = _first_clash(circuits, not e2e)
        if clash:
            a, b = (seen[circuits[i].src, circuits[i].dst] for i in clash)
            raise TraceFormatError(f"line {b}: circuit conflicts with line {a} in its subnet")
    return CircuitPlan(granularity, tuple(tuple(s) for s in subnets), provenance="file")
