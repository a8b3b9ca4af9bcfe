"""Circuit selection: greedy first-fit, a genetic search and an exact oracle.

A circuit plan assigns endpoint pairs to the k circuit-switched subnets of
a link so that no two circuits in the same subnet share a directed link
(and, for router-granularity circuits, no source or destination router
either).  Pair weight is flit volume times hop distance, so the allocators
chase the largest buffer-bypass payoff first.
"""

from __future__ import annotations

import logging
import math
import random
import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .topology import MAX_CS_SUBNETS, ConfigError, MeshConfig, Path, xy_route
from .traffic import TraceFormatError, TrafficProfile, read_records

log = logging.getLogger(__name__)

METHODS = ("greedy", "ga", "oracle")
PLAN_GRANULARITIES = ("e2e", "r2r")
_PLAN_HEADER = re.compile(
    rf"granularity=({'|'.join(map(re.escape, PLAN_GRANULARITIES))}) subnets=([0-9]+)")

# profile granularity feeding each plan granularity
_PROFILE_GRAN = {"e2e": "ni", "r2r": "router"}


def profile_granularity_for(plan_granularity: str) -> str:
    try:
        return _PROFILE_GRAN[plan_granularity]
    except KeyError:
        raise ConfigError(f"unknown plan granularity {plan_granularity!r}") from None


@dataclass(frozen=True)
class CandidatePair:
    """An endpoint pair that could become a circuit."""

    src: int
    dst: int
    weight: int
    path: Path


@dataclass(frozen=True)
class CircuitPlan:
    """Circuits packed into subnets 0..k-1 of the CS subnets; building one runs validate."""

    granularity: str
    subnets: Tuple[Tuple[CandidatePair, ...], ...]
    provenance: str = ""
    meta: Dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.granularity not in PLAN_GRANULARITIES:
            raise ConfigError(f"unknown plan granularity {self.granularity!r}")
        self.validate()

    @classmethod
    def empty(cls, k: int, granularity: str, provenance: str = "empty") -> "CircuitPlan":
        if k < 0:
            raise ConfigError("subnet count cannot be negative")
        return cls(granularity, tuple(() for _ in range(k)), provenance)

    @property
    def subnet_count(self) -> int:
        return len(self.subnets)

    def all_circuits(self) -> List[Tuple[int, CandidatePair]]:
        return [(s, c) for s, circuits in enumerate(self.subnets) for c in circuits]

    def circuit_count(self) -> int:
        return sum(len(s) for s in self.subnets)

    def validate(self) -> None:
        """Check that no pair repeats and no two circuits in a subnet conflict."""
        seen: Set[Tuple[int, int]] = set()
        for _, c in self.all_circuits():
            key = (c.src, c.dst)
            if key in seen:
                raise ConfigError(f"pair {key} placed in two subnets")
            seen.add(key)
        for circuits in self.subnets:
            clash = _first_clash(circuits, self.granularity == "r2r")
            if clash:
                a, b = ((circuits[i].src, circuits[i].dst) for i in clash)
                err = ConfigError(f"circuits {a} and {b} conflict in one subnet")
                err.pairs = (a, b)  # for load_plan, which names their lines
                raise err


def _conflict_masks(candidates: Sequence[CandidatePair], endpoint_ports: bool) -> List[int]:
    """One bitmask per candidate over the resources it holds, built in one pass.

    A candidate holds the directed links of its path; with endpoint_ports
    (r2r circuits) it also holds the injection port of its source router and
    the ejection port of its destination router.  Each resource gets a bit
    when first met, and two candidates conflict when their masks intersect.
    """
    bits: Dict[object, int] = {}
    masks: List[int] = []
    for cand in candidates:
        path = cand.path
        held: List[object] = list(path.links)
        if endpoint_ports:
            held += [("inject", path.src_router), ("eject", path.dst_router)]
        mask = 0
        for r in held:
            mask |= bits.setdefault(r, 1 << len(bits))
        masks.append(mask)
    return masks


def _first_clash(
    candidates: Sequence[CandidatePair], endpoint_ports: bool
) -> Optional[Tuple[int, int]]:
    """Indices i < j of the first two candidates that conflict, or None."""
    masks = _conflict_masks(candidates, endpoint_ports)
    seen = shared = 0  # resources held by one candidate, by two or more
    for mask in masks:
        shared |= seen & mask
        seen |= mask
    for i, mask in enumerate(masks):
        if mask & shared:
            # i is the first candidate with a clash, so its lowest partner j > i
            return i, next(j for j in range(i + 1, len(masks)) if masks[j] & mask)
    return None


# first-fit saves its state before each block of _BLOCK candidate indices:
# states[b] holds the subnet occupancy masks and the weight placed before
# the first candidate at or above b * _BLOCK that the run is given
_BLOCK = 16

_FitState = Tuple[Tuple[int, ...], int]


def _first_fit(
    order: Sequence[int],
    masks: Sequence[int],
    weights: Sequence[int],
    k: int,
    parent: Optional[_Individual] = None,
    changed: Sequence[int] = (),
) -> Tuple[List[List[int]], int, List[_FitState], int]:
    """Place candidate indices, ascending, into the first of k subnets they fit; drop the rest.

    parent, if given, holds the states and score of a run over an order
    that agrees with this one outside the indices in changed.  Before a
    block with no change, where the masks equal the parent's, the run takes
    the parent's states up to the next changed block, totals shifted by
    the weight difference; past the last change it stops there.

    Returns the indices placed in each subnet by the blocks it ran, the
    total weight placed, the state before every block, and the index at
    which it stopped (len(masks) if it ran to the end).
    """
    n_blocks = -(-len(masks) // _BLOCK)
    todo = sorted({j // _BLOCK for j in changed}, reverse=True)  # changed blocks, last first
    state: Optional[_FitState] = ((0,) * k, 0)  # None once a block placed a candidate
    occupied, total, states = [0] * k, 0, []
    placed: List[List[int]] = [[] for _ in range(k)]
    subnets = range(k)
    b = at = 0
    while b < n_blocks:
        state = state or (tuple(occupied), total)
        if todo and todo[-1] == b:
            todo.pop()
        elif parent and parent.states[b][0] == state[0]:
            ref, delta = parent.states, total - parent.states[b][1]
            nxt = todo.pop() if todo else n_blocks
            states += [(m, t + delta) for m, t in ref[b:nxt]] if delta else ref[b:nxt]
            if nxt == n_blocks:
                return placed, parent.score + delta, states, b * _BLOCK
            b = nxt
            state = (ref[b][0], ref[b][1] + delta) if delta else ref[b]
            occupied, total = list(state[0]), state[1]
            at = bisect_left(order, b * _BLOCK, at)
        states.append(state)
        b += 1
        end = bisect_left(order, b * _BLOCK, at)
        for idx in order[at:end]:
            mask = masks[idx]
            for s in subnets:
                if not occupied[s] & mask:
                    occupied[s] |= mask
                    total += weights[idx]
                    placed[s].append(idx)
                    state = None
                    break
        at = end
    return placed, total, states, len(masks)


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
        raise ConfigError(
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


def _problem(profile: TrafficProfile, mesh: MeshConfig, k: int,
             granularity: str) -> Tuple[List[CandidatePair], List[int], List[int]]:
    """Candidates for k subnets, heaviest first, with their conflict masks and weights."""
    if k < 1:
        raise ConfigError("need at least one CS subnet to allocate into")
    cands = candidates_from_profile(profile, mesh, granularity)
    return cands, _conflict_masks(cands, granularity == "r2r"), [c.weight for c in cands]


def greedy_allocate(
    profile: TrafficProfile, mesh: MeshConfig, k: int, granularity: str
) -> CircuitPlan:
    """Sweep candidates by descending weight, first-fit into k subnets."""
    cands, masks, weights = _problem(profile, mesh, k, granularity)
    placed = _first_fit(range(len(cands)), masks, weights, k)[0]
    return _plan_from_indices(granularity, cands, placed, "greedy")


def plan_weight(plan: CircuitPlan, profile: TrafficProfile) -> int:
    """Total profile weight carried by the plan's circuits; a pair the
    profile lacks carried none."""
    total = 0
    for _, circuit in plan.all_circuits():
        entry = profile.entries.get((circuit.src, circuit.dst))
        if entry is not None:
            total += entry.weight
    return total


# each GA child takes its genes from its second parent at a rate drawn
# uniformly from this range
_CROSSOVER_RATE_RANGE = (0.3, 0.7)
MAX_POPULATION = 1024  # ga_allocate builds the whole population up front


@dataclass(frozen=True)
class GaParams:
    population_size: int = 10
    generations: int = 5000
    chromosome_mutation_probability: float = 0.5
    elitism_count: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not 2 <= self.population_size <= MAX_POPULATION:
            raise ConfigError(
                f"population must hold at least two individuals and at most {MAX_POPULATION}")
        if self.generations < 0:
            raise ConfigError("generations cannot be negative")
        if not 0.0 <= self.chromosome_mutation_probability <= 1.0:
            raise ConfigError("chromosome_mutation_probability must be in [0, 1]")
        if not 0 <= self.elitism_count < self.population_size:
            raise ConfigError("elitism_count must be below the population size")


def _lanes(n: int, p: float) -> Tuple[int, int, int]:
    """Lane masks for _draws_below(n, p): each lane's low word, 2**32 - T and bit 32."""
    ones = int.from_bytes(b"\x01\0\0\0\0\0\0\0" * n, "little")
    threshold = min(32 * math.ceil(p * 2**27), 2**32)
    return ones * 0xFFFFFFFF, ones * (2**32 - threshold), ones << 32


def _draws_below(rng: random.Random, n: int, p: float, lanes: Tuple[int, int, int]) -> List[int]:
    """The ascending indices j of the next n rng.random() draws that fall below p.

    random() builds each draw from two 32-bit Mersenne Twister words a and
    b as ((a >> 5) * 2**26 + (b >> 6)) * 2**-53, so getrandbits(64 * n)
    holds the same 2n words in the same order (least significant first),
    draw j in lane j, and leaves rng in the state that n random() calls
    would.  A draw is at least (a >> 5) * 2**-27, so it can be below p only
    if a < T = 32 * ceil(p * 2**27).  Adding 2**32 - T to every lane's a at
    once (lanes, from _lanes(n, p)) sets bit 32 exactly in the lanes where
    a >= T; each other lane (about n * p, each read in O(n) time, so the
    test suits small p such as the GA's 1/n) is settled from its full draw.
    """
    low, bias, bit32 = lanes
    block = rng.getrandbits(64 * n)
    maybe = (((block & low) + bias) & bit32) ^ bit32
    out: List[int] = []
    while maybe:
        bit = maybe & -maybe
        j = bit.bit_length() >> 6  # bit 64 * j + 32 marks lane j
        if _from_words(block >> 64 * j & 0xFFFFFFFFFFFFFFFF) < p:
            out.append(j)
        maybe ^= bit
    return out


def _from_words(word: int) -> float:
    """The random() draw made from 64 bits of a getrandbits block, low 32 first."""
    return (((word & 0xFFFFFFFF) >> 5) * 67108864.0 + (word >> 38)) * 2**-53


def _randbelow(rng: random.Random, size: int) -> int:
    """rng.randrange(size), drawn as CPython 3.10-3.13 draw it: size.bit_length()
    bits at a time until they read below size."""
    r = size
    while r >= size:
        r = rng.getrandbits(size.bit_length())
    return r


class _Individual(NamedTuple):
    """A chromosome, bit i set if it selects candidate i; the candidates it
    selects, ascending; and first-fit's score and states over them."""

    genes: int
    selected: List[int]
    score: int
    states: List[_FitState]


def ga_allocate(
    profile: TrafficProfile,
    mesh: MeshConfig,
    k: int,
    params: GaParams,
    granularity: str,
) -> CircuitPlan:
    """Genetic search seeded with greedy variants.

    One bit per candidate pair; first-fit repairs infeasible selections by
    dropping conflicting pairs in weight order.  Elitism keeps the best
    individual, so best fitness never decreases across generations.  The
    per-generation best is left in plan.meta["fitness_history"].

    Each child takes the same values from rng, in the same order, as four
    randrange(population_size) calls for its tournaments, uniform() for its
    crossover rate and one random() per gene: the words of one getrandbits
    block for its crossover and, if random() picks it for mutation, one
    block for that.  A child is its first parent with some genes flipped,
    so crossover reads the draws only at the set bits of its parents' xor,
    mutation only in the lanes _draws_below cannot rule out, and the
    child's first-fit runs only from a flipped gene to where it rejoins.
    """
    cands, masks, weights = _problem(profile, mesh, k, granularity)
    n = len(cands)
    if n == 0:
        plan = CircuitPlan.empty(k, granularity, provenance="ga")
        plan.meta["fitness_history"] = [0] * max(params.generations, 1)
        return plan

    flip_rate = 1.0 / n
    lanes = _lanes(n, flip_rate)
    rng = random.Random(params.seed)

    def individual(placed: List[List[int]], score: int, states: List[_FitState],
                   kept: Sequence[int] = ()) -> _Individual:
        selected = sorted([i for s in placed for i in s] + list(kept))
        return _Individual(sum(1 << i for i in selected), selected, score, states)

    # first-fit over the candidates greedy placed saves greedy's states, and
    # greedy without one candidate places what greedy did outside the blocks it runs
    greedy = individual(*_first_fit(range(n), masks, weights, k)[:3])

    def seed(excluded: int) -> _Individual:
        order = [i for i in range(n) if i != excluded]
        placed, score, states, stop = _first_fit(order, masks, weights, k, greedy, [excluded])
        start = excluded // _BLOCK * _BLOCK
        return individual(placed, score, states,
                          [i for i in greedy.selected if not start <= i < stop])

    def child(parent: _Individual, cross: List[int], mutate: List[int]) -> _Individual:
        # a gene both crossed over and mutated keeps the parent's value
        changed = sorted(set(cross).symmetric_difference(mutate))
        if not changed:
            return parent
        selected = list(parent.selected)
        for j in changed:
            at = bisect_left(selected, j)
            if at < len(selected) and selected[at] == j:
                del selected[at]
            else:
                selected.insert(at, j)
        genes = parent.genes ^ sum(1 << j for j in changed)
        _, score, states, _ = _first_fit(selected, masks, weights, k, parent, changed)
        return _Individual(genes, selected, score, states)

    population = [seed(i - 1) if 1 <= i <= n else greedy for i in range(params.population_size)]

    def tournament(scores: List[int]) -> int:
        a, b = _randbelow(rng, params.population_size), _randbelow(rng, params.population_size)
        return a if scores[a] >= scores[b] else b

    history: List[int] = []
    best = population[0]
    lo, hi = _CROSSOVER_RATE_RANGE
    for _ in range(params.generations):
        scores = [ind.score for ind in population]
        gen_best = max(range(len(population)), key=lambda i: scores[i])
        if scores[gen_best] > best.score:
            best = population[gen_best]
        history.append(best.score)

        elites = sorted(range(len(population)), key=lambda i: -scores[i])[: params.elitism_count]
        nxt = [population[i] for i in elites]
        while len(nxt) < params.population_size:
            first = population[tournament(scores)]
            second = population[tournament(scores)]
            rho = rng.uniform(lo, hi)
            # the child takes its second parent's gene where the draw is below
            # rho, which changes it only where they differ; other draws go unread
            cross, end, diff = [], 0, first.genes ^ second.genes
            while diff:
                bit = diff & -diff
                j = bit.bit_length() - 1
                rng.getrandbits(64 * (j - end))
                if _from_words(rng.getrandbits(64)) < rho:
                    cross.append(j)
                end, diff = j + 1, diff ^ bit
            rng.getrandbits(64 * (n - end))
            mutate: List[int] = []
            if rng.random() < params.chromosome_mutation_probability:
                mutate = _draws_below(rng, n, flip_rate, lanes)
            nxt.append(child(first, cross, mutate))
        population = nxt

    if params.generations == 0:
        history.append(best.score)
    placed = _first_fit(best.selected, masks, weights, k)[0]
    plan = _plan_from_indices(granularity, cands, placed, "ga")
    plan.meta["fitness_history"] = history
    plan.meta["fitness"] = best.score
    return plan


# most candidates enumerate_oracle searches; its search grows exponentially
MAX_ORACLE_PAIRS = 20


def enumerate_oracle(
    profile: TrafficProfile,
    mesh: MeshConfig,
    k: int,
    granularity: str,
) -> CircuitPlan:
    """Exact optimum by exhaustive subnet packing with pruning.

    Refuses instances above MAX_ORACLE_PAIRS candidates; intended as a
    reference for small cases, not a production allocator.
    """
    cands, masks, weights = _problem(profile, mesh, k, granularity)
    n = len(cands)
    if n > MAX_ORACLE_PAIRS:
        raise ConfigError(f"{n} candidates exceed the oracle cap of {MAX_ORACLE_PAIRS}")
    if n == 0:
        return CircuitPlan.empty(k, granularity, provenance="oracle")

    best_weight = -1
    best_assign: List[List[int]] = [[] for _ in range(k)]
    # the resources each subnet's circuits hold; they are disjoint, so a
    # circuit leaves its subnet by xor
    subnets = [0] * k
    assign: List[List[int]] = [[] for _ in range(k)]
    # each candidate is charged to the bit of its mask the most candidates
    # hold, the lowest such bit on a tie
    bits = [[b for b in range(mask.bit_length()) if mask >> b & 1] for mask in masks]
    held = Counter(b for own in bits for b in own)
    charge = [max(own, key=lambda b: (held[b], -b)) for own in bits]

    def search(i: int, current: int) -> None:
        nonlocal best_weight, best_assign
        # a remaining candidate can add weight only if it fits some subnet
        # now, as subnets only fill along a branch; a subnet holds a bit at
        # most once, so at most k - (subnets holding b) more of those charged
        # to bit b can add.  Candidates go heaviest first, so the first that
        # fit while their bit has room are the best such choice.  The search
        # takes only a strictly heavier leaf, so a tighter bound prunes
        # nothing that could replace the incumbent: the plan is the same
        bound = current
        room: Dict[int, int] = {}
        for j in range(i, n):
            mask = masks[j]
            for s in subnets:
                if not s & mask:
                    b = charge[j]
                    left = room.get(b, k - sum(t >> b & 1 for t in subnets))
                    if left:
                        bound += weights[j]
                        room[b] = left - 1
                    break
        if bound <= best_weight:
            return
        if i == n:
            best_weight = current
            best_assign = [list(s) for s in assign]
            return
        mask = masks[i]
        tried_empty = False
        for s in range(k):
            if subnets[s] == 0:
                if tried_empty:
                    continue  # empty subnets are interchangeable
                tried_empty = True
            if subnets[s] & mask:
                continue
            subnets[s] ^= mask
            assign[s].append(i)
            search(i + 1, current + weights[i])
            assign[s].pop()
            subnets[s] ^= mask
        search(i + 1, current)  # leave candidate i out

    search(0, 0)
    plan = _plan_from_indices(granularity, cands, best_assign, "oracle")
    plan.meta["weight"] = best_weight
    return plan


def allocate(method: str, profile: TrafficProfile, mesh: MeshConfig, k: int,
             granularity: str, ga: Optional[GaParams] = None) -> CircuitPlan:
    """The plan of method, one of METHODS; only the GA reads ga (default GaParams())."""
    if method == "greedy":
        return greedy_allocate(profile, mesh, k, granularity)
    if method == "oracle":
        return enumerate_oracle(profile, mesh, k, granularity)
    if method == "ga":
        return ga_allocate(profile, mesh, k, ga or GaParams(), granularity)
    raise ConfigError(f"unknown allocation method {method!r}")


# --- plan files -------------------------------------------------------------

def save_plan(plan: CircuitPlan, path: str) -> None:
    lines = [f"granularity={plan.granularity} subnets={plan.subnet_count}"]
    for s, circuits in enumerate(plan.subnets):
        for c in circuits:
            lines.append(f"{s},{c.src},{c.dst}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_plan(path: str, mesh: MeshConfig) -> CircuitPlan:
    """Rebuild a plan from its file; weights are not stored, paths are.

    Any fault, a circuit off the mesh or in conflict included, raises
    TraceFormatError naming its line.
    """
    with open(path, "rb") as fh:
        rows = read_records(fh, (int,) * 3, header=True)
        lineno, (head,) = next(rows, (1, ("",)))
        header = _PLAN_HEADER.fullmatch(head)
        if not header:
            raise TraceFormatError(f"line {lineno}: bad plan header {head!r}")
        granularity, digits = header[1], header[2]
        if len(digits.lstrip("0")) > 4 or int(digits) > MAX_CS_SUBNETS:
            raise TraceFormatError(f"line {lineno}: a plan has at most {MAX_CS_SUBNETS} subnets")
        k = int(digits)
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
    try:  # no pair repeats, so validate can refuse only a conflict
        return CircuitPlan(granularity, tuple(tuple(s) for s in subnets), provenance="file")
    except ConfigError as err:
        a, b = (seen[pair] for pair in err.pairs)
        raise TraceFormatError(f"line {b}: circuit conflicts with line {a} in its subnet") from None
