"""Circuit allocation: greedy first-fit, genetic search, exact enumeration."""

import dataclasses
import importlib.util
import itertools
import math
import pathlib
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from conflict_reference import links_conflict
from hybridnoc import (
    CandidatePair,
    CircuitPlan,
    ConfigError,
    GaParams,
    MeshConfig,
    PairTraffic,
    TraceFormatError,
    TrafficProfile,
    candidates_from_profile,
    enumerate_oracle,
    ga_allocate,
    greedy_allocate,
    load_plan,
    load_profile,
    plan_weight,
    profile_granularity_for,
    save_plan,
    xy_route,
)
from hybridnoc import allocator
from hybridnoc.allocator import (
    _BLOCK,
    MAX_POPULATION,
    METHODS,
    _Individual,
    _conflict_masks,
    _draws_below,
    _first_clash,
    _first_fit,
    _lanes,
    _randbelow,
    allocate,
)
from hybridnoc.topology import MAX_CS_SUBNETS


def router_profile(mesh, flit_counts):
    prof = TrafficProfile("router")
    for (a, b), flits in flit_counts.items():
        prof.entries[(a, b)] = PairTraffic(flit_count=flits, hop_count=mesh.hop_distance(a, b))
    return prof


def plan_pairs(plan):
    return sorted((c.src, c.dst) for _, c in plan.all_circuits())


# the chain instance: A rides links e1+e2, B rides e2+e3, C rides e3+e4,
# so A conflicts with B, B with C, and A with C not at all
CHAIN_MESH = MeshConfig.grid(5, 1)
CHAIN_COUNTS = {(0, 2): 15, (1, 3): 10, (2, 4): 5}  # weights 30 / 20 / 10
A, B, C = (0, 2), (1, 3), (2, 4)


def test_chain_instance_greedy_one_subnet():
    prof = router_profile(CHAIN_MESH, CHAIN_COUNTS)
    plan = greedy_allocate(prof, CHAIN_MESH, 1, "r2r")
    assert plan_pairs(plan) == sorted([A, C])
    assert plan_weight(plan, prof) == 40


def test_chain_instance_greedy_two_subnets():
    prof = router_profile(CHAIN_MESH, CHAIN_COUNTS)
    plan = greedy_allocate(prof, CHAIN_MESH, 2, "r2r")
    assert [sorted((c.src, c.dst) for c in s) for s in plan.subnets] == [
        sorted([A, C]),
        [B],
    ]
    assert plan_weight(plan, prof) == 60


def test_chain_instance_oracle_matches():
    prof = router_profile(CHAIN_MESH, CHAIN_COUNTS)
    assert plan_weight(enumerate_oracle(prof, CHAIN_MESH, 1, "r2r"), prof) == 40
    assert plan_weight(enumerate_oracle(prof, CHAIN_MESH, 2, "r2r"), prof) == 60


def test_allocate_dispatches_each_method_by_name():
    prof = router_profile(CHAIN_MESH, CHAIN_COUNTS)
    ga = GaParams(generations=20, seed=3)
    direct = {"greedy": greedy_allocate(prof, CHAIN_MESH, 2, "r2r"),
              "ga": ga_allocate(prof, CHAIN_MESH, 2, ga, "r2r"),
              "oracle": enumerate_oracle(prof, CHAIN_MESH, 2, "r2r")}
    assert set(direct) == set(METHODS)
    for method, plan in direct.items():
        assert allocate(method, prof, CHAIN_MESH, 2, "r2r", ga) == plan
    with pytest.raises(ConfigError, match="unknown allocation method 'lp'"):
        allocate("lp", prof, CHAIN_MESH, 2, "r2r")


def test_plan_weight_examples():
    prof = router_profile(CHAIN_MESH, CHAIN_COUNTS)
    empty = CircuitPlan.empty(2, "r2r")
    assert plan_weight(empty, prof) == 0
    cands = {(c.src, c.dst): c for c in candidates_from_profile(prof, CHAIN_MESH, "r2r")}
    bc = CircuitPlan("r2r", ((cands[B],), (cands[C],)))
    assert plan_weight(bc, prof) == 30
    stranger = CircuitPlan("r2r", ((CandidatePair(0, 4, 9, xy_route(CHAIN_MESH, 0, 4)),),))
    assert plan_weight(stranger, prof) == 0


def test_greedy_insensitive_to_weight_scaling():
    prof1 = router_profile(CHAIN_MESH, CHAIN_COUNTS)
    prof7 = router_profile(CHAIN_MESH, {p: 7 * f for p, f in CHAIN_COUNTS.items()})
    assert plan_pairs(greedy_allocate(prof1, CHAIN_MESH, 1, "r2r")) == plan_pairs(
        greedy_allocate(prof7, CHAIN_MESH, 1, "r2r")
    )


def test_greedy_suboptimal_witness():
    # greedy grabs the heaviest pair, which blocks both lighter ones
    mesh = MeshConfig.grid(3, 1)
    prof = router_profile(mesh, {(0, 2): 13, (0, 1): 20, (1, 2): 10})
    greedy = greedy_allocate(prof, mesh, 1, "r2r")
    oracle = enumerate_oracle(prof, mesh, 1, "r2r")
    assert plan_weight(greedy, prof) == 26
    assert plan_weight(oracle, prof) == 30
    assert plan_pairs(oracle) == [(0, 1), (1, 2)]


def test_variant_instance_weights_25_20_10():
    mesh = MeshConfig.grid(3, 1)
    prof = router_profile(mesh, {(0, 1): 25, (0, 2): 10, (1, 2): 10})
    greedy = greedy_allocate(prof, mesh, 1, "r2r")
    assert plan_pairs(greedy) == [(0, 1), (1, 2)]
    assert plan_weight(greedy, prof) == 35
    assert plan_weight(enumerate_oracle(prof, mesh, 1, "r2r"), prof) == 35


def test_candidates_order():
    prof = router_profile(CHAIN_MESH, CHAIN_COUNTS)
    cands = candidates_from_profile(prof, CHAIN_MESH, "r2r")
    assert [(c.src, c.dst) for c in cands] == [A, B, C]
    assert [c.weight for c in cands] == [30, 20, 10]


def test_candidates_granularity_mismatch():
    prof = TrafficProfile("ni")
    prof.entries[(0, 2)] = PairTraffic(flit_count=5, hop_count=2)
    with pytest.raises(ConfigError, match="r2r plans need a router-granularity profile"):
        candidates_from_profile(prof, CHAIN_MESH, "r2r")
    assert profile_granularity_for("e2e") == "ni"
    assert profile_granularity_for("r2r") == "router"
    with pytest.raises(ConfigError, match="unknown plan granularity 'chip'"):
        profile_granularity_for("chip")


def test_candidates_drop_local_and_idle_pairs():
    mesh = MeshConfig.grid(2, 2, 2)
    prof = TrafficProfile("ni")
    prof.entries[(0, 1)] = PairTraffic(flit_count=50, hop_count=0)  # same router
    prof.entries[(0, 7)] = PairTraffic(flit_count=0, hop_count=2)  # no traffic
    prof.entries[(0, 6)] = PairTraffic(flit_count=3, hop_count=2)
    cands = candidates_from_profile(prof, mesh, "e2e")
    assert [(c.src, c.dst) for c in cands] == [(0, 6)]


def brute_force_optimum(cands, k, endpoint_ports):
    """Exhaustive reference: best total weight over k-colorable subsets."""
    n = len(cands)
    conflict = [
        [links_conflict(cands[i].path, cands[j].path, endpoint_ports) for j in range(n)]
        for i in range(n)
    ]

    def fits(subset):
        # greedy packing misses some k-partitions, so try every assignment
        for colors in itertools.product(range(k), repeat=len(subset)):
            ok = True
            for x in range(len(subset)):
                for y in range(x + 1, len(subset)):
                    if colors[x] == colors[y] and conflict[subset[x]][subset[y]]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return True
        return False

    best = 0
    for r in range(n + 1):
        for subset in itertools.combinations(range(n), r):
            if fits(list(subset)):
                best = max(best, sum(cands[i].weight for i in subset))
    return best


@pytest.mark.parametrize("k", [1, 2, 3])
def test_oracle_against_brute_force(k):
    mesh = MeshConfig.grid(3, 2)
    rng = random.Random(99 + k)
    pairs = [(a, b) for a in range(6) for b in range(6) if a != b]
    for trial in range(6):
        chosen = rng.sample(pairs, 7)
        prof = router_profile(mesh, {p: rng.randint(1, 40) for p in chosen})
        oracle = enumerate_oracle(prof, mesh, k, "r2r")
        cands = candidates_from_profile(prof, mesh, "r2r")
        assert plan_weight(oracle, prof) == brute_force_optimum(cands, k, True)
        oracle.validate()


@pytest.mark.parametrize("granularity", ["r2r", "e2e"])
def test_oracle_searches_a_dense_profile_in_few_nodes(tmp_path, monkeypatch, granularity):
    # the top 20 pairs of the benchmark's heavy-tailed 8x8 profile at seed 0,
    # in 3 subnets: a bound that adds every remaining candidate that fits
    # some subnet searched 2,687,509 nodes (r2r) and 5,920,381 (e2e); with at
    # most k - (subnets holding b) more candidates on each bit b it searches
    # 61 and 62, and finds the same optimum
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    path = tmp_path / "pairs.profile"
    workloads.write_heavy_tailed_profile(str(path), 8, 8, 2000, 0)
    prof = load_profile(str(path), profile_granularity_for(granularity))
    prof.entries = {pair: prof.entries[pair] for pair in prof.sorted_pairs()[:20]}
    nodes = 0

    def count(frame, event, arg):
        nonlocal nodes
        nodes += event == "call" and frame.f_code.co_name == "search"

    sys.setprofile(count)
    try:
        plan = enumerate_oracle(prof, MeshConfig.grid(8, 8), 3, granularity)
    finally:
        sys.setprofile(None)
    assert nodes < 1000
    assert plan.meta["weight"] == plan_weight(plan, prof) == 128821


def test_oracle_refuses_large_instances(monkeypatch):
    mesh = MeshConfig.grid(4, 4)
    pairs = [(a, b) for a in range(8) for b in range(8, 11)]
    prof = router_profile(mesh, {p: 5 for p in pairs})
    assert len(candidates_from_profile(prof, mesh, "r2r")) > 20
    with pytest.raises(ConfigError, match="oracle cap of 20"):
        enumerate_oracle(prof, mesh, 2, "r2r")
    # the cap is read when the oracle runs
    monkeypatch.setattr(allocator, "MAX_ORACLE_PAIRS", 30)
    assert enumerate_oracle(prof, mesh, 2, "r2r").circuit_count() > 0


def test_oracle_empty_profile():
    prof = TrafficProfile("router")
    plan = enumerate_oracle(prof, CHAIN_MESH, 3, "r2r")
    assert plan.subnet_count == 3
    assert plan.circuit_count() == 0


def test_ga_on_chain_instance():
    prof = router_profile(CHAIN_MESH, CHAIN_COUNTS)
    plan = ga_allocate(prof, CHAIN_MESH, 1, GaParams(generations=100), "r2r")
    assert plan_weight(plan, prof) == 40
    assert plan.meta["fitness"] == 40


def test_ga_mutually_conflicting_candidates():
    # every pair rides link (0, 1), so only the heaviest survives
    mesh = MeshConfig.grid(4, 1)
    prof = router_profile(mesh, {(0, 1): 9, (0, 2): 10, (0, 3): 11})
    plan = ga_allocate(prof, mesh, 1, GaParams(generations=60), "r2r")
    assert plan_weight(plan, prof) == 33  # 11 flits x 3 hops
    assert plan_pairs(plan) == [(0, 3)]


def test_ga_deterministic():
    mesh = MeshConfig.grid(3, 2)
    rng = random.Random(4)
    pairs = rng.sample([(a, b) for a in range(6) for b in range(6) if a != b], 10)
    prof = router_profile(mesh, {p: rng.randint(1, 50) for p in pairs})
    params = GaParams(generations=120, seed=5)
    p1 = ga_allocate(prof, mesh, 2, params, "r2r")
    p2 = ga_allocate(prof, mesh, 2, GaParams(generations=120, seed=5), "r2r")
    assert plan_pairs(p1) == plan_pairs(p2)
    assert p1.meta["fitness_history"] == p2.meta["fitness_history"]


def test_ga_never_below_greedy():
    mesh = MeshConfig.grid(3, 3)
    rng = random.Random(31)
    all_pairs = [(a, b) for a in range(9) for b in range(9) if a != b]
    for trial in range(5):
        prof = router_profile(
            mesh, {p: rng.randint(1, 80) for p in rng.sample(all_pairs, 12)}
        )
        for k in (1, 2):
            greedy = plan_weight(greedy_allocate(prof, mesh, k, "r2r"), prof)
            ga = ga_allocate(prof, mesh, k, GaParams(generations=80, seed=trial), "r2r")
            assert plan_weight(ga, prof) >= greedy


def test_ga_fitness_history_monotone():
    mesh = MeshConfig.grid(3, 2)
    rng = random.Random(8)
    pairs = rng.sample([(a, b) for a in range(6) for b in range(6) if a != b], 9)
    prof = router_profile(mesh, {p: rng.randint(1, 30) for p in pairs})
    plan = ga_allocate(prof, mesh, 2, GaParams(generations=150), "r2r")
    hist = plan.meta["fitness_history"]
    assert len(hist) >= 1
    assert all(b >= a for a, b in zip(hist, hist[1:]))
    assert hist[-1] == plan.meta["fitness"]


def _untemper(word):
    """The Mersenne Twister state word that tempers to word."""

    def unshift(y, shift, mask=0xFFFFFFFF):
        x = y
        for _ in range(32 // abs(shift) + 1):
            x = y ^ ((x << -shift if shift < 0 else x >> shift) & mask & 0xFFFFFFFF)
        return x

    word = unshift(word, 18)
    word = unshift(word, -15, 0xEFC60000)
    word = unshift(word, -7, 0x9D2C5680)
    return unshift(word, 11)


def _stream_of(words):
    """A Random whose next 32-bit outputs are words (at most 624 of them)."""
    rng = random.Random()
    state = list(rng.getstate()[1])
    state[: len(words)] = [_untemper(w) for w in words]
    state[-1] = 0  # the next output tempers state word 0
    rng.setstate((3, tuple(state), None))
    return rng


def _words_near(p, n, rng):
    """2n words whose draws sit at or around where _draws_below's lane test
    cuts for p: a >> 5 one below, at or one above ceil(p * 2**27), and b at
    its extremes or random; every fourth draw is random throughout."""
    cut = math.ceil(p * 2**27)
    words = []
    for j in range(n):
        if j % 4 == 3:
            words += [rng.getrandbits(32), rng.getrandbits(32)]
            continue
        high = min(max(cut + rng.choice((-1, 0, 1)), 0), 2**27 - 1)
        words += [high << 5 | rng.getrandbits(5),
                  rng.choice((0, 2**32 - 1, rng.getrandbits(32)))]
    return words


def test_untempered_words_come_back_out():
    source = random.Random(4)
    words = [0, 1, 2**31, 2**32 - 1] + [source.getrandbits(32) for _ in range(620)]
    rng = _stream_of(words)
    assert [rng.getrandbits(32) for _ in words] == words


def test_draws_below_matches_single_random_calls():
    """At lane counts around 256 and random ones, at p on the lane test's
    2**-27 grid and the floats either side of it, against one random() < p
    per draw."""
    rng = random.Random(12)
    grid = [k * 2**-27 for k in (1, 2, 3, 67109, 2**20 + 1, 2**26, 2**27 - 1)]
    ps = [0.0, 1.0, 0.5, 1 / 256, 255 / 256, 1 / 3000, *grid]
    ps += [math.nextafter(p, 0.0) for p in grid] + [math.nextafter(p, 1.0) for p in grid]
    cases = [(n, p) for n in (0, 1, 2, 255, 256, 257, 3000)
             for p in ps + [1 / max(n, 1), rng.random()]]
    cases += [(n, p) for n in rng.sample(range(3, 3000), 8) for p in (1 / n, 1 / 256, 0.5)]
    for n, p in cases:
        if n <= 312:  # drawn from words placed around the cut
            block, single = _stream_of(_words_near(p, n, rng)), random.Random()
            single.setstate(block.getstate())
        else:
            seed = rng.getrandbits(32)
            block, single = random.Random(seed), random.Random(seed)
        expected = [j for j in range(n) if single.random() < p]
        assert _draws_below(block, n, p, _lanes(n, p)) == expected, (n, p)
        assert block.getstate() == single.getstate()


def test_randbelow_draws_as_randrange():
    for size in range(2, 65):
        for seed in range(50):
            direct, reference = random.Random(seed), random.Random(seed)
            assert ([_randbelow(direct, size) for _ in range(12)]
                    == [reference.randrange(size) for _ in range(12)])
            assert direct.getstate() == reference.getstate()


def test_ga_params_validation():
    for bad, fragment in (
        (dict(population_size=1), "population must hold at least two"),
        (dict(population_size=MAX_POPULATION + 1), "population must hold at least two"),
        (dict(generations=-1), "generations cannot be negative"),
        (dict(chromosome_mutation_probability=1.5), "chromosome_mutation_probability must be"),
        (dict(chromosome_mutation_probability=-0.1), "chromosome_mutation_probability must be"),
        (dict(elitism_count=10, population_size=10), "elitism_count must be below"),
        (dict(elitism_count=-1), "elitism_count must be below"),
    ):
        with pytest.raises(ConfigError, match=fragment):
            GaParams(**bad)
    assert GaParams(population_size=MAX_POPULATION).population_size == MAX_POPULATION
    prof = router_profile(CHAIN_MESH, CHAIN_COUNTS)
    with pytest.raises(ConfigError, match="need at least one CS subnet"):
        ga_allocate(prof, CHAIN_MESH, 0, GaParams(), "r2r")
    with pytest.raises(ConfigError, match="need at least one CS subnet"):
        greedy_allocate(prof, CHAIN_MESH, 0, "r2r")


def test_plan_validate_catches_conflicts():
    prof = router_profile(CHAIN_MESH, CHAIN_COUNTS)
    cands = {(c.src, c.dst): c for c in candidates_from_profile(prof, CHAIN_MESH, "r2r")}
    with pytest.raises(ConfigError, match="conflict in one subnet"):
        CircuitPlan("r2r", ((cands[A], cands[B]),))
    with pytest.raises(ConfigError, match=re.escape(f"pair {A} placed in two subnets")):
        CircuitPlan("r2r", ((cands[A],), (cands[A],)))
    plan = CircuitPlan("r2r", ((cands[A],), (cands[B],)))
    with pytest.raises(dataclasses.FrozenInstanceError):  # a built plan stays checked
        plan.subnets = ((cands[A], cands[B]),)
    with pytest.raises(ConfigError, match="unknown plan granularity 'mixed'"):
        CircuitPlan("mixed", ())
    with pytest.raises(ConfigError, match="subnet count cannot be negative"):
        CircuitPlan.empty(-1, "e2e")


@st.composite
def candidate_sets(draw):
    """Candidates from random pairs on a random mesh, at either plan granularity."""
    width = draw(st.integers(1, 5))
    height = draw(st.integers(1 if width > 1 else 2, 5))
    nis = draw(st.lists(st.integers(1, 3), min_size=width * height, max_size=width * height))
    mesh = MeshConfig(width, height, tuple(nis))
    granularity = draw(st.sampled_from(["e2e", "r2r"]))
    ends = st.integers(0, (mesh.n_nis if granularity == "e2e" else mesh.n_routers) - 1)
    prof = TrafficProfile(profile_granularity_for(granularity))
    for pair in draw(st.lists(st.tuples(ends, ends), max_size=30, unique=True)):
        prof.entries[pair] = PairTraffic(flit_count=draw(st.integers(1, 50)), hop_count=1)
    return candidates_from_profile(prof, mesh, granularity), granularity


@settings(max_examples=200)
@given(candidate_sets())
def test_conflict_masks_intersect_exactly_where_paths_conflict(case):
    cands, granularity = case
    ports = granularity == "r2r"
    masks = _conflict_masks(cands, ports)
    for (i, a), (j, b) in itertools.permutations(enumerate(cands), 2):
        assert bool(masks[i] & masks[j]) == links_conflict(a.path, b.path, ports)
    # the first clashing pair in (i, j) order names the circuits validate reports
    brute = next(
        ((i, j) for i, j in itertools.combinations(range(len(cands)), 2)
         if links_conflict(cands[i].path, cands[j].path, ports)),
        None,
    )
    assert _first_clash(cands, ports) == brute
    if brute:
        a, b = ((cands[i].src, cands[i].dst) for i in brute)
        with pytest.raises(ConfigError, match=re.escape(f"circuits {a} and {b} conflict")):
            CircuitPlan(granularity, (tuple(cands),))


def resume_matches_scratch(masks, weights, k, parent_order, changed):
    """Run first-fit over a child order from its parent's states and from
    scratch, check that they agree, and return the resumed run's result."""
    child_order = sorted(set(parent_order).symmetric_difference(changed))
    p_placed, p_score, p_states, _ = _first_fit(parent_order, masks, weights, k)
    parent = _Individual(0, parent_order, p_score, p_states)
    placed, score, states, stop = _first_fit(child_order, masks, weights, k, parent, changed)
    s_placed, s_score, s_states, _ = _first_fit(child_order, masks, weights, k)
    assert (score, states) == (s_score, s_states)
    assert len(states) == -(-len(masks) // _BLOCK)
    assert max(changed) < stop and (stop % _BLOCK == 0 or stop == len(masks))
    # block by block, the resumed run placed what the run from scratch
    # places, or took a block with no change from its parent, as it does
    # for every block past where it stopped
    changed_blocks = {j // _BLOCK for j in changed}
    for b in range(len(states)):
        ran, scratch, took = ([[i for i in s if i // _BLOCK == b] for s in pl]
                              for pl in (placed, s_placed, p_placed))
        if ran != scratch or b * _BLOCK >= stop:
            assert b not in changed_blocks and ran == [[]] * k and took == scratch
    return score - p_score, stop


@st.composite
def first_fit_cases(draw):
    """Real candidate masks, a parent order over them and the genes a child flips.

    Flips may fall in the first and the last block.  A child rejoins its
    parent's masks with another weight only where its flips trade one
    circuit for others on the same links, which the fixed cases below do.
    """
    mesh = MeshConfig.grid(draw(st.integers(3, 6)), draw(st.integers(3, 6)))
    granularity = draw(st.sampled_from(["e2e", "r2r"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    routers = range(mesh.n_routers)
    pairs = [(a, b) for a in routers for b in routers if a != b]
    prof = TrafficProfile(profile_granularity_for(granularity))
    for pair in rng.sample(pairs, min(len(pairs), rng.randint(1, 250))):
        prof.entries[pair] = PairTraffic(flit_count=rng.randint(1, 4), hop_count=1)
    cands = candidates_from_profile(prof, mesh, granularity)
    n = len(cands)
    share = draw(st.sampled_from([0.3, 1.0]))
    parent_order = [i for i in range(n) if rng.random() < share]
    # one or two flips often leave the subnets as the parent's a block later
    changed = set(rng.sample(range(n), min(n, draw(st.sampled_from([1, 2, 6])))))
    if rng.random() < 0.25:
        changed.add(rng.randrange(min(n, _BLOCK)))
    if rng.random() < 0.25:
        changed.add(rng.randrange((n - 1) // _BLOCK * _BLOCK, n))
    return (_conflict_masks(cands, granularity == "r2r"), [c.weight for c in cands],
            draw(st.integers(1, 4)), parent_order, sorted(changed))


@settings(max_examples=300)
@given(first_fit_cases())
def test_first_fit_resumed_from_a_parent_matches_a_run_from_scratch(case):
    resume_matches_scratch(*case)


def test_first_fit_rejoins_with_another_weight_or_runs_to_the_end():
    rng = random.Random(5)
    n = 40  # two and a half blocks
    # candidate 0 holds links 0 and 1, candidate 1 link 1, candidate 2
    # link 0, and each of the rest three of links 0-11
    masks = [0b11, 0b10, 0b01] + [sum(1 << b for b in rng.sample(range(12), 3))
                                  for _ in range(n - 3)]
    weights = [10, 6, 5] + sorted((rng.randint(1, 4) for _ in range(n - 3)), reverse=True)
    for k in (1, 2, 3, 4):
        # the child swaps 0 for 1 and 2: after the first block its subnets
        # hold the same links with one more unit of weight
        assert resume_matches_scratch(masks, weights, k, [0] + list(range(3, n)),
                                      [0, 1, 2]) == (1, _BLOCK)
        # changes in the first, a middle and the last block
        resume_matches_scratch(masks, weights, k, list(range(n)), [5, 20, n - 1])
    # every later candidate shares link 0 with candidate 0, so a child without it
    # holds another link from then on and never rejoins
    masks = [1] + [1 | 2 << i for i in range(n - 1)]
    assert resume_matches_scratch(masks, [1] * n, 1, list(range(n)), [0]) == (0, n)


@pytest.mark.parametrize(
    "mesh",
    [MeshConfig.grid(4, 3), MeshConfig.grid(3, 3, 2), MeshConfig.cmp_4x4_51ni()],
    ids=["grid4x3", "grid3x3x2", "cmp51"],
)
def test_conflict_masks_match_pairwise_reference(mesh):
    rng = random.Random(mesh.n_nis)
    for granularity in ("e2e", "r2r"):
        n = mesh.n_nis if granularity == "e2e" else mesh.n_routers
        pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
        for trial in range(4):
            prof = TrafficProfile(profile_granularity_for(granularity))
            for pair in rng.sample(pairs, min(len(pairs), rng.randint(5, 40))):
                prof.entries[pair] = PairTraffic(flit_count=rng.randint(1, 50), hop_count=1)
            cands = candidates_from_profile(prof, mesh, granularity)
            ports = granularity == "r2r"
            masks = _conflict_masks(cands, ports)
            for (i, a), (j, b) in itertools.combinations(enumerate(cands), 2):
                assert bool(masks[i] & masks[j]) == links_conflict(a.path, b.path, ports)


def r2r_circuit(mesh, src, dst):
    return CandidatePair(src, dst, 1, xy_route(mesh, src, dst))


def test_plan_validate_r2r_endpoint_ports():
    mesh = MeshConfig.grid(3, 3)  # router 4 is the centre
    # 4->5 leaves east and 4->7 leaves north: no shared link, one source router
    same_src = (r2r_circuit(mesh, 4, 5), r2r_circuit(mesh, 4, 7))
    with pytest.raises(ConfigError, match=r"\(4, 5\) and \(4, 7\)"):
        CircuitPlan("r2r", (same_src,))
    # 3->4 arrives from the west and 1->4 from the south: one destination router
    same_dst = (r2r_circuit(mesh, 3, 4), r2r_circuit(mesh, 1, 4))
    with pytest.raises(ConfigError, match=r"\(3, 4\) and \(1, 4\)"):
        CircuitPlan("r2r", (same_dst,))
    # one circuit ends where the next begins: different ports, so no clash
    chain = CircuitPlan("r2r", ((r2r_circuit(mesh, 3, 4), r2r_circuit(mesh, 4, 5)),))
    chain.validate()
    # at e2e granularity the shared routers are not a conflict
    CircuitPlan("e2e", (same_src,)).validate()


def test_plan_round_trip(tmp_path):
    mesh = MeshConfig.grid(3, 3)
    rng = random.Random(12)
    pairs = rng.sample([(a, b) for a in range(9) for b in range(9) if a != b], 10)
    prof = router_profile(mesh, {p: rng.randint(1, 60) for p in pairs})
    plan = greedy_allocate(prof, mesh, 3, "r2r")
    path = tmp_path / "plan.txt"
    save_plan(plan, str(path))
    first_line = path.read_text().splitlines()[0]
    assert first_line == "granularity=r2r subnets=3"
    back = load_plan(str(path), mesh)
    assert back.granularity == "r2r"
    assert [(s, c.src, c.dst) for s, c in back.all_circuits()] == \
        [(s, c.src, c.dst) for s, c in plan.all_circuits()]


def test_load_plan_rejects_bad_files(tmp_path):
    mesh = MeshConfig.grid(3, 1)
    cases = {
        "empty.txt": "",
        "header.txt": "granularity=r2r\n0,0,1\n",
        "gran.txt": "granularity=diagonal subnets=1\n0,0,1\n",
        "subnet.txt": "granularity=r2r subnets=1\n3,0,1\n",
        "fields.txt": "granularity=r2r subnets=1\n0,0\n",
        "local.txt": "granularity=r2r subnets=1\n0,1,1\n",
        # a header token without "="
        "token.txt": "granularity r2r subnets=1\n0,0,1\n",
        # a negative subnet count, with no circuit lines to trip over it
        "negative.txt": "granularity=r2r subnets=-2\n",
        # two circuits over the same link packed into one subnet
        "conflict.txt": "granularity=r2r subnets=1\n0,0,1\n0,0,2\n",
    }
    for name, body in cases.items():
        p = tmp_path / name
        p.write_text(body)
        with pytest.raises(TraceFormatError):
            load_plan(str(p), mesh)


@pytest.mark.parametrize("body, fragment", [
    # int() reads these fields as 1, 0 and 1, and a regex \d takes the
    # header's digit; a plan takes ASCII decimal only
    ("granularity=r2r subnets=1\n0,0,0_1\n", "line 2: '0_1' is not an ASCII decimal"),
    ("granularity=r2r subnets=1\n0,+0,1\n", "line 2: '+0' is not an ASCII decimal"),
    ("granularity=r2r subnets=1\n0,0,\u0661\n", "line 2: '\u0661' is not an ASCII decimal"),
    ("granularity=r2r subnets=\u0661\n0,0,1\n", "line 1: bad plan header"),
], ids=["underscore", "plus", "digit", "header-digit"])
def test_load_plan_reads_ascii_decimal_only(tmp_path, body, fragment):
    p = tmp_path / "plan.txt"
    p.write_text(body, encoding="utf-8")
    with pytest.raises(TraceFormatError, match=re.escape(fragment)):
        load_plan(str(p), MeshConfig.grid(3, 1))


def test_load_plan_bounds_the_subnet_count_before_building_subnets(tmp_path):
    mesh = MeshConfig.grid(3, 1)
    p = tmp_path / "plan.txt"
    p.write_text(f"granularity=r2r subnets={MAX_CS_SUBNETS}\n")
    assert load_plan(str(p), mesh).subnet_count == MAX_CS_SUBNETS
    # one more, and a count of more digits than int() reads from text
    for k in (str(MAX_CS_SUBNETS + 1), "9" * 5000):
        p.write_text(f"granularity=r2r subnets={k}\n0,0,1\n")
        with pytest.raises(TraceFormatError,
                           match=f"line 1: a plan has at most {MAX_CS_SUBNETS} subnets"):
            load_plan(str(p), mesh)


def test_load_plan_builds_each_subnets_conflict_masks_once(tmp_path, monkeypatch):
    # the plan's own validate is the one conflict check of a load, and a
    # clash it finds is still named by the lines of the file
    mesh = MeshConfig.grid(4, 4)
    calls = []
    masks = allocator._conflict_masks

    def counted(*args):
        calls.append(args)
        return masks(*args)

    monkeypatch.setattr(allocator, "_conflict_masks", counted)
    p = tmp_path / "plan.txt"
    p.write_text("granularity=r2r subnets=8\n"
                 + "".join(f"{s},{s},{s + 8}\n{s},{s + 8},{s}\n" for s in range(8)))
    assert load_plan(str(p), mesh).circuit_count() == 16
    assert len(calls) == 8
    p.write_text("granularity=r2r subnets=8\n0,0,3\n5,4,7\n5,12,15\n5,5,6\n")
    with pytest.raises(TraceFormatError,
                       match="^line 5: circuit conflicts with line 3 in its subnet$"):
        load_plan(str(p), mesh)


def test_load_plan_e2e_maps_nis(tmp_path):
    mesh = MeshConfig.grid(2, 2, 2)
    p = tmp_path / "plan.txt"
    # NI 0 and NI 1 share router 0: an e2e circuit between them is local
    p.write_text("granularity=e2e subnets=1\n0,0,1\n")
    with pytest.raises(TraceFormatError):
        load_plan(str(p), mesh)
    p.write_text("granularity=e2e subnets=1\n0,0,6\n")
    plan = load_plan(str(p), mesh)
    assert [(s, (c.src, c.dst)) for s, c in plan.all_circuits()] == [(0, (0, 6))]
