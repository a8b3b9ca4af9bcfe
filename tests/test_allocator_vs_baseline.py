"""Differential tests: the allocators against the frozen copy in bench/baseline.

The frozen copy's ga_allocate draws one rng.random() per gene.  However
the search builds its children now, it must take the same draws from the
same stream, so on the same profile and GaParams it must give the same
subnets and the same plan.meta (fitness and fitness_history) as that copy.
Greedy and the oracle must give the same plans as the copy's.
"""

import os
import random
import subprocess
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import hybridnoc as hn
from hybridnoc import allocator
from frozen_baseline import NO_SHRINK, base
from python310 import python_3_10

# probabilities spread over [0, 1] (hypothesis draws floats mostly at the
# ends)
_RATE = st.integers(0, 999).map(lambda i: i / 999)


@st.composite
def meshes(draw, min_width=2):
    width = draw(st.integers(min_width, 5))
    height = draw(st.integers(2, 5))
    nis = tuple(draw(st.lists(st.integers(1, 2), min_size=width * height,
                              max_size=width * height)))
    return width, height, nis


@st.composite
def ga_params(draw, min_population=2, min_generations=0):
    population = draw(st.integers(min_population, 9))
    return dict(
        population_size=population,
        generations=draw(st.integers(min_generations, 40)),
        chromosome_mutation_probability=draw(_RATE),
        elitism_count=draw(st.integers(0, population - 1)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@st.composite
def traps(draw, mesh, min_rows=0, max_rows=3, max_span=None):
    """Flit counts that heaviest-first packing gets wrong in one subnet.

    A pair spanning L >= 2 hops of a row, with f flits, outweighs each of
    the L one-hop pairs under it, with g flits (L*f/2 < g < L*f), so greedy
    places it; leaving it out and keeping two of the short pairs carries
    more.  Each seed of the search leaves out one heavy pair, so with traps
    in two or more rows the search beats its seeds only by combining them,
    and its result then hangs on its draws.
    """
    counts = {}
    ni = lambda x, y: mesh.nis_of_router(y * mesh.width + x)[0]
    rows = st.lists(st.integers(0, mesh.height - 1), min_size=min_rows, max_size=max_rows,
                    unique=True)
    for y in draw(rows) if mesh.width >= 3 else ():
        x0 = draw(st.integers(0, mesh.width - 3))
        x1 = draw(st.integers(x0 + 2, min(x0 + (max_span or mesh.width), mesh.width - 1)))
        f = draw(st.integers(2, 30))
        g = draw(st.integers((x1 - x0) * f // 2 + 1, (x1 - x0) * f - 1))
        counts[(ni(x0, y), ni(x1, y))] = f
        for x in range(x0, x1):
            counts[(ni(x, y), ni(x + 1, y))] = g
    return counts


@st.composite
def scenarios(draw):
    """Any mesh, plan granularity and k, random pairs plus some traps."""
    width, height, nis = draw(meshes())
    mesh = hn.MeshConfig(width, height, nis)
    size = draw(st.integers(0, min(40, mesh.n_nis ** 2)))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, mesh.n_nis - 1), st.integers(0, mesh.n_nis - 1)),
        min_size=size, max_size=size, unique=True,
    ))
    low = draw(st.integers(1, 60))
    high = draw(st.sampled_from([low, low + 2, 120]))
    counts = {pair: draw(st.integers(low, high)) for pair in pairs}
    counts.update(draw(traps(mesh)))
    granularity = draw(st.sampled_from(["e2e", "r2r"]))
    return width, height, nis, granularity, draw(st.integers(1, 3)), counts, draw(ga_params())


@st.composite
def trap_scenarios(draw):
    """Traps in two or more rows and one subnet, where the search does work."""
    width, height, nis = draw(meshes(min_width=3))
    counts = draw(traps(hn.MeshConfig(width, height, nis), min_rows=2))
    granularity = draw(st.sampled_from(["e2e", "r2r"]))
    ga = draw(ga_params(min_population=3, min_generations=10))
    return width, height, nis, granularity, 1, counts, ga


@st.composite
def workload_scenarios(draw):
    """Hundreds of candidates with heavy-tailed weights, as in the benchmark.

    Mutation blocks span hundreds of 64-bit lanes, most ruled out by the
    lane test and the rest settled from their full draws; a chromosome
    selects more than one block of candidates, so children resume
    first-fit past its first saved state; and tournaments often pick one
    individual twice, so parents are often identical.
    """
    width = draw(st.integers(5, 8))
    height = draw(st.integers(5, 8))
    nis = tuple(draw(st.lists(st.integers(1, 2), min_size=width * height,
                              max_size=width * height)))
    mesh = hn.MeshConfig(width, height, nis)
    granularity = draw(st.sampled_from(["e2e", "r2r"]))
    if granularity == "e2e":
        ends = [(a, b) for a in range(mesh.n_nis) for b in range(mesh.n_nis)
                if mesh.router_of_ni(a) != mesh.router_of_ni(b)]
    else:  # one NI pair per router pair, so that no two pairs fold into one
        ni = lambda r: mesh.nis_of_router(r)[0]
        ends = [(ni(a), ni(b)) for a in range(mesh.n_routers) for b in range(mesh.n_routers)
                if a != b]
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pairs = rng.sample(ends, draw(st.integers(150, 600)))
    counts = {pair: int(10 * rng.paretovariate(1.2)) for pair in pairs}
    # a short trap in every row, far heavier than any random pair, leads the
    # candidate order, so in one subnet the search can beat its seeds and its
    # result then hangs on its draws
    heavy = draw(traps(mesh, min_rows=height, max_rows=height, max_span=2))
    counts.update({pair: 10**5 * f for pair, f in heavy.items()})
    population = draw(st.integers(2, 10))
    ga = dict(
        population_size=population,
        generations=draw(st.integers(20, 60)),
        chromosome_mutation_probability=draw(st.sampled_from([0.0, 1.0]) | _RATE),
        elitism_count=draw(st.just(0) | st.integers(0, population - 1)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    return width, height, nis, granularity, draw(st.integers(1, 4)), counts, ga


def bench_shaped_scenario():
    """A 2000-pair Pareto profile on 8x8, three e2e subnets, default search."""
    rng = random.Random(0)
    universe = [(s, d) for s in range(64) for d in range(64) if s != d]
    pairs = sorted(rng.sample(universe, 2000))
    counts = {pair: int(10 * rng.paretovariate(1.2)) for pair in pairs}
    return 8, 8, (1,) * 64, "e2e", 3, counts, dict(generations=30, seed=0)


def _plan(pkg, scenario, method):
    width, height, nis, granularity, k, counts, ga = scenario
    mesh = pkg.MeshConfig(width, height, nis)
    prof = pkg.profile_from_flit_counts(
        counts, mesh, pkg.profile_granularity_for(granularity))
    if method == "ga":
        plan = pkg.ga_allocate(prof, mesh, k, pkg.GaParams(**ga), granularity)
    elif method == "greedy":
        plan = pkg.greedy_allocate(prof, mesh, k, granularity)
    elif pkg is base:
        plan = base.enumerate_oracle(prof, mesh, k, granularity, max_pairs=12)
    else:  # the same cap of 12 candidates as the frozen copy's call
        with mock.patch.object(allocator, "MAX_ORACLE_PAIRS", 12):
            plan = hn.enumerate_oracle(prof, mesh, k, granularity)
    return [[(c.src, c.dst) for c in s] for s in plan.subnets], plan.meta


@settings(max_examples=150, phases=NO_SHRINK)
@given(scenarios())
def test_ga_allocate_matches_frozen_baseline(scenario):
    assert _plan(hn, scenario, "ga") == _plan(base, scenario, "ga")


@settings(max_examples=150, phases=NO_SHRINK)
@given(trap_scenarios())
def test_ga_search_matches_frozen_baseline_where_it_beats_its_seeds(scenario):
    assert _plan(hn, scenario, "ga") == _plan(base, scenario, "ga")


@settings(max_examples=20, phases=NO_SHRINK)
@given(workload_scenarios())
def test_ga_matches_frozen_baseline_at_workload_scale(scenario):
    assert _plan(hn, scenario, "ga") == _plan(base, scenario, "ga")


def test_ga_matches_frozen_baseline_on_a_bench_shaped_profile():
    scenario = bench_shaped_scenario()
    assert _plan(hn, scenario, "ga") == _plan(base, scenario, "ga")


@settings(max_examples=100, phases=NO_SHRINK)
@given(scenarios())
def test_greedy_allocate_matches_frozen_baseline(scenario):
    assert _plan(hn, scenario, "greedy") == _plan(base, scenario, "greedy")


@settings(max_examples=100, phases=NO_SHRINK)
@given(scenarios())
def test_enumerate_oracle_matches_frozen_baseline(scenario):
    try:
        expected = _plan(base, scenario, "oracle")
    except base.AllocationError:  # above the candidate cap
        with pytest.raises(hn.ConfigError, match="oracle cap of"):
            _plan(hn, scenario, "oracle")
        return
    assert _plan(hn, scenario, "oracle") == expected


def test_oracle_matches_frozen_baseline_on_a_tied_bench_shaped_profile():
    """The 20 heaviest router pairs of a bench-shaped 8x8 profile, in two subnets.

    Weights are the rounded square roots of Pareto draws (shape 1.2, as in
    the benchmark), so many of the top 20 tie, and the first optimum the
    search finds rests on the tie break.
    """
    rng = random.Random(0)
    universe = [(s, d) for s in range(64) for d in range(64) if s != d]
    pairs = sorted(rng.sample(universe, 2000))
    scale = 720720  # divisible by every hop count up to 14
    weights = {pair: scale * round(rng.paretovariate(1.2) ** 0.5) for pair in pairs}

    def plan(pkg):
        mesh = pkg.MeshConfig.grid(8, 8)
        counts = {(s, d): w // mesh.hop_distance(s, d) for (s, d), w in weights.items()}
        prof = pkg.profile_from_flit_counts(counts, mesh, "router")
        top = prof.sorted_pairs()[:20]
        assert len({prof.entries[p].weight for p in top}) < 10
        prof.entries = {p: prof.entries[p] for p in top}
        result = pkg.enumerate_oracle(prof, mesh, 2, "r2r")
        return [[(c.src, c.dst) for c in s] for s in result.subnets], result.meta

    assert plan(hn) == plan(base)


# Run in a python3.10 subprocess: ga_allocate of the package and of the
# frozen copy on trap profiles of a 5x3 mesh in one subnet (traps in rows 0
# and 2, alone and among 150 one-flit pairs, so that mutation flags span
# three 64-bit lanes), where the search beats its seeds and its result
# hangs on its draws.  It prints OK if every pair of plans and metas is equal.
_PY310_CHECK = """
import random, sys
import hybridnoc as hn, hybridnoc_baseline as base
assert sys.version_info[:2] == (3, 10), sys.version
trap = {(0, 3): 10, (0, 1): 20, (1, 2): 20, (2, 3): 20,
        (11, 14): 8, (11, 12): 14, (12, 13): 14, (13, 14): 14}
ends = [(s, d) for s in range(15) for d in range(15) if s != d]
padded = {**dict.fromkeys(random.Random(0).sample(ends, 150), 1), **trap}
cases = [(trap, "e2e", dict(population_size=6, generations=60, seed=7)),
         (trap, "r2r", dict(population_size=4, generations=40, seed=1)),
         (padded, "e2e", dict(population_size=4, generations=60, seed=1))]
for counts, gran, ga in cases:
    plans = []
    for pkg in (hn, base):
        mesh = pkg.MeshConfig.grid(5, 3)
        prof = pkg.profile_from_flit_counts(counts, mesh, pkg.profile_granularity_for(gran))
        plan = pkg.ga_allocate(prof, mesh, 1, pkg.GaParams(**ga), gran)
        plans.append(([[(c.src, c.dst) for c in s] for s in plan.subnets], plan.meta))
    history = plans[0][1]["fitness_history"]
    assert plans[0] == plans[1] and history[-1] > history[0], (len(counts), gran, ga)
print("OK")
"""


def test_ga_allocate_matches_frozen_baseline_under_python_3_10():
    """Python 3.10 is the oldest version the package supports."""
    root = Path(__file__).resolve().parent.parent
    exe, env = python_3_10(dict(
        os.environ, PYTHONPATH=f"{root / 'src'}{os.pathsep}{root / 'bench' / 'baseline'}"))
    done = subprocess.run([exe, "-B", "-c", _PY310_CHECK], capture_output=True, text=True,
                          timeout=60, env=env)
    assert done.returncode == 0 and done.stdout.strip() == "OK", done.stderr
