"""Acceptance gate: nine headline behaviors, one verdict line each.

Each test prints CRITERION n PASS/FAIL so a plain pytest run doubles as
the sign-off checklist.  Batteries are deterministic; measured values are
frozen in the asserts.
"""

import contextlib
import dataclasses
import math
import random
import time

import pytest

from hybridnoc import (
    CandidatePair,
    CircuitPlan,
    ExperimentConfig,
    GaParams,
    MeshConfig,
    PacketClass,
    PairTraffic,
    SubnetLayout,
    SyntheticSpec,
    TrafficEvent,
    TrafficProfile,
    VcConfig,
    designated_pairs,
    enumerate_oracle,
    ga_allocate,
    generate,
    greedy_allocate,
    plan_weight,
    run_adaptive,
    run_baseline,
    run_experiment,
    run_report,
    run_static,
    save_trace,
    simulate,
    summary_rows,
    summary_table,
    sweep_injection,
    write_run_report,
    xy_route,
)

MESH4 = MeshConfig.grid(4, 4)
VC = VcConfig()

# one destination per hop count from NI 0 on the 4x4 grid
DST_AT_HOPS = {1: 1, 2: 2, 3: 3, 4: 7, 5: 11, 6: 15}


@contextlib.contextmanager
def verdict(capsys, num, name):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"CRITERION {num} FAIL: {name}")
        raise
    with capsys.disabled():
        print(f"CRITERION {num} PASS: {name}")


def router_profile(mesh, flit_counts):
    prof = TrafficProfile("router")
    for (a, b), flits in flit_counts.items():
        prof.entries[(a, b)] = PairTraffic(
            flit_count=flits, hop_count=mesh.hop_distance(a, b)
        )
    return prof


def e2e_plan(mesh, *pairs):
    cands = tuple(
        CandidatePair(
            s, d, 1, xy_route(mesh, mesh.router_of_ni(s), mesh.router_of_ni(d))
        )
        for s, d in pairs
    )
    return CircuitPlan("e2e", (cands,))


def test_c1_circuit_timing(capsys):
    # a lone single-flit packet on an idle end-to-end circuit covers h
    # hops in exactly 2h+1 cycles
    with verdict(capsys, 1, "end-to-end circuit latency is exactly 2h+1"):
        start = time.monotonic()
        layout = SubnetLayout(128, 2)  # 64-bit subnets; 64-bit payload = 1 flit
        for hops, dst in sorted(DST_AT_HOPS.items()):
            stats = simulate(
                MESH4, layout, VC,
                [TrafficEvent(0, 0, dst, PacketClass("control", 64), 0)],
                plan=e2e_plan(MESH4, (0, dst)),
                record_flits=True,
            )
            assert stats.flits_ejected == 1
            rec = stats.flit_records[0]
            assert rec.route_class == "cs1"
            assert rec.eject_cycle - rec.inject_cycle == 2 * hops + 1
        assert time.monotonic() - start < 1.0


@pytest.fixture(scope="module")
def allocator_battery():
    # 50 random router-granularity profiles on the two small meshes,
    # each solved by greedy, GA (500 generations), and full enumeration
    start = time.monotonic()
    instances = []
    for mi, mesh in enumerate((MeshConfig.grid(2, 2), MeshConfig.grid(2, 3))):
        all_pairs = [
            (a, b)
            for a in range(mesh.n_routers)
            for b in range(mesh.n_routers)
            if a != b
        ]
        for s in range(25):
            seed = 1000 * mi + s
            rng = random.Random(seed)
            n_pairs = rng.randint(4, min(16, len(all_pairs)))
            counts = {p: rng.randint(1, 100) for p in rng.sample(all_pairs, n_pairs)}
            prof = router_profile(mesh, counts)
            greedy = plan_weight(greedy_allocate(prof, mesh, 1, "r2r"), prof)
            ga_plan = ga_allocate(
                prof, mesh, 1, GaParams(generations=500, seed=seed), "r2r"
            )
            ga = plan_weight(ga_plan, prof)
            oracle = plan_weight(enumerate_oracle(prof, mesh, 1, "r2r"), prof)
            instances.append(
                dict(
                    greedy=greedy,
                    ga=ga,
                    oracle=oracle,
                    history=list(ga_plan.meta["fitness_history"]),
                )
            )
    return instances, time.monotonic() - start


def test_c2_allocator_oracle_equivalence(capsys, allocator_battery):
    with verdict(capsys, 2, "greedy <= GA <= oracle; GA optimal on >= 80%"):
        instances, elapsed = allocator_battery
        assert len(instances) == 50
        for inst in instances:
            assert inst["greedy"] <= inst["ga"] <= inst["oracle"]
        optimal = sum(1 for inst in instances if inst["ga"] == inst["oracle"])
        assert optimal >= 0.8 * len(instances)
        assert elapsed < 300.0


def test_c3_greedy_suboptimality_witness(capsys, allocator_battery):
    with verdict(capsys, 3, "greedy first-fit provably trails the oracle"):
        # overlapping two-hop flows on a 5x1 chain: the top and bottom
        # pairs are disjoint, so greedy's 40 is also optimal
        chain = MeshConfig.grid(5, 1)
        prof = router_profile(chain, {(0, 2): 15, (1, 3): 10, (2, 4): 5})
        assert plan_weight(greedy_allocate(prof, chain, 1, "r2r"), prof) == 40
        assert plan_weight(enumerate_oracle(prof, chain, 1, "r2r"), prof) == 40
        # 25/20/10 variant: greedy keeps the heavy pair plus the one
        # survivor, and enumeration agrees at 35
        m3 = MeshConfig.grid(3, 1)
        prof = router_profile(m3, {(0, 1): 25, (0, 2): 10, (1, 2): 10})
        assert plan_weight(greedy_allocate(prof, m3, 1, "r2r"), prof) == 35
        assert plan_weight(enumerate_oracle(prof, m3, 1, "r2r"), prof) == 35
        # deterministic witness: the heaviest pair blocks both others
        prof = router_profile(m3, {(0, 2): 13, (0, 1): 20, (1, 2): 10})
        assert plan_weight(greedy_allocate(prof, m3, 1, "r2r"), prof) == 26
        assert plan_weight(enumerate_oracle(prof, m3, 1, "r2r"), prof) == 30
        # and the random battery must exhibit the same failure mode
        instances, _ = allocator_battery
        gaps = sum(1 for inst in instances if inst["greedy"] < inst["oracle"])
        assert gaps >= 1


def test_c4_sweep_shape(capsys):
    # all-circuit fabric: lower unloaded latency, earlier saturation
    with verdict(capsys, 4, "circuit fabric saturates first but starts lower"):
        start = time.monotonic()
        rates = [0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.8]
        config = ExperimentConfig(
            MESH4, SubnetLayout(128, 1), VC, "baseline_vc",
            traffic_spec=SyntheticSpec("uniform_random", 0.0), traffic_cycles=6000, seed=1,
        )
        cs = sweep_injection(config, rates, fabric="cs")
        vc = sweep_injection(config, rates, fabric="vc")
        cs_sat = min((p.rate for p in cs if p.saturated), default=math.inf)
        vc_sat = min((p.rate for p in vc if p.saturated), default=math.inf)
        assert cs_sat < vc_sat
        assert cs[0].mean_latency < vc[0].unloaded_mean
        assert time.monotonic() - start < 600.0


def c5_config(subnets, label):
    return ExperimentConfig(
        mesh=MESH4,
        layout=SubnetLayout(128, subnets),
        vc=VC,
        mode="baseline_vc" if subnets == 1 else "static_hybrid",
        allocator="greedy",
        granularity="e2e",
        traffic_spec=SyntheticSpec("regular_mix", 0.04, regularity=0.9),
        traffic_cycles=10000,
        seed=2,
        label=label,
    )


def test_c5_energy_direction(capsys):
    with verdict(capsys, 5, "hybrid cuts energy; more subnets catch more flits"):
        baseline = run_baseline(c5_config(1, "base"))
        four = run_static(c5_config(4, "k4"))
        rows = summary_rows([run_report(four)], run_report(baseline))
        assert rows[0][3] < 1.0  # normalized energy per flit
        # golden bytes: rows built from the 6-decimal report values must
        # print the same 4-decimal table as the live runs did
        assert summary_table(rows) == (
            "config,percent_in_circuit,norm_latency,norm_energy\n"
            "k4,94.54,1.1581,0.2558\n"
        )
        two = run_static(c5_config(2, "k2"))
        eight = run_static(c5_config(8, "k8"))
        assert (
            eight.stats.percent_in_circuit() > two.stats.percent_in_circuit()
        )


def test_c6_r2r_coverage(capsys):
    # router circuits aggregate every NI pair between their endpoints, so
    # they can never carry fewer flits than the same pair list keyed by NI
    with verdict(capsys, 6, "r2r circuits carry at least e2e's flits"):
        mesh = MeshConfig.grid(3, 3, 2)
        for seed in range(20):
            by_gran = {}
            for gran in ("e2e", "r2r"):
                config = ExperimentConfig(
                    mesh=mesh,
                    layout=SubnetLayout(128, 4),
                    vc=VC,
                    mode="static_hybrid",
                    allocator="greedy",
                    granularity=gran,
                    traffic_spec=SyntheticSpec("uniform_random", 0.05),
                    traffic_cycles=4000,
                    seed=seed,
                    label=gran,
                )
                by_gran[gran] = run_static(config).stats.in_circuit_flits
            assert by_gran["r2r"] >= by_gran["e2e"]


def random_experiment_config(rng, index):
    mesh = rng.choice(
        (
            MeshConfig.grid(2, 2),
            MeshConfig.grid(3, 2),
            MeshConfig.grid(3, 3),
            MeshConfig.grid(2, 2, 2),
            MeshConfig.grid(2, 3),
        )
    )
    k = rng.choice((1, 2, 4, 8))
    mode = (
        "baseline_vc"
        if k == 1
        else rng.choice(("static_hybrid", "adaptive_hybrid"))
    )
    spec = SyntheticSpec(
        rng.choice(("uniform_random", "permutation", "hotspot", "regular_mix")),
        rng.uniform(0.01, 0.06),
        regularity=rng.choice((0.0, 0.5, 0.9)),
        designated_pair_count=4,
    )
    return ExperimentConfig(
        mesh=mesh,
        layout=SubnetLayout(128, k),
        vc=VC,
        mode=mode,
        allocator="greedy",
        granularity=rng.choice(("e2e", "r2r")),
        traffic_spec=spec,
        traffic_cycles=rng.randint(800, 2000),
        epoch_cycles=1000,
        seed=rng.randint(0, 10**6),
        label=f"rand{index}",
    )


def report_bytes(results, out_dir):
    blobs = []
    for i, result in enumerate(results):
        path = out_dir / f"{i}.report"
        write_run_report(str(path), result)
        blobs.append(path.read_bytes())
    return b"".join(blobs)


def test_c7_conservation_and_determinism(capsys, tmp_path):
    with verdict(capsys, 7, "flits conserved, circuits bufferless, reruns identical"):
        start = time.monotonic()
        rng = random.Random(707)
        configs = [random_experiment_config(rng, i) for i in range(100)]
        for i, config in enumerate(configs):
            results = run_experiment(config)
            injected = sum(r.stats.flits_injected for r in results)
            ejected = sum(r.stats.flits_ejected for r in results)
            assert injected == ejected + results[-1].stats.in_flight
            for r in results:
                assert all(v == 0 for v in r.stats.buffer_writes[1:])
                assert all(v == 0 for v in r.stats.buffer_reads[1:])
            again = run_experiment(config)
            first_dir = tmp_path / f"a{i}"
            second_dir = tmp_path / f"b{i}"
            first_dir.mkdir()
            second_dir.mkdir()
            assert report_bytes(results, first_dir) == report_bytes(
                again, second_dir
            )
        assert time.monotonic() - start < 600.0


def test_c8_adaptive_replanning(capsys, tmp_path):
    # hot pairs flip at an epoch boundary: the plan built from post-flip
    # observations must pick up the new pairs, and coverage must recover
    with verdict(capsys, 8, "adaptive mode recovers after the hot set flips"):
        epoch = 3000
        spec = SyntheticSpec(
            "regular_mix", 0.05, regularity=1.0, designated_pair_count=8
        )
        ph1 = generate(spec, MESH4, 11, 2 * epoch)
        ph2 = generate(spec, MESH4, 77, 2 * epoch)
        shift = max(ev.packet_id for ev in ph1) + 1
        ph2 = [
            dataclasses.replace(
                ev,
                inject_cycle=ev.inject_cycle + 2 * epoch,
                packet_id=ev.packet_id + shift,
            )
            for ev in ph2
        ]
        trace_path = tmp_path / "flip.csv"
        save_trace(ph1 + ph2, str(trace_path))
        config = ExperimentConfig(
            mesh=MESH4,
            layout=SubnetLayout(128, 4),
            vc=VC,
            mode="adaptive_hybrid",
            allocator="greedy",
            granularity="e2e",
            trace_path=str(trace_path),
            epoch_cycles=epoch,
            seed=0,
            label="flip",
        )
        epochs = run_adaptive(config)
        assert len(epochs) == 4
        new_hot = set(designated_pairs(MESH4, 77, 8))
        recovered_plan = {(c.src, c.dst) for _, c in epochs[3].plan.all_circuits()}
        assert recovered_plan & new_hot
        pre_flip = epochs[1].stats.percent_in_circuit()
        recovered = epochs[3].stats.percent_in_circuit()
        assert pre_flip > 0
        assert abs(recovered - pre_flip) / pre_flip < 0.20


def test_c9_ga_fitness_monotone(capsys, allocator_battery):
    with verdict(capsys, 9, "GA best fitness never decreases"):
        instances, _ = allocator_battery
        for inst in instances:
            hist = inst["history"]
            assert len(hist) >= 1
            assert all(b >= a for a, b in zip(hist, hist[1:]))
            assert hist[-1] == inst["ga"]
