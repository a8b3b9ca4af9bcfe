"""hybridnoc benchmark: seeded workloads through the public CLI, in one process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload adaptive-cmp51-phased --seed 0 --seconds 60 --trace 0

The benchmark imports ``hybridnoc`` from ``src/`` of the checkout it lives in,
writes the workload's inputs from ``--seed`` under ``.bench_work/``, then
repeats the workload's CLI calls (``hybridnoc.cli.main``) for about
``--seconds``, at least once.  Every call is checked from outside: exit code 0,
flit conservation in each report, each plan reloads through ``load_plan``
(which rejects conflicting circuits), and the SHA-256 over all output files is
the same on every pass.

With ``--trace 0`` each timed call is paired with the same call through the
frozen copy in ``bench/baseline/`` on the same inputs, run right before or
after it, and the bounded time is the ratio of the two (``wall_ratio``).
It reports host and modelled end-to-end metrics.  With ``--trace 1`` it
alternates untraced and traced passes and reports per-layer metrics from
spans recorded around the public calls of each layer.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a JSON report
with every metric, the output digest and the machine.
"""

from __future__ import annotations

import argparse
import configparser
import gc
import hashlib
import importlib
import io
import json
import logging
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from typing import Callable, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
BASELINE = os.path.join(BENCH_DIR, "baseline")
WORK = os.path.join(ROOT, ".bench_work")

sys.path[:0] = [BENCH_DIR, SRC]
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Prepared, config_facts  # noqa: E402

# The seed a result is quoted at, and one held out for checking a claim.
DEFAULT_SEED = 0
HELD_OUT_SEED = 1
SETUP_ROUNDS_BEFORE = 8  # set-up rounds before the first pass's own

# Units of the report-line metrics that BENCHMARK.json does not declare.
UNITS = {
    "wall_s": "s", "baseline_wall_s": "s", "sim_cycles_per_s": "1/s",
    "flits_per_s": "1/s", "ops_failed_frac": "fraction",
    "mean_latency_cycles": "cycles", "p99_latency_cycles": "cycles",
    "energy_per_flit": "energy", "in_circuit_pct": "%", "plan_weight": "flit-hops",
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing package, wrong inputs)."""


def _purge(package: str) -> None:
    for name in [n for n in sys.modules if n == package or n.startswith(package + ".")]:
        del sys.modules[name]


def set_up(prepare, seed: int, in_dir: str, out_dir: str):
    """Import hybridnoc afresh and write the workload's inputs; returns the time."""
    t0 = time.perf_counter()
    _purge("hybridnoc")
    try:
        hn = importlib.import_module("hybridnoc")
        cli = importlib.import_module("hybridnoc.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import hybridnoc from {SRC}: {exc}") from exc
    if not os.path.abspath(hn.__file__).startswith(SRC + os.sep):
        raise BenchError(f"hybridnoc came from {hn.__file__}, not from {SRC}")
    shutil.rmtree(in_dir, ignore_errors=True)
    os.makedirs(in_dir)
    prepared = prepare(hn, in_dir, out_dir, seed)
    if prepared.config_path is not None:
        facts = config_facts(hn.load_config(prepared.config_path))
        wrong = {k: (facts[k], v) for k, v in prepared.expected.items() if facts[k] != v}
        if wrong:
            raise BenchError(f"load_config read other values than written: {wrong}")
    return time.perf_counter() - t0, hn, cli, prepared


def _digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
        h.update(b"\0")
    return h.hexdigest()


def _check_outputs(hn, prepared: Prepared, argv: List[str], out_dir: str,
                   new_files: List[str], rc) -> List[str]:
    """Reasons this call's outputs are wrong; empty when they pass."""
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
    reports = [f for f in new_files if f.endswith(".report")]
    plans = [f for f in new_files if f.endswith(".plan")]
    if argv[0] == "run" and not reports:
        problems.append("no report written")
    if argv[0] == "allocate" and not plans:
        problems.append("no plan written")
    # An adaptive epoch report is one window of a single run: its in_flight is
    # what the network still holds at the window's end, and flits in flight at
    # a boundary are injected in one window and ejected in the next.  So the
    # windows chain: injected + carried in == ejected + in_flight, with nothing
    # carried into the first window; a whole-run report is the one-window case.
    carried: Dict[str, int] = {}
    for name in sorted(reports, key=_epoch_order):
        try:
            rep = hn.read_run_report(os.path.join(out_dir, name))["run"]
            injected, ejected, in_flight = (
                int(rep[k]) for k in ("flits_injected", "flits_ejected", "in_flight"))
        except (ValueError, KeyError, configparser.Error) as exc:
            problems.append(f"{name}: unreadable report: {exc}")
            continue
        run = re.sub(r"-epoch\d+\.report$", "", name)
        carried_in = carried.get(run, 0)
        if injected + carried_in != ejected + in_flight:
            problems.append(f"{name}: injected {injected} + carried in {carried_in} "
                            f"!= ejected {ejected} + in flight {in_flight}")
        carried[run] = in_flight
    for name in plans:
        try:
            hn.load_plan(os.path.join(out_dir, name), prepared.mesh)
        except (ValueError, KeyError) as exc:
            problems.append(f"{name}: does not reload: {exc}")
    return problems


def import_baseline():
    """The frozen copy of the package's CLI that every timed call is paired with.

    It is imported afresh for every pass, as the package is, so that neither
    side of a pair runs warmer code than the other.
    """
    if BASELINE not in sys.path:
        sys.path.insert(0, BASELINE)
    _purge("hybridnoc_baseline")
    try:
        return importlib.import_module("hybridnoc_baseline.cli")
    except ImportError as exc:
        raise BenchError(f"cannot import the baseline from {BASELINE}: {exc}") from exc


def _call(cli, argv: List[str]):
    """One CLI call with its output swallowed; returns (exit code, seconds)."""
    gc.collect()
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(sink):
            rc = cli.main(list(argv))
    except Exception:  # a crash is a failed call, not a failed benchmark
        traceback.print_exc()
        rc = "exception"
    return rc, time.perf_counter() - t0


def run_pass(hn, cli, prepared: Prepared, out_dir: str,
             tracer: Optional[Tracer] = None, baseline: Optional[Callable] = None,
             baseline_first: bool = False) -> Dict[str, object]:
    """One timed pass over the workload's CLI calls, then its output checks.

    With ``baseline`` (a function importing the frozen copy's CLI) the same
    calls also run through that copy, all of them right before or right
    after the package's, writing to a directory of their own.  When the
    package goes first, the peak memory is read before the copy is imported.
    """
    base_out = out_dir + "-baseline"
    for d in (out_dir, base_out) if baseline is not None else (out_dir,):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
    loadavg = os.getloadavg()
    call_s: List[float] = []
    base_s: List[float] = []
    outcomes = []

    def run_baseline() -> None:
        base_cli = baseline()
        for argv in prepared.calls:
            rc, took = _call(base_cli, [a.replace(out_dir, base_out) for a in argv])
            if rc != 0:
                raise BenchError(f"the baseline failed on {' '.join(argv)}: exit {rc}")
            base_s.append(took)

    if baseline is not None and baseline_first:
        run_baseline()
    if tracer is not None:
        tracer.install()
    try:
        for argv in prepared.calls:
            before = set(os.listdir(out_dir))
            rc, took = _call(cli, argv)
            call_s.append(took)
            outcomes.append((argv, rc, sorted(set(os.listdir(out_dir)) - before)))
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if baseline is not None and not baseline_first:
        run_baseline()
    failures = []
    for argv, rc, new_files in outcomes:
        problems = _check_outputs(hn, prepared, argv, out_dir, new_files, rc)
        for p in problems:
            print(f"check failed: {' '.join(argv[:1] + argv[-2:])}: {p}", file=sys.stderr)
        failures.append(bool(problems))
    return {
        "loadavg": loadavg,
        "peak_rss_mb": peak_rss_mb,
        "call_s": call_s,
        "wall_s": sum(call_s),
        "baseline_wall_s": sum(base_s),
        "failed": failures,
        "digest": _digest(out_dir),
        "outputs": None if any(failures) else _read_outputs(hn, prepared, out_dir),
    }


def _read_outputs(hn, prepared: Prepared, out_dir: str) -> Dict[str, object]:
    """Modelled figures from the files a pass wrote."""
    reports = []
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".report"):
            cp = configparser.ConfigParser()
            cp.read(os.path.join(out_dir, name))
            reports.append(cp)
    cycles = sum(int(r["run"]["cycles_simulated"]) for r in reports)
    flits = sum(int(r["run"]["flits_ejected"]) for r in reports)
    out: Dict[str, object] = {"cycles": cycles, "flits": flits,
                              "plan_churn": _plan_churn(out_dir)}
    measured = sum(int(r["latency"]["measured_flits"]) for r in reports)
    if measured:
        out["mean_latency_cycles"] = sum(
            float(r["latency"]["mean"]) * int(r["latency"]["measured_flits"])
            for r in reports) / measured
        out["p99_latency_cycles"] = max(int(r["latency"]["p99"]) for r in reports)
        with_energy = [r for r in reports if r.has_section("energy")]
        out["energy_per_flit"] = (
            sum(float(r["energy"]["total"]) for r in with_energy)
            / sum(int(r["run"]["flits_ejected"]) for r in with_energy))
        out["in_circuit_pct"] = 100.0 * sum(
            int(r["run"]["in_circuit_flits"]) for r in reports) / flits
    if prepared.ga_plan is not None:
        out["plan_weight"] = hn.plan_weight(
            hn.load_plan(prepared.ga_plan, prepared.mesh),
            hn.load_profile(prepared.profile_path, "ni"))
    return out


def _epoch_order(name: str):
    """Sort key putting adaptive epoch files in epoch order."""
    m = re.search(r"-epoch(\d+)\.\w+$", name)
    return (name[:m.start()], int(m.group(1))) if m else (name, -1)


def _plan_lines(path: str) -> set:
    with open(path, encoding="utf-8") as fh:
        return {l.strip() for l in fh.readlines()[1:] if l.strip()}


def _plan_churn(out_dir: str) -> int:
    """Circuits added plus removed between consecutive adaptive epoch plans."""
    names = sorted((n for n in os.listdir(out_dir) if re.search(r"-epoch\d+\.plan$", n)),
                   key=_epoch_order)
    plans = [_plan_lines(os.path.join(out_dir, n)) for n in names]
    return sum(len(a ^ b) for a, b in zip(plans, plans[1:]))


# --- per-layer figures ------------------------------------------------------

def _layer_metrics(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    c = tracer.counts
    run_s = tracer.total("Simulation.run_until", "Simulation.run_to_completion")
    out = {
        "simcore.run_s": run_s,
        "simcore.build_s": tracer.total("Simulation.__init__"),
        "simcore.finalize_s": tracer.total("Simulation.finalize"),
        "simcore.us_per_flit": 1e6 * run_s / c["sim_flits"] if c["sim_flits"] else 0.0,
        "simcore.us_per_cycle": 1e6 * run_s / c["sim_cycles"] if c["sim_cycles"] else 0.0,
        "simcore.sw_allocations": c["sw_allocations"],
        "simcore.vc_allocations": c["vc_allocations"],
        "simcore.buffer_writes": c["buffer_writes"],
        "allocator.ga_s": tracer.total("ga_allocate"),
        "allocator.oracle_s": tracer.total("enumerate_oracle"),
        "allocator.greedy_s": tracer.total("greedy_allocate"),
        "allocator.candidates": c["candidates"],
        "allocator.placed_frac": c["placed"] / c["candidates"] if c["candidates"] else 0.0,
        "orchestrator.build_plan_s": tracer.total("build_plan"),
        "orchestrator.epochs": c["epochs"],
        "orchestrator.report_write_s": tracer.total("write_run_report"),
        "orchestrator.load_config_s": tracer.total("load_config"),
        "energy.account_s": tracer.total("account"),
        "traffic.ingest_s": tracer.total("ingest"),
        "traffic.profile_s": tracer.total("profile_from_flit_counts", "load_profile"),
        "traffic.packets": c["packets"],
        "trace.wall_s": wall_s,
        "trace.spans": len(tracer.spans),
    }
    for layer, t in tracer.layer_self().items():
        out[f"{layer}.self_s"] = t
    return out


def quiescent_frac(hn, prepared: Prepared) -> float:
    """Share of cycles with no packet between its injection and its last eject.

    Runs the workload's trace on its layout with no plan, recording flits.
    """
    cfg = hn.load_config(prepared.config_path)
    trace = hn.make_trace(cfg)
    stats = hn.simulate(cfg.mesh, cfg.layout, cfg.vc, trace, None,
                        seed=cfg.seed, record_flits=True)
    last: Dict[int, int] = {}
    for r in stats.flit_records:
        if r.eject_cycle > last.get(r.packet_id, -1):
            last[r.packet_id] = r.eject_cycle
    busy = 0
    cover_end = -1  # last cycle already counted busy
    for start, end in sorted((ev.inject_cycle, last[ev.packet_id]) for ev in trace):
        if end > cover_end:
            busy += end - max(start, cover_end + 1) + 1
            cover_end = end
    return 1.0 - busy / stats.cycles_simulated


def ga_setup_s(hn, prepared: Prepared, seed: int) -> float:
    """Time of a zero-generation GA on the workload's profile (mostly masks)."""
    prof = hn.load_profile(prepared.profile_path, "ni")
    t0 = time.perf_counter()
    hn.ga_allocate(prof, prepared.mesh, prepared.ga_subnets,
                   hn.GaParams(generations=0, seed=seed), "e2e")
    return time.perf_counter() - t0


# --- the run ------------------------------------------------------------------

def _machine() -> Dict[str, object]:
    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    commit = fh.read().strip()
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # The result carries exactly the metrics BENCHMARK.json declares for this mode.
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {**UNITS, **{m["name"]: m["unit"] for m in declared}}

    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")

    in_dir = os.path.join(WORK, args.workload, "in")
    out_dir = os.path.join(WORK, args.workload, "out")
    prepare = WORKLOADS[args.workload]
    setups: List[float] = []
    passes: List[Dict[str, object]] = []
    traced: List[Dict[str, object]] = []
    start = time.perf_counter()
    # Every round sets up afresh before its pass, so the median set-up time
    # samples the whole run; the extra rounds up front make sure there are
    # several.  Another round starts only when the last one says it will end
    # by the deadline, so that a run measures for about --seconds.
    round_s = 0.0
    try:
        for _ in range(SETUP_ROUNDS_BEFORE):
            setups.append(set_up(prepare, args.seed, in_dir, out_dir)[0])
        while not passes or time.perf_counter() + round_s <= start + args.seconds:
            t0 = time.perf_counter()
            took, hn, cli, prepared = set_up(prepare, args.seed, in_dir, out_dir)
            setups.append(took)
            # Which side of a pair runs first alternates from pass to pass;
            # the package goes first in the first pass, before the baseline
            # is imported into this process, so that peak memory is its own.
            passes.append(run_pass(hn, cli, prepared, out_dir,
                                   baseline=None if args.trace else import_baseline,
                                   baseline_first=len(passes) % 2 == 1))
            if args.trace:
                tracer = Tracer()
                p = run_pass(hn, cli, prepared, out_dir, tracer)
                p["layers"] = _layer_metrics(tracer, p["wall_s"])
                p["spans"] = tracer.dump()
                traced.append(p)
            round_s = time.perf_counter() - t0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    every = passes + traced
    digest = every[0]["digest"]
    attempted = sum(len(p["failed"]) for p in every)
    failed = 0
    for p in every:
        if p["digest"] != digest:
            print(f"check failed: output digest {p['digest']} != {digest}",
                  file=sys.stderr)
            failed += len(p["failed"])
        else:
            failed += sum(p["failed"])

    good = [p["outputs"] for p in every if p["outputs"] is not None]
    outputs = good[0] if good else {"cycles": 0, "flits": 0, "plan_churn": 0}
    report: Dict[str, object] = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
        "machine": _machine(), "loadavg": [p["loadavg"] for p in every],
        "passes": len(passes), "pass_wall_s": [p["wall_s"] for p in passes],
        "digest": digest,
        "calls": [_call_label(a) for a in prepared.calls],
        "call_s": [statistics.median(p["call_s"][i] for p in passes)
                   for i in range(len(prepared.calls))],
    }

    if args.trace == 0:
        # The two sides of a pair run the same calls on the same inputs within
        # seconds of each other, so the host's speed at the time and the
        # amount of work the seed makes cancel in their ratio.
        report["pass_baseline_wall_s"] = [p["baseline_wall_s"] for p in passes]
        wall = statistics.median(p["wall_s"] for p in passes)
        values = {
            "wall_ratio": statistics.median(
                p["wall_s"] / p["baseline_wall_s"] for p in passes),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": passes[0]["peak_rss_mb"],
            "wall_s": wall,
            "baseline_wall_s": statistics.median(p["baseline_wall_s"] for p in passes),
            "sim_cycles_per_s": outputs["cycles"] / wall,
            "flits_per_s": outputs["flits"] / wall,
            "ops_failed_frac": failed / attempted,
        }
        for key in ("mean_latency_cycles", "p99_latency_cycles", "energy_per_flit",
                    "in_circuit_pct", "plan_weight"):
            values[key] = outputs.get(key)
        report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    else:
        # All layer figures come from the fastest traced pass, so its self
        # times add up to its wall time; it is set against the fastest
        # untraced pass.
        layers = dict(min(traced, key=lambda p: p["wall_s"])["layers"])
        untraced = min(p["wall_s"] for p in passes)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - untraced
        layers["orchestrator.plan_churn"] = outputs["plan_churn"]
        layers["simcore.quiescent_frac"] = (
            quiescent_frac(hn, prepared) if prepared.config_path else 0.0)
        setup = ga_setup_s(hn, prepared, args.seed) if prepared.ga_plan else 0.0
        layers["allocator.ga_setup_s"] = setup
        layers["allocator.ga_gen_ms"] = (
            1e3 * (layers["allocator.ga_s"] - setup) / prepared.ga_generations
            if prepared.ga_generations else 0.0)
        report["untraced_wall_s"] = untraced
        report["metrics"] = {k: {"value": v, "unit": units[k]}
                             for k, v in sorted(layers.items())}
        span_file = os.path.join(WORK, args.workload, "spans.json")
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump([p["spans"] for p in traced], fh)

    final = {m["name"]: report["metrics"][m["name"]] for m in declared}
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0


def _call_label(argv: List[str]) -> str:
    """"run" or "allocate <method>", to name a call's time in the report."""
    if "--method" in argv:
        return f"{argv[0]} {argv[argv.index('--method') + 1]}"
    return argv[0]


if __name__ == "__main__":
    raise SystemExit(main())
