"""Benchmark of the `timebin` experiments.

    python3 bench/run.py --workload steady_scan --seed 0 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the run sets up the workload three times in this process,
then repeats whole rounds of the workload until ``--seconds`` have passed,
and prints the end-to-end metrics.  With ``--trace 1`` it sets up once
under the tracer, runs one untraced and one traced round, writes the spans
to ``bench/results/`` and prints the per-layer metrics.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")
SETUP_REPEATS = 3

CHANNEL = "dynamics.CirculationChannel"
PROTOCOL = "dynamics.IncoherentProtocol"
ESTIMATORS = ("subtraction.p_fail_k1", "subtraction.p_fail_k2",
              "subtraction.f_sub_single", "subtraction.f_sub_double")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0,
                   help="chooses inputs with no paper-fixed value")
    p.add_argument("--seconds", type=float, default=10.0,
                   help="measure whole rounds until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def cpu_times():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest waited-for child
    (Linux reports ru_maxrss in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.notes = set()

    def add(self, ops):
        for op in ops:
            self.attempted += 1
            if op.failed or op.errors:
                self.failed += 1
            if op.note:
                self.notes.add(f"{op.name}: {op.note}")
            for err in op.errors:
                self.wrong.append(f"{op.name}: {err}")


def timed_round(workload, state, tmp, index, **kw):
    """(wall s, CPU s, ops) of one round; its outputs are deleted after
    the round's checks have read them."""
    outdir = os.path.join(tmp, f"round-{index}")
    os.makedirs(outdir)
    gc.collect()    # garbage of earlier rounds is not charged to this one
    wall0, cpu0 = time.perf_counter(), cpu_times()
    ops = workload.round(state, outdir, **kw)
    wall, cpu = time.perf_counter() - wall0, cpu_times() - cpu0
    shutil.rmtree(outdir, ignore_errors=True)
    return wall, cpu, ops


def end_to_end(workload, import_s, seconds, tally, tmp):
    builds, state = [], None
    for _ in range(SETUP_REPEATS):
        # each build starts from the same heap: the previous one is freed
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup()
        builds.append(time.perf_counter() - t0)
    walls, cpus = [], []
    start = time.perf_counter()
    while True:
        wall, cpu, ops = timed_round(workload, state, tmp, len(walls))
        tally.add(ops)
        walls.append(wall)
        cpus.append(cpu)
        if time.perf_counter() - start >= seconds:
            break
    print(f"# rounds={len(walls)} round_s={walls} setup_builds_s={builds} "
          f"import_s={import_s}", file=sys.stderr)
    return {
        "setup_s": (import_s + statistics.median(builds), "s"),
        "run_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def traced(workload, tally, tmp):
    from tracer import Tracer
    from workloads import SteadyScan

    captured = []

    def on_fixed_point(tr, args, kwargs, result):
        tr.count("fixed_point.iterations", result.iterations)
        captured.append((args[0], result, kwargs.get("tol", 1e-9)))

    def on_derive(tr, args, kwargs, result):
        tr.counters.setdefault("derive_keys", set()).add(
            (args[0].name, args[0].grid.size, float(args[1])))

    def on_write_csv(tr, args, kwargs, result):
        tr.count("write_csv.bytes", os.path.getsize(args[0]))

    tracer = Tracer(hooks={
        "dynamics.fixed_point": on_fixed_point,
        "subtraction.derive_quantities": on_derive,
        "experiments.write_csv": on_write_csv,
    })
    with tracer:
        state = workload.setup()
    base_s, _, ops = timed_round(workload, state, tmp, 0)
    tally.add(ops)
    parallel_s = None
    if isinstance(workload, SteadyScan):
        # the same scan on two worker processes, for the speed-up
        parallel_s, _, ops = timed_round(workload, state, tmp, 1, threads=2)
        tally.add(ops)
    with tracer:
        traced_s, _, ops = timed_round(workload, state, tmp, 2)
    if captured:
        SteadyScan.check_fixed_points(captured, ops)
    tally.add(ops)
    return layer_metrics(tracer, base_s, traced_s, parallel_s), tracer


def layer_metrics(tracer, base_s, traced_s, parallel_s):
    """Per-layer metrics from the traced set-up and round.  A span the
    program no longer has reads 0 and is listed as absent."""
    s = tracer.summary()
    absent = []

    def row(span):
        if span not in tracer.wrapped:
            absent.append(span)
        return s.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0})

    def per_call(span, scale=1.0):
        r = row(span)
        return r["s"] / r["calls"] * scale if r["calls"] else 0.0

    fp = row("dynamics.fixed_point")
    keys = tracer.counters.get("derive_keys", set())
    dq = row("subtraction.derive_quantities")
    m = {
        "dynamics.fixed_point.iterations":
            (tracer.counters.get("fixed_point.iterations", 0), "count"),
        "dynamics.fixed_point.s": (fp["s"], "s"),
        "dynamics.fixed_point.self_s": (fp["self_s"], "s"),
        "dynamics.CirculationChannel.call_ms":
            (per_call(f"{CHANNEL}.__call__", 1e3), "ms"),
        "dynamics.CirculationChannel.calls": (row(f"{CHANNEL}.__call__")["calls"], "count"),
        "experiments.steady_scan.parallel_speedup":
            (base_s / parallel_s if parallel_s else 0.0, "ratio"),
        "dynamics.CirculationChannel.build_s": (per_call(f"{CHANNEL}.__init__"), "s"),
        "dynamics.IncoherentProtocol.step_ms": (per_call(f"{PROTOCOL}.step", 1e3), "ms"),
        "dynamics.IncoherentProtocol.steps": (row(f"{PROTOCOL}.step")["calls"], "count"),
        "dynamics.IncoherentProtocol.build_s": (per_call(f"{PROTOCOL}.__init__"), "s"),
        "spectral.effective_energies.s": (row("spectral.effective_energies")["s"], "s"),
        "spectral.effective_energies.calls":
            (row("spectral.effective_energies")["calls"], "count"),
        "lattice.exact_hamiltonian.s": (row("lattice.exact_hamiltonian")["s"], "s"),
        "subtraction.derive_quantities.calls": (dq["calls"], "count"),
        "subtraction.derive_quantities.s": (dq["s"], "s"),
        "subtraction.derive_quantities.useful_ratio":
            (len(keys) / dq["calls"] if dq["calls"] else 0.0, "ratio"),
        "subtraction.estimators.self_s":
            (sum(row(n)["self_s"] for n in ESTIMATORS), "s"),
        "gates.gate_matrix.s": (row("gates.gate_matrix")["s"], "s"),
        "gates.gate_matrix.calls": (row("gates.gate_matrix")["calls"], "count"),
        "fock.enumerate_basis.s": (row("fock.enumerate_basis")["s"], "s"),
        "fock.enumerate_basis.calls": (row("fock.enumerate_basis")["calls"], "count"),
        "gates.apply_gate.s": (row("gates.apply_gate")["s"], "s"),
        "spectral.step_unitary.s": (row("spectral.step_unitary")["s"], "s"),
        "schedule.simulate_schedule.s": (row("schedule.simulate_schedule")["s"], "s"),
        "schedule.certify_equivalence.s": (row("schedule.certify_equivalence")["s"], "s"),
        "experiments.write_csv.s": (row("experiments.write_csv")["s"], "s"),
        "experiments.write_csv.bytes": (tracer.counters.get("write_csv.bytes", 0), "B"),
        "trace.overhead_s": (traced_s - base_s, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    return m, sorted(set(absent))


def write_trace(path, workload, seed, metrics, absent, tracer):
    payload = {
        "workload": workload, "seed": seed,
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "absent": absent,
        "layers": tracer.summary(),
        "spans": tracer.spans,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "timebin", "__init__.py")):
        print(f"error: no timebin package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import timebin
    import timebin.cli  # noqa: F401  (the entry point every round uses)
    import_s = time.perf_counter() - t0
    if not os.path.abspath(timebin.__file__).startswith(SRC + os.sep):
        print(f"error: timebin imported from {timebin.__file__}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; pick one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    os.makedirs(RESULTS, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RESULTS)
    tally = Tally()
    try:
        if args.trace:
            (metrics, absent), tracer = traced(workload, tally, tmp)
            path = os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.json")
            write_trace(path, args.workload, args.seed, metrics, absent, tracer)
            if absent:
                print(f"# absent spans (reported as 0): {absent}")
            print(f"# spans written to {os.path.relpath(path, ROOT)}")
        else:
            metrics = end_to_end(workload, import_s, args.seconds, tally, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for msg in sorted(tally.notes):
        print(f"# operation failed: {msg}", file=sys.stderr)
    for msg in dict.fromkeys(tally.wrong):
        print(f"# check failed: {msg}")
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
