"""polsqueeze benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload reduce --seed 1 --seconds 18 --trace 0

Run from the repository root; the library is imported from ``src/``.  The
run executes rounds of the workload's seeded op list (see workloads.py) until
the timed ops have taken ``--seconds`` and at least MIN_ROUNDS rounds are
done, always finishing the round in progress, and gates every result.  The
last stdout line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it records the
machine fingerprint and the run's health.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SPEC = BENCH_DIR.parent / "BENCHMARK.json"  # metric names and units
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
WORKLOADS = ("reduce", "sweep", "shots", "count-tables")
MIN_ROUNDS = 4  # with TAIL_BEYOND = 10 and odd rounds, p50 and tail sit mid-slot
TAIL_BEYOND = 10  # ops beyond the tail percentile in the shortest run
SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 120
WICK_SAMPLE = 3
WICK_RTOL = 1e-9


class BenchError(RuntimeError):
    """The benchmark cannot run here (no library, bad setup)."""


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_library():
    sys.path.insert(0, str(SRC))
    try:
        import polsqueeze
    except ImportError as exc:
        raise BenchError(f"cannot import polsqueeze from {SRC}: {exc}") from exc
    if not Path(polsqueeze.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"polsqueeze imported from {polsqueeze.__file__}, not {SRC}")
    import workloads

    return workloads


def set_up(workload: str, seed: int):
    """Import, generate round 0 and warm up: everything before the first timed op."""
    wl = import_library()
    cold = wl.ColdKeys()
    warm = wl.warm_up_ops(workload)
    cold.claim(warm + [wl.crit1_op()])
    first = wl.make_round(workload, seed, 0)
    cold.claim(first)
    for op in warm:
        wl.execute(op)
    return wl, cold, first


def setup_samples(args) -> list[float]:
    """Seconds from interpreter start to ready-to-time, in fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = []
    for _ in range(SETUP_SAMPLES):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            try:
                _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError("setup probe timed out") from None
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"setup probe failed: {err.strip()[-400:]}")
        out.append(elapsed)
    return out


def calib_s() -> float:
    """Host-speed probe: best of three runs of a fixed pure-Python/mpmath loop."""
    import mpmath as mp

    best = math.inf
    for _ in range(3):
        start = perf_counter()
        with mp.workdps(50):
            acc = mp.mpf(0)
            for k in range(1, 10_000):
                acc += mp.sqrt(k) / k
        s = 0
        for k in range(300_000):
            s += k * k % 7
        best = min(best, perf_counter() - start)
    return best


def fingerprint() -> dict:
    import importlib.util

    import mpmath
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def tail(latencies: list[float], round_len: int) -> tuple[float, float]:
    """(value, percentile) of the op-latency tail.

    The percentile is fixed per workload: the highest one that leaves
    TAIL_BEYOND ops beyond it in the shortest run (MIN_ROUNDS rounds).  A
    longer run, for instance of a faster program, keeps the same percentile
    and so the same meaning.
    """
    n_min = MIN_ROUNDS * round_len
    xs = sorted(latencies)
    k = math.ceil(len(xs) * (n_min - TAIL_BEYOND) / n_min)  # ops at or below it
    return xs[k - 1], 100.0 * (n_min - TAIL_BEYOND) / n_min


class Round:
    """One pass over the op list: its ops, results, latencies and span range."""

    def __init__(self, ops, first_span: int):
        self.ops = ops
        self.first_span = first_span
        self.last_span = first_span
        self.wall = 0.0
        self.times = []  # per op, failed ones included
        self.results = []
        self.counts = []


def measure(wl, workload, seed, seconds, cold, first, tracer):
    """Closed loop over rounds; returns (rounds, latencies, failures)."""
    rounds, latencies, failures = [], [], []
    ops = first
    timed = 0.0
    while True:
        rnd = Round(ops, len(tracer.spans) if tracer else 0)
        for op in ops:
            span0 = len(tracer.spans) if tracer else 0
            t0 = perf_counter()
            try:
                res = wl.execute(op, tracer)
            except Exception:  # a failed op is counted and the run goes on
                rnd.times.append(perf_counter() - t0)
                rnd.wall += rnd.times[-1]
                failures.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
                rnd.results.append(None)
                if tracer:
                    rnd.counts.append({"moments": 0, "max_order": 0})
                continue
            dt = perf_counter() - t0
            rnd.times.append(dt)
            rnd.wall += dt
            rnd.results.append(res)
            why = wl.gate(op, res)
            if why:
                failures.append(f"{op.kind}: {why}")
            else:
                latencies.append(dt)
            if tracer:
                evals = tracer.count("reduced.reduced_two_body", span0)
                rnd.counts.append(wl.work_counts(op, evals, tracer.records))
        if tracer:
            rnd.last_span = len(tracer.spans)
        rounds.append(rnd)
        timed += rnd.wall
        if timed >= seconds and len(rounds) >= MIN_ROUNDS:
            return rounds, latencies, failures
        ops = wl.make_round(workload, seed, len(rounds))
        cold.claim(ops)


def run_gates(wl, workload, seed, rounds) -> dict[str, str]:
    """Once-per-run checks, untimed; maps gate name to 'ok' or the failure."""
    gates = {}
    # replay op 0 untraced: same seed, same bytes (in a traced run this also
    # checks the run_pair_tomography decomposition)
    first = rounds[0]
    op0, res0 = first.ops[0], first.results[0]
    if res0 is None:
        gates["replay"] = "op 0 failed"
    else:
        same = wl.digest(wl.execute(op0)) == wl.digest(res0)
        gates["replay"] = "ok" if same else "replayed result differs"
    if workload == "reduce":
        gates["wick_reference"] = wick_gate(seed, first)
        gates["crit1"] = wl.check_crit1()
    return gates


def wick_gate(seed, first) -> str:
    """A seeded sample of round 0 against the float Wick reference."""
    import reference

    rng = random.Random(f"polsqueeze-bench/wick/{seed}")
    for i in rng.sample(range(len(first.ops)), min(WICK_SAMPLE, len(first.ops))):
        op, res = first.ops[i], first.results[i]
        if res is None:
            return f"op {i} failed"
        p = op.params
        ref = reference.reduced_two_body_ref(p.nc, p.ns, p.nth, op.n)
        err = reference.max_rel_diff(res[0].matrix, ref)
        if err > WICK_RTOL:
            return f"N={op.n} (nc={p.nc:.4g}, ns={p.ns:.4g}, nth={p.nth:.4g}): rel {err:.3g}"
    return "ok"


def round_time(rounds) -> float:
    """Time to finish the op list: each design slot's median time over the rounds, summed.

    Robust to a host hiccup that slows a few ops, where one round's wall
    time is not.
    """
    by_slot = {}
    for rnd in rounds:
        for op, dt in zip(rnd.ops, rnd.times):
            by_slot.setdefault(op.slot, []).append(dt)
    return sum(statistics.median(ts) for ts in by_slot.values())


def end_to_end(rounds, latencies, setup) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": round_time(rounds),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail(latencies, len(rounds[0].ops))[0],
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


BUSY = (
    "reduced.reduced_two_body",
    "entanglement.optimize_ns_for_concurrence",
    "reduced.averaged_two_body",
    "odm.build_odm",
    "entanglement.bipartition_negativity",
    "depth.depth_exact_small_j",
    "depth.min_jx2_at_defect",
    "entanglement.concurrence",
    "entanglement.delta_criterion",
    "detect.simulate_shots",
    "detect.reconstruct_two_body",
)


def round_layers(tracer, rnd, span_cost) -> dict[str, float]:
    """Per-layer values of one round."""
    lo, hi = rnd.first_span, rnd.last_span
    busy = {name: tracer.busy(name, lo, hi) for name in BUSY}
    first_rec = tracer.busy("detect.simulate_shots.first_record", lo, hi)

    def total(key):
        return sum(c.get(key, 0) for c in rnd.counts)

    def ratio(num, den):
        return num / den if den else 0.0

    rtb_moments = sum(c["moments"] for op, c in zip(rnd.ops, rnd.counts)
                      if op.kind in ("reduce", "optimize", "averaged"))
    shots = total("shots")
    out = {f"{name}.busy_s": v for name, v in busy.items()}
    out.update({
        "reduced.reduced_two_body.calls": tracer.count("reduced.reduced_two_body", lo, hi),
        "correlators.moments_needed": total("moments"),
        "correlators.max_order": max(c["max_order"] for c in rnd.counts),
        "reduced.us_per_moment": 1e6 * ratio(busy["reduced.reduced_two_body"], rtb_moments),
        "entanglement.optimize_evals": total("opt_evals"),
        "reduced.averaged_terms": total("avg_terms"),
        "detect.simulate_shots.first_record_s": first_rec,
        "detect.simulate_shots.us_per_shot": 1e6 * ratio(
            busy["detect.simulate_shots"] - first_rec, shots - total("sim_calls")),
        "detect.max_n_detected": max(c.get("max_n", 0) for c in rnd.counts),
        "detect.shots_drawn": shots,
        "detect.shots_per_s": ratio(shots, rnd.wall),
        "detect.bootstrap_reps": total("boot"),
        "detect.usable_shot_frac": ratio(total("usable"), shots),
        "detect.collision_frac": ratio(total("collided"), shots),
        "bench.trace_overhead_frac": (hi - lo) * span_cost / rnd.wall,
    })
    return out


def per_layer(tracer, rounds, latencies, failures, calib, span_cost) -> dict[str, float]:
    """Median over rounds of every per-round value, plus the run's health."""
    per_round = [round_layers(tracer, r, span_cost) for r in rounds]
    out = {k: statistics.median(v[k] for v in per_round) for k in per_round[0]}
    attempted = len(latencies) + len(failures)
    out.update({
        "bench.traced_wall_s": round_time(rounds),  # wall_s, with spans on
        "bench.calib_s": calib[0],
        "bench.calib_after_s": calib[1],
        "bench.ops": attempted,
        "bench.rounds": len(rounds),
        "bench.tail_pct": tail(latencies, len(rounds[0].ops))[1],
        "bench.failed_frac": len(failures) / attempted,
    })
    return out


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of one BENCHMARK.json metric list, in its order."""
    try:
        spec = json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {SPEC}: {exc}") from exc
    return {m["name"]: m["unit"] for m in spec[section]}


def payload(values: dict[str, float], units: dict[str, str]) -> dict[str, dict]:
    """``{"name": {"value": v, "unit": u}}`` for exactly the named metrics."""
    missing = [n for n in units if n not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {n: {"value": float(values[n]), "unit": u} for n, u in units.items()}


def run(args) -> int:
    units = metric_units("per_layer" if args.trace else "end_to_end")
    setup = [] if args.trace else setup_samples(args)
    calib_before = calib_s()
    t0 = perf_counter()
    wl, cold, first = set_up(args.workload, args.seed)
    main_setup = perf_counter() - t0

    tracer = None
    if args.trace:
        from tracing import Tracer, span_cost_s

        tracer = Tracer()
        with wl.nested_spans(tracer):
            rounds, latencies, failures = measure(
                wl, args.workload, args.seed, args.seconds, cold, first, tracer)
    else:
        rounds, latencies, failures = measure(
            wl, args.workload, args.seed, args.seconds, cold, first, None)
    if not latencies:
        raise BenchError(f"every op failed: {failures[:3]}")
    calib_after = calib_s()
    if args.trace:
        values = per_layer(tracer, rounds, latencies, failures,
                           (calib_before, calib_after), span_cost_s())
    else:
        values = end_to_end(rounds, latencies, setup)
    gates = run_gates(wl, args.workload, args.seed, rounds)

    attempted = len(latencies) + len(failures)
    health = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "fingerprint": fingerprint(),
        "rounds": len(rounds),
        "round_walls_s": [r.wall for r in rounds],
        "ops": attempted,
        "failed_frac": len(failures) / attempted,
        "failures": failures[:5],
        "tail_pct": tail(latencies, len(rounds[0].ops))[1],
        "gates": gates,
        "calib_s": {"before": calib_before, "after": calib_after},
        "setup_samples_s": setup,
        "main_setup_s": main_setup,
    }
    print(json.dumps({"health": health}))
    result = {
        "correct": not failures and all(v == "ok" for v in gates.values()),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": payload(values, units),
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=18.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    pin_threads()
    try:
        if args.setup_probe:
            set_up(args.workload, args.seed)
            print("ready", flush=True)
            return 0
        return run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
