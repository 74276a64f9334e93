"""Decomposition benchmark: one workload per run, or every workload.

    python3 perfbench/run.py --workload ga-h2-paralplus --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all

Each run launches one Spark driver on ``local[nproc]``, builds the
workload's input from ``--seed``, computes the serial ``pyref`` answer
outside every timed region, and calls the public front door
``repro.core.api.decompose``. Every call is checked against that answer,
runs in its own Spark job group and is cancelled once it overruns its
budget.

After a warm-up, ``--trace 0`` times ``decompose`` calls for ``--seconds``
and at least two calls, and reports the end-to-end metrics. ``--trace 1``
times each layer from outside instead: the setup layers and one sweep
replayed part by part, and one traced ``decompose`` call between two
untraced ones. Comment lines starting with ``#`` give the host, every
metric with its quartiles and samples, and any failure; the last line is
one JSON object.
"""
import time

T0 = time.monotonic()  # set-up is timed from here, before the heavy imports

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from pyspark import SparkContext  # noqa: E402

from repro.core.api import decompose  # noqa: E402
from harness import (  # noqa: E402
    BUDGET_S,
    Attempts,
    CallRunner,
    check_result,
    host_metadata,
    jvm_peak_rss_mb,
    py_peak_rss_mb,
    start_session,
)
from layers import replay, traced_decompose  # noqa: E402
from workloads import WORKLOADS, reference  # noqa: E402


# The JIT keeps speeding calls up for the first minute of a run, so the
# median must never rest on the first, least-warm timed call alone.
MIN_CALLS = 2


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def quartiles(xs):
    if len(xs) == 1:
        return [xs[0]] * 3
    return statistics.quantiles(xs, n=4, method="inclusive")


def stop(spark):
    """Stop the session and wait for the JVM process to end."""
    gateway = SparkContext._gateway
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
        gateway.proc.stdin.close()  # the JVM exits when its stdin closes
        gateway.proc.wait(timeout=60)
        SparkContext._gateway = SparkContext._jvm = None


SETUP_LAYERS = (
    "graph.edges.edges_df_s",
    "graph.edges.adjacency_df_s",
    "graph.hops.hop_pairs_df_s",
    "graph.triads.triads_df_s",
    "graph.triads.h_support_df_s",
)


def measure(args, setup_s, spark, wl, edges, graphgen):
    """Run the workload; returns ``(metrics, samples, attempts)``."""
    sc = spark.sparkContext
    parallelism = 1 if wl.variant == "single" else sc.defaultParallelism
    print("# host", json.dumps(host_metadata(spark, parallelism)))
    t = time.perf_counter()
    ref = reference(edges, wl.h)
    serial_s = time.perf_counter() - t

    runner = CallRunner(sc)
    attempts = Attempts()

    def check(res):
        return check_result(res, ref, wl.variant)

    def call(trace=False):
        res = decompose(spark, edges, wl.h, wl.variant, parallelism=parallelism,
                        trace=trace)
        res.trussness.count()
        return res

    def attempt(fn=call):
        return attempts.attempt(runner.run, fn, BUDGET_S, check)

    # Warm-up: the replay runs the plans of the setup layers and of one full
    # sweep, so the timed calls do not pay for JIT and code generation.
    replay(spark, runner, edges, wl.h, parallelism)
    if not args.trace:
        samples = []
        sweeps = 0
        t_start = time.monotonic()
        while True:
            done = attempt()
            if done is None:  # a failed call misses every time limit
                samples.append(BUDGET_S)
                break
            res, seconds, _ = done
            samples.append(seconds)
            sweeps = res.sweeps
            if time.monotonic() - t_start >= args.seconds and len(samples) >= MIN_CALLS:
                break
        median = statistics.median(samples)
        rates = [len(ref.src) / s for s in samples]
        m = {
            "decompose_s": median,
            "edges_per_s": len(ref.src) / median,
            "sweeps": sweeps,
            "setup_s": setup_s,
            "py_peak_rss_mb": py_peak_rss_mb(),
        }
        return m, {"decompose_s": samples, "edges_per_s": rates}, attempts

    m = dict(graphgen)
    m.update(replay(spark, runner, edges, wl.h, parallelism))
    # Untraced calls on both sides of the traced one, so the JIT's warm-up
    # does not show up as tracing overhead.
    before = attempt()
    traced = before and traced_decompose(spark, attempt, call, len(ref.src))
    after = traced and attempt()
    if after:
        paral_m, traced_s = traced
        m.update(paral_m)
        untraced_s = (before[1] + after[1]) / 2
        sweep = m["core.hindex.path_keys_s"] + m["core.hindex.h_index_agg_s"]
        m["bench.trace_overhead_s"] = traced_s - untraced_s
        m["bench.unaccounted_s"] = (
            untraced_s - sum(m[k] for k in SETUP_LAYERS) - after[0].sweeps * sweep
        )
    m["pyref.serial_s"] = serial_s
    m["pyref.sweeps"] = ref.sweeps
    m["spark.jvm_peak_rss_mb"] = jvm_peak_rss_mb(spark)
    return m, {}, attempts


def run_one(args) -> int:
    wl = WORKLOADS[args.workload]
    scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
    spark = None
    try:
        spark = start_session(scratch)
        t = time.perf_counter()
        edges = wl.edges(args.seed)
        graphgen = {
            "graphgen.generate_s": time.perf_counter() - t,
            "graphgen.edges": len(edges),
            "graphgen.vertices": len(set(edges.ravel().tolist())),
        }
        setup_s = time.monotonic() - T0
        metrics, samples, attempts = measure(args, setup_s, spark, wl, edges, graphgen)
    finally:
        if spark is not None:
            stop(spark)
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"# workload {wl.name} seed {args.seed}: h={wl.h} variant={wl.variant}")
    for name, value in metrics.items():
        xs = samples.get(name, [value])
        q1, q2, q3 = quartiles(xs)
        print(f"# {name} = {value} {unit(name)} (median {q2:.6g}, q1 {q1:.6g}, "
              f"q3 {q3:.6g}, n={len(xs)}: {' '.join(f'{x:.4g}' for x in xs)})")
    print(f"# failed_frac = {attempts.failed_frac} ({attempts.failed} of "
          f"{attempts.attempted} calls)")
    for why in attempts.failures:
        print(f"# failure: {why}")
    print(json.dumps({
        "correct": attempts.failed == 0,
        "attempted": attempts.attempted,
        "failed": attempts.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload != "all":
        return run_one(args)
    codes = [
        subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
        ).returncode
        for name in WORKLOADS
    ]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
