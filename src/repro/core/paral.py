"""Algorithm 2 — the parallel H-index decomposition framework.

One function, four paper variants (DESIGN.md §3):

* **Paral**   — ``parallel_decompose(spark, edges, h)``: synchronous
  sweeps; every sweep recomputes ``H^(n)`` for all edges from the
  ``H^(n-1)`` snapshot until nothing changes (Theorems 1-2 guarantee
  monotone convergence to ``t(e,h) - 2``).
* **Single**  — ``parallelism=1``: the same code on one edge slice, so
  exactly one task runs at a time — the paper's one-thread
  configuration.
* **Asyn**    — ``asynchronous=True``: 4-block chromatic (Gauss–Seidel)
  sweeps; the edges are split into quartiles of initial h-support,
  updated in ascending order, and each block reads the *fresh* values
  of the blocks before it in the same sweep (substitution 2 — the BSP
  rendering of the paper's asynchronous update; §4.1 proves any such
  mixed schedule still converges to the same fixpoint).
* **Paral+**  — ``pruning=True`` (what ``decompose(variant="paral+")``
  runs): synchronous sweeps plus the Lemma-4 redundant-computation
  pruning as a frontier: an edge is recomputed only if some edge within
  its h-hop influence zone dropped in the previous sweep (substitution
  3 — a conservative superset of the lemma's trigger set, so results are
  unchanged).

The graph relations (canonical edges, h-hop pairs, Δ-triads) are built
once in Spark and collected into the fixed-index structure of
:mod:`repro.core.kernel`, cut into ``p`` edge slices (the per-thread
slices of Alg. 2) held in one persisted RDD. A block update is one Spark
job: the H vector goes out as a broadcast, each slice runs the numpy
kernel and returns the new values of its edges, and the driver applies
them. Between jobs the whole iteration state is one int32 vector on the
driver, so convergence and the pruning frontier are numpy operations.
"""
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark import cloudpickle
from pyspark.sql import DataFrame, SparkSession

from repro.graph.edges import edges_df
from repro.graph.hops import hop_pairs_df
from repro.graph.triads import triads_df

from . import kernel

# Workers import nothing from this package (a driver may have added
# ``src/`` to ``sys.path`` only for itself), so the kernel the block
# updates run travels inside each pickled task.
cloudpickle.register_pickle_by_value(kernel)

ASYN_BLOCKS = 4


@dataclass
class DecomposeResult:
    """Decomposition output: the trussness table, the sweep count the
    paper's Figure 6 reports, and (in trace mode) the per-sweep H-value
    tables of Figure 3."""

    trussness: DataFrame
    sweeps: int
    trace: list[pd.DataFrame] = field(default_factory=list)


class SweepLimitExceeded(RuntimeError):
    """``max_sweeps`` sweeps ran and H values were still dropping.

    ``sweeps`` is the number of sweeps run; ``state`` is the H vector
    after the last of them, as a pandas ``(src, dst, hval)`` frame.
    """

    def __init__(self, sweeps: int, state: pd.DataFrame):
        super().__init__(f"parallel decomposition did not converge in {sweeps} sweeps")
        self.sweeps = sweeps
        self.state = state


def parallel_decompose(
    spark: SparkSession,
    edges,
    h: int,
    *,
    asynchronous: bool = False,
    pruning: bool = False,
    parallelism: int | None = None,
    trace: bool = False,
    max_sweeps: int = 10_000,
) -> DecomposeResult:
    """Compute the h-trussness of every edge (columns
    ``src, dst, trussness``) with the selected variant.

    ``parallelism`` sets the number of edge slices and shuffle
    partitions (default: ``defaultParallelism`` slices). Raises
    :class:`SweepLimitExceeded` when ``max_sweeps`` sweeps do not reach
    the fixpoint.
    """
    restore = None
    if parallelism is not None:
        restore = spark.conf.get("spark.sql.shuffle.partitions")
        spark.conf.set("spark.sql.shuffle.partitions", str(parallelism))
    try:
        return _run(
            spark,
            edges,
            h,
            asynchronous=asynchronous,
            pruning=pruning,
            parallelism=parallelism,
            trace=trace,
            max_sweeps=max_sweeps,
        )
    finally:
        if restore is not None:
            spark.conf.set("spark.sql.shuffle.partitions", restore)


def _run(spark, edges, h, *, asynchronous, pruning, parallelism, trace, max_sweeps):
    sc = spark.sparkContext
    persisted = []
    try:
        e = edges_df(spark, edges)
        if parallelism is not None:
            e = e.repartition(parallelism)
        persisted.append(e.persist())
        edge_cols = _columns(e, "src", "dst")
        if not len(edge_cols[0]):
            empty = spark.createDataFrame([], schema="src long, dst long, trussness long")
            return DecomposeResult(empty, 0)
        hops = hop_pairs_df(e, h)
        persisted.append(hops.persist())
        g = kernel.build(
            edge_cols,
            _columns(hops, "a", "b", "dist"),
            _columns(triads_df(e, hops), "src", "dst", "w"),
            h,
        )
        p = parallelism or sc.defaultParallelism
        parts = sc.parallelize(kernel.slices(g, p), p)
        persisted.append(parts.persist())
        return _iterate(spark, g, parts, h, asynchronous=asynchronous,
                        pruning=pruning, trace=trace, max_sweeps=max_sweeps)
    finally:
        for cached in persisted:
            cached.unpersist()


def _columns(df: DataFrame, *names: str) -> list[np.ndarray]:
    """Collect columns as one numpy array each."""
    pdf = df.select(*names).toPandas()
    return [pdf[c].to_numpy() for c in names]


def _iterate(spark, g, parts, h, *, asynchronous, pruning, trace, max_sweeps):
    """Lines 4-10 of Algorithm 2 from ``H^(0)`` = h-support."""
    sc = spark.sparkContext
    update = kernel.update

    def run_block(H, target):
        bc = sc.broadcast((H, target))
        try:
            out = parts.map(lambda sl: update(sl, *bc.value)).collect()
        finally:
            bc.destroy()
        return np.concatenate([o[0] for o in out]), np.concatenate([o[1] for o in out])

    H = g["support"].copy()
    blocks = [None]
    if asynchronous:
        # Quantile blocks in ascending initial-support order, so drops
        # propagate in peeling order within a sweep.
        edge_ids = np.arange(len(H))
        quantiles = np.array_split(np.argsort(H, kind="stable"), ASYN_BLOCKS)
        blocks = [np.isin(edge_ids, q) for q in quantiles if len(q)]

    traces = [_frame(g, H)] if trace else []
    active = None
    for sweeps in range(1, max_sweeps + 1):
        dropped = kernel.sweep(H, run_block, blocks, active)
        if trace:
            traces.append(_frame(g, H))
        if not len(dropped):
            break
        if pruning:
            active = kernel.frontier(g, dropped, h)
    else:
        raise SweepLimitExceeded(max_sweeps, _frame(g, H))

    out = pd.DataFrame({"src": g["src"], "dst": g["dst"],
                        "trussness": H.astype(np.int64) + 2})
    result = spark.createDataFrame(out, schema="src long, dst long, trussness long")
    return DecomposeResult(result, sweeps, traces)


def _frame(g: dict, H: np.ndarray) -> pd.DataFrame:
    """Per-edge H values, sorted by ``(src, dst)`` (trace mode, Figure 3)."""
    return pd.DataFrame({"src": g["src"], "dst": g["dst"], "hval": H.astype(np.int64)})
