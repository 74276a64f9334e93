"""Per-layer spans for the traced run, recorded from outside the program.

``replay`` rebuilds what ``parallel_decompose`` builds before its first
sweep (canonical edges, adjacency, h-hop pairs, triads, initial
h-support) and then one full sweep at H(0), materialising each part on
its own so each layer gets its own time, row count and Spark counts.
``traced_decompose`` runs one ``decompose(..., trace=True)`` call with
pyspark's state-upload and action entry points wrapped.
"""
import time
from contextlib import contextmanager

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.hindex import h_index_agg, path_keys
from repro.graph.edges import adjacency_df, edges_df
from repro.graph.hops import hop_pairs_df
from repro.graph.triads import h_support_df, triads_df

from harness import BUDGET_S


@contextmanager
def shuffle_partitions(spark, n: int):
    restore = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", str(n))
    try:
        yield
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", restore)


def replay(spark, runner, edges, h: int, parallelism: int) -> dict:
    """Setup layers and one full sweep of Algorithm 2, layer by layer."""
    m = {}
    persisted = []

    def keep(df: DataFrame) -> DataFrame:
        persisted.append(df.persist())
        return df

    def span(fn):
        return runner.run(fn, BUDGET_S)

    with shuffle_partitions(spark, parallelism):
        try:
            e = keep(edges_df(spark, edges).repartition(parallelism))
            m["graph.edges.rows"], m["graph.edges.edges_df_s"], c = span(e.count)
            m["graph.edges.stages"] = c.stages
            adj = keep(adjacency_df(e))
            m["graph.edges.adjacency_rows"], m["graph.edges.adjacency_df_s"], _ = span(
                adj.count
            )
            hops = keep(hop_pairs_df(e, h))
            m["graph.hops.rows"], m["graph.hops.hop_pairs_df_s"], c = span(hops.count)
            m["graph.hops.stages"], m["graph.hops.tasks"] = c.stages, c.tasks
            triads = keep(triads_df(e, hops))
            m["graph.triads.rows"], m["graph.triads.triads_df_s"], c = span(triads.count)
            m["graph.triads.stages"], m["graph.triads.tasks"] = c.stages, c.tasks
            sup, m["graph.triads.h_support_df_s"], _ = span(h_support_df(e, hops).toPandas)

            # One full sweep at H(0), as parallel_decompose runs it.
            state = sup[["eid", "support"]].rename(columns={"support": "hval"})
            hcur = spark.createDataFrame(state, schema="eid long, hval long")
            adj_val = adj.join(hcur, on="eid").select("a", "b", "hval")
            p = keep(path_keys(adj_val, h))
            m["core.hindex.path_keys_rows"], m["core.hindex.path_keys_s"], c = span(p.count)
            m["core.hindex.path_keys_stages"] = c.stages
            vals = (
                triads.join(
                    p.select(F.col("a").alias("src"), "w", F.col("pkey").alias("p_src")),
                    on=["src", "w"],
                )
                .join(
                    p.select(F.col("a").alias("dst"), "w", F.col("pkey").alias("p_dst")),
                    on=["dst", "w"],
                )
                .select("eid", F.least("p_src", "p_dst").alias("value"))
            )
            hnew = e.select("eid").join(h_index_agg(vals), on="eid", how="left")
            _, m["core.hindex.h_index_agg_s"], c = span(hnew.toPandas)
            m["core.hindex.h_index_agg_stages"] = c.stages
        finally:
            for df in persisted:
                df.unpersist()
    return m


class _Spy:
    """Times and classifies the program's calls into pyspark."""

    def __init__(self, n_edges: int):
        self.n_edges = n_edges
        self.upload_s = self.collect_s = 0.0
        self.upload_calls = self.collect_calls = 0
        self.recomputed = 0
        self._target = None  # size of the last uploaded target edge set

    def upload(self, data, seconds):
        self.upload_s += seconds
        self.upload_calls += 1
        cols = list(getattr(data, "columns", ()))
        if cols == ["eid"]:  # a pruned sweep's target edges
            self._target = len(data)
        elif cols == ["eid", "hval"]:  # one state upload per block update
            self.recomputed += self.n_edges if self._target is None else self._target
            self._target = None


@contextmanager
def _wrapped(spy: _Spy, df_cls: type):
    """Wrap the upload entry point and the actions the program calls.
    ``df_cls`` is the concrete DataFrame class that defines the actions."""
    orig_create = SparkSession.createDataFrame
    actions = {name: getattr(df_cls, name) for name in ("toPandas", "count", "take")}

    def create(self, data, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return orig_create(self, data, *args, **kwargs)
        finally:
            spy.upload(data, time.perf_counter() - t0)

    def action(orig):
        def run(self, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return orig(self, *args, **kwargs)
            finally:
                spy.collect_s += time.perf_counter() - t0
                spy.collect_calls += 1

        return run

    SparkSession.createDataFrame = create
    for name, orig in actions.items():
        setattr(df_cls, name, action(orig))
    try:
        yield
    finally:
        SparkSession.createDataFrame = orig_create
        for name, orig in actions.items():
            setattr(df_cls, name, orig)


def traced_decompose(spark, attempt, call, n_edges: int):
    """One ``call(trace=True)`` through ``attempt`` with the core.paral
    split. Returns ``(metrics, seconds)``, or ``None`` if the call failed."""
    spy = _Spy(n_edges)
    df_cls = type(spark.range(0))

    def traced():
        with _wrapped(spy, df_cls):
            return call(trace=True)

    done = attempt(traced)
    if done is None:
        return None
    res, seconds, c = done
    changed = sum(
        int((a["hval"].to_numpy() != b["hval"].to_numpy()).sum())
        for a, b in zip(res.trace, res.trace[1:])
    )
    m = {
        "core.paral.state_upload_s": spy.upload_s,
        "core.paral.upload_calls": spy.upload_calls,
        "core.paral.execute_collect_s": spy.collect_s,
        "core.paral.collect_calls": spy.collect_calls,
        "core.paral.driver_s": seconds - spy.upload_s - spy.collect_s,
        "core.paral.jobs": c.jobs,
        "core.paral.stages": c.stages,
        "core.paral.tasks": c.tasks,
        "core.paral.stages_per_sweep": c.stages / res.sweeps,
        "core.paral.edges_recomputed": spy.recomputed,
        "core.paral.edges_changed": changed,
        "core.paral.useful_ratio": changed / spy.recomputed if spy.recomputed else 0.0,
    }
    return m, seconds
