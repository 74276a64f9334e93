"""Canonical edge / adjacency DataFrames.

Conventions used across the whole reproduction:

* ``edges``: columns ``src:long, dst:long, eid:long`` with ``src < dst``,
  self-loops dropped, duplicates (either orientation) collapsed;
  ``eid = src << 32 | dst`` is a collision-free 64-bit edge id (vertex
  ids must lie in ``[0, 2**32)`` — checked at build time, since any
  other id would alias another edge's eid).
* ``adjacency``: the symmetric closure, columns ``a:long, b:long,
  eid:long`` — one row per direction per edge.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

_MAX_VERTEX = (1 << 32) - 1


def edges_df(spark: SparkSession, edges) -> DataFrame:
    """Build the canonical edge DataFrame from an edge list.

    ``edges`` may be a list of ``(u, v)`` pairs, an ``(m, 2)`` ndarray, a
    pandas DataFrame with two columns, or an existing Spark DataFrame
    whose first two columns are the endpoints. Canonicalization happens
    in the dataflow, so an uncanonical Spark input is fine.
    """
    if isinstance(edges, DataFrame):
        c0, c1 = edges.columns[:2]
        raw = edges.select(
            F.col(c0).cast("long").alias("u"), F.col(c1).cast("long").alias("v")
        )
        lo, hi = raw.select(
            F.least(F.min("u"), F.min("v")), F.greatest(F.max("u"), F.max("v"))
        ).first()
        if lo is not None:
            _check_range(lo, hi)
    else:
        if isinstance(edges, pd.DataFrame):
            arr = edges.iloc[:, :2].to_numpy()
        else:
            arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        arr = arr.reshape(-1, 2).astype(np.int64)
        if len(arr):
            _check_range(arr.min(), arr.max())
        raw = spark.createDataFrame(
            pd.DataFrame({"u": arr[:, 0], "v": arr[:, 1]}),
            schema="u long, v long",  # explicit: inference fails on empty input
        )
    return (
        raw.where(F.col("u") != F.col("v"))
        .select(
            F.least("u", "v").alias("src"),
            F.greatest("u", "v").alias("dst"),
        )
        .distinct()
        .withColumn("eid", F.expr("shiftleft(src, 32) + dst"))
    )


def _check_range(lo, hi) -> None:
    if lo < 0 or hi > _MAX_VERTEX:
        raise ValueError(
            f"vertex ids must be non-negative and fit in 32 bits for eid packing; "
            f"got ids in [{lo}, {hi}]"
        )


def adjacency_df(edges: DataFrame) -> DataFrame:
    """Symmetric adjacency ``(a, b, eid)``: one row per edge direction."""
    fwd = edges.select(F.col("src").alias("a"), F.col("dst").alias("b"), "eid")
    rev = edges.select(F.col("dst").alias("a"), F.col("src").alias("b"), "eid")
    return fwd.unionByName(rev)


def degrees_df(edges: DataFrame) -> DataFrame:
    """Vertex degrees ``(v, degree)`` from the canonical edge table."""
    return (
        adjacency_df(edges)
        .groupBy(F.col("a").alias("v"))
        .agg(F.count("*").alias("degree"))
    )
