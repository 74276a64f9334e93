"""Spark session, per-call job groups and budgets, and failure accounting.

Nothing here starts the JVM at import; ``start_session`` does.
"""
import os
import platform
import resource
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# A run makes several calls of 90-160 jobs each, and a call on the repo's
# full-size GA stand-in runs about 3,250 stages. Spark keeps 1,000 jobs and
# stages by default and would evict a call's first stages before they are
# counted.
RETAINED = 1_000_000
DRIVER_MEMORY = "4g"  # the driver JVM peaks at 2-3.5 GB resident on these inputs
BUDGET_S = 60.0  # per call; the slowest workload's call takes about 15 s
IDLE_GROUP = "perfbench-idle"


def start_session(scratch: Path):
    """Launch the JVM and a local session on every core, then run one
    trivial job. Spark's scratch files go under ``scratch``."""
    from pyspark.sql import SparkSession

    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)  # pyspark's gateway handshake file
    log4j = Path(__file__).with_name("log4j2.properties")
    java_opts = (
        f"-Djava.io.tmpdir={scratch} -XX:-UsePerfData "
        f"-Dlog4j2.configurationFile={log4j.as_uri()}"
    )
    nproc = os.cpu_count() or 1
    spark = (
        SparkSession.builder.master(f"local[{nproc}]")
        .appName("perfbench")
        .config("spark.driver.memory", DRIVER_MEMORY)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.driver.extraJavaOptions", java_opts)
        .config("spark.local.dir", str(scratch))
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.ui.retainedJobs", str(RETAINED))
        .config("spark.ui.retainedStages", str(RETAINED))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .config("spark.sql.warehouse.dir", str(scratch / "warehouse"))
        .getOrCreate()
    )
    parallelism = spark.sparkContext.defaultParallelism
    spark.conf.set("spark.sql.shuffle.partitions", str(parallelism))
    spark.range(1).count()
    return spark


def host_metadata(spark, parallelism: int) -> dict:
    """What a result depends on besides the code."""
    sc = spark.sparkContext
    return {
        "nproc": os.cpu_count(),
        "master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "parallelism": parallelism,
        "shuffle_partitions": int(spark.conf.get("spark.sql.shuffle.partitions")),
        "driver_memory": sc.getConf().get("spark.driver.memory"),
        "spark": spark.version,
        "java": sc._jvm.java.lang.System.getProperty("java.version"),
        "python": platform.python_version(),
    }


def py_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def jvm_peak_rss_mb(spark) -> float:
    pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc status")


@dataclass
class SparkCounts:
    jobs: int = 0
    stages: int = 0
    tasks: int = 0


class CallRunner:
    """Runs each call in its own Spark job group under a wall-clock budget.

    A watchdog thread cancels the group once the budget is spent and
    keeps cancelling until the call returns, so a call that is between
    jobs when the budget runs out is stopped at its next job. Afterwards
    the group's jobs, stages and tasks are counted from the status
    tracker, and a call whose first jobs were evicted raises instead of
    being undercounted.
    """

    def __init__(self, sc):
        self.sc = sc
        self.tracker = sc.statusTracker()
        self.groups = [IDLE_GROUP]

    def _last_job_id(self) -> int:
        ids = list(self.tracker.getJobIdsForGroup(None))
        for g in self.groups:
            ids.extend(self.tracker.getJobIdsForGroup(g))
        return max(ids, default=-1)

    def run(self, fn, budget_s: float):
        """``fn()`` under a fresh job group; returns
        ``(result, seconds, SparkCounts)``. Exceptions propagate."""
        first_id = self._last_job_id() + 1
        group = f"perfbench-{len(self.groups)}"
        self.groups.append(group)
        done = threading.Event()

        def watchdog():
            if done.wait(budget_s):
                return
            while not done.is_set():
                self.sc.cancelJobGroup(group)
                done.wait(0.5)

        dog = threading.Thread(target=watchdog, daemon=True)
        self.sc.setJobGroup(group, group, interruptOnCancel=True)
        dog.start()
        t0 = time.perf_counter()
        try:
            out = fn()
        finally:
            seconds = time.perf_counter() - t0
            done.set()
            dog.join()
            self.sc.setJobGroup(IDLE_GROUP, "between calls")
        return out, seconds, self._counts(group, first_id)

    def _counts(self, group: str, first_id: int) -> SparkCounts:
        tr = self.tracker
        deadline = time.monotonic() + 10
        while True:  # the status listener trails the jobs slightly
            ids = sorted(tr.getJobIdsForGroup(group))
            infos = [tr.getJobInfo(j) for j in ids]
            settled = all(i is not None and i.status != "RUNNING" for i in infos)
            if settled or time.monotonic() > deadline:
                break
            time.sleep(0.05)
        if ids and (ids[0] != first_id or ids != list(range(ids[0], ids[-1] + 1))):
            raise RuntimeError(f"jobs of {group} were evicted before counting")
        counts = SparkCounts(jobs=len(ids))
        stage_ids = {s for i in infos if i is not None for s in i.stageIds}
        for s in stage_ids:
            info = tr.getStageInfo(s)
            if info is None:
                raise RuntimeError(f"stage {s} of {group} was evicted before counting")
            if info.numCompletedTasks:  # skipped stages run no tasks
                counts.stages += 1
                counts.tasks += info.numCompletedTasks
        return counts


@dataclass
class Attempts:
    """Every attempted call and why each failed one failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def attempt(self, run, fn, budget_s: float, check):
        """Run ``fn`` through ``run(fn, budget_s)`` and gate it with
        ``check(result) -> problem or None``. Returns
        ``(result, seconds, counts)``, or ``None`` when the call raised,
        overran its budget or failed the check."""
        self.attempted += 1
        try:
            out, seconds, counts = run(fn, budget_s)
        except Exception as exc:  # any failure of the call is a failed operation
            message = " ".join(str(exc).split())[:200]
            self.failures.append(f"raised {type(exc).__name__}: {message}")
            return None
        if seconds > budget_s:
            self.failures.append(f"overran budget: {seconds:.1f}s > {budget_s:.1f}s")
            return None
        problem = check(out)
        if problem:
            self.failures.append(problem)
            return None
        return out, seconds, counts


def check_result(res, ref, variant: str) -> str | None:
    """Compare one ``DecomposeResult`` with the serial reference.

    The table must match exactly. Synchronous variants must take the
    reference's sweep count; Paral+ prunes within synchronous sweeps and
    must take no more.
    """
    pdf = res.trussness.toPandas().sort_values(["src", "dst"])
    got = [pdf[c].to_numpy(dtype=np.int64) for c in ("src", "dst", "trussness")]
    want = [ref.src, ref.dst, ref.trussness]
    if len(pdf) != len(ref.src) or not all(np.array_equal(a, b) for a, b in zip(got, want)):
        return "trussness table differs from the pyref reference"
    if variant == "paral+" and res.sweeps > ref.sweeps:
        return f"paral+ took {res.sweeps} sweeps, reference {ref.sweeps}"
    if variant != "paral+" and res.sweeps != ref.sweeps:
        return f"{variant} took {res.sweeps} sweeps, reference {ref.sweeps}"
    return None
