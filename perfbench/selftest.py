"""Self-test of the benchmark's failure accounting; needs no Spark.

    python3 perfbench/selftest.py

A corrupted trussness table, a wrong sweep count, a call that raises, a
call that Spark cancels at the budget, and a call that returns after
its budget must each count as one failed operation in ``failed_frac``;
a correct call must not.
"""
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from harness import Attempts, CallRunner, check_result  # noqa: E402
from workloads import Reference  # noqa: E402

REF = Reference(
    src=np.array([0, 0, 1], dtype=np.int64),
    dst=np.array([1, 2, 2], dtype=np.int64),
    trussness=np.array([3, 3, 3], dtype=np.int64),
    sweeps=2,
)


class FakeTable:
    def __init__(self, trussness):
        self.pdf = pd.DataFrame({"src": REF.src, "dst": REF.dst, "trussness": trussness})

    def toPandas(self):
        return self.pdf.sample(frac=1, random_state=0)  # row order must not matter


class FakeResult:
    def __init__(self, trussness=REF.trussness, sweeps=REF.sweeps):
        self.trussness = FakeTable(np.asarray(trussness))
        self.sweeps = sweeps


class FakeTracker:
    def getJobIdsForGroup(self, group):
        return []


class FakeSparkContext:
    """Records cancellations; a 'job' in flight aborts when its group is
    cancelled, as a Spark job does."""

    def __init__(self):
        self.cancelled = threading.Event()

    def statusTracker(self):
        return FakeTracker()

    def setJobGroup(self, group, description, interruptOnCancel=False):
        self.cancelled.clear()

    def cancelJobGroup(self, group):
        self.cancelled.set()


def main() -> int:
    sc = FakeSparkContext()
    runner = CallRunner(sc)
    attempts = Attempts()

    def check(res):
        return check_result(res, REF, "paral")

    def raises():
        raise RuntimeError("executor lost")

    def hangs():
        if not sc.cancelled.wait(30):
            return FakeResult()
        raise RuntimeError("job group cancelled")

    def slow():
        time.sleep(0.3)
        return FakeResult()

    cases = [
        ("correct", lambda: FakeResult(), 5.0, True),
        ("corrupted table", lambda: FakeResult([3, 4, 3]), 5.0, False),
        ("wrong sweep count", lambda: FakeResult(sweeps=3), 5.0, False),
        ("raised", raises, 5.0, False),
        ("cancelled at budget", hangs, 0.2, False),
        ("returned after budget", slow, 0.1, False),
    ]
    problems = []
    for name, fn, budget, ok in cases:
        t0 = time.monotonic()
        got = attempts.attempt(runner.run, fn, budget, check) is not None
        if got != ok:
            problems.append(f"{name}: expected {'success' if ok else 'failure'}")
        if time.monotonic() - t0 > budget + 5:
            problems.append(f"{name}: was not stopped near its budget")
    if (attempts.attempted, attempts.failed) != (len(cases), len(cases) - 1):
        problems.append(f"counted {attempts.failed} of {attempts.attempted} as failed")
    for p in problems:
        print("FAIL", p)
    print(f"failed_frac = {attempts.failed_frac:.4f}: " + "; ".join(attempts.failures))
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
