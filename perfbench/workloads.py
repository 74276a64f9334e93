"""The benchmark's workloads and their inputs.

Each workload fixes a graph structure, ``h`` and a ``decompose`` variant.
The run seed relabels the vertices with a random permutation and shuffles
the edge order, so every seed gives the program a different input of the
same shape. The structure itself stays fixed because the sweep count is
a property of the structure: at the GA density, ER graphs of one size
need anywhere from 10 to 38 sweeps depending on the generator seed, and
that would swamp any timing bound.

The graphs are far smaller than the repo's dataset stand-ins because the
current dataflow pays one to two seconds of Spark scheduling per sweep,
and every run must finish, set-up included, in about a minute.
"""
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.graphgen import erdos_renyi, powerlaw_configuration
from repro.pyref import serial_hindex_decompose


def torus(k: int) -> np.ndarray:
    """Canonical edge list of the k x k two-dimensional torus lattice."""
    v = np.arange(k * k).reshape(k, k)
    right = np.stack([v.ravel(), np.roll(v, -1, axis=1).ravel()], axis=1)
    down = np.stack([v.ravel(), np.roll(v, -1, axis=0).ravel()], axis=1)
    return np.sort(np.concatenate([right, down]), axis=1)


@dataclass(frozen=True)
class Workload:
    name: str
    h: int
    variant: str
    structure: Callable[[], np.ndarray]

    def edges(self, seed: int) -> np.ndarray:
        """The program's input: the structure under a seeded relabelling."""
        base = self.structure()
        g = np.random.default_rng(seed)
        perm = g.permutation(int(base.max()) + 1)
        return perm[base][g.permutation(len(base))]


# Why each workload was chosen is recorded in BENCHMARK.json. yt-h2-single
# (one partition, p=1) runs by name but is left out of BENCHMARK.json: a
# third workload does not fit the benchmark's total time budget.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("ga-h2-paralplus", 2, "paral+", lambda: erdos_renyi(160, 240, seed=11)),
        Workload("torus-h3-paral", 3, "paral", lambda: torus(30)),
        Workload(
            "yt-h2-single", 2, "single", lambda: powerlaw_configuration(200, 238, seed=4)
        ),
    )
}


@dataclass(frozen=True)
class Reference:
    """Serial ``pyref`` answer for one input, as sorted columns."""

    src: np.ndarray
    dst: np.ndarray
    trussness: np.ndarray
    sweeps: int


def reference(edges: np.ndarray, h: int) -> Reference:
    """Synchronous serial H-index decomposition of ``edges``."""
    truss, sweeps = serial_hindex_decompose([tuple(e) for e in edges.tolist()], h)
    keys = sorted(truss)
    return Reference(
        np.array([u for u, _ in keys], dtype=np.int64),
        np.array([v for _, v in keys], dtype=np.int64),
        np.array([truss[k] for k in keys], dtype=np.int64),
        sweeps,
    )
