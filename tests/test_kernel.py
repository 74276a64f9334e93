"""The fixed-index sweep kernel against the pure-Python references, without
Spark: path keys, ℋ, whole synchronous decompositions, and edge slicing."""
import random

import numpy as np
import pytest

from repro.core import kernel
from repro.pyref import adjacency, bfs_within, canonical_edges, serial_hindex_decompose
from repro.pyref.hindex import h_index
from repro.pyref.hsupport import common_h_neighbors
from repro.pyref.truss import _path_keys as ref_path_keys

from .graph_catalog import SMALL_GRAPHS, random_graph

GRAPHS = {**SMALL_GRAPHS, **{f"random{s}": random_graph(s) for s in range(4)}}


def _structure(edges, h):
    """``kernel.build`` over relations computed by the pyref definitions."""
    canon = canonical_edges(edges)
    adj = adjacency(canon)
    hops = [(a, b, d) for a in adj for b, d in bfs_within(adj, a, h).items()]
    triads = [(u, v, w) for u, v in canon for w in common_h_neighbors(adj, u, v, h)]
    def columns(rows, k):
        return np.array(rows, dtype=np.int64).reshape(-1, k).T

    return kernel.build(columns(canon, 2), columns(hops, 3), columns(triads, 3), h)


def _local_runner(parts):
    def run_block(H, target):
        out = [kernel.update(sl, H, target) for sl in parts]
        return np.concatenate([o[0] for o in out]), np.concatenate([o[1] for o in out])

    return run_block


def _sync_decompose(g, parts):
    """Synchronous sweeps over the slices ``parts`` of ``g``; returns the
    H vector after each sweep (the first entry is the h-support)."""
    run_block = _local_runner(parts)
    H = g["support"].copy()
    history = [H.copy()]
    while True:
        dropped = kernel.sweep(H, run_block, [None])
        history.append(H.copy())
        if not len(dropped):
            return history


class TestPathKeys:
    @pytest.mark.parametrize("name", ["toy", "petersen", "bowtie", "random1", "random3"])
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_match_reference(self, name, h):
        g = _structure(GRAPHS[name], h)
        rng = np.random.default_rng(h)
        H = rng.integers(0, 6, size=g["hi"]).astype(kernel.IDX)
        values = {(int(u), int(v)): int(x) for u, v, x in zip(g["src"], g["dst"], H)}
        adj = adjacency(canonical_edges(GRAPHS[name]))
        P = kernel.path_keys(g, H)
        verts = g["verts"]
        for q, (a, w) in enumerate(zip(verts[g["pair_a"]], verts[g["pair_b"]])):
            assert P[q] == ref_path_keys(adj, int(a), h, values)[int(w)]


class TestHIndex:
    @pytest.mark.parametrize("seed", range(6))
    def test_match_reference(self, seed):
        rng = random.Random(seed)
        groups = {s: [rng.randint(0, 15) for _ in range(rng.randint(0, 12))]
                  for s in range(10)}
        seg = np.array([s for s, vs in groups.items() for _ in vs], dtype=np.int64)
        vals = np.array([v for vs in groups.values() for v in vs], dtype=kernel.IDX)
        perm = np.random.default_rng(seed).permutation(len(seg))
        got = kernel.h_index(seg[perm], vals[perm], len(groups))
        assert got.tolist() == [h_index(vs) for vs in groups.values()]


class TestSyncDecompose:
    @pytest.mark.parametrize("name", sorted(GRAPHS))
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_matches_serial_reference(self, name, h):
        g = _structure(GRAPHS[name], h)
        history = _sync_decompose(g, kernel.slices(g, 1))
        truss, sweeps = serial_hindex_decompose(GRAPHS[name], h)
        got = {(int(u), int(v)): int(x) + 2
               for u, v, x in zip(g["src"], g["dst"], history[-1])}
        assert got == truss
        assert len(history) - 1 == sweeps

    @pytest.mark.parametrize("name", ["toy", "k5", "petersen", "random0", "random3"])
    @pytest.mark.parametrize("h", [2, 3])
    def test_slices_agree(self, name, h):
        """Each slice carries the ancestors of the pairs it reads, so any
        slicing gives the whole graph's values: sweep by sweep, and for one
        update at arbitrary H vectors, where the best walk more often runs
        through a pair no triad of the slice reads."""
        g = _structure(GRAPHS[name], h)
        whole = _sync_decompose(g, [g])
        rng = np.random.default_rng(0)
        probes = [rng.integers(0, 8, size=g["hi"]).astype(kernel.IDX) for _ in range(5)]
        for p in (1, 2, 3, 7):
            parts = kernel.slices(g, p)
            sliced = _sync_decompose(g, parts)
            assert len(sliced) == len(whole)
            assert all(np.array_equal(a, b) for a, b in zip(whole, sliced))
            for H in probes:
                assert np.array_equal(_local_runner(parts)(H, None)[1],
                                      _local_runner([g])(H, None)[1])

    @pytest.mark.parametrize("name", ["toy", "petersen", "random0", "random1", "random3"])
    @pytest.mark.parametrize("h", [1, 2, 3])
    def test_pruned_sweeps_match_sync(self, name, h):
        """Lemma 4: an edge outside the frontier would keep its value, so
        pruned sweeps reproduce the synchronous H vectors exactly."""
        g = _structure(GRAPHS[name], h)
        run_block = _local_runner([g])
        H = g["support"].copy()
        active = None
        for want in _sync_decompose(g, [g])[1:]:
            dropped = kernel.sweep(H, run_block, [None], active)
            assert np.array_equal(H, want)
            active = kernel.frontier(g, dropped, h)
