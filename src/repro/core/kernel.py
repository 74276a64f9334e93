"""Algorithm 3 as a fixed-index numpy kernel.

Everything a sweep reads except the H vector stays the same for the
whole decomposition: which vertex pairs lie within ``h`` hops, how their
bottleneck path keys relax into each other, and which pairs each edge's
triads read. :func:`build` turns the collected relations into integer
index arrays over dense ids once. :func:`update` is then one block update
of Algorithm 2 on one edge slice, as a pure function of the H vector:
gathers, ``h - 1`` segmented-max relaxation rounds and a segmented ℋ.

A *slice* is a plain dict of index arrays (the whole graph is one, and
:func:`slices` cuts it into the per-thread edge slices of Alg. 2):

* ``lo, hi`` -- the slice owns edges ``lo .. hi-1``;
* ``rounds`` -- ``h - 1``;
* ``pair_edge[q]`` -- the edge joining pair ``q``'s endpoints, or -1;
* ``relax_src, relax_edge, relax_dst`` -- relaxation entries
  ``(pair(a,b), edge(b,w)) -> pair(a,w)`` with ``w != a``, sorted by
  ``relax_dst``;
* ``triad_edge, triad_src, triad_dst`` -- one row per triad
  ``(e, w)`` of an owned edge ``e = (u, v)``: ``e - lo``, ``pair(u,w)``
  and ``pair(v,w)``, sorted by edge.

Slices hold only builtins and numpy arrays, and this module imports
nothing but numpy, so Spark can ship both by value to Python workers
that cannot import the ``repro`` package.
"""
import numpy as np

IDX = np.int32


def build(edges, hops, triads, h: int) -> dict:
    """The sweep structure of one graph, as a slice over all its edges.

    ``edges`` is the ``(src, dst)`` columns of the canonical edges,
    ``hops`` the ``(a, b, dist)`` columns of the h-hop pair table and
    ``triads`` the ``(src, dst, w)`` columns of the triads, all in the
    input's vertex labels. Vertices get dense ids ``0..n-1`` in label
    order and edges ``0..m-1`` in ``(src, dst)`` order. Besides the slice
    keys the result carries ``src, dst`` (labels) and ``esrc, edst``
    (dense ids) per edge, ``verts`` (label of each dense id),
    ``pair_a, pair_b`` (dense endpoints per pair) and ``support`` (the
    initial h-support).
    """
    src, dst = (np.asarray(c, dtype=np.int64) for c in edges)
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    verts = np.unique(np.concatenate([src, dst]))
    n, m = len(verts), len(src)

    # Indices are int32 from the start and int64 keys exist only inside
    # one lookup: the build's temporaries, not the structure, set the
    # driver's peak memory.
    def dense(labels):
        return np.searchsorted(verts, labels).astype(IDX)

    def key(a, b):
        return a.astype(np.int64) * n + b

    es, ed = dense(src), dense(dst)
    edge_key = key(es, ed)  # ascending: edges are sorted and dense() is monotone

    def edge(a, b):
        return np.searchsorted(edge_key, key(np.minimum(a, b), np.maximum(a, b))).astype(IDX)

    ha, hb, dist = hops
    pa, pb = dense(ha), dense(hb)
    order = np.argsort(key(pa, pb))
    pa, pb, dist = pa[order], pb[order], np.asarray(dist)[order]
    pair_key = key(pa, pb)

    def pair(a, b):
        return np.searchsorted(pair_key, key(a, b)).astype(IDX)

    pair_edge = np.full(len(pa), -1, dtype=IDX)
    adjacent = dist == 1
    pair_edge[adjacent] = edge(pa[adjacent], pb[adjacent])
    relax_src, relax_edge, relax_dst = _relaxation(es, ed, pa, pb, dist <= h - 1, pair, n)

    ts, td, tw = (dense(c) for c in triads)
    triad_edge = edge(ts, td)
    by_edge = np.argsort(triad_edge, kind="stable")

    return {
        "lo": 0,
        "hi": m,
        "rounds": h - 1,
        "pair_edge": pair_edge,
        "relax_src": relax_src,
        "relax_edge": relax_edge,
        "relax_dst": relax_dst,
        "triad_edge": triad_edge[by_edge],
        "triad_src": pair(ts, tw)[by_edge],
        "triad_dst": pair(td, tw)[by_edge],
        "src": src,
        "dst": dst,
        "esrc": es,
        "edst": ed,
        "verts": verts,
        "pair_a": pa,
        "pair_b": pb,
        "support": np.bincount(triad_edge, minlength=m).astype(IDX),
    }


def _relaxation(es, ed, pa, pb, grows, pair, n):
    """Relaxation entries ``(pair(a,b), edge(b,w)) -> pair(a,w)`` for the
    pairs ``grows`` selects and every edge ``(b, w)`` with ``w != a``,
    sorted by target pair."""
    m = len(es)
    ends = np.concatenate([es, ed])
    by_vertex = np.argsort(ends, kind="stable")
    nbr = np.concatenate([ed, es])[by_vertex]
    nbr_edge = (by_vertex % m).astype(IDX)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=n))])
    grow = np.flatnonzero(grows).astype(IDX)
    deg = np.diff(indptr)[pb[grow]]
    at = _ranges(indptr[pb[grow]], deg).astype(IDX)
    grow = np.repeat(grow, deg)
    keep = nbr[at] != pa[grow]  # filter before materialising more columns
    grow, at = grow[keep], at[keep]
    dst = pair(pa[grow], nbr[at])
    order = np.argsort(dst, kind="stable")
    return grow[order], nbr_edge[at[order]], dst[order]


def _ranges(starts, counts):
    """Concatenated ``arange(s, s + c)`` for each ``(s, c)``."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(counts.sum())


def slices(g: dict, p: int) -> list[dict]:
    """Cut ``g`` into ``p`` contiguous edge slices.

    Each slice keeps its edges' triads, the pairs they read and those
    pairs' ancestors over the ``h - 1`` relaxation rounds, relabelled
    densely; relaxation entries into a pair needed only at round 0 are
    dropped. Edge ids stay global, so every slice reads the one H vector.
    """
    bounds = np.linspace(0, g["hi"], p + 1).astype(np.int64)
    cuts = np.searchsorted(g["triad_edge"], bounds)
    rsrc, rdst = g["relax_src"], g["relax_dst"]
    out = []
    for k in range(p):
        lo, hi = int(bounds[k]), int(bounds[k + 1])
        t = slice(cuts[k], cuts[k + 1])
        need = np.zeros(len(g["pair_edge"]), dtype=bool)
        need[g["triad_src"][t]] = need[g["triad_dst"][t]] = True
        take = np.zeros(len(rdst), dtype=bool)
        for _ in range(g["rounds"]):
            take |= need[rdst]
            need[rsrc[take]] = True
        local = np.cumsum(need, dtype=np.int64).astype(IDX) - 1
        out.append({
            "lo": lo,
            "hi": hi,
            "rounds": g["rounds"],
            "pair_edge": g["pair_edge"][need],
            "relax_src": local[rsrc[take]],
            "relax_edge": g["relax_edge"][take],
            "relax_dst": local[rdst[take]],
            "triad_edge": g["triad_edge"][t] - IDX(lo),
            "triad_src": local[g["triad_src"][t]],
            "triad_dst": local[g["triad_dst"][t]],
        })
    return out


def path_keys(sl: dict, H: np.ndarray) -> np.ndarray:
    """Bottleneck path key of every pair of the slice (Definition 6).

    Round 0 is each adjacent pair's edge value (-1 elsewhere). Each of the
    ``h - 1`` rounds relaxes every entry from the previous round's keys,
    so after round ``r`` a key is the best walk of at most ``r + 1`` hops.
    """
    pe = sl["pair_edge"]
    P = np.where(pe >= 0, H[pe], -1)
    src, via, dst = sl["relax_src"], sl["relax_edge"], sl["relax_dst"]
    if not len(dst):
        return P
    starts = _segment_starts(dst)
    heads = dst[starts]
    for _ in range(sl["rounds"]):
        cand = np.maximum.reduceat(np.minimum(P[src], H[via]), starts)
        P[heads] = np.maximum(P[heads], cand)
    return P


def h_index(seg: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Per-segment ℋ of ``values``: ``out[s]`` for ``s`` in ``0..size-1``.

    Sorting each segment descending, ℋ is ``max(min(value, rank))``;
    segments without values get ℋ(∅) = 0.
    """
    out = np.zeros(size, dtype=IDX)
    if not len(values):
        return out
    order = np.lexsort((-values, seg))
    seg, values = seg[order], values[order]
    starts = _segment_starts(seg)
    rank = np.arange(1, len(seg) + 1) - np.repeat(starts, np.diff(np.append(starts, len(seg))))
    out[seg[starts]] = np.maximum.reduceat(np.minimum(values, rank), starts)
    return out


def _segment_starts(sorted_keys: np.ndarray) -> np.ndarray:
    return np.flatnonzero(np.concatenate([[True], sorted_keys[1:] != sorted_keys[:-1]]))


def update(sl: dict, H: np.ndarray, target: np.ndarray | None = None):
    """One block update on one slice: ``(edges, new H values)`` for the
    slice's edges that ``target`` (a mask over all edges) selects, or for
    all of them when ``target`` is None."""
    lo, hi = sl["lo"], sl["hi"]
    te, ts, td = sl["triad_edge"], sl["triad_src"], sl["triad_dst"]
    if target is None:
        owned = np.arange(hi - lo)
    else:
        mine = target[lo:hi]
        owned = np.flatnonzero(mine)
        keep = mine[te]
        te, ts, td = te[keep], ts[keep], td[keep]
    P = path_keys(sl, H)
    values = h_index(te, np.minimum(P[ts], P[td]), hi - lo)
    return owned + lo, values[owned]


def sweep(H: np.ndarray, run_block, blocks, active=None) -> np.ndarray:
    """One sweep of Algorithm 2 over ``H`` in place; returns the edges
    whose value dropped.

    ``blocks`` are edge masks updated in order (``[None]``: one block of
    every edge), each reading the values earlier blocks wrote.
    ``active`` restricts every block to the pruning frontier.
    ``run_block(H, target)`` returns ``(edges, values)`` for the target.
    """
    dropped = []
    for block in blocks:
        target = block
        if active is not None:
            target = active if block is None else block & active
        if target is not None and not target.any():
            continue
        edges, values = run_block(H, target)
        dropped.append(edges[values < H[edges]])
        H[edges] = values
    return np.concatenate(dropped) if dropped else np.empty(0, dtype=np.int64)


def frontier(g: dict, dropped: np.ndarray, h: int) -> np.ndarray:
    """Edge mask of Lemma 4's pruning frontier: edges with an endpoint
    within ``h`` hops of an endpoint of a dropped edge."""
    es, ed = g["esrc"], g["edst"]
    near = np.zeros(len(g["verts"]), dtype=bool)
    near[es[dropped]] = near[ed[dropped]] = True
    for _ in range(h):
        hit = near[es] | near[ed]
        near[es[hit]] = near[ed[hit]] = True
    return near[es] | near[ed]
