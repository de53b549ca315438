"""Output checks for the benchmark's workloads.

The MIS pass is the vectorized CSR check of ``benchmarks/bench_scale.py``
(no per-vertex Python), restated here so the benchmark depends only on
``src/``.  Coloring and horizon-bounded BFS get the same treatment;
graphs small enough for ``networkx`` go through
:mod:`repro.congest.validators` instead.  Every check returns ``None``
when the outputs hold, or a one-line reason.
"""

from __future__ import annotations

import numpy as np


def _csr(topology):
    indptr = np.asarray(topology.indptr, dtype=np.int64)
    indices = np.asarray(topology.indices, dtype=np.int64)
    rows = np.repeat(np.arange(topology.n, dtype=np.int64), np.diff(indptr))
    return indptr, indices, rows


def mis_problem(outputs: dict, topology) -> str | None:
    """Independent and maximal, over the compiled CSR."""
    flags = np.fromiter(outputs.values(), dtype=bool, count=topology.n)
    _indptr, indices, rows = _csr(topology)
    if np.any(flags[rows] & flags[indices]):
        return "MIS is not independent"
    covered = np.bincount(rows, weights=flags[indices],
                          minlength=topology.n) > 0
    if not bool(np.all(flags | covered)):
        return "MIS is not maximal"
    return None


def coloring_problem(outputs: dict, topology, palette: int) -> str | None:
    """Every vertex coloured inside the palette, no edge monochromatic."""
    values = list(outputs.values())
    if any(color is None for color in values):
        return "coloring left a vertex uncoloured"
    colors = np.asarray(values, dtype=np.int64)
    if colors.min() < 0 or colors.max() >= palette:
        return f"coloring used a colour outside [0, {palette})"
    _indptr, indices, rows = _csr(topology)
    if np.any(colors[rows] == colors[indices]):
        return "coloring is not proper"
    return None


def bfs_distances(topology, root: int, depth_limit: int) -> np.ndarray:
    """Exact hop distances from ``root`` up to ``depth_limit`` (-1 beyond)."""
    indptr, indices, _rows = _csr(topology)
    dist = np.full(topology.n, -1, dtype=np.int64)
    dist[root] = 0
    frontier = np.array([root], dtype=np.int64)
    for depth in range(1, depth_limit + 1):
        starts, stops = indptr[frontier], indptr[frontier + 1]
        lengths = stops - starts
        offsets = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
        neighbours = indices[offsets + np.arange(int(lengths.sum()))]
        fresh = np.unique(neighbours[dist[neighbours] < 0])
        if not fresh.size:
            break
        dist[fresh] = depth
        frontier = fresh
    return dist


def bfs_problem(outputs: dict, topology, root: int,
                horizon: int) -> str | None:
    """A BFS tree run for ``horizon`` rounds reaches exactly the vertices
    within ``horizon - 1`` hops, at their true depth, through a neighbour
    one level up."""
    n = topology.n
    depth = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    index_of = topology.index_of
    for i, entry in enumerate(outputs.values()):
        if entry is not None:
            parent[i] = index_of[entry[0]]
            depth[i] = entry[1]
    truth = bfs_distances(topology, root, horizon - 1)
    if not np.array_equal(depth, truth):
        wrong = int(np.count_nonzero(depth != truth))
        return f"BFS depths differ from true distances at {wrong} vertices"
    child = np.flatnonzero(depth > 0)
    if np.any(depth[parent[child]] != depth[child] - 1):
        return "BFS parent is not one level up"
    indptr, indices, _rows = _csr(topology)
    edge_keys = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    edge_keys = np.sort(edge_keys * n + indices)
    wanted = child * n + parent[child]
    found = np.searchsorted(edge_keys, wanted)
    found = np.minimum(found, edge_keys.size - 1)
    if edge_keys.size == 0 or np.any(edge_keys[found] != wanted):
        return "BFS parent is not a neighbour"
    return None
