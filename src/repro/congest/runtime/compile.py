"""Compilation entry points for the unified CONGEST runtime.

Single place every plane gets its compiled artifacts from:

* :class:`CompiledTopology` / :func:`compile_topology` — the one-time
  per-graph compilation into dense-int form (deterministic neighbour
  tuples, frozenset adjacency, CSR arrays) that every plane runs over,
  served through the shared per-graph cache (:mod:`repro.graphs.cache`)
  so sweeps compile once per graph;
* :func:`delivery_plane` — the lazily compiled columnar delivery arrays
  (:class:`~repro.congest.columnar.CompiledDeliveryPlane`), cached on
  the topology so they share its memoization and invalidation;
* :func:`compile_edge_stream` — the **memory-bounded scale path**: an
  edge-block stream (see :mod:`repro.graphs.streaming`) deduplicated and
  symmetrized out-of-core via chunked radix passes into a
  :class:`StreamTopology` whose index/indptr dtypes auto-narrow to int32
  (:class:`CompileStats` reports what was seen and the tracked peak
  bytes);
* :class:`GridTopology` — the **trial-major columnar grid**: T
  independent trials composed into one block-diagonal CSR over
  ``sum(n_t)`` rows.  Block ``t`` occupies dense rows
  ``offsets[t]:offsets[t+1]``; edges never cross blocks, per-block
  ``repr`` ranks are preserved verbatim (reductions and tie-breaks
  inside a block behave exactly as in a single-trial run), and
  ``index_of[v]`` resolves to the *array* of ``v``'s replica rows — one
  per block — so vertex-keyed setup code (``self.depth[root] = 0``)
  transparently initializes every trial.  Built per sweep by
  :func:`repro.congest.runtime.batch.run_many`; the per-block
  compilations still come from the shared cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import networkx as nx
import numpy as np

from repro.graphs.cache import PerGraphCache, invalidate_graph_caches

# ---------------------------------------------------------------------------
# The per-graph compiled topology
# ---------------------------------------------------------------------------
class CompiledTopology:
    """One-time compilation of a ``networkx.Graph`` into dense-int form.

    Attributes
    ----------
    vertices:
        Vertex ids in ``graph.nodes`` order; position is the dense index.
    index_of:
        ``{vertex id: dense index}``.
    neighbor_tuples:
        Per dense index, the neighbours as a tuple sorted by ``repr`` (the
        deterministic order the seed executor exposed via ``NodeContext``).
    neighbor_sets:
        Per dense index, the same neighbours as a ``frozenset`` for O(1)
        send validation.
    indptr / indices:
        CSR adjacency over dense indices as numpy ``int64`` arrays
        (``indices[indptr[i]:indptr[i+1]]`` are ``i``'s neighbours) —
        the canonical compiled adjacency, for vectorized whole-graph
        analyses; the object plane's round loop itself iterates the
        materialized Python-int tuples below.
    neighbor_index_tuples:
        The CSR slices materialized once as tuples of Python ints — the
        broadcast delivery loop's iteration order.
    degrees:
        Per dense index, ``len(neighbor_tuples[i])``.
    """

    __slots__ = (
        "n",
        "m",
        "vertices",
        "index_of",
        "neighbor_tuples",
        "neighbor_sets",
        "neighbor_index_tuples",
        "indptr",
        "indices",
        "index_dtype",
        "degrees",
        "_columnar_plane",
        "__weakref__",
    )

    @classmethod
    def for_graph(cls, graph: nx.Graph) -> "CompiledTopology":
        """Memoized compilation, so sweeps that rebuild ``Network`` objects
        over one graph compile the topology once.

        Served through the shared per-graph cache protocol
        (:mod:`repro.graphs.cache`): staleness is detected by comparing n
        and the full degree table (O(n)).  The one mutation class this
        cannot see is a degree-preserving rewire (e.g.
        ``nx.double_edge_swap``) between ``Network`` constructions — call
        :meth:`invalidate` after such mutations, or pass a fresh graph
        copy.
        """
        return _topology_cache.get(graph)

    @classmethod
    def invalidate(cls, graph: nx.Graph) -> None:
        """Drop **every** registered per-graph cache entry for ``graph``
        (after an in-place mutation the staleness check cannot detect) —
        the compiled topology and the ``GraphStats`` cache stay in sync."""
        invalidate_graph_caches(graph)

    def __init__(self, graph: nx.Graph) -> None:
        vertices = list(graph.nodes)
        index_of = {v: i for i, v in enumerate(vertices)}
        neighbor_tuples = [
            tuple(sorted(graph.neighbors(v), key=repr)) for v in vertices
        ]
        indptr = [0]
        indices: list[int] = []
        for nbrs in neighbor_tuples:
            indices.extend(index_of[u] for u in nbrs)
            indptr.append(len(indices))
        self.n = len(vertices)
        self.m = graph.number_of_edges()
        self.vertices = vertices
        self.index_of = index_of
        self.neighbor_tuples = neighbor_tuples
        self.neighbor_sets = [frozenset(nbrs) for nbrs in neighbor_tuples]
        self.neighbor_index_tuples = [
            tuple(indices[start:stop])
            for start, stop in zip(indptr, indptr[1:])
        ]
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        # int64 everywhere: this is the byte-level reference the
        # narrowed StreamTopology path is differentially tested against.
        self.index_dtype = self.indices.dtype
        self.degrees = [len(nbrs) for nbrs in neighbor_tuples]
        self._columnar_plane = None

    def columnar_plane(self):
        """Lazily compiled arrays for the columnar delivery plane
        (:mod:`repro.congest.columnar`): per-out-edge sender ids, the
        sorted edge-key table for O(log m) vectorized adjacency checks,
        numpy degree/rank tables.  Built on the first columnar run over
        this topology and cached alongside the CSR arrays."""
        plane = self._columnar_plane
        if plane is None:
            from repro.congest.columnar import CompiledDeliveryPlane

            plane = self._columnar_plane = CompiledDeliveryPlane(self)
        return plane


def _topology_fresh(topology: CompiledTopology, graph: nx.Graph) -> bool:
    """Degree-table staleness probe: one pass over the degree view covers
    n, m, and per-vertex degrees (degrees determine 2m)."""
    if topology.n != len(graph):
        return False
    index_of = topology.index_of
    degrees = topology.degrees
    for v, d in graph.degree:
        i = index_of.get(v)
        if i is None or degrees[i] != d:
            return False
    return True


_topology_cache = PerGraphCache(
    CompiledTopology, _topology_fresh, name="compiled-topology"
)


#: Largest value an int32 index/indptr entry may hold.  The narrowing
#: decision compares both ``n`` and the *directed* edge count ``2m``
#: against this (indptr entries run to 2m); ``compile_edge_stream``'s
#: ``int32_limit`` hook lowers it so tests can exercise the ~2^31
#: overflow boundary without 2^31 edges of RAM.
INT32_LIMIT = 2**31 - 1


def compile_topology(graph) -> CompiledTopology:
    """Memoized per-graph compilation (the runtime's single entry —
    identical to ``CompiledTopology.for_graph``).  Already-compiled
    topologies (:class:`StreamTopology`, :class:`CompiledTopology`,
    grids) pass through unchanged, so ``Network(stream_topology)`` and
    ``run_many`` trials over streamed CSRs work everywhere an
    ``nx.Graph`` does.

    >>> import networkx as nx
    >>> graph = nx.path_graph(3)
    >>> topology = compile_topology(graph)
    >>> topology.n, topology.indices.tolist()
    (3, [1, 0, 2, 1])
    >>> compile_topology(graph) is topology  # served from the cache
    True
    >>> compile_topology(topology) is topology  # pre-compiled passthrough
    True
    """
    if hasattr(graph, "indptr"):
        return graph
    return CompiledTopology.for_graph(graph)


def delivery_plane(topology: CompiledTopology):
    """The topology's lazily compiled columnar delivery arrays."""
    return topology.columnar_plane()


# ---------------------------------------------------------------------------
# Streaming scale layer: memory-bounded CSR compilation from edge blocks
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CompileStats:
    """What one :func:`compile_edge_stream` pass saw and allocated.

    ``peak_bytes`` is the tracked high-water mark of the compile pass's
    own major allocations (bucket stores, degree/rank tables, chunk
    stores, sort scratch, the final CSR) — an allocation *model*, not an
    RSS probe; ``benchmarks/bench_scale.py`` records ``ru_maxrss``
    alongside it for the whole-process truth."""

    n: int
    m: int                      # unique undirected edges kept
    candidate_edges: int        # rows consumed from the stream
    self_loops: int             # candidates dropped as u == v
    duplicates: int             # candidates dropped by dedup/symmetrization
    blocks: int                 # edge blocks consumed
    index_dtype: str            # dtype of ``indices``
    indptr_dtype: str           # dtype of ``indptr``
    peak_bytes: int


class _PeakTracker:
    """Running-total allocation model for :class:`CompileStats.peak_bytes`."""

    __slots__ = ("current", "peak")

    def __init__(self) -> None:
        self.current = 0
        self.peak = 0

    def add(self, nbytes: int) -> None:
        self.current += int(nbytes)
        if self.current > self.peak:
            self.peak = self.current

    def pop(self, nbytes: int) -> None:
        self.current -= int(nbytes)

    def transient(self, nbytes: int) -> None:
        """Scratch freed before the next tracked step: peak only."""
        self.peak = max(self.peak, self.current + int(nbytes))


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for an integer array, by sort plus an
    adjacent-difference mask.

    numpy 2.4 routes a plain ``np.unique`` (no ``return_*`` flag)
    through a hash table, ~60x slower than this on 2^20 random uint64
    keys; the sorted distinct values are the same array.

    >>> sorted_unique(np.array([3, 1, 3, 2, 1])).tolist()
    [1, 2, 3]
    """
    keys = np.sort(values, axis=None)
    if len(keys) < 2:
        return keys
    keep = np.empty(len(keys), dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _decimal_repr_order(n: int) -> np.ndarray:
    """Vertices ``0..n-1`` sorted by ``repr`` (decimal-string) order,
    computed numerically: the string order of left-aligned decimals is
    the order of ``v * 10**(maxd - digits(v))`` with ties (prefix pairs
    like ``"2"``/``"20"``) broken shorter-first — no Python string sort,
    O(n log n) in numpy.  The inverse of :func:`_decimal_repr_rank`.

    >>> _decimal_repr_order(12).tolist()
    [0, 1, 10, 11, 2, 3, 4, 5, 6, 7, 8, 9]
    """
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    values = np.arange(n, dtype=np.int64)
    max_digits = len(str(n - 1))
    powers = 10 ** np.arange(max_digits, dtype=np.int64)
    digits = np.maximum(
        np.searchsorted(powers, values, side="right"), 1
    )
    padded = values * powers[max_digits - digits]
    return np.argsort(padded * (max_digits + 1) + digits)


def _inverse_permutation(order: np.ndarray) -> np.ndarray:
    """``inverse[order[i]] = i`` (int64)."""
    inverse = np.empty(len(order), dtype=np.int64)
    inverse[order] = np.arange(len(order), dtype=np.int64)
    return inverse


def _decimal_repr_rank(n: int) -> np.ndarray:
    """Rank of each vertex ``0..n-1`` under ``repr`` ordering.

    >>> _decimal_repr_rank(12).tolist()  # 0,1,10,11,2,..,9
    [0, 1, 4, 5, 6, 7, 8, 9, 10, 11, 2, 3]
    """
    return _inverse_permutation(_decimal_repr_order(n))


def _resolve_index_dtype(index_dtype, n, directed_edges, limit):
    """Apply the narrowing policy; raise on an unfittable explicit int32."""
    if index_dtype not in ("auto", "int32", "int64"):
        raise ValueError(
            f"index_dtype must be 'auto', 'int32' or 'int64', "
            f"not {index_dtype!r}"
        )
    fits = n <= limit and directed_edges <= limit
    if index_dtype == "int64":
        return np.dtype(np.int64)
    if index_dtype == "int32":
        if not fits:
            raise OverflowError(
                f"int32 CSR cannot hold n={n}, directed edges="
                f"{directed_edges} (limit {limit}); pass "
                f"index_dtype='int64' to opt out of narrowing"
            )
        return np.dtype(np.int32)
    return np.dtype(np.int32 if fits else np.int64)


def _canonical_keys(arr: np.ndarray, wide_n: np.uint64) -> tuple:
    """``(keys, self_loops)`` of one validated edge block: the sorted
    distinct canonical keys ``min * n + max`` of its non-loop rows."""
    u = arr[:, 0].astype(np.uint64)
    v = arr[:, 1].astype(np.uint64)
    keep = u != v
    low = np.minimum(u, v)[keep]
    high = np.maximum(u, v)[keep]
    del u, v
    low *= wide_n
    low += high
    return sorted_unique(low), len(arr) - len(high)


def _split_by_residue(keys: np.ndarray, buckets: int):
    """Yield ``(t, part)``: a copy of the keys with ``key % buckets == t``,
    in key order.  Residues narrowed to 8/16 bits make the stable
    argsort a radix sort."""
    narrow = (
        np.uint8 if buckets <= 1 << 8
        else np.uint16 if buckets <= 1 << 16 else np.int64
    )
    residues = (keys % np.uint64(buckets)).astype(narrow)
    order = np.argsort(residues, kind="stable")
    counts = np.bincount(residues, minlength=buckets)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    scattered = keys[order]
    del residues, order
    for t in np.flatnonzero(bounds[1:] > bounds[:-1]):
        yield t, scattered[bounds[t]:bounds[t + 1]].copy()


def compile_edge_stream(
    blocks: Iterable[np.ndarray],
    n: int,
    *,
    index_dtype: str = "auto",
    int32_limit: int | None = None,
    buckets: int = 256,
    row_chunk: int = 1 << 18,
) -> "StreamTopology":
    """Compile an edge-block stream into a memory-bounded CSR topology.

    ``blocks`` yields ``(k, 2)`` integer arrays of directed candidate
    edges over vertices ``0..n-1`` (e.g. the streams of
    :mod:`repro.graphs.streaming`).  Self-loops are dropped, every kept
    edge is symmetrized (``{u, v}`` appears as both ``u→v`` and
    ``v→u``), and duplicates are removed **out-of-core**: candidates are
    canonicalized to ``min * n + max`` keys, hash-partitioned into
    ``buckets`` residue classes (chunked radix pass: bucket key sets are
    disjoint, so a per-bucket :func:`sorted_unique` is a global dedup),
    and the final CSR is assembled per ``row_chunk`` rows — no step
    holds all candidate edges in one sort.  Blocks of a non-integer
    dtype (floats, bools) raise :class:`ValueError`.

    Index/indptr dtypes auto-narrow to int32 when ``n`` and the directed
    edge count both fit (``index_dtype="auto"``); ``"int32"`` makes an
    unfittable input an :class:`OverflowError` instead of a silent
    upcast, ``"int64"`` opts out of narrowing entirely (the byte-level
    reference path).  ``int32_limit`` lowers the fit threshold — a test
    hook for exercising the ~2^31 indptr overflow boundary cheaply.

    Within each CSR row, neighbours are ordered by ``repr`` rank —
    byte-compatible with :class:`CompiledTopology` over the same graph
    labelled ``0..n-1``, which is what makes streamed topologies
    differentially testable against the object planes.

    >>> blocks = [np.array([[0, 1], [1, 2], [2, 2], [1, 0]])]
    >>> topology = compile_edge_stream(blocks, 3)
    >>> topology.indices.tolist(), str(topology.index_dtype)
    ([1, 0, 2, 1], 'int32')
    >>> (topology.stats.m, topology.stats.self_loops,
    ...  topology.stats.duplicates)
    (2, 1, 1)
    """
    if n < 1:
        raise ValueError("n must be positive")
    if buckets < 1 or row_chunk < 1:
        raise ValueError("buckets and row_chunk must be positive")
    limit = INT32_LIMIT if int32_limit is None else int(int32_limit)
    tracker = _PeakTracker()
    wide_n = np.uint64(n)

    # Pass 1 — canonicalize, dedup per block, hash-partition by residue.
    bucket_parts: list[list[np.ndarray]] = [[] for _ in range(buckets)]
    candidates = loops = block_count = 0
    for block in blocks:
        arr = np.asarray(block)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("edge blocks must have shape (k, 2)")
        if arr.dtype.kind not in "iu":
            raise ValueError(
                f"edge block {block_count} has non-integer dtype "
                f"{arr.dtype}; endpoints must be integers"
            )
        block_count += 1
        if not len(arr):
            continue
        candidates += len(arr)
        if int(arr.min()) < 0 or int(arr.max()) >= n:
            raise ValueError(
                f"edge endpoint out of range [0, {n}) in block "
                f"{block_count - 1}"
            )
        keys, block_loops = _canonical_keys(arr, wide_n)
        loops += block_loops
        # Peak of _canonical_keys: the block, both endpoint columns as
        # uint64, the loop mask, min/max before and after it, the sort.
        tracker.transient(arr.nbytes + 48 * len(arr))
        # The keys, their residues, residue order and scattered copy.
        split = 3 * keys.nbytes + len(keys)
        tracker.add(split)
        for t, part in _split_by_residue(keys, buckets):
            bucket_parts[t].append(part)
            tracker.add(part.nbytes)
        tracker.pop(split)
        keys = part = None

    # Pass 2 — per-bucket global dedup.  Buckets are released as they
    # are consumed; their order never reaches the output (pass 4 sorts).
    bucket_unique: list[np.ndarray] = []
    for t in range(buckets):
        parts, bucket_parts[t] = bucket_parts[t], []
        if not parts:
            continue
        merged = parts[0] if len(parts) == 1 else np.concatenate(parts)
        unique = sorted_unique(merged)
        # The concatenation (if any), the dedup's sorted copy and mask.
        scratch = (len(parts) > 1) * merged.nbytes + merged.nbytes
        tracker.transient(scratch + len(merged) + unique.nbytes)
        tracker.add(unique.nbytes)
        tracker.pop(sum(p.nbytes for p in parts))
        bucket_unique.append(unique)
    parts = merged = None
    m = sum(len(unique) for unique in bucket_unique)
    duplicates = (candidates - loops) - m

    # Pass 3 — dtype decision + CSR skeleton.
    directed = 2 * m
    dtype = _resolve_index_dtype(index_dtype, n, directed, limit)
    indptr64 = np.zeros(n + 1, dtype=np.int64)
    indices = np.empty(directed, dtype=dtype)
    repr_order = _decimal_repr_order(n)
    rank = _inverse_permutation(repr_order)
    by_rank = repr_order.astype(dtype)
    del repr_order
    tracker.add(
        indptr64.nbytes + indices.nbytes + rank.nbytes + by_rank.nbytes
    )

    # Pass 4 — chunked assembly.  Each directed edge ``row→col`` becomes
    # the key ``row * n + rank[col]`` (unique, since (row, col) is), and
    # the keys are scattered into ``row_chunk``-row chunks.  Sorting a
    # chunk's keys orders it by (row, repr rank): ``key // n`` counts the
    # row degrees and ``by_rank[key % n]`` recovers the columns as the
    # chunk's contiguous CSR slice.
    num_chunks = -(-n // row_chunk)
    chunk_rows = np.minimum(np.arange(num_chunks + 1) * row_chunk, n)
    chunk_starts = chunk_rows.astype(np.uint64) * wide_n
    chunk_keys: list[list[np.ndarray]] = [[] for _ in range(num_chunks)]
    rank_key = rank.view(np.uint64)
    while bucket_unique:
        unique = bucket_unique.pop()
        half = len(unique)
        low = unique // wide_n
        high = unique % wide_n
        keys = np.empty(2 * half, dtype=np.uint64)
        np.multiply(low, wide_n, out=keys[:half])
        keys[:half] += rank_key[high.view(np.int64)]
        np.multiply(high, wide_n, out=keys[half:])
        keys[half:] += rank_key[low.view(np.int64)]
        del low, high
        tracker.add(keys.nbytes)
        tracker.transient(3 * unique.nbytes)  # low, high, a rank gather
        if num_chunks == 1:
            chunk_keys[0].append(keys)
        else:
            keys.sort()
            bounds = np.searchsorted(keys, chunk_starts)
            for c in np.flatnonzero(bounds[1:] > bounds[:-1]):
                part = keys[bounds[c]:bounds[c + 1]].copy()
                chunk_keys[c].append(part)
                tracker.add(part.nbytes)
            tracker.pop(keys.nbytes)
        tracker.pop(unique.nbytes)
        del unique, keys
    start = 0
    for c in range(num_chunks):
        parts, chunk_keys[c] = chunk_keys[c], []
        base = c * row_chunk
        end = min(base + row_chunk, n)
        if not parts:
            indptr64[base + 1:end + 1] = start
            continue
        if len(parts) == 1:
            keys = parts[0]
        else:  # briefly beside its parts, then in their place
            keys = np.concatenate(parts)
            tracker.transient(keys.nbytes)
        del parts
        keys.sort()
        rows = keys // wide_n
        rows -= np.uint64(base)
        degrees = np.bincount(rows.view(np.int64), minlength=end - base)
        tracker.transient(rows.nbytes + degrees.nbytes)
        np.cumsum(degrees, out=indptr64[base + 1:end + 1])
        indptr64[base + 1:end + 1] += start
        del rows, degrees
        stop = start + len(keys)
        np.remainder(keys, wide_n, out=keys)  # keys -> column repr ranks
        tracker.transient(len(keys) * dtype.itemsize)  # the gather
        indices[start:stop] = by_rank[keys.view(np.int64)]
        tracker.pop(keys.nbytes)
        del keys
        start = stop
    indptr = indptr64.astype(dtype)
    tracker.add(indptr.nbytes)

    stats = CompileStats(
        n=n,
        m=m,
        candidate_edges=candidates,
        self_loops=loops,
        duplicates=duplicates,
        blocks=block_count,
        index_dtype=str(dtype),
        indptr_dtype=str(indptr.dtype),
        peak_bytes=tracker.peak,
    )
    return StreamTopology(n, indptr, indices, stats, repr_rank=rank)


class _IdentityIndex:
    """``index_of`` for dense integer vertices ``0..n-1`` — the identity
    map, without materializing a dict of n Python ints."""

    __slots__ = ("_n",)

    def __init__(self, n: int) -> None:
        self._n = n

    def __getitem__(self, vertex: Any) -> int:
        index = self.get(vertex)
        if index is None:
            raise KeyError(vertex)
        return index

    def get(self, vertex: Any, default=None):
        if isinstance(vertex, (int, np.integer)) and 0 <= vertex < self._n:
            return int(vertex)
        return default

    def __contains__(self, vertex: Any) -> bool:
        return self.get(vertex) is not None

    def __len__(self) -> int:
        return self._n

    def __iter__(self):
        return iter(range(self._n))


class StreamDeliveryPlane:
    """Lazy columnar delivery arrays for a :class:`StreamTopology` —
    the contract of :class:`~repro.congest.columnar.CompiledDeliveryPlane`
    with every O(m)/O(n·objects) table deferred: ``edge_keys`` builds on
    the first unicast emission, ``broadcast_transpose`` on the first
    round dense enough for the sort-free broadcast kernel, ``slot_rank``
    on the first fault or recovery use,
    ``neighbor_index_sets`` (Python frozensets — O(n) objects) only if
    the columnar *reference* executor runs.  Broadcast workloads at 10^6
    nodes never build the edge keys or the sets."""

    __slots__ = ("degrees", "repr_rank", "_topology", "_edge_keys",
                 "_neighbor_index_sets", "_transpose", "_slot_rank")

    def __init__(self, topology: "StreamTopology") -> None:
        self.degrees = (
            topology.indptr[1:].astype(np.int64)
            - topology.indptr[:-1].astype(np.int64)
        )
        self.repr_rank = topology.repr_rank
        self._topology = topology
        self._edge_keys = None
        self._neighbor_index_sets = None
        self._transpose = None

    @property
    def edge_keys(self) -> np.ndarray:
        keys = self._edge_keys
        if keys is None:
            topology = self._topology
            senders = np.repeat(
                np.arange(topology.n, dtype=np.int64), self.degrees
            )
            keys = self._edge_keys = np.sort(
                senders * topology.n + topology.indices.astype(np.int64)
            )
        return keys

    @property
    def broadcast_transpose(self) -> tuple:
        """``(t_senders, t_indptr)``, ``t_senders`` in the topology's
        (int32-narrowed) index dtype — see
        :func:`~repro.congest.columnar.broadcast_transpose`."""
        transpose = self._transpose
        if transpose is None:
            from repro.congest.columnar import broadcast_transpose

            topology = self._topology
            transpose = self._transpose = broadcast_transpose(
                topology.indptr, topology.indices
            )
        return transpose

    @property
    def slot_rank(self) -> np.ndarray:
        """CSR slot → canonical edge rank — see
        :func:`~repro.congest.columnar.slot_ranks`."""
        # Unset until the first fault or recovery use.
        try:
            return self._slot_rank
        except AttributeError:
            from repro.congest.columnar import slot_ranks

            topology = self._topology
            self._slot_rank = slot_ranks(
                topology.indptr, topology.indices, self.edge_keys
            )
            return self._slot_rank

    @property
    def neighbor_index_sets(self) -> list:
        sets = self._neighbor_index_sets
        if sets is None:
            sets = self._neighbor_index_sets = [
                frozenset(t) for t in self._topology.neighbor_index_tuples
            ]
        return sets


class StreamTopology:
    """A CSR topology compiled from an edge-block stream.

    Quacks like :class:`CompiledTopology` everywhere the runtime looks —
    ``n``/``m``/``indptr``/``indices``/``vertices``/``index_of``/
    ``columnar_plane()`` — plus ``number_of_nodes()``/
    ``number_of_edges()`` so :class:`~repro.congest.network.Network`,
    ``run_many`` trials, and the grid chunker accept it wherever an
    ``nx.Graph`` goes (``compile_topology`` passes it through).  Vertices
    are dense ints ``0..n-1`` (``range``, not a list), ``index_of`` is an
    identity object, and the object-plane tables (``neighbor_tuples`` &c.)
    build lazily — they materialize Python objects per vertex, which is
    exactly what the scale path avoids, but small streamed topologies
    remain runnable on every registered plane for differential tests.

    Unlike ``CompiledTopology``, ``indptr``/``indices`` may be int32
    (:attr:`index_dtype`); :attr:`stats` carries the
    :class:`CompileStats` of the compile pass.
    """

    def __init__(
        self,
        n: int,
        indptr: np.ndarray,
        indices: np.ndarray,
        stats: CompileStats,
        *,
        repr_rank: np.ndarray | None = None,
    ) -> None:
        self.n = int(n)
        self.m = stats.m
        self.indptr = indptr
        self.indices = indices
        self.index_dtype = indices.dtype
        self.stats = stats
        self.vertices = range(self.n)
        self.index_of = _IdentityIndex(self.n)
        self._repr_rank = repr_rank
        self._columnar_plane = None
        self._neighbor_tuples = None
        self._neighbor_sets = None

    def number_of_nodes(self) -> int:
        return self.n

    def number_of_edges(self) -> int:
        return self.m

    @property
    def repr_rank(self) -> np.ndarray:
        rank = self._repr_rank
        if rank is None:
            rank = self._repr_rank = _decimal_repr_rank(self.n)
        return rank

    @property
    def degrees(self) -> np.ndarray:
        return (
            self.indptr[1:].astype(np.int64)
            - self.indptr[:-1].astype(np.int64)
        )

    @property
    def neighbor_tuples(self) -> list:
        tuples = self._neighbor_tuples
        if tuples is None:
            indptr, indices = self.indptr, self.indices
            tuples = self._neighbor_tuples = [
                tuple(indices[int(indptr[i]):int(indptr[i + 1])].tolist())
                for i in range(self.n)
            ]
        return tuples

    # Dense identity labelling: a neighbour's vertex id *is* its index,
    # so the object-plane tuple tables coincide.
    neighbor_index_tuples = neighbor_tuples

    @property
    def neighbor_sets(self) -> list:
        sets = self._neighbor_sets
        if sets is None:
            sets = self._neighbor_sets = [
                frozenset(t) for t in self.neighbor_tuples
            ]
        return sets

    def columnar_plane(self) -> StreamDeliveryPlane:
        plane = self._columnar_plane
        if plane is None:
            plane = self._columnar_plane = StreamDeliveryPlane(self)
        return plane


class _GridIndex:
    """``index_of`` for a grid: maps a vertex id to the int64 array of
    its replica rows, one per block (fancy-indexable, so scalar
    vertex-keyed initialization fans out over every trial).  Raises
    ``KeyError`` when any block lacks the vertex — exactly the error a
    per-trial run on that block would hit."""

    __slots__ = ("_blocks", "_offsets")

    def __init__(self, blocks, offsets) -> None:
        self._blocks = blocks
        self._offsets = offsets

    def __getitem__(self, vertex: Any) -> np.ndarray:
        offsets = self._offsets
        return np.array(
            [
                offsets[t] + block.index_of[vertex]
                for t, block in enumerate(self._blocks)
            ],
            dtype=np.int64,
        )


class _GridDeliveryPlane:
    """The columnar delivery arrays of a block-diagonal grid — the same
    shape :class:`~repro.congest.columnar.CompiledDeliveryPlane` exposes,
    assembled from the per-block planes (per-block ``repr`` ranks are
    kept as-is: rank comparisons only ever happen between neighbours,
    which never cross blocks).  The sorted edge-key table is built lazily
    on the first *unicast* emission: broadcast-only sweeps (every classic
    in this repository) never pay the O(Σm) key sort.  The broadcast
    transpose is built lazily too, composed block-diagonally from the
    blocks' cached transposes — concatenation with row and edge offsets,
    never a per-sweep sort — and so is ``slot_rank``, from the blocks'
    cached tables."""

    __slots__ = ("degrees", "repr_rank", "_grid", "_edge_keys", "_transpose",
                 "_slot_rank")

    def __init__(self, grid: "GridTopology") -> None:
        self.degrees = grid.indptr[1:] - grid.indptr[:-1]
        self.repr_rank = np.concatenate(
            [delivery_plane(block).repr_rank for block in grid.blocks]
        )
        self._grid = grid
        self._edge_keys = None
        self._transpose = None

    @property
    def broadcast_transpose(self) -> tuple:
        """``(t_senders, t_indptr)`` of the grid: block ``t``'s cached
        transpose shifted by its row offset (senders) and edge offset
        (in-CSR offsets) — see
        :func:`~repro.congest.columnar.broadcast_transpose`."""
        transpose = self._transpose
        if transpose is None:
            grid = self._grid
            dtype = grid.index_dtype
            sender_parts = []
            indptr_parts = [np.zeros(1, dtype=np.int64)]
            edge_offset = 0
            for block, row_offset in zip(grid.blocks, grid.offsets):
                t_senders, t_indptr = (
                    delivery_plane(block).broadcast_transpose
                )
                sender_parts.append(
                    t_senders.astype(dtype, copy=False)
                    + dtype.type(row_offset)
                )
                indptr_parts.append(t_indptr[1:] + edge_offset)
                edge_offset += len(t_senders)
            transpose = self._transpose = (
                np.concatenate(sender_parts), np.concatenate(indptr_parts)
            )
        return transpose

    @property
    def slot_rank(self) -> np.ndarray:
        """CSR slot → canonical edge rank of the grid — see
        :func:`~repro.congest.columnar.slot_ranks`.  Composed from the
        blocks' cached tables: block key ranges are disjoint and
        ascending, so a block's grid rank is its edge offset plus its
        local rank."""
        try:
            return self._slot_rank
        except AttributeError:
            parts = []
            edge_offset = 0
            for block in self._grid.blocks:
                parts.append(delivery_plane(block).slot_rank + edge_offset)
                edge_offset += len(block.indices)
            self._slot_rank = np.concatenate(parts)
            return self._slot_rank

    @property
    def edge_keys(self) -> np.ndarray:
        keys = self._edge_keys
        if keys is None:
            grid = self._grid
            senders = np.repeat(
                np.arange(grid.n, dtype=np.int64), self.degrees
            )
            keys = self._edge_keys = np.sort(
                senders * grid.n + grid.indices
            )
        return keys


class GridTopology:
    """T compiled topologies as one block-diagonal CSR (trial-major rows).

    Quacks like a :class:`CompiledTopology` for the columnar executor
    (``n``, ``vertices``, ``indptr``, ``indices``, ``index_of``) and
    carries its own delivery plane (:attr:`plane`).  Blocks may have
    different sizes — per-trial bandwidth limits and round caps are the
    batch executor's job (:mod:`repro.congest.runtime.batch`), not the
    topology's.

    >>> import networkx as nx
    >>> grid = GridTopology([
    ...     compile_topology(nx.path_graph(2)),
    ...     compile_topology(nx.path_graph(3)),
    ... ])
    >>> grid.n, grid.offsets.tolist()
    (5, [0, 2, 5])
    >>> grid.trial_of(np.array([0, 1, 2, 4])).tolist()
    [0, 0, 1, 1]
    """

    __slots__ = (
        "blocks", "trials", "offsets", "block_sizes", "n", "m",
        "vertices", "index_of", "indptr", "indices", "index_dtype",
        "plane",
    )

    def __init__(self, blocks: Sequence[CompiledTopology]) -> None:
        if not blocks:
            raise ValueError("grid needs at least one trial block")
        self.blocks = list(blocks)
        self.trials = len(self.blocks)
        sizes = np.array([block.n for block in self.blocks], dtype=np.int64)
        self.block_sizes = sizes
        offsets = np.zeros(self.trials + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        self.offsets = offsets
        self.n = int(offsets[-1])
        self.m = sum(block.m for block in self.blocks)
        vertices: list = []
        for block in self.blocks:
            vertices.extend(block.vertices)
        self.vertices = vertices
        self.index_of = _GridIndex(self.blocks, offsets)
        # Dtype propagation: a grid of narrowed (int32) blocks stays
        # narrowed when the *composed* row/edge totals still fit —
        # mixing in one int64 block, or overflowing the block-diagonal
        # concatenation, widens the whole grid.  Casts are explicit:
        # int64 offsets would silently re-promote under NEP 50.
        total_edges = sum(int(block.indptr[-1]) for block in self.blocks)
        narrow = (
            self.n <= INT32_LIMIT
            and total_edges <= INT32_LIMIT
            and all(
                block.indices.dtype == np.int32 for block in self.blocks
            )
        )
        dtype = np.dtype(np.int32 if narrow else np.int64)
        self.index_dtype = dtype
        indptr_parts = [np.zeros(1, dtype=dtype)]
        indices_parts = []
        edge_offset = 0
        for t, block in enumerate(self.blocks):
            indptr_parts.append(
                block.indptr[1:].astype(dtype, copy=False) + dtype.type(edge_offset)
            )
            indices_parts.append(
                block.indices.astype(dtype, copy=False) + dtype.type(offsets[t])
            )
            edge_offset += int(block.indptr[-1])
        self.indptr = np.concatenate(indptr_parts)
        self.indices = np.concatenate(indices_parts)
        self.plane = _GridDeliveryPlane(self)

    def columnar_plane(self):
        """Delivery-plane accessor, mirroring ``CompiledTopology``."""
        return self.plane

    def trial_of(self, rows: np.ndarray) -> np.ndarray:
        """The trial index of each dense grid row.  Uniform block sizes
        (the common same-graph seed sweep) take an integer division; the
        general case binary-searches the offset table."""
        sizes = self.block_sizes
        if self.trials == 1:
            return np.zeros(len(rows), dtype=np.int64)
        if int(sizes.min()) == int(sizes.max()):
            # Rows may arrive in the grid's narrowed dtype; trial ids
            # feed (trial * width + bits) bincount keys, so widen here.
            return (rows // int(sizes[0])).astype(np.int64, copy=False)
        return np.searchsorted(self.offsets[1:], rows, side="right")

    def split(self, values: Sequence) -> list:
        """Slice a grid-aligned sequence back into per-trial chunks."""
        offsets = self.offsets
        return [
            values[int(offsets[t]):int(offsets[t + 1])]
            for t in range(self.trials)
        ]
