"""Streaming edge-block generators for million-node graph families.

The classic generators in :mod:`repro.graphs.generators` build
``networkx`` graphs — fine up to ~10^5 vertices, prohibitive beyond
(every vertex and edge is a Python object).  The functions here instead
yield **edge blocks**: ``(k, 2)`` int64 numpy arrays of directed
candidate edges.  They are consumed by
:func:`repro.congest.runtime.compile.compile_edge_stream`, which
deduplicates, symmetrizes, and narrows them into a CSR topology without
ever materializing the full edge list in Python objects.

Determinism contract
--------------------
Every family draws from counter-based ``numpy.random.Philox`` streams
keyed by ``(derive_stream_key(seed, [family, params…]), quantum)``
where ``quantum`` indexes a **fixed internal chunk** of ``2**16``
candidate edges (:data:`QUANTUM`).  The public ``block_edges`` argument
only re-chunks the already-determined stream, so::

    concat(stream_powerlaw_edges(n, m, seed=s, block_edges=b1))
    == concat(stream_powerlaw_edges(n, m, seed=s, block_edges=b2))

for any block sizes ``b1``/``b2`` — the property the scale tests pin.
Keys route through the shared Philox key-derivation in
:mod:`repro.congest.runtime.rng`, so graph streams, vertex RNG planes,
and fault schedules all live in one keyed-stream discipline.

Blocks are *candidates*: they may contain self-loops and duplicates
(power-law and R-MAT sample with replacement); the compile pass drops
both.  Only ``stream_random_regular_edges`` holds O(n·degree) numpy
scratch (one stub permutation); the other families are O(block).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

#: Fixed internal quantum (candidate edges per Philox counter step).
#: Part of the determinism contract — changing it changes every stream.
QUANTUM = 1 << 16

# Family tags folded into the stream key (ints: ``derive_stream_key``
# hashes strings via ``hash()``, which PYTHONHASHSEED would randomize).
_POWERLAW_TAG = 1
_RMAT_TAG = 2
_REGULAR_TAG = 3


def _stream_key(seed: int, scope: list) -> int:
    # Lazy import: repro.congest.runtime imports repro.graphs (cache
    # module), so the reverse edge must resolve at call time.
    from repro.congest.runtime.rng import derive_stream_key

    return derive_stream_key(seed, scope)


def _quantum_generator(key: int, quantum: int) -> np.random.Generator:
    """One Philox stream per (family key, quantum index)."""
    return np.random.Generator(np.random.Philox(key=[key, quantum]))


def _reblock(
    quanta: Iterator[np.ndarray], block_edges: int
) -> Iterator[np.ndarray]:
    """Re-chunk a fixed-quantum stream into ``block_edges``-row blocks.

    Pure slicing/concatenation of already-drawn arrays — block size can
    never influence the drawn values.
    """
    if block_edges <= 0:
        raise ValueError("block_edges must be positive")
    pending: list[np.ndarray] = []
    held = 0
    for quantum in quanta:
        pending.append(quantum)
        held += len(quantum)
        while held >= block_edges:
            buffer = pending[0] if len(pending) == 1 else np.concatenate(pending)
            yield buffer[:block_edges]
            rest = buffer[block_edges:]
            pending = [rest] if len(rest) else []
            held = len(rest)
    if held:
        yield pending[0] if len(pending) == 1 else np.concatenate(pending)


def _quantum_sizes(total: int) -> Iterator[tuple[int, int]]:
    """Yield ``(quantum_index, count)`` covering ``total`` candidates."""
    full, tail = divmod(total, QUANTUM)
    for qi in range(full):
        yield qi, QUANTUM
    if tail:
        yield full, tail


def _powerlaw_cdf(n: int, gamma: float) -> np.ndarray:
    """Normalized CDF of the Chung–Lu weights
    ``(i + 1) ** (-1 / (gamma - 1))``; its last entry is exactly 1.0."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** (-1.0 / (gamma - 1.0))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    return cdf


#: Largest bucket count of the inverse-CDF table (a power of two).
_MAX_CDF_BUCKETS = 1 << 20
#: Linear steps a lookup takes before handing stragglers to searchsorted.
_MAX_CDF_STEPS = 8


def _bucketed_inverse_cdf(cdf: np.ndarray):
    """An exact, cache-friendly ``np.searchsorted(cdf, u, side="right")``
    for uniforms ``u`` in ``[0, 1)`` over a sorted ``cdf`` ending in 1.0.

    ``[0, 1)`` is cut into ``K`` equal buckets, ``K`` the power of two
    at or above ``len(cdf)`` (capped at :data:`_MAX_CDF_BUCKETS`, so the
    table stays O(n) like the CDF).  ``lo[b]`` counts the CDF entries
    ``<= b / K``.  Since ``b = floor(u * K)`` is exact for a power-of-two
    ``K``, the answer for ``u`` lies in ``[lo[b], lo[b + 1]]``: start at
    ``lo[b]`` and step while ``cdf[idx] <= u`` — at most the widest
    bucket's ``lo[b + 1] - lo[b]`` vectorized steps, and the walk cannot
    overshoot because ``cdf[answer] > u``.  Heavy-headed CDFs (``gamma``
    near 1) pack many entries into one bucket; past
    :data:`_MAX_CDF_STEPS` steps the few unfinished lookups fall back to
    ``searchsorted`` itself.  Every lookup therefore equals
    ``searchsorted`` element for element.
    """
    buckets = min(_MAX_CDF_BUCKETS, 1 << (len(cdf) - 1).bit_length())
    lo_table = np.searchsorted(
        cdf, np.arange(buckets + 1, dtype=np.float64) / buckets, side="right"
    )
    widest = int(np.max(lo_table[1:] - lo_table[:-1]))
    steps = min(widest, _MAX_CDF_STEPS)

    def lookup(u: np.ndarray) -> np.ndarray:
        found = lo_table[(u * buckets).astype(np.int64)]
        for _ in range(steps):
            found += cdf[found] <= u
        if widest > steps:
            pending = np.flatnonzero(cdf[found] <= u)
            found[pending] = np.searchsorted(cdf, u[pending], side="right")
        return found

    return lookup


def stream_powerlaw_edges(
    n: int,
    m: int,
    *,
    gamma: float = 2.5,
    seed: int = 0,
    block_edges: int = 1 << 17,
) -> Iterator[np.ndarray]:
    """Chung–Lu power-law graph stream: ``m`` candidate edges on ``n``
    vertices with expected degree of vertex ``i`` proportional to
    ``(i + 1) ** (-1 / (gamma - 1))`` (degree exponent ``gamma``).

    Endpoints are drawn independently from the weight distribution by
    inverse CDF: a uniform ``u`` maps to the first vertex whose
    cumulative weight exceeds ``u``.  The lookup is an exact bucketed
    table (:func:`_bucketed_inverse_cdf`) equal element for element to
    ``np.searchsorted(cdf, u, side="right")``, without its cache-missing
    binary search over the whole CDF.  The symmetrized simple graph is
    the standard Chung–Lu model: heavy-tailed degrees, possibly
    disconnected.  Yields ``(k, 2)`` int64 blocks.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if m < 0:
        raise ValueError("m must be non-negative")
    if gamma <= 1.0:
        raise ValueError("gamma must exceed 1 (degree exponent)")
    key = _stream_key(seed, [_POWERLAW_TAG, n, m, hash(float(gamma))])
    lookup = _bucketed_inverse_cdf(_powerlaw_cdf(n, gamma))

    def quanta() -> Iterator[np.ndarray]:
        for qi, count in _quantum_sizes(m):
            generator = _quantum_generator(key, qi)
            endpoints = lookup(generator.random(2 * count))
            block = np.empty((count, 2), dtype=np.int64)
            block[:, 0] = endpoints[:count]
            block[:, 1] = endpoints[count:]
            yield block

    return _reblock(quanta(), block_edges)


def stream_rmat_edges(
    scale: int,
    m: int,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
    block_edges: int = 1 << 17,
) -> Iterator[np.ndarray]:
    """R-MAT graph stream on ``n = 2**scale`` vertices: each candidate
    edge picks one adjacency-matrix quadrant per bit level with
    probabilities ``(a, b, c, d = 1 - a - b - c)`` — one uniform per
    level decides both endpoint bits jointly (the classic Kronecker
    recursion, no noise smoothing).  Yields ``(k, 2)`` int64 blocks.
    """
    if scale < 0:
        raise ValueError("scale must be non-negative")
    if m < 0:
        raise ValueError("m must be non-negative")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0.0:
        raise ValueError("quadrant probabilities must be non-negative")
    key = _stream_key(
        seed, [_RMAT_TAG, scale, m, hash(float(a)), hash(float(b)), hash(float(c))]
    )

    def quanta() -> Iterator[np.ndarray]:
        for qi, count in _quantum_sizes(m):
            generator = _quantum_generator(key, qi)
            u = np.zeros(count, dtype=np.int64)
            v = np.zeros(count, dtype=np.int64)
            for _level in range(scale):
                r = generator.random(count)
                # quadrant: [0,a) → (0,0), [a,a+b) → (0,1),
                #           [a+b,a+b+c) → (1,0), rest → (1,1)
                u_bit = r >= a + b
                v_bit = ((r >= a) & (r < a + b)) | (r >= a + b + c)
                u = (u << 1) | u_bit
                v = (v << 1) | v_bit
            yield np.stack([u, v], axis=1)

    return _reblock(quanta(), block_edges)


def stream_random_regular_edges(
    n: int,
    degree: int,
    *,
    seed: int = 0,
    block_edges: int = 1 << 17,
) -> Iterator[np.ndarray]:
    """Pairing-model random regular graph stream: a Philox permutation
    of the ``n * degree`` stubs, paired consecutively.  Yields ``(k, 2)``
    int64 blocks.

    The symmetrized simple graph is *near*-regular: the pairing model
    produces O(degree^2) expected self-loops/duplicate pairs which the
    compile pass drops (the classic configuration-model construction;
    exact regularity would need rejection, which doesn't stream).  This
    is the one family holding O(n · degree) numpy scratch — a single
    int64 permutation, ~32 MB at n = 10^6, degree = 4 — but still zero
    per-edge Python objects.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if degree < 0 or degree >= n:
        raise ValueError("degree must be in [0, n)")
    if (n * degree) % 2:
        raise ValueError("n * degree must be even")
    key = _stream_key(seed, [_REGULAR_TAG, n, degree])

    def quanta() -> Iterator[np.ndarray]:
        generator = _quantum_generator(key, 0)
        stubs = generator.permutation(n * degree) // degree
        yield stubs.reshape(-1, 2)

    return _reblock(quanta(), block_edges)


def materialize_edges(blocks: Iterator[np.ndarray]) -> np.ndarray:
    """Concatenate an edge-block stream into one ``(total, 2)`` int64
    array — test/inspection helper; defeats the point at 10^6 nodes."""
    parts = [np.asarray(block, dtype=np.int64).reshape(-1, 2) for block in blocks]
    if not parts:
        return np.empty((0, 2), dtype=np.int64)
    return parts[0] if len(parts) == 1 else np.concatenate(parts)
