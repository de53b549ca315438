"""The columnar message plane: typed payload columns over the CSR topology.

The object plane (:mod:`repro.congest.runtime.scheduler`) materializes
every round's traffic as per-vertex dicts of
:class:`~repro.congest.message.Message` objects — flexible, but each
message costs dict writes, payload sizing, and Python-level inbox
iteration.  The algorithms this repository actually benchmarks exchange
*small fixed-width numeric payloads* (ids, colors, levels, coin flips) —
or, for the Lemma 2.2/2.5 gathering routers, *ragged integer sequences*
(walk-token lists, schedule descriptions) typed as
:class:`~repro.congest.message.VarColumn` fields over a shared payload
pool.  The columnar plane exploits that:

* an algorithm declares a typed schema
  (:class:`~repro.congest.message.ColumnarSpec`, e.g.
  ``(("kind", uint8), ("value", uint32))``) and is written as a
  *round-vectorized* program (:class:`ColumnarAlgorithm`): one
  ``on_round(ctx)`` call per round for the whole graph, not one per
  vertex;
* emission is ``ctx.emit_columns(senders, **fields)`` (broadcast over the
  compiled CSR neighbour segments) or
  ``ctx.emit_columns(senders, receivers, **fields)`` (unicast) — numpy
  arrays in, no per-message Python objects;
* variable-width fields emit through ``ctx.emit_var(senders[, receivers],
  name=(pool, lengths))``: each message's ragged sequence is one segment
  of a shared int64 pool, fanned out / permuted / delivered by CSR
  scatters (:func:`_ragged_gather`) and consumed per vertex by the
  zero-copy :meth:`ColumnarContext.gather_var`;
* the engine delivers the entire round as structured columns laid out
  over the CSR topology: a sender column, one column per payload field,
  and segment offsets per receiver (``inbox.indptr``) — the *per-vertex
  numpy inboxes* are slices of those global arrays
  (:meth:`ColumnarInbox.for_vertex`);
* per-round metric accounting (message count, ``deg × bits``, peak edge
  load) is computed as array reductions over the same columns, with the
  bit-sizing rule shared with :func:`~repro.congest.message.bits_for_payload`
  so the counters stay byte-identical to the object plane;
* inbox consumption is :meth:`ColumnarContext.reduce_neighbors`
  (``min | max | sum | argmin | argmax | any | count``) — single
  segmented-numpy operations, so MIS coin comparison, Luby priority
  argmin, coloring conflict detection, and BFS level relaxation never
  iterate an inbox in Python.

Differential reference
----------------------
:func:`execute_columnar` has a ``reference=True`` mode — the *dict plane*
for columnar programs.  It runs the same round-vectorized algorithm but
expands every emission into per-message Python
:class:`~repro.congest.message.Message` objects (payload = the field
tuple, or the bare value for single-field specs), validates and counts
each one exactly as the seed executor would (``bits_for_payload``
sizing, per-message ``record_message``/``record_edge_load``), and
rebuilds the next inbox the slow way.  ``tests/test_columnar.py`` and
``tests/test_delivery_soak.py`` assert the fast path byte-identical to
it — and the ported classics additionally byte-identical to their
object-plane originals (``LubyMISAlgorithm`` et al.) end to end.

Ordering contract: a round's inbox arrays are grouped by receiver
(CSR-segment order) and, within a receiver, ordered by emission order —
a stable sort of the round's traffic by receiver.  Dense broadcast
rounds reach the same order without sorting, by filtering a transpose
cached per topology (:func:`_deliver_broadcast`).  All reductions except
``argmin``/``argmax`` are order-insensitive; the arg reductions break
ties toward the earliest emitted message.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from repro.congest.message import ColumnarSpec, Message, VarColumn
from repro.congest.metrics import ScalarAccountant
from repro.congest.runtime.rng import (
    ExactRng,
    RngPlan,
    rng_state_for,
    supports_vectorized,
)
from repro.congest.runtime.scheduler import run_rounds

_INT64_MAX = np.iinfo(np.int64).max
_INT64_MIN = np.iinfo(np.int64).min


def _cumsum0(counts: np.ndarray) -> np.ndarray:
    out = np.empty(len(counts) + 1, dtype=np.int64)
    out[0] = 0
    np.cumsum(counts, out=out[1:])
    return out


def _ragged_gather(pool, starts, lengths):
    """Concatenate the pool segments ``[starts[i], starts[i]+lengths[i])``
    — the CSR scatter every variable-width delivery step reduces to
    (broadcast fan-out, receiver-sort permutation, masked gathers).
    Pure array ops: one arange minus a repeat of the output offsets plus
    a repeat of the input offsets."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=pool.dtype)
    out_starts = _cumsum0(lengths)
    idx = (
        np.arange(total, dtype=np.int64)
        - np.repeat(out_starts[:-1], lengths)
        + np.repeat(starts, lengths)
    )
    return pool[idx]


def _segment_reduce(values, indptr, ufunc, empty, out_dtype=None):
    """Reduce ``values`` over the segments ``[indptr[i], indptr[i+1])``.

    Handles empty segments (they get ``empty``), which bare
    ``ufunc.reduceat`` silently corrupts: passing only the non-empty
    starts makes each reduceat slice span exactly one segment, because
    empty segments contribute no elements between consecutive starts.
    """
    n = len(indptr) - 1
    counts = indptr[1:] - indptr[:-1]
    nonempty = counts > 0
    out = np.full(n, empty, dtype=out_dtype if out_dtype is not None else values.dtype)
    if values.size and nonempty.any():
        out[nonempty] = ufunc.reduceat(values, indptr[:-1][nonempty])
    return out


class ColumnarInbox:
    """One round's delivered traffic as receiver-segmented columns.

    ``senders[indptr[i]:indptr[i+1]]`` are the dense sender ids of vertex
    ``i``'s messages; each payload field is a parallel column in the
    spec's declared dtype.  This *is* the per-vertex numpy inbox — a
    vertex's view is a zero-copy slice (:meth:`for_vertex`), and whole
    rounds reduce in one segmented op (:meth:`reduce`).

    Variable-width fields (:class:`~repro.congest.message.VarColumn`)
    are stored ragged: ``var_pools[name]`` is one shared int64 payload
    pool for the whole round and ``var_indptr[name]`` the per-*message*
    offset index into it (message ``k``'s sequence is
    ``pool[var_indptr[k]:var_indptr[k+1]]``).  Because messages are
    receiver-sorted, every vertex's — and, on a grid, every trial
    block's — var payload occupies one contiguous pool segment, which is
    what makes :meth:`gather_var` a zero-copy re-index.
    """

    __slots__ = (
        "n", "senders", "indptr", "columns", "var_pools", "var_indptr",
        "_receivers",
    )

    def __init__(self, n, senders, indptr, columns, var_pools=None,
                 var_indptr=None) -> None:
        self.n = n
        self.senders = senders
        self.indptr = indptr
        self.columns = columns
        self.var_pools = {} if var_pools is None else var_pools
        self.var_indptr = {} if var_indptr is None else var_indptr
        self._receivers = None

    @classmethod
    def empty(cls, n: int, spec: ColumnarSpec,
              index_dtype=np.int64) -> "ColumnarInbox":
        """A round with no traffic.  ``senders`` carries the topology's
        ``index_dtype`` — the dtype non-empty inboxes inherit from the
        emissions — so narrowed runs see one sender dtype every round."""
        return cls(
            n,
            np.empty(0, dtype=index_dtype),
            np.zeros(n + 1, dtype=np.int64),
            {name: np.empty(0, dtype=dtype) for name, dtype in spec.fields},
            {name: np.empty(0, dtype=np.int64) for name in spec.var_names},
            {name: np.zeros(1, dtype=np.int64) for name in spec.var_names},
        )

    def __len__(self) -> int:
        return len(self.senders)

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    @property
    def counts(self) -> np.ndarray:
        """Per-vertex message counts (``np.diff(indptr)``)."""
        return self.indptr[1:] - self.indptr[:-1]

    def receivers(self) -> np.ndarray:
        """Per-message receiver ids (the segment each message lies in)."""
        if self._receivers is None:
            self._receivers = np.repeat(
                np.arange(self.n, dtype=np.int64), self.counts
            )
        return self._receivers

    def for_vertex(self, i: int) -> dict:
        """Vertex ``i``'s inbox as zero-copy array slices.  Var fields
        appear as a list of per-message value arrays."""
        start, stop = int(self.indptr[i]), int(self.indptr[i + 1])
        view = {"senders": self.senders[start:stop]}
        for name, column in self.columns.items():
            view[name] = column[start:stop]
        for name, pool in self.var_pools.items():
            indptr = self.var_indptr[name]
            view[name] = [
                pool[int(indptr[k]):int(indptr[k + 1])]
                for k in range(start, stop)
            ]
        return view

    def var(self, name: str) -> tuple:
        """Var field ``name`` as ``(pool, per-message indptr)`` — message
        ``k``'s sequence is ``pool[indptr[k]:indptr[k+1]]``."""
        return self.var_pools[name], self.var_indptr[name]

    def var_lengths(self, name: str) -> np.ndarray:
        """Per-message sequence lengths of var field ``name``."""
        indptr = self.var_indptr[name]
        return indptr[1:] - indptr[:-1]

    def gather_var(self, name: str, where=None) -> tuple:
        """Per-vertex concatenation of the received var sequences.

        Returns ``(pool, vertex_indptr)``: vertex ``i``'s received
        values, concatenated in message (emission) order, are
        ``pool[vertex_indptr[i]:vertex_indptr[i+1]]``.  With no mask
        this is **zero-copy** — messages are already receiver-sorted, so
        the vertex boundaries are just the message-level offset index
        sampled at each vertex's message boundaries.  ``where`` is an
        optional per-message bool mask; masked-out messages contribute
        no values (this path gathers).

        >>> inbox = ColumnarInbox(
        ...     2,
        ...     np.array([1], dtype=np.int64),      # one message, to 0
        ...     np.array([0, 1, 1], dtype=np.int64),
        ...     {},
        ...     {"ids": np.array([4, 5], dtype=np.int64)},
        ...     {"ids": np.array([0, 2], dtype=np.int64)},
        ... )
        >>> pool, vertex_indptr = inbox.gather_var("ids")
        >>> pool.tolist(), vertex_indptr.tolist()
        ([4, 5], [0, 2, 2])
        """
        pool = self.var_pools[name]
        indptr = self.var_indptr[name]
        if where is None:
            return pool, indptr[self.indptr]
        where = np.asarray(where, dtype=bool)
        keep = np.flatnonzero(where)
        lengths = (indptr[1:] - indptr[:-1])[keep]
        selected = _ragged_gather(pool, indptr[:-1][keep], lengths)
        per_vertex = np.zeros(self.n, dtype=np.int64)
        np.add.at(per_vertex, self.receivers()[keep], lengths)
        return selected, _cumsum0(per_vertex)

    def reduce(self, op, values=None, where=None, empty=None):
        """One segmented reduction over every vertex's inbox at once.

        Parameters
        ----------
        op:
            ``"min" | "max" | "sum" | "argmin" | "argmax" | "any" |
            "count"``.
        values:
            A field name, or a per-message array (e.g. a derived
            combined key).  Unused for ``"count"``.
        where:
            Optional per-message bool mask; masked-out messages are
            invisible to the reduction.
        empty:
            Value for vertices with no (selected) messages.  Defaults:
            ``sum`` → 0, ``any`` → False, ``min`` → int64 max,
            ``max`` → int64 min, ``argmin``/``argmax`` → -1.

        ``argmin``/``argmax`` return *message indices into this inbox*
        (usable to index ``senders`` or any column), -1 where empty;
        ties break toward the earliest emitted message.

        >>> inbox = ColumnarInbox(
        ...     2,
        ...     np.array([1, 1], dtype=np.int64),   # vertex 0 got 2 msgs
        ...     np.array([0, 2, 2], dtype=np.int64),
        ...     {"value": np.array([5, 3], dtype=np.int32)},
        ... )
        >>> inbox.reduce("min", "value", empty=-1).tolist()
        [3, -1]
        >>> inbox.reduce("count").tolist()
        [2, 0]
        """
        n = self.n
        indptr = self.indptr
        original = None
        if where is not None:
            where = np.asarray(where, dtype=bool)
            selected = self.receivers()[where]
            indptr = _cumsum0(np.bincount(selected, minlength=n))
            original = np.flatnonzero(where)
        if op == "count":
            return indptr[1:] - indptr[:-1]
        if isinstance(values, str):
            values = self.columns[values]
        values = np.asarray(values)
        if original is not None:
            values = values[original]
        if op == "any":
            out = _segment_reduce(
                values.astype(bool), indptr, np.logical_or,
                False if empty is None else empty, np.bool_,
            )
            return out
        promoted = values.astype(np.int64) if values.dtype != np.int64 else values
        if op == "sum":
            return _segment_reduce(
                promoted, indptr, np.add, 0 if empty is None else empty
            )
        if op == "min":
            return _segment_reduce(
                promoted, indptr, np.minimum,
                _INT64_MAX if empty is None else empty,
            )
        if op == "max":
            return _segment_reduce(
                promoted, indptr, np.maximum,
                _INT64_MIN if empty is None else empty,
            )
        if op in ("argmin", "argmax"):
            ufunc = np.minimum if op == "argmin" else np.maximum
            sentinel = _INT64_MAX if op == "argmin" else _INT64_MIN
            extreme = _segment_reduce(promoted, indptr, ufunc, sentinel)
            count = len(promoted)
            if count == 0:
                return np.full(n, -1 if empty is None else empty, dtype=np.int64)
            seg = (
                self.receivers() if original is None
                else self.receivers()[original]
            )
            hit = promoted == extreme[seg]
            candidate = np.where(hit, np.arange(count, dtype=np.int64), count)
            arg = _segment_reduce(candidate, indptr, np.minimum, count)
            missing = arg >= count
            if original is not None:
                arg = np.where(missing, 0, arg)
                arg = original[arg]
            arg = np.where(missing, -1 if empty is None else empty, arg)
            return arg
        raise ValueError(f"unknown reduction {op!r}")


class ColumnarContext:
    """The whole-graph view handed to a :class:`ColumnarAlgorithm`.

    Attributes
    ----------
    n, vertices:
        Vertex count and the dense-index → vertex-id table (``graph.nodes``
        order, like the object plane's output keying).
    indptr, indices, degrees:
        The compiled CSR adjacency (``int64``); ``degrees`` is the numpy
        degree table.
    repr_rank:
        Per dense index, the vertex's rank in ``sorted(vertices, key=repr)``
        — the vectorized stand-in for the object plane's
        ``repr``-comparison tie-breaks (identical outcomes whenever vertex
        reprs are distinct, which holds for every graph in this
        repository).
    inputs:
        Per-vertex inputs aligned to dense indices (``None`` where absent).
    rng:
        The run's draw state (:mod:`repro.congest.runtime.rng`): an
        :class:`~repro.congest.runtime.rng.ExactRng` over the inputs by
        default (byte-identical per-vertex ``random.Random`` streams),
        or the vectorized Philox state when the run opted into
        ``rng="vectorized"``.  Algorithms branch on ``ctx.rng.vectorized``.
    round_number, inbox, halted:
        Current round (1-based), this round's :class:`ColumnarInbox`, and
        the halt mask (read it freely; mutate only via :meth:`halt`).

    >>> import networkx as nx
    >>> from repro.congest.runtime.compile import compile_topology
    >>> topology = compile_topology(nx.path_graph(3))
    >>> ctx = ColumnarContext(
    ...     topology, topology.columnar_plane(),
    ...     ColumnarSpec(("level", np.int64)), [None] * 3)
    >>> ctx.index_of(2)
    2
    >>> ctx.halt(np.array([0, 2]))
    >>> ctx.halted.tolist()
    [True, False, True]
    """

    __slots__ = (
        "n", "vertices", "indptr", "indices", "degrees", "repr_rank",
        "inputs", "rng", "round_number", "inbox", "halted",
        "_index_of", "_index_dtype", "_spec", "_emissions", "_halted_count",
    )

    def __init__(self, topology, plane, spec, inputs_list, rng=None) -> None:
        self.n = topology.n
        self.vertices = topology.vertices
        self.indptr = topology.indptr
        self.indices = topology.indices
        self._index_dtype = topology.indices.dtype
        self.degrees = plane.degrees
        self.repr_rank = plane.repr_rank
        self.inputs = inputs_list
        self.rng = ExactRng(inputs_list) if rng is None else rng
        self.round_number = 0
        self.inbox = ColumnarInbox.empty(topology.n, spec, self._index_dtype)
        self.halted = np.zeros(topology.n, dtype=bool)
        self._index_of = topology.index_of
        self._spec = spec
        self._emissions: list = []
        self._halted_count = 0

    def index_of(self, vertex: Any) -> int:
        """Dense index of a vertex id."""
        return self._index_of[vertex]

    def halt(self, which) -> None:
        """Halt vertices (bool mask over ``n``, or dense indices).  The
        run ends when every vertex has halted.  Transitions are one-way."""
        which = np.asarray(which)
        if which.dtype == np.bool_:
            self.halted |= which
        else:
            self.halted[which] = True
        self._halted_count = int(np.count_nonzero(self.halted))

    def reduce_neighbors(self, op, values=None, where=None, empty=None):
        """Segmented reduction over this round's inbox — see
        :meth:`ColumnarInbox.reduce`."""
        return self.inbox.reduce(op, values, where=where, empty=empty)

    def gather_var(self, name, where=None):
        """Per-vertex concatenation of this round's received var-field
        sequences — see :meth:`ColumnarInbox.gather_var`."""
        return self.inbox.gather_var(name, where=where)

    # -- emission ------------------------------------------------------------
    def emit_columns(self, senders, receivers=None, **fields) -> None:
        """Queue this round's outgoing messages as columns.

        ``senders`` is a bool mask over all vertices or an array of dense
        indices.  With ``receivers=None`` every sender broadcasts one
        message to each of its neighbours (field values are per *sender*
        and fan out over the CSR segment); with ``receivers`` given (an
        array aligned with ``senders``) each (sender, receiver) pair is
        one unicast message and field values are per *message*.  Fields
        must match the algorithm's :class:`ColumnarSpec` exactly; values
        are range-checked against the declared dtypes here — silent
        overflow truncation is rejected at emit time.  Specs with
        variable-width fields must emit through :meth:`emit_var`.

        >>> import networkx as nx
        >>> from repro.congest.runtime.compile import compile_topology
        >>> topology = compile_topology(nx.path_graph(3))
        >>> ctx = ColumnarContext(
        ...     topology, topology.columnar_plane(),
        ...     ColumnarSpec(("level", np.int64)), [None] * 3)
        >>> ctx.emit_columns(np.array([1]), level=7)  # 1 broadcasts 7
        >>> len(ctx._emissions)
        1
        """
        if self._spec.var_names:
            raise ValueError(
                "spec declares variable-width fields "
                f"{list(self._spec.var_names)}; emit with ctx.emit_var"
            )
        self._emit(senders, receivers, fields)

    def emit_var(self, senders, receivers=None, **fields) -> None:
        """Queue outgoing messages carrying variable-width fields.

        Same sender/receiver semantics as :meth:`emit_columns`.  Each
        var field's value is either ``(pool, lengths)`` — a 2-tuple of
        *numpy arrays*: a flat int64 value pool plus one sequence length
        per sender/message — or a plain list of per-row sequences
        (converted to that form; a tuple of non-array sequences counts
        as per-row sequences, not as a pool).  On a
        broadcast, a sender's sequence fans out to each of its
        neighbours; fixed fields, if the spec declares any, are passed
        alongside exactly as in :meth:`emit_columns`.

        >>> import networkx as nx
        >>> from repro.congest.runtime.compile import compile_topology
        >>> topology = compile_topology(nx.path_graph(3))
        >>> ctx = ColumnarContext(
        ...     topology, topology.columnar_plane(),
        ...     ColumnarSpec(VarColumn("tokens")), [None] * 3)
        >>> ctx.emit_var(  # vertex 1 unicasts (9, 9) to 0 and () to 2
        ...     np.array([1, 1]), np.array([0, 2]), tokens=[[9, 9], []])
        >>> len(ctx._emissions)
        1
        """
        self._emit(senders, receivers, fields)

    def _emit(self, senders, receivers, fields) -> None:
        spec = self._spec
        senders = np.asarray(senders)
        if senders.dtype == np.bool_:
            if senders.shape != (self.n,):
                raise ValueError(
                    "boolean sender mask must cover all vertices"
                )
            senders = np.flatnonzero(senders)
        else:
            senders = senders.astype(np.int64, copy=False)
            if senders.size and (
                int(senders.min()) < 0 or int(senders.max()) >= self.n
            ):
                raise ValueError("sender index out of range")
        # Dtype propagation: emission index columns adopt the topology's
        # (possibly int32-narrowed) index dtype, so inboxes, receiver
        # sorts, and segmented reductions downstream stay narrow instead
        # of silently upcasting.  Validation above ran in int64, so the
        # cast is range-safe.
        senders = senders.astype(self._index_dtype, copy=False)
        if senders.size and bool(self.halted[senders].any()):
            raise ValueError("columnar emission from a halted vertex")
        if receivers is not None:
            receivers = np.asarray(receivers).astype(np.int64, copy=False)
            if receivers.shape != senders.shape:
                raise ValueError(
                    "receivers must align one-to-one with senders"
                )
            if receivers.size and (
                int(receivers.min()) < 0 or int(receivers.max()) >= self.n
            ):
                raise ValueError("receiver index out of range")
            receivers = receivers.astype(self._index_dtype, copy=False)
        declared = set(spec.names) | set(spec.var_names)
        unknown = set(fields) - declared
        missing = declared - set(fields)
        if unknown or missing:
            raise ValueError(
                f"emission fields {sorted(fields)} do not match spec "
                f"fields {sorted(declared)}"
            )
        count = len(senders)
        if count == 0:
            return
        columns = {}
        for name in spec.names:
            value = np.asarray(fields[name])
            if value.dtype.kind not in "iub":
                raise TypeError(
                    f"columnar field {name!r}: values must be integers or "
                    f"bools, got dtype {value.dtype}"
                )
            value = value.astype(np.int64, copy=False)
            if value.ndim == 0:
                value = np.full(count, int(value), dtype=np.int64)
            elif len(value) != count:
                raise ValueError(
                    f"columnar field {name!r}: expected {count} values, "
                    f"got {len(value)}"
                )
            spec.check_range(name, value)
            columns[name] = value
        var_data = {}
        for name in spec.var_names:
            value = fields[name]
            # The (pool, lengths) fast-path form must be a pair of numpy
            # arrays: a 2-tuple of plain sequences is two per-row
            # sequences (a coincidentally balanced one would otherwise
            # be silently misread as pool form).
            if (
                isinstance(value, tuple) and len(value) == 2
                and isinstance(value[0], np.ndarray)
                and isinstance(value[1], np.ndarray)
            ):
                pool, lengths = value
            else:
                rows = [np.asarray(row, dtype=np.int64).ravel()
                        for row in value]
                lengths = np.array([len(row) for row in rows],
                                   dtype=np.int64)
                pool = (np.concatenate(rows) if rows
                        else np.empty(0, dtype=np.int64))
            pool = np.asarray(pool)
            if pool.dtype.kind not in "iub":
                raise TypeError(
                    f"columnar var field {name!r}: values must be "
                    f"integers or bools, got dtype {pool.dtype}"
                )
            pool = pool.astype(np.int64, copy=False).ravel()
            lengths = np.asarray(lengths).astype(np.int64, copy=False)
            if len(lengths) != count:
                raise ValueError(
                    f"columnar var field {name!r}: expected {count} "
                    f"sequence lengths, got {len(lengths)}"
                )
            if lengths.size and int(lengths.min()) < 0:
                raise ValueError(
                    f"columnar var field {name!r}: negative sequence "
                    f"length"
                )
            if int(lengths.sum()) != len(pool):
                raise ValueError(
                    f"columnar var field {name!r}: pool holds "
                    f"{len(pool)} values but lengths sum to "
                    f"{int(lengths.sum())}"
                )
            var_data[name] = (pool, lengths)
        self._emissions.append((senders, receivers, columns, var_data))


class ColumnarAlgorithm:
    """Base class for round-vectorized algorithms on the columnar plane.

    Subclasses set ``spec`` (a :class:`ColumnarSpec`) and implement:

    * :meth:`setup` — allocate per-vertex state arrays on ``self``;
    * :meth:`on_round` — one call per round for the *whole graph*:
      consume ``ctx.inbox`` (via :meth:`ColumnarContext.reduce_neighbors`),
      update state, emit via :meth:`ColumnarContext.emit_columns`, and
      :meth:`ColumnarContext.halt` finished vertices;
    * :meth:`outputs` — the per-vertex outputs, aligned to dense indices.

    Like the object plane, configured subclasses override :meth:`spawn`
    so each run gets a fresh instance.  ``Network.run`` resolves the
    plane through the runtime registry via :attr:`plane_kind`, so a
    columnar algorithm drops into every existing harness (``run_many``
    sweeps, the CLI, benchmarks) unchanged.

    Plane capabilities
    ------------------
    ``plane_kind = "columnar"`` is what the runtime registry
    (:mod:`repro.congest.runtime.planes`) keys on — no ``isinstance``
    dispatch anywhere.  ``grid_safe`` opts a subclass into **trial-major
    grid batching** (:mod:`repro.congest.runtime.batch`): the whole
    program then also runs as one block-diagonal ``(T·n)``-row grid over
    T independent trials.  A subclass is grid-safe when its ``setup`` /
    ``on_round`` / ``outputs`` touch vertices only through the context's
    arrays (``ctx.inputs``, ``ctx.degrees``, ``ctx.repr_rank``, masks
    over ``ctx.n``, fancy-indexable ``ctx.index_of`` results) — i.e. it
    never assumes a vertex id resolves to exactly one dense row — AND
    every emission is gated on ``~ctx.halted`` (e.g. via a
    ``stepped = ~ctx.halted`` mask, as all ports here do), never on a
    private liveness mask alone.  ``rng_modes`` declares which draw
    disciplines the subclass implements: every algorithm supports the
    byte-identity default ``"exact"``; randomized ports that also read
    vectorized Philox columns (via ``ctx.rng.randrange_rows`` /
    ``ctx.rng.uniform_rows``) add ``"vectorized"`` — see
    :mod:`repro.congest.runtime.rng`.  The second condition is what lets the
    grid executor *freeze* a trial that exceeded its per-trial round cap
    by halting its rows: an algorithm that keeps emitting from
    externally-halted rows would raise the halted-sender error instead
    of the serial run's round-cap error.  It is *not* grid-safe when
    per-vertex inputs embed vertex ids that are resolved row-by-row
    (see ``ColumnarConvergecastSum``).
    """

    spec: ColumnarSpec
    plane_kind = "columnar"
    grid_safe = False
    rng_modes = ("exact",)

    def spawn(self) -> "ColumnarAlgorithm":
        return type(self)()

    def setup(self, ctx: ColumnarContext) -> None:
        """Allocate state.  Called once, before round 1."""

    def on_round(self, ctx: ColumnarContext) -> None:
        raise NotImplementedError

    def outputs(self, ctx: ColumnarContext) -> list:
        return [None] * ctx.n


def _stable_receiver_order(receivers: np.ndarray, n: int) -> np.ndarray:
    """Stable argsort of receiver ids ``< n`` — the receiver sort behind
    every inbox (the ordering contract of the module docstring) and
    behind each plane's cached :func:`broadcast_transpose`.

    numpy's stable sort is an O(M) radix sort for ≤16-bit ints but a
    comparison sort for wider types (~9× slower at these sizes), so
    graphs up to 2**16 vertices sort 16-bit keys and larger ones (grids,
    streamed topologies) LSD-compose two stable 16-bit passes.

    >>> _stable_receiver_order(np.array([2, 0, 2, 1]), 3).tolist()
    [1, 3, 0, 2]
    """
    if n <= 0xFFFF:
        return np.argsort(receivers.astype(np.uint16), kind="stable")
    if n <= 0xFFFFFFFF:
        order = np.argsort(
            (receivers & 0xFFFF).astype(np.uint16), kind="stable"
        )
        high = (receivers >> 16)[order].astype(np.uint16)
        return order[np.argsort(high, kind="stable")]
    return np.argsort(receivers, kind="stable")  # pragma: no cover - > 2**32


def broadcast_transpose(indptr: np.ndarray, indices: np.ndarray) -> tuple:
    """The receiver-sorted full fan-out of a CSR topology.

    If every vertex broadcast once, in ascending order, the round's
    messages stably sorted by receiver would carry the senders
    ``t_senders`` (in the topology's index dtype), receiver ``r``'s
    segment being ``t_senders[t_indptr[r]:t_indptr[r+1]]`` — the
    receivers' in-CSR (int64 offsets; equal to ``indptr`` when the
    topology is symmetric).

    >>> import networkx as nx
    >>> from repro.congest.runtime.compile import compile_topology
    >>> topology = compile_topology(nx.star_graph(2))  # 0-1, 0-2
    >>> t_senders, t_indptr = broadcast_transpose(
    ...     topology.indptr, topology.indices)
    >>> t_senders.tolist(), t_indptr.tolist()
    ([1, 2, 0, 0], [0, 2, 3, 4])
    """
    n = len(indptr) - 1
    degrees = indptr[1:].astype(np.int64) - indptr[:-1]
    senders = np.repeat(np.arange(n, dtype=indices.dtype), degrees)
    t_senders = senders[_stable_receiver_order(indices, n)]
    return t_senders, _cumsum0(np.bincount(indices, minlength=n))


class CompiledDeliveryPlane:
    """Columnar-plane arrays compiled lazily per topology (cached on the
    :class:`~repro.congest.engine.CompiledTopology`, so they share its
    per-graph memoization and invalidation).  The
    :func:`broadcast_transpose` is built on the first round dense enough
    to take :func:`_deliver_broadcast`."""

    __slots__ = (
        "degrees", "edge_senders", "edge_keys", "repr_rank",
        "neighbor_index_sets", "_csr", "_transpose",
    )

    def __init__(self, topology) -> None:
        n = topology.n
        self.degrees = (topology.indptr[1:] - topology.indptr[:-1]).astype(
            np.int64
        )
        self.edge_senders = np.repeat(
            np.arange(n, dtype=np.int64), self.degrees
        )
        # Sorted (sender * n + receiver) keys: vectorized adjacency checks
        # for unicast emissions are one binary search over this table.
        self.edge_keys = np.sort(self.edge_senders * n + topology.indices)
        order = sorted(range(n), key=lambda i: repr(topology.vertices[i]))
        rank = np.empty(n, dtype=np.int64)
        rank[np.asarray(order, dtype=np.int64)] = np.arange(n, dtype=np.int64)
        self.repr_rank = rank
        # Reference-mode adjacency sets over dense indices.
        self.neighbor_index_sets = [
            frozenset(t) for t in topology.neighbor_index_tuples
        ]
        self._csr = (topology.indptr, topology.indices)
        self._transpose = None

    @property
    def broadcast_transpose(self) -> tuple:
        """``(t_senders, t_indptr)`` — see :func:`broadcast_transpose`."""
        transpose = self._transpose
        if transpose is None:
            transpose = self._transpose = broadcast_transpose(*self._csr)
        return transpose


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------
def _raise_bandwidth(topology, sender, receiver, bits, bandwidth_bits):
    from repro.congest.network import BandwidthExceededError

    if not isinstance(bandwidth_bits, int):
        # Per-vertex budget table (grid execution over uneven blocks):
        # the error names the offending sender's own trial budget.
        bandwidth_bits = int(bandwidth_bits[sender])
    raise BandwidthExceededError(
        f"message of {bits} bits from {topology.vertices[sender]!r} to "
        f"{topology.vertices[receiver]!r} exceeds CONGEST bandwidth "
        f"{bandwidth_bits} bits"
    )


def _account_broadcast(topology, senders, bits, deg, limit, bandwidth_bits,
                       acc):
    """Validate and account one broadcast group per *sender*: each of
    ``senders[k]``'s ``deg[k]`` copies costs ``bits[k]``.  Messages are
    sender-major, so the first oversized message is the first copy of
    the first oversized sender with a neighbour; every message of the
    senders before it is accounted before the raise, exactly as the
    reference executor's per-message loop leaves the round.  Zero-degree
    senders send nothing and never raise."""
    cap = limit if isinstance(limit, int) else limit[senders]
    over = (bits > cap) & (deg > 0)
    if over.any():
        bad = int(np.argmax(over))
        if bad:
            acc.add(senders[:bad], bits[:bad], copies=deg[:bad])
        sender = int(senders[bad])
        _raise_bandwidth(
            topology, sender, int(topology.indices[topology.indptr[sender]]),
            int(bits[bad]), bandwidth_bits,
        )
    acc.add(senders, bits, copies=deg)


#: Cost model of the broadcast kernel: :func:`_deliver_broadcast` scans
#: all 2m directed edges; the sort path scans the round's fan-out once
#: per 16-bit radix pass of :func:`_stable_receiver_order` (one pass up
#: to 2**16 vertices, two beyond).  A broadcast takes the kernel once
#: fan-out × passes reaches this share of 2m — the measured crossover
#: (expander grids of 2**15 rows: ~1/4 at one pass; power-law graphs of
#: 2**18 vertices: ~1/8 at two passes).
_TRANSPOSE_SHARE_PER_PASS = 1 / 4


def _deliver_broadcast(topology, plane, spec, senders, columns, deg, limit,
                       bandwidth_bits, acc):
    """Deliver a round that is one fixed-width broadcast group from
    strictly increasing ``senders`` — sort-free, from the plane's cached
    :func:`broadcast_transpose`.

    The round's messages are the full fan-out's messages whose sender is
    in ``senders``, in the same relative order; a stable sort of a
    subsequence is that subsequence of the stable sort.  So the inbox is
    ``t_senders`` filtered by one sender mask: no ``np.repeat`` fan-out
    and no argsort, byte-identical to the sort path.  Each column is the
    senders' values scattered by vertex, then gathered per message.
    """
    n = topology.n
    _account_broadcast(
        topology, senders, spec.bits_of(columns), deg, limit,
        bandwidth_bits, acc,
    )
    t_senders, t_indptr = plane.broadcast_transpose
    mask = np.zeros(n, dtype=bool)
    mask[senders] = True
    keep = mask.take(t_senders)
    # take/compress build what fancy/boolean indexing would, faster on
    # index arrays of 10^6 elements.
    inbox_senders = np.compress(keep, t_senders)
    # Kept-message prefix counts sampled at the in-CSR offsets are the
    # inbox offsets.  They count at most 2m, which the index dtype holds
    # (narrowing requires it), and int32 sums run ~2x faster.
    kept = np.empty(len(keep) + 1, dtype=t_senders.dtype)
    kept[0] = 0
    np.cumsum(keep, dtype=t_senders.dtype, out=kept[1:])
    inbox_indptr = kept.take(t_indptr).astype(np.int64, copy=False)
    inbox_columns = {}
    for name, dtype in spec.fields:
        full = np.empty(n, dtype=dtype)
        full[senders] = columns[name]
        inbox_columns[name] = full.take(inbox_senders)
    return ColumnarInbox(n, inbox_senders, inbox_indptr, inbox_columns)


def _deliver_fast(topology, plane, spec, groups, limit, bandwidth_bits, acc,
                  fault_state=None, round_number=0):
    """Validate, account, and deliver one round's emissions — pure array
    ops, zero per-message Python objects.  On a validation failure the
    messages validated before the offending one are accounted (matching
    the reference executor's partial-round counting) before the raise.

    ``acc`` is an accountant (``add(senders, bits, copies=None)`` — e.g.
    :class:`~repro.congest.metrics.ScalarAccountant`, or the per-trial
    grid accountant).  ``limit``/``bandwidth_bits`` are scalars for a
    single run, or per-*vertex* int64 tables for grid execution (each
    trial block carries its own budget).

    A round of exactly one fixed-width broadcast group from strictly
    increasing senders, with no fault plan and a fan-out large enough
    for the ``_TRANSPOSE_SHARE_PER_PASS`` cost model, takes the
    sort-free :func:`_deliver_broadcast`.  Every other round fans out,
    validates, and stably sorts its traffic by receiver.

    ``fault_state`` optionally detours the round's validated traffic
    through :meth:`~repro.congest.runtime.faults.FaultState.columnar_step`
    (drop/dup/delay as mask/repeat/delay-bucket array ops, merged with
    matured delayed batches) between accounting and the receiver sort —
    sent messages are counted, delivery is what the adversary permits.
    """
    n = topology.n
    names = spec.names
    var_names = spec.var_names
    degrees = plane.degrees
    if (
        fault_state is None and len(groups) == 1 and groups[0][1] is None
        and not var_names
    ):
        senders, _receivers, columns, _var = groups[0]
        deg = degrees[senders]
        total = int(deg.sum())
        passes = 1 if n <= 0xFFFF else 2
        if (
            total and total * passes
            >= _TRANSPOSE_SHARE_PER_PASS * len(topology.indices)
            and bool((senders[1:] > senders[:-1]).all())
        ):
            return _deliver_broadcast(
                topology, plane, spec, senders, columns, deg, limit,
                bandwidth_bits, acc,
            )
    scalar_limit = isinstance(limit, int)
    senders_parts: list = []
    receivers_parts: list = []
    column_parts: dict = {name: [] for name in names}
    var_pool_parts: dict = {name: [] for name in var_names}
    var_len_parts: dict = {name: [] for name in var_names}
    indptr = topology.indptr
    indices = topology.indices
    for senders, receivers, columns, var_data in groups:
        if receivers is None:
            # Broadcast: fan each sender's field values over its CSR
            # neighbour segment.  Adjacency holds by construction; the
            # copies of one sender share one size, so validation and
            # accounting run per sender.
            deg = degrees[senders]
            if not deg.any():
                continue
            message_receivers = _ragged_gather(indices, indptr[senders], deg)
            message_senders = np.repeat(senders, deg)
            message_columns = {
                name: np.repeat(columns[name], deg) for name in names
            }
            # Var fields fan out as ragged segments: repeat each
            # sender's (start, length) per neighbour, then one CSR
            # scatter materializes every copy's values.
            message_var = {}
            per_sender_var = None
            if var_names:
                per_sender_var = {}
                for name in var_names:
                    pool, lengths = var_data[name]
                    starts = _cumsum0(lengths)
                    msg_lengths = np.repeat(lengths, deg)
                    msg_starts = np.repeat(starts[:-1], deg)
                    message_var[name] = (
                        _ragged_gather(pool, msg_starts, msg_lengths),
                        msg_lengths,
                    )
                    per_sender_var[name] = (pool, starts)
            _account_broadcast(
                topology, senders, spec.bits_of(columns, per_sender_var),
                deg, limit, bandwidth_bits, acc,
            )
        else:
            # Unicast: one binary search validates every (sender,
            # receiver) pair against the sorted edge-key table.
            message_senders = senders
            message_receivers = receivers
            message_columns = columns
            message_var = {name: var_data[name] for name in var_names}
            per_message_var = (
                {
                    name: (pool, _cumsum0(lengths))
                    for name, (pool, lengths) in message_var.items()
                }
                if var_names else None
            )
            bits = spec.bits_of(message_columns, per_message_var)
            # Edge keys are always built in int64: with a narrowed
            # topology the indices are int32 and ``sender * n`` would
            # overflow under NEP 50 instead of promoting.
            keys = (
                message_senders.astype(np.int64, copy=False) * n
                + message_receivers
            )
            if plane.edge_keys.size:
                positions = np.searchsorted(plane.edge_keys, keys)
                positions = np.minimum(positions, plane.edge_keys.size - 1)
                ok = plane.edge_keys[positions] == keys
            else:
                ok = np.zeros(len(keys), dtype=bool)
            cap = limit if scalar_limit else limit[message_senders]
            over = bits > cap
            bad_adjacency = int(np.argmin(ok)) if not ok.all() else len(keys)
            bad_bandwidth = int(np.argmax(over)) if over.any() else len(keys)
            if bad_adjacency <= bad_bandwidth and bad_adjacency < len(keys):
                # Per-message validation order is adjacency first: count
                # the fully validated prefix, then raise as the object
                # plane would.
                if bad_adjacency:
                    acc.add(
                        message_senders[:bad_adjacency],
                        bits[:bad_adjacency],
                    )
                raise ValueError(
                    f"node {topology.vertices[int(message_senders[bad_adjacency])]!r} "
                    f"sent to non-neighbor "
                    f"{topology.vertices[int(message_receivers[bad_adjacency])]!r}"
                )
            if bad_bandwidth < len(keys):
                if bad_bandwidth:
                    acc.add(
                        message_senders[:bad_bandwidth],
                        bits[:bad_bandwidth],
                    )
                _raise_bandwidth(
                    topology, int(message_senders[bad_bandwidth]),
                    int(message_receivers[bad_bandwidth]),
                    int(bits[bad_bandwidth]), bandwidth_bits,
                )
            acc.add(message_senders, bits)
        senders_parts.append(message_senders)
        receivers_parts.append(message_receivers)
        for name in names:
            column_parts[name].append(message_columns[name])
        for name in var_names:
            pool, lengths = message_var[name]
            var_pool_parts[name].append(pool)
            var_len_parts[name].append(lengths)
    if not senders_parts and fault_state is None:
        return ColumnarInbox.empty(n, spec, indices.dtype)
    if senders_parts:
        all_senders = (
            senders_parts[0] if len(senders_parts) == 1
            else np.concatenate(senders_parts)
        )
        all_receivers = (
            receivers_parts[0] if len(receivers_parts) == 1
            else np.concatenate(receivers_parts)
        )
        merged_columns = {}
        for name in names:
            parts = column_parts[name]
            merged_columns[name] = (
                parts[0] if len(parts) == 1 else np.concatenate(parts)
            )
        merged_var = {}
        for name in var_names:
            pools = var_pool_parts[name]
            lens = var_len_parts[name]
            merged_var[name] = (
                pools[0] if len(pools) == 1 else np.concatenate(pools),
                lens[0] if len(lens) == 1 else np.concatenate(lens),
            )
    else:
        # No fresh emissions this round, but a fault plan may still owe
        # matured delayed copies — feed empty fresh arrays through the
        # fate pass instead of early-returning an empty inbox.
        all_senders = np.empty(0, dtype=indices.dtype)
        all_receivers = np.empty(0, dtype=indices.dtype)
        merged_columns = {name: np.empty(0, dtype=np.int64) for name in names}
        merged_var = {
            name: (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
            for name in var_names
        }
    if fault_state is not None:
        all_senders, all_receivers, merged_columns, merged_var = (
            fault_state.columnar_step(
                round_number, all_senders, all_receivers,
                merged_columns, merged_var,
            )
        )
        if not len(all_senders):
            return ColumnarInbox.empty(n, spec, indices.dtype)
    # Stable sort by receiver: CSR-segmented inbox, emission order within
    # each receiver (the ordering contract of the module docstring).
    order = _stable_receiver_order(all_receivers, n)
    inbox_indptr = _cumsum0(np.bincount(all_receivers, minlength=n))
    inbox_columns = {}
    for (name, dtype) in spec.fields:
        merged = merged_columns[name]
        inbox_columns[name] = merged[order].astype(dtype, copy=False)
    var_pools = {}
    var_indptrs = {}
    for name in var_names:
        pool, lengths = merged_var[name]
        # Permute the ragged segments with the receiver sort: the sorted
        # message order's (start, length) pairs drive one CSR scatter.
        sorted_lengths = lengths[order]
        starts = _cumsum0(lengths)[:-1]
        var_pools[name] = _ragged_gather(pool, starts[order], sorted_lengths)
        var_indptrs[name] = _cumsum0(sorted_lengths)
    return ColumnarInbox(
        n, all_senders[order], inbox_indptr, inbox_columns,
        var_pools, var_indptrs,
    )


def _deliver_reference(topology, plane, spec, groups, limit, bandwidth_bits,
                       metrics, fault_state=None, round_number=0):
    """The dict plane for columnar programs: every emission expanded to a
    per-message :class:`Message` (payload = field tuple / bare value),
    validated, sized via ``bits_for_payload``, and counted one message at
    a time — the executable spec the fast path is tested against.

    With a ``fault_state``, validated messages detour through
    :meth:`~repro.congest.runtime.faults.FaultState.object_round` (same
    per-message fate decisions as the fast path's ``columnar_step``)
    before bucketing, so the reference plane reproduces the fast plane's
    faulty deliveries message for message."""
    from repro.congest.network import BandwidthExceededError

    n = topology.n
    names = spec.names
    var_names = spec.var_names
    vertices = topology.vertices
    neighbor_sets = plane.neighbor_index_sets
    buckets: list = [None] * n
    fresh: list | None = [] if fault_state is not None else None
    for senders, receivers, columns, var_data in groups:
        sender_list = senders.tolist()
        value_lists = [columns[name].tolist() for name in names]
        var_lists = {}
        for name in var_names:
            pool, lengths = var_data[name]
            values = pool.tolist()
            offsets = _cumsum0(lengths).tolist()
            var_lists[name] = [
                tuple(values[offsets[k]:offsets[k + 1]])
                for k in range(len(lengths))
            ]
        receiver_list = None if receivers is None else receivers.tolist()
        for k, s in enumerate(sender_list):
            row = tuple(values[k] for values in value_lists)
            var_row = {name: var_lists[name][k] for name in var_names}
            message = Message(spec.payload_of(row, var_row))
            targets = (
                topology.neighbor_index_tuples[s]
                if receiver_list is None else (receiver_list[k],)
            )
            for r in targets:
                if receiver_list is not None and r not in neighbor_sets[s]:
                    raise ValueError(
                        f"node {vertices[s]!r} sent to non-neighbor "
                        f"{vertices[r]!r}"
                    )
                bits = message.bit_size
                if bits > limit:
                    raise BandwidthExceededError(
                        f"message of {bits} bits from {vertices[s]!r} to "
                        f"{vertices[r]!r} exceeds CONGEST bandwidth "
                        f"{bandwidth_bits} bits"
                    )
                metrics.record_message(bits)
                metrics.record_edge_load(bits)
                if fresh is not None:
                    fresh.append((s, r, (row, var_row)))
                    continue
                bucket = buckets[r]
                if bucket is None:
                    bucket = buckets[r] = []
                bucket.append((s, row, var_row))
    if fault_state is not None:
        for s, r, payload in fault_state.object_round(round_number, fresh):
            row, var_row = payload
            bucket = buckets[r]
            if bucket is None:
                bucket = buckets[r] = []
            bucket.append((s, row, var_row))
    sender_out: list = []
    value_out: list = [[] for _ in names]
    var_out: dict = {name: ([], [0]) for name in var_names}
    inbox_indptr = np.empty(n + 1, dtype=np.int64)
    inbox_indptr[0] = 0
    for r in range(n):
        bucket = buckets[r]
        if bucket:
            for s, row, var_row in bucket:
                sender_out.append(s)
                for j, value in enumerate(row):
                    value_out[j].append(value)
                for name in var_names:
                    pool, offsets = var_out[name]
                    pool.extend(var_row[name])
                    offsets.append(len(pool))
        inbox_indptr[r + 1] = len(sender_out)
    inbox_columns = {
        name: np.array(value_out[j], dtype=spec.dtypes[j])
        for j, name in enumerate(names)
    }
    var_pools = {
        name: np.array(var_out[name][0], dtype=np.int64)
        for name in var_names
    }
    var_indptrs = {
        name: np.array(var_out[name][1], dtype=np.int64)
        for name in var_names
    }
    return ColumnarInbox(
        n, np.array(sender_out, dtype=np.int64), inbox_indptr, inbox_columns,
        var_pools, var_indptrs,
    )


def execute_columnar(
    topology,
    algorithm: ColumnarAlgorithm,
    *,
    model: str,
    bandwidth_bits: int,
    metrics,
    max_rounds: int = 10_000,
    inputs: Mapping[Any, Any] | None = None,
    reference: bool = False,
    faults=None,
    rng=None,
) -> dict[Any, Any]:
    """Run a :class:`ColumnarAlgorithm` over a compiled topology.

    Same observable contract as the object-plane executor: outputs keyed
    in ``graph.nodes`` order, ``NetworkMetrics`` counters identical to
    sending the equivalent ``Message`` objects, the same exception types
    and texts on non-neighbour sends / bandwidth violations /
    ``max_rounds`` exhaustion.  ``reference=True`` selects the
    per-message dict plane (see :func:`_deliver_reference`).

    ``faults`` optionally takes a
    :class:`~repro.congest.runtime.faults.FaultPlan`: crashes are drawn
    at the top of each round (a crashed vertex halts before stepping)
    and validated emissions pass through the plan's drop/dup/delay fate
    pass before the receiver sort.  A zero plan is byte-identical to
    ``faults=None``.

    ``rng`` optionally takes an
    :class:`~repro.congest.runtime.rng.RngPlan` (or a mode string):
    ``"exact"`` — the default — keeps the per-vertex ``random.Random``
    streams and is byte-identical to ``rng=None``; ``"vectorized"``
    hands the algorithm counter-based Philox column draws instead,
    which requires the algorithm to declare ``"vectorized"`` in its
    ``rng_modes``.  The draw state is independent of the delivery
    plane, so vectorized runs agree bit-for-bit between
    ``reference=True`` and the fast path.
    """
    spec = getattr(algorithm, "spec", None)
    if not isinstance(spec, ColumnarSpec):
        raise TypeError(
            f"{type(algorithm).__name__}.spec must be a ColumnarSpec"
        )
    plane = topology.columnar_plane()
    instance = algorithm.spawn()
    vertices = topology.vertices
    inputs_list = (
        [None] * topology.n if inputs is None
        else [inputs.get(v) for v in vertices]
    )
    rng_plan = RngPlan.coerce(rng)
    if rng_plan.vectorized and not supports_vectorized(algorithm):
        raise ValueError(
            f"{type(algorithm).__name__} does not support rng mode "
            f"'vectorized': its rng_modes are "
            f"{tuple(getattr(algorithm, 'rng_modes', ('exact',)))}"
        )
    ctx = ColumnarContext(
        topology, plane, spec, inputs_list,
        rng_state_for(rng_plan, inputs_list),
    )
    instance.setup(ctx)
    limit = bandwidth_bits if model == "congest" else (1 << 62)
    acc = ScalarAccountant()  # deferred fast-path counters
    if faults is None:
        fault_state = None
    else:
        from repro.congest.runtime.faults import FaultState

        fault_state = FaultState.for_single(faults, topology)

    def done() -> bool:
        return ctx._halted_count >= ctx.n

    def advance(round_number: int) -> None:
        ctx.round_number = round_number
        if fault_state is not None:
            # Crash-stop draw before the round's compute: a crashed
            # vertex neither steps nor emits from this round on.
            rows = fault_state.crash_step(round_number, ~ctx.halted)
            if rows.size:
                ctx.halt(rows)
        ctx._emissions = []
        instance.on_round(ctx)
        groups = ctx._emissions
        if reference:
            ctx.inbox = _deliver_reference(
                topology, plane, spec, groups, limit, bandwidth_bits,
                metrics, fault_state, round_number,
            )
        else:
            ctx.inbox = _deliver_fast(
                topology, plane, spec, groups, limit, bandwidth_bits, acc,
                fault_state, round_number,
            )

    def flush() -> None:
        acc.flush(metrics)
        if fault_state is not None:
            fault_state.flush(metrics)

    run_rounds(
        metrics=metrics, max_rounds=max_rounds,
        done=done, advance=advance, flush=flush,
    )
    return dict(zip(vertices, instance.outputs(ctx)))
