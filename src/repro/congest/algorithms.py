"""Stock distributed primitives used as building blocks by the paper.

These are genuine message-passing implementations run through the
:class:`~repro.congest.network.Network` executor:

* BFS tree construction from a root (used for intra-cluster aggregation).
* Broadcast from a root along the graph (flooding).
* Convergecast sum over a BFS tree (used for the Barenboim–Elkin degree
  aggregation and the paper's "O(D)-round aggregation via a BFS tree").
* Flood-max leader election (used to pick cluster leaders).
* Cole–Vishkin colour reduction on rooted forests (Step 2 of the
  heavy-stars algorithm, Section 4.1), achieving a proper 3-colouring in
  O(log* n) rounds.

Each primitive has a class (for embedding into larger simulations) and a
convenience function returning ``(result, metrics)``.

Columnar ports
--------------
:class:`ColumnarBFSTree`, :class:`ColumnarFloodValue`, and
:class:`ColumnarConvergecastSum` are round-vectorized ports of the BFS /
flood / convergecast primitives onto the columnar delivery plane
(:mod:`repro.congest.columnar`): level relaxation, parent selection, and
subtree summation run as segmented reductions over typed numpy columns
instead of Python inbox loops, with outputs **and** metrics
byte-identical to the object-plane originals (differentially asserted in
``tests/test_columnar.py``; the flood port requires the flooded value to
be a non-negative integer — the fixed-width shape the columnar plane
types).  :func:`bfs_tree` takes ``plane="columnar"`` to run the ported
implementation through the same wrapper.
"""

from __future__ import annotations

import math
from typing import Any, Hashable, Mapping

import networkx as nx
import numpy as np

from repro.congest.columnar import ColumnarAlgorithm, ColumnarContext
from repro.congest.message import Broadcast, ColumnarSpec, Message, VarColumn
from repro.congest.metrics import NetworkMetrics
from repro.congest.network import Network, NodeAlgorithm, NodeContext
from repro.congest.runtime import variant_for_plane


# ---------------------------------------------------------------------------
# BFS tree
# ---------------------------------------------------------------------------
class BFSTreeAlgorithm(NodeAlgorithm):
    """Build a BFS tree rooted at ``root``: each node outputs (parent, depth).

    Terminates in ``diameter + O(1)`` rounds via a completion wave: a node
    halts once it has been reached and one extra round has passed to
    forward the wave (sufficient because we run for a bounded horizon set
    by the caller through ``max_rounds``; nodes never reached output None).
    """

    def __init__(self, root: Hashable, horizon: int) -> None:
        super().__init__()
        self.root = root
        self.horizon = horizon
        self.parent: Hashable | None = None
        self.depth: int | None = None
        self._announced = False

    def spawn(self) -> "BFSTreeAlgorithm":
        return BFSTreeAlgorithm(self.root, self.horizon)

    def initialize(self, ctx: NodeContext) -> None:
        if ctx.node == self.root:
            self.depth = 0
            self.parent = ctx.node

    def on_round(self, ctx: NodeContext, inbox: Mapping[Any, Message]):
        if self.depth is None:
            for sender, message in sorted(inbox.items(), key=lambda kv: repr(kv[0])):
                self.depth = message.payload + 1
                self.parent = sender
                break
        outgoing: "dict[Any, Message] | Broadcast" = {}
        if self.depth is not None and not self._announced:
            self._announced = True
            outgoing = ctx.broadcast(Message(self.depth))
        if ctx.round_number >= self.horizon:
            self.halt()
        return outgoing

    def output(self):
        if self.depth is None:
            return None
        return (self.parent, self.depth)


def _bfs_outputs(vertices, parent, depth) -> list:
    """``(parent vertex, depth)`` per reached row, ``None`` elsewhere —
    built at C speed from ``tolist`` ints, not per-row numpy scalars.
    Dense identity labellings (a streamed topology's ``range(n)``) skip
    the vertex lookup."""
    parents = parent.tolist()
    if vertices != range(len(vertices)):
        parents = list(map(vertices.__getitem__, parents))
    out = list(zip(parents, depth.tolist()))
    for i in np.flatnonzero(depth < 0).tolist():
        out[i] = None
    return out


class ColumnarBFSTree(ColumnarAlgorithm):
    """BFS tree construction as a round-vectorized columnar program.

    Exact port of :class:`BFSTreeAlgorithm`: the whole frontier's level
    relaxation is one segmented ``argmin`` over sender ``repr``-rank
    (the object plane's sorted-inbox parent choice), depths flow as a
    single typed column, and each newly reached vertex announces once
    over its CSR segment.
    """

    spec = ColumnarSpec(("depth", np.uint32))
    # Root initialization goes through ctx.index_of, whose grid form
    # fans out to every trial block — safe for trial-major batching.
    grid_safe = True

    def __init__(self, root: Hashable, horizon: int) -> None:
        self.root = root
        self.horizon = horizon

    def spawn(self) -> "ColumnarBFSTree":
        return ColumnarBFSTree(self.root, self.horizon)

    def setup(self, ctx: ColumnarContext) -> None:
        n = ctx.n
        self.depth = np.full(n, -1, dtype=np.int64)
        self.parent = np.full(n, -1, dtype=np.int64)
        self.announced = np.zeros(n, dtype=bool)
        root_index = ctx.index_of(self.root)
        self.depth[root_index] = 0
        self.parent[root_index] = root_index

    def on_round(self, ctx: ColumnarContext) -> None:
        stepped = ~ctx.halted
        inbox = ctx.inbox
        if len(inbox):
            # Parent choice = the min-repr announcing neighbour (the
            # object plane iterates the inbox sorted by sender repr).
            first = ctx.reduce_neighbors(
                "argmin", ctx.repr_rank[inbox.senders]
            )
            reached = stepped & (self.depth < 0) & (first >= 0)
            idx = np.flatnonzero(reached)
            if idx.size:
                pick = first[idx]
                self.depth[idx] = inbox.column("depth").astype(np.int64)[pick] + 1
                self.parent[idx] = inbox.senders[pick]
        announce = stepped & (self.depth >= 0) & ~self.announced
        if announce.any():
            idx = np.flatnonzero(announce)
            self.announced[idx] = True
            ctx.emit_columns(idx, depth=self.depth[idx])
        if ctx.round_number >= self.horizon:
            ctx.halt(stepped)

    def outputs(self, ctx: ColumnarContext) -> list:
        return _bfs_outputs(ctx.vertices, self.parent, self.depth)


_BFS_VARIANTS = {"object": BFSTreeAlgorithm, "columnar": ColumnarBFSTree}


def bfs_tree(
    graph: nx.Graph, root: Hashable, model: str = "congest",
    plane: str = "dict",
) -> tuple[dict[Hashable, tuple[Hashable, int]], NetworkMetrics]:
    """Run distributed BFS from ``root``; returns ``{v: (parent, depth)}``.

    ``plane`` is a runtime registry name (``"columnar"`` runs the
    vectorized :class:`ColumnarBFSTree` port — identical outputs and
    metrics).  Unreached vertices (other components) are absent from the
    result.
    """
    horizon = graph.number_of_nodes() + 1
    net = Network(graph, model=model)
    algorithm = variant_for_plane(_BFS_VARIANTS, plane)(root, horizon)
    outputs = net.run(algorithm, max_rounds=horizon + 2, plane=plane)
    tree = {v: out for v, out in outputs.items() if out is not None}
    return tree, net.metrics


class RestartingBFS(NodeAlgorithm):
    """Fault-aware BFS tree: continuous re-announcement + re-election.

    Where :class:`BFSTreeAlgorithm` announces its depth exactly once,
    every reached vertex here re-broadcasts its depth *every* round and
    adopts any strictly better offer (Bellman–Ford style: smallest
    ``(depth, repr)`` announcer wins).  Depths only ever decrease and —
    absent corruption — never drop below the true distance, so under
    drops and delays the tree converges to exact BFS depths as long as
    the horizon leaves room for retries.  A per-vertex silence counter
    re-elects a live parent among current depth-1 announcers after
    ``_PATIENCE`` rounds without hearing from the old one, healing
    around crashed interior vertices.  Low-bit corruption can forge a
    too-small depth, so for ``corrupt`` adversaries this variant is run
    under the reliable-delivery wrapper
    (:mod:`repro.congest.runtime.recovery`), which turns corruption into
    loss and re-announcement heals the loss.
    """

    _PATIENCE = 3

    def __init__(self, root: Hashable, horizon: int) -> None:
        super().__init__()
        self.root = root
        self.horizon = horizon
        self.parent: Hashable | None = None
        self.depth: int | None = None
        self.silent = 0

    def spawn(self) -> "RestartingBFS":
        return RestartingBFS(self.root, self.horizon)

    def initialize(self, ctx: NodeContext) -> None:
        if ctx.node == self.root:
            self.depth = 0
            self.parent = ctx.node

    def on_round(self, ctx: NodeContext, inbox: Mapping[Any, Message]):
        announced: dict[Any, int] = {}
        for sender, message in inbox.items():
            depth = message.payload
            # Corruption can mangle framing; only well-formed depth
            # announcements (plain non-negative ints) are believed.
            if isinstance(depth, bool) or not isinstance(
                depth, (int, np.integer)
            ):
                continue
            if depth < 0:
                continue
            announced[sender] = int(depth)
        is_root = ctx.node == self.root
        if announced and not is_root:
            best_sender = min(
                announced, key=lambda s: (announced[s], repr(s))
            )
            candidate = announced[best_sender] + 1
            if self.depth is None or candidate < self.depth:
                self.depth = candidate
                self.parent = best_sender
                self.silent = 0
        if not is_root and self.depth is not None:
            if self.parent in announced:
                self.silent = 0
            else:
                self.silent += 1
                if self.silent >= self._PATIENCE:
                    candidates = [
                        s for s, d in announced.items()
                        if d + 1 == self.depth
                    ]
                    if candidates:
                        self.parent = min(candidates, key=repr)
                        self.silent = 0
        outgoing: "dict[Any, Message] | Broadcast" = {}
        if self.depth is not None:
            outgoing = ctx.broadcast(Message(self.depth))
        if ctx.round_number >= self.horizon:
            self.halt()
        return outgoing

    def output(self):
        if self.depth is None:
            return None
        return (self.parent, self.depth)


class ColumnarRestartingBFS(ColumnarAlgorithm):
    """:class:`RestartingBFS` as a round-vectorized columnar program.

    Exact port: adoption is one segmented ``argmin`` over packed
    ``(depth, repr-rank)`` keys, parent liveness is a segmented ``any``
    over ``sender == parent[receiver]``, and re-election is a filtered
    ``argmin`` over announcer ranks at depth-1.
    """

    spec = ColumnarSpec(("depth", np.uint32))
    # Root init via ctx.index_of (grid form fans out per trial block);
    # state is dense arrays only; emissions gated on the live mask.
    grid_safe = True

    _PATIENCE = 3

    def __init__(self, root: Hashable, horizon: int) -> None:
        self.root = root
        self.horizon = horizon

    def spawn(self) -> "ColumnarRestartingBFS":
        return ColumnarRestartingBFS(self.root, self.horizon)

    def setup(self, ctx: ColumnarContext) -> None:
        n = ctx.n
        self.depth = np.full(n, -1, dtype=np.int64)
        self.parent = np.full(n, -1, dtype=np.int64)
        self.silent = np.zeros(n, dtype=np.int64)
        self.is_root = np.zeros(n, dtype=bool)
        root_index = ctx.index_of(self.root)
        self.is_root[root_index] = True
        self.depth[root_index] = 0
        self.parent[root_index] = root_index
        self.rank = ctx.repr_rank

    def on_round(self, ctx: ColumnarContext) -> None:
        stepped = ~ctx.halted
        inbox = ctx.inbox
        heard_parent = np.zeros(self.depth.shape[0], dtype=bool)
        if len(inbox):
            depths = inbox.column("depth").astype(np.int64)
            senders = inbox.senders
            # Adopt the smallest (depth, repr-rank) announcer when it
            # strictly improves on the current depth.
            keys = (depths << 32) | self.rank[senders]
            first = ctx.reduce_neighbors("argmin", keys)
            idx = np.flatnonzero(
                stepped & ~self.is_root & (first >= 0)
            )
            if idx.size:
                pick = first[idx]
                candidate = depths[pick] + 1
                better = (self.depth[idx] < 0) | (candidate < self.depth[idx])
                sub = idx[better]
                if sub.size:
                    self.depth[sub] = candidate[better]
                    self.parent[sub] = senders[pick[better]]
                    self.silent[sub] = 0
            receivers = inbox.receivers()
            heard_parent = ctx.reduce_neighbors(
                "any", senders == self.parent[receivers]
            )
        tracked = stepped & ~self.is_root & (self.depth >= 0)
        self.silent[tracked & heard_parent] = 0
        bump = tracked & ~heard_parent
        self.silent[bump] += 1
        stale = bump & (self.silent >= self._PATIENCE)
        if len(inbox) and stale.any():
            receivers = inbox.receivers()
            at_parent_depth = depths == (self.depth[receivers] - 1)
            candidate = ctx.reduce_neighbors(
                "argmin", self.rank[senders], where=at_parent_depth
            )
            idx = np.flatnonzero(stale & (candidate >= 0))
            if idx.size:
                self.parent[idx] = senders[candidate[idx]]
                self.silent[idx] = 0
        reached = np.flatnonzero(stepped & (self.depth >= 0))
        if reached.size:
            ctx.emit_columns(reached, depth=self.depth[reached])
        if ctx.round_number >= self.horizon:
            ctx.halt(stepped)

    def outputs(self, ctx: ColumnarContext) -> list:
        return _bfs_outputs(ctx.vertices, self.parent, self.depth)


_RESTARTING_BFS_VARIANTS = {
    "object": RestartingBFS,
    "columnar": ColumnarRestartingBFS,
}


# ---------------------------------------------------------------------------
# Broadcast
# ---------------------------------------------------------------------------
class BroadcastAlgorithm(NodeAlgorithm):
    """Flood a value from ``root`` to every vertex; each node outputs it."""

    def __init__(self, root: Hashable, value: Any, horizon: int) -> None:
        super().__init__()
        self.root = root
        self.value = value
        self.horizon = horizon
        self.received: Any = None
        self._forwarded = False

    def spawn(self) -> "BroadcastAlgorithm":
        return BroadcastAlgorithm(self.root, self.value, self.horizon)

    def initialize(self, ctx: NodeContext) -> None:
        if ctx.node == self.root:
            self.received = self.value

    def on_round(self, ctx: NodeContext, inbox: Mapping[Any, Message]):
        if self.received is None and inbox:
            self.received = next(iter(inbox.values())).payload
        outgoing: "dict[Any, Message] | Broadcast" = {}
        if self.received is not None and not self._forwarded:
            self._forwarded = True
            outgoing = ctx.broadcast(Message(self.received))
        if ctx.round_number >= self.horizon:
            self.halt()
        return outgoing

    def output(self):
        return self.received


def broadcast(
    graph: nx.Graph, root: Hashable, value: Any, model: str = "congest"
) -> tuple[dict[Hashable, Any], NetworkMetrics]:
    horizon = graph.number_of_nodes() + 1
    net = Network(graph, model=model)
    outputs = net.run(BroadcastAlgorithm(root, value, horizon), max_rounds=horizon + 2)
    return outputs, net.metrics


class ColumnarFloodValue(ColumnarAlgorithm):
    """Flooding as a round-vectorized columnar program.

    Exact port of :class:`BroadcastAlgorithm` for the typed case: the
    flooded value must be a non-negative integer (the general class
    floods arbitrary payloads, which the fixed-width plane deliberately
    rejects).  All announcers that reach a vertex in one round carry the
    same value, so adoption is reading the first message of the vertex's
    CSR segment.
    """

    spec = ColumnarSpec(("value", np.uint32))
    # Root initialization via ctx.index_of; state is dense arrays only.
    grid_safe = True

    def __init__(self, root: Hashable, value: int, horizon: int) -> None:
        self.root = root
        self.value = value
        self.horizon = horizon

    def spawn(self) -> "ColumnarFloodValue":
        return ColumnarFloodValue(self.root, self.value, self.horizon)

    def setup(self, ctx: ColumnarContext) -> None:
        n = ctx.n
        self.received = np.full(n, -1, dtype=np.int64)
        self.forwarded = np.zeros(n, dtype=bool)
        self.received[ctx.index_of(self.root)] = self.value

    def on_round(self, ctx: ColumnarContext) -> None:
        stepped = ~ctx.halted
        inbox = ctx.inbox
        if len(inbox):
            starts = inbox.indptr[:-1]
            got = stepped & (self.received < 0) & (inbox.counts > 0)
            idx = np.flatnonzero(got)
            if idx.size:
                values = inbox.column("value").astype(np.int64)
                self.received[idx] = values[starts[idx]]
        forward = stepped & (self.received >= 0) & ~self.forwarded
        if forward.any():
            idx = np.flatnonzero(forward)
            self.forwarded[idx] = True
            ctx.emit_columns(idx, value=self.received[idx])
        if ctx.round_number >= self.horizon:
            ctx.halt(stepped)

    def outputs(self, ctx: ColumnarContext) -> list:
        return [None if v < 0 else v for v in self.received.tolist()]


class ColumnarVarFlood(ColumnarAlgorithm):
    """Flood a variable-length tuple of integers from ``root``.

    The var-column port of :class:`BroadcastAlgorithm` for
    integer-sequence payloads (routing-schedule descriptions, arrived-id
    lists — the Lemma 2.2/2.5 gathering payloads the fixed-width plane
    cannot type): the flooded value rides in one
    :class:`~repro.congest.message.VarColumn`, so its length may differ
    per run — including the empty tuple, which
    :class:`ColumnarFloodValue` cannot express.  Byte-identical (outputs
    **and** metrics) to ``BroadcastAlgorithm(root, tuple(values),
    horizon)``: the var segment is sized exactly as
    ``Message(tuple(values))``.
    """

    spec = ColumnarSpec(VarColumn("values"))
    # Root initialization via ctx.index_of fans out per trial block;
    # state is dense arrays plus the trial-invariant flooded tuple.
    grid_safe = True

    def __init__(self, root: Hashable, values, horizon: int) -> None:
        self.root = root
        self.values = tuple(int(v) for v in values)
        self.horizon = horizon

    def spawn(self) -> "ColumnarVarFlood":
        return ColumnarVarFlood(self.root, self.values, self.horizon)

    def setup(self, ctx: ColumnarContext) -> None:
        n = ctx.n
        self.received = np.zeros(n, dtype=bool)
        self.forwarded = np.zeros(n, dtype=bool)
        self.received[ctx.index_of(self.root)] = True

    def on_round(self, ctx: ColumnarContext) -> None:
        stepped = ~ctx.halted
        inbox = ctx.inbox
        if len(inbox):
            # Every copy of the flood carries the same sequence, so
            # adoption is just the received flag (the payload itself is
            # already known from any one message's var segment).
            self.received |= stepped & (inbox.counts > 0)
        forward = stepped & self.received & ~self.forwarded
        if forward.any():
            idx = np.flatnonzero(forward)
            self.forwarded[idx] = True
            payload = np.asarray(self.values, dtype=np.int64)
            ctx.emit_var(idx, values=(
                np.tile(payload, len(idx)),
                np.full(len(idx), len(payload), dtype=np.int64),
            ))
        if ctx.round_number >= self.horizon:
            ctx.halt(stepped)

    def outputs(self, ctx: ColumnarContext) -> list:
        return [
            self.values if self.received[i] else None
            for i in range(ctx.n)
        ]


_VAR_FLOOD_VARIANTS = {
    "object": BroadcastAlgorithm,
    "columnar": ColumnarVarFlood,
}


def flood_values(
    graph: nx.Graph,
    root: Hashable,
    values,
    model: str = "congest",
    plane: str | None = "auto",
) -> tuple[dict[Hashable, tuple], NetworkMetrics]:
    """Flood an integer tuple from ``root`` on the requested plane.

    ``plane`` is a runtime registry name (``"auto"`` prefers the
    columnar :class:`ColumnarVarFlood`; any object-family name runs
    :class:`BroadcastAlgorithm` — both byte-identical).  Returns each
    vertex's received tuple (``None`` if unreached) and the metrics.
    The gathering routers use this for the Lemma 2.5 schedule broadcast
    and the Lemma 2.2 arrival notification.
    """
    values = tuple(int(v) for v in values)
    horizon = graph.number_of_nodes() + 1
    net = Network(graph, model=model)
    algorithm = variant_for_plane(_VAR_FLOOD_VARIANTS, plane)(
        root, values, horizon
    )
    outputs = net.run(algorithm, max_rounds=horizon + 2, plane=plane)
    return outputs, net.metrics


# ---------------------------------------------------------------------------
# Convergecast (sum aggregation over a given rooted tree)
# ---------------------------------------------------------------------------
class ConvergecastSumAlgorithm(NodeAlgorithm):
    """Sum per-vertex integer inputs up a rooted tree to the root.

    Each vertex's ``input`` is ``(parent, children, value)``; the root has
    ``parent=None``.  The root outputs the total; others output None.
    """

    def __init__(self, horizon: int) -> None:
        super().__init__()
        self.horizon = horizon
        self.parent: Hashable | None = None
        self.pending_children: set = set()
        self.total = 0
        self._sent_up = False
        self._is_root = False

    def spawn(self) -> "ConvergecastSumAlgorithm":
        return ConvergecastSumAlgorithm(self.horizon)

    def initialize(self, ctx: NodeContext) -> None:
        parent, children, value = self.input
        self.parent = parent
        self._is_root = parent is None
        self.pending_children = set(children)
        self.total = value

    def on_round(self, ctx: NodeContext, inbox: Mapping[Any, Message]):
        for sender, message in inbox.items():
            if sender in self.pending_children:
                self.pending_children.discard(sender)
                self.total += message.payload
        outgoing: dict[Any, Message] = {}
        if not self.pending_children and not self._sent_up:
            self._sent_up = True
            if self._is_root:
                self.halt()
            else:
                outgoing[self.parent] = Message(self.total)
                self.halt()
        if ctx.round_number >= self.horizon:
            self.halt()
        return outgoing

    def output(self):
        return self.total if self._is_root and self._sent_up else None


def convergecast_sum(
    graph: nx.Graph,
    tree: Mapping[Hashable, tuple[Hashable, int]],
    values: Mapping[Hashable, int],
    root: Hashable,
    model: str = "congest",
) -> tuple[int, NetworkMetrics]:
    """Aggregate ``sum(values)`` at ``root`` over the BFS tree ``tree``.

    ``tree`` maps each vertex to ``(parent, depth)`` as produced by
    :func:`bfs_tree`.  Only vertices present in ``tree`` participate.
    """
    children: dict[Hashable, list] = {v: [] for v in tree}
    for v, (parent, _depth) in tree.items():
        if v != root:
            children[parent].append(v)
    inputs = {
        v: (
            None if v == root else tree[v][0],
            tuple(children.get(v, ())),
            int(values.get(v, 0)),
        )
        for v in tree
    }
    # Vertices outside the tree (other components) idle out immediately.
    for v in graph.nodes:
        if v not in inputs:
            inputs[v] = (None, (), 0)
    horizon = graph.number_of_nodes() + 2
    net = Network(graph, model=model)
    outputs = net.run(
        ConvergecastSumAlgorithm(horizon), max_rounds=horizon + 2, inputs=inputs
    )
    return outputs[root], net.metrics


class ColumnarConvergecastSum(ColumnarAlgorithm):
    """Convergecast summation as a round-vectorized columnar program.

    Exact port of :class:`ConvergecastSumAlgorithm` — the unicast
    demonstration of the columnar plane: ready vertices send their
    subtree totals straight to their parents
    (``emit_columns(children, parents, total=…)``), and the per-round
    merge of every vertex's child contributions is one segmented ``sum``.
    Inputs are the same ``(parent, children, value)`` triples.
    """

    spec = ColumnarSpec(("total", np.int64))
    # NOT grid_safe: per-vertex inputs embed parent vertex *ids* that
    # setup resolves row-by-row via ctx.index_of — ambiguous when the
    # same id names one replica row per trial block.
    grid_safe = False

    def __init__(self, horizon: int) -> None:
        self.horizon = horizon

    def spawn(self) -> "ColumnarConvergecastSum":
        return ColumnarConvergecastSum(self.horizon)

    def setup(self, ctx: ColumnarContext) -> None:
        n = ctx.n
        self.total = np.zeros(n, dtype=np.int64)
        self.pending = np.zeros(n, dtype=np.int64)
        self.parent = np.full(n, -1, dtype=np.int64)
        self.is_root = np.zeros(n, dtype=bool)
        self.sent_up = np.zeros(n, dtype=bool)
        for i, triple in enumerate(ctx.inputs):
            parent, children, value = triple
            self.total[i] = int(value)
            self.pending[i] = len(children)
            if parent is None:
                self.is_root[i] = True
            else:
                self.parent[i] = ctx.index_of(parent)

    def on_round(self, ctx: ColumnarContext) -> None:
        stepped = ~ctx.halted
        if len(ctx.inbox):
            # Every incoming message is a child's subtree total: fold the
            # whole round's contributions with one segmented sum.
            self.total += np.where(
                stepped, ctx.reduce_neighbors("sum", "total"), 0
            )
            self.pending -= np.where(
                stepped, ctx.reduce_neighbors("count"), 0
            )
        ready = stepped & (self.pending == 0) & ~self.sent_up
        if ready.any():
            self.sent_up |= ready
            senders = np.flatnonzero(ready & ~self.is_root)
            if senders.size:
                ctx.emit_columns(
                    senders, self.parent[senders],
                    total=self.total[senders],
                )
            ctx.halt(ready)
        if ctx.round_number >= self.horizon:
            ctx.halt(stepped)

    def outputs(self, ctx: ColumnarContext) -> list:
        return [
            int(self.total[i]) if self.is_root[i] and self.sent_up[i]
            else None
            for i in range(ctx.n)
        ]


# ---------------------------------------------------------------------------
# Leader election by flooding the maximum identifier
# ---------------------------------------------------------------------------
class FloodMaxLeaderElection(NodeAlgorithm):
    """Every vertex learns the maximum (key, id) in its component.

    ``input`` is the vertex's key (defaults to 0); ties broken by vertex id
    ``repr``.  Runs for a fixed horizon of n rounds.
    """

    def __init__(self, horizon: int) -> None:
        super().__init__()
        self.horizon = horizon
        self.best: tuple | None = None
        self._dirty = True

    def spawn(self) -> "FloodMaxLeaderElection":
        return FloodMaxLeaderElection(self.horizon)

    def initialize(self, ctx: NodeContext) -> None:
        key = self.input if self.input is not None else 0
        self.best = (key, repr(ctx.node), ctx.node)

    def on_round(self, ctx: NodeContext, inbox: Mapping[Any, Message]):
        for message in inbox.values():
            key, rep = message.payload
            if (key, rep) > (self.best[0], self.best[1]):
                # Reconstruct candidate: we only need the (key, repr) order
                # and the winning id, carried as rep string -> resolved later.
                self.best = (key, rep, None)
                self._dirty = True
        outgoing: "dict[Any, Message] | Broadcast" = {}
        if self._dirty:
            self._dirty = False
            outgoing = ctx.broadcast(Message((self.best[0], self.best[1])))
        if ctx.round_number >= self.horizon:
            self.halt()
        return outgoing

    def output(self):
        return (self.best[0], self.best[1])


def elect_leaders(
    graph: nx.Graph,
    keys: Mapping[Hashable, int] | None = None,
    model: str = "congest",
) -> tuple[dict[Hashable, Hashable], NetworkMetrics]:
    """Per-component leader election; returns ``{v: leader_of_component(v)}``.

    The leader is the vertex with lexicographically largest ``(key,
    repr(id))``; with no keys this is simply the max-``repr`` vertex.
    """
    horizon = graph.number_of_nodes() + 1
    inputs = {v: (keys or {}).get(v, 0) for v in graph.nodes}
    net = Network(graph, model=model)
    outputs = net.run(
        FloodMaxLeaderElection(horizon), max_rounds=horizon + 2, inputs=inputs
    )
    by_rep = {repr(v): v for v in graph.nodes}
    return {v: by_rep[out[1]] for v, out in outputs.items()}, net.metrics


# ---------------------------------------------------------------------------
# Cole–Vishkin colour reduction on rooted forests
# ---------------------------------------------------------------------------
def _id_to_color(node: Hashable, order: Mapping[Hashable, int]) -> int:
    return order[node]


def cole_vishkin_schedule_length(n: int) -> int:
    """Number of Cole–Vishkin reduce iterations to go from n colours to < 6.

    Every node computes this identically from the globally known ``n``, so
    the whole forest runs the reduce phase in lockstep — the key to a
    simple, provably synchronized implementation.
    """
    bound = max(2, n)
    iterations = 0
    while bound > 6:
        bound = 2 * max(1, math.ceil(math.log2(bound)))
        iterations += 1
    # A couple of extra iterations are harmless (the step is idempotent on
    # the fixed point {0..5} only up to small cycling, so we instead stop
    # exactly when the bound analysis says all colours are < 6).
    return iterations


class ColorReductionAlgorithm(NodeAlgorithm):
    """Cole–Vishkin 3-colouring of a rooted forest in O(log* n) rounds.

    Each vertex's ``input`` is ``(parent_or_None, initial_color)`` with
    initial colours forming a proper colouring (distinct ids suffice).

    The schedule is fully deterministic and identical at every node:

    * ``K`` reduce iterations (``K`` computed from n) bring colours < 6;
    * then three (shift-down, eliminate target) pairs remove colours 5, 4,
      and 3.

    Each round every vertex sends its current colour to its tree
    neighbours; state updates happen on receipt, so at update step t every
    node knows its neighbours' colours after step t - 1.  Messages are a
    single colour: O(log n) bits initially, O(1) later — CONGEST-safe.
    """

    def __init__(self, n_hint: int) -> None:
        super().__init__()
        self.n_hint = n_hint
        self.parent: Hashable | None = None
        self.color: int = 0
        self.parent_color: int | None = None
        self.children_colors: dict[Any, int] = {}
        self.reduce_iterations = 0
        self.total_updates = 0

    def spawn(self) -> "ColorReductionAlgorithm":
        return ColorReductionAlgorithm(self.n_hint)

    def initialize(self, ctx: NodeContext) -> None:
        self.parent, self.color = self.input
        self.reduce_iterations = cole_vishkin_schedule_length(self.n_hint)
        # Updates: K reduce + 3 * (shift-down + eliminate).
        self.total_updates = self.reduce_iterations + 6

    # -- helpers ------------------------------------------------------------
    def _effective_parent_color(self) -> int:
        """Parent colour, or a fictitious one for roots (classic trick)."""
        if self.parent is not None and self.parent_color is not None:
            return self.parent_color
        return 0 if self.color != 0 else 1

    @staticmethod
    def _cv_step(my_color: int, parent_color: int) -> int:
        """One Cole–Vishkin recolouring: 2 * (index of differing bit) + bit."""
        diff = my_color ^ parent_color
        index = (diff & -diff).bit_length() - 1
        bit = (my_color >> index) & 1
        return 2 * index + bit

    def _update(self, step: int) -> None:
        """Perform lockstep update number ``step`` (1-based)."""
        if step <= self.reduce_iterations:
            self.color = self._cv_step(self.color, self._effective_parent_color())
            return
        offset = step - self.reduce_iterations  # 1..6
        if offset % 2 == 1:
            # Shift-down: adopt parent's colour; root rotates within {0,1,2}.
            if self.parent is not None and self.parent_color is not None:
                self.color = self.parent_color
            else:
                self.color = (self.color + 1) % 3
        else:
            target = 5 - (offset // 2 - 1)  # 5, then 4, then 3
            if self.color == target:
                taken = set(self.children_colors.values())
                taken.add(self._effective_parent_color())
                self.color = min(c for c in (0, 1, 2) if c not in taken)

    def on_round(self, ctx: NodeContext, inbox: Mapping[Any, Message]):
        for sender, message in inbox.items():
            if sender == self.parent:
                self.parent_color = message.payload
            else:
                self.children_colors[sender] = message.payload
        # Round r delivers colours after update r - 2; perform update r - 1.
        step = ctx.round_number - 1
        if 1 <= step <= self.total_updates:
            self._update(step)
        if step >= self.total_updates:
            self.halt()
            return {}
        return ctx.broadcast(Message(self.color))

    def output(self):
        return self.color


def cole_vishkin_forest_coloring(
    graph: nx.Graph,
    parents: Mapping[Hashable, Hashable | None],
    model: str = "congest",
) -> tuple[dict[Hashable, int], NetworkMetrics]:
    """Properly 3-colour a rooted forest in O(log* n) communication rounds.

    ``parents`` maps every vertex to its parent (or ``None`` for roots); the
    forest edges must be a subset of ``graph``'s edges.  Returns the
    colouring (values in {0, 1, 2}) and metrics.  The colouring is proper
    with respect to the *forest* edges.
    """
    n = graph.number_of_nodes()
    order = {v: i for i, v in enumerate(sorted(graph.nodes, key=repr))}
    inputs = {v: (parents.get(v), order[v]) for v in graph.nodes}
    horizon = cole_vishkin_schedule_length(n) + 10
    # Run on the forest itself so messages travel only along tree edges.
    forest = nx.Graph()
    forest.add_nodes_from(graph.nodes)
    for v, p in parents.items():
        if p is not None:
            forest.add_edge(v, p)
    net = Network(forest, model=model)
    outputs = net.run(ColorReductionAlgorithm(n), max_rounds=horizon + 2,
                      inputs=inputs)
    return outputs, net.metrics
