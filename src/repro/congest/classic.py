"""Classic distributed algorithms run through the simulator.

These are the standard CONGEST/LOCAL baselines the paper's round counts
are implicitly compared against, implemented as genuine message-passing
node algorithms so their round counts are *measured*:

* :func:`luby_mis` — Luby's randomized maximal independent set,
  O(log n) rounds w.h.p.  (A maximal IS is a (1/Δ)-ish approximation on
  planar graphs — the fast-but-crude baseline for Corollary 6.5.)
* :func:`distributed_greedy_matching` — randomized maximal matching by
  local proposals, O(log n) rounds w.h.p. (the ½-approximation baseline
  for Corollary 6.4).
* :func:`delta_plus_one_coloring` — randomized (Δ+1)-colouring by trial
  colours, O(log n) rounds w.h.p. (used by tests as another genuinely
  distributed primitive exercising the simulator).

Each takes an explicit ``seed``: the *paper's* algorithms are
deterministic; these baselines are the randomized competition.

Columnar ports
--------------
:class:`ColumnarLubyMIS` and :class:`ColumnarTrialColoring` are
round-vectorized ports of the MIS and colouring baselines onto the
columnar delivery plane (:mod:`repro.congest.columnar`).  They replicate
the object-plane algorithms *exactly* — same per-vertex RNG streams,
same transitions, same payload values — so outputs **and**
``NetworkMetrics`` counters are byte-identical to
:class:`LubyMISAlgorithm` / :class:`TrialColoringAlgorithm`
(``tests/test_columnar.py`` asserts this differentially); what changes
is the cost model: priority comparison and conflict detection are single
segmented reductions instead of per-vertex Python inbox loops.  The
per-vertex RNG draws remain Python (O(active) per phase — matching the
originals' streams requires ``random.Random``), which is off the
per-edge hot path.  Tie-breaks use ``repr``-rank, so vertex reprs must
be distinct (true for every graph family in this repository).
``luby_mis``/``delta_plus_one_coloring`` take ``plane="columnar"`` to
run the ported implementations through the same verified wrappers.
"""

from __future__ import annotations

import random
from typing import Any, Hashable, Mapping

import networkx as nx
import numpy as np

from repro.congest.columnar import ColumnarAlgorithm, ColumnarContext
from repro.congest.message import Broadcast, ColumnarSpec, Message
from repro.congest.metrics import NetworkMetrics
from repro.congest.network import Network, NodeAlgorithm, NodeContext
from repro.congest.runtime import variant_for_plane


# Constant-payload notifications shared by every vertex and every run:
# messages are immutable, so one instance (sized once, ever) suffices.
_MIS_JOINED = Message((1, 0))
_MATCH_PROPOSAL = Message(0)
_MATCH_TAKEN = Message(2)


class LubyMISAlgorithm(NodeAlgorithm):
    """One node of Luby's algorithm.

    Per phase (2 rounds): draw a random priority, exchange with active
    neighbours; local maxima join the IS and notify; neighbours of
    IS vertices retire.  ``input`` is the per-vertex RNG seed.
    """

    _DRAW, _RESOLVE = 0, 1

    def __init__(self, horizon: int) -> None:
        super().__init__()
        self.horizon = horizon
        self.rng: random.Random | None = None
        self.active = True
        self.in_set = False
        self.priority = 0
        self.phase = self._DRAW
        self.active_neighbors: set = set()

    def spawn(self) -> "LubyMISAlgorithm":
        return LubyMISAlgorithm(self.horizon)

    def initialize(self, ctx: NodeContext) -> None:
        self.rng = random.Random(self.input)
        self.active_neighbors = set(ctx.neighbors)
        self._node_repr = repr(ctx.node)

    def on_round(self, ctx: NodeContext, inbox: Mapping[Any, Message]):
        if not self.active:
            self.halt()
            return {}
        if ctx.round_number > self.horizon:
            raise RuntimeError("Luby MIS exceeded horizon")
        if self.phase == self._DRAW:
            # Resolve the previous phase's notifications first.
            for sender, message in inbox.items():
                kind, _value = message.payload
                if kind == 1:  # neighbour joined the IS
                    self.active = False
                elif kind == 2:  # neighbour retired
                    self.active_neighbors.discard(sender)
            if not self.active:
                self.halt()
                return {}
            if not self.active_neighbors:
                self.in_set = True
                self.active = False
                self.halt()
                return {}
            self.priority = self.rng.randrange(1 << 30)
            self.phase = self._RESOLVE
            # One shared immutable Message through the broadcast plane:
            # payload validated and sized once, not once per neighbour.
            # active_neighbors only shrinks, so equal size means the
            # subset is all neighbours — the engine's fastest path.
            draw = Message((0, self.priority))
            to = self.active_neighbors
            return Broadcast(draw, None if len(to) == ctx.degree else to)
        # RESOLVE: compare priorities.  Ties on the 30-bit priority are
        # broken by vertex repr, but the repr is only materialized on an
        # actual tie — same outcome as comparing (value, repr) tuples.
        wins = True
        my_priority = self.priority
        for sender, message in inbox.items():
            kind, value = message.payload
            if kind == 0 and sender in self.active_neighbors:
                if value > my_priority or (
                    value == my_priority and repr(sender) > self._node_repr
                ):
                    wins = False
                    break
        self.phase = self._DRAW
        if wins:
            self.in_set = True
            self.active = False
            # Notify neighbours, then stop next round.
            to = self.active_neighbors
            out = Broadcast(_MIS_JOINED, None if len(to) == ctx.degree else to)
            self.halt()
            return out
        return {}

    def output(self):
        return self.in_set


class ColumnarLubyMIS(ColumnarAlgorithm):
    """Luby's MIS as a round-vectorized columnar program.

    Exact port of :class:`LubyMISAlgorithm` (same RNG streams, same
    2-round DRAW/RESOLVE lockstep, same ``(kind, value)`` payloads), with
    the per-edge work — priority comparison against every active
    neighbour, join detection — as segmented reductions.  Priorities and
    ``repr``-rank pack into one 62-bit key, so "some neighbour beats me"
    is a single segmented ``max``.

    Under ``rng="vectorized"`` the per-round priority draw becomes one
    Philox column fill (``ctx.rng.randrange_rows``) instead of a Python
    loop over per-vertex Mersenne streams — deterministic and
    plane-independent, but a different (equally uniform) stream.
    """

    spec = ColumnarSpec(("kind", np.uint8), ("value", np.uint32))
    # Vertex state lives only in dense arrays (inputs/ranks/masks), so T
    # trials run as one block-diagonal grid (runtime.batch.run_many).
    grid_safe = True
    rng_modes = ("exact", "vectorized")

    _DRAW, _RESOLVE = 0, 1

    def __init__(self, horizon: int) -> None:
        self.horizon = horizon

    def spawn(self) -> "ColumnarLubyMIS":
        return ColumnarLubyMIS(self.horizon)

    def setup(self, ctx: ColumnarContext) -> None:
        n = ctx.n
        self.active = np.ones(n, dtype=bool)
        self.in_set = np.zeros(n, dtype=bool)
        self.priority = np.zeros(n, dtype=np.int64)
        self.rank = ctx.repr_rank

    def on_round(self, ctx: ColumnarContext) -> None:
        if ctx.round_number > self.horizon:
            raise RuntimeError("Luby MIS exceeded horizon")
        stepped = ~ctx.halted
        if ctx.round_number % 2 == 1:  # DRAW (odd rounds, lockstep)
            # Resolve the previous phase's notifications: any kind-1
            # message means a neighbour joined the IS.
            kinds = ctx.inbox.column("kind")
            joined_neighbor = ctx.reduce_neighbors("any", kinds == 1)
            retire = stepped & self.active & joined_neighbor
            self.active &= ~retire
            # Isolated vertices have no one to beat: join immediately.
            isolated = stepped & self.active & (ctx.degrees == 0)
            self.in_set |= isolated
            self.active &= ~isolated
            ctx.halt(retire | isolated)
            survivors = np.flatnonzero(stepped & self.active)
            if survivors.size:
                self.priority[survivors] = ctx.rng.randrange_rows(
                    ctx.round_number, survivors, 1 << 30
                )
                ctx.emit_columns(
                    survivors, kind=0, value=self.priority[survivors]
                )
        else:  # RESOLVE: the inbox holds the draws of active neighbours.
            values = ctx.inbox.column("value").astype(np.int64)
            kinds = ctx.inbox.column("kind")
            keys = (values << 32) | self.rank[ctx.inbox.senders]
            best = ctx.reduce_neighbors(
                "max", keys, where=(kinds == 0), empty=np.int64(-1)
            )
            my_key = (self.priority << 32) | self.rank
            wins = stepped & self.active & (best < my_key)
            winners = np.flatnonzero(wins)
            if winners.size:
                self.in_set[winners] = True
                self.active[winners] = False
                ctx.emit_columns(winners, kind=1, value=0)
                ctx.halt(wins)

    def outputs(self, ctx: ColumnarContext) -> list:
        return self.in_set.tolist()


# Plane capabilities declared once per wrapper: the runtime registry maps
# a requested plane name to the implementation family (never isinstance),
# so new planes extend these wrappers without touching them.
_MIS_VARIANTS = {"object": LubyMISAlgorithm, "columnar": ColumnarLubyMIS}


def luby_mis(
    graph: nx.Graph, seed: int = 0, model: str = "congest",
    plane: str = "dict",
) -> tuple[set, NetworkMetrics]:
    """Run Luby's MIS; returns (independent set, metrics).

    ``plane`` is a runtime registry name (``"columnar"`` runs the
    vectorized :class:`ColumnarLubyMIS` port — identical outputs and
    metrics; ``"dict"`` is the legacy alias of ``"broadcast"``).  The
    result is verified maximal and independent before returning.
    """
    n = graph.number_of_nodes()
    horizon = 20 * max(4, n.bit_length() ** 2)
    rng = random.Random(seed)
    inputs = {v: rng.randrange(1 << 30) for v in graph.nodes}
    net = Network(graph, model=model)
    algorithm = variant_for_plane(_MIS_VARIANTS, plane)(horizon)
    outputs = net.run(
        algorithm, max_rounds=horizon + 2, inputs=inputs, plane=plane
    )
    independent = {v for v, flag in outputs.items() if flag}
    for u, v in graph.edges:
        if u in independent and v in independent:
            raise AssertionError("Luby output not independent")
    for v in graph.nodes:
        if v not in independent and not any(
            u in independent for u in graph.neighbors(v)
        ):
            raise AssertionError("Luby output not maximal")
    return independent, net.metrics


class SelfHealingMIS(NodeAlgorithm):
    """Fault-aware Luby MIS: a bounded draw/resolve phase followed by a
    self-healing repair phase that wins the MIS guarantees back.

    Phase 1 (rounds ``1..luby_rounds``) runs the same DRAW/RESOLVE
    lockstep as :class:`LubyMISAlgorithm`, but decided vertices merely
    stop drawing instead of halting — they must stay alive for phase 2.
    Phase 2 (``repair_rounds`` report rounds plus one final absorb
    round) has every live vertex broadcast a ``(2, status)`` report with
    status ``1`` (in the set), ``2`` (out, covered by a live in-set
    neighbour) or ``0`` (out and uncovered).  Repairs are rank-ordered:
    an in-set vertex leaves when a smaller-``repr`` neighbour also
    reports in-set (independence), and an uncovered vertex joins when no
    neighbour reports in-set and it beats every *uncovered* reporter
    (maximality — covered neighbours never block a join, which is what
    makes the repair deadlock-free).  Crash faults only ever break
    maximality, so under pure crashes the repair phase deterministically
    restores a valid MIS over the live vertices; paired with the
    reliable-delivery wrapper (:mod:`repro.congest.runtime.recovery`) it
    also rides out drops, delays, and low-bit corruption.
    """

    def __init__(self, luby_rounds: int, repair_rounds: int) -> None:
        super().__init__()
        if luby_rounds < 2 or luby_rounds % 2:
            raise ValueError(
                f"luby_rounds must be a positive even number of rounds, "
                f"got {luby_rounds}"
            )
        if repair_rounds < 1:
            raise ValueError(f"repair_rounds must be >= 1, got {repair_rounds}")
        self.luby_rounds = luby_rounds
        self.repair_rounds = repair_rounds
        self.rng: random.Random | None = None
        self.active = True
        self.in_set = False
        self.covered = False
        self.priority = 0

    def spawn(self) -> "SelfHealingMIS":
        return SelfHealingMIS(self.luby_rounds, self.repair_rounds)

    def initialize(self, ctx: NodeContext) -> None:
        self.rng = random.Random(self.input)
        self._node_repr = repr(ctx.node)

    def on_round(self, ctx: NodeContext, inbox: Mapping[Any, Message]):
        r = ctx.round_number
        if r <= self.luby_rounds:
            if r % 2 == 1:  # DRAW (odd rounds, lockstep)
                for _sender, message in inbox.items():
                    if message.payload[0] == 1:  # neighbour joined the IS
                        self.covered = True
                        self.active = False
                if self.active and ctx.degree == 0:
                    self.in_set = True
                    self.active = False
                if not self.active:
                    return {}
                self.priority = self.rng.randrange(1 << 30)
                return ctx.broadcast(Message((0, self.priority)))
            # RESOLVE: all kind-0 draws come from still-active vertices.
            if not self.active:
                return {}
            wins = True
            my_priority = self.priority
            for sender, message in inbox.items():
                kind, value = message.payload
                if kind == 0 and (
                    value > my_priority
                    or (value == my_priority and repr(sender) > self._node_repr)
                ):
                    wins = False
                    break
            if wins:
                self.in_set = True
                self.active = False
                return ctx.broadcast(_MIS_JOINED)
            return {}
        # Phase 2: repair by rank-ordered report exchange.
        r0 = r - self.luby_rounds
        if r0 > 1:
            in_reprs = []
            uncovered_reprs = []
            for sender, message in inbox.items():
                kind, value = message.payload
                if kind != 2:
                    continue  # stale phase-1 traffic (delays) is ignored
                if value == 1:
                    in_reprs.append(repr(sender))
                elif value == 0:
                    uncovered_reprs.append(repr(sender))
            covered_now = bool(in_reprs)
            if self.in_set and covered_now and min(in_reprs) < self._node_repr:
                self.in_set = False  # independence: the smaller rank stays
            if not self.in_set and not covered_now:
                if not uncovered_reprs or self._node_repr < min(uncovered_reprs):
                    self.in_set = True  # maximality: local minimum joins
            self.covered = covered_now
        if r0 > self.repair_rounds:
            self.halt()
            return {}
        status = 1 if self.in_set else (2 if self.covered else 0)
        return ctx.broadcast(Message((2, status)))

    def output(self):
        return self.in_set


class ColumnarSelfHealingMIS(ColumnarAlgorithm):
    """:class:`SelfHealingMIS` as a round-vectorized columnar program.

    Exact port (same RNG streams, same payloads, same repair rules with
    ``repr``-rank in place of ``repr`` strings): phase-1 win detection is
    the packed-key segmented ``max`` of :class:`ColumnarLubyMIS`, and
    each repair round is two segmented ``min`` reductions over reporter
    ranks (smallest in-set reporter for the leave rule, smallest
    uncovered reporter for the join rule).
    """

    spec = ColumnarSpec(("kind", np.uint8), ("value", np.uint32))
    # State is dense arrays only and every emission is gated on the live
    # mask, so T trials batch as one block-diagonal grid.
    grid_safe = True
    rng_modes = ("exact", "vectorized")

    def __init__(self, luby_rounds: int, repair_rounds: int) -> None:
        if luby_rounds < 2 or luby_rounds % 2:
            raise ValueError(
                f"luby_rounds must be a positive even number of rounds, "
                f"got {luby_rounds}"
            )
        if repair_rounds < 1:
            raise ValueError(f"repair_rounds must be >= 1, got {repair_rounds}")
        self.luby_rounds = luby_rounds
        self.repair_rounds = repair_rounds

    def spawn(self) -> "ColumnarSelfHealingMIS":
        return ColumnarSelfHealingMIS(self.luby_rounds, self.repair_rounds)

    def setup(self, ctx: ColumnarContext) -> None:
        n = ctx.n
        self.active = np.ones(n, dtype=bool)
        self.in_set = np.zeros(n, dtype=bool)
        self.covered = np.zeros(n, dtype=bool)
        self.priority = np.zeros(n, dtype=np.int64)
        self.rank = ctx.repr_rank

    def on_round(self, ctx: ColumnarContext) -> None:
        stepped = ~ctx.halted
        r = ctx.round_number
        if r <= self.luby_rounds:
            kinds = ctx.inbox.column("kind")
            if r % 2 == 1:  # DRAW
                joined = ctx.reduce_neighbors("any", kinds == 1)
                got = stepped & joined
                self.covered |= got
                self.active &= ~got
                isolated = stepped & self.active & (ctx.degrees == 0)
                self.in_set |= isolated
                self.active &= ~isolated
                survivors = np.flatnonzero(stepped & self.active)
                if survivors.size:
                    self.priority[survivors] = ctx.rng.randrange_rows(
                        ctx.round_number, survivors, 1 << 30
                    )
                    ctx.emit_columns(
                        survivors, kind=0, value=self.priority[survivors]
                    )
            else:  # RESOLVE
                values = ctx.inbox.column("value").astype(np.int64)
                keys = (values << 32) | self.rank[ctx.inbox.senders]
                best = ctx.reduce_neighbors(
                    "max", keys, where=(kinds == 0), empty=np.int64(-1)
                )
                my_key = (self.priority << 32) | self.rank
                wins = stepped & self.active & (best < my_key)
                winners = np.flatnonzero(wins)
                if winners.size:
                    self.in_set[winners] = True
                    self.active[winners] = False
                    ctx.emit_columns(winners, kind=1, value=0)
            return
        # Phase 2: repair by rank-ordered report exchange.
        r0 = r - self.luby_rounds
        if r0 > 1:
            kinds = ctx.inbox.column("kind")
            values = ctx.inbox.column("value")
            sender_rank = self.rank[ctx.inbox.senders]
            big = np.int64(np.iinfo(np.int64).max)
            best_in = ctx.reduce_neighbors(
                "min", sender_rank, where=(kinds == 2) & (values == 1),
                empty=big,
            )
            covered_now = best_in < big
            leave = stepped & self.in_set & (best_in < self.rank)
            self.in_set &= ~leave
            min_uncovered = ctx.reduce_neighbors(
                "min", sender_rank, where=(kinds == 2) & (values == 0),
                empty=big,
            )
            join = stepped & ~self.in_set & ~covered_now & (
                self.rank < min_uncovered
            )
            self.in_set |= join
            self.covered = np.where(stepped, covered_now, self.covered)
        if r0 > self.repair_rounds:
            ctx.halt(stepped)
            return
        alive = np.flatnonzero(stepped)
        if alive.size:
            status = np.where(self.in_set, 1, np.where(self.covered, 2, 0))
            ctx.emit_columns(alive, kind=2, value=status[alive])

    def outputs(self, ctx: ColumnarContext) -> list:
        return self.in_set.tolist()


_SELF_HEALING_MIS_VARIANTS = {
    "object": SelfHealingMIS,
    "columnar": ColumnarSelfHealingMIS,
}


class ProposalMatchingAlgorithm(NodeAlgorithm):
    """Randomized maximal matching: unmatched vertices propose to a random
    unmatched neighbour; a proposal pair (mutual or accepted) matches.

    Phase (2 rounds): propose, then accept the lowest-id proposer among
    received proposals if we also proposed or are free; matched vertices
    notify and retire.
    """

    _PROPOSE, _ACCEPT = 0, 1

    def __init__(self, horizon: int) -> None:
        super().__init__()
        self.horizon = horizon
        self.rng: random.Random | None = None
        self.free = True
        self.partner: Hashable | None = None
        self.phase = self._PROPOSE
        self.free_neighbors: set = set()
        self.proposed_to: Hashable | None = None

    def spawn(self) -> "ProposalMatchingAlgorithm":
        return ProposalMatchingAlgorithm(self.horizon)

    def initialize(self, ctx: NodeContext) -> None:
        self.rng = random.Random(self.input)
        self.free_neighbors = set(ctx.neighbors)

    def on_round(self, ctx: NodeContext, inbox: Mapping[Any, Message]):
        if not self.free:
            self.halt()
            return {}
        if ctx.round_number > self.horizon:
            raise RuntimeError("matching exceeded horizon")
        if self.phase == self._PROPOSE:
            for sender, message in inbox.items():
                kind = message.payload
                if kind == 2:  # neighbour matched elsewhere
                    self.free_neighbors.discard(sender)
            if not self.free_neighbors:
                self.free = False  # isolated among free vertices: done
                self.halt()
                return {}
            self.proposed_to = self.rng.choice(
                sorted(self.free_neighbors, key=repr)
            )
            self.phase = self._ACCEPT
            return {self.proposed_to: _MATCH_PROPOSAL}  # 0 = proposal
        # ACCEPT phase: pick the smallest-id proposer; mutual agreement
        # requires that we proposed to them or they proposed to us and we
        # accept deterministically — to avoid three-way conflicts, a match
        # forms only when the proposal was *mutual*.
        proposers = [
            sender for sender, message in inbox.items() if message.payload == 0
        ]
        self.phase = self._PROPOSE
        if self.proposed_to in proposers:
            self.partner = self.proposed_to
            self.free = False
            out = Broadcast(
                _MATCH_TAKEN,
                (u for u in self.free_neighbors if u != self.partner),
            )
            self.halt()
            return out
        return {}

    def output(self):
        return self.partner


def distributed_greedy_matching(
    graph: nx.Graph, seed: int = 0, model: str = "congest"
) -> tuple[set, NetworkMetrics]:
    """Randomized maximal matching via mutual proposals.

    Returns (matching as frozenset pairs, metrics); verified maximal.
    """
    n = graph.number_of_nodes()
    horizon = 40 * max(4, n.bit_length() ** 2)
    rng = random.Random(seed)
    inputs = {v: rng.randrange(1 << 30) for v in graph.nodes}
    net = Network(graph, model=model)
    outputs = net.run(ProposalMatchingAlgorithm(horizon),
                      max_rounds=horizon + 2, inputs=inputs)
    matching = set()
    for v, partner in outputs.items():
        if partner is not None:
            if outputs.get(partner) != v:
                raise AssertionError("asymmetric match")
            matching.add(frozenset((v, partner)))
    matched = {v for edge in matching for v in edge}
    for u, v in graph.edges:
        if u not in matched and v not in matched:
            raise AssertionError("matching not maximal")
    return matching, net.metrics


class TrialColoringAlgorithm(NodeAlgorithm):
    """Randomized (Δ+1)-colouring: uncoloured vertices try a random colour
    not used by coloured neighbours; keep it if no uncoloured neighbour
    tried the same colour this phase."""

    # Payloads are (kind, colour) over a palette of ≤ Δ+1 colours: memoize
    # the messages class-wide so each distinct payload is constructed and
    # sized once per process, not once per vertex per phase.
    _shared_messages: dict = {}

    @classmethod
    def _coloring_message(cls, kind: int, color: int) -> Message:
        key = (kind, color)
        message = cls._shared_messages.get(key)
        if message is None:
            message = cls._shared_messages[key] = Message(key)
        return message

    def __init__(self, palette_size: int, horizon: int) -> None:
        super().__init__()
        self.palette_size = palette_size
        self.horizon = horizon
        self.rng: random.Random | None = None
        self.color: int | None = None
        self.trial: int | None = None
        self.neighbor_colors: dict = {}

    def spawn(self) -> "TrialColoringAlgorithm":
        return TrialColoringAlgorithm(self.palette_size, self.horizon)

    def initialize(self, ctx: NodeContext) -> None:
        self.rng = random.Random(self.input)

    def on_round(self, ctx: NodeContext, inbox: Mapping[Any, Message]):
        if ctx.round_number > self.horizon:
            raise RuntimeError("coloring exceeded horizon")
        conflict = False
        for sender, message in inbox.items():
            kind, value = message.payload
            if kind == 1:
                self.neighbor_colors[sender] = value
            elif kind == 0 and self.color is None and value == self.trial:
                conflict = True
        # A neighbour may have *finalized* our trial colour this phase.
        if self.trial is not None and self.trial in set(
            self.neighbor_colors.values()
        ):
            conflict = True
        if self.color is None and self.trial is not None and not conflict:
            self.color = self.trial
            self.halt()
            return Broadcast(self._coloring_message(1, self.color))
        if self.color is not None:
            self.halt()
            return {}
        taken = set(self.neighbor_colors.values())
        available = [c for c in range(self.palette_size) if c not in taken]
        self.trial = self.rng.choice(available)
        return Broadcast(self._coloring_message(0, self.trial))

    def output(self):
        return self.color


class ColumnarTrialColoring(ColumnarAlgorithm):
    """Trial-colouring as a round-vectorized columnar program.

    Exact port of :class:`TrialColoringAlgorithm` — same RNG streams
    (``rng.choice`` over the ascending available-colour list), same
    ``(kind, colour)`` payloads, same finalize/draw transitions.  The
    per-edge work is vectorized: finalized neighbour colours land in an
    ``n × palette`` bitmask with one fancy-indexed scatter, and the
    same-trial conflict check is a segmented ``any`` — no Python inbox
    iteration.  The per-vertex trial draw stays Python (O(uncoloured ×
    palette) per round, like the original's local computation) in exact
    mode; under ``rng="vectorized"`` one Philox uniform column ranks
    into each drawer's ascending available-colour list via a row-wise
    cumulative sum — the same candidate sets, drawn without any
    per-vertex Python.
    """

    spec = ColumnarSpec(("kind", np.uint8), ("value", np.uint32))
    # All state is dense arrays keyed by grid row (the taken-colour
    # bitmask included), so trial-major grid batching applies.
    grid_safe = True
    rng_modes = ("exact", "vectorized")

    def __init__(self, palette_size: int, horizon: int) -> None:
        self.palette_size = palette_size
        self.horizon = horizon

    def spawn(self) -> "ColumnarTrialColoring":
        return ColumnarTrialColoring(self.palette_size, self.horizon)

    def setup(self, ctx: ColumnarContext) -> None:
        n = ctx.n
        self.color = np.full(n, -1, dtype=np.int64)
        self.trial = np.full(n, -1, dtype=np.int64)
        # taken[v, c] — a neighbour of v has *finalized* colour c;
        # taken_count tracks distinct finalized colours per row so
        # conflict-free vertices can draw from the shared full palette
        # without scanning their row.
        self.taken = np.zeros((n, max(1, self.palette_size)), dtype=bool)
        self.taken_count = np.zeros(n, dtype=np.int64)
        self.full_palette = list(range(self.palette_size))
        self.vertex_ids = np.arange(n)

    def on_round(self, ctx: ColumnarContext) -> None:
        if ctx.round_number > self.horizon:
            raise RuntimeError("coloring exceeded horizon")
        stepped = ~ctx.halted
        kinds = ctx.inbox.column("kind")
        values = ctx.inbox.column("value").astype(np.int64)
        finalized = kinds == 1
        if finalized.any():
            receivers = ctx.inbox.receivers()
            touched = receivers[finalized]
            colors = values[finalized]
            # Byzantine corruption can push a colour outside the
            # palette; an out-of-range colour can never block or
            # conflict (trials stay in-palette), so drop it rather
            # than overrun the bitmask.
            in_palette = colors < self.palette_size
            touched, colors = touched[in_palette], colors[in_palette]
            if touched.size:
                self.taken[touched, colors] = True
                rows = np.unique(touched)
                self.taken_count[rows] = self.taken[rows].sum(axis=1)
        has_trial = self.trial >= 0
        # Conflict (a): an uncoloured neighbour tried the same colour.
        trial_of_receiver = self.trial[ctx.inbox.receivers()]
        conflict = ctx.reduce_neighbors(
            "any", (kinds == 0) & (values == trial_of_receiver)
        )
        # Conflict (b): a neighbour finalized our trial colour.
        guarded_trial = np.where(has_trial, self.trial, 0)
        conflict |= has_trial & self.taken[self.vertex_ids, guarded_trial]
        uncolored = self.color < 0
        finalize = stepped & uncolored & has_trial & ~conflict
        if finalize.any():
            idx = np.flatnonzero(finalize)
            self.color[idx] = self.trial[idx]
            ctx.emit_columns(idx, kind=1, value=self.color[idx])
            ctx.halt(finalize)
        drawers = np.flatnonzero(stepped & (self.color < 0))
        if drawers.size:
            if ctx.rng.vectorized:
                self._draw_vectorized(ctx, drawers)
            else:
                self._draw_exact(ctx, drawers)
            ctx.emit_columns(drawers, kind=0, value=self.trial[drawers])

    def _draw_exact(self, ctx: ColumnarContext, drawers) -> None:
        rngs = ctx.rng.streams
        trial = self.trial
        taken = self.taken
        full = self.full_palette
        constrained = self.taken_count
        # Vertices with no finalized neighbour colour draw from the
        # shared full palette — identical RNG stream to the object
        # plane's per-vertex ``[c for c in range(palette) …]`` list
        # (same length ⇒ same ``choice`` draw), without a row scan.
        for i in drawers.tolist():
            if constrained[i]:
                # Byzantine senders can finalize several colours
                # each and exhaust the (Δ+1) palette — impossible
                # fault-free; retry from the full palette rather
                # than crash on an empty draw.
                available = np.flatnonzero(~taken[i]).tolist() or full
            else:
                available = full
            trial[i] = rngs[i].choice(available)

    def _draw_vectorized(self, ctx: ColumnarContext, drawers) -> None:
        # One uniform column ranks into each drawer's ascending
        # available-colour list: pick the k-th free colour where
        # k = ⌊u · |available|⌋, via a row-wise cumulative sum over the
        # taken bitmask.  Same candidate sets as the exact loop
        # (including the Byzantine full-palette retry), zero per-vertex
        # Python.
        avail = ~self.taken[drawers]
        counts = self.palette_size - self.taken_count[drawers]
        exhausted = counts <= 0
        if exhausted.any():
            avail[exhausted] = True
            counts = np.where(exhausted, avail.shape[1], counts)
        u = ctx.rng.uniform_rows(ctx.round_number, drawers)
        picks = np.minimum((u * counts).astype(np.int64), counts - 1)
        cumulative = np.cumsum(avail, axis=1)
        self.trial[drawers] = np.argmax(
            cumulative == (picks + 1)[:, None], axis=1
        )

    def outputs(self, ctx: ColumnarContext) -> list:
        return [None if c < 0 else c for c in self.color.tolist()]


_COLORING_VARIANTS = {
    "object": TrialColoringAlgorithm,
    "columnar": ColumnarTrialColoring,
}


def delta_plus_one_coloring(
    graph: nx.Graph, seed: int = 0, model: str = "congest",
    plane: str = "dict",
) -> tuple[dict, NetworkMetrics]:
    """Randomized (Δ+1)-colouring; returns ({v: colour}, metrics).

    ``plane`` is a runtime registry name (``"columnar"`` runs the
    vectorized :class:`ColumnarTrialColoring` port — identical outputs
    and metrics).  Verified proper before returning.
    """
    delta = max((d for _, d in graph.degree), default=0)
    n = graph.number_of_nodes()
    horizon = 40 * max(4, n.bit_length() ** 2)
    rng = random.Random(seed)
    inputs = {v: rng.randrange(1 << 30) for v in graph.nodes}
    net = Network(graph, model=model)
    algorithm = variant_for_plane(_COLORING_VARIANTS, plane)(
        delta + 1, horizon
    )
    outputs = net.run(
        algorithm, max_rounds=horizon + 2, inputs=inputs, plane=plane
    )
    for u, v in graph.edges:
        if outputs[u] == outputs[v]:
            raise AssertionError("coloring not proper")
    if any(color is None for color in outputs.values()):
        raise AssertionError("some vertex uncoloured")
    return outputs, net.metrics
