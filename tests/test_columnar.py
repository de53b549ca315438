"""The columnar message plane: schema, reductions, executors, and ports.

Three layers of coverage:

* unit — ``ColumnarSpec`` typing/overflow rejection, the vectorized
  bit-sizing vs the scalar ``bits_for_payload`` oracle, segmented
  reductions (empty segments, ``where`` masks, argmin ties), per-vertex
  inbox views;
* differential — the fast array executor vs the per-message reference
  executor (``Network._run_reference`` on a ``ColumnarAlgorithm``), and
  the ported classics vs their object-plane originals: identical outputs
  (values *and* vertex order) and identical ``NetworkMetrics``;
* contract — validation errors (non-neighbour sends, bandwidth
  violations) match the object plane's types and texts, including the
  partially-counted round an exception leaves behind.
"""

from __future__ import annotations

import random
from dataclasses import astuple

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.congest import (
    BandwidthExceededError,
    ColumnarAlgorithm,
    ColumnarSpec,
    Network,
    Trial,
    VarColumn,
    bits_for_payload,
    run_many,
)
from repro.congest.algorithms import (
    BFSTreeAlgorithm,
    BroadcastAlgorithm,
    ColumnarBFSTree,
    ColumnarConvergecastSum,
    ColumnarFloodValue,
    ConvergecastSumAlgorithm,
    bfs_tree,
)
from repro.congest.classic import (
    ColumnarLubyMIS,
    ColumnarTrialColoring,
    LubyMISAlgorithm,
    TrialColoringAlgorithm,
    delta_plus_one_coloring,
    luby_mis,
)
from repro.congest.cluster_sim import (
    _cluster_bfs_inputs,
    distributed_boundary_tables,
)
from repro.congest import columnar as columnar_module
from repro.congest.columnar import ColumnarInbox
from repro.congest.message import bit_length_array, bits_for_int_array
from repro.congest.runtime.compile import compile_edge_stream, compile_topology
from repro.graphs import triangulated_grid


def metrics_tuple(metrics):
    return (
        metrics.rounds,
        metrics.messages,
        metrics.total_bits,
        metrics.max_edge_bits_in_round,
    )


# ---------------------------------------------------------------------------
# Spec + bit sizing
# ---------------------------------------------------------------------------
class TestColumnarSpec:
    def test_rejects_non_integer_dtypes(self):
        with pytest.raises(TypeError, match="fixed-width integer"):
            ColumnarSpec(("x", np.float64))
        with pytest.raises(TypeError, match="fixed-width integer"):
            ColumnarSpec(("x", object))

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError, match="duplicate"):
            ColumnarSpec(("x", np.uint8), ("x", np.uint16))
        with pytest.raises(ValueError, match="at least one"):
            ColumnarSpec()

    def test_overflow_rejection_names_field_and_value(self):
        spec = ColumnarSpec(("level", np.uint16))
        with pytest.raises(ValueError, match="'level'.*70000.*uint16"):
            spec.check_range("level", np.array([1, 70000]))
        with pytest.raises(ValueError, match="-1"):
            spec.check_range("level", np.array([-1, 5]))
        spec.check_range("level", np.array([0, 65535]))  # in range: fine

    def test_bit_length_matches_python(self):
        values = list(range(70)) + [2**k + d for k in range(8, 62, 7)
                                    for d in (-1, 0, 1)]
        # Every power-of-two boundary, and the largest int64.
        values += [2**k + d for k in range(1, 63) for d in (-1, 0)]
        values.append(2**63 - 1)
        got = bit_length_array(np.array(values, dtype=np.int64))
        assert got.tolist() == [v.bit_length() for v in values]

    def test_bits_for_int_array_matches_oracle(self):
        values = [0, 1, -1, 7, -7, 255, -256, 2**40, -(2**40),
                  2**63 - 1, -(2**63) + 1, -(2**63)]  # incl. int64 min
        got = bits_for_int_array(np.array(values, dtype=np.int64))
        assert got.tolist() == [bits_for_payload(v) for v in values]

    def test_bits_of_matches_payload_oracle(self):
        rng = random.Random(7)
        single = ColumnarSpec(("v", np.int64))
        pair = ColumnarSpec(("kind", np.uint8), ("value", np.int32))
        vs = [rng.randrange(-(1 << 40), 1 << 40) for _ in range(200)]
        got = single.bits_of({"v": np.array(vs, dtype=np.int64)})
        assert got.tolist() == [bits_for_payload(v) for v in vs]
        kinds = [rng.randrange(4) for _ in range(200)]
        colors = [rng.randrange(-50, 50) for _ in range(200)]
        got = pair.bits_of({
            "kind": np.array(kinds, dtype=np.int64),
            "value": np.array(colors, dtype=np.int64),
        })
        assert got.tolist() == [
            bits_for_payload((k, c)) for k, c in zip(kinds, colors)
        ]


class TestVarColumnSpec:
    def test_layout_interleaves_fixed_and_var(self):
        spec = ColumnarSpec(("a", np.uint8), VarColumn("t"),
                            ("b", np.int32))
        assert spec.names == ("a", "b")
        assert spec.var_names == ("t",)
        assert spec.layout == (
            ("fixed", "a"), ("var", "t"), ("fixed", "b"),
        )
        assert "t:var" in repr(spec)

    def test_duplicate_var_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ColumnarSpec(("x", np.uint8), VarColumn("x"))
        with pytest.raises(ValueError, match="duplicate"):
            ColumnarSpec(VarColumn("x"), VarColumn("x"))

    def test_payload_of_nests_var_tuples(self):
        spec = ColumnarSpec(("kind", np.uint8), VarColumn("ids"))
        assert spec.payload_of((3,), {"ids": (1, 2)}) == (3, (1, 2))
        solo = ColumnarSpec(VarColumn("ids"))
        assert solo.payload_of((), {"ids": (4, 5, 6)}) == (4, 5, 6)
        assert solo.payload_of((), {"ids": ()}) == ()

    def test_var_bits_match_payload_oracle(self):
        rng = random.Random(3)
        solo = ColumnarSpec(VarColumn("ids"))
        mixed = ColumnarSpec(("kind", np.uint8), VarColumn("ids"))
        sequences = [
            tuple(rng.randrange(-(1 << 30), 1 << 30)
                  for _ in range(rng.randrange(6)))
            for _ in range(60)
        ]
        lengths = np.array([len(s) for s in sequences], dtype=np.int64)
        pool = np.array(
            [v for s in sequences for v in s], dtype=np.int64
        )
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        got = solo.bits_of({}, {"ids": (pool, indptr)})
        # A lone empty sequence is the 1-bit Message minimum.
        assert got.tolist() == [
            bits_for_payload(s) or 1 for s in sequences
        ]
        kinds = np.array([rng.randrange(4) for _ in sequences],
                         dtype=np.int64)
        got = mixed.bits_of({"kind": kinds}, {"ids": (pool, indptr)})
        assert got.tolist() == [
            bits_for_payload((int(k), s))
            for k, s in zip(kinds, sequences)
        ]

    def test_bits_of_requires_var_data(self):
        spec = ColumnarSpec(VarColumn("ids"))
        with pytest.raises(ValueError, match="var_data"):
            spec.bits_of({})


class VarRelay(ColumnarAlgorithm):
    """Round 1: vertex 0 broadcasts a ragged payload per the test's
    wishes; round 2: everyone reads it back and halts."""

    spec = ColumnarSpec(("tag", np.uint8), VarColumn("vals"))

    def __init__(self, emit):
        self.emit = emit

    def spawn(self):
        return type(self)(self.emit)

    def setup(self, ctx):
        self.seen = [None] * ctx.n

    def on_round(self, ctx):
        stepped = ~ctx.halted
        if ctx.round_number == 1:
            self.emit(ctx)
            return
        pool, vertex_indptr = ctx.gather_var("vals")
        for i in range(ctx.n):
            start, stop = int(vertex_indptr[i]), int(vertex_indptr[i + 1])
            self.seen[i] = (
                ctx.inbox.column("tag")[
                    ctx.inbox.indptr[i]:ctx.inbox.indptr[i + 1]
                ].tolist(),
                pool[start:stop].tolist(),
            )
        ctx.halt(stepped)

    def outputs(self, ctx):
        return self.seen


class TestVarEmission:
    def graph(self):
        return nx.path_graph(4)

    @pytest.mark.parametrize("reference", [False, True])
    def test_broadcast_fans_ragged_segments(self, reference):
        def emit(ctx):
            ctx.emit_var(
                np.array([0, 2]), tag=np.array([2, 1]),
                vals=(np.array([5, -3, 0], dtype=np.int64),
                      np.array([3, 0], dtype=np.int64)),
            )

        net = Network(self.graph())
        runner = net._run_reference if reference else net.run
        outputs = runner(VarRelay(emit))
        assert outputs[1] == ([2, 1], [5, -3, 0])
        assert outputs[3] == ([1], [])
        # bits: (2, (5,-3,0)) once to vertex 1; (1, ()) to vertices 1, 3
        expected_bits = (
            bits_for_payload((2, (5, -3, 0)))
            + 2 * bits_for_payload((1, ()))
        )
        assert net.metrics.messages == 3
        assert net.metrics.total_bits == expected_bits

    @pytest.mark.parametrize("reference", [False, True])
    def test_unicast_list_of_sequences_form(self, reference):
        def emit(ctx):
            ctx.emit_var(
                np.array([1, 1]), np.array([0, 2]),
                tag=np.array([7, 7]), vals=[[9, 9, 9], []],
            )

        net = Network(self.graph())
        runner = net._run_reference if reference else net.run
        outputs = runner(VarRelay(emit))
        assert outputs[0] == ([7], [9, 9, 9])
        assert outputs[2] == ([7], [])

    def test_tuple_of_sequences_is_per_row_not_pool(self):
        # A 2-tuple of plain sequences is two per-row sequences — even
        # when the lengths would coincidentally balance as a
        # (pool, lengths) pair; only a pair of numpy arrays selects the
        # pool fast path.
        def emit(ctx):
            ctx.emit_var(np.array([1, 1]), np.array([0, 2]),
                         tag=np.array([7, 7]), vals=([0, 5], [2, 0]))

        net = Network(self.graph())
        outputs = net.run(VarRelay(emit))
        assert outputs[0] == ([7], [0, 5])
        assert outputs[2] == ([7], [2, 0])

    def test_emit_columns_refuses_var_specs(self):
        def emit(ctx):
            ctx.emit_columns(np.array([0]), tag=1, vals=[[1]])

        with pytest.raises(ValueError, match="emit_var"):
            Network(self.graph()).run(VarRelay(emit))

    def test_length_pool_mismatch_rejected(self):
        def emit(ctx):
            ctx.emit_var(
                np.array([0]), tag=1,
                vals=(np.array([1, 2], dtype=np.int64),
                      np.array([3], dtype=np.int64)),
            )

        with pytest.raises(ValueError, match="lengths sum"):
            Network(self.graph()).run(VarRelay(emit))

    def test_float_pool_rejected(self):
        def emit(ctx):
            ctx.emit_var(
                np.array([0]), tag=1,
                vals=(np.array([1.5]), np.array([1], dtype=np.int64)),
            )

        with pytest.raises(TypeError, match="integers or bools"):
            Network(self.graph()).run(VarRelay(emit))

    def test_gather_var_where_mask(self):
        collected = {}

        class Masked(VarRelay):
            def on_round(self, ctx):
                stepped = ~ctx.halted
                if ctx.round_number == 1:
                    ctx.emit_var(
                        np.array([0, 2]), tag=np.array([0, 1]),
                        vals=[[4, 4], [6]],
                    )
                    return
                mask = ctx.inbox.column("tag") == 1
                pool, vindptr = ctx.gather_var("vals", where=mask)
                collected["pool"] = pool.tolist()
                collected["indptr"] = vindptr.tolist()
                ctx.halt(stepped)

        Network(self.graph()).run(Masked(lambda ctx: None))
        # Vertex 1 hears both broadcasts but only sender 2's tagged one
        # survives the mask; vertex 3 hears sender 2 only.
        assert collected["pool"] == [6, 6]
        assert collected["indptr"] == [0, 0, 1, 1, 2]
def make_inbox():
    """4 vertices; vertex 0: values (5, 3), vertex 1: empty,
    vertex 2: (3, 3, 9), vertex 3: (7,)."""
    spec = ColumnarSpec(("value", np.int32))
    return ColumnarInbox(
        4,
        np.array([10, 11, 12, 13, 14, 15], dtype=np.int64),
        np.array([0, 2, 2, 5, 6], dtype=np.int64),
        {"value": np.array([5, 3, 3, 3, 9, 7], dtype=np.int32)},
    )


class TestReductions:
    def test_min_max_sum_count_with_empty_segments(self):
        inbox = make_inbox()
        assert inbox.reduce("sum", "value").tolist() == [8, 0, 15, 7]
        assert inbox.reduce("count").tolist() == [2, 0, 3, 1]
        assert inbox.reduce("min", "value", empty=-1).tolist() == [3, -1, 3, 7]
        assert inbox.reduce("max", "value", empty=-1).tolist() == [5, -1, 9, 7]

    def test_any(self):
        inbox = make_inbox()
        got = inbox.reduce("any", inbox.column("value") == 3)
        assert got.tolist() == [True, False, True, False]

    def test_argmin_breaks_ties_toward_first_message(self):
        inbox = make_inbox()
        arg = inbox.reduce("argmin", "value")
        assert arg.tolist() == [1, -1, 2, 5]  # vertex 2: first of the two 3s
        senders = inbox.senders
        assert senders[arg[0]] == 11 and senders[arg[2]] == 12

    def test_where_mask_filters_and_maps_back(self):
        inbox = make_inbox()
        mask = inbox.column("value") != 3
        assert inbox.reduce("sum", "value", where=mask).tolist() == [5, 0, 9, 7]
        assert inbox.reduce("count", where=mask).tolist() == [1, 0, 1, 1]
        arg = inbox.reduce("argmin", "value", where=mask)
        # Indices refer to the *unfiltered* inbox.
        assert arg.tolist() == [0, -1, 4, 5]

    def test_empty_inbox_defaults(self):
        spec = ColumnarSpec(("value", np.int32))
        inbox = ColumnarInbox.empty(3, spec)
        assert inbox.reduce("sum", "value").tolist() == [0, 0, 0]
        assert inbox.reduce("argmax", "value").tolist() == [-1, -1, -1]
        assert inbox.reduce("any", inbox.column("value") > 0).tolist() == [
            False, False, False,
        ]

    def test_for_vertex_views(self):
        inbox = make_inbox()
        view = inbox.for_vertex(2)
        assert view["senders"].tolist() == [12, 13, 14]
        assert view["value"].tolist() == [3, 3, 9]
        assert inbox.for_vertex(1)["senders"].size == 0
        # Zero-copy: the view aliases the global columns.
        assert view["value"].base is inbox.column("value")


# ---------------------------------------------------------------------------
# Executor contract: validation errors + partial-round accounting
# ---------------------------------------------------------------------------
class BadSendAlgorithm(ColumnarAlgorithm):
    """Round 1: a legal unicast, then an illegal one (non-neighbour)."""

    spec = ColumnarSpec(("value", np.uint16))

    def on_round(self, ctx):
        ctx.emit_columns(
            np.array([0, 0]), np.array([1, 3]), value=np.array([9, 9])
        )
        ctx.halt(~ctx.halted)


class BigMessageAlgorithm(ColumnarAlgorithm):
    """Broadcasts a 126-bit payload — over the 64-bit CONGEST budget of a
    4-vertex network, legal in LOCAL."""

    spec = ColumnarSpec(("high", np.int64), ("low", np.int64))

    def on_round(self, ctx):
        ctx.emit_columns(np.array([0]), high=1 << 60, low=1 << 60)
        ctx.halt(~ctx.halted)


class TestExecutorContract:
    def graph(self):
        return nx.path_graph(4)  # 0-1-2-3: 0 and 3 are not adjacent

    @pytest.mark.parametrize("reference", [False, True])
    def test_non_neighbor_send_matches_object_plane_error(self, reference):
        net = Network(self.graph())
        runner = net._run_reference if reference else net.run
        with pytest.raises(ValueError, match=r"node 0 sent to non-neighbor 3"):
            runner(BadSendAlgorithm())
        # The legal message validated before the offending one is counted,
        # exactly like the object plane's partial round.
        assert net.metrics.messages == 1
        assert net.metrics.total_bits == 4  # bits_for_payload(9)

    @pytest.mark.parametrize("reference", [False, True])
    def test_bandwidth_violation_matches_object_plane_error(self, reference):
        net = Network(self.graph(), model="congest")
        runner = net._run_reference if reference else net.run
        with pytest.raises(BandwidthExceededError, match="exceeds CONGEST"):
            runner(BigMessageAlgorithm())
        assert net.metrics.messages == 0
        net = Network(self.graph(), model="local")
        runner = net._run_reference if reference else net.run
        runner(BigMessageAlgorithm())  # LOCAL: unbounded, no raise
        assert net.metrics.messages == 1

    def test_overflow_rejected_at_emit_time(self):
        class Overflower(ColumnarAlgorithm):
            spec = ColumnarSpec(("value", np.uint8))

            def on_round(self, ctx):
                ctx.emit_columns(np.array([0]), value=300)

        with pytest.raises(ValueError, match="'value'.*300.*uint8"):
            Network(self.graph()).run(Overflower())

    def test_emission_field_mismatch_rejected(self):
        class WrongFields(ColumnarAlgorithm):
            spec = ColumnarSpec(("value", np.uint8))

            def on_round(self, ctx):
                ctx.emit_columns(np.array([0]), other=1)

        with pytest.raises(ValueError, match="do not match spec"):
            Network(self.graph()).run(WrongFields())

    def test_float_field_values_rejected(self):
        class Floaty(ColumnarAlgorithm):
            spec = ColumnarSpec(("value", np.uint8))

            def on_round(self, ctx):
                ctx.emit_columns(np.array([0]), value=np.array([1.5]))

        with pytest.raises(TypeError, match="integers or bools"):
            Network(self.graph()).run(Floaty())

    def test_max_rounds_exhaustion(self):
        class NeverHalts(ColumnarAlgorithm):
            spec = ColumnarSpec(("value", np.uint8))

            def on_round(self, ctx):
                pass

        with pytest.raises(RuntimeError, match="did not halt within 5"):
            Network(self.graph()).run(NeverHalts(), max_rounds=5)

    def test_spec_required(self):
        class SpecLess(ColumnarAlgorithm):
            def on_round(self, ctx):
                ctx.halt(~ctx.halted)

        with pytest.raises(TypeError, match="ColumnarSpec"):
            Network(self.graph()).run(SpecLess())


# ---------------------------------------------------------------------------
# Ported classics: byte-identical to the object plane
# ---------------------------------------------------------------------------
GRAPHS = [
    ("path", nx.path_graph(11)),
    ("star", nx.star_graph(7)),
    ("grid", triangulated_grid(5, 5)),
    ("expander", nx.random_regular_graph(4, 26, seed=3)),
    ("disconnected", nx.disjoint_union(nx.path_graph(5), nx.cycle_graph(6))),
    ("isolated", nx.empty_graph(4)),
]


def assert_all_planes_agree(graph, make_object, make_columnar, inputs,
                            max_rounds):
    """object engine == object reference == columnar fast == columnar
    reference, on outputs, output order, and metrics."""
    runs = []
    for make, runner_name in (
        (make_object, "run"),
        (make_object, "_run_reference"),
        (make_columnar, "run"),
        (make_columnar, "_run_reference"),
    ):
        net = Network(graph)
        outputs = getattr(net, runner_name)(
            make(), max_rounds=max_rounds, inputs=inputs
        )
        runs.append((outputs, metrics_tuple(net.metrics)))
    baseline_outputs, baseline_metrics = runs[0]
    for outputs, metrics in runs[1:]:
        assert outputs == baseline_outputs
        assert list(outputs) == list(baseline_outputs)
        assert metrics == baseline_metrics


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[g[0] for g in GRAPHS])
def test_columnar_mis_identical(name, graph):
    n = graph.number_of_nodes()
    horizon = 20 * max(4, n.bit_length() ** 2)
    rng = random.Random(5)
    inputs = {v: rng.randrange(1 << 30) for v in graph.nodes}
    assert_all_planes_agree(
        graph,
        lambda: LubyMISAlgorithm(horizon),
        lambda: ColumnarLubyMIS(horizon),
        inputs,
        horizon + 2,
    )


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[g[0] for g in GRAPHS])
def test_columnar_coloring_identical(name, graph):
    n = graph.number_of_nodes()
    delta = max((d for _, d in graph.degree), default=0)
    horizon = 40 * max(4, n.bit_length() ** 2)
    rng = random.Random(11)
    inputs = {v: rng.randrange(1 << 30) for v in graph.nodes}
    assert_all_planes_agree(
        graph,
        lambda: TrialColoringAlgorithm(delta + 1, horizon),
        lambda: ColumnarTrialColoring(delta + 1, horizon),
        inputs,
        horizon + 2,
    )


@pytest.mark.parametrize("name,graph", GRAPHS, ids=[g[0] for g in GRAPHS])
def test_columnar_bfs_and_flood_identical(name, graph):
    n = graph.number_of_nodes()
    root = min(graph.nodes, key=repr)
    assert_all_planes_agree(
        graph,
        lambda: BFSTreeAlgorithm(root, n + 2),
        lambda: ColumnarBFSTree(root, n + 2),
        None,
        n + 4,
    )
    assert_all_planes_agree(
        graph,
        lambda: BroadcastAlgorithm(root, 54321, n + 2),
        lambda: ColumnarFloodValue(root, 54321, n + 2),
        None,
        n + 4,
    )


def test_columnar_convergecast_identical():
    graph = nx.random_regular_graph(4, 24, seed=9)
    root = min(graph.nodes)
    tree, _ = bfs_tree(graph, root)
    children: dict = {v: [] for v in tree}
    for v, (parent, _depth) in tree.items():
        if v != root:
            children[parent].append(v)
    inputs = {
        v: (
            None if v == root else tree[v][0],
            tuple(children.get(v, ())),
            3 * v + 1,
        )
        for v in tree
    }
    horizon = graph.number_of_nodes() + 2
    assert_all_planes_agree(
        graph,
        lambda: ConvergecastSumAlgorithm(horizon),
        lambda: ColumnarConvergecastSum(horizon),
        inputs,
        horizon + 2,
    )


def test_wrappers_accept_plane_argument():
    graph = triangulated_grid(5, 5)
    mis_dict, metrics_dict = luby_mis(graph, seed=2)
    mis_col, metrics_col = luby_mis(graph, seed=2, plane="columnar")
    assert mis_dict == mis_col
    assert metrics_tuple(metrics_dict) == metrics_tuple(metrics_col)
    colors_dict, cm_dict = delta_plus_one_coloring(graph, seed=2)
    colors_col, cm_col = delta_plus_one_coloring(
        graph, seed=2, plane="columnar"
    )
    assert colors_dict == colors_col
    assert metrics_tuple(cm_dict) == metrics_tuple(cm_col)
    tree_dict, tm_dict = bfs_tree(graph, next(iter(graph.nodes)))
    tree_col, tm_col = bfs_tree(
        graph, next(iter(graph.nodes)), plane="columnar"
    )
    assert tree_dict == tree_col
    assert metrics_tuple(tm_dict) == metrics_tuple(tm_col)


# ---------------------------------------------------------------------------
# Cluster announcements (cluster_sim's columnar component)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("buckets", [2, 5])
def test_distributed_boundary_tables_match_central(buckets):
    graph = triangulated_grid(6, 6)
    assignment = {v: i % buckets for i, v in enumerate(graph.nodes)}
    tables, metrics = distributed_boundary_tables(graph, assignment)
    central = _cluster_bfs_inputs(graph, assignment)
    for v in graph.nodes:
        assert tables[v] == dict(central[v][3])
    assert metrics.rounds == 2
    assert metrics.messages == 2 * graph.number_of_edges()
    assert metrics.max_edge_bits_in_round <= Network(graph).bandwidth_bits


# ---------------------------------------------------------------------------
# run_many integration + buffer release
# ---------------------------------------------------------------------------
def test_run_many_accepts_columnar_algorithms():
    graph = triangulated_grid(4, 4)
    n = graph.number_of_nodes()
    horizon = 20 * max(4, n.bit_length() ** 2)
    rng = random.Random(3)
    trials = [
        Trial(
            graph,
            inputs={v: rng.randrange(1 << 30) for v in graph.nodes},
            max_rounds=horizon + 2,
        )
        for _ in range(4)
    ]
    columnar = run_many(ColumnarLubyMIS(horizon), trials, processes=1)
    replayed = run_many(LubyMISAlgorithm(horizon), trials, processes=1)
    for (out_c, metrics_c), (out_d, metrics_d) in zip(columnar, replayed):
        assert out_c == out_d
        assert metrics_tuple(metrics_c) == metrics_tuple(metrics_d)


def test_run_many_releases_pooled_inboxes():
    from repro.congest.runtime import scheduler

    graph_a = nx.path_graph(6)
    graph_b = nx.cycle_graph(7)
    horizon = 20 * 16
    rng = random.Random(1)

    def trial(graph):
        return Trial(
            graph,
            inputs={v: rng.randrange(1 << 30) for v in graph.nodes},
            max_rounds=horizon + 2,
        )

    run_many(
        LubyMISAlgorithm(horizon),
        [trial(graph_a), trial(graph_a), trial(graph_b)],
        processes=1,
    )
    # The sweep's finally released every pooled buffer pair.
    assert len(scheduler._INBOX_POOL) == 0
    # A plain run leaves its (empty) buffers pooled for the next run...
    net = Network(graph_a)
    net.run(LubyMISAlgorithm(horizon), max_rounds=horizon + 2,
            inputs={v: 9 + v for v in graph_a.nodes})
    assert len(scheduler._INBOX_POOL) == 1
    pooled_read, pooled_fill = next(iter(scheduler._INBOX_POOL.values()))
    assert all(not box for box in pooled_read)
    assert all(not box for box in pooled_fill)
    # ...and an explicit release drops them.
    scheduler.release_round_buffers()
    assert len(scheduler._INBOX_POOL) == 0


# ---------------------------------------------------------------------------
# Sort-free broadcast delivery: the cached transpose vs the sort path
# ---------------------------------------------------------------------------
#: Emission shapes per round.  Only ``sorted`` (and ``oversized``, until
#: it raises) can take the kernel; every other shape must fall back.
SHAPES = ("sorted", "unsorted", "duplicate", "groups", "mixed", "oversized")


class ScriptedTraffic(ColumnarAlgorithm):
    """Replays one emission shape per round, from a sender set drawn per
    round by hashing each vertex's input (so the script is grid-safe),
    and records every inbox it is delivered.  Outputs: per vertex, the
    ``(sender vertex, payload...)`` rows it received, round by round."""

    grid_safe = True
    FIXED = ColumnarSpec(("kind", np.uint8), ("value", np.int64))
    VAR = ColumnarSpec(("kind", np.uint8), VarColumn("vals"))

    def __init__(self, script, var=False, sink=None):
        self.script = script  # ((shape, density per mille), ...) per round
        self.var = var
        self.sink = sink
        self.spec = self.VAR if var else self.FIXED

    def spawn(self):
        instance = type(self)(self.script, self.var, self.sink)
        if self.sink is not None:
            self.sink.append(instance)
        return instance

    def setup(self, ctx):
        self.key = np.array(ctx.inputs, dtype=np.int64)
        self.received = [[] for _ in range(ctx.n)]
        self.inboxes = []

    def record(self, ctx):
        inbox = ctx.inbox
        columns = {name: col.tolist() for name, col in inbox.columns.items()}
        self.inboxes.append((
            inbox.senders.tolist(), inbox.indptr.tolist(), columns,
            [inbox.var(name)[0].tolist() for name in inbox.var_pools],
            (inbox.senders.dtype, inbox.indptr.dtype,
             tuple(col.dtype for col in inbox.columns.values())),
        ))
        senders = inbox.senders.tolist()
        indptr = inbox.indptr.tolist()
        for i in range(ctx.n):
            self.received[i].append(tuple(
                (ctx.vertices[senders[k]],
                 *(columns[name][k] for name in columns))
                for k in range(indptr[i], indptr[i + 1])
            ))

    def emit(self, ctx, senders, values, receivers=None):
        kinds = values % 2
        if self.var:
            # Short sequences of small values; an oversized value
            # travels as one huge element.
            ctx.emit_var(senders, receivers, kind=kinds, vals=[
                [v % 7] * (v % 3) if v < 200 else [v]
                for v in values.tolist()
            ])
        else:
            ctx.emit_columns(senders, receivers, kind=kinds, value=values)

    def on_round(self, ctx):
        self.record(ctx)
        r = ctx.round_number
        if r > len(self.script):
            ctx.halt(~ctx.halted)
            return
        shape, density = self.script[r - 1]
        draw = (self.key * 2654435761 + r * 40503) % 1000
        senders = np.flatnonzero((draw < density) & ~ctx.halted)
        values = (self.key[senders] + r) % 200
        if shape == "oversized":
            # Some senders' values exceed the CONGEST budget.
            values = np.where(draw[senders] % 5 == 0, 1 << 40, values)
        if shape == "unsorted":
            senders, values = senders[::-1], values[::-1]
        elif shape == "duplicate":
            senders = np.sort(np.concatenate(
                [senders, senders[draw[senders] % 3 == 0]]
            ))
            values = (self.key[senders] + r) % 200
        if shape == "groups":
            odd = draw[senders] % 2 == 1
            self.emit(ctx, senders[odd], values[odd])
            self.emit(ctx, senders[~odd], values[~odd])
        else:
            self.emit(ctx, senders, values)
        if shape == "mixed":
            degrees = np.asarray(ctx.degrees)[senders]
            talkers = senders[degrees > 0]
            self.emit(ctx, talkers, (self.key[talkers] + 1) % 200,
                      receivers=ctx.indices[ctx.indptr[talkers]])

    def outputs(self, ctx):
        return [tuple(rows) for rows in self.received]


def _run_plane(topology, script, var, inputs, plane, share, monkeypatch):
    """``(outputs, metrics, inboxes, error)`` of one single run, with the
    kernel's cost-model share set to ``share``."""
    monkeypatch.setattr(columnar_module, "_TRANSPOSE_SHARE_PER_PASS", share)
    sink = []
    net = Network(topology, bandwidth_factor=8)
    try:
        outputs = net.run(ScriptedTraffic(script, var, sink), plane=plane,
                          inputs=inputs, max_rounds=len(script) + 2)
        error = None
    except BandwidthExceededError as exc:
        outputs, error = None, str(exc)
    return outputs, astuple(net.metrics), sink[-1].inboxes, error


def _random_topology(kind, n, p, seed):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, 1)
    edges = np.argwhere(upper)
    if kind == "stream":
        return compile_edge_stream([edges], n)
    graph = nx.empty_graph(n)  # keeps isolated (zero-degree) vertices
    graph.add_edges_from(edges.tolist())
    return graph


scripts = st.lists(
    st.tuples(st.sampled_from(SHAPES),
              st.sampled_from([0, 30, 200, 600, 1000])),
    min_size=1, max_size=4,
)


@settings(max_examples=100, deadline=None)
@example(kind="nx", n=12, p=0.5, seed=3, script=[("oversized", 1000)],
         var=False)
@example(kind="stream", n=20, p=0.5, seed=1, script=[("sorted", 1000),
         ("oversized", 600)], var=False)
@given(
    kind=st.sampled_from(["nx", "stream"]),
    n=st.integers(min_value=4, max_value=28),
    p=st.sampled_from([0.05, 0.2, 0.5]),
    seed=st.integers(0, 10**6),
    script=scripts,
    var=st.booleans(),
)
def test_broadcast_kernel_matches_sort_path_and_reference(
    kind, n, p, seed, script, var,
):
    topology = _random_topology(kind, n, p, seed)
    inputs = {v: (v * 7919 + seed) % 100003 for v in range(n)}
    runs = [
        ("columnar", 0.0),  # the kernel whenever a round is eligible
        ("columnar", float("inf")),  # never: the sort path
        ("columnar", columnar_module._TRANSPOSE_SHARE_PER_PASS),
        ("columnar-reference", 0.0),
    ]
    with pytest.MonkeyPatch.context() as monkeypatch:
        kernel, sorted_, default, reference = [
            _run_plane(topology, tuple(script), var, inputs, plane, share,
                       monkeypatch)
            for plane, share in runs
        ]
    # Byte-identity with the sort path: inbox arrays *and* their dtypes,
    # outputs, every NetworkMetrics field, and the error text of an
    # oversized message (with the same partially counted round).
    assert kernel == sorted_ == default
    # The per-message reference: same values (its senders are int64).
    strip = [inbox[:4] for inbox in kernel[2]]
    assert strip == [inbox[:4] for inbox in reference[2]]
    assert kernel[:2] == reference[:2] and kernel[3] == reference[3]


@settings(max_examples=15, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=4, max_value=16), min_size=2,
                   max_size=3),
    seed=st.integers(0, 10**6),
    script=scripts.filter(
        lambda s: all(shape != "oversized" for shape, _ in s)
    ),
)
def test_grid_broadcast_kernel_matches_per_trial_reference(sizes, seed,
                                                           script):
    graphs = [
        _random_topology("nx", n, 0.3, seed + t) for t, n in enumerate(sizes)
    ]
    trials = [
        Trial(graph, inputs={v: (v * 31 + t) % 997 for v in graph.nodes},
              max_rounds=len(script) + 2, bandwidth_factor=8)
        for t, graph in enumerate(graphs)
    ]
    algorithm = ScriptedTraffic(tuple(script))
    results = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        for share in (0.0, float("inf")):
            monkeypatch.setattr(
                columnar_module, "_TRANSPOSE_SHARE_PER_PASS", share
            )
            results[share] = [
                (list(outputs.items()), astuple(metrics))
                for outputs, metrics in run_many(
                    algorithm, trials, processes=1, plane="grid")
            ]
    expected = []
    for trial in trials:
        net = Network(trial.graph, bandwidth_factor=8)
        outputs = net.run(algorithm, plane="columnar-reference",
                          inputs=trial.inputs, max_rounds=trial.max_rounds)
        expected.append((list(outputs.items()), astuple(net.metrics)))
    assert results[0.0] == results[float("inf")] == expected


class TestBroadcastKernel:
    def spy(self, monkeypatch):
        calls = []
        original = columnar_module._deliver_broadcast

        def spy(*args, **kwargs):
            calls.append(args[4])  # the round's senders
            return original(*args, **kwargs)

        monkeypatch.setattr(columnar_module, "_deliver_broadcast", spy)
        return calls

    @pytest.mark.parametrize("shape,taken", [
        ("sorted", True), ("unsorted", False), ("duplicate", False),
        ("groups", False), ("mixed", False),
    ])
    def test_dense_rounds_take_kernel_and_fallbacks_do_not(
        self, monkeypatch, shape, taken,
    ):
        calls = self.spy(monkeypatch)
        graph = nx.random_regular_graph(4, 30, seed=1)
        Network(graph).run(
            ScriptedTraffic(((shape, 1000),)),
            inputs={v: v for v in graph.nodes},
        )
        assert bool(calls) == taken

    def test_var_fields_sparse_rounds_and_faults_keep_sort_path(
        self, monkeypatch,
    ):
        from repro.congest.runtime.faults import FaultPlan

        calls = self.spy(monkeypatch)
        graph = nx.random_regular_graph(4, 30, seed=1)
        inputs = {v: v for v in graph.nodes}
        Network(graph).run(ScriptedTraffic((("sorted", 1000),), var=True),
                           inputs=inputs)
        Network(graph).run(ScriptedTraffic((("sorted", 30),)),
                           inputs=inputs)
        Network(graph).run(ScriptedTraffic((("sorted", 1000),)),
                           inputs=inputs, faults=FaultPlan())
        assert calls == []

    def test_zero_degree_oversized_sender_never_raises(self, monkeypatch):
        monkeypatch.setattr(columnar_module, "_TRANSPOSE_SHARE_PER_PASS", 0.0)

        class IsolatedGiant(ColumnarAlgorithm):
            spec = ColumnarSpec(("value", np.int64))

            def on_round(self, ctx):
                # Vertex 2 is isolated: its oversized payload has no copy.
                ctx.emit_columns(np.array([0, 2]),
                                 value=np.array([1, 1 << 60]))
                ctx.halt(~ctx.halted)

        graph = nx.empty_graph(3)
        graph.add_edge(0, 1)
        for plane in ("columnar", "columnar-reference"):
            net = Network(graph, bandwidth_factor=1)  # a 2-bit budget
            net.run(IsolatedGiant(), plane=plane)
            assert (net.metrics.messages, net.metrics.total_bits) == (1, 1)

    def test_transpose_is_cached_and_composed_per_block(self):
        from repro.congest.runtime.compile import GridTopology

        graph = nx.random_regular_graph(3, 10, seed=2)
        topology = compile_topology(graph)
        plane = topology.columnar_plane()
        t_senders, t_indptr = plane.broadcast_transpose
        assert plane.broadcast_transpose[0] is t_senders
        # Symmetric topology: in-CSR offsets are the CSR's own.
        assert t_indptr.tolist() == topology.indptr.tolist()
        for r in range(topology.n):
            segment = t_senders[t_indptr[r]:t_indptr[r + 1]].tolist()
            assert segment == sorted(topology.neighbor_index_tuples[r])
        grid = GridTopology([topology, topology])
        g_senders, g_indptr = grid.plane.broadcast_transpose
        assert g_senders.tolist() == (
            t_senders.tolist() + (t_senders + topology.n).tolist()
        )
        assert g_indptr.tolist() == grid.indptr.tolist()


def test_empty_inbox_keeps_narrowed_sender_dtype():
    """Empty and non-empty inboxes of an int32-narrowed topology carry
    the same sender dtype (the index dtype emissions adopt)."""
    topology = compile_edge_stream([np.array([[0, 1], [1, 2]])], 4)
    assert topology.index_dtype == np.int32
    seen = []

    class Probe(ColumnarAlgorithm):
        spec = ColumnarSpec(("value", np.uint8))

        def on_round(self, ctx):
            seen.append((len(ctx.inbox), ctx.inbox.senders.dtype))
            if ctx.round_number == 1:
                ctx.emit_columns(np.array([1]), value=1)
            elif ctx.round_number == 3:
                ctx.halt(~ctx.halted)

    Network(topology).run(Probe())
    # Round 1: initial inbox; round 2: vertex 1's broadcast; round 3:
    # the empty inbox of a silent round.
    assert seen == [(0, np.int32), (2, np.int32), (0, np.int32)]
