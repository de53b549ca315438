"""Golden fault schedules: sha256 digests of faulty runs, pinned.

Every fault decision is a pure function of ``(seed, round, edge)``
(:mod:`repro.congest.runtime.faults`), so a faulty run's outputs and
every ``NetworkMetrics`` field are fixed bytes.  This module names a
matrix of such runs and the digest each must reproduce:

* each knob alone (crash, drop, dup, delay, corrupt) and all five
  combined, plus the ``degree:0.5``, ``cut`` and ``budget`` adversaries —
  each on the columnar fast plane, the columnar reference executor and
  the object (``broadcast``) plane;
* the ack/retransmit recovery wrapper (unicast traffic) and a
  variable-width flood under the combined plan;
* grid batches whose trial blocks carry different live knobs, bare and
  wrapped.

``tests/test_fault_golden.py`` checks every digest in tier-1 and
``scripts/check_fault_identity.py`` recomputes them in CI.  To print the
digests of the current tree::

    PYTHONPATH=src python tests/fault_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

import networkx as nx

from repro.congest import FaultPlan, Network, Trial, run_many
from repro.congest.algorithms import ColumnarRestartingBFS, ColumnarVarFlood
from repro.congest.classic import ColumnarLubyMIS, LubyMISAlgorithm
from repro.congest.runtime.recovery import ColumnarReliable
from repro.graphs import random_regular_expander, triangulated_grid

HORIZON = 60

PLANS = {
    "crash": FaultPlan(seed=7, crash=0.05),
    "drop": FaultPlan(seed=7, drop=0.2),
    "dup": FaultPlan(seed=7, dup=0.3),
    "delay": FaultPlan(seed=7, delay=3),
    "corrupt": FaultPlan(seed=7, corrupt=0.2),
    "all": FaultPlan(
        seed=7, crash=0.03, drop=0.2, dup=0.1, delay=2, corrupt=0.15
    ),
    "degree": FaultPlan(
        seed=13, crash=0.05, drop=0.4, dup=0.2, delay=1, corrupt=0.2,
        target="degree:0.5",
    ),
    "cut": FaultPlan(seed=17, drop=0.5, dup=0.3, corrupt=0.25, target="cut"),
    "budget": FaultPlan(
        seed=19, crash=0.02, drop=0.3, dup=0.2, delay=2, corrupt=0.2,
        target="budget",
    ),
}


def _graph(plan_name):
    # The cut adversary only acts on bridges: give it a graph with some.
    if plan_name == "cut":
        return nx.barbell_graph(6, 3)
    return triangulated_grid(5, 5)


def _inputs(graph, seed):
    rng = random.Random(seed)
    return {v: rng.randrange(1 << 30) for v in graph.nodes}


def _single(algorithm, graph, plane, faults, max_rounds):
    net = Network(graph)
    outputs = net.run(
        algorithm, max_rounds=max_rounds, inputs=_inputs(graph, 21),
        plane=plane, faults=faults,
    )
    return [(list(outputs.items()), net.metrics)]


def _mis_case(plan_name, plane):
    graph = _graph(plan_name)
    algorithm = (
        LubyMISAlgorithm(HORIZON) if plane == "broadcast"
        else ColumnarLubyMIS(HORIZON)
    )
    return lambda: _single(
        algorithm, graph, plane, PLANS[plan_name], HORIZON + 2
    )


def _wrapped_bfs(root, retries=2):
    return ColumnarReliable(
        ColumnarRestartingBFS(root, HORIZON), retries=retries
    )


# Recovery runs last hundreds of rounds, so most of these plans leave
# crash out: at crash=0.03 every vertex is dead long before the end.
WRAPPED_PLANS = {
    "all": PLANS["all"],
    "lossy": FaultPlan(seed=23, drop=0.2, dup=0.2, delay=2, corrupt=0.1),
    "budget": FaultPlan(
        seed=29, drop=0.3, dup=0.2, corrupt=0.2, target="budget"
    ),
    "delay": PLANS["delay"],
}


def _wrapped_case(plan_name, plane):
    graph = triangulated_grid(5, 5)
    root = next(iter(graph.nodes))
    return lambda: _single(
        _wrapped_bfs(root), graph, plane, WRAPPED_PLANS[plan_name],
        6 * HORIZON + 2,
    )


def _var_flood_case(plane):
    graph = triangulated_grid(5, 5)
    root = next(iter(graph.nodes))
    return lambda: _single(
        ColumnarVarFlood(root, (3, 141, 59, 26), HORIZON), graph, plane,
        PLANS["all"], HORIZON + 2,
    )


def _grid_mis():
    """A heterogeneous grid: each block carries different live knobs
    (and one carries none), on graphs of different sizes."""
    graphs = [
        triangulated_grid(5, 5),
        random_regular_expander(32, 4, seed=3),
        triangulated_grid(4, 6),
        random_regular_expander(24, 6, seed=5),
        nx.barbell_graph(6, 3),
        triangulated_grid(3, 3),
        random_regular_expander(40, 4, seed=9),
    ]
    plans = [
        FaultPlan(seed=1, drop=0.3),
        FaultPlan(seed=2, delay=3),
        FaultPlan(seed=3, crash=0.05, corrupt=0.3),
        FaultPlan(seed=4, dup=0.4, delay=1),
        PLANS["cut"],
        None,
        PLANS["budget"],
    ]
    trials = [
        Trial(graph, inputs=_inputs(graph, 31 + t), max_rounds=HORIZON + 2,
              faults=plan)
        for t, (graph, plan) in enumerate(zip(graphs, plans))
    ]
    return _batch(ColumnarLubyMIS(HORIZON), trials)


def _grid_wrapped():
    # Integer labels, so root 0 exists in every block.
    graphs = [
        nx.convert_node_labels_to_integers(graph) for graph in (
            triangulated_grid(5, 5),
            random_regular_expander(32, 4, seed=3),
            triangulated_grid(4, 4),
        )
    ]
    plans = [PLANS["drop"], PLANS["delay"], WRAPPED_PLANS["lossy"]]
    trials = [
        Trial(graph, max_rounds=6 * HORIZON + 2, faults=plan)
        for graph, plan in zip(graphs, plans)
    ]
    return _batch(_wrapped_bfs(0), trials)


def _batch(algorithm, trials):
    return [
        (list(outputs.items()), metrics)
        for outputs, metrics in run_many(
            algorithm, trials, processes=1, plane="grid"
        )
    ]


CASES = {
    **{
        f"{plan}/{plane}": _mis_case(plan, plane)
        for plan in PLANS
        for plane in ("columnar", "columnar-reference", "broadcast")
    },
    **{
        f"wrapped-{plan}/{plane}": _wrapped_case(plan, plane)
        for plan in WRAPPED_PLANS
        for plane in ("columnar", "columnar-reference")
    },
    **{
        f"var-flood-all/{plane}": _var_flood_case(plane)
        for plane in ("columnar", "columnar-reference")
    },
    "grid/mis-heterogeneous": _grid_mis,
    "grid/wrapped-bfs": _grid_wrapped,
}


def case_digest(name: str) -> str:
    """sha256 over every run of case ``name``: its outputs (in output
    order) and every ``NetworkMetrics`` field."""
    content = repr([
        (outputs, dataclasses.astuple(metrics))
        for outputs, metrics in CASES[name]()
    ])
    return hashlib.sha256(content.encode()).hexdigest()


# Recorded on the commit before live-segment fault draws, the shared
# edge-rank tables and mask-based acks replaced the full per-round draw,
# per-run key sorts and rank searches.
GOLDEN = {
    "crash/columnar": "97217b041281ec38e43d72c7f70b4b37434906eced04ca8905e0c04942cdd228",
    "crash/columnar-reference": "97217b041281ec38e43d72c7f70b4b37434906eced04ca8905e0c04942cdd228",
    "crash/broadcast": "97217b041281ec38e43d72c7f70b4b37434906eced04ca8905e0c04942cdd228",
    "drop/columnar": "baf727f721c088a6e248166c053c3b3d3c6140edfcd45ec140a4fdff87ddc765",
    "drop/columnar-reference": "baf727f721c088a6e248166c053c3b3d3c6140edfcd45ec140a4fdff87ddc765",
    "drop/broadcast": "baf727f721c088a6e248166c053c3b3d3c6140edfcd45ec140a4fdff87ddc765",
    "dup/columnar": "dffc9e2f1bc937a8980fdca6375e0b0c145615a8be0770208e1c599d4b1bbb9a",
    "dup/columnar-reference": "dffc9e2f1bc937a8980fdca6375e0b0c145615a8be0770208e1c599d4b1bbb9a",
    "dup/broadcast": "dffc9e2f1bc937a8980fdca6375e0b0c145615a8be0770208e1c599d4b1bbb9a",
    "delay/columnar": "550a7bf7211a1283c1d9398b69f9e5ced8673caede64f96e23d2eab2d1a76f60",
    "delay/columnar-reference": "550a7bf7211a1283c1d9398b69f9e5ced8673caede64f96e23d2eab2d1a76f60",
    "delay/broadcast": "550a7bf7211a1283c1d9398b69f9e5ced8673caede64f96e23d2eab2d1a76f60",
    "corrupt/columnar": "f20798e818ae9c642869bb001dd26c052bbbe785b58be12bf8a73a2d3587510a",
    "corrupt/columnar-reference": "f20798e818ae9c642869bb001dd26c052bbbe785b58be12bf8a73a2d3587510a",
    "corrupt/broadcast": "f20798e818ae9c642869bb001dd26c052bbbe785b58be12bf8a73a2d3587510a",
    "all/columnar": "a7599b6b6c12c3e5129e170ee0d8d3edd1e9df6d5694bf505d420669567a5276",
    "all/columnar-reference": "a7599b6b6c12c3e5129e170ee0d8d3edd1e9df6d5694bf505d420669567a5276",
    "all/broadcast": "cf0a09c99c3b7c405f1c1ff8d1ad09e02adafe76557d94993bddc4780c577d3e",
    "degree/columnar": "2615c1a6469f976eaf2d004c21eb5a06e8b6885259d4573a51a91732699fc3a8",
    "degree/columnar-reference": "2615c1a6469f976eaf2d004c21eb5a06e8b6885259d4573a51a91732699fc3a8",
    "degree/broadcast": "2615c1a6469f976eaf2d004c21eb5a06e8b6885259d4573a51a91732699fc3a8",
    "cut/columnar": "542e8d2329af7d543f2a9cef81fffed872dad5cda5f109b70483527ce3849177",
    "cut/columnar-reference": "542e8d2329af7d543f2a9cef81fffed872dad5cda5f109b70483527ce3849177",
    "cut/broadcast": "542e8d2329af7d543f2a9cef81fffed872dad5cda5f109b70483527ce3849177",
    "budget/columnar": "63674c2ba3ce509734441c1ef5c59f9c4b3681454ba58f7ae91aa9aca70f7b2a",
    "budget/columnar-reference": "63674c2ba3ce509734441c1ef5c59f9c4b3681454ba58f7ae91aa9aca70f7b2a",
    "budget/broadcast": "63674c2ba3ce509734441c1ef5c59f9c4b3681454ba58f7ae91aa9aca70f7b2a",
    "wrapped-all/columnar": "d21a6191dc61f551d7588ed4ee123372616effba7ff4012e88324aef7a61b7b3",
    "wrapped-all/columnar-reference": "d21a6191dc61f551d7588ed4ee123372616effba7ff4012e88324aef7a61b7b3",
    "wrapped-lossy/columnar": "46fe05181378310cb51fe117c2cc8803b713000bf954fbbbc4c82d1b675e40e6",
    "wrapped-lossy/columnar-reference": "46fe05181378310cb51fe117c2cc8803b713000bf954fbbbc4c82d1b675e40e6",
    "wrapped-budget/columnar": "9aced1650c47bd0325f76dd34274e1c59df063a5e5a13259b11dd04ab22db03b",
    "wrapped-budget/columnar-reference": "9aced1650c47bd0325f76dd34274e1c59df063a5e5a13259b11dd04ab22db03b",
    "wrapped-delay/columnar": "6bb5fb765b3ddc3aad647f83f813bc41564cced004278499547c75ff76e702a8",
    "wrapped-delay/columnar-reference": "6bb5fb765b3ddc3aad647f83f813bc41564cced004278499547c75ff76e702a8",
    "var-flood-all/columnar": "de6865fc385299426a71cc1591e1efacaa780a47e4d7262369f0092eeab2103c",
    "var-flood-all/columnar-reference": "de6865fc385299426a71cc1591e1efacaa780a47e4d7262369f0092eeab2103c",
    "grid/mis-heterogeneous": "3fe298c65f1a7822e772b0d037d84df77f80ab65cc6ec6d54f19ab0c6df9507d",
    "grid/wrapped-bfs": "4da7f5c1f861af5ef1b116460f8dff67b2d2e4ebb65d1ad5295736cfb0826d41",
}


if __name__ == "__main__":
    for name in CASES:
        print(f'    "{name}": "{case_digest(name)}",')
