"""Protocols against oracles that share no code with them.

Every engine's digest is pinned to the legacy reference engine, so a bug
in the reference would pass on all engines at once.  These tests check
full-learning C4 detection and Borůvka MST on the legacy and fast
engines against networkx: ``GraphMatcher.subgraph_is_monomorphic`` (a
non-induced copy of C4) and the weight of networkx's minimum spanning
forest.  The families are the adversarial ones — empty, complete and
disconnected — at sizes that are neither a power of two nor a multiple
of 8, so adjacency rows never fill whole bytes.

The unicast protocols run on the legacy and kernel engines, driven by
hypothesis over the same families: routing against delivering the
demand directly, the Theorem 2 circuit simulation against a numpy
layer-by-layer evaluator written here, and matmul triangle detection
against ``(A @ A * A).sum()`` — one-sided, so it may miss a triangle
but never reports one in a triangle-free graph, and its witness edge
closes a triangle.
"""

from __future__ import annotations

import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import GraphMatcher

from repro.circuits import builders
from repro.circuits.arithmetic import matmul_circuit_strassen
from repro.core.bits import Bits
from repro.core.network import Network
from repro.graphs.graph import Graph
from repro.matmul.distributed import (
    matmul_input_partition,
    triangle_mm_kernel_program,
    triangle_mm_program,
)
from repro.mst.boruvka import WeightedGraph, boruvka_message_bits, boruvka_mst
from repro.routing import build_schedule, route_kernel_program, route_program
from repro.simulation.kernel import make_kernel_program
from repro.simulation.protocol import build_plan, make_program
from repro.subgraphs.detection import full_learning_detect

SIZES = [1, 5, 9, 13]
ENGINES = ["legacy", "fast"]


def _empty(n: int, rng: random.Random) -> nx.Graph:
    return nx.empty_graph(n)


def _complete(n: int, rng: random.Random) -> nx.Graph:
    return nx.complete_graph(n)


def _disconnected(n: int, rng: random.Random) -> nx.Graph:
    """Two dense random halves with no edge between them."""
    half = n // 2
    g = nx.empty_graph(n)
    for part in (range(half), range(half, n)):
        for u in part:
            for v in part:
                if u < v and rng.random() < 0.7:
                    g.add_edge(u, v)
    return g


FAMILIES = {"empty": _empty, "complete": _complete, "disconnected": _disconnected}


def to_graph(oracle: nx.Graph) -> Graph:
    return Graph.from_edges(oracle.number_of_nodes(), oracle.edges())


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", SIZES)
def test_full_learning_c4_matches_networkx(n, family, engine):
    oracle = FAMILIES[family](n, random.Random(n))
    outcome, _ = full_learning_detect(
        to_graph(oracle), Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        bandwidth=8, engine=engine,
    )
    expected = GraphMatcher(oracle, nx.cycle_graph(4)).subgraph_is_monomorphic()
    assert outcome.contains == expected
    if expected:
        # The witness is four host edges forming a 4-cycle.
        witness = nx.Graph(list(outcome.witness))
        assert all(oracle.has_edge(u, v) for u, v in witness.edges())
        assert nx.is_isomorphic(witness, nx.cycle_graph(4))
    else:
        assert outcome.witness is None


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("n", SIZES)
def test_boruvka_matches_networkx_spanning_forest(n, family, engine):
    rng = random.Random(100 + n)
    oracle = FAMILIES[family](n, rng)
    for u, v in oracle.edges():
        oracle[u][v]["weight"] = rng.randint(1, 20)
    wg = WeightedGraph(
        to_graph(oracle),
        {(min(u, v), max(u, v)): w for u, v, w in oracle.edges(data="weight")},
    )
    tree, _ = boruvka_mst(wg, bandwidth=boruvka_message_bits(wg), engine=engine)
    forest = nx.minimum_spanning_tree(oracle)
    assert sum(wg.weights[edge] for edge in tree) == forest.size(weight="weight")
    assert len(tree) == n - nx.number_connected_components(oracle)
    if tree:
        assert nx.is_forest(nx.Graph(list(tree)))


# -- unicast protocols on the legacy and kernel engines ---------------------

#: Clique sizes that are not powers of two.
ODD_SIZES = [1, 3, 5, 6, 7, 9, 10, 11, 12]


def generator_or_kernel(generator, kernel):
    """The program an engine runs: generators on legacy, kernels on the
    kernel engine."""
    return {"legacy": generator, "kernel": kernel}


@settings(max_examples=30, deadline=None)
@given(
    n=st.sampled_from(ODD_SIZES),
    family=st.sampled_from(sorted(FAMILIES)),
    seed=st.integers(0, 10**6),
    heavy=st.integers(1, 30),
)
def test_routing_delivers_the_demand(n, family, seed, heavy):
    """Every frame of a demand on the graph's edges (one pair may carry
    ``heavy`` frames, enough to force the two-phase schedule) lands on
    its destination unchanged."""
    rng = random.Random(seed)
    oracle = FAMILIES[family](n, rng)
    demand = {}
    for u, v in oracle.edges():
        demand[(u, v)] = rng.randint(1, 3)
        demand[(v, u)] = rng.randint(1, 3)
    if demand:
        demand[min(demand)] = heavy
    frame_size = 6
    frames = {
        (src, dst, idx): Bits(rng.getrandbits(frame_size), frame_size)
        for (src, dst), count in demand.items()
        for idx in range(count)
    }
    inputs = [dict() for _ in range(n)]
    expected = [dict() for _ in range(n)]
    for ref, bits in frames.items():
        inputs[ref[0]][ref] = bits
        expected[ref[1]][ref] = bits
    schedule = build_schedule(demand, n)
    programs = generator_or_kernel(
        route_program(schedule, frame_size), route_kernel_program(schedule, frame_size)
    )
    for engine, program in programs.items():
        result = Network(n=n, bandwidth=frame_size, engine=engine).run(
            program, inputs=inputs
        )
        assert [dict(out or {}) for out in result.outputs] == expected, engine


def _gate_value(gate, values: np.ndarray) -> bool:
    """One gate of the circuit on its input values (a 0/1 vector), from
    the gate's name and parameters alone."""
    total = int(values.sum())
    name = gate.name
    if name == "AND":
        return total == values.size
    if name == "OR":
        return total > 0
    if name == "NOT":
        return total == 0
    if name == "XOR":
        return total % 2 == 1
    if name.startswith("MOD"):
        return total % gate.modulus == 0
    weights = np.ones(values.size, dtype=np.int64)
    if gate.weights is not None:
        weights = np.asarray(gate.weights, dtype=np.int64)
    return int(values @ weights) >= gate.threshold


def evaluate_layers(circuit, input_values):
    """Output values of ``circuit``: layers from the longest path to the
    inputs, then each layer's gates on the values of earlier layers."""
    nodes = circuit.nodes
    layer = np.zeros(len(nodes), dtype=np.int64)
    for node in nodes:
        if node.inputs:
            layer[node.gate_id] = 1 + max(layer[src] for src in node.inputs)
    vals = np.zeros(len(nodes), dtype=np.int64)
    for node in nodes:
        if node.kind == "input":
            vals[node.gate_id] = int(bool(input_values[node.input_index]))
        elif node.kind == "const":
            vals[node.gate_id] = int(bool(node.const_value))
    for level in range(1, int(layer.max(initial=0)) + 1):
        for gid in np.flatnonzero(layer == level).tolist():
            node = nodes[gid]
            vals[gid] = _gate_value(node.gate, vals[list(node.inputs)])
    return {gid: bool(vals[gid]) for gid in circuit.outputs}


def run_simulation(circuit, n, input_values, engine):
    plan = build_plan(circuit, n)
    per_node = [dict() for _ in range(n)]
    for position, gid in enumerate(circuit.input_ids):
        per_node[position % n][gid] = bool(input_values[position])
    program = generator_or_kernel(make_program(plan), make_kernel_program(plan))[engine]
    result = Network(n=n, bandwidth=plan.bandwidth, engine=engine).run(
        program, inputs=per_node
    )
    outputs = {}
    for node_output in result.outputs:
        outputs.update(node_output or {})
    return outputs


@settings(max_examples=20, deadline=None)
@given(
    n=st.sampled_from(ODD_SIZES),
    family=st.sampled_from(sorted(FAMILIES)),
    seed=st.integers(0, 10**6),
    engine=st.sampled_from(["legacy", "kernel"]),
)
def test_circuit_simulation_matches_layer_evaluator(n, family, seed, engine):
    """The scenario's parity circuit on the graph's ring edges, and a
    random layered circuit on its adjacency bits."""
    rng = random.Random(seed)
    oracle = FAMILIES[family](n, rng)
    ring = [oracle.has_edge(i, (i + 1) % n) for i in range(n)]
    parity = builders.threshold_parity_circuit(n)
    assert run_simulation(parity, n, ring, engine) == evaluate_layers(parity, ring)
    bits = [oracle.has_edge(u, v) for u in range(n) for v in range(n)]
    layered = builders.random_layered_circuit(len(bits), 4, 2 * n + 1, rng)
    assert run_simulation(layered, n, bits, engine) == evaluate_layers(layered, bits)


@settings(max_examples=12, deadline=None)
@given(
    n=st.sampled_from([3, 5, 6, 7]),
    family=st.sampled_from(sorted(FAMILIES)),
    seed=st.integers(0, 10**6),
    engine=st.sampled_from(["legacy", "kernel"]),
)
def test_triangle_mm_is_one_sided(n, family, seed, engine):
    oracle = FAMILIES[family](n, random.Random(seed))
    graph = to_graph(oracle)
    adjacency = nx.to_numpy_array(oracle, nodelist=range(n), dtype=np.int64)
    has_triangle = bool((adjacency @ adjacency * adjacency).sum())
    plan = build_plan(matmul_circuit_strassen(n), n, matmul_input_partition(n))
    program = generator_or_kernel(
        triangle_mm_program(graph, plan, 3), triangle_mm_kernel_program(graph, plan, 3)
    )[engine]
    rows = adjacency.tolist()
    outcome = Network(n=n, bandwidth=plan.bandwidth, engine=engine, seed=seed).run(
        program, inputs=rows
    ).outputs[0]
    if not has_triangle:
        assert not outcome.found and outcome.witness is None
    if outcome.found:
        u, v = outcome.witness
        assert adjacency[u, v]
        assert (adjacency[u] & adjacency[v]).any(), "witness edge closes no triangle"
