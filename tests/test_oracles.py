"""Broadcast protocols against oracles that share no code with them.

Every engine's digest is pinned to the legacy reference engine, so a bug
in the reference would pass on all engines at once.  These tests check
full-learning C4 detection and Borůvka MST on the legacy and fast
engines against networkx: ``GraphMatcher.subgraph_is_monomorphic`` (a
non-induced copy of C4) and the weight of networkx's minimum spanning
forest.  The families are the adversarial ones — empty, complete and
disconnected — at sizes that are neither a power of two nor a multiple
of 8, so adjacency rows never fill whole bytes.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

from repro.graphs.graph import Graph
from repro.mst.boruvka import WeightedGraph, boruvka_message_bits, boruvka_mst
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
