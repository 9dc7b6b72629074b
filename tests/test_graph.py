"""The Graph substrate, cross-checked against networkx."""

from __future__ import annotations

import random

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    matching_graph,
    path_graph,
    plant_subgraph,
    random_graph,
    star_graph,
    turan_graph,
)


def graph_strategy(max_n=12):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        edges = draw(
            st.sets(
                st.tuples(
                    st.integers(0, max(0, n - 1)), st.integers(0, max(0, n - 1))
                ).filter(lambda e: e[0] != e[1]),
                max_size=30,
            )
        ) if n else set()
        return Graph.from_edges(n, edges)

    return build()


def to_nx(graph: Graph) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(graph.vertices())
    g.add_edges_from(graph.edges())
    return g


class TestBasics:
    def test_add_and_query(self):
        g = Graph(4)
        g.add_edge(0, 1)
        g.add_edge(1, 3)
        assert g.has_edge(1, 0) and g.has_edge(3, 1)
        assert not g.has_edge(0, 3)
        assert g.m == 2
        assert g.degree(1) == 2

    def test_duplicate_edge_ignored(self):
        g = Graph(3)
        g.add_edge(0, 1)
        g.add_edge(1, 0)
        assert g.m == 1

    def test_self_loop_rejected(self):
        g = Graph(3)
        with pytest.raises(ValueError):
            g.add_edge(1, 1)

    def test_out_of_range_rejected(self):
        g = Graph(3)
        with pytest.raises(ValueError):
            g.add_edge(0, 3)

    def test_remove_edge(self):
        g = Graph.from_edges(3, [(0, 1), (1, 2)])
        g.remove_edge(1, 0)
        assert g.m == 1 and not g.has_edge(0, 1)
        g.remove_edge(0, 1)  # removing twice is a no-op
        assert g.m == 1

    def test_copy_independent(self):
        g = Graph.from_edges(3, [(0, 1)])
        clone = g.copy()
        clone.add_edge(1, 2)
        assert g.m == 1 and clone.m == 2

    def test_equality(self):
        a = Graph.from_edges(3, [(0, 1), (1, 2)])
        b = Graph.from_edges(3, [(1, 2), (0, 1)])
        assert a == b

    def test_edge_iteration_canonical(self):
        g = Graph.from_edges(4, [(3, 0), (2, 1)])
        assert sorted(g.edges()) == [(0, 3), (1, 2)]


class TestDerived:
    def test_induced_subgraph(self):
        g = complete_graph(5)
        sub, mapping = g.induced_subgraph([1, 3, 4])
        assert sub.n == 3 and sub.m == 3
        assert mapping == {0: 1, 1: 3, 2: 4}

    def test_induced_subgraph_duplicates_rejected(self):
        with pytest.raises(ValueError):
            complete_graph(3).induced_subgraph([0, 0])

    def test_disjoint_union(self):
        u = Graph.disjoint_union(cycle_graph(3), path_graph(2))
        assert u.n == 5 and u.m == 4
        assert u.has_edge(3, 4) and not u.has_edge(2, 3)

    def test_relabel(self):
        g = path_graph(3)
        out = g.relabel({0: 5, 1: 6, 2: 7}, 8)
        assert out.has_edge(5, 6) and out.has_edge(6, 7)

    def test_adjacency_matrix(self):
        mat = cycle_graph(4).adjacency_matrix()
        assert mat.sum() == 8  # symmetric: 2 per edge
        assert (mat == mat.T).all()

    def test_adjacency_matrix_matches_edges(self):
        g = random_graph(17, 0.4, random.Random(23))
        mat = g.adjacency_matrix()
        assert mat.dtype.name == "uint8"
        assert mat.sum() == 2 * g.m
        for u in range(g.n):
            for v in range(g.n):
                assert bool(mat[u, v]) == g.has_edge(u, v)

    def test_adjacency_matrix_empty(self):
        mat = Graph(3).adjacency_matrix()
        assert mat.shape == (3, 3)
        assert not mat.any()

    def test_adjacency_matrix_memoized(self):
        g = random_graph(9, 0.4, random.Random(3))
        first = g.adjacency_matrix()
        assert g.adjacency_matrix() is first  # cached, not rebuilt
        assert not first.flags.writeable

    def test_adjacency_matrix_invalidated_on_mutation(self):
        g = path_graph(4)
        before = g.adjacency_matrix()
        g.add_edge(0, 3)
        after = g.adjacency_matrix()
        assert after is not before
        assert after[0, 3] == 1 and before[0, 3] == 0
        g.remove_edge(0, 3)
        again = g.adjacency_matrix()
        assert again is not after
        assert again[0, 3] == 0
        # No-op mutations keep the cache.
        g.remove_edge(0, 3)
        assert g.adjacency_matrix() is again

    def test_adjacency_matrix_shared_by_copy_until_mutation(self):
        g = cycle_graph(5)
        mat = g.adjacency_matrix()
        clone = g.copy()
        assert clone.adjacency_matrix() is mat
        clone.add_edge(0, 2)
        assert clone.adjacency_matrix() is not mat
        assert g.adjacency_matrix() is mat  # original cache untouched

    def test_independent_set(self):
        g = complete_bipartite(3, 3)
        assert g.is_independent_set([0, 1, 2])
        assert not g.is_independent_set([0, 3])


class TestGenerators:
    def test_complete(self):
        assert complete_graph(6).m == 15

    def test_complete_bipartite(self):
        g = complete_bipartite(3, 4)
        assert g.m == 12
        assert g.is_independent_set(range(3))

    def test_cycle_path_star_matching(self):
        assert cycle_graph(5).m == 5
        assert path_graph(5).m == 4
        assert star_graph(4).m == 4
        assert matching_graph(3).m == 3

    def test_cycle_minimum_length(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_turan_graph_is_clique_free(self):
        from repro.graphs import contains_subgraph

        t = turan_graph(10, 3)
        assert not contains_subgraph(t, complete_graph(4))
        assert contains_subgraph(t, complete_graph(3))

    def test_random_graph_density(self):
        rng = random.Random(1)
        g = random_graph(40, 0.5, rng)
        expected = 0.5 * 40 * 39 / 2
        assert abs(g.m - expected) < 120

    def test_plant_subgraph(self):
        rng = random.Random(2)
        g = Graph(10)
        edges = plant_subgraph(g, cycle_graph(4), rng)
        assert len(edges) == 4
        for u, v in edges:
            assert g.has_edge(u, v)


class TestAgainstNetworkx:
    @given(graph_strategy())
    def test_degrees_match(self, g):
        oracle = to_nx(g)
        for v in g.vertices():
            assert g.degree(v) == oracle.degree(v)

    @given(graph_strategy())
    def test_edge_count_matches(self, g):
        assert g.m == to_nx(g).number_of_edges()

    @given(graph_strategy())
    def test_edge_set_roundtrip(self, g):
        assert Graph.from_edges(g.n, g.edges()) == g


class TestFromAdjacencyMatrix:
    @given(graph_strategy())
    def test_roundtrip(self, g):
        back = Graph.from_adjacency_matrix(g.adjacency_matrix())
        assert back == g
        assert back.m == g.m
        assert back.edge_set() == g.edge_set()

    @given(graph_strategy())
    def test_matches_networkx(self, g):
        import numpy as np

        if g.n:
            matrix = nx.to_numpy_array(to_nx(g), nodelist=range(g.n))
        else:
            matrix = np.zeros((0, 0))
        built = Graph.from_adjacency_matrix(matrix.astype(bool))
        oracle = nx.from_numpy_array(matrix)
        assert built.m == oracle.number_of_edges()
        assert built.edge_set() == {
            (min(u, v), max(u, v)) for u, v in oracle.edges()
        }

    def test_bulk_graph_stays_mutable(self):
        g = Graph.from_adjacency_matrix(cycle_graph(5).adjacency_matrix())
        g.add_edge(0, 2)
        g.remove_edge(0, 1)
        assert g.m == 5
        assert g.adjacency_matrix()[0, 2] == 1

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([0, 1, 1], "square"),
            ([[0, 1, 0], [1, 0, 1]], "square"),
            ([[0, 1], [0, 0]], "symmetric"),
            ([[1, 0], [0, 0]], "zero diagonal"),
            ([[0, 2], [2, 0]], "boolean"),
            ([[0.0, 1.0], [1.0, 0.0]], "boolean"),
        ],
    )
    def test_rejections_name_the_property(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            Graph.from_adjacency_matrix(matrix)
