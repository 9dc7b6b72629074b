"""Theorem 7: H-subgraph detection with known Turán bounds."""

from __future__ import annotations

import random

import pytest

from repro.analysis.bounds import full_learning_round_bound, theorem7_round_bound
from repro.graphs import (
    complete_bipartite,
    complete_graph,
    contains_subgraph,
    cycle_graph,
    path_graph,
    plant_subgraph,
    random_graph,
    random_k_degenerate,
    star_graph,
)
from repro.subgraphs import detect_subgraph, full_learning_detect

PATTERNS = [
    ("C4", cycle_graph(4)),
    ("C6", cycle_graph(6)),
    ("K4", complete_graph(4)),
    ("K22", complete_bipartite(2, 2)),
    ("P4", path_graph(4)),
    ("star3", star_graph(3)),
]


def witness_is_valid(graph, pattern, witness):
    assert len(witness) == pattern.m
    for u, v in witness:
        assert graph.has_edge(u, v)


class TestTheorem7Correctness:
    @pytest.mark.parametrize("name,pattern", PATTERNS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sparse_hosts(self, name, pattern, seed):
        rng = random.Random(seed)
        g = random_k_degenerate(24, 2, rng)
        truth = contains_subgraph(g, pattern)
        outcome, _ = detect_subgraph(g, pattern, bandwidth=8)
        assert outcome.contains == truth
        if outcome.witness is not None:
            witness_is_valid(g, pattern, outcome.witness)

    @pytest.mark.parametrize("name,pattern", PATTERNS)
    def test_planted_pattern_found(self, name, pattern):
        rng = random.Random(hash(name) & 0xFFFF)
        g = random_k_degenerate(24, 1, rng)
        plant_subgraph(g, pattern, rng)
        outcome, _ = detect_subgraph(g, pattern, bandwidth=8)
        assert outcome.contains

    @pytest.mark.parametrize("name,pattern", PATTERNS)
    def test_dense_host_density_path(self, name, pattern):
        """Dense hosts exceed the degeneracy guess; the density argument
        must still give the correct (positive) decision."""
        rng = random.Random(5)
        g = random_graph(26, 0.7, rng)
        truth = contains_subgraph(g, pattern)
        outcome, _ = detect_subgraph(g, pattern, bandwidth=8)
        assert outcome.contains == truth

    def test_pattern_free_dense_graph(self):
        """A dense C4-free graph (polarity): decision must be negative
        even though the graph is at the degeneracy threshold."""
        from repro.graphs.extremal import polarity_graph

        g = polarity_graph(3)
        outcome, _ = detect_subgraph(g, cycle_graph(4), bandwidth=8)
        assert not outcome.contains

    def test_empty_graph(self):
        from repro.graphs import empty_graph

        outcome, _ = detect_subgraph(empty_graph(12), cycle_graph(4), bandwidth=8)
        assert not outcome.contains

    def test_explicit_ex_bound_respected(self):
        rng = random.Random(9)
        g = random_k_degenerate(20, 2, rng)
        pattern = cycle_graph(4)
        outcome, result = detect_subgraph(
            g, pattern, bandwidth=8, ex_bound=40
        )
        assert outcome.contains == contains_subgraph(g, pattern)


class TestRoundComplexity:
    def test_rounds_match_formula(self):
        """Measured rounds equal the closed-form Theorem 7 cost."""
        rng = random.Random(3)
        pattern = cycle_graph(4)
        for n in (16, 24, 32):
            g = random_k_degenerate(n, 2, rng)
            for bandwidth in (4, 16):
                _, result = detect_subgraph(g, pattern, bandwidth=bandwidth)
                assert result.rounds == theorem7_round_bound(n, pattern, bandwidth)

    def test_sublinear_for_c4(self):
        """For H = C4 the Theorem 7 cost is Θ(√n·log n/b) = o(n/b): it
        overtakes the trivial full-learning algorithm once the log
        factor is paid off, and the gap then widens."""
        pattern = cycle_graph(4)
        gap = [
            full_learning_round_bound(n, 8) / theorem7_round_bound(n, pattern, 8)
            for n in (512, 2048, 8192)
        ]
        assert gap[0] > 1
        assert gap[0] < gap[1] < gap[2]

    def test_rounds_shrink_with_bandwidth(self):
        rng = random.Random(4)
        g = random_k_degenerate(24, 2, rng)
        pattern = cycle_graph(4)
        _, r1 = detect_subgraph(g, pattern, bandwidth=2)
        _, r2 = detect_subgraph(g, pattern, bandwidth=16)
        assert r1.rounds > r2.rounds

    def test_tree_detection_cheap(self):
        """Forests: ex(n,H) = O(n) so detection costs O(log n / b)."""
        pattern = path_graph(4)
        assert theorem7_round_bound(64, pattern, 16) <= 6


class TestFullLearningBaseline:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_truth(self, seed):
        rng = random.Random(seed)
        g = random_graph(18, 0.3, rng)
        pattern = cycle_graph(3)
        outcome, result = full_learning_detect(g, pattern, bandwidth=8)
        assert outcome.contains == contains_subgraph(g, pattern)
        assert result.rounds == full_learning_round_bound(g.n, 8)

    def test_witness_valid(self):
        rng = random.Random(2)
        g = random_graph(15, 0.5, rng)
        outcome, _ = full_learning_detect(g, cycle_graph(3), bandwidth=8)
        if outcome.witness:
            witness_is_valid(g, cycle_graph(3), outcome.witness)

    @pytest.mark.parametrize("engine", ["legacy", "fast"])
    def test_missing_row_raises_decode_error(self, engine):
        # Dropped frames leave node 2's row incomplete at every receiver:
        # the run fails with a DecodeError naming the node, not KeyError.
        from repro.core.errors import DecodeError
        from repro.core.faults import FaultPlan
        from repro.core.network import Mode, Network
        from repro.subgraphs.detection import full_learning_program

        g = cycle_graph(8)
        network = Network(
            n=8,
            bandwidth=8,
            mode=Mode.BROADCAST,
            engine=engine,
            fault_plan=FaultPlan(seed=1, drop_rate=0.3),
        )
        with pytest.raises(DecodeError, match="row of node 2 never arrived"):
            network.run(
                full_learning_program(cycle_graph(4)),
                inputs=[g.neighbors(v) for v in range(8)],
            )
