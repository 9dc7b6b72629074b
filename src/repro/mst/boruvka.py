"""Minimum spanning trees on the congested clique (related work [30]).

MST is *the* canonical congested-clique problem: the paper's
introduction cites Lotker–Pavlov–Patt-Shamir–Peleg [30], who achieve
O(log log n) rounds.  We implement the classical Borůvka strategy on
CLIQUE-BCAST — O(log n) phases, each a single O(log n + log W)-bit
broadcast per node:

1. every node maintains (locally, from the shared broadcast history)
   the component label of *every* node — all nodes see the same
   blackboard, so the bookkeeping stays consistent for free;
2. each phase, every node broadcasts the minimum-weight edge incident
   to it that leaves its component (or "none");
3. everyone selects, per component, the globally minimal outgoing edge
   (ties broken by the (weight, u, v) total order, which makes the
   chosen edge set a forest), adds those edges to the MST and merges
   the components locally;
4. repeat until no component has an outgoing edge.

The [30] O(log log n) algorithm accelerates step 3 by merging many
components per phase through unicast sparsification; Borůvka is the
standard baseline it improves on, and it exercises exactly the
blackboard bookkeeping pattern of the detection algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.core.bits import Bits
from repro.core.network import Context, Mode, Network, RunResult
from repro.core.phases import transmit_broadcast
from repro.graphs.graph import Edge, Graph, canonical_edge

__all__ = [
    "WeightedGraph",
    "mst_reference",
    "boruvka_message_bits",
    "boruvka_program",
    "boruvka_mst",
]


@dataclass
class WeightedGraph:
    """An undirected graph with positive integer edge weights."""

    graph: Graph
    weights: Dict[Edge, int]

    def __post_init__(self) -> None:
        for edge, weight in self.weights.items():
            if not self.graph.has_edge(*edge):
                raise ValueError(f"weight given for non-edge {edge}")
            if weight < 0:
                raise ValueError("weights must be non-negative")
        for edge in self.graph.edges():
            if edge not in self.weights:
                raise ValueError(f"edge {edge} has no weight")

    def weight(self, u: int, v: int) -> int:
        return self.weights[canonical_edge(u, v)]

    def max_weight(self) -> int:
        return max(self.weights.values(), default=0)

    def key(self, u: int, v: int) -> Tuple[int, int, int]:
        """The tie-breaking total order on edges."""
        edge = canonical_edge(u, v)
        return (self.weights[edge], edge[0], edge[1])


def mst_reference(wg: WeightedGraph) -> Set[Edge]:
    """Kruskal with the same tie-breaking order (ground truth)."""
    parent = list(range(wg.graph.n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    chosen: Set[Edge] = set()
    for _w, u, v in sorted(wg.key(u, v) for u, v in wg.graph.edges()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.add(canonical_edge(u, v))
    return chosen


def boruvka_message_bits(wg: WeightedGraph) -> int:
    """Width of one phase broadcast: present flag + weight + two
    endpoints.  The minimum bandwidth :func:`boruvka_program` needs."""
    n = wg.graph.n
    id_bits = max(1, (max(0, n - 1)).bit_length())
    weight_bits = max(1, wg.max_weight().bit_length())
    return 1 + weight_bits + 2 * id_bits


def boruvka_program(wg: WeightedGraph):
    """Borůvka's node program for CLIQUE-BCAST: O(log n) phases, one
    :func:`boruvka_message_bits`-wide broadcast per node per phase;
    every node returns the same frozenset MST (minimum spanning forest
    if disconnected).  The runnable factory the scenario registry and
    :func:`boruvka_mst` share."""
    n = wg.graph.n
    id_bits = max(1, (max(0, n - 1)).bit_length())
    weight_bits = max(1, wg.max_weight().bit_length())
    message_bits = boruvka_message_bits(wg)
    phases = max(1, math.ceil(math.log2(max(2, n))))

    def encode(edge: Optional[Tuple[int, int]]) -> Bits:
        # present flag, weight, u, v — most significant first.
        if edge is None:
            return Bits(0, message_bits)
        u, v = edge
        raw = (1 << weight_bits) | wg.weight(u, v)
        raw = (((raw << id_bits) | u) << id_bits) | v
        return Bits(raw, message_bits)

    id_mask = (1 << id_bits) - 1
    weight_mask = (1 << weight_bits) - 1

    def decode(payload: Bits) -> Optional[Tuple[int, int, int]]:
        # The message is fixed-width (present flag is the leading bit),
        # so decode straight off the uint the broadcast lane delivered.
        raw = payload.to_uint()
        if raw >> (weight_bits + 2 * id_bits) == 0:
            return None
        weight = (raw >> (2 * id_bits)) & weight_mask
        u = (raw >> id_bits) & id_mask
        v = raw & id_mask
        return weight, u, v

    def program(ctx: Context):
        me = ctx.node_id
        component = list(range(n))
        # members[c]: the nodes labelled c, so a merge relabels only the
        # absorbed component.
        members = [[v] for v in range(n)]
        tree: Set[Edge] = set()
        # Incident edges ranked once by the total order; an edge that
        # becomes internal stays internal, so each phase resumes the
        # scan where the previous one stopped.
        ranked = sorted(wg.key(me, u) for u in wg.graph.neighbors(me))
        next_edge = 0

        for _phase in range(phases):
            candidate: Optional[Tuple[int, int]] = None
            while next_edge < len(ranked):
                _weight, a, b = ranked[next_edge]
                u = b if a == me else a
                if component[u] != component[me]:
                    candidate = (me, u)
                    break
                next_edge += 1
            received = yield from transmit_broadcast(
                ctx, encode(candidate), max_bits=message_bits
            )
            proposals: Dict[int, Tuple[int, int, int]] = {}
            for sender, payload in received.items():
                decoded = decode(payload)
                if decoded is None:
                    continue
                weight, u, v = decoded
                comp = component[u]
                key = (weight, u, v) if u < v else (weight, v, u)
                if comp not in proposals or key < proposals[comp]:
                    proposals[comp] = key
            if candidate is not None:
                key = ranked[next_edge]
                comp = component[me]
                if comp not in proposals or key < proposals[comp]:
                    proposals[comp] = key
            if not proposals:
                break
            # merge: each selected edge unions two components; process
            # in a deterministic order so all nodes stay consistent.
            for _weight, u, v in sorted(set(proposals.values())):
                cu, cv = component[u], component[v]
                if cu == cv:
                    continue
                tree.add(canonical_edge(u, v))
                low, high = min(cu, cv), max(cu, cv)
                for w in members[high]:
                    component[w] = low
                members[low].extend(members[high])
                members[high] = []
        return frozenset(tree)

    return program


def boruvka_mst(
    wg: WeightedGraph,
    bandwidth: int,
    seed: int = 0,
    record_transcript: bool = False,
    engine: str = "fast",
) -> Tuple[Set[Edge], RunResult]:
    """Run Borůvka on CLIQUE-BCAST; every node outputs the same MST
    (minimum spanning forest if disconnected)."""
    network = Network(
        n=wg.graph.n,
        bandwidth=bandwidth,
        mode=Mode.BROADCAST,
        seed=seed,
        record_transcript=record_transcript,
        engine=engine,
    )
    result = network.run(boruvka_program(wg))
    first = result.outputs[0]
    assert all(out == first for out in result.outputs)
    return set(first), result
