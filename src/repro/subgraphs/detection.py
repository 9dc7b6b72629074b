"""H-subgraph detection in CLIQUE-BCAST (Theorem 7) plus baselines.

Theorem 7: for fixed H, H-subgraph detection runs in
O(ex(n,H)/n · log n / b) rounds — guess the degeneracy bound
k = 4·ex(n,H)/n from Claim 6, run the one-round reconstruction A(G, k)
(chunked into b-bit frames), and search the reconstructed graph locally.

Soundness when reconstruction *fails* follows from Claim 6's
contrapositive: failure certifies degeneracy > 4·ex(n,H)/n, and any
graph of degeneracy > 4·ex(n,H)/n contains a subgraph of minimum degree
> 4·ex(n,H)/n >= 2·ex(n',H)·(n'/n)·(2/n')... i.e. more than ex(n', H)
edges on its n' vertices, hence a copy of H.  So the protocol always
answers the decision problem correctly; a witness is produced whenever
the reconstruction succeeds.

:func:`full_learning_program` is the trivial O(n log n / b) baseline the
paper mentions for χ(H) >= 3: every node broadcasts its adjacency row.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

from repro.core.bits import Bits
from repro.core.compiled import declare_schedule_digest, mark_oblivious
from repro.core.errors import DecodeError
from repro.core.network import Mode, Network, RunResult
from repro.core.phases import transmit_broadcast
from repro.graphs.graph import Edge, Graph, canonical_edge
from repro.graphs.subgraph_iso import find_embedding
from repro.graphs.turan import degeneracy_guess, ex_upper
from repro.subgraphs.becker import algorithm_a

__all__ = [
    "DetectionOutcome",
    "detection_program",
    "detect_subgraph",
    "full_learning_program",
    "full_learning_detect",
    "full_learning_detect_many",
]


@dataclass(frozen=True)
class DetectionOutcome:
    """What each node outputs: the decision, an optional witness (edge
    set of a copy of H), and whether the answer came from a successful
    reconstruction or from the density (degeneracy-overflow) argument."""

    contains: bool
    witness: Optional[FrozenSet[Edge]]
    via_density: bool


def _witness(graph: Graph, pattern: Graph) -> Optional[FrozenSet[Edge]]:
    embedding = find_embedding(graph, pattern)
    if embedding is None:
        return None
    return frozenset(
        canonical_edge(embedding[u], embedding[v]) for u, v in pattern.edges()
    )


def detection_program(pattern: Graph, ex_bound: Optional[int] = None):
    """Theorem 7's node program.  ``ctx.input`` = sorted adjacency list."""

    def program(ctx):
        k = degeneracy_guess(
            ctx.n,
            pattern,
            ex_upper(ctx.n, pattern) if ex_bound is None else ex_bound,
        )
        k = min(k, max(1, ctx.n - 1))
        success, reconstructed = yield from algorithm_a(ctx, ctx.input, k)
        if not success:
            # Degeneracy > 4·ex(n,H)/n certifies a copy of H exists.
            return DetectionOutcome(contains=True, witness=None, via_density=True)
        witness = _witness(reconstructed, pattern)
        return DetectionOutcome(
            contains=witness is not None, witness=witness, via_density=False
        )

    return program


def detect_subgraph(
    graph: Graph,
    pattern: Graph,
    bandwidth: int,
    ex_bound: Optional[int] = None,
    seed: int = 0,
    record_transcript: bool = False,
    engine: str = "fast",
) -> Tuple[DetectionOutcome, RunResult]:
    """Run Theorem 7's protocol on ``graph`` in CLIQUE-BCAST."""
    network = Network(
        n=graph.n,
        bandwidth=bandwidth,
        mode=Mode.BROADCAST,
        seed=seed,
        record_transcript=record_transcript,
        engine=engine,
    )
    inputs = [sorted(graph.neighbors(v)) for v in range(graph.n)]
    result = network.run(detection_program(pattern, ex_bound), inputs=inputs)
    return result.outputs[0], result


def _union_of_rows(rows, n: int):
    """The symmetric n x n bool matrix whose edge set is the union of
    the broadcast rows: ``rows[v]`` is node v's n-bit adjacency row as a
    uint, bit 0 of the row (vertex 0) being its most significant bit.

    All rows are unpacked with one ``np.unpackbits`` over their
    big-endian bytes; the leading pad of ``8 * ceil(n / 8) - n`` bits is
    sliced off.  OR-ing with the transpose keeps an edge either endpoint
    reported, and the diagonal is cleared."""
    import numpy as np

    missing = [v for v in range(n) if v not in rows]
    if missing:
        raise DecodeError(f"the adjacency row of node {missing[0]} never arrived")
    width = -(-n // 8)
    packed = np.frombuffer(
        b"".join(rows[v].to_bytes(width, "big") for v in range(n)),
        dtype=np.uint8,
    ).reshape(n, width)
    matrix = np.unpackbits(packed, axis=1)[:, 8 * width - n :].view(np.bool_)
    matrix = matrix | matrix.T
    np.fill_diagonal(matrix, False)
    return matrix


def full_learning_program(pattern: Graph):
    """The trivial baseline: broadcast the full adjacency row (n bits per
    node, O(n/b) rounds) and search locally.  For χ(H) >= 3 this matches
    Theorem 7's bound up to the log factor, as the paper notes."""

    def program(ctx):
        n = ctx.n
        row = Bits.from_bools([u in ctx.input for u in range(n)])
        received = yield from transmit_broadcast(ctx, row, max_bits=n)
        rows = {v: payload.to_uint() for v, payload in received.items()}
        rows[ctx.node_id] = row.to_uint()
        graph = Graph.from_adjacency_matrix(_union_of_rows(rows, n))
        witness = _witness(graph, pattern)
        return DetectionOutcome(
            contains=witness is not None, witness=witness, via_density=False
        )

    # Every node broadcasts a full n-bit row every run: the phase
    # structure depends only on n, never on the edges — so the
    # persistent-cache identity needs no parts beyond the name (n is
    # part of the cache key material).
    declare_schedule_digest(program, "full_learning")
    return mark_oblivious(program)


def full_learning_detect(
    graph: Graph,
    pattern: Graph,
    bandwidth: int,
    seed: int = 0,
    record_transcript: bool = False,
    engine: str = "fast",
) -> Tuple[DetectionOutcome, RunResult]:
    network = Network(
        n=graph.n,
        bandwidth=bandwidth,
        mode=Mode.BROADCAST,
        seed=seed,
        record_transcript=record_transcript,
        engine=engine,
    )
    inputs = [graph.neighbors(v) for v in range(graph.n)]
    result = network.run(full_learning_program(pattern), inputs=inputs)
    return result.outputs[0], result


def full_learning_detect_many(
    graphs: Sequence[Graph],
    pattern: Graph,
    bandwidth: int,
    seed: int = 0,
) -> Tuple[List[DetectionOutcome], List[RunResult]]:
    """Full-learning detection over many same-size graphs with one
    compiled schedule: the broadcast-phase structure depends only on
    ``n``, so the first instance records it and the rest replay via
    :meth:`~repro.core.network.Network.run_many`.  Per-instance results
    are byte-identical to :func:`full_learning_detect`."""
    if not graphs:
        return [], []
    n = graphs[0].n
    for graph in graphs:
        if graph.n != n:
            raise ValueError("full_learning_detect_many needs same-size graphs")
    network = Network(n=n, bandwidth=bandwidth, mode=Mode.BROADCAST, seed=seed)
    program = full_learning_program(pattern)
    inputs_list = [
        [graph.neighbors(v) for v in range(n)] for graph in graphs
    ]
    results = network.run_many(program, inputs_list)
    return [result.outputs[0] for result in results], results
