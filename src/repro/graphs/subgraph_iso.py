"""Subgraph-containment search (non-induced subgraph isomorphism).

The H-subgraph detection problem of Section 3 asks whether the input
graph G contains a subgraph isomorphic to a fixed pattern H — a
*non-induced* embedding (an injective homomorphism).  The detection
algorithms run this search locally after reconstructing G, and the
lower-bound machinery uses exhaustive copy enumeration to verify the
conditions of Definition 10.

The search is plain backtracking with degree pruning and a
most-constrained-first variable order; H is constant-sized throughout
the paper, so this is plenty fast for the instance sizes we simulate.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.graphs.graph import Edge, Graph, canonical_edge

__all__ = [
    "find_embedding",
    "contains_subgraph",
    "iter_embeddings",
    "enumerate_copies",
    "count_copies",
    "find_clique",
]


def _search_order(pattern: Graph) -> List[int]:
    """Order pattern vertices so each (after the first of its component)
    has a previously placed neighbour, starting from high degree."""
    remaining = set(pattern.vertices())
    order: List[int] = []
    placed: Set[int] = set()
    while remaining:
        anchored = [v for v in remaining if pattern.neighbors(v) & placed]
        if anchored:
            nxt = max(
                anchored,
                key=lambda v: (len(pattern.neighbors(v) & placed), pattern.degree(v)),
            )
        else:
            nxt = max(remaining, key=pattern.degree)
        order.append(nxt)
        placed.add(nxt)
        remaining.discard(nxt)
    return order


def iter_embeddings(host: Graph, pattern: Graph) -> Iterator[Dict[int, int]]:
    """Yield every injective homomorphism ``pattern -> host`` as a dict
    mapping pattern vertices to host vertices.

    Distinct automorphic images of the same copy are yielded separately;
    use :func:`enumerate_copies` for deduplicated copies.
    """
    if pattern.n == 0:
        yield {}
        return
    if pattern.n > host.n:
        return
    order = _search_order(pattern)
    degrees = [pattern.degree(v) for v in pattern.vertices()]
    assignment: Dict[int, int] = {}
    used: Set[int] = set()

    def candidates(h: int) -> Iterator[int]:
        anchors = [assignment[u] for u in pattern.neighbors(h) if u in assignment]
        if anchors:
            pool = set(host.neighbors(anchors[0]))
            for a in anchors[1:]:
                pool &= host.neighbors(a)
            for g in sorted(pool):
                if g not in used and host.degree(g) >= degrees[h]:
                    yield g
        else:
            for g in host.vertices():
                if g not in used and host.degree(g) >= degrees[h]:
                    yield g

    def backtrack(depth: int) -> Iterator[Dict[int, int]]:
        if depth == len(order):
            yield dict(assignment)
            return
        h = order[depth]
        for g in candidates(h):
            assignment[h] = g
            used.add(g)
            yield from backtrack(depth + 1)
            del assignment[h]
            used.discard(g)

    try:
        yield from backtrack(0)
    finally:
        # ``backtrack`` reaches itself through its closure; clearing the
        # cell breaks that cycle, so the host graph is freed as soon as
        # the search ends instead of at the next cyclic collection.
        del backtrack


def find_embedding(host: Graph, pattern: Graph) -> Optional[Dict[int, int]]:
    """The first embedding found, or ``None`` if the host is pattern-free."""
    for embedding in iter_embeddings(host, pattern):
        return embedding
    return None


def contains_subgraph(host: Graph, pattern: Graph) -> bool:
    return find_embedding(host, pattern) is not None


def enumerate_copies(
    host: Graph,
    pattern: Graph,
    limit: Optional[int] = None,
) -> Set[FrozenSet[Edge]]:
    """All distinct copies of ``pattern`` in ``host``, each represented by
    the frozenset of host edges it uses (deduplicating automorphisms).

    ``limit`` bounds the number of *distinct copies* collected.
    """
    copies: Set[FrozenSet[Edge]] = set()
    for embedding in iter_embeddings(host, pattern):
        edges = frozenset(
            canonical_edge(embedding[u], embedding[v]) for u, v in pattern.edges()
        )
        copies.add(edges)
        if limit is not None and len(copies) >= limit:
            break
    return copies


def count_copies(host: Graph, pattern: Graph) -> int:
    """Number of distinct copies (by edge set) of ``pattern`` in ``host``."""
    return len(enumerate_copies(host, pattern))


def find_clique(host: Graph, size: int) -> Optional[Tuple[int, ...]]:
    """Fast path: find a clique of the given size, or None.

    Simple pivoting backtracking over common-neighbour sets; much faster
    than the generic embedding search for cliques.
    """
    if size == 0:
        return ()
    vertices_by_degree = sorted(host.vertices(), key=host.degree, reverse=True)

    def extend(clique: List[int], pool: Set[int]) -> Optional[Tuple[int, ...]]:
        if len(clique) == size:
            return tuple(clique)
        if len(clique) + len(pool) < size:
            return None
        for v in sorted(pool):
            result = extend(clique + [v], pool & host.neighbors(v))
            if result is not None:
                return result
        return None

    for v in vertices_by_degree:
        if host.degree(v) < size - 1:
            continue
        result = extend([v], {u for u in host.neighbors(v) if u > v})
        if result is not None:
            return result
    return None
