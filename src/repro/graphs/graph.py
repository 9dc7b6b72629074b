"""A small, fast undirected simple-graph type.

The library deliberately implements its own graph substrate (adjacency
sets over vertices ``0..n-1``) rather than depending on networkx; the
test suite uses networkx only as an oracle.  Everything the paper's
algorithms need is here: neighbourhood queries, induced subgraphs,
adjacency matrices, disjoint unions and relabelling.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Sequence, Set, Tuple

__all__ = ["Graph", "Edge", "canonical_edge"]

Edge = Tuple[int, int]


def canonical_edge(u: int, v: int) -> Edge:
    """The (min, max) representation used for undirected edges."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Undirected simple graph on the fixed vertex set ``0..n-1``."""

    __slots__ = ("_n", "_adj", "_m", "_adj_matrix")

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self._n = n
        self._adj: List[Set[int]] = [set() for _ in range(n)]
        self._m = 0
        self._adj_matrix = None  # memoized adjacency_matrix (read-only)

    # -- construction ----------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Edge]) -> "Graph":
        graph = cls(n)
        for u, v in edges:
            graph.add_edge(u, v)
        return graph

    @classmethod
    def from_adjacency_matrix(cls, matrix) -> "Graph":
        """The graph whose :meth:`adjacency_matrix` is ``matrix``: a
        square, symmetric, zero-diagonal array of booleans (``bool`` or
        0/1 integers).  Adjacency sets and ``m`` are built in bulk from
        one ``nonzero`` scan, not one :meth:`add_edge` per edge; raises
        ``ValueError`` naming the property a malformed array violates."""
        import numpy as np

        mat = np.asarray(matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(
                f"adjacency matrix must be square, got shape {mat.shape}"
            )
        if mat.dtype != np.bool_:
            if mat.dtype.kind not in "biu" or ((mat != 0) & (mat != 1)).any():
                raise ValueError("adjacency matrix must be boolean (0/1 entries)")
            mat = mat.astype(np.bool_)
        if mat.diagonal().any():
            raise ValueError("adjacency matrix must have a zero diagonal")
        if (mat != mat.T).any():
            raise ValueError("adjacency matrix must be symmetric")
        n = mat.shape[0]
        graph = cls(n)
        rows, cols = np.nonzero(mat)
        # ``nonzero`` walks the matrix row-major: row v's neighbours are
        # one contiguous run of ``cols``.
        ends = np.cumsum(np.bincount(rows, minlength=n)).tolist()
        flat = cols.tolist()
        start = 0
        for v, end in enumerate(ends):
            graph._adj[v] = set(flat[start:end])
            start = end
        graph._m = len(flat) // 2
        return graph

    def add_edge(self, u: int, v: int) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u} not allowed")
        if v not in self._adj[u]:
            self._adj[u].add(v)
            self._adj[v].add(u)
            self._m += 1
            self._adj_matrix = None

    def remove_edge(self, u: int, v: int) -> None:
        if v in self._adj[u]:
            self._adj[u].discard(v)
            self._adj[v].discard(u)
            self._m -= 1
            self._adj_matrix = None

    def copy(self) -> "Graph":
        clone = Graph(self._n)
        clone._adj = [set(nbrs) for nbrs in self._adj]
        clone._m = self._m
        # The memoized matrix is immutable, so sharing it is safe: a
        # later mutation of either graph just clears that graph's slot.
        clone._adj_matrix = self._adj_matrix
        return clone

    # -- queries ----------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return self._m

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self._n and v in self._adj[u]

    def neighbors(self, v: int) -> Set[int]:
        """The neighbour set of ``v`` (a live view; do not mutate)."""
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def vertices(self) -> range:
        return range(self._n)

    def edges(self) -> Iterator[Edge]:
        for u in range(self._n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def edge_set(self) -> Set[Edge]:
        return set(self.edges())

    def max_degree(self) -> int:
        return max((len(nbrs) for nbrs in self._adj), default=0)

    def is_independent_set(self, vertices: Iterable[int]) -> bool:
        vs = list(vertices)
        return not any(
            self.has_edge(u, v) for i, u in enumerate(vs) for v in vs[i + 1 :]
        )

    # -- derived graphs ----------------------------------------------------

    def induced_subgraph(self, vertices: Sequence[int]) -> Tuple["Graph", Dict[int, int]]:
        """The subgraph induced by ``vertices``; also returns the map from
        new vertex ids (0..len-1) to the original ids."""
        order = list(vertices)
        index = {old: new for new, old in enumerate(order)}
        if len(index) != len(order):
            raise ValueError("duplicate vertices in induced_subgraph")
        sub = Graph(len(order))
        for old_u in order:
            for old_v in self._adj[old_u]:
                if old_v in index and old_u < old_v:
                    sub.add_edge(index[old_u], index[old_v])
        return sub, dict(enumerate(order))

    def relabel(self, mapping: Dict[int, int], n: int) -> "Graph":
        """A copy of this graph with vertex ``v`` renamed ``mapping[v]``,
        embedded in a graph on ``n`` vertices."""
        out = Graph(n)
        for u, v in self.edges():
            out.add_edge(mapping[u], mapping[v])
        return out

    @staticmethod
    def disjoint_union(first: "Graph", second: "Graph") -> "Graph":
        out = Graph(first.n + second.n)
        for u, v in first.edges():
            out.add_edge(u, v)
        for u, v in second.edges():
            out.add_edge(first.n + u, first.n + v)
        return out

    def adjacency_matrix(self):
        """Adjacency matrix as a **read-only** numpy uint8 array (import
        deferred so the core library stays numpy-free unless you ask for
        matrices).

        The matrix is memoized — repeated calls (matmul-based detection
        sweeps, batched protocol runs) return the same array without
        rebuilding — and invalidated whenever an edge is added or
        removed.  Callers that need a mutable copy must ``.copy()`` it.

        Both triangles of the matrix are filled with two fancy-indexed
        writes over a flat edge array rather than a per-edge Python
        loop."""
        cached = self._adj_matrix
        if cached is not None:
            return cached
        import numpy as np

        mat = np.zeros((self._n, self._n), dtype=np.uint8)
        if self._m:
            flat = np.fromiter(
                (x for edge in self.edges() for x in edge),
                dtype=np.intp,
                count=2 * self._m,
            )
            us = flat[0::2]
            vs = flat[1::2]
            mat[us, vs] = 1
            mat[vs, us] = 1
        mat.flags.writeable = False
        self._adj_matrix = mat
        return mat

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self._n == other._n
            and self._adj == other._adj
        )

    def __hash__(self) -> int:  # graphs are mutable; identity hashing only
        return id(self)

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self._m})"

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise ValueError(f"vertex {v} out of range [0, {self._n})")
