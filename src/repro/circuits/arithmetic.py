"""Arithmetic circuits over F2 for matrix multiplication (Section 2.1).

The paper's conditional triangle-detection result translates small
arithmetic circuits for matrix multiplication into fast CLIQUE-UCAST
protocols via the Theorem 2 simulation.  Over F2, addition is XOR and
multiplication is AND, so an arithmetic circuit *is* a Boolean circuit
of O(1)-separable gates.

Two constructions are provided:

* :func:`matmul_circuit_naive` — the school method: k³ AND gates and k²
  unbounded-fan-in XOR gates, depth 2, Θ(k³) wires.
* :func:`matmul_circuit_strassen` — Strassen's recursion (exponent
  log2 7 ≈ 2.81): Θ(k^{2.81}) wires and O(log k) depth, standing in for
  the "size O(n^{2+ε}) circuits" of the conjecture.  The block structure
  mirrors the Bürgisser–Clausen–Shokrollahi Prop. 15.1 argument the
  paper cites for getting few wires *and* small depth.

Both are built as gate columns, one bulk
:meth:`~repro.circuits.circuit.Circuit.add_gate_columns` call per
circuit.  Strassen's recursion is laid out one depth at a time — all
7^d sub-products of depth d as one stack of id matrices — and every gate
gets the id the depth-first recursion would give it, from closed-form
offsets (ten block sums, seven sub-products, four output blocks per
step), so the circuit is the same gate for gate.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.gates import AND, XOR

__all__ = [
    "matmul_circuit_naive",
    "matmul_circuit_strassen",
    "pack_matrices",
    "unpack_product",
]

# Gate kinds of the bulk-built columns: indices into _GATES.
_AND, _XOR = 0, 1
_GATES = (AND, XOR)

# One bulk-built block of gates: (ids, kind, one row of input ids per gate).
Chunk = Tuple[np.ndarray, int, np.ndarray]

# The inputs of the four output quadrants c11, c12, c21, c22 as indices
# into the seven Strassen products m1..m7.
_QUADRANT_PRODUCTS = ((0, 3, 4, 6), (2, 4), (1, 3), (0, 1, 2, 5))


def _leaf_gates(size: int) -> int:
    """Gates of the school method on size×size blocks: size ANDs per
    entry, plus one XOR when there is more than one product."""
    return size * size * (size + (size > 1))


def _gate_count(size: int, cutoff: int) -> int:
    """Gates the depth-first Strassen recursion adds for one size×size
    product: ten block sums, seven sub-products, four output blocks."""
    if size <= cutoff:
        return _leaf_gates(size)
    half = size // 2
    return 14 * half * half + 7 * _gate_count(half, cutoff)


def _product_ids(size: int, cutoff: int) -> np.ndarray:
    """Id of each entry of a product, relative to the first gate its
    recursion adds."""
    if size <= cutoff:
        per_entry = size + (size > 1)
        # The entry's XOR follows its ANDs; a 1×1 product is its AND.
        return np.arange(size * size).reshape(size, size) * per_entry + size * (
            size > 1
        )
    half = size // 2
    quarter = half * half
    first = 10 * quarter + 7 * _gate_count(half, cutoff)
    block = np.arange(quarter).reshape(half, half) + first
    return np.block(
        [[block, block + quarter], [block + 2 * quarter, block + 3 * quarter]]
    )


def _school_chunks(a: np.ndarray, b: np.ndarray, base: np.ndarray) -> List[Chunk]:
    """School-method gates of the products a[p]·b[p] (id stacks of shape
    P×L×L), product p's gates starting at base[p]: for each entry (i, j)
    in row-major order, the L ANDs a[i][k]·b[k][j], then their XOR."""
    size = a.shape[1]
    per_entry = size + (size > 1)
    entry = np.arange(size * size).reshape(size, size) * per_entry
    # and_ids[p, i, j, k]
    and_ids = base[:, None, None, None] + entry[None, :, :, None] + np.arange(size)
    pairs = np.broadcast_arrays(
        a[:, :, None, :], b.transpose(0, 2, 1)[:, None, :, :]
    )
    chunks = [(and_ids.ravel(), _AND, np.stack(pairs, axis=-1).reshape(-1, 2))]
    if size > 1:
        xor_ids = base[:, None, None] + entry + size
        chunks.append((xor_ids.ravel(), _XOR, and_ids.reshape(-1, size)))
    return chunks


def _strassen_chunks(
    a: np.ndarray, b: np.ndarray, cutoff: int, first: int
) -> List[Chunk]:
    """Every gate of Strassen's recursion on the id matrices a, b, with
    the ids the depth-first build assigns from ``first`` on, built one
    recursion depth at a time: all 7^d sub-products of depth d form one
    P×s×s id stack, product p's gates starting at base[p]."""
    a, b = a[None], b[None]
    base = np.full(1, first, dtype=np.int64)
    chunks: List[Chunk] = []
    size = a.shape[1]
    while size > cutoff:
        half = size // 2
        q = half * half
        g = _gate_count(half, cutoff)
        block = np.arange(q).reshape(half, half)

        def xor_block(offset: int, *operands: np.ndarray) -> np.ndarray:
            gids = base[:, None, None] + offset + block
            rows = np.stack(np.broadcast_arrays(*operands), axis=-1)
            chunks.append((gids.ravel(), _XOR, rows.reshape(-1, len(operands))))
            return gids

        a11, a12 = a[:, :half, :half], a[:, :half, half:]
        a21, a22 = a[:, half:, :half], a[:, half:, half:]
        b11, b12 = b[:, :half, :half], b[:, :half, half:]
        b21, b22 = b[:, half:, :half], b[:, half:, half:]
        # (left factor, right factor, offset of the sub-product) of
        # m1..m7; each block sum sits where the depth-first build puts it,
        # just before the sub-product that consumes it.
        products = [
            (xor_block(0, a11, a22), xor_block(q, b11, b22), 2 * q),
            (xor_block(2 * q + g, a21, a22), b11, 3 * q + g),
            (a11, xor_block(3 * q + 2 * g, b12, b22), 4 * q + 2 * g),
            (a22, xor_block(4 * q + 3 * g, b21, b11), 5 * q + 3 * g),
            (xor_block(5 * q + 4 * g, a11, a12), b22, 6 * q + 4 * g),
            (
                xor_block(6 * q + 5 * g, a21, a11),
                xor_block(7 * q + 5 * g, b11, b12),
                8 * q + 5 * g,
            ),
            (
                xor_block(8 * q + 6 * g, a12, a22),
                xor_block(9 * q + 6 * g, b21, b22),
                10 * q + 6 * g,
            ),
        ]
        result = _product_ids(half, cutoff)
        m = [base[:, None, None] + offset + result for _, _, offset in products]
        for quadrant, parts in enumerate(_QUADRANT_PRODUCTS):
            xor_block(10 * q + 7 * g + quadrant * q, *(m[p] for p in parts))
        a = np.stack(
            np.broadcast_arrays(*(left for left, _, _ in products)), axis=1
        ).reshape(-1, half, half)
        b = np.stack(
            np.broadcast_arrays(*(right for _, right, _ in products)), axis=1
        ).reshape(-1, half, half)
        offsets = np.asarray([offset for _, _, offset in products], dtype=np.int64)
        base = (base[:, None] + offsets).ravel()
        size = half
    return chunks + _school_chunks(a, b, base)


def _add_chunks(circuit: Circuit, chunks: List[Chunk], total: int) -> None:
    """Append the ``total`` gates of ``chunks``, whose ids cover the
    next ``total`` free ids exactly, with one bulk add."""
    first = len(circuit)
    kinds = np.full(total, -1, dtype=np.int64)
    fan_in = np.zeros(total, dtype=np.int64)
    for gids, kind, rows in chunks:
        kinds[gids - first] = kind
        fan_in[gids - first] = rows.shape[1]
    offsets = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(fan_in, out=offsets[1:])
    flat = np.empty(int(offsets[-1]), dtype=np.int64)
    for gids, _, rows in chunks:
        flat[offsets[gids - first][:, None] + np.arange(rows.shape[1])] = rows
    circuit.add_gate_columns(_GATES, kinds, fan_in, flat)


def _check_positive(**values: int) -> None:
    for name, value in values.items():
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


def _input_matrices(circuit: Circuit, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """Add A's then B's size² inputs; returns their id matrices."""
    ids = np.asarray(circuit.add_inputs(2 * size * size), dtype=np.int64)
    return ids[: size * size].reshape(size, size), ids[size * size :].reshape(size, size)


def matmul_circuit_naive(size: int) -> Circuit:
    """C = A·B over F2, school method.  Inputs: A row-major, then B
    row-major; outputs: C row-major."""
    _check_positive(size=size)
    circuit = Circuit()
    a, b = _input_matrices(circuit, size)
    first = np.full(1, len(circuit), dtype=np.int64)
    _add_chunks(circuit, _school_chunks(a[None], b[None], first), _leaf_gates(size))
    for gid in (first[0] + _product_ids(size, size)).ravel().tolist():
        circuit.mark_output(gid)
    return circuit


def matmul_circuit_strassen(size: int, cutoff: int = 2) -> Circuit:
    """C = A·B over F2 by Strassen's recursion (padded to a power of 2),
    recursing down to blocks of at most ``cutoff`` rows, which use the
    school method.  Gate ids follow the depth-first recursion."""
    _check_positive(size=size, cutoff=cutoff)
    circuit = Circuit()
    a, b = _input_matrices(circuit, size)
    padded = 1 << (size - 1).bit_length()
    if padded != size:
        # One zero constant per padded matrix.
        padded_ids = []
        for mat in (a, b):
            full = np.full((padded, padded), circuit.add_const(False), dtype=np.int64)
            full[:size, :size] = mat
            padded_ids.append(full)
        a, b = padded_ids
    first = len(circuit)
    _add_chunks(
        circuit, _strassen_chunks(a, b, cutoff, first), _gate_count(padded, cutoff)
    )
    outputs = first + _product_ids(padded, cutoff)[:size, :size]
    for gid in outputs.ravel().tolist():
        circuit.mark_output(gid)
    return circuit


def pack_matrices(a_rows: Sequence[Sequence[int]], b_rows: Sequence[Sequence[int]]) -> List[bool]:
    """Flatten two 0/1 matrices into the circuit input order."""
    flat: List[bool] = []
    for row in a_rows:
        flat.extend(bool(x) for x in row)
    for row in b_rows:
        flat.extend(bool(x) for x in row)
    return flat


def unpack_product(outputs: Sequence[bool], size: int) -> List[List[int]]:
    """Reshape the circuit's outputs back into a size×size 0/1 matrix."""
    return [
        [1 if outputs[i * size + j] else 0 for j in range(size)]
        for i in range(size)
    ]
