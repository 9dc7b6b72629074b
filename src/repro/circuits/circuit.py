"""DAG circuits with the paper's complexity measures.

A circuit is a DAG of gates (Section 2): inputs are source nodes,
outputs are marked gates, the *depth* is the longest input-to-output
path, and the *wire count* is the number of edges.  ``layers()``
computes exactly the layering used in Theorem 2's simulation:
L_0 = gates with no inputs, and L_r = gates whose inputs all lie in
earlier layers.

Gate ids are dense integers assigned in insertion order; inputs must
already exist when a gate is added, which guarantees acyclicity by
construction.

A circuit is stored as columns, not as per-gate objects: one palette
code per node (an index into the distinct :class:`Gate` objects, or a
source code for inputs and constants), one fan-in per node, and the
flat ``int32`` array of every node's input ids in order, plus the input
ids and the constants' values.  :meth:`Circuit.add_gates` and
:meth:`Circuit.add_gate_columns` append many gates with one vectorized
check, which is how :func:`~repro.circuits.arithmetic.matmul_circuit_strassen`
builds half a million gates without a Python loop.

Everything Theorem 2's prepare needs is derived from the columns with
numpy: :meth:`Circuit.table` is the cached CSR :class:`CircuitTable`
(family, fan-in, offsets, flat inputs, fan-out, layer, and the
evaluator's per-gate parameters), and ``layers()``, ``wire_count()``,
``weight()`` and ``fan_out()`` read it.  :class:`GateNode` objects are
built lazily, once, only for the per-gate paths that walk nodes —
``nodes``, ``node()``, ``evaluate()``, the transforms and the generator
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.gates import (
    AndGate,
    Gate,
    ModGate,
    NotGate,
    OrGate,
    ThresholdGate,
    XorGate,
)

__all__ = [
    "GateNode",
    "Circuit",
    "CircuitTable",
    "INPUT_KIND",
    "CONST_KIND",
    "GATE_KIND",
]

INPUT_KIND = "input"
CONST_KIND = "const"
GATE_KIND = "gate"

# Palette codes of the nodes that are not gates.
_INPUT = -1
_CONST = -2

#: ``CircuitTable.family`` codes: the gate families the Theorem-2 layer
#: evaluator sums, in its layout order; FALLBACK_FAMILY (last) for every
#: other gate; SOURCE_FAMILY for inputs and constants.
(
    AND_FAMILY,
    OR_FAMILY,
    NOT_FAMILY,
    XOR_FAMILY,
    MOD_FAMILY,
    THR_FAMILY,
    FALLBACK_FAMILY,
) = range(7)
SOURCE_FAMILY = -1
_FAMILY_CLASSES = (
    (AndGate, AND_FAMILY),
    (OrGate, OR_FAMILY),
    (NotGate, NOT_FAMILY),
    (XorGate, XOR_FAMILY),
    (ModGate, MOD_FAMILY),
    (ThresholdGate, THR_FAMILY),
)
# Weighted sums, thresholds and moduli past this stay exact in int64.
_INT64_SAFE = 1 << 62


@dataclass(frozen=True)
class GateNode:
    gate_id: int
    kind: str
    gate: Optional[Gate]
    inputs: Tuple[int, ...]
    const_value: bool = False
    input_index: int = -1


def _family_and_param(gate: Gate) -> Tuple[int, int]:
    """(family code, MOD modulus or threshold) of one palette gate."""
    family = next(
        (f for cls, f in _FAMILY_CLASSES if isinstance(gate, cls)), FALLBACK_FAMILY
    )
    if family == MOD_FAMILY:
        param, total = gate.modulus, 0
    elif family == THR_FAMILY:
        param = gate.threshold
        total = 0 if gate.weights is None else sum(gate.weights)
    else:
        return family, 0
    if max(param, total) >= _INT64_SAFE:
        return FALLBACK_FAMILY, 0
    return family, param


@dataclass(frozen=True, eq=False)
class CircuitTable:
    """Every node of a circuit in CSR form.

    ``family`` (``int8``) is the evaluator family of each node
    (SOURCE_FAMILY for inputs and constants), ``code`` its palette index
    into ``palette`` (negative for sources).  Node ``g`` reads
    ``flat[offsets[g]:offsets[g + 1]]`` (``int32``), ``fan_in[g]`` ids.
    ``fan_out`` counts the wires leaving each node and ``layer`` is the
    paper's layering (the longest path from a source).  ``param`` holds
    each MOD gate's modulus and each threshold gate's threshold;
    ``weights`` the per-wire weights, or ``None`` unless some threshold
    gate is weighted.
    """

    palette: Tuple[Gate, ...]
    code: np.ndarray
    family: np.ndarray
    fan_in: np.ndarray
    offsets: np.ndarray
    flat: np.ndarray
    fan_out: np.ndarray
    layer: np.ndarray
    param: np.ndarray
    weights: Optional[np.ndarray]

    def gate(self, gate_id: int) -> Optional[Gate]:
        code = int(self.code[gate_id])
        return self.palette[code] if code >= 0 else None

    def inputs(self, gate_id: int) -> np.ndarray:
        return self.flat[self.offsets[gate_id] : self.offsets[gate_id + 1]]

    @classmethod
    def from_columns(
        cls, palette: Sequence[Gate], code: np.ndarray, fan_in: np.ndarray,
        flat: np.ndarray,
    ) -> "CircuitTable":
        count = code.size
        fan_in = fan_in.astype(np.int64)
        offsets = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(fan_in, out=offsets[1:])
        per_gate = [_family_and_param(gate) for gate in palette]
        # Index -1 and -2 (the source codes) land on the appended slots.
        pal_family = np.asarray(
            [f for f, _ in per_gate] + [SOURCE_FAMILY, SOURCE_FAMILY], dtype=np.int8
        )
        pal_param = np.asarray([p for _, p in per_gate] + [0, 0], dtype=np.int64)
        family = pal_family[code]
        param = pal_param[code]
        weights = None
        for index, gate in enumerate(palette):
            if per_gate[index][0] != THR_FAMILY or gate.weights is None:
                continue
            gids = np.flatnonzero(code == index)
            if gids.size == 0:
                continue
            if weights is None:
                weights = np.ones(flat.size, dtype=np.int64)
            wires = offsets[gids, None] + np.arange(len(gate.weights))
            weights[wires] = gate.weights
        return cls(
            palette=tuple(palette),
            code=code,
            family=family,
            fan_in=fan_in,
            offsets=offsets,
            flat=flat,
            fan_out=np.bincount(flat, minlength=count).astype(np.int64),
            layer=_longest_path(fan_in, flat),
            param=param,
            weights=weights,
        )


def _longest_path(fan_in: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Each node's layer: 0 for sources, 1 + the largest input layer
    otherwise, in about depth + 1 passes of one gather and one
    ``np.maximum.reduceat``.  Before pass p every unsettled gate holds
    p - 1, so the pass leaves each at min(layer, p): the gates below p
    are settled and drop out, with their wires, from later passes."""
    layer = np.zeros(fan_in.size, dtype=np.int32)
    gates = np.flatnonzero(fan_in)
    seg = fan_in[gates]
    wires = flat
    level = 0
    while gates.size:
        level += 1
        starts = np.cumsum(seg) - seg
        reached = np.maximum.reduceat(layer[wires], starts)
        reached += 1
        layer[gates] = reached
        deeper = reached == level
        wires = wires[np.repeat(deeper, seg)]
        gates, seg = gates[deeper], seg[deeper]
    return layer


class _Column:
    """An append-only integer column: single values buffer in a list,
    bulk arrays append as chunks, :meth:`array` joins them once."""

    __slots__ = ("dtype", "chunks", "tail")

    def __init__(self, dtype, values: Optional[np.ndarray] = None) -> None:
        self.dtype = dtype
        self.chunks: List[np.ndarray] = [] if values is None else [values]
        self.tail: List[int] = []

    def extend(self, values) -> None:
        if isinstance(values, np.ndarray):
            self._flush()
            self.chunks.append(values.astype(self.dtype, copy=False).ravel())
        else:
            self.tail.extend(values)

    def _flush(self) -> None:
        if self.tail:
            self.chunks.append(np.asarray(self.tail, dtype=self.dtype))
            self.tail = []

    def array(self) -> np.ndarray:
        self._flush()
        if len(self.chunks) != 1:
            self.chunks = [
                np.concatenate(self.chunks) if self.chunks
                else np.zeros(0, dtype=self.dtype)
            ]
        return self.chunks[0]


class Circuit:
    """A Boolean circuit as a DAG, stored as columns (see the module
    docstring)."""

    def __init__(self) -> None:
        self._palette: List[Gate] = []
        self._palette_index: Dict[int, int] = {}
        self._code = _Column(np.int32)
        self._fan_in = _Column(np.int32)
        self._flat = _Column(np.int32)
        self._count = 0
        self._input_ids: List[int] = []
        self._const_ids: List[int] = []
        self._const_values: List[bool] = []
        self._outputs: List[int] = []
        self._nodes: Optional[List[GateNode]] = None
        self._table: Optional[CircuitTable] = None

    # -- pickling: the columns and outputs, never the caches ---------------

    def __getstate__(self):
        return {
            "palette": self._palette,
            "code": self._code.array(),
            "fan_in": self._fan_in.array(),
            "flat": self._flat.array(),
            "input_ids": self._input_ids,
            "const_ids": self._const_ids,
            "const_values": self._const_values,
            "outputs": self._outputs,
        }

    def __setstate__(self, state) -> None:
        self._palette = list(state["palette"])
        self._palette_index = {id(gate): i for i, gate in enumerate(self._palette)}
        self._code = _Column(np.int32, state["code"])
        self._fan_in = _Column(np.int32, state["fan_in"])
        self._flat = _Column(np.int32, state["flat"])
        self._count = int(state["code"].size)
        self._input_ids = list(state["input_ids"])
        self._const_ids = list(state["const_ids"])
        self._const_values = list(state["const_values"])
        self._outputs = list(state["outputs"])
        self._nodes = None
        self._table = None

    # -- construction ----------------------------------------------------

    def _append_sources(self, code: int, count: int) -> List[int]:
        start = self._count
        self._code.extend([code] * count)
        self._fan_in.extend([0] * count)
        self._count += count
        self._nodes = self._table = None
        return list(range(start, start + count))

    def add_input(self) -> int:
        return self.add_inputs(1)[0]

    def add_inputs(self, count: int) -> List[int]:
        gids = self._append_sources(_INPUT, count)
        self._input_ids.extend(gids)
        return gids

    def add_const(self, value: bool) -> int:
        (gid,) = self._append_sources(_CONST, 1)
        self._const_ids.append(gid)
        self._const_values.append(bool(value))
        return gid

    def _palette_code(self, gate: Gate) -> int:
        code = self._palette_index.get(id(gate))
        if code is None:
            code = self._palette_index[id(gate)] = len(self._palette)
            self._palette.append(gate)
        return code

    def add_gate(self, gate: Gate, inputs: Sequence[int]) -> int:
        gid = self._count
        for source in inputs:
            if not 0 <= source < gid:
                raise ValueError(
                    f"gate {gid} references nonexistent input {source}"
                )
        arity = gate.arity()
        if arity is not None and len(inputs) != arity:
            raise ValueError(
                f"gate {gate!r} has arity {arity}, got {len(inputs)} inputs"
            )
        if len(inputs) == 0:
            raise ValueError("non-input gates must have at least one input")
        self._code.extend([self._palette_code(gate)])
        self._fan_in.extend([len(inputs)])
        self._flat.extend(inputs)
        self._count += 1
        self._nodes = self._table = None
        return gid

    def add_gates(self, gate: Gate, inputs) -> np.ndarray:
        """Append one ``gate`` per row of the 2-D id array ``inputs``;
        returns the new gate ids.  Same checks as :meth:`add_gate`."""
        inputs = np.asarray(inputs)
        if inputs.ndim != 2:
            raise ValueError(f"inputs must be a 2-D id array, got shape {inputs.shape}")
        count, arity = inputs.shape
        return self.add_gate_columns(
            [gate],
            np.zeros(count, dtype=np.int32),
            np.full(count, arity, dtype=np.int32),
            inputs.ravel(),
        )

    def add_gate_columns(
        self, gates: Sequence[Gate], kinds, fan_in, flat
    ) -> np.ndarray:
        """Append ``len(kinds)`` gates given as columns: gate ``i`` is
        ``gates[kinds[i]]`` reading the next ``fan_in[i]`` ids of
        ``flat``.  Returns the new gate ids.  Every gate is checked as
        :meth:`add_gate` checks one, with a few array operations."""
        kinds = np.asarray(kinds, dtype=np.int64).ravel()
        fan_in = np.asarray(fan_in, dtype=np.int64).ravel()
        flat = np.asarray(flat, dtype=np.int64).ravel()
        start = self._count
        if kinds.size != fan_in.size:
            raise ValueError("kinds and fan_in must name one entry per gate")
        if kinds.size and not (0 <= kinds.min() and kinds.max() < len(gates)):
            raise ValueError(f"kinds must index the {len(gates)} gates given")
        if (fan_in < 0).any() or flat.size != int(fan_in.sum()):
            raise ValueError("flat must hold exactly fan_in[i] ids per gate")
        gids = np.arange(start, start + kinds.size, dtype=np.int64)
        own = np.repeat(gids, fan_in)
        bad = np.flatnonzero((flat < 0) | (flat >= own))
        if bad.size:
            raise ValueError(
                f"gate {own[bad[0]]} references nonexistent input {flat[bad[0]]}"
            )
        for kind, gate in enumerate(gates):
            arity = gate.arity()
            if arity is None:
                continue
            wrong = np.flatnonzero((kinds == kind) & (fan_in != arity))
            if wrong.size:
                raise ValueError(
                    f"gate {gate!r} has arity {arity}, got {fan_in[wrong[0]]} inputs"
                )
        if (fan_in == 0).any():
            raise ValueError("non-input gates must have at least one input")
        codes = np.asarray([self._palette_code(gate) for gate in gates], dtype=np.int32)
        self._code.extend(codes[kinds])
        self._fan_in.extend(fan_in)
        self._flat.extend(flat)
        self._count += int(kinds.size)
        self._nodes = self._table = None
        return gids

    def mark_output(self, gate_id: int) -> None:
        self._outputs.append(self._checked(gate_id))

    # -- queries ----------------------------------------------------------

    def table(self) -> CircuitTable:
        """The cached CSR :class:`CircuitTable` of the whole circuit,
        rebuilt only after the circuit grows."""
        if self._table is None:
            self._table = CircuitTable.from_columns(
                self._palette,
                self._code.array(),
                self._fan_in.array(),
                self._flat.array(),
            )
        return self._table

    @property
    def nodes(self) -> Sequence[GateNode]:
        """Every node as a :class:`GateNode`, built once from the columns
        and cached until the next add."""
        if self._nodes is None:
            palette = self._palette
            flat = self._flat.array().tolist()
            input_index = {gid: i for i, gid in enumerate(self._input_ids)}
            const_value = dict(zip(self._const_ids, self._const_values))
            nodes: List[GateNode] = []
            pos = 0
            for gid, (code, fan) in enumerate(
                zip(self._code.array().tolist(), self._fan_in.array().tolist())
            ):
                if code >= 0:
                    nodes.append(
                        GateNode(gid, GATE_KIND, palette[code], tuple(flat[pos : pos + fan]))
                    )
                    pos += fan
                elif code == _INPUT:
                    nodes.append(
                        GateNode(gid, INPUT_KIND, None, (), input_index=input_index[gid])
                    )
                else:
                    nodes.append(
                        GateNode(gid, CONST_KIND, None, (), const_value=const_value[gid])
                    )
            self._nodes = nodes
        return self._nodes

    def node(self, gate_id: int) -> GateNode:
        return self.nodes[self._checked(gate_id)]

    def __len__(self) -> int:
        return self._count

    @property
    def outputs(self) -> List[int]:
        return list(self._outputs)

    @property
    def input_ids(self) -> List[int]:
        return list(self._input_ids)

    @property
    def num_inputs(self) -> int:
        return len(self._input_ids)

    def constants(self) -> Tuple[np.ndarray, np.ndarray]:
        """(gate ids, 0/1 ``uint8`` values) of the constant nodes."""
        return (
            np.asarray(self._const_ids, dtype=np.intp),
            np.asarray(self._const_values, dtype=np.uint8),
        )

    def fan_in(self, gate_id: int) -> int:
        return int(self.table().fan_in[self._checked(gate_id)])

    def fan_out(self, gate_id: int) -> int:
        return int(self.table().fan_out[self._checked(gate_id)])

    def _checked(self, gate_id: int) -> int:
        if not 0 <= gate_id < self._count:
            raise ValueError(f"no gate with id {gate_id}")
        return gate_id

    def weight(self, gate_id: int) -> int:
        """w(G) = |in(G)| + |out(G)| — the measure driving Theorem 2's
        heavy/light split."""
        return self.fan_in(gate_id) + self.fan_out(gate_id)

    def wire_count(self) -> int:
        """Number of wires N (edges of the DAG)."""
        return int(self.table().flat.size)

    def layers(self) -> List[List[int]]:
        """The paper's layering: L_0 = sources; L_r = gates whose inputs
        all lie in strictly earlier layers."""
        layer = self.table().layer
        if layer.size == 0:
            return []
        order = np.argsort(layer, kind="stable")
        bounds = np.cumsum(np.bincount(layer))[:-1]
        return [part.tolist() for part in np.split(order, bounds)]

    def depth(self) -> int:
        """Longest path from a source to any gate (= number of non-input
        layers)."""
        layer = self.table().layer
        return int(layer.max()) if layer.size else -1

    def max_summary_width(self) -> int:
        """Largest separability parameter over all gates — the b of
        Definition 1 actually needed by this circuit."""
        table = self.table()
        gates = table.code >= 0
        if not gates.any():
            return 1
        pairs = np.unique(
            np.stack([table.code[gates], table.fan_in[gates]], axis=1), axis=0
        )
        width = 1
        for code, fan_in in pairs.tolist():
            width = max(width, self._palette[code].summary_width(fan_in))
        return width

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, input_values: Sequence[bool]) -> Dict[int, bool]:
        """Direct (non-distributed) evaluation; returns value of every
        gate.  This is the ground truth the simulation is tested against."""
        if len(input_values) != self.num_inputs:
            raise ValueError(
                f"expected {self.num_inputs} inputs, got {len(input_values)}"
            )
        values: Dict[int, bool] = {}
        for node in self.nodes:
            if node.kind == INPUT_KIND:
                values[node.gate_id] = bool(input_values[node.input_index])
            elif node.kind == CONST_KIND:
                values[node.gate_id] = node.const_value
            else:
                values[node.gate_id] = node.gate.compute(
                    [values[src] for src in node.inputs]
                )
        return values

    def evaluate_outputs(self, input_values: Sequence[bool]) -> List[bool]:
        values = self.evaluate(input_values)
        return [values[gid] for gid in self._outputs]

    def stats(self) -> Dict[str, int]:
        return {
            "gates": len(self),
            "inputs": self.num_inputs,
            "outputs": len(self._outputs),
            "wires": self.wire_count(),
            "depth": self.depth(),
            "max_summary_width": self.max_summary_width(),
        }

    def __repr__(self) -> str:
        return (
            f"Circuit(gates={len(self)}, wires={self.wire_count()}, "
            f"depth={self.depth()})"
        )
