"""Kernel form of the Theorem 2 simulation: the whole plan as one
declared round sequence over a stacked gate-value matrix.

The generator :func:`~repro.simulation.protocol.execute_plan` resumes
``n`` coroutines per round; here the same public
:class:`~repro.simulation.protocol.SimulationPlan` compiles into kernel
rounds (:mod:`repro.core.kernels`) operating on one ``K × gates``
value matrix — all nodes, and all ``K`` instances of a
:meth:`~repro.core.network.Network.run_many` sweep, advance with a few
numpy operations per round.  The round sequence, widths and bit totals
are identical to the generator's by construction (the same plan drives
both), and the equivalence suite pins outputs byte-for-byte.

:class:`KernelPlan` compiles a plan once — every index array the rounds
need — and :func:`append_simulation_rounds` replays it into a builder
as often as a protocol repeats the simulation (once per trial in
:func:`~repro.matmul.distributed.triangle_mm_kernel_program`).

Gate evaluation is levelized: a :class:`LayerEvaluator` lays one
layer's light (or heavy) gates out in CSR form, grouped by family, and
evaluates all of them for all instances with one gather, one
``np.add.reduceat`` and one comparison per family (AND: sum == fan-in,
OR: sum > 0, NOT: sum == 0, XOR: odd sum, MOD_m: sum ≡ 0 mod m,
threshold: weighted sum ≥ t).  Gates outside those families
(:class:`~repro.circuits.gates.GenericGate`, unknown subclasses) fall
back to :func:`vector_compute`.  Partial summaries for the heavy-gate
rounds come from :func:`vector_summary`.  Owners evaluate a heavy gate
directly from its input values rather than re-combining the received
summaries — by Definition 1 (b-separability) the two are the same
function, which is also why the generator's ``combine`` of honest
summaries matches.

Everything structural comes from the circuit's column store:
:meth:`~repro.circuits.circuit.Circuit.table` derives family codes,
fan-ins, offsets, flat input ids and the per-gate parameters with numpy
and caches them on the circuit, so compiling a plan builds no per-gate
:class:`~repro.circuits.circuit.GateNode`.

Routed payloads never become :class:`~repro.core.bits.Bits`: gate
columns are packed straight into the routed frame matrix and the
delivered frames unpacked straight back into the value matrix
(:func:`payload_bridge`, :class:`~repro.routing.lenzen.KernelPayloads`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.circuits.circuit import (
    AND_FAMILY,
    FALLBACK_FAMILY,
    MOD_FAMILY,
    NOT_FAMILY,
    OR_FAMILY,
    THR_FAMILY,
    XOR_FAMILY,
    CircuitTable,
)
from repro.circuits.gates import (
    AndGate,
    GenericGate,
    ModGate,
    NotGate,
    OrGate,
    ThresholdGate,
    XorGate,
)
from repro.core.kernels import KernelBuilder
from repro.core.network import Mode
from repro.routing.lenzen import KernelPayloads, PayloadOrder, kernel_route_payloads
from repro.simulation.protocol import SimulationPlan

__all__ = [
    "vector_compute",
    "vector_summary",
    "constant_columns",
    "VALS_KEY",
    "LayerEvaluator",
    "KernelPlan",
    "payload_bridge",
    "append_simulation_rounds",
    "make_kernel_program",
]

Pair = Tuple[int, int]

#: State key of the ``K × gates`` 0/1 gate-value matrix the simulation
#: rounds read and write.
VALS_KEY = "vals"


def constant_columns(circuit) -> Tuple[np.ndarray, np.ndarray]:
    """(gate-id columns, 0/1 values) of the circuit's constant nodes —
    the seed every fresh ``K × gates`` value matrix needs — read off the
    circuit's columns."""
    return circuit.constants()


def vector_compute(gate, part: np.ndarray) -> np.ndarray:
    """Evaluate ``gate`` on a ``K × fan_in`` 0/1 matrix of its input
    values, one ``gate.compute`` call per instance — the path for gates
    the :class:`LayerEvaluator` cannot sum."""
    return np.array(
        [gate.compute([bool(x) for x in row]) for row in part], dtype=bool
    )


def vector_summary(
    gate, positions: List[int], part: np.ndarray, fan_in: int
) -> np.ndarray:
    """One part's b-separability summary for every instance at once:
    ``part`` is the ``K × len(positions)`` 0/1 matrix of the part's
    input values, ``positions`` their indices in the gate's input list
    (weighted gates need them).  Returns a ``K``-vector of summary
    payloads (``uint64``, or ``object`` ints past 63 bits)."""
    if isinstance(gate, (AndGate, NotGate)):
        return part.all(axis=1).astype(np.uint64)
    if isinstance(gate, OrGate):
        return part.any(axis=1).astype(np.uint64)
    if isinstance(gate, XorGate):
        return (part.sum(axis=1, dtype=np.int64) % 2).astype(np.uint64)
    if isinstance(gate, ModGate):
        return (
            part.sum(axis=1, dtype=np.int64) % gate.modulus
        ).astype(np.uint64)
    if isinstance(gate, ThresholdGate):
        if gate.weights is None:
            total = part.sum(axis=1, dtype=np.int64)
        else:
            weights = np.asarray(
                [gate.weights[p] for p in positions], dtype=np.int64
            )
            total = part.astype(np.int64) @ weights
        return total.astype(np.uint64)
    if isinstance(gate, GenericGate):
        covered = 0
        for position in positions:
            covered |= 1 << position
        if 2 * fan_in <= 63:
            values = np.zeros(len(part), dtype=np.uint64)
            for i, position in enumerate(positions):
                values |= part[:, i].astype(np.uint64) << np.uint64(position)
            return (np.uint64(covered << fan_in)) | values
        out = np.empty(len(part), dtype=object)
        for k, row in enumerate(part):
            values = 0
            for i, position in enumerate(positions):
                if row[i]:
                    values |= 1 << position
            out[k] = (covered << fan_in) | values
        return out
    # Unknown gate type: honest per-instance fallback.
    out = np.empty(len(part), dtype=object)
    for k, row in enumerate(part):
        indexed = [(p, bool(row[i])) for i, p in enumerate(positions)]
        out[k] = gate.partial_summary(indexed, fan_in).to_uint()
    return out


class LayerEvaluator:
    """Same-layer gates compiled for evaluation on a ``K × gates`` 0/1
    value matrix.

    The summed gates are laid out by family: their input ids
    concatenated in ``flat`` (``int32``), each gate's segment starting
    at ``starts`` and writing column ``out``, with one ``(family, lo,
    hi, operand)`` group per family present.  Calling the evaluator is
    one gather ``vals[:, flat]`` (times the wire weights when a
    weighted threshold is present), one ``np.add.reduceat`` and one
    comparison per group, then one scatter into ``vals``; fallback
    gates follow, one :func:`vector_compute` each.  Gates of one layer
    never read each other, so the order is free.
    """

    def __init__(self, table: CircuitTable, gids) -> None:
        gids = np.asarray(gids, dtype=np.int64)
        families = table.family[gids]
        order = np.argsort(families, kind="stable")
        gids = gids[order]
        families = families[order]
        summed = int(np.searchsorted(families, FALLBACK_FAMILY))
        self.fallback = [
            (int(gid), table.gate(gid), table.inputs(gid).astype(np.intp))
            for gid in gids[summed:]
        ]
        gids = gids[:summed]
        families = families[:summed]
        fan_in = table.fan_in[gids]
        starts = np.zeros(gids.size, dtype=np.int64)
        np.cumsum(fan_in[:-1], out=starts[1:])
        wire = np.arange(int(fan_in.sum()), dtype=np.int64)
        wire += np.repeat(table.offsets[gids] - starts, fan_in)
        self.flat = table.flat[wire]
        self.starts = starts.astype(np.int32)
        self.out = gids.astype(np.intp)
        self.weights = None
        if table.weights is not None and (families == THR_FAMILY).any():
            weights = table.weights[wire]
            if (weights != 1).any():
                self.weights = weights
        bounds = np.searchsorted(families, np.arange(FALLBACK_FAMILY + 1))
        self.groups = []
        for family in range(FALLBACK_FAMILY):
            lo, hi = int(bounds[family]), int(bounds[family + 1])
            if lo == hi:
                continue
            if family == AND_FAMILY:
                operand = fan_in[lo:hi]
            elif family in (MOD_FAMILY, THR_FAMILY):
                operand = table.param[gids[lo:hi]]
            else:
                operand = None
            self.groups.append((family, lo, hi, operand))

    def __call__(self, vals: np.ndarray) -> None:
        if self.out.size:
            gathered = vals[:, self.flat]
            if self.weights is not None:
                gathered = gathered * self.weights
            sums = np.add.reduceat(gathered, self.starts, axis=1, dtype=np.int64)
            result = np.empty(sums.shape, dtype=bool)
            for family, lo, hi, operand in self.groups:
                part = sums[:, lo:hi]
                if family == AND_FAMILY:
                    result[:, lo:hi] = part == operand
                elif family == OR_FAMILY:
                    result[:, lo:hi] = part > 0
                elif family == NOT_FAMILY:
                    result[:, lo:hi] = part == 0
                elif family == XOR_FAMILY:
                    result[:, lo:hi] = (part & 1).astype(bool)
                elif family == MOD_FAMILY:
                    result[:, lo:hi] = part % operand == 0
                else:
                    result[:, lo:hi] = part >= operand
            vals[:, self.out] = result
        for gid, gate, cols in self.fallback:
            vals[:, gid] = vector_compute(gate, vals[:, cols])


def payload_bridge(order: PayloadOrder, payloads: KernelPayloads):
    """(get_bits, set_bits) callbacks for
    :func:`~repro.routing.lenzen.kernel_route_payloads` that move the
    gate values named by ``order`` between the value matrix
    ``state[VALS_KEY]`` and the routed payload bits: both lay the pairs
    out in ascending order, so ``order.items`` already is the
    payload-bit order.
    Every pair's gid run must be exactly as long as ``payloads`` says —
    checked here, once, not per execution."""
    if not (
        np.array_equal(order.src, payloads.src)
        and np.array_equal(order.dst, payloads.dst)
        and np.array_equal(order.sizes, payloads.sizes)
    ):
        have = order.lengths()
        want = dict(
            zip(zip(payloads.src.tolist(), payloads.dst.tolist()), payloads.sizes.tolist())
        )
        pair = min(p for p in have.keys() | want.keys() if have.get(p, 0) != want.get(p, 0))
        raise ValueError(
            f"payload {pair} carries {have.get(pair, 0)} gate values, "
            f"plan says {want.get(pair, 0)}"
        )
    cols = order.items.astype(np.intp)

    def get_bits(state):
        return state[VALS_KEY][:, cols]

    def set_bits(state, bits):
        state[VALS_KEY][:, cols] = bits

    return get_bits, set_bits


def _push_spec(push_recv: Dict[Pair, int]):
    """(sender pairs, gid columns) of a heavy-push round: one 1-bit
    message per plan edge, in builder structure order."""
    by_src: Dict[int, List[int]] = {}
    gid_cols: List[int] = []
    for (src, dst), gid in sorted(push_recv.items()):
        by_src.setdefault(src, []).append(dst)
        gid_cols.append(gid)
    return sorted(by_src.items()), np.asarray(gid_cols, dtype=np.intp)


def _routed(order: PayloadOrder, schedule, bandwidth):
    """(payload layout, get_bits, set_bits) of one routed phase."""
    payloads = KernelPayloads(schedule, (order.src, order.dst, order.sizes), bandwidth)
    return (payloads, *payload_bridge(order, payloads))


class _LayerKernel:
    """The compiled rounds of one :class:`LayerPlan`."""

    def __init__(self, plan: SimulationPlan, lp, table: CircuitTable) -> None:
        self.heavy = LayerEvaluator(table, lp.heavy_gates) if lp.heavy_gates else None
        self.summary = None
        if lp.has_summary_round:
            # One message per (contributing sender, heavy gate): the
            # sender's partial summary, summary_width(gid) bits.
            messages = []
            for gid in lp.heavy_gates:
                owner = plan.assignment.owner[gid]
                for sender in sorted(lp.summary_senders[gid]):
                    positions = lp.summary_senders[gid][sender]
                    messages.append((sender, owner, gid, positions))
            messages.sort(key=lambda m: (m[0], m[1]))
            by_src: Dict[int, List[int]] = {}
            widths: List[int] = []
            parts = []
            for sender, owner, gid, positions in messages:
                by_src.setdefault(sender, []).append(owner)
                widths.append(plan.summary_width(gid))
                inputs = table.inputs(gid)
                cols = inputs[positions].astype(np.intp)
                parts.append((table.gate(gid), positions, cols, inputs.size))
            self.summary = (sorted(by_src.items()), widths, parts)
        self.push = _push_spec(lp.push_recv) if lp.push_recv else None
        self.light_route = None
        if lp.light_wires.items.size:
            self.light_route = _routed(
                lp.light_wires, lp.light_schedule, plan.bandwidth
            )
        self.light = (
            LayerEvaluator(table, lp.light_owned_gids)
            if lp.light_owned_gids.size
            else None
        )


class KernelPlan:
    """A :class:`SimulationPlan` compiled for kernel rounds: constant
    seeds, routed-payload layouts and their gate columns, push and
    summary index arrays, and one :class:`LayerEvaluator` per layer's
    light and heavy gate sets — everything
    :func:`append_simulation_rounds` needs, derived once from the
    circuit's cached CSR table however often the simulation is
    appended."""

    def __init__(self, plan: SimulationPlan) -> None:
        self.plan = plan
        self.const_cols, self.const_vals = constant_columns(plan.circuit)
        self.input_route = None
        if plan.input_wires.items.size:
            self.input_route = _routed(
                plan.input_wires, plan.input_schedule, plan.bandwidth
            )
        self.layer0_push = (
            _push_spec(plan.layer0_push_recv) if plan.layer0_push_recv else None
        )
        table = plan.circuit.table()
        self.layers = [
            _LayerKernel(plan, lp, table) for lp in plan.layer_plans
        ]

    def fresh_values(self, instances: int) -> np.ndarray:
        """A zeroed ``instances × gates`` value matrix with the
        constants filled in."""
        vals = np.zeros((instances, len(self.plan.circuit)), dtype=np.uint8)
        if self.const_cols.size:
            vals[:, self.const_cols] = self.const_vals
        return vals


def append_simulation_rounds(builder: KernelBuilder, kplan: KernelPlan) -> None:
    """Append every communication round of the compiled plan to
    ``builder``, mirroring :func:`~repro.simulation.protocol.execute_plan`
    phase for phase.  ``state[VALS_KEY]`` must hold the ``K × gates``
    0/1 value matrix with constants and the instance's input gate values
    filled in before the first appended round fires (stage it with
    ``builder.before``)."""

    def push_round(spec) -> None:
        pairs, cols = spec

        def send(state):
            return state[VALS_KEY][:, cols].astype(np.uint64)

        def recv(state, inbox):
            state[VALS_KEY][:, cols] = inbox.gather().astype(np.uint8)

        builder.unicast_round(pairs, 1, send, recv)

    # ---- input redistribution ----------------------------------------
    if kplan.input_route is not None:
        kernel_route_payloads(builder, *kplan.input_route)

    # ---- heavy pushes (one 1-bit message per plan edge) ---------------
    if kplan.layer0_push is not None:
        push_round(kplan.layer0_push)

    # ---- layers ------------------------------------------------------
    for layer in kplan.layers:
        if layer.summary is not None:
            pairs, widths, parts = layer.summary
            wide = max(widths) > 63

            def send(state, _parts=parts, _wide=wide):
                vals = state[VALS_KEY]
                out = np.empty(
                    (vals.shape[0], len(_parts)),
                    dtype=object if _wide else np.uint64,
                )
                for j, (gate, positions, cols, fan_in) in enumerate(_parts):
                    out[:, j] = vector_summary(gate, positions, vals[:, cols], fan_in)
                return out

            def recv(state, inbox, _heavy=layer.heavy):
                # Owners combine — evaluating the gate on its (by now
                # globally known) input values, which b-separability
                # makes identical to combining the received summaries.
                _heavy(state[VALS_KEY])

            builder.unicast_round(pairs, max(widths), send, recv, widths=widths)
        elif layer.heavy is not None:
            # No summaries needed: owners evaluate locally before any
            # dependent round fires.
            builder.before(lambda state, _heavy=layer.heavy: _heavy(state[VALS_KEY]))

        if layer.push is not None:
            push_round(layer.push)

        if layer.light_route is not None:
            kernel_route_payloads(builder, *layer.light_route)

        if layer.light is not None:
            builder.before(lambda state, _light=layer.light: _light(state[VALS_KEY]))


def make_kernel_program(plan: SimulationPlan):
    """The kernel twin of :func:`~repro.simulation.protocol.make_program`:
    same per-node inputs (``{input gid: bool}`` dicts), same outputs
    (each node's ``{output gid: bool}``), zero generator steps."""
    circuit = plan.circuit
    owner = plan.assignment.owner
    n = plan.n
    builder = KernelBuilder(n, Mode.UNICAST, bandwidth=plan.bandwidth)
    kplan = KernelPlan(plan)

    def init(state, kctx):
        vals = kplan.fresh_values(kctx.instances)
        for k, inputs in enumerate(kctx.inputs_list):
            if inputs is None:
                continue
            for per_node in inputs:
                for gid, value in (per_node or {}).items():
                    vals[k, gid] = 1 if value else 0
        state[VALS_KEY] = vals

    builder.on_init(init)
    append_simulation_rounds(builder, kplan)
    out_by_node: List[List[int]] = [[] for _ in range(n)]
    for gid in circuit.outputs:
        out_by_node[owner[gid]].append(gid)

    def finish(state, kctx):
        vals = state[VALS_KEY]
        return [
            [
                {gid: bool(vals[k, gid]) for gid in out_by_node[v]}
                for v in range(n)
            ]
            for k in range(kctx.instances)
        ]

    return builder.build(finish, name="simulate_circuit")
