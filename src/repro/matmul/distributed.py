"""Section 2.1 on the engine: triangle detection via matmul circuits.

The paper's conditional result: if matrix multiplication has arithmetic
circuits of size O(n^δ), Theorem 2 turns them into an O(n^{δ−2})-round
CLIQUE-UCAST protocol, and Shamir's masked-F2 reduction turns Boolean
triangle detection into a handful of such products.  We instantiate the
pipeline with both circuit families from
:mod:`repro.circuits.arithmetic`:

* naive (Θ(n³) wires → s = Θ(n) → bandwidth Θ(n), O(1) rounds),
* Strassen (Θ(n^{2.81}) wires → s = Θ(n^{0.81}) bandwidth, O(log n)
  rounds) — the stand-in for the conjectured O(n^{2+ε}) circuits.

Protocol per trial (mask r drawn from the shared public coin):

1. Player i locally masks its adjacency row: M_i = A_i ∘ r.
2. The circuit computes C = M · A over F2 via ``execute_plan``.
3. Output entries C[i][j] are routed to player i (Remark 3's output
   redistribution), who checks A_ij ∧ C_ij — a triangle witness.
4. One unicast round aggregates the flags at player 0.

All heavy exchanges here — the circuit simulation's payload routing and
the output redistribution, both via :func:`route_payloads`, and the
final aggregation via :func:`transmit_unicast` — move fixed-width
frames, so on the default engine they ride the batched numpy fast lane
(:mod:`repro.core.fastlane`) instead of per-message dict delivery.

The protocol is *oblivious*: every round's structure comes from the
public :class:`SimulationPlan` and routing schedules, never from the
adjacency rows.  :func:`triangle_mm_program` declares this
(:func:`~repro.core.compiled.mark_oblivious`), and
:func:`detect_triangle_mm_many` exploits it — detection over many
same-size graphs runs through
:meth:`~repro.core.network.Network.run_many` against one compiled
schedule (one plan build, one structure pass, batched payload
delivery).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.circuits.arithmetic import matmul_circuit_naive, matmul_circuit_strassen
from repro.circuits.circuit import Circuit
from repro.core.bits import Bits
from repro.core.compiled import declare_schedule_digest, mark_oblivious
from repro.core.network import Mode, Network, RunResult
from repro.core.phases import transmit_unicast
from repro.graphs.graph import Graph
from repro.routing.lenzen import PayloadOrder, route_payloads
from repro.routing.schedule import build_schedule
from repro.simulation.protocol import SimulationPlan, build_plan, execute_plan

__all__ = [
    "matmul_input_partition",
    "TriangleMMOutcome",
    "triangle_mm_program",
    "triangle_mm_kernel_program",
    "detect_triangle_mm",
    "detect_triangle_mm_many",
]


def matmul_input_partition(size: int) -> List[int]:
    """Row i of both matrices belongs to player i — the "each player gets
    n bits per matrix" partition of Section 2.1."""
    partition = []
    for _matrix in range(2):
        for i in range(size):
            partition.extend([i] * size)
    return partition


@dataclass(frozen=True)
class TriangleMMOutcome:
    found: bool
    witness: Optional[Tuple[int, int]]
    trials: int


def _output_routing_plan(plan: SimulationPlan, size: int) -> PayloadOrder:
    """Route output gate C[i][j] from its simulation owner to player i."""
    import numpy as np

    owner = plan.assignment.owner
    outputs = np.asarray(plan.circuit.outputs, dtype=np.int64)
    row = np.arange(outputs.size, dtype=np.int64) // size
    src = np.asarray([owner[gid] for gid in plan.circuit.outputs], dtype=np.int64)
    moved = src != row
    key = src[moved] * size + row[moved]
    order = np.argsort(key, kind="stable")
    return PayloadOrder.from_keys(key[order], outputs[moved][order], size)


def triangle_mm_program(
    graph: Graph,
    plan: SimulationPlan,
    trials: int,
):
    """Node program: ``ctx.input`` is this node's adjacency row (list of
    n 0/1 ints)."""
    size = graph.n
    circuit = plan.circuit
    input_ids = circuit.input_ids
    out_routing = _output_routing_plan(plan, size)
    out_order, out_lengths = out_routing.as_dict(), out_routing.lengths()
    out_schedule = build_schedule(out_routing.demand(plan.bandwidth), size)
    position_of = {gid: pos for pos, gid in enumerate(circuit.outputs)}

    def program(ctx):
        me = ctx.node_id
        row = list(ctx.input)
        found_local: Optional[Tuple[int, int]] = None
        for _trial in range(trials):
            mask = [ctx.shared_rng.randint(0, 1) for _ in range(size)]
            masked_row = [row[j] & mask[j] for j in range(size)]
            my_inputs: Dict[int, bool] = {}
            for j in range(size):
                my_inputs[input_ids[me * size + j]] = bool(masked_row[j])
                my_inputs[input_ids[size * size + me * size + j]] = bool(row[j])
            values = yield from execute_plan(ctx, plan, my_inputs)

            payloads = {}
            for (src, dst), gids in out_order.items():
                if src == me:
                    payloads[dst] = Bits.from_bools([values[g] for g in gids])
            received = yield from route_payloads(
                ctx, out_lengths, payloads, plan.bandwidth, out_schedule
            )
            my_row_c: Dict[int, bool] = {}
            for position, gid in enumerate(circuit.outputs):
                if position // size == me and plan.assignment.owner[gid] == me:
                    my_row_c[position % size] = values[gid]
            for src, bits in received.items():
                for gid, bit in zip(out_order[(src, me)], bits):
                    my_row_c[position_of[gid] % size] = bool(bit)
            if found_local is None:
                for j in range(size):
                    if row[j] and my_row_c.get(j):
                        found_local = (min(me, j), max(me, j))
                        break
            # Lockstep: even after finding a witness we keep executing
            # the remaining trials' phases — peers cannot know we are
            # done, and the routing schedules expect our frames.
        # Aggregation: everyone reports to player 0 (1 + 2·log n bits).
        vertex_bits = max(1, (size - 1).bit_length())
        report_len = 1 + 2 * vertex_bits
        if me != 0:
            if found_local is None:
                payload = Bits.zeros(report_len)
            else:
                payload = Bits.concat(
                    [
                        Bits.from_uint(1, 1),
                        Bits.from_uint(found_local[0], vertex_bits),
                        Bits.from_uint(found_local[1], vertex_bits),
                    ]
                )
            yield from transmit_unicast(ctx, {0: payload}, max_bits=report_len)
            return TriangleMMOutcome(
                found=found_local is not None, witness=found_local, trials=trials
            )
        received = yield from transmit_unicast(ctx, {}, max_bits=report_len)
        witness = found_local
        for _sender, payload in sorted(received.items()):
            if payload[0] == 1 and witness is None:
                u = payload[1 : 1 + vertex_bits].to_uint()
                v = payload[1 + vertex_bits :].to_uint()
                witness = (u, v)
        return TriangleMMOutcome(
            found=witness is not None, witness=witness, trials=trials
        )

    # Structure comes from (plan, trials) alone; the adjacency rows only
    # fill payloads — see the module docstring.
    declare_schedule_digest(program, "triangle_mm", plan, trials)
    return mark_oblivious(program, "triangle_mm", id(plan), trials)


def triangle_mm_kernel_program(
    graph: Graph,
    plan: SimulationPlan,
    trials: int,
):
    """The kernel twin of :func:`triangle_mm_program`: the full pipeline
    — per-trial masking, circuit simulation, output redistribution,
    witness aggregation — as one declared kernel round sequence over
    stacked adjacency/value matrices, zero generator steps.  Inputs and
    outputs match the generator program byte for byte (same shared-coin
    masks, same witness tie-breaking, same accounting)."""
    import numpy as np

    from repro.core.kernels import KernelBuilder
    from repro.core.network import Mode
    from repro.core.phases import kernel_transmit_unicast
    from repro.routing.lenzen import KernelPayloads, kernel_route_payloads
    from repro.simulation.kernel import (
        VALS_KEY,
        KernelPlan,
        append_simulation_rounds,
        payload_bridge,
    )

    size = graph.n
    circuit = plan.circuit
    input_ids = circuit.input_ids
    out_routing = _output_routing_plan(plan, size)
    out_schedule = build_schedule(out_routing.demand(plan.bandwidth), size)
    builder = KernelBuilder(size, Mode.UNICAST, bandwidth=plan.bandwidth)
    # Compiled once; every trial appends the same rounds from it.
    kplan = KernelPlan(plan)
    first_ids = np.asarray(input_ids[: size * size], dtype=np.intp)
    second_ids = np.asarray(input_ids[size * size :], dtype=np.intp)
    output_gids = np.asarray(circuit.outputs, dtype=np.intp)

    def init(state, kctx):
        instances = kctx.instances
        rows = np.zeros((instances, size, size), dtype=np.uint8)
        for k, inputs in enumerate(kctx.inputs_list):
            for v in range(size):
                rows[k, v] = np.asarray(inputs[v], dtype=np.uint8)
        state["rows"] = rows
        # The shared public coin: every generator node draws the same
        # mask stream, so one clone serves all nodes and all instances.
        rng = kctx.shared_rng()
        state["masks"] = np.asarray(
            [
                [rng.randint(0, 1) for _ in range(size)]
                for _ in range(trials)
            ],
            dtype=np.uint8,
        )
        state[VALS_KEY] = kplan.fresh_values(instances)
        # Witness slots: -1 = none found yet (first trial, then first
        # column wins — the generator's tie-breaking order).
        state["wit_u"] = np.full((instances, size), -1, dtype=np.int64)
        state["wit_v"] = np.full((instances, size), -1, dtype=np.int64)

    builder.on_init(init)

    out_payloads = KernelPayloads(
        out_schedule,
        (out_routing.src, out_routing.dst, out_routing.sizes),
        plan.bandwidth,
    )
    get_out, put_out = payload_bridge(out_routing, out_payloads)

    def set_out(state, bits):
        # Player i reads C[i][j] as delivered; then score this trial's
        # witnesses.
        put_out(state, bits)
        vals = state[VALS_KEY]
        rows = state["rows"]
        instances = vals.shape[0]
        c_matrix = vals[:, output_gids].reshape(instances, size, size)
        hit = rows & c_matrix
        any_hit = hit.any(axis=2)
        first_j = hit.argmax(axis=2)
        wit_u = state["wit_u"]
        wit_v = state["wit_v"]
        me = np.arange(size, dtype=np.int64)[None, :]
        update = (wit_u < 0) & any_hit
        j_hit = first_j.astype(np.int64)
        wit_u[update] = np.minimum(me, j_hit)[update]
        wit_v[update] = np.maximum(me, j_hit)[update]

    for _trial in range(trials):

        def prepare(state, _t=_trial):
            vals = state[VALS_KEY]
            rows = state["rows"]
            instances = vals.shape[0]
            mask = state["masks"][_t]
            masked = rows & mask[None, None, :]
            vals[:, first_ids] = masked.reshape(instances, size * size)
            vals[:, second_ids] = rows.reshape(instances, size * size)

        builder.before(prepare)
        append_simulation_rounds(builder, kplan)
        kernel_route_payloads(builder, out_payloads, get_out, set_out)

    # ---- aggregation at player 0 (1 + 2·log n bits per node) ----------
    vertex_bits = max(1, (size - 1).bit_length())
    report_len = 1 + 2 * vertex_bits
    links = [(v, 0) for v in range(1, size)]

    def get_reports(state):
        wit_u = state["wit_u"]
        wit_v = state["wit_v"]
        instances = wit_u.shape[0]
        maps = [dict() for _ in range(instances)]
        for k in range(instances):
            for v in range(1, size):
                if wit_u[k, v] < 0:
                    payload = Bits.zeros(report_len)
                else:
                    payload = Bits(
                        (1 << 2 * vertex_bits)
                        | (int(wit_u[k, v]) << vertex_bits)
                        | int(wit_v[k, v]),
                        report_len,
                    )
                maps[k][(v, 0)] = payload
        return maps

    def set_reports(state, received):
        state["reports"] = received

    if links:
        kernel_transmit_unicast(
            builder, links, report_len, get_reports, set_reports
        )

    def finish(state, kctx):
        wit_u = state["wit_u"]
        wit_v = state["wit_v"]
        reports = state.get("reports")
        outcomes = []
        for k in range(kctx.instances):
            per_node = []
            for v in range(size):
                local = (
                    None
                    if wit_u[k, v] < 0
                    else (int(wit_u[k, v]), int(wit_v[k, v]))
                )
                if v != 0:
                    per_node.append(
                        TriangleMMOutcome(
                            found=local is not None,
                            witness=local,
                            trials=trials,
                        )
                    )
                    continue
                witness = local
                if reports is not None:
                    for _sender, payload in sorted(reports[k][0].items()):
                        if payload[0] == 1 and witness is None:
                            u = payload[1 : 1 + vertex_bits].to_uint()
                            w = payload[1 + vertex_bits :].to_uint()
                            witness = (u, w)
                per_node.append(
                    TriangleMMOutcome(
                        found=witness is not None,
                        witness=witness,
                        trials=trials,
                    )
                )
            outcomes.append(per_node)
        return outcomes

    return builder.build(finish, name="triangle_mm")


def detect_triangle_mm(
    graph: Graph,
    trials: int = 8,
    circuit_kind: str = "strassen",
    bandwidth: Optional[int] = None,
    seed: int = 0,
    plan: Optional[SimulationPlan] = None,
    record_transcript: bool = False,
    engine: str = "fast",
    kernel: bool = False,
) -> Tuple[TriangleMMOutcome, RunResult, SimulationPlan]:
    """Full pipeline: build the matmul circuit, simulate, detect.

    The decision at player 0 has one-sided error <= 2^{-trials} (misses
    only); "found" answers carry a witness edge and are always correct.
    ``kernel=True`` runs the vectorized kernel form of the protocol
    (:func:`triangle_mm_kernel_program`) — same results, no generator
    stepping.
    """
    size = graph.n
    if plan is None:
        builder: Callable[[int], Circuit] = (
            matmul_circuit_strassen if circuit_kind == "strassen" else matmul_circuit_naive
        )
        circuit = builder(size)
        plan = build_plan(
            circuit, size, matmul_input_partition(size), bandwidth
        )
    network = Network(
        n=size,
        bandwidth=plan.bandwidth,
        mode=Mode.UNICAST,
        seed=seed,
        record_transcript=record_transcript,
        engine=engine,
    )
    rows = [
        [1 if graph.has_edge(v, u) else 0 for u in range(size)]
        for v in range(size)
    ]
    program = (
        triangle_mm_kernel_program(graph, plan, trials)
        if kernel
        else triangle_mm_program(graph, plan, trials)
    )
    result = network.run(program, inputs=rows)
    return result.outputs[0], result, plan


def detect_triangle_mm_many(
    graphs: Sequence[Graph],
    trials: int = 8,
    circuit_kind: str = "strassen",
    bandwidth: Optional[int] = None,
    seed: int = 0,
    plan: Optional[SimulationPlan] = None,
    kernel: bool = False,
) -> Tuple[List[TriangleMMOutcome], List[RunResult], SimulationPlan]:
    """Triangle detection over many same-size graphs, one compiled
    schedule: the plan is built once, the first instance records the
    round structure, and the remaining instances replay it in lockstep
    via :meth:`~repro.core.network.Network.run_many`.  Per-instance
    results are byte-identical to calling :func:`detect_triangle_mm`
    with the same plan, seed and trials on each graph.  ``kernel=True``
    swaps in the vectorized kernel program — all graphs advance through
    every round as one stacked matrix operation."""
    if not graphs:
        raise ValueError("detect_triangle_mm_many needs at least one graph")
    size = graphs[0].n
    for graph in graphs:
        if graph.n != size:
            raise ValueError("detect_triangle_mm_many needs same-size graphs")
    if plan is None:
        builder: Callable[[int], Circuit] = (
            matmul_circuit_strassen if circuit_kind == "strassen" else matmul_circuit_naive
        )
        plan = build_plan(
            builder(size), size, matmul_input_partition(size), bandwidth
        )
    network = Network(n=size, bandwidth=plan.bandwidth, mode=Mode.UNICAST, seed=seed)
    program = (
        triangle_mm_kernel_program(graphs[0], plan, trials)
        if kernel
        else triangle_mm_program(graphs[0], plan, trials)
    )
    inputs_list = [
        [
            [1 if graph.has_edge(v, u) else 0 for u in range(size)]
            for v in range(size)
        ]
        for graph in graphs
    ]
    results = network.run_many(program, inputs_list)
    return [result.outputs[0] for result in results], results, plan
