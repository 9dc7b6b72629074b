"""The Theorem 2 protocol: evaluating a circuit on CLIQUE-UCAST.

The simulation follows the paper's proof layer by layer.  For each layer
L_r of the circuit:

(a) *Heavy gates* are evaluated through their b-separability: every
    player owning some of a heavy gate's input gates sends one summary
    to the gate's owner, who combines them.  Because each player owns at
    most one heavy gate, this is a single engine round per layer.
(b) *Heavy outputs* are pushed once (deduplicated) to every player
    owning a light consumer — one bit per link, one round per layer.
(c) *Light-light wires* form a balanced demand (each player carries
    O(n·s) light weight) and are routed with the deterministic
    edge-colouring router — O(1) rounds per layer.

Before the layers run, the (arbitrary, roughly balanced) initial input
partition is redistributed to the assignment's owners with the same
router, exactly as the paper's final remark prescribes.

All scheduling data (which rounds exist, who sends what where, payload
lengths) is derived from the circuit structure and the deterministic
assignment — public information — so nodes never need to coordinate.
The engine's round count is therefore an honest measurement of the
simulation's round complexity, which Theorem 2 bounds by O(depth).

That same publicness makes the protocol *oblivious*: the round
structure is a pure function of the :class:`SimulationPlan`, input
values only fill payload bits.  :func:`make_program` declares this to
the engine (:func:`~repro.core.compiled.mark_oblivious`), so evaluating
one circuit on many input vectors — :func:`simulate_circuit_many` —
records the round schedule once and replays it payload-only for every
further instance.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import Circuit, CircuitTable
from repro.core.bits import Bits
from repro.core.compiled import declare_schedule_digest, mark_oblivious
from repro.core.network import Context, Mode, Network, Outbox, RunResult
from repro.routing.lenzen import PayloadOrder, payload_demand, route_payloads
from repro.routing.schedule import RoutingSchedule, build_schedule
from repro.simulation.assignment import GateAssignment, assign_gates

__all__ = [
    "LayerPlan",
    "SimulationPlan",
    "build_plan",
    "simulate_circuit",
    "simulate_circuit_many",
]

Pair = Tuple[int, int]


def _no_wires() -> PayloadOrder:
    return PayloadOrder.from_keys(
        np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 1
    )


class _Views:
    """Dict views built from a plan's arrays on first read.  Pickles
    leave them out, so a plan digests the same whether or not they were
    read."""

    def __getstate__(self) -> Dict[str, Any]:
        state = self.__dict__.copy()
        state.pop("_views", None)
        return state

    def _view(self, name: str, build):
        views = self.__dict__.setdefault("_views", {})
        if name not in views:
            views[name] = build()
        return views[name]


@dataclass(eq=False)
class LayerPlan(_Views):
    """Public per-layer schedule.

    The light-gate data are arrays: ``light_wires`` groups the source
    gates of the light wires crossing owners by (src, dst) player pair,
    in ascending gate order, and ``light_owned_gids`` lists the layer's
    light gates by (owner, gate id), ``light_owned_players`` naming each
    one's owner.  ``light_order``, ``light_lengths`` and
    ``light_owned`` are their dict views."""

    layer_index: int
    heavy_gates: List[int] = field(default_factory=list)
    # heavy gid -> sender player -> positions (indices into in(G)).
    summary_senders: Dict[int, Dict[int, List[int]]] = field(default_factory=dict)
    # heavy gid -> positions handled locally by the owner (incl. consts).
    summary_local: Dict[int, List[int]] = field(default_factory=dict)
    has_summary_round: bool = False
    # (sender, receiver) -> heavy gid whose value that push carries.
    push_recv: Dict[Pair, int] = field(default_factory=dict)
    light_wires: PayloadOrder = field(default_factory=_no_wires)
    light_schedule: Optional[RoutingSchedule] = None
    light_owned_gids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    light_owned_players: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @property
    def light_order(self) -> Dict[Pair, List[int]]:
        """(src, dst) -> ordered source-gate ids for the light-wire
        payloads."""
        return self._view("light_order", self.light_wires.as_dict)

    @property
    def light_lengths(self) -> Dict[Pair, int]:
        return self._view("light_lengths", self.light_wires.lengths)

    @property
    def light_owned(self) -> Dict[int, List[int]]:
        """player -> light gate ids of this layer it must evaluate."""
        return self._view("light_owned", self._group_owned)

    def _group_owned(self) -> Dict[int, List[int]]:
        owned: Dict[int, List[int]] = {}
        for player, gid in zip(
            self.light_owned_players.tolist(), self.light_owned_gids.tolist()
        ):
            owned.setdefault(player, []).append(gid)
        return owned


@dataclass(eq=False)
class SimulationPlan(_Views):
    """Everything every player knows before the protocol starts.

    ``input_wires`` groups the input gates that change hands by
    (holder, owner) pair; ``input_order`` and ``input_lengths`` are its
    dict views."""

    circuit: Circuit
    n: int
    assignment: GateAssignment
    bandwidth: int
    input_wires: PayloadOrder = field(default_factory=_no_wires)
    input_schedule: Optional[RoutingSchedule] = None
    layer0_push_recv: Dict[Pair, int] = field(default_factory=dict)
    layer_plans: List[LayerPlan] = field(default_factory=list)

    @property
    def input_order(self) -> Dict[Pair, List[int]]:
        return self._view("input_order", self.input_wires.as_dict)

    @property
    def input_lengths(self) -> Dict[Pair, int]:
        return self._view("input_lengths", self.input_wires.lengths)

    def summary_width(self, gid: int) -> int:
        return _summary_width(self.circuit.table(), gid)


def _summary_width(table: CircuitTable, gid: int) -> int:
    return table.gate(gid).summary_width(int(table.fan_in[gid]))


def _heavy_push_destinations(
    table: CircuitTable,
    consumer: np.ndarray,
    owner: np.ndarray,
    heavy: np.ndarray,
    n: int,
) -> Dict[int, List[int]]:
    """For each heavy gate, the players owning at least one of its light
    consumers (the deduplicated sends of step (b)).  ``consumer`` names
    the gate reading each wire of ``table.flat``."""
    src = table.flat
    sent = heavy[src] & ~heavy[consumer] & (owner[src] != owner[consumer])
    edges = np.unique(src[sent].astype(np.int64) * n + owner[consumer[sent]])
    destinations: Dict[int, List[int]] = {
        gid: [] for gid in np.flatnonzero(heavy).tolist()
    }
    for gid, dest in zip((edges // n).tolist(), (edges % n).tolist()):
        destinations[gid].append(dest)
    return destinations


def _check_partition(input_partition: Sequence[int], inputs: int, n: int) -> np.ndarray:
    """The partition as an int64 array, once every entry is a player."""
    if len(input_partition) != inputs:
        raise ValueError("input_partition must name a player per input")
    holder = np.asarray(input_partition)
    if holder.ndim == 1 and holder.dtype.kind in "iu" and (
        holder.size == 0 or (int(holder.min()) >= 0 and int(holder.max()) < n)
    ):
        return holder.astype(np.int64, copy=False)
    for position, player in enumerate(input_partition):
        if not isinstance(player, numbers.Integral) or not 0 <= player < n:
            raise ValueError(
                f"input_partition[{position}] = {player!r} is not a player "
                f"in [0, {n})"
            )
    return holder.astype(np.int64)


def build_plan(
    circuit: Circuit,
    n: int,
    input_partition: Optional[Sequence[int]] = None,
    bandwidth: Optional[int] = None,
) -> SimulationPlan:
    """Precompute the full public schedule of the simulation.

    ``input_partition[i]`` names the player initially holding circuit
    input i (defaults to round-robin).

    Everything is derived from the circuit's CSR table
    (:meth:`~repro.circuits.circuit.Circuit.table`) with array
    operations: one pass over the wires finds every light wire that
    crosses owners, and one sort of a combined (layer, source owner,
    destination owner, source gate) key yields each layer's routed
    orders.  Only heavy gates — at most n — are visited one by one.
    The routed orders and owned gates stay arrays (see
    :class:`LayerPlan`); their dict views are built on first read.
    """
    if bandwidth is not None and bandwidth < 1:
        raise ValueError(f"bandwidth must be at least 1, got {bandwidth}")
    assignment = assign_gates(circuit, n)
    input_ids = circuit.input_ids
    if input_partition is None:
        input_partition = [i % n for i in range(len(input_ids))]
    holder = _check_partition(input_partition, len(input_ids), n)
    table = circuit.table()
    owner_list = assignment.owner
    owner = np.asarray(owner_list, dtype=np.int64)
    count = len(circuit)
    heavy = np.zeros(count, dtype=bool)
    heavy_ids = sorted(assignment.heavy)
    heavy[heavy_ids] = True
    const = np.zeros(count, dtype=bool)
    const[circuit.constants()[0]] = True
    layer = table.layer
    num_layers = int(layer.max()) + 1 if count else 0

    heavy_widths = [
        _summary_width(table, gid)
        for gid in heavy_ids
        if table.gate(gid) is not None
    ]
    if bandwidth is None:
        bandwidth = max([1, assignment.s_param] + heavy_widths)

    plan = SimulationPlan(
        circuit=circuit, n=n, assignment=assignment, bandwidth=bandwidth
    )
    layer_plans = [LayerPlan(layer_index=level) for level in range(1, num_layers)]

    # ---- input redistribution -------------------------------------------
    ids = np.asarray(input_ids, dtype=np.int64)
    moved = holder != owner[ids]
    pair_key = holder[moved] * n + owner[ids[moved]]
    order = np.argsort(pair_key, kind="stable")
    plan.input_wires = PayloadOrder.from_keys(pair_key[order], ids[moved][order], n)
    plan.input_schedule = build_schedule(plan.input_wires.demand(bandwidth), n)

    # ---- heavy gates: summaries and pushes ---------------------------------
    consumer = np.repeat(np.arange(count, dtype=np.int64), table.fan_in)
    push_dests = (
        _heavy_push_destinations(table, consumer, owner, heavy, n)
        if heavy_ids
        else {}
    )
    for gid in heavy_ids:
        level = int(layer[gid])
        gate_owner = owner_list[gid]
        if level == 0:
            push_recv = plan.layer0_push_recv
        else:
            lp = layer_plans[level - 1]
            push_recv = lp.push_recv
            lp.heavy_gates.append(gid)
            senders: Dict[int, List[int]] = {}
            local: List[int] = []
            for pos, src in enumerate(table.inputs(gid).tolist()):
                if const[src] or owner_list[src] == gate_owner:
                    local.append(pos)
                else:
                    senders.setdefault(owner_list[src], []).append(pos)
            lp.summary_senders[gid] = senders
            lp.summary_local[gid] = local
            if senders:
                lp.has_summary_round = True
                width = _summary_width(table, gid)
                if width > bandwidth:
                    raise ValueError(
                        f"heavy gate {gid} sends {width}-bit summaries, "
                        f"wider than bandwidth {bandwidth}"
                    )
        for dest in push_dests[gid]:
            push_recv[(gate_owner, dest)] = gid

    # ---- light gates and the light wires crossing owners -------------------
    light_gates = np.flatnonzero(~heavy & (layer > 0))
    owned_key = layer[light_gates].astype(np.int64) * n + owner[light_gates]
    # The keys fit the narrowest unsigned type that holds num_layers·n;
    # numpy's stable sort is a radix sort on 8- and 16-bit keys.
    order = np.argsort(
        owned_key.astype(np.min_scalar_type(num_layers * n)), kind="stable"
    )
    owned_key = owned_key[order]
    light_gates = light_gates[order]
    # Layer L's keys lie in [L·n, (L+1)·n).
    bounds = np.searchsorted(owned_key, np.arange(num_layers + 1) * n).tolist()
    for lp in layer_plans:
        lo, hi = bounds[lp.layer_index], bounds[lp.layer_index + 1]
        lp.light_owned_gids = light_gates[lo:hi]
        lp.light_owned_players = owned_key[lo:hi] - lp.layer_index * n

    src = table.flat
    src_owner = owner[src]
    dst_owner = owner[consumer]
    crossing = (
        (src_owner != dst_owner) & ~heavy[consumer] & ~heavy[src] & ~const[src]
    )
    # One int64 key per crossing wire, (layer, src owner, dst owner, src
    # gate) from most to least significant; sorted and deduplicated.
    wire_key = (
        (layer[consumer[crossing]].astype(np.int64) * n + src_owner[crossing]) * n
        + dst_owner[crossing]
    ) * count + src[crossing]
    wire_key = np.sort(wire_key)
    if wire_key.size:
        wire_key = wire_key[np.concatenate(([True], np.diff(wire_key) != 0))]
    pair_key = wire_key // max(count, 1)
    wire_src = wire_key % max(count, 1)
    bounds = np.searchsorted(pair_key, np.arange(num_layers + 1) * n * n).tolist()
    for lp in layer_plans:
        lo, hi = bounds[lp.layer_index], bounds[lp.layer_index + 1]
        if hi > lo:
            lp.light_wires = PayloadOrder.from_keys(
                pair_key[lo:hi] - lp.layer_index * n * n, wire_src[lo:hi], n
            )
            lp.light_schedule = build_schedule(
                lp.light_wires.demand(bandwidth), n
            )
    plan.layer_plans = layer_plans
    return plan


def execute_plan(ctx: Context, plan: SimulationPlan, my_inputs: Mapping[int, bool]):
    """Run the simulation as a sub-generator (``yield from``) so callers
    can compose it with further protocol phases (e.g. the triangle
    detection wrapper of Section 2.1).  Returns the values of every gate
    this node owns or learned."""
    circuit = plan.circuit
    owner = plan.assignment.owner
    me = ctx.node_id
    const_ids, const_values = circuit.constants()
    values: Dict[int, bool] = dict(
        zip(const_ids.tolist(), map(bool, const_values.tolist()))
    )
    # Inputs we keep (already owned by us under the assignment).
    for gid, value in my_inputs.items():
        if owner[gid] == me:
            values[gid] = bool(value)

    # ---- input redistribution ----------------------------------------
    if plan.input_lengths:
        payloads = {}
        for (src, dst), gids in plan.input_order.items():
            if src == me:
                payloads[dst] = Bits.from_bools(
                    [bool(my_inputs[g]) for g in gids]
                )
        received = yield from route_payloads(
            ctx,
            plan.input_lengths,
            payloads,
            plan.bandwidth,
            plan.input_schedule,
        )
        for src, bits in received.items():
            for gid, bit in zip(plan.input_order[(src, me)], bits):
                values[gid] = bool(bit)

    # ---- layer-0 heavy pushes ------------------------------------------
    if plan.layer0_push_recv:
        messages = {
            dst: Bits.from_uint(1 if values[gid] else 0, 1)
            for (src, dst), gid in plan.layer0_push_recv.items()
            if src == me
        }
        inbox = yield Outbox.unicast(messages)
        for sender, payload in inbox.items():
            gid = plan.layer0_push_recv[(sender, me)]
            values[gid] = bool(payload.to_uint())

    # ---- layers ------------------------------------------------------------
    for lp in plan.layer_plans:
        if lp.has_summary_round:
            messages = {}
            for gid in lp.heavy_gates:
                gate_owner = owner[gid]
                if gate_owner == me:
                    continue
                positions = lp.summary_senders[gid].get(me)
                if not positions:
                    continue
                node = circuit.node(gid)
                part = [(pos, values[node.inputs[pos]]) for pos in positions]
                messages[gate_owner] = node.gate.partial_summary(
                    part, len(node.inputs)
                )
            inbox = yield Outbox.unicast(messages)
            for gid in lp.heavy_gates:
                if owner[gid] != me:
                    continue
                node = circuit.node(gid)
                summaries = []
                local_positions = lp.summary_local[gid]
                if local_positions:
                    part = [
                        (pos, values[node.inputs[pos]])
                        for pos in local_positions
                    ]
                    summaries.append(
                        node.gate.partial_summary(part, len(node.inputs))
                    )
                for sender in lp.summary_senders[gid]:
                    summaries.append(inbox.get(sender))
                values[gid] = node.gate.combine(summaries, len(node.inputs))
        else:
            # No summaries needed anywhere: heavy gates (if any) have
            # all inputs local to their owners.
            for gid in lp.heavy_gates:
                if owner[gid] == me:
                    node = circuit.node(gid)
                    values[gid] = node.gate.compute(
                        [values[src] for src in node.inputs]
                    )

        if lp.push_recv:
            messages = {
                dst: Bits.from_uint(1 if values[gid] else 0, 1)
                for (src, dst), gid in lp.push_recv.items()
                if src == me
            }
            inbox = yield Outbox.unicast(messages)
            for sender, payload in inbox.items():
                gid = lp.push_recv[(sender, me)]
                values[gid] = bool(payload.to_uint())

        if lp.light_lengths:
            payloads = {}
            for (src, dst), gids in lp.light_order.items():
                if src == me:
                    payloads[dst] = Bits.from_bools(
                        [values[g] for g in gids]
                    )
            received = yield from route_payloads(
                ctx,
                lp.light_lengths,
                payloads,
                plan.bandwidth,
                lp.light_schedule,
            )
            for src, bits in received.items():
                for gid, bit in zip(lp.light_order[(src, me)], bits):
                    values[gid] = bool(bit)

        for gid in lp.light_owned.get(me, ()):  # evaluate my light gates
            node = circuit.node(gid)
            values[gid] = node.gate.compute(
                [values[src] for src in node.inputs]
            )

    return {
        gid: values[gid] for gid in circuit.outputs if owner[gid] == me
    }


def make_program(plan: SimulationPlan):
    """The node program executing ``plan``; ``ctx.input`` must be a dict
    {input gate id: bool} for the inputs this node initially holds."""

    def program(ctx: Context):
        result = yield from execute_plan(ctx, plan, ctx.input or {})
        return result

    # The round structure is a pure function of the plan — see the
    # module docstring.
    declare_schedule_digest(program, "simulate_circuit", plan)
    return mark_oblivious(program, "simulate_circuit", id(plan))


def simulate_circuit(
    circuit: Circuit,
    n: int,
    input_values: Sequence[bool],
    input_partition: Optional[Sequence[int]] = None,
    bandwidth: Optional[int] = None,
    plan: Optional[SimulationPlan] = None,
    seed: int = 0,
    kernel: bool = False,
) -> Tuple[Dict[int, bool], RunResult, SimulationPlan]:
    """Run the full Theorem 2 simulation and return (outputs by gate id,
    engine result, plan)."""
    all_outputs, results, plan = simulate_circuit_many(
        circuit,
        n,
        [input_values],
        input_partition=input_partition,
        bandwidth=bandwidth,
        plan=plan,
        seed=seed,
        kernel=kernel,
    )
    return all_outputs[0], results[0], plan


def simulate_circuit_many(
    circuit: Circuit,
    n: int,
    input_values_list: Sequence[Sequence[bool]],
    input_partition: Optional[Sequence[int]] = None,
    bandwidth: Optional[int] = None,
    plan: Optional[SimulationPlan] = None,
    seed: int = 0,
    kernel: bool = False,
) -> Tuple[List[Dict[int, bool]], List[RunResult], SimulationPlan]:
    """Evaluate ``circuit`` on many input vectors with one compiled
    schedule: the plan is built once and
    :meth:`~repro.core.network.Network.run_many` replays the recorded
    round structure for every instance after the first.  Per-instance
    results are byte-identical to :func:`simulate_circuit`.

    ``kernel=True`` runs the vectorized kernel form of the simulation
    (:func:`repro.simulation.kernel.make_kernel_program`) instead of
    the generator loop — same results, zero generator resumptions."""
    if plan is None:
        plan = build_plan(circuit, n, input_partition, bandwidth)
    if input_partition is None:
        input_partition = [i % n for i in range(circuit.num_inputs)]
    inputs_list = []
    for input_values in input_values_list:
        per_node_inputs: List[Dict[int, bool]] = [dict() for _ in range(n)]
        for position, gid in enumerate(circuit.input_ids):
            per_node_inputs[input_partition[position]][gid] = bool(
                input_values[position]
            )
        inputs_list.append(per_node_inputs)
    network = Network(n=n, bandwidth=plan.bandwidth, mode=Mode.UNICAST, seed=seed)
    if kernel:
        from repro.simulation.kernel import make_kernel_program

        program: Any = make_kernel_program(plan)
    else:
        program = make_program(plan)
    results = network.run_many(program, inputs_list)
    all_outputs: List[Dict[int, bool]] = []
    for result in results:
        outputs: Dict[int, bool] = {}
        for node_output in result.outputs:
            if node_output:
                outputs.update(node_output)
        all_outputs.append(outputs)
    return all_outputs, results, plan


@dataclass
class OutputRouting:
    """Remark 3: a public plan for redistributing multi-bit operator
    outputs from their simulation owners to caller-chosen players."""

    order: Dict[Pair, List[int]] = field(default_factory=dict)
    lengths: Dict[Pair, int] = field(default_factory=dict)
    schedule: Optional[RoutingSchedule] = None
    target_of: Dict[int, int] = field(default_factory=dict)


def build_output_routing(
    plan: SimulationPlan, target_of: Mapping[int, int]
) -> OutputRouting:
    """Plan the Remark 3 output redistribution: every output gate id in
    ``target_of`` is shipped from its owner to ``target_of[gid]``."""
    routing = OutputRouting(target_of=dict(target_of))
    for gid in plan.circuit.outputs:
        if gid not in target_of:
            continue
        src = plan.assignment.owner[gid]
        dst = target_of[gid]
        if src != dst:
            routing.order.setdefault((src, dst), []).append(gid)
    routing.lengths = {pair: len(gids) for pair, gids in routing.order.items()}
    routing.schedule = build_schedule(
        payload_demand(routing.lengths, plan.bandwidth), plan.n
    )
    return routing


def redistribute_outputs(
    ctx: Context,
    plan: SimulationPlan,
    routing: OutputRouting,
    values: Mapping[int, bool],
):
    """Execute the Remark 3 redistribution (sub-generator).  ``values``
    is this node's gate-value map from :func:`execute_plan`; returns the
    {gate id: value} entries this node is a target for."""
    me = ctx.node_id
    payloads = {}
    for (src, dst), gids in routing.order.items():
        if src == me:
            payloads[dst] = Bits.from_bools([values[g] for g in gids])
    received = yield from route_payloads(
        ctx, routing.lengths, payloads, plan.bandwidth, routing.schedule
    )
    mine: Dict[int, bool] = {}
    for gid, target in routing.target_of.items():
        if target == me and plan.assignment.owner[gid] == me:
            mine[gid] = values[gid]
    for src, bits in received.items():
        for gid, bit in zip(routing.order[(src, me)], bits):
            mine[gid] = bool(bit)
    return mine
