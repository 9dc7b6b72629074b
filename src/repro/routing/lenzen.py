"""Executing routing schedules on the engine (Lenzen-style routing).

:func:`route_frames` is the runtime counterpart of
:mod:`repro.routing.schedule`: a sub-generator that every node drives
with ``yield from`` inside its program.  All nodes hold the same
(globally computed) :class:`RoutingSchedule`, so senders, receivers and
forwarders agree on which frame each link carries each round without any
extra communication — mirroring how [28] is consumed by Theorem 2, where
the demand pattern is public.

:func:`route_payloads` layers variable-length payloads on top: payload
lengths are public (part of the plan), so payloads are padded to whole
frames and truncated by the receiver.

Routing is *oblivious*: every round's senders, receivers and frame
widths are fully determined by the public :class:`RoutingSchedule` and
``frame_size`` — the payload bits never influence the structure.
Programs whose communication consists of such routed exchanges can be
declared to the engine with :func:`~repro.core.compiled.mark_oblivious`
so repeated runs replay a compiled schedule; :func:`route_program`
packages the common whole-program case (every node routes the frames
given in its input) with the declaration already made.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.bits import Bits
from repro.core.compiled import declare_schedule_digest, mark_oblivious
from repro.core.kernels import pack_rows, unpack_rows
from repro.core.network import Context, Outbox, inbox_uints
from repro.routing.schedule import (
    FrameRef,
    RoutingSchedule,
    build_schedule,
    demand_arrays,
)

__all__ = [
    "route_frames",
    "payload_demand",
    "PayloadOrder",
    "route_payloads",
    "route_program",
    "KernelRoute",
    "KernelPayloads",
    "kernel_route_frames",
    "kernel_route_payloads",
    "route_kernel_program",
]


def route_frames(
    ctx: Context,
    schedule: RoutingSchedule,
    my_frames: Mapping[FrameRef, Bits],
    frame_size: Optional[int] = None,
):
    """Drive ``schedule`` for this node; returns the frames delivered
    here (keyed by :data:`FrameRef`).  Sub-generator: use ``yield from``.

    When ``frame_size`` is given, every frame must be exactly that many
    bits and the whole exchange rides the engine's fixed-width fast lane
    (frames travel as uints, delivered via bulk array writes).  Without
    it, frames may have arbitrary lengths and travel as plain Bits.
    """
    if frame_size is not None:
        result = yield from _route_frames_fixed(ctx, schedule, my_frames, frame_size)
        return result
    holding: Dict[FrameRef, Bits] = dict(my_frames)
    delivered: Dict[FrameRef, Bits] = {}
    for r in range(schedule.num_rounds):
        sends = schedule.send_plan[r].get(ctx.node_id, [])
        messages: Dict[int, Bits] = {}
        for recipient, frame in sends:
            if recipient in messages:
                raise AssertionError(
                    "schedule placed two frames on one link in one round"
                )
            messages[recipient] = holding.pop(frame)
        inbox = yield (Outbox.unicast(messages) if messages else Outbox.silent())
        recv = schedule.recv_plan[r]
        for sender, payload in inbox.items():
            frame, is_final = recv[(sender, ctx.node_id)]
            if is_final:
                delivered[frame] = payload
            else:
                holding[frame] = payload
    return delivered


def _route_frames_fixed(
    ctx: Context,
    schedule: RoutingSchedule,
    my_frames: Mapping[FrameRef, Bits],
    frame_size: int,
):
    """Fixed-width body of :func:`route_frames`: frames held and
    forwarded as raw uints, converted back to Bits only on delivery."""
    me = ctx.node_id
    holding: Dict[FrameRef, int] = {}
    for ref, frame in my_frames.items():
        if len(frame) != frame_size:
            raise ValueError(
                f"frame {ref} has {len(frame)} bits, expected {frame_size}"
            )
        holding[ref] = frame.to_uint()
    delivered: Dict[FrameRef, int] = {}
    for r in range(schedule.num_rounds):
        sends = schedule.send_plan[r].get(me, ())
        if sends:
            messages: Dict[int, int] = {}
            for recipient, frame in sends:
                if recipient in messages:
                    raise AssertionError(
                        "schedule placed two frames on one link in one round"
                    )
                messages[recipient] = holding.pop(frame)
            outbox = Outbox.fixed_width_map(messages, frame_size)
        else:
            outbox = Outbox.silent()
        inbox = yield outbox
        recv = schedule.recv_plan[r]
        for sender, value in inbox_uints(inbox):
            frame, is_final = recv[(sender, me)]
            if is_final:
                delivered[frame] = value
            else:
                holding[frame] = value
    return {ref: Bits(value, frame_size) for ref, value in delivered.items()}


def route_program(schedule: RoutingSchedule, frame_size: int):
    """A complete, oblivious node program executing ``schedule``.

    Node ``v``'s input (``ctx.input``) must be its ``{FrameRef: Bits}``
    map of injected frames (or ``None`` for no traffic); the node's
    output is the ``{FrameRef: Bits}`` map of frames delivered to it.
    The program is declared oblivious — the round structure comes
    entirely from the public schedule — so sweeping many payload
    instances with :meth:`~repro.core.network.Network.run_many` replays
    one compiled schedule instead of re-classifying every round.
    """

    def program(ctx):
        delivered = yield from route_frames(
            ctx, schedule, ctx.input or {}, frame_size=frame_size
        )
        return delivered

    # Persistent-cache identity must be content-derived (the in-memory
    # key above may use object identity; disk entries are shared across
    # pool workers where id() means nothing).
    declare_schedule_digest(program, "route_program", schedule, frame_size)
    return mark_oblivious(program, "route_program", id(schedule), frame_size)


def payload_demand(
    lengths: Mapping[Tuple[int, int], int],
    frame_size: int,
) -> Dict[Tuple[int, int], int]:
    """Frame counts for public payload ``lengths`` (bits per (src, dst))."""
    if frame_size < 1:
        raise ValueError("frame size must be positive")
    return {
        pair: -(-bits // frame_size)
        for pair, bits in lengths.items()
        if bits > 0
    }


class PayloadOrder:
    """Public per-pair payload contents as sorted CSR arrays.

    Pair ``i`` is ``(src[i], dst[i])`` — ascending, each named once,
    none empty — and its payload carries ``items[starts[i]:starts[i+1]]``
    in that order (for Theorem 2, the gate ids whose values it ships).
    :meth:`as_dict` and :meth:`lengths` are the ``{(src, dst): ...}``
    forms :func:`route_payloads` takes."""

    __slots__ = ("src", "dst", "starts", "items")

    def __init__(self, src, dst, starts, items) -> None:
        self.src = src
        self.dst = dst
        self.starts = starts
        self.items = items

    @classmethod
    def from_keys(cls, keys: np.ndarray, items: np.ndarray, n: int) -> "PayloadOrder":
        """Group ``items`` by their sorted pair keys ``src·n + dst``."""
        keys = np.asarray(keys, dtype=np.int64)
        first = np.flatnonzero(np.diff(keys, prepend=-1))
        pair = keys[first]
        return cls(
            pair // n,
            pair % n,
            np.append(first, keys.size),
            np.asarray(items, dtype=np.int64),
        )

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.starts)

    def pairs(self) -> List[Tuple[int, int]]:
        return list(zip(self.src.tolist(), self.dst.tolist()))

    def as_dict(self) -> Dict[Tuple[int, int], List[int]]:
        items = self.items.tolist()
        bounds = self.starts.tolist()
        return {
            pair: items[lo:hi]
            for pair, lo, hi in zip(self.pairs(), bounds, bounds[1:])
        }

    def lengths(self) -> Dict[Tuple[int, int], int]:
        return dict(zip(self.pairs(), self.sizes.tolist()))

    def demand(self, frame_size: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(src, dst, frames)`` of :func:`payload_demand`, as arrays."""
        if frame_size < 1:
            raise ValueError("frame size must be positive")
        return self.src, self.dst, -(-self.sizes // frame_size)


def route_payloads(
    ctx: Context,
    lengths: Mapping[Tuple[int, int], int],
    my_payloads: Mapping[int, Bits],
    frame_size: int,
    schedule: RoutingSchedule = None,
):
    """Route variable-length payloads under a *public* length map.

    Every node passes the same ``lengths`` (and, optionally, the same
    prebuilt schedule); ``my_payloads`` maps destination -> payload for
    this node's own traffic.  Returns {source: payload} for traffic
    addressed to this node.  Sub-generator: use ``yield from``.
    """
    if schedule is None:
        schedule = build_schedule(payload_demand(lengths, frame_size), ctx.n)
    my_frames: Dict[FrameRef, Bits] = {}
    for dst, payload in my_payloads.items():
        expected = lengths.get((ctx.node_id, dst), 0)
        if len(payload) != expected:
            raise ValueError(
                f"payload to {dst} has {len(payload)} bits, plan says {expected}"
            )
        if expected == 0:
            continue
        count = -(-expected // frame_size)
        padded = payload.pad_to(count * frame_size)
        for idx, chunk in enumerate(padded.chunks(frame_size)):
            my_frames[(ctx.node_id, dst, idx)] = chunk
    delivered = yield from route_frames(ctx, schedule, my_frames, frame_size=frame_size)
    by_source: Dict[int, Dict[int, Bits]] = {}
    for (src, _dst, idx), chunk in delivered.items():
        by_source.setdefault(src, {})[idx] = chunk
    result: Dict[int, Bits] = {}
    for src, chunks in by_source.items():
        expected = lengths[(src, ctx.node_id)]
        ordered = [chunks[i] for i in range(len(chunks))]
        result[src] = Bits.concat(ordered)[:expected]
    return result


# -- kernel form --------------------------------------------------------
#
# Routing is the ideal kernel workload: a frame's value never changes,
# only its location does, and every hop is in the public timetable.
# Each round therefore compiles to one gather (pick the frames moving
# this round out of the frame-value matrix) and one scatter (write what
# the links delivered back into it) — no per-node stepping at all.


class KernelRoute:
    """``schedule`` flattened once for kernel rounds.

    Every frame gets a dense slot (first-appearance order) in a
    ``K × num_frames`` frame-value matrix — ``frame_slot[f]`` for frame
    ``f`` of the schedule's frame table; each round is its CSR
    ``(senders, counts, dests)`` in builder structure order (ascending
    sender, that sender's hops in frame order) plus the slot vector
    those hops carry.  A frame lands on its own destination.  Frame
    values are ``uint64``, or Python ints (``object``) past 63 bits.
    Build it once and hand it to :func:`kernel_route_frames` as often
    as the phase repeats.
    """

    def __init__(self, schedule: RoutingSchedule, frame_size: int) -> None:
        if frame_size < 1:
            raise ValueError("frame size must be positive")
        self.frame_size = frame_size
        self.dtype = object if frame_size > 63 else np.uint64
        # Hops are sorted by (round, frame); a stable sort on (round,
        # sender) gives structure order.
        order = np.lexsort((schedule.hop_sender, schedule.hop_round))
        hop_frame = schedule.hop_frame[order]
        senders = schedule.hop_sender[order].astype(np.intp)
        dests = schedule.hop_recipient[order].astype(np.intp)
        hop_round = schedule.hop_round[order]
        # A frame's slot ranks its first hop in structure order.
        by_frame = np.argsort(hop_frame, kind="stable")
        head = np.flatnonzero(np.diff(hop_frame[by_frame], prepend=-1))
        frames, first = hop_frame[by_frame[head]], by_frame[head]
        rank = np.empty(first.size, dtype=np.int64)
        rank[np.argsort(first)] = np.arange(first.size, dtype=np.int64)
        self.frame_slot = np.full(schedule.frame_src.size, -1, dtype=np.int64)
        self.frame_slot[frames] = rank
        self.num_frames = int(frames.size)
        slots = self.frame_slot[hop_frame].astype(np.intp)
        bounds = np.searchsorted(hop_round, np.arange(schedule.num_rounds + 1))
        self.rounds: List[Tuple[Tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray]] = []
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            round_senders = senders[lo:hi]
            first_hop = np.flatnonzero(np.diff(round_senders, prepend=-1))
            csr = (
                round_senders[first_hop],
                np.diff(np.append(first_hop, hi - lo)),
                dests[lo:hi],
            )
            self.rounds.append((csr, slots[lo:hi]))


def kernel_route_frames(builder, route: KernelRoute, get_frames, set_result) -> None:
    """Append ``route``'s rounds to ``builder`` as kernel rounds.

    At phase start ``get_frames(state)`` returns the ``K × num_frames``
    frame-value matrix in ``route.slot_of`` order; when the last hop
    lands, ``set_result(state, values)`` receives that matrix as the
    links delivered it (a frame's entry holds what reached
    ``route.final_dest[ref]``).
    """
    key = builder.fresh_key("route")

    def start(state):
        values = get_frames(state)
        if values.ndim != 2 or values.shape[1] != route.num_frames:
            raise ValueError(
                f"frame matrix has shape {values.shape}, "
                f"expected (K, {route.num_frames})"
            )
        state[key] = values

    builder.before(start)
    for (senders, counts, dests), slots in route.rounds:

        def send(state, _slots=slots):
            return state[key][:, _slots]

        def recv(state, inbox, _slots=slots):
            # Write what the links actually delivered back into the
            # frame-value matrix (value-preserving by construction, but
            # keeps the data flow on the wire).
            state[key][:, _slots] = inbox.gather()

        builder.unicast_csr(senders, counts, dests, route.frame_size, send, recv)

    def done(state):
        set_result(state, state.pop(key))

    builder.before(done)


def _pack_frames(bits: np.ndarray, frame_size: int) -> np.ndarray:
    """``K × (F·frame_size)`` 0/1 bits, frame ``f`` in columns
    ``[f·frame_size, (f+1)·frame_size)`` first bit most significant, as
    the ``K × F`` frame-value matrix."""
    instances = bits.shape[0]
    frames = bits.reshape(-1, frame_size)
    if frame_size > 63:
        values = np.empty(frames.shape[0], dtype=object)
        values[:] = pack_rows(frames)
        return values.reshape(instances, -1)
    weights = np.left_shift(
        np.uint64(1), np.arange(frame_size - 1, -1, -1, dtype=np.uint64)
    )
    return (frames @ weights).reshape(instances, -1)


def _unpack_frames(values: np.ndarray, frame_size: int) -> np.ndarray:
    """Inverse of :func:`_pack_frames`; rejects a frame value that does
    not fit ``frame_size`` bits."""
    instances = values.shape[0]
    flat = values.reshape(-1)
    if frame_size > 63:
        try:
            bits = unpack_rows(flat, frame_size)
        except OverflowError as exc:
            raise ValueError(f"frame value does not fit {frame_size} bits") from exc
    else:
        if (flat >> np.uint64(frame_size)).any():
            raise ValueError(f"frame value does not fit {frame_size} bits")
        shifts = np.arange(frame_size - 1, -1, -1, dtype=np.uint64)
        bits = ((flat[:, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return bits.reshape(instances, -1)


class KernelPayloads:
    """Public payload ``lengths`` laid out once over ``schedule``'s frames.

    The pairs (``src`` / ``dst`` / ``sizes``: ascending, positive
    lengths only) fix the *payload-bit order* every caller speaks: pair
    after pair, each payload's bits in order.  A payload is chunked into
    ``frame_size``-bit frames, first bit most significant, the last
    frame zero-padded — the wire format of :func:`route_payloads`.
    ``positions`` maps each payload bit to its place in the routed
    frames' packed bit buffer, so packing and unpacking are one scatter
    and one gather (frame ``f`` occupies bits ``[f·frame_size,
    (f+1)·frame_size)`` of that buffer).  ``lengths`` maps ``(src,
    dst)`` to bits, or is a ``(src, dst, bits)`` triple of arrays.
    """

    def __init__(
        self,
        schedule: RoutingSchedule,
        lengths,
        frame_size: int,
    ) -> None:
        self.route = KernelRoute(schedule, frame_size)
        src, dst, sizes = demand_arrays(lengths)
        keep = sizes > 0
        self.src, self.dst, self.sizes = src[keep], dst[keep], sizes[keep]
        sizes = self.sizes
        counts = -(-sizes // frame_size)
        frame_start = np.zeros(sizes.size, dtype=np.int64)
        np.cumsum(counts[:-1], out=frame_start[1:])
        total = int(counts.sum())
        # Find each payload frame (pair, idx) in the schedule's sorted
        # frame table.
        idx = np.arange(total, dtype=np.int64) - np.repeat(frame_start, counts)
        frame_src = np.repeat(self.src, counts)
        frame_dst = np.repeat(self.dst, counts)
        n = schedule.n
        span = int(max(idx.max(initial=0), schedule.frame_idx.max(initial=0))) + 1
        routed = (schedule.frame_src * n + schedule.frame_dst) * span + schedule.frame_idx
        wanted = (frame_src * n + frame_dst) * span + idx
        where = np.searchsorted(routed, wanted)
        found = (
            (frame_src >= 0) & (frame_src < n) & (frame_dst >= 0) & (frame_dst < n)
            & (where < routed.size)
        )
        found[found] = routed[where[found]] == wanted[found]
        if not found.all():
            f = int(np.argmin(found))
            raise ValueError(
                f"schedule does not route frame "
                f"{(int(frame_src[f]), int(frame_dst[f]), int(idx[f]))} "
                f"of the payloads"
            )
        slots = self.route.frame_slot[where]
        if slots.size != self.route.num_frames:
            raise ValueError(
                f"schedule routes {self.route.num_frames} frames, "
                f"the payload lengths need {slots.size}"
            )
        # Bit b of pair p is bit b % frame_size of the pair's frame
        # b // frame_size.
        pair_start = np.zeros(sizes.size, dtype=np.int64)
        np.cumsum(sizes[:-1], out=pair_start[1:])
        bit = np.arange(int(sizes.sum()), dtype=np.int64)
        bit -= np.repeat(pair_start, sizes)
        frame = np.repeat(frame_start, sizes) + bit // frame_size
        self.positions = slots[frame] * frame_size + bit % frame_size
        self.total_bits = int(self.positions.size)


def kernel_route_payloads(
    builder, payloads: KernelPayloads, get_bits, set_bits
) -> None:
    """Append a :func:`route_payloads` phase to ``builder``: at phase
    start ``get_bits(state)`` returns the ``K × payloads.total_bits``
    0/1 matrix of every payload in payload-bit order; the bits are packed
    into frames, routed, and unpacked, and ``set_bits(state, bits)``
    receives what arrived, in the same order."""
    frame_size = payloads.route.frame_size
    positions = payloads.positions
    buffer_bits = payloads.route.num_frames * frame_size

    def get_frames(state):
        bits = get_bits(state)
        if bits.ndim != 2 or bits.shape[1] != payloads.total_bits:
            raise ValueError(
                f"payload bits have shape {bits.shape}, "
                f"expected (K, {payloads.total_bits})"
            )
        buf = np.zeros((bits.shape[0], buffer_bits), dtype=np.uint8)
        buf[:, positions] = bits
        return _pack_frames(buf, frame_size)

    def assemble(state, values):
        set_bits(state, _unpack_frames(values, frame_size)[:, positions])

    kernel_route_frames(builder, payloads.route, get_frames, assemble)


def route_kernel_program(schedule: RoutingSchedule, frame_size: int):
    """The kernel twin of :func:`route_program`: same inputs (node
    ``v``'s ``{FrameRef: Bits}`` injection map, or ``None``), same
    outputs (the frames delivered to each node), zero generator steps —
    every round is one gather + one scatter over a frame-value matrix
    for all instances of a sweep at once."""
    from repro.core.kernels import KernelBuilder
    from repro.core.network import Mode

    builder = KernelBuilder(schedule.n, Mode.UNICAST)
    route = KernelRoute(schedule, frame_size)
    refs = zip(
        schedule.frame_src.tolist(),
        schedule.frame_dst.tolist(),
        schedule.frame_idx.tolist(),
    )
    slot_of = dict(zip(refs, route.frame_slot.tolist()))

    def init(state, kctx):
        state["inputs"] = kctx.inputs_list

    builder.on_init(init)

    def get_frames(state):
        inputs_list = state["inputs"]
        values = np.zeros((len(inputs_list), route.num_frames), dtype=route.dtype)
        for k, inputs in enumerate(inputs_list):
            for per_node in inputs or ():
                for ref, frame in (per_node or {}).items():
                    if len(frame) != frame_size:
                        raise ValueError(
                            f"frame {ref} has {len(frame)} bits, "
                            f"expected {frame_size}"
                        )
                    values[k, slot_of[ref]] = frame.to_uint()
        return values

    def set_result(state, values):
        delivered = [
            [dict() for _ in range(schedule.n)] for _ in range(values.shape[0])
        ]
        for ref, slot in slot_of.items():
            for k, per_node in enumerate(delivered):
                per_node[ref[1]][ref] = Bits(int(values[k, slot]), frame_size)
        state["out"] = delivered

    kernel_route_frames(builder, route, get_frames, set_result)
    return builder.build(
        lambda state, kctx: state["out"], name="route_frames"
    )
