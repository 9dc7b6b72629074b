"""Phase layer: long logical messages over ``b``-bit rounds.

Most algorithms in the paper are described in terms of logical messages
much longer than the bandwidth — e.g. the Becker et al. reconstruction
broadcasts ``O(k log n)`` bits per node, "divided into chunks of b bits
each, broadcast over O(k log n / b) rounds" (Theorem 7).  This module
implements that chunking *honestly*: a phase really is executed as a
sequence of b-bit frames on the engine, so round counts reported by
:class:`~repro.core.network.RunResult` include fragmentation cost.

Phase lengths depend only on *public* parameters (a globally known upper
bound on payload length), exactly as in the paper: all nodes agree on the
number of rounds a phase takes without communicating.

The helpers here are sub-generators meant to be driven with ``yield
from`` inside a node program::

    def program(ctx):
        got = yield from transmit_broadcast(ctx, my_bits, max_bits=limit)
        ...

Obliviousness
-------------

Phases are structure-oblivious building blocks: a transmit phase always
lasts ``phase_length(max_bits, b)`` rounds of exactly ``b``-bit frames,
so its round/width structure is fixed by the public parameters.  The
*sender set* is the one input-dependent degree of freedom —
``transmit_unicast``'s destination keys and ``transmit_broadcast``'s
``payload is None`` choice.  A program composed of phases whose sender
sets are input-independent (everyone transmits, or who-transmits is
derived from public data) qualifies for
:func:`~repro.core.compiled.mark_oblivious`: repeated runs then replay a
compiled schedule instead of re-classifying every frame round.

Whether a composed program actually qualifies is checkable *before* the
first recording run: the static verifier
(``python -m repro.analysis``, :mod:`repro.analysis.oblivious`) traces
the program's round structure over perturbed inputs and seed variants
and refutes a wrong ``mark_oblivious`` declaration with the exact
offending round — the same deviation the fast engine would otherwise
discover at runtime via schedule eviction
(:class:`~repro.core.errors.ReplayEvictionWarning`).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.core.bits import Bits
from repro.core.errors import DecodeError
from repro.core.network import Context, Outbox, inbox_uints

__all__ = [
    "header_width",
    "phase_length",
    "transmit_unicast",
    "transmit_broadcast",
    "transmit_unicast_acked",
    "transmit_broadcast_redundant",
    "idle",
    "kernel_transmit_unicast",
    "kernel_transmit_broadcast",
    "transmit_unicast_kernel_program",
    "transmit_broadcast_kernel_program",
]


def header_width(max_bits: int) -> int:
    """Width of the fixed-size length header for payloads of at most
    ``max_bits`` bits."""
    if max_bits < 0:
        raise ValueError("max_bits must be non-negative")
    return max_bits.bit_length() or 1


def phase_length(max_bits: int, bandwidth: int) -> int:
    """Number of rounds a transmit phase takes: ceil((header+max)/b)."""
    total = header_width(max_bits) + max_bits
    return -(-total // bandwidth)


def _frame_payload(payload: Bits, max_bits: int, rounds: int, bandwidth: int) -> list:
    """Length header + payload, padded to whole frames, as a list of
    ``rounds`` frame uints (each exactly ``bandwidth`` bits wide)."""
    length = len(payload)
    if length > max_bits:
        raise ValueError(
            f"payload of {length} bits exceeds declared max {max_bits}"
        )
    total = rounds * bandwidth
    pad = total - header_width(max_bits) - length
    stream = ((length << length) | payload.to_uint()) << pad
    return Bits(stream, total).to_uint_chunks(bandwidth)


def _parse_concat(chunks, bandwidth: int, max_bits: int) -> Bits:
    """The payload carried by one phase's frames: the inverse of
    :func:`_frame_payload`, decoded straight off the frame uints.

    ``chunks`` are the ``bandwidth``-bit frame values in arrival order.
    Raises ``ValueError`` for a non-positive ``bandwidth``, a negative
    ``max_bits`` or a chunk that does not fit its frame, and
    :class:`~repro.core.errors.DecodeError` when the length header does
    not fit the stream, exceeds the public bound ``max_bits``, or
    claims more bits than the frames carry."""
    if bandwidth <= 0:
        raise ValueError("chunk width must be positive")
    stream = 0
    total = 0
    for chunk in chunks:
        if chunk < 0 or chunk >> bandwidth:
            raise ValueError(f"chunk {chunk} does not fit in {bandwidth} bits")
        stream = (stream << bandwidth) | chunk
        total += bandwidth
    body = total - header_width(max_bits)
    if body < 0:
        raise DecodeError(
            f"{total}-bit frame stream is shorter than its length header"
        )
    length = stream >> body
    if length > max_bits:
        raise DecodeError(
            f"length header {length} exceeds the phase bound of {max_bits} bits"
        )
    if length > body:
        raise DecodeError(
            f"length header {length} exceeds the {body} payload bits received"
        )
    return Bits((stream >> (body - length)) & ((1 << length) - 1), length)


def _streams(heard) -> Dict[int, list]:
    """``{sender: frame uints}`` for every sender heard in each round of
    a phase, in first-round order; ``heard`` holds one ``{sender: uint}``
    dict per round.  A sender that missed a round (a dropped frame) has
    no complete stream and is left out."""
    complete = set(heard[0]).intersection(*heard[1:])
    return {
        sender: [frames[sender] for frames in heard]
        for sender in heard[0]
        if sender in complete
    }


def transmit_unicast(
    ctx: Context,
    payloads: Mapping[int, Bits],
    max_bits: int,
):
    """Send each ``payloads[dest]`` (each at most ``max_bits`` bits) to its
    destination over one globally scheduled phase; return a dict mapping
    each sender that transmitted to us to its reassembled payload.

    Every frame of the phase is exactly ``b`` bits (the payload is
    padded to a whole number of frames), so the exchange rides the
    engine's fixed-width fast lane."""
    rounds = phase_length(max_bits, ctx.bandwidth)
    bandwidth = ctx.bandwidth
    framed = {
        dest: _frame_payload(payload, max_bits, rounds, bandwidth)
        for dest, payload in payloads.items()
    }
    heard = []
    for r in range(rounds):
        outbox = (
            Outbox.fixed_width_map(
                {dest: frames[r] for dest, frames in framed.items()}, bandwidth
            )
            if framed
            else Outbox.silent()
        )
        inbox = yield outbox
        heard.append(dict(inbox_uints(inbox)))
    return {
        sender: _parse_concat(frames, bandwidth, max_bits)
        for sender, frames in _streams(heard).items()
    }


def transmit_broadcast(
    ctx: Context,
    payload: Optional[Bits],
    max_bits: int,
):
    """Broadcast ``payload`` (or stay silent if ``None``) over one phase;
    return a dict mapping every broadcasting node to its payload.

    Every frame of the phase is exactly ``b`` bits (the payload is
    padded to a whole number of frames), so the exchange rides the
    engine's broadcast bulk lane."""
    rounds = phase_length(max_bits, ctx.bandwidth)
    bandwidth = ctx.bandwidth
    frames = (
        None
        if payload is None
        else _frame_payload(payload, max_bits, rounds, bandwidth)
    )
    heard = []
    for r in range(rounds):
        outbox = (
            Outbox.silent()
            if frames is None
            else Outbox.broadcast_uint(frames[r], bandwidth)
        )
        inbox = yield outbox
        heard.append(dict(inbox_uints(inbox)))
    return {
        sender: _parse_concat(chunks, bandwidth, max_bits)
        for sender, chunks in _streams(heard).items()
    }


def idle(rounds: int):
    """Stay silent (but synchronized) for ``rounds`` rounds."""
    for _ in range(rounds):
        yield Outbox.silent()


# -- resilient form ------------------------------------------------------
#
# The wrappers below buy fault tolerance with *bounded, public* extra
# rounds: every node agrees on the schedule (number of attempts /
# copies) without communicating, so the protocols stay synchronous and
# the engines' round accounting stays honest — retransmissions and
# redundant copies are charged like any other send.  They are **not**
# oblivious: which links carry traffic in later attempts depends on
# which earlier deliveries were lost, so do not wrap programs built on
# them with :func:`~repro.core.compiled.mark_oblivious`.


def transmit_unicast_acked(
    ctx: Context,
    payloads: Mapping[int, Bits],
    max_bits: int,
    attempts: int = 2,
):
    """:func:`transmit_unicast` hardened against message *loss*: up to
    ``attempts`` rounds of (transmit phase + one 1-bit ack round), each
    attempt retransmitting only the payloads whose receivers have not
    acknowledged them yet.

    Receivers acknowledge every sender they have heard from so far (not
    just this attempt), so a lost *ack* merely costs one redundant
    retransmission.  Returns the reassembled ``{sender: payload}`` dict
    like the plain phase; a payload dropped in every attempt is simply
    absent.  Corruption is not detected here — a flipped bit is
    reassembled and acknowledged like any payload; pair with
    redundant sending or validators when corruption is in the fault
    model.  Costs at most ``attempts * (phase_length(max_bits, b) + 1)``
    rounds, identical on every node.
    """
    if attempts < 1:
        raise ValueError("attempts must be at least 1")
    received: Dict[int, Bits] = {}
    remaining = dict(payloads)
    for _ in range(attempts):
        got = yield from transmit_unicast(ctx, remaining, max_bits)
        for sender, payload in got.items():
            # First delivery wins: a retransmission of something we
            # already reassembled (its ack was lost) changes nothing.
            received.setdefault(sender, payload)
        acks = {sender: 1 for sender in received}
        inbox = yield (
            Outbox.fixed_width_map(acks, 1) if acks else Outbox.silent()
        )
        acked = {sender for sender, value in inbox_uints(inbox) if value == 1}
        remaining = {
            dest: payload
            for dest, payload in remaining.items()
            if dest not in acked
        }
    return received


def transmit_broadcast_redundant(
    ctx: Context,
    payload: Optional[Bits],
    max_bits: int,
    copies: int = 3,
):
    """:func:`transmit_broadcast` hardened against *corruption* (and,
    with enough copies, loss): the payload is broadcast ``copies`` times
    and each receiver keeps, per sender, the majority value among the
    copies that arrived.

    Ties (and the no-majority case) resolve deterministically to the
    smallest ``(length, value)`` candidate, so all receivers of the same
    copies agree.  With at most ``floor((copies-1)/2)`` of a sender's
    copies corrupted, the true payload wins the vote outright.  A copy
    whose corrupted length header no longer parses (it overruns the
    frames or exceeds ``max_bits``) is discarded rather than allowed to
    abort the phase (the strict single-shot
    :func:`transmit_broadcast` raises there — redundancy exists exactly
    so one bad copy is survivable).  Costs
    ``copies * phase_length(max_bits, b)`` rounds.
    """
    if copies < 1:
        raise ValueError("copies must be at least 1")
    rounds = phase_length(max_bits, ctx.bandwidth)
    bandwidth = ctx.bandwidth
    frames = (
        None
        if payload is None
        else _frame_payload(payload, max_bits, rounds, bandwidth)
    )
    votes: Dict[int, Dict[Tuple[int, int], int]] = {}
    for _ in range(copies):
        heard = []
        for r in range(rounds):
            outbox = (
                Outbox.silent()
                if frames is None
                else Outbox.broadcast_uint(frames[r], bandwidth)
            )
            inbox = yield outbox
            heard.append(dict(inbox_uints(inbox)))
        for sender, chunks in _streams(heard).items():
            try:
                copy = _parse_concat(chunks, bandwidth, max_bits)
            except DecodeError:
                continue
            key = (len(copy), copy.to_uint())
            counts = votes.setdefault(sender, {})
            counts[key] = counts.get(key, 0) + 1
    result: Dict[int, Bits] = {}
    for sender, counts in votes.items():
        best = max(counts.values())
        length, value = min(key for key, c in counts.items() if c == best)
        result[sender] = Bits(value, length)
    return result


# -- kernel form --------------------------------------------------------
#
# The kernel counterparts below declare the phase structure to a
# ``KernelBuilder`` (repro.core.kernels) so a whole transmit phase runs
# as one numpy scatter/gather per round with zero generator steps.  The
# sender set — the one input-dependent degree of freedom of the
# generator phases — becomes an explicit public parameter (``links`` /
# ``writers``), which is exactly the obliviousness contract the
# generator docstring above describes.  Equivalence suites pin the two
# forms byte-for-byte.


def _require_bandwidth(builder) -> int:
    if builder.bandwidth is None:
        raise ValueError(
            "phase kernels need a KernelBuilder with a declared bandwidth "
            "(the phase length depends on it)"
        )
    return builder.bandwidth


def _missed(missing, heard):
    """Accumulate the streams that lost a frame this round (``heard``
    is the round's presence per message, in structure order)."""
    return ~heard if missing is None else missing | ~heard


def kernel_transmit_unicast(builder, links, max_bits: int, get_payloads, set_result) -> None:
    """Append one unicast transmit phase to ``builder``.

    ``links`` is the public list of ``(src, dst)`` pairs that carry a
    payload.  At phase start ``get_payloads(state)`` must return one
    ``{(src, dst): Bits}`` map per instance (every declared link
    present, each payload at most ``max_bits`` bits); when the phase's
    frames have all been delivered, ``set_result(state, received)`` is
    called with ``received[k][v]`` the ``{src: Bits}`` dict node ``v``
    reassembled in instance ``k`` — the same value the generator
    :func:`transmit_unicast` returns.  A link that missed a frame (a
    dropped, delayed or crashed sender's) is left out, as
    :func:`_streams` leaves it out.
    """
    import numpy as np

    bandwidth = _require_bandwidth(builder)
    rounds = phase_length(max_bits, bandwidth)
    by_src: Dict[int, list] = {}
    for src, dst in links:
        by_src.setdefault(int(src), []).append(int(dst))
    pairs = sorted((src, dests) for src, dests in by_src.items())
    # Flat structure order: ascending sender, declared dest order.
    flat_links = [(src, dst) for src, dests in pairs for dst in dests]
    count = len(flat_links)
    is_object = bandwidth > 63
    key = builder.fresh_key("transmit_unicast")

    def start(state):
        payload_maps = get_payloads(state)
        instances = len(payload_maps)
        frames = np.empty(
            (rounds, instances, count),
            dtype=object if is_object else np.uint64,
        )
        for k, payloads in enumerate(payload_maps):
            for j, link in enumerate(flat_links):
                frames[:, k, j] = _frame_payload(
                    payloads[link], max_bits, rounds, bandwidth
                )
        state[key] = {"frames": frames, "got": [], "missing": None}

    builder.before(start)
    for r in range(rounds):

        def send(state, _r=r):
            return state[key]["frames"][_r]

        def recv(state, inbox):
            phase = state[key]
            phase["got"].append(inbox.gather())
            heard = inbox.present[inbox.rows, inbox.cols]
            if not heard.all():
                phase["missing"] = _missed(phase["missing"], heard)

        builder.unicast_round(pairs, bandwidth, send, recv)

    def done(state):
        phase = state.pop(key)
        # A phase lasts at least one round, so ``got`` is never empty;
        # streams[k][j] is link j's frame uints in instance k.
        streams = np.stack(phase["got"], axis=-1).tolist()
        missing = phase["missing"]
        received = [[dict() for _ in range(builder.n)] for _ in streams]
        for j, (src, dst) in enumerate(flat_links):
            if missing is not None and missing[j]:
                continue
            for k, frames in enumerate(streams):
                received[k][dst][src] = _parse_concat(frames[j], bandwidth, max_bits)
        set_result(state, received)

    builder.before(done)


def kernel_transmit_broadcast(builder, writers, max_bits: int, get_payloads, set_result) -> None:
    """Append one blackboard transmit phase to ``builder``.

    ``writers`` is the public list of broadcasting nodes.
    ``get_payloads(state)`` must return one ``{writer: Bits}`` map per
    instance; ``set_result(state, received)`` gets ``received[k][v]``
    as the ``{writer: Bits}`` dict node ``v`` hears (its own broadcast
    excluded, as on the engine) — the generator
    :func:`transmit_broadcast` return value.  A writer that missed a
    frame (dropped, delayed or crashed) is left out, as :func:`_streams`
    leaves it out.
    """
    import numpy as np

    bandwidth = _require_bandwidth(builder)
    rounds = phase_length(max_bits, bandwidth)
    writer_list = sorted(int(w) for w in writers)
    count = len(writer_list)
    is_object = bandwidth > 63
    key = builder.fresh_key("transmit_broadcast")

    def start(state):
        payload_maps = get_payloads(state)
        instances = len(payload_maps)
        frames = np.empty(
            (rounds, instances, count),
            dtype=object if is_object else np.uint64,
        )
        for k, payloads in enumerate(payload_maps):
            for j, writer in enumerate(writer_list):
                frames[:, k, j] = _frame_payload(
                    payloads[writer], max_bits, rounds, bandwidth
                )
        state[key] = {"frames": frames, "got": [], "missing": None}

    builder.before(start)
    for r in range(rounds):

        def send(state, _r=r):
            return state[key]["frames"][_r]

        def recv(state, inbox):
            phase = state[key]
            phase["got"].append(inbox.gather())
            heard = inbox.present[inbox.writers]
            if not heard.all():
                phase["missing"] = _missed(phase["missing"], heard)

        builder.broadcast_round(writer_list, bandwidth, send, recv)

    def done(state):
        phase = state.pop(key)
        # streams[k][j] is writer j's frame uints in instance k.
        streams = np.stack(phase["got"], axis=-1).tolist()
        missing = phase["missing"]
        complete = [
            (j, w) for j, w in enumerate(writer_list)
            if missing is None or not missing[j]
        ]
        payloads = {}
        for j, writer in complete:
            for k, frames in enumerate(streams):
                payloads[(k, writer)] = _parse_concat(frames[j], bandwidth, max_bits)
        received = [
            [
                {
                    w: payloads[(k, w)]
                    for _, w in complete
                    if w != v
                }
                for v in range(builder.n)
            ]
            for k in range(len(streams))
        ]
        set_result(state, received)

    builder.before(done)


def transmit_unicast_kernel_program(n: int, bandwidth: int, links, max_bits: int):
    """A complete kernel program executing one unicast transmit phase.

    The kernel twin of running the generator phase as a whole program:
    node ``v``'s input is its ``{dst: Bits}`` payload map (``None`` for
    no traffic — but the union of keys must equal the public ``links``),
    its output the ``{src: Bits}`` dict of reassembled payloads.
    """
    from repro.core.kernels import KernelBuilder
    from repro.core.network import Mode

    builder = KernelBuilder(n, Mode.UNICAST, bandwidth=bandwidth)

    def init(state, kctx):
        state["inputs"] = kctx.inputs_list

    builder.on_init(init)

    def get_payloads(state):
        maps = []
        for inputs in state["inputs"]:
            payloads = {}
            if inputs is not None:
                for src in range(n):
                    for dst, payload in (inputs[src] or {}).items():
                        payloads[(src, dst)] = payload
            maps.append(payloads)
        return maps

    def set_result(state, received):
        state["out"] = received

    kernel_transmit_unicast(builder, links, max_bits, get_payloads, set_result)
    return builder.build(
        lambda state, kctx: state["out"], name="transmit_unicast"
    )


def transmit_broadcast_kernel_program(n: int, bandwidth: int, writers, max_bits: int):
    """A complete kernel program executing one blackboard transmit
    phase: node ``v``'s input is its payload :class:`Bits` (nodes not in
    the public ``writers`` list pass ``None``), its output the
    ``{writer: Bits}`` dict it heard."""
    from repro.core.kernels import KernelBuilder
    from repro.core.network import Mode

    builder = KernelBuilder(n, Mode.BROADCAST, bandwidth=bandwidth)

    def init(state, kctx):
        state["inputs"] = kctx.inputs_list

    builder.on_init(init)

    def get_payloads(state):
        return [
            {w: inputs[w] for w in writers}
            for inputs in state["inputs"]
        ]

    def set_result(state, received):
        state["out"] = received

    kernel_transmit_broadcast(builder, writers, max_bits, get_payloads, set_result)
    return builder.build(
        lambda state, kctx: state["out"], name="transmit_broadcast"
    )
