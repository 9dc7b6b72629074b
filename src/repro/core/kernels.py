"""Kernel programs: whole-network SPMD rounds with zero generator steps.

The generator API runs ``n`` Python coroutines in lockstep; even with
bulk delivery lanes and compiled replay, every round still pays ``n``
generator resumptions on the hot path.  The algebraic congested-clique
literature (Censor-Hillel et al.; Le Gall) instead treats a round as one
matrix operation over *all* nodes simultaneously — and an oblivious
protocol can be executed exactly that way.

A :class:`KernelProgram` is a declared sequence of *round kernels*.
Each round names its structure up front — which nodes send how many
bits to whom (:meth:`KernelBuilder.unicast_round`) or which nodes write
the blackboard (:meth:`KernelBuilder.broadcast_round`) — and supplies
two callbacks:

* ``send(state) -> values`` — one ``K × count`` array (instances ×
  messages, flat structure order) holding every node's payloads for the
  round: a single numpy expression replaces ``n`` generator resumptions,
  for all ``K`` instances of a :meth:`~repro.core.network.Network.run_many`
  sweep at once.
* ``recv(state, inbox)`` — consumes the delivered matrices
  (:class:`KernelUnicastInbox` / :class:`KernelBroadcastInbox`, thin
  views over the :class:`~repro.core.fastlane.BatchLane` /
  :class:`~repro.core.fastlane.BatchBroadcastLane` buffers).

``state`` is a plain dict the program threads through the run (per-node
data lives in arrays with a leading instance axis).  Because the round
structure is declared rather than observed, a kernel program is
*oblivious by construction*: it compiles directly into a
:class:`~repro.core.compiled.CompiledSchedule` — per-round
:class:`~repro.core.compiled.LaneStructure` index arrays, bit totals,
validation — without a recording run, and every execution replays that
schedule.  Round and bit accounting is byte-identical to the generator
engine's: equivalence suites pin the migrated protocols (transmit
phases, Lenzen routing, the Theorem 2 simulation, matmul triangle
detection) to their generator reference implementations.

Discipline
----------

The runner hands each ``recv`` the *global* delivered matrices — kernel
code is trusted to honour per-node visibility (read only entries
addressed to the node whose state it updates), exactly as generator
programs are trusted not to share Python state between nodes.  The
equivalence tests are the enforcement: a kernel that peeks at bits that
were never sent cannot stay byte-identical to its honest generator twin
under fuzzed inputs.  Inboxes are views over per-run buffers and are
only valid inside the ``recv`` call that receives them (copy what you
need); payload arrays returned by ``send`` are read by the engine once,
immediately — except that an array with ``writeable=False`` returned
for the *same round structure* as the previous round is assumed
unchanged and is neither re-validated nor re-written (the zero-churn
fast path; freeze constant payloads to opt in).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bits import Bits
from repro.core.compiled import BCAST, LANE, CompiledSchedule, LaneStructure
from repro.core.errors import (
    BandwidthExceededError,
    MaxRoundsExceededError,
    ProtocolError,
    RoundLimitExceeded,
    TopologyError,
)
from repro.core.fastlane import NUMERIC_WIDTH_LIMIT, BatchBroadcastLane, BatchLane
from repro.core.network import Mode, RoundRecord, RunResult

__all__ = [
    "KernelContext",
    "KernelUnicastInbox",
    "KernelBroadcastInbox",
    "UnicastRound",
    "BroadcastRound",
    "KernelProgram",
    "KernelBuilder",
    "compile_program",
    "rebuild_kernel_schedule",
    "execute",
    "pack_rows",
    "unpack_rows",
]


class KernelContext:
    """What a kernel program may know about the run besides its inputs.

    ``inputs_list[k][v]`` is node ``v``'s input in instance ``k`` (an
    entry of ``inputs_list`` may be ``None`` for an input-free
    instance).  :meth:`shared_rng` / :meth:`node_rng` return *fresh
    clones* of the engine's seed-derived streams, so every call starts
    from the same state the generator engine hands each node — draws
    made for one purpose never perturb another (mirroring the
    per-node-identical-streams contract of
    :class:`~repro.core.network.Context`).
    """

    __slots__ = (
        "n",
        "bandwidth",
        "mode",
        "instances",
        "inputs_list",
        "_private_states",
        "_shared_state",
    )

    def __init__(
        self,
        n: int,
        bandwidth: int,
        mode: Mode,
        inputs_list: Sequence[Any],
        private_states: Sequence[Any],
        shared_state: Any,
    ) -> None:
        self.n = n
        self.bandwidth = bandwidth
        self.mode = mode
        self.instances = len(inputs_list)
        self.inputs_list = inputs_list
        self._private_states = private_states
        self._shared_state = shared_state

    def shared_rng(self) -> random.Random:
        """A fresh clone of the public coin (identical on every call and
        in every instance, like each generator node's ``ctx.shared_rng``)."""
        rng = random.Random.__new__(random.Random)
        rng.setstate(self._shared_state)
        return rng

    def node_rng(self, v: int) -> random.Random:
        """A fresh clone of node ``v``'s private coin."""
        rng = random.Random.__new__(random.Random)
        rng.setstate(self._private_states[v])
        return rng


class KernelUnicastInbox:
    """One unicast round's delivered matrices, for all instances.

    ``values[k, s, d]`` is the payload node ``s`` sent node ``d`` in
    instance ``k`` (entries where ``present[s, d]`` is False are stale
    buffer contents — never read them); :meth:`gather` returns the flat
    ``K × count`` payload matrix in the round's structure order, the
    mirror of what ``send`` produced.
    """

    __slots__ = ("values", "present", "width", "widths", "rows", "cols")

    def __init__(self, values, present, width, widths, rows, cols) -> None:
        self.values = values
        self.present = present
        self.width = width
        self.widths = widths
        self.rows = rows
        self.cols = cols

    def gather(self) -> np.ndarray:
        """Delivered payloads as ``K × count`` in structure order."""
        return self.values[:, self.rows, self.cols]


class KernelBroadcastInbox:
    """One broadcast round's blackboard, for all instances.

    ``values[k, w]`` is writer ``w``'s blackboard word in instance ``k``
    (valid where ``present[w]``).  A broadcast is never echoed back to
    its writer: kernel code reading "everything node ``v`` heard" must
    skip ``values[:, v]`` itself, as the generator engine's
    :class:`~repro.core.fastlane.BroadcastInbox` does.
    """

    __slots__ = ("values", "present", "width", "writers")

    def __init__(self, values, present, width, writers) -> None:
        self.values = values
        self.present = present
        self.width = width
        self.writers = writers

    def gather(self) -> np.ndarray:
        """Delivered blackboard words as ``K × len(writers)`` in writer
        order."""
        return self.values[:, self.writers]


class UnicastRound:
    """Declared structure + kernels of one fixed-width unicast round.

    The structure is CSR: ``senders`` (ascending, each non-silent)
    sends ``counts[i]`` messages to the next ``counts[i]`` entries of
    ``dests`` — read-only ``intp`` arrays, in structure order."""

    __slots__ = ("senders", "counts", "dests", "width", "widths", "send", "recv")

    def __init__(self, senders, counts, dests, width, widths, send, recv) -> None:
        self.senders = senders
        self.counts = counts
        self.dests = dests
        self.width = width  # max width (selects storage dtype)
        self.widths = widths  # per-message widths, or None if uniform
        self.send = send
        self.recv = recv


class BroadcastRound:
    """Declared structure + kernels of one fixed-width broadcast round."""

    __slots__ = ("writers", "width", "send", "recv")

    def __init__(self, writers, width, send, recv) -> None:
        self.writers = writers  # np.intp array of writer ids, ascending
        self.width = width
        self.send = send
        self.recv = recv


class KernelProgram:
    """A fully declared SPMD protocol: init hooks, round specs, finish.

    Build with :class:`KernelBuilder`.  Pass instances directly to
    :meth:`~repro.core.network.Network.run` /
    :meth:`~repro.core.network.Network.run_many` — the engine dispatches
    on :attr:`is_kernel_program`.
    """

    is_kernel_program = True

    __slots__ = ("n", "mode", "bandwidth", "rounds", "init_hooks", "finish", "name")

    def __init__(self, n, mode, bandwidth, rounds, init_hooks, finish, name) -> None:
        self.n = n
        self.mode = mode
        self.bandwidth = bandwidth
        self.rounds = rounds
        self.init_hooks = init_hooks
        self.finish = finish
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KernelProgram({self.name!r}, n={self.n}, "
            f"rounds={len(self.rounds)})"
        )

    def declared_structure(self):
        """Per-round communication shape, read off the declarations
        without executing any send/recv callback.

        Returns a list with one entry per round: ``("unicast",
        message_count, max_width, total_bits)`` for a
        :class:`UnicastRound`, ``("broadcast", writer_count, width,
        total_bits)`` for a :class:`BroadcastRound`.  This is the static
        analyzer's entry point — kernel programs declare their entire
        structure up front, so obliviousness holds by construction and
        worst-case per-round bit counts are exact.
        """
        shapes = []
        for rnd in self.rounds:
            if isinstance(rnd, UnicastRound):
                count = int(rnd.dests.size)
                if rnd.widths is not None:
                    total = int(rnd.widths.sum())
                else:
                    total = count * rnd.width
                shapes.append(("unicast", count, rnd.width, total))
            else:
                writers = int(rnd.writers.size)
                shapes.append(("broadcast", writers, rnd.width, writers * rnd.width))
        return shapes


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


class KernelBuilder:
    """Accumulates the declared rounds of a :class:`KernelProgram`.

    Structural validation (self-sends, range, duplicate destinations)
    happens here, at declaration; network-dependent validation (mode,
    bandwidth, topology) happens once per network when the program is
    compiled.  ``on_init`` hooks run before round 0 with
    ``(state, kctx)``; ``before`` attaches a prologue to the *next*
    appended round's ``send`` (phase helpers use it to stage data at a
    phase boundary).  ``build(finish)`` seals the program; ``finish``
    receives ``(state, kctx)`` and must return per-instance per-node
    outputs (``outputs[k][v]``).
    """

    def __init__(
        self,
        n: int,
        mode: Mode = Mode.UNICAST,
        bandwidth: Optional[int] = None,
    ) -> None:
        if n < 1:
            raise ValueError("need at least one node")
        self.n = n
        self.mode = mode
        # Declared bandwidth: phase helpers need it to fix their round
        # counts at build time (generators read ctx.bandwidth instead).
        # When set, the program only compiles against a network with
        # exactly this bandwidth.
        self.bandwidth = bandwidth
        self.rounds: List[Any] = []
        self._init_hooks: List[Callable] = []
        self._prologues: List[Callable] = []
        self._keys = 0

    def fresh_key(self, prefix: str = "k") -> str:
        """A state-dict key unique within this program, for phase
        helpers that stash phase-local data."""
        self._keys += 1
        return f"{prefix}#{self._keys}"

    def on_init(self, hook: Callable) -> None:
        self._init_hooks.append(hook)

    def before(self, fn: Callable) -> None:
        """Run ``fn(state)`` just before the next appended round's
        ``send`` (once per execution)."""
        self._prologues.append(fn)

    def _wrap_send(self, send: Optional[Callable]) -> Optional[Callable]:
        if not self._prologues:
            return send
        prologues = tuple(self._prologues)
        self._prologues = []

        def wrapped(state, _prologues=prologues, _send=send):
            for fn in _prologues:
                fn(state)
            return _send(state) if _send is not None else None

        return wrapped

    def unicast_round(
        self,
        pairs: Sequence[Tuple[int, Sequence[int]]],
        width: int,
        send: Optional[Callable],
        recv: Optional[Callable] = None,
        widths: Optional[Sequence[int]] = None,
    ) -> None:
        """Declare one unicast round: ``pairs`` lists each non-silent
        sender with its destination vector (any order; normalized to
        ascending sender); all messages are ``width`` bits, or pass a
        flat per-message ``widths`` vector (structure order) for
        heterogeneous rounds.  The pairs become the CSR arrays of
        :meth:`unicast_csr`, which validates them."""
        pairs = sorted(
            ((int(sender), np.asarray(dests, dtype=np.intp).reshape(-1))
             for sender, dests in pairs),
            key=lambda pair: pair[0],
        )
        self.unicast_csr(
            [sender for sender, _ in pairs],
            [dests.size for _, dests in pairs],
            (
                np.concatenate([dests for _, dests in pairs])
                if pairs
                else np.empty(0, dtype=np.intp)
            ),
            width, send, recv, widths,
        )

    def unicast_csr(
        self,
        senders: Sequence[int],
        counts: Sequence[int],
        dests: Sequence[int],
        width: int,
        send: Optional[Callable],
        recv: Optional[Callable] = None,
        widths: Optional[Sequence[int]] = None,
    ) -> None:
        """Declare one unicast round in CSR form: ``senders`` ascending,
        sender ``senders[i]`` sending ``counts[i]`` messages to the next
        ``counts[i]`` entries of ``dests``.  Structure order is ``dests``
        order; ``width`` / ``widths`` as in :meth:`unicast_round`.

        One vectorized pass over all messages rejects a repeated or
        descending sender, a self-send, an out-of-range node and a
        destination listed twice by one sender; zero-count senders are
        dropped."""
        n = self.n
        senders = np.array(senders, dtype=np.intp).reshape(-1)
        counts = np.array(counts, dtype=np.intp).reshape(-1)
        dests = np.array(dests, dtype=np.intp).reshape(-1)
        if counts.size != senders.size or (counts.size and int(counts.min()) < 0):
            raise ProtocolError(
                f"{counts.size} message counts for {senders.size} senders"
            )
        if int(counts.sum()) != dests.size:
            raise ProtocolError(
                f"message counts total {int(counts.sum())}, "
                f"{dests.size} destinations given"
            )
        if senders.size > 1:
            step = np.diff(senders)
            if not (step > 0).all():
                i = int(np.flatnonzero(step <= 0)[0])
                if step[i] == 0:
                    raise ProtocolError(
                        f"node {senders[i]} appears twice in one kernel round"
                    )
                raise ProtocolError("kernel round senders must be ascending")
        if senders.size and (int(senders[0]) < 0 or int(senders[-1]) >= n):
            raise TopologyError("kernel round sender out of range")
        rows = np.repeat(senders, counts)
        bad = rows == dests
        if bad.any():
            raise TopologyError(
                f"node {rows[np.argmax(bad)]} sent a message to itself"
            )
        bad = (dests < 0) | (dests >= n)
        if bad.any():
            raise TopologyError(
                f"node {rows[np.argmax(bad)]} sent to an out-of-range destination"
            )
        if dests.size > 1:
            links = np.sort(rows * n + dests)
            bad = links[1:] == links[:-1]
            if bad.any():
                raise ProtocolError(
                    f"node {links[np.argmax(bad)] // n} listed a destination "
                    "twice in a kernel round"
                )
        if counts.size and not counts.all():
            senders = senders[counts > 0]
            counts = counts[counts > 0]
        count = dests.size
        widths_arr = None
        if widths is not None:
            widths_arr = np.asarray(widths, dtype=np.int64).reshape(-1).copy()
            if widths_arr.size != count:
                raise ProtocolError(
                    f"{widths_arr.size} widths for {count} messages"
                )
            if widths_arr.size == 0:
                # An empty round has no messages to width: treat like a
                # uniform declaration (width falls back to the param).
                widths_arr = None
            elif int(widths_arr.min()) < 1:
                raise ValueError("fixed-width messages need width >= 1 bit")
            elif int(widths_arr.max()) == int(widths_arr.min()):
                # Degenerate heterogeneous declaration: fold to uniform.
                width = int(widths_arr[0])
                widths_arr = None
            else:
                width = int(widths_arr.max())
                widths_arr.flags.writeable = False
        if width < 1:
            raise ValueError("fixed-width messages need width >= 1 bit")
        self.rounds.append(
            UnicastRound(
                _frozen(senders), _frozen(counts), _frozen(dests),
                width, widths_arr, self._wrap_send(send), recv,
            )
        )

    def broadcast_round(
        self,
        writers: Sequence[int],
        width: int,
        send: Optional[Callable],
        recv: Optional[Callable] = None,
    ) -> None:
        """Declare one blackboard round: every node in ``writers``
        writes exactly ``width`` bits."""
        if width < 1:
            raise ValueError("fixed-width messages need width >= 1 bit")
        arr = np.asarray(sorted(int(w) for w in writers), dtype=np.intp)
        if arr.size:
            if int(arr.min()) < 0 or int(arr.max()) >= self.n:
                raise TopologyError("broadcast writer out of range")
            if np.unique(arr).size != arr.size:
                raise ProtocolError("a writer appears twice in a kernel round")
        arr.flags.writeable = False
        self.rounds.append(
            BroadcastRound(arr, width, self._wrap_send(send), recv)
        )

    def build(
        self, finish: Optional[Callable] = None, name: str = "kernel"
    ) -> KernelProgram:
        if self._prologues:
            # Prologues declared after the last round run before finish.
            prologues = tuple(self._prologues)
            self._prologues = []
            inner = finish

            def finish(state, kctx, _prologues=prologues, _inner=inner):
                for fn in _prologues:
                    fn(state)
                return _inner(state, kctx) if _inner is not None else None

        return KernelProgram(
            self.n,
            self.mode,
            self.bandwidth,
            tuple(self.rounds),
            tuple(self._init_hooks),
            finish,
            name,
        )


class _ExecRound:
    """One compiled kernel round: everything the runner needs, flat."""

    __slots__ = (
        "kind",
        "spec",
        "struct",
        "writers",
        "width",
        "widths_u64",
        "count",
        "bits",
        "is_object",
    )

    def __init__(self, kind, spec, struct, writers, width, widths_u64, count, bits):
        self.kind = kind
        self.spec = spec
        self.struct = struct
        self.writers = writers
        self.width = width
        self.widths_u64 = widths_u64
        self.count = count
        self.bits = bits
        self.is_object = width > NUMERIC_WIDTH_LIMIT


def compile_program(program: KernelProgram, network) -> CompiledSchedule:
    """Validate ``program`` against ``network`` and build its
    :class:`~repro.core.compiled.CompiledSchedule` — declared structure
    in, recorded-schedule shape out, no recording run needed."""
    if program.n != network.n:
        raise ProtocolError(
            f"kernel program declares n={program.n}, network has n={network.n}"
        )
    if program.bandwidth is not None and program.bandwidth != network.bandwidth:
        raise ProtocolError(
            f"kernel program was built for bandwidth {program.bandwidth}, "
            f"network has bandwidth {network.bandwidth} (phase round counts "
            "are fixed at build time)"
        )
    if program.mode is not network.mode and not (
        # CONGEST is unicast restricted to a topology, so a program
        # declared for the unicast clique may run there (its rounds are
        # still checked against the topology below) — mirroring the
        # generator engine, which accepts unicast outboxes in CONGEST.
        program.mode is Mode.UNICAST
        and network.mode is Mode.CONGEST
    ):
        raise ProtocolError(
            f"kernel program declares {program.mode.value}, "
            f"network is {network.mode.value}"
        )
    mode = network.mode
    bandwidth = network.bandwidth
    allowed = getattr(network, "_allowed", None)
    adjacency = None
    rounds: List[Tuple[int, Any, int]] = []
    execs: List[_ExecRound] = []
    # Deduplicate identical round shapes into one shared identity
    # object per shape (a LaneStructure for unicast, an interned
    # (ids, width) tuple for broadcast), exactly as the recorder does
    # for generator programs: phases repeat one shape for many rounds,
    # and both the lane's presence-mask reuse and the zero-churn
    # payload skip key on shape *identity*.
    structs: Dict[Any, LaneStructure] = {}
    bcast_shapes: Dict[Any, Tuple] = {}
    for r, spec in enumerate(program.rounds):
        if isinstance(spec, UnicastRound):
            if mode is Mode.BROADCAST:
                raise ProtocolError(
                    f"kernel round {r} unicasts in a broadcast network"
                )
            if allowed is not None and spec.dests.size:
                if adjacency is None:
                    adjacency = np.zeros((network.n, network.n), dtype=bool)
                    for v, neighbours in enumerate(allowed):
                        adjacency[v, list(neighbours)] = True
                rows = np.repeat(spec.senders, spec.counts)
                bad = ~adjacency[rows, spec.dests]
                if bad.any():
                    j = int(np.argmax(bad))
                    raise TopologyError(
                        f"node {rows[j]} sent to non-neighbour "
                        f"{spec.dests[j]} in CONGEST"
                    )
            max_width = (
                spec.width if spec.widths is None else int(spec.widths.max())
            )
            if max_width > bandwidth:
                raise BandwidthExceededError(
                    f"kernel round {r} sends {max_width}-bit messages "
                    f"(bandwidth {bandwidth})"
                )
            key = (
                spec.width,
                spec.senders.tobytes(),
                spec.counts.tobytes(),
                spec.dests.tobytes(),
                None if spec.widths is None else spec.widths.tobytes(),
            )
            struct = structs.get(key)
            if struct is None:
                struct = structs[key] = LaneStructure.from_csr(
                    spec.width, spec.senders, spec.counts, spec.dests,
                    widths=spec.widths,
                )
            bits = struct.bits()
            widths_u64 = (
                None
                if spec.widths is None
                else spec.widths.astype(np.uint64)
            )
            rounds.append((LANE, struct, bits))
            execs.append(
                _ExecRound(
                    LANE, spec, struct, None, spec.width, widths_u64,
                    struct.count, bits,
                )
            )
        else:
            if mode is not Mode.BROADCAST:
                raise ProtocolError(
                    f"kernel round {r} broadcasts in a {mode.value} network"
                )
            if spec.width > bandwidth:
                raise BandwidthExceededError(
                    f"kernel round {r} broadcasts {spec.width} bits "
                    f"(bandwidth {bandwidth})"
                )
            ids = tuple(int(w) for w in spec.writers)
            shape = bcast_shapes.setdefault((ids, spec.width), (ids, spec.width))
            bits = len(ids) * spec.width
            rounds.append((BCAST, shape, bits))
            execs.append(
                _ExecRound(
                    BCAST, spec, shape, spec.writers, spec.width, None,
                    len(ids), bits,
                )
            )
    compiled = CompiledSchedule(rounds)
    compiled.params = (bandwidth, mode)
    compiled.kernel = execs
    return compiled


def rebuild_kernel_schedule(program: KernelProgram, network, loaded) -> Optional[CompiledSchedule]:
    """Pair a persistent-cache schedule with ``program``'s declared
    rounds, verifying before trusting.

    Kernel execution has no per-round replay comparison — it delivers
    whatever structures the compiled schedule holds — so a loaded
    entry must be proven equal to the program's declaration before it
    may replace :func:`compile_program`.  Every distinct loaded
    structure is compared byte-for-byte (senders, split sizes,
    destination vectors, widths) against the specs that reference it;
    a flat memcmp per shape, orders of magnitude cheaper than the
    per-message CONGEST topology walk a fresh compile pays (topology
    is part of the cache key, so a verified entry was validated
    against this exact graph).  Any mismatch returns ``None`` and the
    caller compiles fresh.
    """
    if program.n != network.n:
        return None
    if program.bandwidth is not None and program.bandwidth != network.bandwidth:
        return None
    if program.mode is not network.mode and not (
        program.mode is Mode.UNICAST and network.mode is Mode.CONGEST
    ):
        return None
    if loaded.params != (network.bandwidth, network.mode):
        return None
    if len(loaded.rounds) != len(program.rounds):
        return None
    execs: List[_ExecRound] = []
    verified: set = set()
    for spec, (kind, payload, bits) in zip(program.rounds, loaded.rounds):
        if isinstance(spec, UnicastRound):
            if kind != LANE:
                return None
            struct = payload
            pair_key = (id(struct), id(spec))
            if pair_key not in verified:
                if (
                    struct.width != spec.width
                    or not np.array_equal(struct.senders, spec.senders)
                    or not np.array_equal(struct.counts, spec.counts)
                    or not np.array_equal(struct.cols, spec.dests)
                ):
                    return None
                if (struct.widths is None) != (spec.widths is None):
                    return None
                if spec.widths is not None and not np.array_equal(
                    np.asarray(struct.widths), np.asarray(spec.widths)
                ):
                    return None
                verified.add(pair_key)
            widths_u64 = (
                None if spec.widths is None else spec.widths.astype(np.uint64)
            )
            execs.append(
                _ExecRound(
                    LANE, spec, struct, None, spec.width, widths_u64,
                    struct.count, bits,
                )
            )
        else:
            if kind != BCAST:
                return None
            ids, width = payload
            if width != spec.width or ids != tuple(int(w) for w in spec.writers):
                return None
            execs.append(
                _ExecRound(
                    BCAST, spec, payload, spec.writers, spec.width, None,
                    len(ids), bits,
                )
            )
    loaded.kernel = execs
    return loaded


def _lane_alloc(network):
    """The network's zero-copy lane allocator hook, or None (heap)."""
    arena = getattr(network, "lane_allocator", None)
    return None if arena is None else arena.zeros


def _coerce_payload(vals, rec: _ExecRound, instances: int, r: int) -> np.ndarray:
    if rec.is_object:
        if not (isinstance(vals, np.ndarray) and vals.dtype == object):
            arr = np.empty((instances, rec.count), dtype=object)
            try:
                arr[...] = vals
            except (TypeError, ValueError) as exc:
                raise ProtocolError(
                    f"kernel round {r} produced a malformed payload: {exc}"
                ) from exc
            vals = arr
    else:
        vals = np.asarray(vals, dtype=np.uint64)
    if vals.shape != (instances, rec.count):
        raise ProtocolError(
            f"kernel round {r} produced payload shape {vals.shape}, "
            f"expected {(instances, rec.count)}"
        )
    return vals


def _validate_payload(vals: np.ndarray, rec: _ExecRound, r: int) -> None:
    if rec.is_object:
        widths = rec.spec.widths if rec.kind == LANE else None
        if widths is None:
            w = rec.width
            bad = any(v < 0 or (v >> w) for row in vals for v in row)
        else:
            bad = any(
                v < 0 or (v >> int(w))
                for row in vals
                for v, w in zip(row, widths)
            )
    elif rec.widths_u64 is None:
        bad = bool((vals >> np.uint64(rec.width)).any())
    else:
        bad = bool((vals >> rec.widths_u64).any())
    if bad:
        raise ProtocolError(
            f"kernel round {r} produced a value that does not fit its "
            f"declared width"
        )


def _kernel_snapshot(
    state: Dict[str, Any],
    transcripts,
    program_name: str,
    rounds_total: int,
    instances: int,
    counters: Dict[str, int],
):
    """Split the kernel ``state`` dict into a checkpoint payload:
    numeric ndarrays go into the npz verbatim (with their frozen flags
    recorded — the zero-churn memo relies on them), everything else is
    pickled.  Returns the ``(arrays, blobs, counters, meta)`` tuple a
    :class:`~repro.core.checkpoint.CheckpointSession` flushes."""
    import pickle

    arrays: Dict[str, np.ndarray] = {}
    rest: Dict[str, Any] = {}
    frozen: List[str] = []
    for key, value in state.items():
        if isinstance(value, np.ndarray) and value.dtype != object:
            arrays[f"state__{key}"] = value
            if not value.flags.writeable:
                frozen.append(key)
        else:
            rest[key] = value
    blobs = {"state_pickle": pickle.dumps(rest)}
    if transcripts is not None:
        blobs["transcripts"] = pickle.dumps(transcripts)
    meta = {
        "kind": "kernel-rounds",
        "schedule": program_name,
        "rounds_total": rounds_total,
        "instances": instances,
        "frozen": frozen,
    }
    return arrays, blobs, counters, meta


def _kernel_restore(ckpt, rounds_total: int, instances: int, recording: bool):
    """Decode a kernel round checkpoint into ``(start_round, state,
    counters, transcripts)``; raises ``ValueError`` when the snapshot
    does not describe this execution (the caller discards it and
    restarts cleanly)."""
    import pickle

    meta = ckpt.meta
    if meta.get("kind") != "kernel-rounds":
        raise ValueError(f"snapshot kind {meta.get('kind')!r} is not a "
                         "kernel round boundary")
    if meta.get("instances") != instances:
        raise ValueError(
            f"snapshot stacks {meta.get('instances')} instances, "
            f"this execution has {instances}"
        )
    if meta.get("rounds_total") != rounds_total or not (
        0 < ckpt.round_index <= rounds_total
    ):
        raise ValueError(
            f"snapshot round {ckpt.round_index}/{meta.get('rounds_total')} "
            f"does not fit a {rounds_total}-round program"
        )
    state: Dict[str, Any] = dict(pickle.loads(ckpt.blobs["state_pickle"]))
    frozen = set(meta.get("frozen", ()))
    for name, arr in ckpt.arrays.items():
        if not name.startswith("state__"):
            continue
        key = name[len("state__"):]
        value = np.array(arr)
        if key in frozen:
            value.flags.writeable = False
        state[key] = value
    counters = {
        "total_bits": int(ckpt.counters["total_bits"]),
        "max_round_bits": int(ckpt.counters["max_round_bits"]),
    }
    transcripts = None
    if recording:
        transcripts = pickle.loads(ckpt.blobs["transcripts"])
    return ckpt.round_index, state, counters, transcripts


def execute(
    network,
    program: KernelProgram,
    compiled: CompiledSchedule,
    inputs_list: Sequence[Any],
    session=None,
) -> List[RunResult]:
    """Run ``inputs_list`` (K instances) through the compiled kernel
    rounds in lockstep; returns one :class:`RunResult` per instance.

    ``session`` is an optional
    :class:`~repro.core.checkpoint.CheckpointSession`: the loop then
    snapshots the state dict at round boundaries per the session's
    policy and resumes from the session's payload — the first
    post-restore round takes the full validate-and-deliver path (the
    zero-churn memos reset naturally), every restored round is simply
    never re-executed."""
    execs: List[_ExecRound] = compiled.kernel
    if len(execs) > network._round_cap():
        limit = network.round_limit
        if limit is not None and len(execs) > limit:
            raise RoundLimitExceeded(
                f"kernel program declares {len(execs)} rounds "
                f"(round_limit {limit})"
            )
        raise MaxRoundsExceededError(
            f"kernel program declares {len(execs)} rounds "
            f"(max_rounds {network.max_rounds})"
        )
    n = network.n
    instances = len(inputs_list)
    faults = network._fault_session()
    _seed, private_states, shared_state = network._rng_state_bundle()
    kctx = KernelContext(
        n, network.bandwidth, network.mode, inputs_list,
        private_states, shared_state,
    )
    state: Dict[str, Any] = {}
    for hook in program.init_hooks:
        hook(state, kctx)

    lanes = network._kernel_lanes.get(instances)
    if lanes is None:
        if len(network._kernel_lanes) >= 4:
            network._kernel_lanes.clear()
        lanes = network._kernel_lanes[instances] = [None, None]
    recording = network.record_transcript
    transcripts: Optional[List[List[RoundRecord]]] = (
        [[] for _ in range(instances)] if recording else None
    )

    total_bits = 0
    max_round_bits = 0
    start_round = 0
    rounds_total = len(execs)
    if session is not None:
        session.raise_if_preempted_at_start()
        ckpt = session.resume_checkpoint()
        if ckpt is not None:
            try:
                start_round, restored_state, counters, restored_tx = (
                    _kernel_restore(ckpt, rounds_total, instances, recording)
                )
            except Exception as exc:  # noqa: BLE001 - unusable snapshot
                session.discard_resume(
                    "restore-failed", f"snapshot unusable: {exc}"
                )
                start_round = 0
            else:
                # The snapshot captured the *whole* state dict, so it
                # replaces the init hooks' output wholesale — resumed
                # state is exactly the pre-preemption state.
                state.clear()
                state.update(restored_state)
                total_bits = counters["total_bits"]
                max_round_bits = counters["max_round_bits"]
                if recording:
                    transcripts = restored_tx
                session.mark_resumed(start_round)
    last_lane: Tuple[Any, Any] = (None, None)
    last_bcast: Tuple[Any, Any] = (None, None)
    for r in range(start_round, rounds_total):
        rec = execs[r]
        spec = rec.spec
        vals = spec.send(state) if spec.send is not None else None
        if rec.kind == LANE:
            lane = lanes[0]
            if lane is None:
                lane = lanes[0] = BatchLane(
                    n, instances, alloc=_lane_alloc(network)
                )
            struct = rec.struct
            if rec.count == 0:
                lane.deliver_kernel(struct, None)
                arr = None
            elif (
                vals is not None
                and last_lane[0] is struct
                and last_lane[1] is vals
                and not recording
            ):
                # Zero-churn: the exact (frozen) payload array of the
                # previous delivery of this structure — already
                # validated, already in the buffer.
                lane.deliver_kernel(struct, None)
                arr = vals
            else:
                if vals is None:
                    raise ProtocolError(
                        f"kernel round {r} produced no payloads for "
                        f"{rec.count} declared messages"
                    )
                arr = _coerce_payload(vals, rec, instances, r)
                _validate_payload(arr, rec, r)
                lane.deliver_kernel(struct, arr)
                last_lane = (
                    (struct, vals)
                    if isinstance(vals, np.ndarray) and not vals.flags.writeable
                    else (None, None)
                )
            values, present = lane.delivered()
            if faults is not None:
                # Chaos runs read fault-adjusted *copies*; the lane's
                # live buffers (incrementally maintained, shared across
                # rounds) must never see a mutation.
                values, present = faults.apply_kernel_unicast(
                    r + 1, values, present, struct.rows, struct.cols,
                    rec.width, spec.widths,
                )
            inbox: Any = KernelUnicastInbox(
                values, present, rec.width, spec.widths,
                struct.rows, struct.cols,
            )
            if recording and rec.count:
                rows, cols = struct.rows, struct.cols
                widths = spec.widths
                for k in range(instances):
                    record = RoundRecord()
                    row_vals = arr[k]
                    for j in range(rec.count):
                        w = rec.width if widths is None else int(widths[j])
                        record.sends.append(
                            (
                                int(rows[j]),
                                int(cols[j]),
                                Bits(int(row_vals[j]), w),
                            )
                        )
                    transcripts[k].append(record)
            elif recording:
                for k in range(instances):
                    transcripts[k].append(RoundRecord())
        else:
            blane = lanes[1]
            if blane is None:
                blane = lanes[1] = BatchBroadcastLane(
                    n, instances, alloc=_lane_alloc(network)
                )
            writers = rec.writers
            if rec.count == 0:
                blane.deliver_kernel(writers, rec.width, None)
                arr = None
            elif (
                vals is not None
                and last_bcast[0] is rec.struct
                and last_bcast[1] is vals
                and not recording
            ):
                blane.deliver_kernel(writers, rec.width, None)
                arr = vals
            else:
                if vals is None:
                    raise ProtocolError(
                        f"kernel round {r} produced no payloads for "
                        f"{rec.count} declared writers"
                    )
                arr = _coerce_payload(vals, rec, instances, r)
                _validate_payload(arr, rec, r)
                blane.deliver_kernel(writers, rec.width, arr)
                last_bcast = (
                    (rec.struct, vals)
                    if isinstance(vals, np.ndarray) and not vals.flags.writeable
                    else (None, None)
                )
            values, present = blane.delivered()
            if faults is not None:
                values, present = faults.apply_kernel_broadcast(
                    r + 1, values, present, writers, rec.width
                )
            inbox = KernelBroadcastInbox(values, present, rec.width, writers)
            if recording:
                for k in range(instances):
                    record = RoundRecord()
                    if rec.count:
                        row_vals = arr[k]
                        for j, w in enumerate(writers):
                            record.sends.append(
                                (int(w), None, Bits(int(row_vals[j]), rec.width))
                            )
                    transcripts[k].append(record)
        if spec.recv is not None:
            spec.recv(state, inbox)
        total_bits += rec.bits
        if rec.bits > max_round_bits:
            max_round_bits = rec.bits
        if session is not None:
            session.note_round()
            done = r + 1

            def build(done=done, bits=total_bits, maxb=max_round_bits):
                return _kernel_snapshot(
                    state,
                    transcripts,
                    getattr(program, "name", "?"),
                    rounds_total,
                    instances,
                    {
                        "round": done,
                        "total_bits": bits,
                        "max_round_bits": maxb,
                    },
                )

            session.maybe_snapshot(
                done, build, final_round=done == rounds_total
            )

    outputs_list = (
        program.finish(state, kctx) if program.finish is not None else None
    )
    if outputs_list is None:
        # No finish, or a finish wrapper around trailing prologues only:
        # every node outputs None, like a generator returning nothing.
        outputs_list = [[None] * n for _ in range(instances)]
    if len(outputs_list) != instances:
        raise ProtocolError(
            f"kernel finish returned {len(outputs_list)} instances, "
            f"expected {instances}"
        )
    results = []
    for k in range(instances):
        outputs = list(outputs_list[k])
        if len(outputs) != n:
            raise ProtocolError(
                f"kernel finish returned {len(outputs)} outputs for "
                f"{n} nodes"
            )
        results.append(
            RunResult(
                outputs=outputs,
                rounds=len(execs),
                total_bits=total_bits,
                max_round_bits=max_round_bits,
                transcript=transcripts[k] if recording else None,
                # One stacked delivery serves every instance, so the
                # injected schedule is shared verbatim across them.
                faults=faults.events if faults is not None else None,
            )
        )
    return results


# -- payload packing helpers --------------------------------------------


def pack_rows(rows: np.ndarray) -> List[int]:
    """Each row of a ``K × L`` 0/1 array as one Python int, first column
    most significant — the bulk counterpart of
    ``Bits.from_bools(row).to_uint()`` used to build routed payloads."""
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ValueError("pack_rows needs a 2-D array")
    k, length = rows.shape
    if length == 0:
        return [0] * k
    packed = np.packbits(rows.astype(np.uint8, copy=False), axis=1)
    pad = (-length) % 8
    stride = packed.shape[1]
    data = packed.tobytes()
    return [
        int.from_bytes(data[i * stride : (i + 1) * stride], "big") >> pad
        for i in range(k)
    ]


def unpack_rows(values: Sequence[int], length: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`: ``K`` ints of ``length`` bits each
    back into a ``K × length`` 0/1 ``uint8`` array."""
    k = len(values)
    if length == 0:
        return np.zeros((k, 0), dtype=np.uint8)
    pad = (-length) % 8
    nbytes = (length + 7) // 8
    data = b"".join(
        (int(v) << pad).to_bytes(nbytes, "big") for v in values
    )
    arr = np.frombuffer(data, dtype=np.uint8).reshape(k, nbytes)
    return np.unpackbits(arr, axis=1)[:, :length]
