"""Compiled round schedules: record a protocol's structure once, replay
it payload-only.

The paper's protocols are *oblivious*: which node sends how many bits to
whom in each round depends only on ``n`` and the protocol's public
parameters (a routing schedule, a phase length, a circuit plan) — never
on the inputs.  Yet every :meth:`~repro.core.network.Network.run`
re-classifies each round (lane vs. scalar), re-validates every
fixed-width outbox, and redoes the bit accounting for a structure that
is identical run after run.  Benchmarks and lower-bound experiments that
evaluate a protocol over many instances or seeds pay that cost per
trial.

This module supplies the compilation layer:

* :func:`mark_oblivious` declares a node program oblivious.  The first
  ``run`` of a marked program records a :class:`CompiledSchedule` (one
  :class:`LaneStructure` or broadcast/scalar stub per round, plus the
  bit totals), cached on the network keyed by the declaration.
* Subsequent runs **replay**: each round is checked against the compiled
  structure with a cheap structural comparison (same senders, widths,
  destination vectors) and delivered through precomputed flat index
  arrays — skipping outbox classification, ``validate_fixed``, and the
  accounting arithmetic.  A round that deviates structurally aborts the
  replay and the engine falls back to full execution (and re-records).
* :meth:`Network.run_many` executes K instances against one compiled
  schedule in lockstep, with stacked ``K×n`` payload matrices delivered
  per round through :class:`~repro.core.fastlane.BatchLane`.
* :class:`BatchRunner` sweeps an inputs list through ``run_many`` with
  optional process-pool fan-out.

A program may be declared oblivious only if its communication structure
is input-independent and it is free of side effects (a deviating replay
is re-executed from scratch).  Replay skips per-message validation; the
structural check still pins senders, widths and destination vectors to
the recorded (validated) schedule, so only programs whose *structure*
silently drifts between runs lose validation coverage — and those are
exactly the runs the deviation check demotes to full execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "OBLIVIOUS_ATTR",
    "OBLIVIOUS_INFO_ATTR",
    "SCHEDULE_DIGEST_ATTR",
    "ObliviousInfo",
    "mark_oblivious",
    "oblivious_key",
    "oblivious_info",
    "declare_schedule_digest",
    "schedule_digest_parts",
    "describe_program",
    "LaneStructure",
    "CompiledSchedule",
    "ScheduleRecorder",
    "BatchRunner",
    "LANE",
    "BCAST",
    "SCALAR",
]

#: Attribute set on a node program by :func:`mark_oblivious`.
OBLIVIOUS_ATTR = "__oblivious_key__"

#: Attribute holding the :class:`ObliviousInfo` for a marked program.
OBLIVIOUS_INFO_ATTR = "__oblivious_info__"

#: Attribute holding the *cross-process stable* digest parts declared
#: via :func:`declare_schedule_digest`.
SCHEDULE_DIGEST_ATTR = "__schedule_digest_parts__"


@dataclass(frozen=True)
class ObliviousInfo:
    """Introspectable identity of a program declared oblivious.

    Captured by :func:`mark_oblivious` at declaration time so the static
    analyzer (:mod:`repro.analysis`) and the replay-eviction path can
    name the exact program — its function name and declaring
    module/line — instead of a bare callable repr.
    """

    name: str
    module: str
    line: int

    def describe(self) -> str:
        return f"{self.name} ({self.module}:{self.line})"

# Round kinds in a compiled schedule.
LANE = 0    # homogeneous fixed-width unicast round (bulk lane)
BCAST = 1   # homogeneous fixed-width broadcast round
SCALAR = 2  # anything else: replayed through the ordinary scalar path


def mark_oblivious(program: Callable, *key_parts: Any) -> Callable:
    """Declare ``program``'s round structure input-independent.

    With no ``key_parts`` the schedule cache is keyed by the program
    object itself — reuse the same program object across runs to hit the
    cache.  Pass explicit parts (protocol name, ``id(plan)``, params) to
    share one compiled schedule across closures built from the same
    public data.  Keys are hints: a wrong key is caught by the per-round
    structural check and demoted to full execution, it cannot corrupt
    results.  Returns ``program`` for chaining.
    """
    setattr(program, OBLIVIOUS_ATTR, key_parts if key_parts else (program,))
    code = getattr(program, "__code__", None)
    setattr(
        program,
        OBLIVIOUS_INFO_ATTR,
        ObliviousInfo(
            name=getattr(program, "__qualname__", None)
            or getattr(program, "__name__", repr(program)),
            module=getattr(program, "__module__", None) or "<unknown>",
            line=code.co_firstlineno if code is not None else 0,
        ),
    )
    return program


def oblivious_key(program: Any) -> Optional[Tuple[Any, ...]]:
    """The cache key declared via :func:`mark_oblivious`, or ``None``."""
    return getattr(program, OBLIVIOUS_ATTR, None)


def oblivious_info(program: Any) -> Optional[ObliviousInfo]:
    """The :class:`ObliviousInfo` attached by :func:`mark_oblivious`, or
    ``None`` for undeclared programs."""
    return getattr(program, OBLIVIOUS_INFO_ATTR, None)


def declare_schedule_digest(program: Callable, *parts: Any) -> Callable:
    """Declare content-derived identity for the *persistent* schedule cache.

    The in-process replay cache (:func:`mark_oblivious`) may key on
    ``id(...)`` of public objects — cheap and correct within one
    process.  The on-disk cache
    (:mod:`repro.core.engine.schedule_cache`) is shared across pool
    workers, so its key must be stable across processes: ``parts`` must
    be derived from the program's *content* (schedule bytes, plan
    structure, parameters), never from object identity.  Programs
    without a declaration are simply not persisted — the in-memory path
    is unaffected.  Like the oblivious key, this is a hint: a stale or
    colliding digest is caught by the loader's key-description check and
    by the per-round replay comparison, so it can cost a re-record but
    never corrupt results.  Returns ``program`` for chaining.
    """
    setattr(program, SCHEDULE_DIGEST_ATTR, parts)
    return program


def schedule_digest_parts(program: Any) -> Optional[Tuple[Any, ...]]:
    """Parts declared via :func:`declare_schedule_digest`, or ``None``."""
    return getattr(program, SCHEDULE_DIGEST_ATTR, None)


def describe_program(program: Any) -> str:
    """A human-readable identity for ``program`` in diagnostics: the
    :class:`ObliviousInfo` description when the program was declared via
    :func:`mark_oblivious`, the function's qualified name and module
    otherwise, a plain repr as the last resort (kernel programs report
    their declared name)."""
    info = oblivious_info(program)
    if info is not None:
        return info.describe()
    if getattr(program, "is_kernel_program", False):
        return f"kernel program {getattr(program, 'name', '?')!r}"
    name = getattr(program, "__qualname__", None) or getattr(
        program, "__name__", None
    )
    if name is not None:
        module = getattr(program, "__module__", None) or "<unknown>"
        code = getattr(program, "__code__", None)
        line = f":{code.co_firstlineno}" if code is not None else ""
        return f"{name} ({module}{line})"
    return repr(program)


class LaneStructure:
    """One distinct bulk-round shape: who sends how much to whom.

    Built from ``(sender, dests-array)`` pairs in node order — the
    recorder derives them from a round's fixed-width outboxes — or
    from CSR arrays (:meth:`from_csr`), which is how the kernel layer
    (:mod:`repro.core.kernels`) declares them.
    Structures are deduplicated at record time (phases repeat one shape
    for many rounds), so replay can skip the receiver-presence rewrite
    whenever consecutive rounds share a structure, and memory stays
    proportional to the number of *distinct* shapes.

    ``widths`` is ``None`` for homogeneous rounds (every message is
    ``width`` bits — the only shape the outbox lane produces); kernel
    rounds may carry a flat per-message width vector instead, with
    ``width`` then the maximum (it selects the storage dtype).
    """

    __slots__ = (
        "width",
        "widths",
        "senders",
        "counts",
        "sender_ids",
        "rows",
        "cols",
        "count",
        "_entries",
        "_slices",
    )

    def __init__(
        self,
        width: int,
        pairs: Sequence[Tuple[int, Any]],
        widths: Any = None,
    ) -> None:
        # Deferred so importing repro.core stays numpy-free until a
        # schedule is actually recorded.
        import numpy as np

        pairs = list(pairs)
        dests_arrays = [dests for _, dests in pairs if dests.size]
        self._fill(
            width,
            np.asarray([v for v, _ in pairs], dtype=np.intp),
            np.asarray([dests.size for _, dests in pairs], dtype=np.intp),
            (
                np.concatenate(dests_arrays)
                if dests_arrays
                else np.empty(0, dtype=np.intp)
            ),
            widths,
        )

    @classmethod
    def from_csr(cls, width: int, senders: Any, counts: Any, cols: Any, widths: Any = None) -> "LaneStructure":
        """The structure of CSR arrays: ``senders[i]`` sends
        ``counts[i]`` messages, to the next ``counts[i]`` entries of
        ``cols``."""
        struct = cls.__new__(cls)
        struct._fill(width, senders, counts, cols, widths)
        return struct

    def _fill(self, width: int, senders: Any, counts: Any, cols: Any, widths: Any) -> None:
        import numpy as np

        self.width = width
        self.widths = widths
        self.senders = senders
        self.counts = counts
        self.sender_ids: List[int] = senders.tolist()
        self.cols = cols
        self.rows = np.repeat(senders, counts)
        self.count = int(cols.size)
        self._entries = None
        self._slices = None

    @property
    def entries(self) -> Tuple[Tuple[int, Any, int], ...]:
        """``(sender, dests, size)`` per sender, in node order."""
        if self._entries is None:
            import numpy as np

            sizes = self.counts.tolist()
            splits = np.split(self.cols, np.cumsum(self.counts)[:-1]) if sizes else []
            self._entries = tuple(zip(self.sender_ids, splits, sizes))
        return self._entries

    @property
    def slices(self) -> Tuple[Tuple[int, int], ...]:
        """Flat ``[start, stop)`` per entry, for filling stacked value
        rows."""
        if self._slices is None:
            slices = []
            offset = 0
            for size in self.counts.tolist():
                slices.append((offset, offset + size))
                offset += size
            self._slices = tuple(slices)
        return self._slices

    def bits(self) -> int:
        """Total bits one delivery of this structure costs."""
        if self.widths is None:
            return self.count * self.width
        return int(self.widths.sum())


class CompiledSchedule:
    """The recorded structure of one protocol execution.

    ``rounds[r]`` is ``(kind, payload, round_bits)`` with ``payload`` a
    :class:`LaneStructure` for :data:`LANE` rounds, ``(ids, width)`` for
    :data:`BCAST` rounds, and ``None`` for :data:`SCALAR` rounds.

    Kernel programs (:mod:`repro.core.kernels`) compile straight into
    this class — their declared structure *is* the schedule, no
    recording run needed — with ``kernel`` holding the per-round
    execution records the kernel runner consumes.
    """

    __slots__ = ("rounds", "replays", "params", "kernel")

    def __init__(self, rounds: List[Tuple[int, Any, int]]) -> None:
        self.rounds = rounds
        self.replays = 0
        # (bandwidth, mode) the schedule was validated under; the
        # network evicts the entry if either is reassigned afterwards.
        self.params: Any = None
        # Per-round kernel execution records when this schedule was
        # compiled from a KernelProgram (None for recorded schedules).
        self.kernel: Any = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kinds = {LANE: "lane", BCAST: "bcast", SCALAR: "scalar"}
        seq = [kinds[k] for k, _, _ in self.rounds[:8]]
        if len(self.rounds) > 8:
            seq.append("...")
        return (
            f"CompiledSchedule(rounds={len(self.rounds)}, "
            f"bits={sum(bits for _, _, bits in self.rounds)}, kinds={seq})"
        )


class ScheduleRecorder:
    """Accumulates a :class:`CompiledSchedule` during one full run."""

    __slots__ = ("_rounds", "_structs", "_last_lane")

    def __init__(self) -> None:
        self._rounds: List[Tuple[int, Any, int]] = []
        # Dedup key -> shared LaneStructure (phases repeat one shape).
        self._structs: Dict[Any, LaneStructure] = {}
        # (width, [(sender, outbox)], struct) of the previous lane
        # round: a round that re-yields the identical outbox objects
        # (the zero-churn pattern) reuses the structure without
        # recomputing the content key.  Strong refs, so object identity
        # cannot be counterfeited by allocator reuse.
        self._last_lane: Optional[Tuple[int, List[Tuple[int, Any]], LaneStructure]] = None

    def lane_round(self, fixed_list, width: int, bits: int) -> None:
        last = self._last_lane
        if (
            last is not None
            and last[0] == width
            and len(last[1]) == len(fixed_list)
            and all(
                v == pv and o is po
                for (v, o), (pv, po) in zip(fixed_list, last[1])
            )
        ):
            self._rounds.append((LANE, last[2], bits))
            return
        senders = tuple(v for v, _ in fixed_list)
        # Per-sender sizes are part of the identity: the same flattened
        # destination concatenation can arise from different splits.
        sizes = tuple(o.dests.size for _, o in fixed_list)
        cols_bytes = b"".join(
            o.dests.tobytes() for _, o in fixed_list if o.dests.size
        )
        key = (width, senders, sizes, cols_bytes)
        struct = self._structs.get(key)
        if struct is None:
            struct = self._structs[key] = LaneStructure(
                width, [(v, o.dests) for v, o in fixed_list]
            )
        self._last_lane = (width, list(fixed_list), struct)
        self._rounds.append((LANE, struct, bits))

    def bcast_round(self, bcast_list, width: int, bits: int) -> None:
        ids = tuple(v for v, _ in bcast_list)
        self._rounds.append((BCAST, (ids, width), bits))

    def scalar_round(self, bits: int) -> None:
        self._rounds.append((SCALAR, None, bits))

    def finish(self) -> CompiledSchedule:
        return CompiledSchedule(self._rounds)


def _batch_worker(network_factory, program_factory, chunk):
    """Process-pool worker: rebuild the network and program locally and
    run one chunk of instances (module-level so it pickles)."""
    network = network_factory()
    program = program_factory()
    return network.run_many(program, chunk)


class BatchRunner:
    """Sweep an inputs list through :meth:`Network.run_many`.

    ``network_factory`` and ``program_factory`` are zero-argument
    callables building a fresh network and node program; with
    ``processes > 0`` they must be picklable (module-level functions or
    ``functools.partial`` over picklable data) because each worker
    process rebuilds its own copies and replays its chunk against its
    own compiled schedule.  Results come back in input order, identical
    to sequential ``run`` calls.
    """

    __slots__ = ("network_factory", "program_factory", "processes")

    def __init__(
        self,
        network_factory: Callable[[], Any],
        program_factory: Callable[[], Callable],
        processes: int = 0,
    ) -> None:
        self.network_factory = network_factory
        self.program_factory = program_factory
        self.processes = processes

    def run(self, inputs_list: Sequence[Any]) -> List[Any]:
        inputs_list = list(inputs_list)
        if self.processes and len(inputs_list) > 1:
            return self._run_pool(inputs_list)
        return self._run_in_process(inputs_list)

    def _run_in_process(self, inputs_list: List[Any]) -> List[Any]:
        network = self.network_factory()
        program = self.program_factory()
        return network.run_many(program, inputs_list)

    def _run_pool(self, inputs_list: List[Any]) -> List[Any]:
        import pickle
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # Probe picklability up front so unpicklable factories (e.g.
        # closures) fall back cleanly without touching the pool, and
        # genuine protocol errors raised inside a worker can propagate
        # instead of being mistaken for serialization failures.
        try:
            pickle.dumps((self.network_factory, self.program_factory))
        except Exception:
            return self._run_in_process(inputs_list)
        workers = min(self.processes, len(inputs_list))
        chunk_size = -(-len(inputs_list) // workers)
        chunks = [
            inputs_list[i : i + chunk_size]
            for i in range(0, len(inputs_list), chunk_size)
        ]
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(
                        _batch_worker,
                        self.network_factory,
                        self.program_factory,
                        chunk,
                    )
                    for chunk in chunks
                ]
                parts = [f.result() for f in futures]
        except (pickle.PicklingError, BrokenProcessPool):
            # Unpicklable *results* or a crashed worker process: the
            # sweep still completes in-process.
            return self._run_in_process(inputs_list)
        return [result for part in parts for result in part]
