"""The kernel-program layer: declared SPMD rounds vs the generator
engine, byte-for-byte."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.bits import Bits
from repro.core.errors import (
    BandwidthExceededError,
    MaxRoundsExceededError,
    ProtocolError,
    TopologyError,
)
from repro.core.fastlane import FixedWidthSchedule
from repro.core.kernels import KernelBuilder, pack_rows, unpack_rows
from repro.core.network import Mode, Network, Outbox


def result_tuple(result):
    return (
        result.rounds,
        result.total_bits,
        result.max_round_bits,
        result.outputs,
    )


def echo_sum_programs(n, width, rounds):
    """A generator/kernel twin pair: every node sends ``me*17+r`` to all
    others each round; output is the final round's received sum."""

    def gen_program(ctx):
        schedule = FixedWidthSchedule(width)
        me = ctx.node_id
        total = 0
        for r in range(rounds):
            inbox = yield schedule.outbox(
                list(ctx.neighbors),
                [(me * 17 + r) % (1 << width)] * (n - 1),
            )
            total = sum(value for _, value in inbox.uint_items())
        return total

    builder = KernelBuilder(n, Mode.UNICAST)
    pairs = [(v, [u for u in range(n) if u != v]) for v in range(n)]

    def init(state, kctx):
        state["total"] = np.zeros((kctx.instances, n), dtype=np.int64)

    builder.on_init(init)

    def make_send(r):
        def send(state):
            instances = state["total"].shape[0]
            flat = np.concatenate(
                [
                    np.full(n - 1, (v * 17 + r) % (1 << width), dtype=np.uint64)
                    for v in range(n)
                ]
            )
            return np.broadcast_to(flat, (instances, flat.size)).copy()

        return send

    def recv(state, inbox):
        got = inbox.gather().astype(np.int64)
        total = np.zeros_like(state["total"])
        for k in range(total.shape[0]):
            np.add.at(total[k], inbox.cols, got[k])
        state["total"] = total

    for r in range(rounds):
        builder.unicast_round(pairs, width, make_send(r), recv)

    def finish(state, kctx):
        return [
            [int(state["total"][k, v]) for v in range(n)]
            for k in range(kctx.instances)
        ]

    return gen_program, builder.build(finish, name="echo_sum")


class TestUnicastEquivalence:
    def test_matches_fast_and_legacy(self):
        n, width, rounds = 7, 12, 4
        gen_program, kernel_program = echo_sum_programs(n, width, rounds)
        expected = Network(n=n, bandwidth=width).run(gen_program)
        legacy = Network(n=n, bandwidth=width, engine="legacy").run(gen_program)
        got = Network(n=n, bandwidth=width).run(kernel_program)
        assert result_tuple(got) == result_tuple(expected)
        assert result_tuple(got) == result_tuple(legacy)

    def test_run_many_lockstep(self):
        n, width, rounds = 6, 8, 3
        gen_program, kernel_program = echo_sum_programs(n, width, rounds)
        expected = Network(n=n, bandwidth=width).run(gen_program)
        network = Network(n=n, bandwidth=width)
        results = network.run_many(kernel_program, [None] * 5)
        assert len(results) == 5
        for result in results:
            assert result_tuple(result) == result_tuple(expected)
        assert network.schedule_stats["compiled"] == 1
        assert network.schedule_stats["replayed"] == 4

    def test_kernel_on_legacy_network_still_runs(self):
        # The engine selector does not apply to kernel programs: the
        # kernel path IS the semantics, on either engine setting.
        n, width, rounds = 5, 8, 2
        gen_program, kernel_program = echo_sum_programs(n, width, rounds)
        expected = Network(n=n, bandwidth=width).run(gen_program)
        got = Network(n=n, bandwidth=width, engine="legacy").run(kernel_program)
        assert result_tuple(got) == result_tuple(expected)


class TestBroadcastEquivalence:
    def make_programs(self, n, width, rounds, writers):
        def gen_program(ctx):
            me = ctx.node_id
            heard = 0
            for r in range(rounds):
                outbox = (
                    Outbox.broadcast_uint((me * 5 + r) % (1 << width), width)
                    if me in writers
                    else Outbox.silent()
                )
                inbox = yield outbox
                heard = sum(value for _, value in inbox.uint_items())
            return heard

        builder = KernelBuilder(n, Mode.BROADCAST)

        def init(state, kctx):
            state["heard"] = np.zeros((kctx.instances, n), dtype=np.int64)

        builder.on_init(init)
        writer_arr = np.asarray(sorted(writers), dtype=np.intp)

        def make_send(r):
            def send(state):
                instances = state["heard"].shape[0]
                vals = (
                    (writer_arr.astype(np.uint64) * np.uint64(5) + np.uint64(r))
                    % np.uint64(1 << width)
                )
                return np.broadcast_to(vals, (instances, vals.size)).copy()

            return send

        def recv(state, inbox):
            got = inbox.gather().astype(np.int64)  # (K, writers)
            total = got.sum(axis=1)  # every node hears all writers...
            heard = total[:, None] - np.zeros((1, n), dtype=np.int64)
            # ...except itself (no echo): subtract own word where a
            # writer is also a receiver.
            for j, w in enumerate(writer_arr):
                heard[:, w] -= got[:, j]
            state["heard"] = heard

        for r in range(rounds):
            builder.broadcast_round(sorted(writers), width, make_send(r), recv)

        def finish(state, kctx):
            return [
                [int(state["heard"][k, v]) for v in range(n)]
                for k in range(kctx.instances)
            ]

        return gen_program, builder.build(finish, name="bcast_twin")

    def test_matches_generator(self):
        n, width, rounds = 8, 10, 3
        writers = {0, 2, 3, 6}
        gen_program, kernel_program = self.make_programs(
            n, width, rounds, writers
        )
        expected = Network(n=n, bandwidth=width, mode=Mode.BROADCAST).run(
            gen_program
        )
        got = Network(n=n, bandwidth=width, mode=Mode.BROADCAST).run(
            kernel_program
        )
        assert result_tuple(got) == result_tuple(expected)
        # blackboard accounting: width bits per writer per round
        assert got.total_bits == len(writers) * width * rounds


class TestValidation:
    def test_duplicate_destination_rejected(self):
        builder = KernelBuilder(4)
        with pytest.raises(ProtocolError, match="twice"):
            builder.unicast_round([(0, [1, 1])], 4, None)

    def test_self_send_rejected(self):
        builder = KernelBuilder(4)
        with pytest.raises(TopologyError, match="itself"):
            builder.unicast_round([(1, [1])], 4, None)

    def test_out_of_range_rejected(self):
        builder = KernelBuilder(4)
        with pytest.raises(TopologyError, match="out-of-range"):
            builder.unicast_round([(0, [4])], 4, None)

    def test_duplicate_sender_rejected(self):
        builder = KernelBuilder(4)
        with pytest.raises(ProtocolError, match="appears twice"):
            builder.unicast_round([(0, [1]), (0, [2])], 4, None)

    @pytest.mark.parametrize(
        "senders, counts, dests, error, match",
        [
            ([2, 1], [1, 1], [0, 0], ProtocolError, "ascending"),
            ([1, 1], [1, 1], [0, 2], ProtocolError, "node 1 appears twice"),
            ([0, 1], [1, 1], [2], ProtocolError, "counts total 2, 1 destinations"),
            ([0], [-1], [], ProtocolError, "1 message counts for 1 senders"),
            ([4], [1], [0], TopologyError, "sender out of range"),
            ([0, 1], [1, 1], [2, 1], TopologyError, "node 1 sent a message to itself"),
            ([0, 2], [1, 1], [1, 7], TopologyError, "node 2 sent to an out-of-range"),
            ([0, 1], [1, 2], [2, 3, 3], ProtocolError, "node 1 listed a destination twice"),
        ],
    )
    def test_csr_round_rejects_malformed_structure(self, senders, counts, dests, error, match):
        builder = KernelBuilder(4)
        with pytest.raises(error, match=match):
            builder.unicast_csr(senders, counts, dests, 4, None)

    def test_pairs_and_csr_declare_the_same_round(self):
        builder = KernelBuilder(4)
        builder.unicast_round([(3, [0]), (1, []), (0, [1, 2])], 4, None)
        builder.unicast_csr([0, 1, 3], [2, 0, 1], [1, 2, 0], 4, None)
        pairs_round, csr_round = builder.rounds
        for rnd in (pairs_round, csr_round):
            assert rnd.senders.tolist() == [0, 3]
            assert rnd.counts.tolist() == [2, 1]
            assert rnd.dests.tolist() == [1, 2, 0]
            assert not rnd.dests.flags.writeable

    def test_width_above_bandwidth_rejected_at_compile(self):
        builder = KernelBuilder(3)
        builder.unicast_round([(0, [1])], 9, lambda state: np.zeros((1, 1), dtype=np.uint64))
        program = builder.build(None)
        with pytest.raises(BandwidthExceededError):
            Network(n=3, bandwidth=8).run(program)

    def test_mode_mismatch_rejected(self):
        builder = KernelBuilder(3)
        builder.unicast_round([(0, [1])], 4, lambda state: np.zeros((1, 1), dtype=np.uint64))
        program = builder.build(None)
        with pytest.raises(ProtocolError, match="network is broadcast"):
            Network(n=3, bandwidth=4, mode=Mode.BROADCAST).run(program)

        builder = KernelBuilder(3, Mode.BROADCAST)
        builder.broadcast_round([0, 1], 4, lambda state: np.zeros((1, 2), dtype=np.uint64))
        program = builder.build(None)
        with pytest.raises(ProtocolError, match="network is unicast"):
            Network(n=3, bandwidth=4).run(program)

        # Even a round-free program must declare a compatible mode.
        program = KernelBuilder(3, Mode.BROADCAST).build(None)
        with pytest.raises(ProtocolError, match="declares broadcast"):
            Network(n=3, bandwidth=4).run(program)

    def test_congest_topology_enforced(self):
        ring = [[(v - 1) % 5, (v + 1) % 5] for v in range(5)]
        builder = KernelBuilder(5, Mode.CONGEST)
        builder.unicast_round(
            [(0, [2])], 4, lambda state: np.zeros((1, 1), dtype=np.uint64)
        )
        program = builder.build(None)
        with pytest.raises(TopologyError, match="non-neighbour"):
            Network(n=5, bandwidth=4, mode=Mode.CONGEST, topology=ring).run(
                program
            )

        builder = KernelBuilder(5, Mode.CONGEST)
        builder.unicast_round(
            [(0, [1, 4])], 4, lambda state: np.zeros((1, 2), dtype=np.uint64)
        )
        program = builder.build(
            lambda state, kctx: [[None] * 5 for _ in range(kctx.instances)]
        )
        result = Network(
            n=5, bandwidth=4, mode=Mode.CONGEST, topology=ring
        ).run(program)
        assert result.total_bits == 8

    def test_wrong_n_rejected(self):
        _gen, kernel_program = echo_sum_programs(4, 8, 1)
        with pytest.raises(ProtocolError, match="n=4"):
            Network(n=5, bandwidth=8).run(kernel_program)

    def test_declared_bandwidth_pinned(self):
        builder = KernelBuilder(3, bandwidth=8)
        builder.unicast_round(
            [(0, [1])], 4, lambda state: np.zeros((1, 1), dtype=np.uint64)
        )
        program = builder.build(None)
        with pytest.raises(ProtocolError, match="built for bandwidth"):
            Network(n=3, bandwidth=16).run(program)

    def test_payload_shape_checked(self):
        builder = KernelBuilder(3)
        builder.unicast_round(
            [(0, [1, 2])], 4, lambda state: np.zeros((1, 1), dtype=np.uint64)
        )
        program = builder.build(None)
        with pytest.raises(ProtocolError, match="shape"):
            Network(n=3, bandwidth=4).run(program)

    def test_payload_width_checked(self):
        builder = KernelBuilder(3)
        builder.unicast_round(
            [(0, [1])], 4, lambda state: np.full((1, 1), 16, dtype=np.uint64)
        )
        program = builder.build(None)
        with pytest.raises(ProtocolError, match="does not fit"):
            Network(n=3, bandwidth=4).run(program)

    def test_heterogeneous_widths_validated_per_message(self):
        builder = KernelBuilder(3)
        builder.unicast_round(
            [(0, [1, 2])],
            4,
            lambda state: np.asarray([[3, 2]], dtype=np.uint64),
            widths=[2, 1],
        )
        program = builder.build(None)
        with pytest.raises(ProtocolError, match="does not fit"):
            Network(n=3, bandwidth=4).run(program)

    def test_max_rounds_enforced(self):
        _gen, kernel_program = echo_sum_programs(4, 8, 5)
        with pytest.raises(MaxRoundsExceededError):
            Network(n=4, bandwidth=8, max_rounds=3).run(kernel_program)

    def test_unicast_program_allowed_on_congest(self):
        # CONGEST is unicast restricted to a topology: a unicast-built
        # program runs there, with its rounds topology-checked.
        ring = [[(v - 1) % 4, (v + 1) % 4] for v in range(4)]
        builder = KernelBuilder(4)  # Mode.UNICAST
        builder.unicast_round(
            [(0, [1])], 4, lambda state: np.zeros((1, 1), dtype=np.uint64)
        )
        program = builder.build(None)
        result = Network(
            n=4, bandwidth=4, mode=Mode.CONGEST, topology=ring
        ).run(program)
        assert result.rounds == 1

    def test_trailing_prologue_without_finish(self):
        # before() after the last round wraps into finish; with no
        # explicit finish the program must still yield default outputs.
        builder = KernelBuilder(3)
        builder.unicast_round(
            [(0, [1])], 4, lambda state: np.zeros((1, 1), dtype=np.uint64)
        )
        ran = []
        builder.before(lambda state: ran.append(True))
        program = builder.build()
        result = Network(n=3, bandwidth=4).run(program)
        assert ran == [True]
        assert result.outputs == [None, None, None]

    def test_empty_widths_round_compiles(self):
        # A dynamically empty message list with widths=[] must compile
        # as an empty round, not crash on max() of a zero-size array.
        builder = KernelBuilder(3)
        builder.unicast_round([], 4, lambda state: None, widths=[])
        program = builder.build(
            lambda state, kctx: [[None] * 3 for _ in range(kctx.instances)]
        )
        result = Network(n=3, bandwidth=8).run(program)
        assert result.rounds == 1 and result.total_bits == 0

    def test_numpy_free_core_import(self):
        # repro.core must stay importable without touching numpy; the
        # kernel exports load lazily on first attribute access.
        import subprocess
        import sys

        code = (
            "import sys, repro.core;"
            "assert 'numpy' not in sys.modules;"
            "from repro.core import KernelBuilder;"
            "assert 'numpy' in sys.modules"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=__file__.rsplit("/tests/", 1)[0],
        )
        assert proc.returncode == 0, proc.stderr


class TestCompiledInteraction:
    def test_schedule_cached_and_replayed(self):
        n, width = 5, 8
        _gen, kernel_program = echo_sum_programs(n, width, 2)
        network = Network(n=n, bandwidth=width)
        network.run(kernel_program)
        assert network.schedule_stats == {
            "compiled": 1,
            "replayed": 0,
            "fallbacks": 0,
        }
        network.run(kernel_program)
        network.run_many(kernel_program, [None, None])
        assert network.schedule_stats["compiled"] == 1
        assert network.schedule_stats["replayed"] == 3
        entry = network._compiled[kernel_program]
        assert entry.kernel is not None
        assert entry.replays == 3

    def test_bandwidth_reassignment_evicts(self):
        n = 5
        _gen, kernel_program = echo_sum_programs(n, 8, 2)
        network = Network(n=n, bandwidth=16)
        network.run(kernel_program)
        network.bandwidth = 8
        network.run(kernel_program)
        assert network.schedule_stats["compiled"] == 2
        network.bandwidth = 4
        with pytest.raises(BandwidthExceededError):
            network.run(kernel_program)

    def test_compiled_rounds_match_lane_shape(self):
        from repro.core.compiled import LANE

        n = 4
        _gen, kernel_program = echo_sum_programs(n, 8, 3)
        network = Network(n=n, bandwidth=8)
        network.run(kernel_program)
        entry = network._compiled[kernel_program]
        assert len(entry.rounds) == 3
        for kind, struct, bits in entry.rounds:
            assert kind == LANE
            assert struct.count == n * (n - 1)
            assert bits == struct.bits() == n * (n - 1) * 8


class TestZeroChurn:
    def test_frozen_payload_skips_rewrite(self):
        """A frozen array re-yielded for the same structure is delivered
        without re-validation or re-writing — and the results stay
        identical to a fresh-array run."""
        n, width, rounds = 6, 16, 8
        pairs = [(v, [u for u in range(n) if u != v]) for v in range(n)]

        def build(freeze):
            builder = KernelBuilder(n)

            def init(state, kctx):
                flat = np.concatenate(
                    [
                        np.full(n - 1, v * 3 + 1, dtype=np.uint64)
                        for v in range(n)
                    ]
                )
                vals = np.broadcast_to(flat, (kctx.instances, flat.size)).copy()
                if freeze:
                    vals.flags.writeable = False
                state["vals"] = vals
                state["seen"] = []

            builder.on_init(init)

            def send(state):
                return state["vals"]

            def recv(state, inbox):
                state["seen"].append(int(inbox.gather().sum()))

            for _ in range(rounds):
                builder.unicast_round(pairs, width, send, recv)

            def finish(state, kctx):
                return [
                    [state["seen"][-1]] * n for _ in range(kctx.instances)
                ]

            return builder.build(finish)

        frozen = Network(n=n, bandwidth=width).run(build(freeze=True))
        fresh = Network(n=n, bandwidth=width).run(build(freeze=False))
        assert result_tuple(frozen) == result_tuple(fresh)

    def test_broadcast_shapes_interned(self):
        # Repeated broadcast rounds of one shape must share one compiled
        # payload object — the identity the zero-churn skip keys on.
        n, width, rounds = 5, 8, 4
        builder = KernelBuilder(n, Mode.BROADCAST)

        def init(state, kctx):
            values = np.arange(n, dtype=np.uint64)[None, :].repeat(
                kctx.instances, axis=0
            )
            values.flags.writeable = False
            state["values"] = values

        builder.on_init(init)
        for _ in range(rounds):
            builder.broadcast_round(
                list(range(n)), width, lambda state: state["values"]
            )
        program = builder.build(
            lambda state, kctx: [[None] * n for _ in range(kctx.instances)]
        )
        network = Network(n=n, bandwidth=width, mode=Mode.BROADCAST)
        result = network.run(program)
        assert result.total_bits == n * width * rounds
        entry = network._compiled[program]
        assert len({id(payload) for _kind, payload, _bits in entry.rounds}) == 1


class TestTranscripts:
    def test_kernel_transcript_matches_generator(self):
        n, width, rounds = 5, 8, 3
        gen_program, kernel_program = echo_sum_programs(n, width, rounds)
        gnet = Network(n=n, bandwidth=width, record_transcript=True)
        knet = Network(n=n, bandwidth=width, record_transcript=True)
        expected = gnet.run(gen_program)
        got = knet.run(kernel_program)
        assert result_tuple(got) == result_tuple(expected)
        assert len(got.transcript) == rounds
        for ours, theirs in zip(got.transcript, expected.transcript):
            assert sorted(ours.sends) == sorted(theirs.sends)
            assert ours.bits() == theirs.bits()


class TestFuzzEquivalence:
    """Seeded random round structures, generator vs kernel twins."""

    def run_case(self, seed):
        rng = random.Random(seed)
        n = rng.randint(3, 9)
        rounds = rng.randint(1, 5)
        # Per round: a width (sometimes past the uint64 limit) and a
        # random sender->dests structure.
        plan = []
        for _ in range(rounds):
            width = rng.choice([1, 3, 8, 31, 63, 64, 90])
            structure = {}
            for v in range(n):
                others = [u for u in range(n) if u != v]
                rng.shuffle(others)
                count = rng.randint(0, n - 1)
                if count:
                    structure[v] = others[:count]
            values = {
                v: [rng.getrandbits(width) for _ in dests]
                for v, dests in structure.items()
            }
            plan.append((width, structure, values))
        bandwidth = max(width for width, _, _ in plan)

        def gen_program(ctx):
            me = ctx.node_id
            heard = []
            for width, structure, values in plan:
                dests = structure.get(me, [])
                outbox = (
                    Outbox.fixed_width(dests, values[me], width)
                    if dests
                    else Outbox.silent()
                )
                inbox = yield outbox
                heard.append(tuple(inbox.uint_items()))
            return heard

        builder = KernelBuilder(n)

        def init(state, kctx):
            state["heard"] = [[] for _ in range(n)]

        builder.on_init(init)
        for width, structure, values in plan:
            pairs = sorted(structure.items())
            flat_vals = [val for v, _ in pairs for val in values[v]]
            flat_links = [
                (v, dest) for v, dests in pairs for dest in dests
            ]

            def send(state, _vals=flat_vals, _width=width):
                if _width > 63:
                    out = np.empty((1, len(_vals)), dtype=object)
                    out[0] = _vals
                    return out
                return np.asarray([_vals], dtype=np.uint64)

            def recv(state, inbox, _links=flat_links):
                got = inbox.gather()[0]
                per_node = [[] for _ in range(n)]
                for (src, dst), value in zip(_links, got):
                    per_node[dst].append((src, int(value)))
                for v in range(n):
                    state["heard"][v].append(
                        tuple(sorted(per_node[v]))
                    )

            builder.unicast_round(pairs, width, send, recv)

        def finish(state, kctx):
            return [list(state["heard"])]

        kernel_program = builder.build(finish)
        for engine in ("fast", "legacy"):
            expected = Network(n=n, bandwidth=bandwidth, engine=engine).run(
                gen_program
            )
            got = Network(n=n, bandwidth=bandwidth, engine=engine).run(
                kernel_program
            )
            assert result_tuple(got) == result_tuple(expected), seed

    @pytest.mark.parametrize("seed", range(12))
    def test_fuzz(self, seed):
        self.run_case(seed)


class TestPackHelpers:
    @pytest.mark.parametrize("length", [0, 1, 7, 8, 9, 64, 65, 200])
    def test_pack_unpack_roundtrip(self, length):
        rng = np.random.default_rng(length)
        rows = rng.integers(0, 2, size=(5, length), dtype=np.uint8)
        packed = pack_rows(rows)
        for row, value in zip(rows, packed):
            assert Bits.from_bools(bool(x) for x in row).to_uint() == value
        assert (unpack_rows(packed, length) == rows).all()
