"""The phase/fragmentation layer: honest chunking into b-bit frames."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bits import Bits
from repro.core.errors import DecodeError
from repro.core.network import Mode, Outbox, run_protocol
from repro.core.phases import (
    _frame_payload,
    _parse_concat,
    header_width,
    idle,
    phase_length,
    transmit_broadcast,
    transmit_broadcast_redundant,
    transmit_unicast,
)


class TestPhaseLength:
    def test_small_payload_single_round(self):
        assert phase_length(3, 8) == 1

    def test_exact_multiples(self):
        # 10 payload bits + 4 header bits = 14 -> 2 rounds at b=7.
        assert phase_length(10, 7) == 2

    @given(
        st.integers(min_value=0, max_value=5000),
        st.integers(min_value=1, max_value=64),
    )
    def test_formula(self, max_bits, b):
        total = header_width(max_bits) + max_bits
        assert phase_length(max_bits, b) == -(-total // b)

    @given(st.integers(min_value=1, max_value=10**6))
    def test_header_fits_length(self, max_bits):
        assert max_bits < (1 << header_width(max_bits))


class TestBroadcastPhase:
    @pytest.mark.parametrize("bandwidth", [1, 2, 3, 8, 64])
    def test_roundtrip_all_to_all(self, bandwidth):
        payload_bits = 20

        def program(ctx):
            payload = Bits.from_uint(ctx.node_id * 7 + 3, payload_bits)
            got = yield from transmit_broadcast(ctx, payload, payload_bits)
            return {s: p.to_uint() for s, p in got.items()}

        result = run_protocol(
            program, n=4, bandwidth=bandwidth, mode=Mode.BROADCAST
        )
        assert result.rounds == phase_length(payload_bits, bandwidth)
        for v, got in enumerate(result.outputs):
            assert got == {u: u * 7 + 3 for u in range(4) if u != v}

    def test_variable_lengths_with_common_bound(self):
        def program(ctx):
            payload = Bits.from_uint(ctx.node_id, ctx.node_id + 1)
            got = yield from transmit_broadcast(ctx, payload, max_bits=8)
            return {s: (len(p), p.to_uint()) for s, p in got.items()}

        result = run_protocol(program, n=4, bandwidth=3, mode=Mode.BROADCAST)
        assert result.outputs[0] == {1: (2, 1), 2: (3, 2), 3: (4, 3)}

    def test_silent_nodes_receive(self):
        def program(ctx):
            payload = (
                Bits.from_uint(42, 8) if ctx.node_id == 0 else None
            )
            got = yield from transmit_broadcast(ctx, payload, max_bits=8)
            return sorted(got)

        result = run_protocol(program, n=3, bandwidth=4, mode=Mode.BROADCAST)
        assert result.outputs[1] == [0] and result.outputs[2] == [0]
        assert result.outputs[0] == []

    def test_payload_over_bound_rejected(self):
        def program(ctx):
            yield from transmit_broadcast(ctx, Bits.zeros(9), max_bits=8)

        with pytest.raises(ValueError):
            run_protocol(program, n=2, bandwidth=4, mode=Mode.BROADCAST)

    def test_empty_payload_distinct_from_silence(self):
        def program(ctx):
            payload = Bits.empty() if ctx.node_id == 0 else None
            got = yield from transmit_broadcast(ctx, payload, max_bits=4)
            return sorted(got)

        result = run_protocol(program, n=3, bandwidth=4, mode=Mode.BROADCAST)
        assert result.outputs[1] == [0]  # empty message still arrives


class TestUnicastPhase:
    @pytest.mark.parametrize("bandwidth", [1, 4, 16])
    def test_ring_roundtrip(self, bandwidth):
        def program(ctx):
            dest = (ctx.node_id + 1) % ctx.n
            payload = Bits.from_uint(ctx.node_id + 100, 12)
            got = yield from transmit_unicast(ctx, {dest: payload}, max_bits=12)
            return {s: p.to_uint() for s, p in got.items()}

        result = run_protocol(program, n=5, bandwidth=bandwidth)
        for v, got in enumerate(result.outputs):
            assert got == {(v - 1) % 5: (v - 1) % 5 + 100}

    def test_fan_in(self):
        def program(ctx):
            if ctx.node_id != 0:
                payloads = {0: Bits.from_uint(ctx.node_id, 6)}
            else:
                payloads = {}
            got = yield from transmit_unicast(ctx, payloads, max_bits=6)
            return {s: p.to_uint() for s, p in got.items()}

        result = run_protocol(program, n=4, bandwidth=2)
        assert result.outputs[0] == {1: 1, 2: 2, 3: 3}
        assert result.outputs[1] == {}

    @given(
        st.integers(min_value=1, max_value=8),
        st.lists(
            st.integers(min_value=0, max_value=255), min_size=2, max_size=5
        ),
    )
    def test_property_roundtrip(self, bandwidth, values):
        n = len(values)

        def program(ctx):
            payloads = {
                v: Bits.from_uint(values[ctx.node_id], 8)
                for v in range(n)
                if v != ctx.node_id
            }
            got = yield from transmit_unicast(ctx, payloads, max_bits=8)
            return {s: p.to_uint() for s, p in got.items()}

        result = run_protocol(program, n=n, bandwidth=bandwidth)
        for v in range(n):
            expected = {u: values[u] for u in range(n) if u != v}
            assert result.outputs[v] == expected


class TestIdle:
    def test_idle_consumes_rounds(self):
        def program(ctx):
            yield from idle(4)
            return "done"

        result = run_protocol(program, n=2, bandwidth=1)
        assert result.rounds == 4
        assert result.outputs == ["done", "done"]


# -- frame decode, checked against a bit-string reference ----------------


def reference_frames(payload: str, max_bits: int, bandwidth: int):
    """Frame a '0'/'1' payload the way the paper's phases do: a
    fixed-width length header, the payload, zero padding to whole
    frames; returns the frame values."""
    header = len(format(max_bits, "b"))
    stream = format(len(payload), f"0{header}b") + payload
    rounds = -(-(header + max_bits) // bandwidth)
    stream = stream.ljust(rounds * bandwidth, "0")
    return [
        int(stream[i : i + bandwidth], 2)
        for i in range(0, len(stream), bandwidth)
    ]


def reference_parse(frames, bandwidth: int, max_bits: int):
    """The payload string the frames carry, or None when the length
    header is truncated, exceeds ``max_bits`` or overruns the frames."""
    stream = "".join(format(frame, f"0{bandwidth}b") for frame in frames)
    header = len(format(max_bits, "b"))
    if len(stream) < header:
        return None
    length = int(stream[:header], 2)
    if length > max_bits or header + length > len(stream):
        return None
    return stream[header : header + length]


@st.composite
def framed_payloads(draw):
    bandwidth = draw(st.integers(min_value=1, max_value=64))
    max_bits = draw(st.integers(min_value=0, max_value=300))
    length = draw(st.integers(min_value=0, max_value=max_bits))
    payload = "".join(
        draw(st.lists(st.sampled_from("01"), min_size=length, max_size=length))
    )
    return payload, max_bits, bandwidth


@st.composite
def arbitrary_frames(draw):
    """Frame streams of any length whose values (headers included) are
    arbitrary: corrupted headers, truncated and over-long phases."""
    bandwidth = draw(st.integers(min_value=1, max_value=64))
    max_bits = draw(st.integers(min_value=0, max_value=300))
    rounds = phase_length(max_bits, bandwidth)
    count = draw(st.integers(min_value=0, max_value=rounds + 2))
    frames = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << bandwidth) - 1),
            min_size=count,
            max_size=count,
        )
    )
    return frames, bandwidth, max_bits


class TestParseConcat:
    @given(framed_payloads())
    def test_roundtrip_matches_reference(self, case):
        payload, max_bits, bandwidth = case
        frames = reference_frames(payload, max_bits, bandwidth)
        rounds = phase_length(max_bits, bandwidth)
        assert len(frames) == rounds
        assert _frame_payload(
            Bits.from_str(payload), max_bits, rounds, bandwidth
        ) == frames
        assert _parse_concat(frames, bandwidth, max_bits).to_str() == payload

    @given(arbitrary_frames())
    def test_rejects_exactly_what_the_reference_rejects(self, case):
        frames, bandwidth, max_bits = case
        expected = reference_parse(frames, bandwidth, max_bits)
        if expected is None:
            with pytest.raises(DecodeError):
                _parse_concat(frames, bandwidth, max_bits)
        else:
            got = _parse_concat(frames, bandwidth, max_bits)
            assert (len(got), got.to_str()) == (len(expected), expected)

    def test_over_length_header_rejected(self):
        # 5-bit header + 23 bits = 2 frames of 23 bits, so a header of
        # 31 still fits the 41 bits after it — but exceeds the bound.
        stream = (31 << 41) | 1
        frames = [stream >> 23, stream & ((1 << 23) - 1)]
        with pytest.raises(DecodeError, match="exceeds the phase bound"):
            _parse_concat(frames, 23, 23)
        ok = (23 << 41) | (1 << 18)
        assert len(_parse_concat([ok >> 23, ok & ((1 << 23) - 1)], 23, 23)) == 23

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            _parse_concat([1], 0, 4)
        with pytest.raises(ValueError):
            _parse_concat([4], 2, 4)
        with pytest.raises(ValueError):
            _parse_concat([-1], 2, 4)
        with pytest.raises(ValueError):
            _parse_concat([0], 2, -1)

    def test_redundant_broadcast_discards_over_length_copies(self):
        # Node 0 sends two identical copies whose length header (31)
        # exceeds max_bits=23 and one honest copy: the bad copies are
        # discarded, not allowed to win the vote.
        bandwidth = max_bits = 23
        rounds = phase_length(max_bits, bandwidth)
        honest = _frame_payload(Bits.from_uint(5, 3), max_bits, rounds, bandwidth)
        bad_stream = (31 << 41) | 7
        bad = [bad_stream >> 23, bad_stream & ((1 << 23) - 1)]

        def program(ctx):
            if ctx.node_id == 0:
                for frames in (bad, bad, honest):
                    for frame in frames:
                        yield Outbox.broadcast_uint(frame, bandwidth)
                return None
            got = yield from transmit_broadcast_redundant(
                ctx, None, max_bits, copies=3
            )
            return {s: (len(p), p.to_uint()) for s, p in got.items()}

        result = run_protocol(
            program, n=2, bandwidth=bandwidth, mode=Mode.BROADCAST
        )
        assert result.outputs[1] == {0: (3, 5)}
