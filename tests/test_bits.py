"""Unit and property tests for the Bits substrate."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.bits import BitReader, Bits, BitWriter, gamma_length
from repro.core.errors import DecodeError

bits_strategy = st.builds(
    lambda bools: Bits.from_bools(bools),
    st.lists(st.booleans(), max_size=200),
)


class TestConstruction:
    def test_empty(self):
        assert len(Bits.empty()) == 0
        assert not Bits.empty()

    def test_from_uint_roundtrip(self):
        assert Bits.from_uint(13, 4).to_uint() == 13

    def test_from_uint_width_enforced(self):
        with pytest.raises(ValueError):
            Bits.from_uint(16, 4)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Bits.from_uint(-1, 4)

    def test_from_str(self):
        assert Bits.from_str("1011").to_uint() == 11
        assert len(Bits.from_str("")) == 0
        with pytest.raises(ValueError):
            Bits.from_str("10x1")

    def test_from_bools_order(self):
        # First bool is the first (most significant) bit.
        assert Bits.from_bools([True, False, False]).to_uint() == 4

    def test_zeros(self):
        z = Bits.zeros(7)
        assert len(z) == 7 and z.to_uint() == 0


class TestSequence:
    def test_indexing_msb_first(self):
        b = Bits.from_str("1010")
        assert [b[i] for i in range(4)] == [1, 0, 1, 0]
        assert b[-1] == 0 and b[-2] == 1

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            Bits.from_str("101")[3]

    def test_iteration_matches_str(self):
        b = Bits.from_str("110010")
        assert "".join(str(x) for x in b) == "110010"

    def test_slice(self):
        b = Bits.from_str("110010")
        assert b[1:4] == Bits.from_str("100")
        assert b[4:] == Bits.from_str("10")
        assert b[3:3] == Bits.empty()

    def test_concat_operator(self):
        assert Bits.from_str("10") + Bits.from_str("011") == Bits.from_str("10011")

    def test_chunks(self):
        b = Bits.from_str("1100101")
        assert b.chunks(3) == [
            Bits.from_str("110"),
            Bits.from_str("010"),
            Bits.from_str("1"),
        ]

    def test_pad_to(self):
        assert Bits.from_str("11").pad_to(4) == Bits.from_str("1100")
        with pytest.raises(ValueError):
            Bits.from_str("111").pad_to(2)

    def test_popcount(self):
        assert Bits.from_str("101101").popcount() == 4


class TestProperties:
    @given(bits_strategy)
    def test_str_roundtrip(self, b):
        assert Bits.from_str(b.to_str()) == b

    @given(bits_strategy, bits_strategy)
    def test_concat_lengths(self, x, y):
        joined = x + y
        assert len(joined) == len(x) + len(y)
        assert joined[: len(x)] == x
        assert joined[len(x) :] == y

    @given(bits_strategy, st.integers(min_value=1, max_value=17))
    def test_chunks_reassemble(self, b, size):
        assert Bits.concat(b.chunks(size)) == b

    @given(st.lists(st.booleans(), max_size=64))
    def test_iter_matches_bools(self, flags):
        assert [bool(x) for x in Bits.from_bools(flags)] == flags

    @given(bits_strategy)
    def test_hash_eq_consistency(self, b):
        clone = Bits.from_str(b.to_str())
        assert clone == b and hash(clone) == hash(b)


class TestWriterReader:
    def test_uint_roundtrip(self):
        w = BitWriter()
        w.write_uint(3, 2).write_uint(0, 5).write_uint(255, 8)
        r = BitReader(w.getvalue())
        assert (r.read_uint(2), r.read_uint(5), r.read_uint(8)) == (3, 0, 255)
        assert r.remaining == 0

    def test_gamma_roundtrip_small(self):
        for x in range(0, 300):
            w = BitWriter()
            w.write_gamma(x)
            assert len(w) == gamma_length(x)
            assert BitReader(w.getvalue()).read_gamma() == x

    @given(st.lists(st.integers(min_value=0, max_value=10**9), max_size=30))
    def test_gamma_stream(self, values):
        w = BitWriter()
        for x in values:
            w.write_gamma(x)
        r = BitReader(w.getvalue())
        assert [r.read_gamma() for _ in values] == values
        assert r.remaining == 0

    def test_read_past_end(self):
        r = BitReader(Bits.from_str("101"))
        r.read_uint(3)
        with pytest.raises(DecodeError):
            r.read_bit()

    def test_write_bits_mixed(self):
        w = BitWriter()
        w.write_bit(1).write_bits(Bits.from_str("001")).write_uint(2, 3)
        assert w.getvalue() == Bits.from_str("1001010")

    def test_read_bits(self):
        r = BitReader(Bits.from_str("110011"))
        assert r.read_bits(4) == Bits.from_str("1100")
        assert r.position == 4


class TestUintChunks:
    """The bulk to_uint_chunks fast path mirrors the per-chunk Bits
    slicing it replaces."""

    @given(bits_strategy, st.integers(min_value=1, max_value=40))
    def test_matches_chunks(self, bits, width):
        assert bits.to_uint_chunks(width) == [
            chunk.to_uint() for chunk in bits.chunks(width)
        ]

    @given(bits_strategy, st.integers(min_value=1, max_value=40))
    def test_roundtrip_on_whole_frames(self, bits, width):
        padded = bits.pad_to(-(-len(bits) // width) * width if bits else 0)
        chunks = padded.to_uint_chunks(width)
        assert Bits.concat(Bits(c, width) for c in chunks) == padded

    def test_width_validated(self):
        with pytest.raises(ValueError):
            Bits.from_str("101").to_uint_chunks(0)

    def test_short_final_chunk(self):
        assert Bits.from_str("11101").to_uint_chunks(2) == [3, 2, 1]
