"""Immutable bit-vectors and bit-level codecs.

All messages exchanged in the congested clique are, per the paper's model,
plain bit strings whose length is charged against the bandwidth parameter
``b``.  :class:`Bits` is the message currency of the whole library: an
immutable sequence of bits with O(1) concatenation-by-int-arithmetic,
slicing, and chunking into ``b``-bit frames.

Bit order convention: index 0 is the *first* bit on the wire (stored as
the most-significant bit of the backing integer), so concatenation and
stream decoding behave like an ordinary byte stream.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

from repro.core.errors import DecodeError

__all__ = ["Bits", "BitWriter", "BitReader", "gamma_length"]


class Bits:
    """An immutable sequence of bits backed by a Python integer."""

    __slots__ = ("_value", "_length")

    def __init__(self, value: int = 0, length: int = 0) -> None:
        if length < 0:
            raise ValueError("length must be non-negative")
        if value < 0:
            raise ValueError("value must be non-negative")
        if value >> length:
            raise ValueError(f"value {value} does not fit in {length} bits")
        self._value = value
        self._length = length

    # -- constructors --------------------------------------------------

    @classmethod
    def empty(cls) -> "Bits":
        return _EMPTY

    @classmethod
    def from_uint(cls, x: int, width: int) -> "Bits":
        """Encode ``x`` as exactly ``width`` bits, most significant first."""
        if x < 0:
            raise ValueError("cannot encode a negative integer")
        if width < 0 or (width == 0 and x != 0) or x >> width:
            raise ValueError(f"{x} does not fit in {width} bits")
        return cls(x, width)

    @classmethod
    def from_bools(cls, flags: Iterable[bool]) -> "Bits":
        value = 0
        length = 0
        for flag in flags:
            value = (value << 1) | (1 if flag else 0)
            length += 1
        return cls(value, length)

    @classmethod
    def from_str(cls, text: str) -> "Bits":
        """Parse a string of '0'/'1' characters."""
        if text and set(text) - {"0", "1"}:
            raise ValueError("bit strings may only contain '0' and '1'")
        return cls(int(text, 2) if text else 0, len(text))

    @classmethod
    def zeros(cls, length: int) -> "Bits":
        return cls(0, length)

    @classmethod
    def concat(cls, parts: Iterable["Bits"]) -> "Bits":
        value = 0
        length = 0
        for part in parts:
            value = (value << len(part)) | part._value
            length += part._length
        return cls(value, length)

    # -- accessors -----------------------------------------------------

    def to_uint(self) -> int:
        return self._value

    def __len__(self) -> int:
        return self._length

    def __bool__(self) -> bool:
        return self._length > 0

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._length)
            if step != 1:
                raise ValueError("Bits slicing only supports step 1")
            if stop <= start:
                return _EMPTY
            width = stop - start
            shifted = self._value >> (self._length - stop)
            return Bits(shifted & ((1 << width) - 1), width)
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("bit index out of range")
        return (self._value >> (self._length - 1 - index)) & 1

    def __iter__(self) -> Iterator[int]:
        for i in range(self._length):
            yield (self._value >> (self._length - 1 - i)) & 1

    def __add__(self, other: "Bits") -> "Bits":
        if not isinstance(other, Bits):
            return NotImplemented
        return Bits(
            (self._value << other._length) | other._value,
            self._length + other._length,
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Bits)
            and self._length == other._length
            and self._value == other._value
        )

    def __hash__(self) -> int:
        return hash((self._value, self._length))

    def __repr__(self) -> str:
        if self._length <= 64:
            return f"Bits('{self.to_str()}')"
        return f"Bits(<{self._length} bits>)"

    def to_str(self) -> str:
        return format(self._value, f"0{self._length}b") if self._length else ""

    # -- transformations -------------------------------------------------

    def pad_to(self, length: int) -> "Bits":
        """Append zero bits on the right until ``length`` bits long."""
        if length < self._length:
            raise ValueError("cannot pad to a shorter length")
        return Bits(self._value << (length - self._length), length)

    def chunks(self, size: int) -> List["Bits"]:
        """Split into consecutive chunks of ``size`` bits; the last chunk
        keeps its natural (possibly shorter) length."""
        if size <= 0:
            raise ValueError("chunk size must be positive")
        return [self[i : i + size] for i in range(0, self._length, size)]

    def to_uint_chunks(self, width: int) -> List[int]:
        """Split into consecutive ``width``-bit unsigned integers, most
        significant chunk first; the last chunk keeps its natural
        (possibly shorter) width.  The bulk counterpart of
        ``[c.to_uint() for c in self.chunks(width)]`` — one shift/mask
        per chunk on the backing integer, no :class:`Bits` allocations —
        used by the phase layer to frame payloads for the fixed-width
        lanes."""
        if width <= 0:
            raise ValueError("chunk width must be positive")
        value = self._value
        full, rem = divmod(self._length, width)
        mask = (1 << width) - 1
        shift = self._length - width
        out = []
        for _ in range(full):
            out.append((value >> shift) & mask)
            shift -= width
        if rem:
            out.append(value & ((1 << rem) - 1))
        return out

    def popcount(self) -> int:
        return bin(self._value).count("1")


_EMPTY = Bits(0, 0)


def gamma_length(x: int) -> int:
    """Number of bits Elias-gamma coding of ``x`` (x >= 0) occupies."""
    if x < 0:
        raise ValueError("gamma coding requires x >= 0")
    return 2 * (x + 1).bit_length() - 1


class BitWriter:
    """Accumulates bits; produces a :class:`Bits` via :meth:`getvalue`."""

    __slots__ = ("_value", "_length")

    def __init__(self) -> None:
        self._value = 0
        self._length = 0

    def __len__(self) -> int:
        return self._length

    def write_bit(self, bit: int) -> "BitWriter":
        self._value = (self._value << 1) | (1 if bit else 0)
        self._length += 1
        return self

    def write_uint(self, x: int, width: int) -> "BitWriter":
        if x < 0 or (width == 0 and x != 0) or x >> width:
            raise ValueError(f"{x} does not fit in {width} bits")
        self._value = (self._value << width) | x
        self._length += width
        return self

    def write_bits(self, bits: Bits) -> "BitWriter":
        self._value = (self._value << len(bits)) | bits.to_uint()
        self._length += len(bits)
        return self

    def write_gamma(self, x: int) -> "BitWriter":
        """Elias gamma code for x >= 0 (codes x+1 in the classic scheme)."""
        if x < 0:
            raise ValueError("gamma coding requires x >= 0")
        n = x + 1
        width = n.bit_length()
        self.write_uint(0, width - 1)
        self.write_uint(n, width)
        return self

    def getvalue(self) -> Bits:
        return Bits(self._value, self._length)


class BitReader:
    """Sequential decoder over a :class:`Bits` value."""

    __slots__ = ("_bits", "_pos")

    def __init__(self, bits: Bits) -> None:
        self._bits = bits
        self._pos = 0

    @property
    def position(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return len(self._bits) - self._pos

    def read_bit(self) -> int:
        if self._pos >= len(self._bits):
            raise DecodeError("read past end of bit stream")
        bit = self._bits[self._pos]
        self._pos += 1
        return bit

    def read_uint(self, width: int) -> int:
        if width < 0:
            raise ValueError("width must be non-negative")
        if self._pos + width > len(self._bits):
            raise DecodeError("read past end of bit stream")
        chunk = self._bits[self._pos : self._pos + width]
        self._pos += width
        return chunk.to_uint()

    def read_bits(self, width: int) -> Bits:
        if self._pos + width > len(self._bits):
            raise DecodeError("read past end of bit stream")
        chunk = self._bits[self._pos : self._pos + width]
        self._pos += width
        return chunk

    def read_gamma(self) -> int:
        zeros = 0
        while self.read_bit() == 0:
            zeros += 1
            if zeros > len(self._bits):  # pragma: no cover - defensive
                raise DecodeError("malformed gamma code")
        rest = self.read_uint(zeros)
        return ((1 << zeros) | rest) - 1
