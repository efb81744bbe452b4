"""BitSet — dense bitvector set representation (paper section 5.2).

A dense bitvector of size ``n`` bits stores a set over ``{0, ..., n-1}``;
the ``i``-th set bit means vertex ``i`` is a member.  It is larger than a
sparse array for small sets but more space-efficient for very large ones,
and it supports O(1) insert/delete — which the paper highlights as useful
for the dynamic ``P``/``X``/``R`` sets of Bron–Kerbosch.

The implementation stores the bits in a single Python arbitrary-precision
integer: CPython big-int bitwise operations run over 30-bit limbs in C, so
``&``/``|``/``&~`` here play the role of the word-parallel SIMD loops of the
C++ platform.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

import numpy as np

from .counters import COUNTERS
from .interface import SetBase
from .ops import as_sorted_unique, csr_sorted_unique

__all__ = ["BitSet"]

_WORD_BITS = 64

#: Bound on the staging buffer :meth:`BitSet.from_csr` packs rows into
#: (64 KiB), so bulk construction never holds a whole graph's bitvectors
#: in a second copy.  A 1 MiB buffer measured as fast but left ~1 MB more
#: resident memory in every process that built bitsets.
_CSR_STAGING_BYTES = 1 << 16


class BitSet(SetBase):
    """A set stored as a dense bitvector backed by one Python integer."""

    __slots__ = ("_bits",)

    def __init__(self, bits: int = 0):
        self._bits = bits

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_iterable(cls, elements: Iterable[int]) -> "BitSet":
        bits = 0
        for e in elements:
            bits |= 1 << e
        return cls(bits)

    @classmethod
    def from_sorted_array(cls, array: np.ndarray) -> "BitSet":
        # Validate-or-sort first: the byte-buffer size below is read off
        # ``arr[-1]``, which is only the maximum when the array is sorted —
        # an unsorted input used to index past the buffer (or, with a large
        # element last, silently allocate for the wrong universe).
        arr = as_sorted_unique(array)
        if len(arr) == 0:
            return cls(0)
        # Pack via numpy: build a byte buffer with the relevant bits set.
        nbytes = (int(arr[-1]) >> 3) + 1
        buf = np.zeros(nbytes, dtype=np.uint8)
        np.bitwise_or.at(buf, arr >> 3, np.left_shift(1, arr & 7).astype(np.uint8))
        return cls(int.from_bytes(buf.tobytes(), "little"))

    @classmethod
    def from_csr(cls, offsets: np.ndarray, values: np.ndarray) -> List["BitSet"]:
        # Row v needs ``(max(N(v)) >> 3) + 1`` bytes, exactly the buffer
        # from_sorted_array packs.  Consecutive rows share one zeroed
        # staging buffer of at most _CSR_STAGING_BYTES (a single wider row
        # gets a buffer of its own): one scatter sets every bit of the
        # chunk, then each row's integer is read off a memoryview slice.
        offsets, values = csr_sorted_unique(offsets, values)
        counts = np.diff(offsets)
        widths = np.zeros(len(counts), dtype=np.int64)
        nonempty = counts > 0
        widths[nonempty] = (values[offsets[1:][nonempty] - 1] >> 3) + 1
        starts = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(widths, out=starts[1:])
        bounds = starts.tolist()
        sets: List[BitSet] = []
        row, n = 0, len(counts)
        while row < n:
            end = int(np.searchsorted(starts, bounds[row] + _CSR_STAGING_BYTES,
                                      "right")) - 1
            end = min(max(end, row + 1), n)
            base = bounds[row]
            chunk = values[offsets[row]:offsets[end]]
            buf = np.zeros(bounds[end] - base, dtype=np.uint8)
            where = np.repeat(starts[row:end] - base, counts[row:end])
            where += chunk >> 3
            np.bitwise_or.at(buf, where,
                             np.left_shift(1, chunk & 7).astype(np.uint8))
            view = memoryview(buf)
            sets += [cls(int.from_bytes(view[a - base:b - base], "little"))
                     for a, b in zip(bounds[row:end], bounds[row + 1:end + 1])]
            row = end
        return sets

    @classmethod
    def range(cls, bound: int) -> "BitSet":
        return cls((1 << bound) - 1 if bound > 0 else 0)

    # -- core algebra ---------------------------------------------------
    def _record(self, b: "BitSet", written: int) -> None:
        # Normalized units: elements (cardinalities), like every other
        # backend — the old word-based recording made BitSet cells
        # incomparable.  The word-level cost moves to the scan attribution.
        x, y = self._bits, b._bits
        COUNTERS.record_bulk(x.bit_count() + y.bit_count(), written)
        COUNTERS.record_scan("bitset", _word_count(x) + _word_count(y))

    def intersect(self, other: SetBase) -> "BitSet":
        b = self._coerce(other)
        out = self._bits & b._bits
        self._record(b, out.bit_count())
        return BitSet(out)

    def intersect_count(self, other: SetBase) -> int:
        b = self._coerce(other)
        self._record(b, 0)
        return (self._bits & b._bits).bit_count()

    def intersect_inplace(self, other: SetBase) -> None:
        # Genuinely in-place (no intermediate BitSet as in the generic
        # default): one big-int AND, rebound onto this set's payload.
        b = self._coerce(other)
        out = self._bits & b._bits
        self._record(b, out.bit_count())
        self._bits = out

    def intersect_assign(self, a: SetBase, b: SetBase) -> None:
        # Fused A = a ∩ b: one big-int AND straight into this payload.
        ca, cb = self._coerce(a), self._coerce(b)
        out = ca._bits & cb._bits
        ca._record(cb, out.bit_count())
        self._bits = out

    def union(self, other: SetBase) -> "BitSet":
        b = self._coerce(other)
        out = self._bits | b._bits
        self._record(b, out.bit_count())
        return BitSet(out)

    def diff(self, other: SetBase) -> "BitSet":
        b = self._coerce(other)
        out = self._bits & ~b._bits
        self._record(b, out.bit_count())
        return BitSet(out)

    def contains(self, element: int) -> bool:
        COUNTERS.record_point()
        return bool((self._bits >> element) & 1)

    def add(self, element: int) -> None:
        COUNTERS.record_point()
        bit = 1 << element
        if not self._bits & bit:
            self._bits |= bit
            COUNTERS.elements_written += 1

    def remove(self, element: int) -> None:
        COUNTERS.record_point()
        bit = 1 << element
        if self._bits & bit:
            self._bits &= ~bit
            COUNTERS.elements_written += 1

    def cardinality(self) -> int:
        return self._bits.bit_count()

    def __iter__(self) -> Iterator[int]:
        bits = self._bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    # -- fast-path overrides ---------------------------------------------
    def to_array(self) -> np.ndarray:
        bits = self._bits
        if bits == 0:
            return np.empty(0, dtype=np.int64)
        length = bits.bit_length()
        if bits.bit_count() * _WORD_BITS < length:
            # Sparse: peel the lowest set bit per member instead of
            # unpacking every bit of the universe.
            out = []
            while bits:
                low = bits & -bits
                out.append(low.bit_length() - 1)
                bits ^= low
            return np.array(out, dtype=np.int64)
        buf = np.frombuffer(bits.to_bytes((length + 7) // 8, "little"),
                            dtype=np.uint8)
        return np.nonzero(np.unpackbits(buf, bitorder="little"))[0].astype(
            np.int64)

    def clone(self) -> "BitSet":
        return BitSet(self._bits)

    def _replace_with(self, other: SetBase) -> None:
        self._bits = self._coerce(other)._bits

    def __eq__(self, other: object) -> bool:
        if isinstance(other, BitSet):
            return self._bits == other._bits
        return super().__eq__(other)

    __hash__ = SetBase.__hash__

    # -- storage accounting (for the memory-consumption analysis) --------
    def storage_bits(self) -> int:
        """Size of the dense bitvector in bits (``n`` in the paper)."""
        return max(self._bits.bit_length(), 1)

    def storage_bytes(self) -> int:
        return self.storage_bits() // 8 + 1


def _word_count(bits: int) -> int:
    return (bits.bit_length() + _WORD_BITS - 1) // _WORD_BITS
