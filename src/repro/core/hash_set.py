"""HashSet — hash-table set representation (paper section 5.2).

The C++ platform uses the Robin Hood hashing library; the closest
production-quality stand-in in Python is the built-in ``set``, which is an
open-addressing hash table implemented in C.  Hash sets give O(1) point
operations but unordered storage, so bulk operations pay a sort when a
sorted array is requested — the same trade-off as in the paper.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

import numpy as np

from .counters import COUNTERS
from .interface import SetBase
from .ops import csr_sorted_unique

__all__ = ["HashSet"]


class HashSet(SetBase):
    """A set stored in an open-addressing hash table."""

    __slots__ = ("_data",)

    def __init__(self, data: set | None = None):
        self._data: set = data if data is not None else set()

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_iterable(cls, elements: Iterable[int]) -> "HashSet":
        return cls({int(e) for e in elements})

    @classmethod
    def from_sorted_array(cls, array: np.ndarray) -> "HashSet":
        return cls(set(np.asarray(array, dtype=np.int64).tolist()))

    @classmethod
    def from_csr(cls, offsets: np.ndarray, values: np.ndarray) -> List["HashSet"]:
        # One bulk int conversion, then one C-level set() per row.
        offsets, values = csr_sorted_unique(offsets, values)
        bounds = offsets.tolist()
        vals = values.tolist()
        return [cls(set(vals[a:b])) for a, b in zip(bounds, bounds[1:])]

    # -- core algebra ---------------------------------------------------
    def intersect(self, other: SetBase) -> "HashSet":
        b = self._coerce(other)
        out = self._data & b._data
        COUNTERS.record_bulk(len(self._data) + len(b._data), len(out))
        return HashSet(out)

    def intersect_count(self, other: SetBase) -> int:
        b = self._coerce(other)
        COUNTERS.record_bulk(len(self._data) + len(b._data), 0)
        # C-level intersection (it iterates the smaller operand itself).
        return len(self._data & b._data)

    def union(self, other: SetBase) -> "HashSet":
        b = self._coerce(other)
        out = self._data | b._data
        COUNTERS.record_bulk(len(self._data) + len(b._data), len(out))
        return HashSet(out)

    def diff(self, other: SetBase) -> "HashSet":
        b = self._coerce(other)
        out = self._data - b._data
        COUNTERS.record_bulk(len(self._data) + len(b._data), len(out))
        return HashSet(out)

    def contains(self, element: int) -> bool:
        COUNTERS.record_point()
        return element in self._data

    def add(self, element: int) -> None:
        COUNTERS.record_point()
        element = int(element)
        if element not in self._data:
            self._data.add(element)
            COUNTERS.elements_written += 1

    def remove(self, element: int) -> None:
        COUNTERS.record_point()
        element = int(element)
        if element in self._data:
            self._data.discard(element)
            COUNTERS.elements_written += 1

    def cardinality(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._data))

    # -- fast-path overrides ---------------------------------------------
    def to_array(self) -> np.ndarray:
        if not self._data:
            return np.empty(0, dtype=np.int64)
        arr = np.fromiter(self._data, dtype=np.int64, count=len(self._data))
        arr.sort()
        return arr

    def clone(self) -> "HashSet":
        return HashSet(set(self._data))

    def _replace_with(self, other: SetBase) -> None:
        self._data = self._coerce(other)._data

    def __eq__(self, other: object) -> bool:
        if isinstance(other, HashSet):
            return self._data == other._data
        return super().__eq__(other)

    __hash__ = SetBase.__hash__

    # -- storage accounting ------------------------------------------------
    def storage_bytes(self) -> int:
        """CPython set footprint: ~32 bytes/slot, at least 8 slots."""
        n = len(self._data)
        return 32 * (n if n > 8 else 8)  # max() costs 4x on this hot path
