"""SortedSet — sorted integer-array set representation (paper section 5.2).

This mirrors the established CSR design where each vertex neighborhood is a
sorted, contiguous array of integers.  Bulk operations run on numpy arrays
(the Python stand-in for the vectorized merge loops of the C++ platform);
:mod:`repro.core.ops` additionally provides explicit *merge* and *galloping*
intersection kernels for the algorithm-choice experiments of section 6.5.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List

import numpy as np

from .counters import COUNTERS
from .interface import SetBase
from .ops import (as_sorted_unique, csr_sorted_unique, delete_at, insert_at,
                  member_mask_galloping)

__all__ = ["SortedSet"]

_EMPTY = np.empty(0, dtype=np.int64)


class SortedSet(SetBase):
    """A set stored as a sorted, duplicate-free ``int64`` numpy array."""

    __slots__ = ("_data",)

    def __init__(self, data: np.ndarray | None = None, *, _trusted: bool = False):
        if data is None:
            self._data = _EMPTY
        elif _trusted:
            self._data = data
        else:
            self._data = np.unique(np.asarray(data, dtype=np.int64))

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_iterable(cls, elements: Iterable[int]) -> "SortedSet":
        arr = np.fromiter(elements, dtype=np.int64)
        return cls(np.unique(arr), _trusted=True)

    @classmethod
    def empty(cls) -> "SortedSet":
        # The shared empty payload: nothing ever writes into ``_data``.
        return cls()

    @classmethod
    def from_sorted_array(cls, array: np.ndarray) -> "SortedSet":
        # Validate-or-sort: an unsorted/duplicated input would silently
        # break every merge kernel downstream (sortedness is the invariant
        # they all binary-search against).
        return cls(as_sorted_unique(array), _trusted=True)

    @classmethod
    def from_csr(cls, offsets: np.ndarray, values: np.ndarray) -> List["SortedSet"]:
        # Rows are slices of the validated values: views, so sets rebuilt
        # from shared-memory arrays copy nothing.
        offsets, values = csr_sorted_unique(offsets, values)
        bounds = offsets.tolist()
        return [cls(values[a:b], _trusted=True)
                for a, b in zip(bounds, bounds[1:])]

    # -- core algebra ---------------------------------------------------
    def intersect(self, other: SetBase) -> "SortedSet":
        b = self._coerce(other)
        COUNTERS.record_bulk(len(self._data) + len(b._data), 0)
        out = _intersect_arrays(self._data, b._data)
        COUNTERS.elements_written += len(out)
        return SortedSet(out, _trusted=True)

    def intersect_count(self, other: SetBase) -> int:
        b = self._coerce(other)
        COUNTERS.record_bulk(len(self._data) + len(b._data), 0)
        return len(_intersect_arrays(self._data, b._data))

    def intersect_inplace(self, other: SetBase) -> None:
        # One merge, rebound in place — skips the intermediate SortedSet
        # (and its copy) that the generic default would build.
        b = self._coerce(other)
        out = _intersect_arrays(self._data, b._data)
        COUNTERS.record_bulk(len(self._data) + len(b._data), len(out))
        self._data = out

    def intersect_assign(self, a: SetBase, b: SetBase) -> None:
        # Fused A = a ∩ b: intersect straight into this set's slot,
        # skipping the copy of ``a`` the unfused assign would make.
        ca, cb = self._coerce(a), self._coerce(b)
        out = _intersect_arrays(ca._data, cb._data)
        COUNTERS.record_bulk(len(ca._data) + len(cb._data), len(out))
        self._data = out

    def union(self, other: SetBase) -> "SortedSet":
        b = self._coerce(other)
        out = np.union1d(self._data, b._data)
        COUNTERS.record_bulk(len(self._data) + len(b._data), len(out))
        return SortedSet(out, _trusted=True)

    def diff(self, other: SetBase) -> "SortedSet":
        # Binary-search membership: np.setdiff1d would go through
        # np.isin, whose fixed per-call cost dominates small operands.
        b = self._coerce(other)
        a_data, b_data = self._data, b._data
        out = a_data[~member_mask_galloping(a_data, b_data)]
        COUNTERS.record_bulk(len(a_data) + len(b_data), len(out))
        return SortedSet(out, _trusted=True)

    def contains(self, element: int) -> bool:
        COUNTERS.record_point()
        data = self._data
        idx = data.searchsorted(element)
        return bool(idx < len(data) and data[idx] == element)

    # add/remove rebind ``_data`` to a new array, never write into it:
    # from_csr rows are views of the shared CSR values.
    def add(self, element: int) -> None:
        COUNTERS.record_point()
        data = self._data
        idx = int(data.searchsorted(element))
        if idx < len(data) and data[idx] == element:
            return
        self._data = insert_at(data, idx, element)
        COUNTERS.elements_written += 1

    def remove(self, element: int) -> None:
        COUNTERS.record_point()
        data = self._data
        idx = int(data.searchsorted(element))
        if idx < len(data) and data[idx] == element:
            self._data = delete_at(data, idx)
            COUNTERS.elements_written += 1

    def cardinality(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[int]:
        return iter(self._data.tolist())

    # -- fast-path overrides ---------------------------------------------
    def to_array(self) -> np.ndarray:
        return self._data.copy()

    def clone(self) -> "SortedSet":
        return SortedSet(self._data.copy(), _trusted=True)

    def _replace_with(self, other: SetBase) -> None:
        self._data = self._coerce(other)._data

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SortedSet):
            return bool(np.array_equal(self._data, other._data))
        return super().__eq__(other)

    __hash__ = SetBase.__hash__


def _intersect_arrays(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersect two sorted unique arrays, adaptively.

    When one side is much smaller, a galloping (binary-search) probe of the
    larger side wins — ``O(|small| log |large|)`` versus ``O(|a| + |b|)`` for
    the merge; this is the adaptive strategy the paper describes for
    vertex-similarity kernels (section 6.5).
    """
    if len(a) == 0 or len(b) == 0:
        return _EMPTY
    small, large = (a, b) if len(a) <= len(b) else (b, a)
    if len(large) > 32 * len(small):
        COUNTERS.record_scan("sorted/gallop",
                             len(small) * max(1, len(large).bit_length()))
        idx = np.searchsorted(large, small)
        idx[idx == len(large)] = len(large) - 1
        return small[large[idx] == small]
    COUNTERS.record_scan("sorted/merge", len(a) + len(b))
    return np.intersect1d(a, b, assume_unique=True)
