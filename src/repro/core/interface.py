"""The GMS set-algebra interface (paper section 5.1, Listing 1).

The ``Set`` interface is the central modularity device of GraphMineSuite:
graph mining algorithms are written against this interface, and any concrete
set representation (sorted array, dense bitvector, roaring bitmap, hash
table) can be plugged in without touching algorithm code — the paper's
``5+`` modularity level.

The Python rendering below keeps the exact method surface of Listing 1:

===========================  =============================================
Listing 1 (C++)              This module
===========================  =============================================
``diff`` / ``diff_inplace``  :meth:`SetBase.diff` / :meth:`SetBase.diff_inplace`
``intersect`` (+ ``_count``  :meth:`SetBase.intersect`,
/ ``_inplace``)              :meth:`SetBase.intersect_count`,
                             :meth:`SetBase.intersect_inplace`
``union`` (+ ``_count`` /    :meth:`SetBase.union`, :meth:`SetBase.union_count`,
``_inplace``)                :meth:`SetBase.union_inplace`
``contains``                 :meth:`SetBase.contains` (and ``in``)
``add`` / ``remove``         :meth:`SetBase.add` / :meth:`SetBase.remove`
``cardinality``              :meth:`SetBase.cardinality` (and ``len``)
``Range``                    :meth:`SetBase.range`
``clone``                    :meth:`SetBase.clone`
``toArray``                  :meth:`SetBase.to_array`
``begin``/``end`` iterators  :meth:`SetBase.__iter__`
``operator==`` / ``!=``      :meth:`SetBase.__eq__`
===========================  =============================================

Set elements are vertex IDs, i.e. non-negative integers (``GMS::NodeId``).
Binary operations accept a set of the *same* concrete class (the fast path)
or of any other class, in which case the argument is converted first — this
keeps mixed-representation experiments possible, exactly like the C++
platform's implicit conversions.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable, Iterator, List

import numpy as np

__all__ = ["SetBase"]


class SetBase(ABC):
    """Abstract base for all GMS set representations.

    Concrete subclasses must implement the small kernel of abstract methods;
    everything else has a generic (representation-independent) default that
    subclasses override when a faster native routine exists.
    """

    __slots__ = ()

    #: Whether every operation returns exact results.  Probabilistic
    #: representations (:mod:`repro.approx`) set this to ``False``; they
    #: still keep an exact member store (iteration, ``cardinality``,
    #: ``to_array`` and equality stay exact) but their membership probes
    #: and ``*_count`` methods are sketch estimators with one-sided or
    #: bounded error.  Test matrices branch on this flag: exact classes get
    #: strict equality checks, approximate ones containment/bound checks.
    IS_EXACT = True

    # ------------------------------------------------------------------
    # Constructors (Listing 1, part 2)
    # ------------------------------------------------------------------
    @classmethod
    @abstractmethod
    def from_iterable(cls, elements: Iterable[int]) -> "SetBase":
        """Build a set from arbitrary (possibly unsorted) elements."""

    @classmethod
    def from_sorted_array(cls, array: np.ndarray) -> "SetBase":
        """Build a set from a sorted, duplicate-free integer array.

        This is the fast path used when neighborhoods are loaded out of a
        CSR representation; the default simply defers to
        :meth:`from_iterable`.
        """
        return cls.from_iterable(array)

    @classmethod
    def from_csr(cls, offsets: np.ndarray, values: np.ndarray) -> List["SetBase"]:
        """Build every row ``values[offsets[v]:offsets[v + 1]]`` as a set.

        The bulk form of :meth:`from_sorted_array` that materializes a
        whole CSR graph: each returned set equals
        ``cls.from_sorted_array(row)``.  The default is that per-row loop;
        backends whose layout can be built for all rows at once override
        it (after one whole-CSR validation,
        :func:`repro.core.ops.csr_sorted_unique`).
        """
        bounds = np.asarray(offsets).tolist()
        return [cls.from_sorted_array(values[a:b])
                for a, b in zip(bounds, bounds[1:])]

    @classmethod
    def empty(cls) -> "SetBase":
        """Return the empty set — ``Set()`` in Listing 1."""
        return cls.from_iterable(())

    @classmethod
    def single(cls, element: int) -> "SetBase":
        """Return the single-element set ``{element}``."""
        return cls.from_iterable((element,))

    @classmethod
    def range(cls, bound: int) -> "SetBase":
        """Return ``{0, 1, ..., bound - 1}`` — ``Set::Range`` in Listing 1."""
        return cls.from_sorted_array(np.arange(bound, dtype=np.int64))

    # ------------------------------------------------------------------
    # Core set-algebra methods (Listing 1, part 1)
    # ------------------------------------------------------------------
    @abstractmethod
    def intersect(self, other: "SetBase") -> "SetBase":
        """Return a new set ``A ∩ B``."""

    @abstractmethod
    def union(self, other: "SetBase") -> "SetBase":
        """Return a new set ``A ∪ B``."""

    @abstractmethod
    def diff(self, other: "SetBase") -> "SetBase":
        """Return a new set ``A \\ B``."""

    @abstractmethod
    def contains(self, element: int) -> bool:
        """Return whether ``element ∈ A``."""

    @abstractmethod
    def add(self, element: int) -> None:
        """Update ``A = A ∪ {element}`` in place."""

    @abstractmethod
    def remove(self, element: int) -> None:
        """Update ``A = A \\ {element}`` in place (no-op when absent)."""

    @abstractmethod
    def cardinality(self) -> int:
        """Return ``|A|``."""

    @abstractmethod
    def __iter__(self) -> Iterator[int]:
        """Iterate elements in ascending order."""

    # -- count variants: avoid materializing the result (paper section 5.1)
    def intersect_count(self, other: "SetBase") -> int:
        """Return ``|A ∩ B|`` without building the intersection."""
        return self.intersect(other).cardinality()

    def union_count(self, other: "SetBase") -> int:
        """Return ``|A ∪ B|`` without building the union."""
        return self.union(other).cardinality()

    def diff_count(self, other: "SetBase") -> int:
        """Return ``|A \\ B|`` without building the difference."""
        return self.diff(other).cardinality()

    # -- in-place variants: avoid excessive data copying (paper section 5.1)
    def intersect_inplace(self, other: "SetBase") -> None:
        """Update ``A = A ∩ B``."""
        self._replace_with(self.intersect(other))

    def union_inplace(self, other: "SetBase") -> None:
        """Update ``A = A ∪ B``."""
        self._replace_with(self.union(other))

    def diff_inplace(self, other: "SetBase") -> None:
        """Update ``A = A \\ B``."""
        self._replace_with(self.diff(other))

    def intersect_assign(self, a: "SetBase", b: "SetBase") -> None:
        """Update ``self = a ∩ b`` — the fused form of
        ``assign(a); intersect_inplace(b)``.

        The kClist-style kernels refill a per-level scratch set from the
        parent candidates and immediately shrink it against a neighborhood;
        fusing the two steps lets backends skip materializing the
        intermediate copy of ``a``.  The default is the unfused pair, so
        the fusion is purely an optimization hook — counter recording and
        results are identical either way.
        """
        self.assign(a)
        self.intersect_inplace(b)

    def diff_element(self, element: int) -> "SetBase":
        """Return a new set ``A \\ {element}`` (Listing 1 overload)."""
        result = self.clone()
        result.remove(element)
        return result

    def union_element(self, element: int) -> "SetBase":
        """Return a new set ``A ∪ {element}`` (Listing 1 overload)."""
        result = self.clone()
        result.add(element)
        return result

    def assign(self, other: "SetBase") -> None:
        """Overwrite this set's contents with *other*'s (``A = B``).

        The buffer-reuse primitive of the kClist-style kernels: a
        per-recursion-level scratch set is ``assign``-ed from the parent
        candidates and then shrunk with :meth:`intersect_inplace`, so the
        live memory stays bounded by ``Σ_i |C_i|`` instead of allocating a
        fresh set per visited candidate.
        """
        self._replace_with(self._coerce(other))

    @abstractmethod
    def _replace_with(self, other: "SetBase") -> None:
        """Overwrite this set's payload with *other*'s (same class)."""

    # ------------------------------------------------------------------
    # Other methods (Listing 1, part 3)
    # ------------------------------------------------------------------
    def clone(self) -> "SetBase":
        """Return a deep copy (copy constructors are disabled, like in GMS)."""
        return type(self).from_sorted_array(self.to_array())

    def to_array(self) -> np.ndarray:
        """Return the elements as a sorted ``int64`` numpy array."""
        return np.fromiter(self, dtype=np.int64, count=self.cardinality())

    def is_empty(self) -> bool:
        """Return whether the set has no elements."""
        return self.cardinality() == 0

    def storage_bytes(self) -> int:
        """Approximate resident size in bytes (memory analysis and cache
        budgets).  The default is the sorted ``int64`` array footprint,
        8 bytes per element; representations with another layout
        override it."""
        return 8 * self.cardinality()

    # ------------------------------------------------------------------
    # Python protocol sugar
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.cardinality()

    def __contains__(self, element: int) -> bool:
        return self.contains(int(element))

    def __bool__(self) -> bool:
        return not self.is_empty()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetBase):
            return NotImplemented
        if self.cardinality() != other.cardinality():
            return False
        return bool(np.array_equal(self.to_array(), other.to_array()))

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:  # sets are mutable; identity hash like C++
        return id(self)

    def __and__(self, other: "SetBase") -> "SetBase":
        return self.intersect(other)

    def __or__(self, other: "SetBase") -> "SetBase":
        return self.union(other)

    def __sub__(self, other: "SetBase") -> "SetBase":
        return self.diff(other)

    def __repr__(self) -> str:
        preview = list(self)
        if len(preview) > 8:
            shown = ", ".join(str(x) for x in preview[:8])
            return f"{type(self).__name__}({{{shown}, ...}}, n={len(preview)})"
        shown = ", ".join(str(x) for x in preview)
        return f"{type(self).__name__}({{{shown}}})"

    # ------------------------------------------------------------------
    # Mixed-representation support
    # ------------------------------------------------------------------
    def _coerce(self, other: "SetBase") -> "SetBase":
        """Convert *other* to this set's class when classes differ."""
        if type(other) is type(self):
            return other
        return type(self).from_sorted_array(other.to_array())
