"""Density-adaptive set dispatch (SISA's organization/algorithm choice).

The static platform picks **one** set class per graph (``set_cls``) and
**one** algorithm per method.  SISA's observation — and this module's job —
is that both choices are better made later and finer:

* **organization, per neighborhood**: a dense neighborhood packs into a
  ``np.uint64`` bitmap (:mod:`repro.core.packed`) whose intersections are
  word-parallel ``AND`` + popcount; a sparse one stays a sorted array.
  :func:`choose_representation` makes the call from the density
  ``|S| / words(universe)`` — the bitmap is chosen exactly when it is no
  larger than the array it replaces (``words ≤ |S|``), which also bounds
  its scan cost by the array's.
* **algorithm, per operation**: a skewed array × array pair
  (``|large| > ratio · |small|``) is intersected by galloping binary
  probes, a balanced pair by the vectorized merge-path scan
  (:mod:`repro.core.ops`); an array × bitmap pair by ``O(|array|)``
  bitmap probes.  :func:`choose_intersect_algorithm` owns the ratio.

:class:`AdaptiveSet` packages the policy as a drop-in
:class:`~repro.core.interface.SetBase` backend (registry name
``"adaptive"``): it always keeps the canonical sorted array — so
iteration order, ``to_array``, equality, and every result are
**bit-identical** to :class:`~repro.core.sorted_set.SortedSet` — and
additionally carries the packed bitmap when the density policy says the
neighborhood is dense.  ``--dispatch adaptive`` (threaded through
``Args``/``ExperimentPlan``/``Query``) swaps any *exact* backend for this
class; sketched backends (``bloom``/``kmv``) are never swapped — their
accuracy contract is budget-tuned per graph, ProbGraph-style, and adaptive
repacking would silently change it.

Every operation records the normalized element counters plus a
``words_scanned`` attribution under the ``adaptive/<algorithm>`` keys, so
the ablation artifact can show where the cycles went.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

import numpy as np

from . import packed
from .counters import COUNTERS
from .interface import SetBase
from .ops import (
    as_sorted_unique,
    csr_sorted_unique,
    diff_merge,
    intersect_count_merge,
    intersect_merge,
    union_merge,
)
from .packed import member_mask_words

__all__ = [
    "DISPATCH_MODES",
    "GALLOP_RATIO",
    "AdaptiveSet",
    "choose_intersect_algorithm",
    "choose_representation",
]

#: The dispatch knob's values: ``static`` keeps the per-graph ``set_cls``
#: choice, ``adaptive`` swaps exact backends for :class:`AdaptiveSet`.
DISPATCH_MODES = ("static", "adaptive")

#: Gallop when ``|large| > GALLOP_RATIO * |small|`` — the probe does
#: ``|small| * log|large|`` work versus the merge's ``|small| + |large|``,
#: so the break-even ratio is ~``log|large|``; 16 is a robust static
#: stand-in for the sizes mining kernels see.
GALLOP_RATIO = 16

#: Probe small arrays regardless of skew: below this size the merge-path
#: partitioning overhead exceeds the probes.
_SMALL_PROBE_MAX = 16

#: When the probing side is this small, hashed membership (the cached
#: hash-layout organization) beats even vectorized binary search — the
#: fixed per-call cost of a numpy kernel exceeds a handful of hash probes.
_HASH_PROBE_MAX = 24

_EMPTY = np.empty(0, dtype=np.int64)


def choose_representation(cardinality: int, max_element: int) -> str:
    """``"bitmap"`` when the packed words fit within the array footprint.

    ``words(max_element) ≤ cardinality`` means the bitmap is no larger
    (one ``uint64`` word per ``int64`` element displaced) *and* a full
    bitmap scan touches no more words than an array scan — the density
    threshold at which the organization switch is a pure win.
    """
    if cardinality == 0:
        return "array"
    return ("bitmap" if packed.words_needed(max_element) <= cardinality
            else "array")


def choose_intersect_algorithm(len_a: int, len_b: int) -> str:
    """``"gallop"`` for skewed (or tiny) array pairs, ``"merge"`` else."""
    small, large = (len_a, len_b) if len_a <= len_b else (len_b, len_a)
    if small <= _SMALL_PROBE_MAX or large > GALLOP_RATIO * small:
        return "gallop"
    return "merge"


class AdaptiveSet(SetBase):
    """Sorted array + optional packed bitmap, dispatched per operation.

    The sorted unique ``int64`` array is canonical (semantics identical to
    :class:`~repro.core.sorted_set.SortedSet`); the ``np.uint64`` bitmap
    is carried *in addition* when :func:`choose_representation` picks it,
    and operations dispatch on what both operands have:

    ========================  =============================================
    operand layouts           kernel
    ========================  =============================================
    bitmap × bitmap           word-parallel ``AND``/``OR``/``ANDNOT``
                              (+ fused popcount for ``intersect_count``)
    array × bitmap            ``O(|array|)`` bitmap probes (``diff``,
                              ``contains``; intersections gallop on the
                              always-present arrays instead)
    array × array (skewed)    galloping binary-search probes
    array × array (balanced)  vectorized merge-path scan
    ========================  =============================================

    Mutations keep both layouts coherent (copy-on-write on the bitmap, so
    ``assign``-aliased payloads can never be corrupted through a sibling)
    and drop the bitmap when shrinking breaks the density invariant.
    """

    __slots__ = ("_data", "_words", "_hash", "_list")

    IS_EXACT = True

    def __init__(self, data: Optional[np.ndarray] = None, *,
                 _trusted: bool = False):
        if data is None:
            self._data = _EMPTY
        elif _trusted:
            self._data = data
        else:
            self._data = np.unique(np.asarray(data, dtype=np.int64))
        self._words: Optional[np.ndarray] = None
        self._hash: Optional[set] = None
        self._list: Optional[list] = None
        self._repack()

    # -- layout management ----------------------------------------------
    def _repack(self) -> None:
        """(Re)build or drop the bitmap per the density policy."""
        data = self._data
        if len(data) and choose_representation(
            len(data), int(data[-1])
        ) == "bitmap":
            self._words = packed.pack_sorted(data)
        else:
            self._words = None

    def _adopt(self, data: np.ndarray,
               words: Optional[np.ndarray]) -> None:
        """Install a result payload, enforcing the density invariant."""
        self._data = data
        if words is not None and len(words) > max(1, len(data)):
            words = None  # shrunk sparse: bitmap scans would dominate
        self._words = words
        self._hash = None
        self._list = None

    def _hashed(self) -> set:
        """Lazily cached hash layout (invalidated with ``_data``).

        The cached set is never mutated in place, so aliasing it through
        ``assign``/``clone`` is as safe as aliasing ``_data`` itself.
        """
        h = self._hash
        if h is None:
            h = self._hash = set(self._data.tolist())
        return h

    def _listed(self) -> list:
        l = self._list
        if l is None:
            l = self._list = self._data.tolist()
        return l

    def representation(self) -> str:
        """The organization currently backing this set (observability)."""
        return "bitmap" if self._words is not None else "array"

    # -- constructors ---------------------------------------------------
    @classmethod
    def from_iterable(cls, elements: Iterable[int]) -> "AdaptiveSet":
        return cls(np.unique(np.fromiter(elements, dtype=np.int64)),
                   _trusted=True)

    @classmethod
    def from_sorted_array(cls, array: np.ndarray) -> "AdaptiveSet":
        return cls(as_sorted_unique(array), _trusted=True)

    @classmethod
    def from_csr(cls, offsets: np.ndarray,
                 values: np.ndarray) -> List["AdaptiveSet"]:
        # Trusted views of the validated values (zero-copy from shared
        # memory); each row still takes its own density decision.
        offsets, values = csr_sorted_unique(offsets, values)
        bounds = offsets.tolist()
        return [cls(values[a:b], _trusted=True)
                for a, b in zip(bounds, bounds[1:])]

    # -- dispatched kernels ---------------------------------------------
    #
    # The intersection paths are the mining hot loop (every kclique / tc /
    # BK step lands here), so they are written for minimal per-call
    # overhead: one swap instead of min/max helpers, the gallop condition
    # inlined (same predicate as :func:`choose_intersect_algorithm`), and
    # `ndarray.searchsorted` methods instead of the `np.*` wrappers.  The
    # canonical arrays always exist, so a lone bitmap never forces the
    # O(|array|) word-probe kernel — galloping on the arrays does the same
    # job in fewer vector ops (the probe kernel still backs ``diff`` and
    # single-element ``contains``).

    def _intersect_payload(self, b: "AdaptiveSet"):
        """``(data, words)`` of ``self ∩ b`` under the dispatch policy.

        When both operands are dense the packed words come from one
        word-parallel ``AND`` — and the result keeps its bitmap, so chained
        intersections (the kclique recursion) stay on the packed path.
        """
        sa, sb = self, b
        da, db = sa._data, sb._data
        la, lb = len(da), len(db)
        if la > lb:
            sa, sb, da, db, la, lb = sb, sa, db, da, lb, la
        if la == 0:
            return _EMPTY, None
        words = None
        wa, wb = self._words, b._words
        if wa is not None and wb is not None:
            words = packed.intersect_words(wa, wb)
            COUNTERS.record_scan("adaptive/bitmap", 3 * len(words))
        if la <= _HASH_PROBE_MAX:
            COUNTERS.record_scan("adaptive/hash", la)
            h = sb._hashed()
            data = np.array([x for x in sa._listed() if x in h],
                            dtype=np.int64)
        elif lb > la * GALLOP_RATIO:
            COUNTERS.record_scan("adaptive/gallop", la * lb.bit_length())
            data = da[db.searchsorted(da, "left")
                      != db.searchsorted(da, "right")]
        else:
            COUNTERS.record_scan("adaptive/merge", la + lb)
            data = intersect_merge(da, db)
        return data, words

    def intersect(self, other: SetBase) -> "AdaptiveSet":
        b = self._coerce(other)
        COUNTERS.record_bulk(len(self._data) + len(b._data), 0)
        data, words = self._intersect_payload(b)
        COUNTERS.elements_written += len(data)
        out = AdaptiveSet.__new__(AdaptiveSet)
        out._adopt(data, words)
        return out

    def intersect_count(self, other: SetBase) -> int:
        b = self._coerce(other)
        sa, sb = self, b
        da, db = sa._data, sb._data
        la, lb = len(da), len(db)
        COUNTERS.record_bulk(la + lb, 0)
        if la > lb:
            sa, sb, da, db, la, lb = sb, sa, db, da, lb, la
        if la == 0:
            return 0
        wa, wb = self._words, b._words
        if wa is not None and wb is not None:
            COUNTERS.record_scan("adaptive/bitmap",
                                 2 * min(len(wa), len(wb)))
            return packed.intersect_count_words(wa, wb)
        if la <= _HASH_PROBE_MAX:
            COUNTERS.record_scan("adaptive/hash", la)
            h = sb._hashed()
            return sum(x in h for x in sa._listed())
        if lb > la * GALLOP_RATIO:
            COUNTERS.record_scan("adaptive/gallop", la * lb.bit_length())
            return int(np.count_nonzero(
                db.searchsorted(da, "left") != db.searchsorted(da, "right")
            ))
        COUNTERS.record_scan("adaptive/merge", la + lb)
        return intersect_count_merge(da, db)

    def intersect_inplace(self, other: SetBase) -> None:
        b = self._coerce(other)
        COUNTERS.record_bulk(len(self._data) + len(b._data), 0)
        data, words = self._intersect_payload(b)
        COUNTERS.elements_written += len(data)
        self._adopt(data, words)

    def intersect_assign(self, a: SetBase, b: SetBase) -> None:
        # Fused A = a ∩ b: one dispatched kernel, no intermediate copy.
        ca, cb = self._coerce(a), self._coerce(b)
        COUNTERS.record_bulk(len(ca._data) + len(cb._data), 0)
        data, words = ca._intersect_payload(cb)
        COUNTERS.elements_written += len(data)
        self._adopt(data, words)

    def union(self, other: SetBase) -> "AdaptiveSet":
        b = self._coerce(other)
        a_data, b_data = self._data, b._data
        a_words, b_words = self._words, b._words
        if a_words is not None and b_words is not None:
            words = packed.union_words(a_words, b_words)
            COUNTERS.record_scan("adaptive/bitmap",
                                 2 * len(words) + len(words))
            data = packed.unpack(words)
        else:
            COUNTERS.record_scan("adaptive/merge",
                                 len(a_data) + len(b_data))
            data, words = union_merge(a_data, b_data), None
        COUNTERS.record_bulk(len(a_data) + len(b_data), len(data))
        out = AdaptiveSet.__new__(AdaptiveSet)
        out._adopt(data, words)
        if words is None:
            out._repack()  # a union can cross the density threshold
        return out

    def diff(self, other: SetBase) -> "AdaptiveSet":
        b = self._coerce(other)
        a_data, b_data = self._data, b._data
        a_words, b_words = self._words, b._words
        if len(a_data) == 0 or len(b_data) == 0:
            data, words = a_data.copy(), None
        elif a_words is not None and b_words is not None:
            words = packed.diff_words(a_words, b_words)
            COUNTERS.record_scan("adaptive/bitmap",
                                 2 * len(words) + len(words))
            data = packed.unpack(words)
        elif b_words is not None:
            COUNTERS.record_scan("adaptive/probe", len(a_data))
            data, words = (
                a_data[~member_mask_words(b_words, a_data)], None
            )
        else:
            COUNTERS.record_scan("adaptive/merge",
                                 len(a_data) + len(b_data))
            data, words = diff_merge(a_data, b_data), None
        COUNTERS.record_bulk(len(a_data) + len(b_data), len(data))
        out = AdaptiveSet.__new__(AdaptiveSet)
        out._adopt(data, words)
        return out

    # -- point operations -------------------------------------------------
    def contains(self, element: int) -> bool:
        COUNTERS.record_point()
        words = self._words
        if words is not None:
            if 0 <= element < len(words) * packed.WORD_BITS:
                return bool(
                    (int(words[element >> 6]) >> (element & 63)) & 1
                )
            return False
        data = self._data
        idx = np.searchsorted(data, element)
        return bool(idx < len(data) and data[idx] == element)

    def add(self, element: int) -> None:
        COUNTERS.record_point()
        data = self._data
        idx = int(np.searchsorted(data, element))
        if idx < len(data) and data[idx] == element:
            return
        self._data = np.insert(data, idx, element)
        COUNTERS.elements_written += 1
        self._hash = None
        self._list = None
        words = self._words
        if words is not None and 0 <= element < len(words) * packed.WORD_BITS:
            words = words.copy()  # COW: assign() aliases payloads
            words[element >> 6] |= np.uint64(1 << (element & 63))
            self._words = words
        else:
            self._repack()

    def remove(self, element: int) -> None:
        COUNTERS.record_point()
        data = self._data
        idx = int(np.searchsorted(data, element))
        if not (idx < len(data) and data[idx] == element):
            return
        self._data = np.delete(data, idx)
        COUNTERS.elements_written += 1
        self._hash = None
        self._list = None
        words = self._words
        if words is not None:
            words = words.copy()  # COW: assign() aliases payloads
            words[element >> 6] &= np.uint64(
                ~np.uint64(1 << (element & 63))
            )
            self._adopt(self._data, words)

    def cardinality(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[int]:
        return iter(self._data.tolist())

    # -- fast-path overrides ---------------------------------------------
    def to_array(self) -> np.ndarray:
        return self._data.copy()

    def clone(self) -> "AdaptiveSet":
        out = AdaptiveSet.__new__(AdaptiveSet)
        out._data = self._data.copy()
        out._words = None if self._words is None else self._words.copy()
        out._hash = self._hash  # never mutated in place; see _hashed
        out._list = self._list
        return out

    def _replace_with(self, other: SetBase) -> None:
        o = self._coerce(other)
        # Aliasing is safe: arrays are rebound (never mutated in place),
        # bitmap mutations are copy-on-write, and the hash/list caches are
        # rebuilt rather than updated.
        self._data = o._data
        self._words = o._words
        self._hash = o._hash
        self._list = o._list

    def __eq__(self, other: object) -> bool:
        if isinstance(other, AdaptiveSet):
            return bool(np.array_equal(self._data, other._data))
        return super().__eq__(other)

    __hash__ = SetBase.__hash__

    # -- storage accounting ------------------------------------------------
    def storage_bytes(self) -> int:
        """Array footprint plus the resident bitmap, if any."""
        total = self._data.nbytes
        if self._words is not None:
            total += self._words.nbytes
        return total
