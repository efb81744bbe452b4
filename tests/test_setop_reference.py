"""Set-op fast paths against the implementations they replaced.

The small-operand rewrites of the exact backends (binary-search ``diff``,
slice-built ``add``/``remove``, constant-time ``empty``, the one-walk
roaring counters, fused roaring intersections, the sparse ``BitSet``
unpack and C-level ``HashSet`` counting) promise identical members *and*
identical software counters.  This module keeps reference copies of the
replaced method bodies as subclasses (``Ref*``) and checks, with
hypothesis, that every touched method returns the same members, leaves
its operands in the same layout and records the same
``counters.snapshot()`` delta as its reference.  Operands cover empty,
singleton and skewed pairs, roaring sets spanning several 2^16 chunks,
bitmap and run containers, and sparse and dense bitsets.
"""

from __future__ import annotations

from typing import Dict

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import AdaptiveSet, BitSet, HashSet, RoaringSet, SortedSet
from repro.core import counters
from repro.core.counters import COUNTERS
from repro.core.interface import SetBase
from repro.core.ops import as_sorted_unique
from repro.core.roaring import (
    _CHUNK_BITS,
    _CHUNK_SIZE,
    _FULL_BITMAP,
    _LOW_MASK,
    Container,
    _array_container,
    _array_from_bits,
    _bits_from_array,
    _card,
    _container_from_array,
    _container_from_bits,
    _densify,
    _membership_mask,
)

# ---------------------------------------------------------------------------
# Reference copies of the replaced methods
# ---------------------------------------------------------------------------


class RefSortedSet(SortedSet):
    __slots__ = ()

    empty = classmethod(SetBase.empty.__func__)

    def diff(self, other):
        b = self._coerce(other)
        out = np.setdiff1d(self._data, b._data, assume_unique=True)
        COUNTERS.record_bulk(len(self._data) + len(b._data), len(out))
        return type(self)(out, _trusted=True)

    def add(self, element):
        COUNTERS.record_point()
        idx = int(np.searchsorted(self._data, element))
        if idx < len(self._data) and self._data[idx] == element:
            return
        self._data = np.insert(self._data, idx, element)
        COUNTERS.elements_written += 1

    def remove(self, element):
        COUNTERS.record_point()
        idx = int(np.searchsorted(self._data, element))
        if idx < len(self._data) and self._data[idx] == element:
            self._data = np.delete(self._data, idx)
            COUNTERS.elements_written += 1


class RefAdaptiveSet(AdaptiveSet):
    __slots__ = ()

    empty = classmethod(SetBase.empty.__func__)

    def add(self, element):
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
        if words is not None and 0 <= element < len(words) * 64:
            words = words.copy()
            words[element >> 6] |= np.uint64(1 << (element & 63))
            self._words = words
        else:
            self._repack()

    def remove(self, element):
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
            words = words.copy()
            words[element >> 6] &= np.uint64(~np.uint64(1 << (element & 63)))
            self._adopt(self._data, words)


class RefBitSet(BitSet):
    __slots__ = ()

    def _words(self):
        return (self._bits.bit_length() + 63) // 64

    def _record(self, b, written):
        COUNTERS.record_bulk(self.cardinality() + b.cardinality(), written)
        COUNTERS.record_scan("bitset", self._words() + b._words())

    def to_array(self):
        if self._bits == 0:
            return np.empty(0, dtype=np.int64)
        nbytes = (self._bits.bit_length() + 7) // 8
        buf = np.frombuffer(self._bits.to_bytes(nbytes, "little"),
                            dtype=np.uint8)
        bits = np.unpackbits(buf, bitorder="little")
        return np.nonzero(bits)[0].astype(np.int64)


class RefHashSet(HashSet):
    __slots__ = ()

    def intersect_count(self, other):
        b = self._coerce(other)
        COUNTERS.record_bulk(len(self._data) + len(b._data), 0)
        small, large = ((self._data, b._data)
                        if len(self._data) <= len(b._data)
                        else (b._data, self._data))
        return sum(1 for e in small if e in large)


def _ref_binary_op(a: Container, b: Container, op: str):
    a = _densify(a)
    b = _densify(b)
    ta, pa = a
    tb, pb = b
    if ta == "b" and tb == "b":
        if op == "and":
            bits = pa & pb
        elif op == "or":
            bits = pa | pb
        else:
            bits = pa & ~pb & _FULL_BITMAP
        return _container_from_bits(bits) if bits else None
    if ta == "a" and tb == "a":
        if op == "and":
            out = np.intersect1d(pa, pb, assume_unique=True)
        elif op == "or":
            out = np.union1d(pa, pb)
        else:
            out = np.setdiff1d(pa, pb, assume_unique=True)
        return (_container_from_array(out.astype(np.uint16))
                if len(out) else None)
    if ta == "a":
        arr = pa
        mask = _membership_mask(pb, arr)
        if op == "and":
            out = arr[mask]
            return _array_container(out) if len(out) else None
        if op == "diff":
            out = arr[~mask]
            return _array_container(out) if len(out) else None
        return _container_from_bits(pb | _bits_from_array(arr))
    arr = pb
    if op == "and":
        out = arr[_membership_mask(pa, arr)]
        return _array_container(out) if len(out) else None
    if op == "or":
        return _container_from_bits(pa | _bits_from_array(arr))
    bits = pa & ~_bits_from_array(arr) & _FULL_BITMAP
    return _container_from_bits(bits) if bits else None


def _ref_copy_container(container):
    tag, payload = container
    if tag == "a":
        return ("a", payload.copy())
    if tag == "b":
        return ("b", payload)
    return ("r", list(payload))


class RefRoaringSet(RoaringSet):
    __slots__ = ()

    empty = classmethod(SetBase.empty.__func__)
    is_empty = SetBase.is_empty
    intersect_inplace = SetBase.intersect_inplace
    intersect_assign = SetBase.intersect_assign

    @classmethod
    def from_sorted_array(cls, array):
        arr = as_sorted_unique(array)
        chunks: Dict[int, Container] = {}
        if len(arr) == 0:
            return cls(chunks)
        highs = arr >> _CHUNK_BITS
        lows = (arr & _LOW_MASK).astype(np.uint16)
        boundaries = np.nonzero(np.diff(highs))[0] + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(arr)]))
        for s, e in zip(starts.tolist(), ends.tolist()):
            chunks[int(highs[s])] = _container_from_array(lows[s:e])
        return cls(chunks)

    def _record_scan(self, b):
        COUNTERS.record_scan(
            "roaring", (self.storage_bytes() + b.storage_bytes() + 7) // 8)

    def intersect(self, other):
        b = self._coerce(other)
        COUNTERS.record_bulk(self.cardinality() + b.cardinality(), 0)
        self._record_scan(b)
        out = {}
        small, large = ((self, b) if len(self._chunks) <= len(b._chunks)
                        else (b, self))
        for key, ca in small._chunks.items():
            cb = large._chunks.get(key)
            if cb is None:
                continue
            merged = _ref_binary_op(ca, cb, "and")
            if merged is not None:
                out[key] = merged
        result = type(self)(out)
        COUNTERS.elements_written += result.cardinality()
        return result

    def intersect_count(self, other):
        b = self._coerce(other)
        COUNTERS.record_bulk(self.cardinality() + b.cardinality(), 0)
        self._record_scan(b)
        total = 0
        small, large = ((self, b) if len(self._chunks) <= len(b._chunks)
                        else (b, self))
        for key, ca in small._chunks.items():
            cb = large._chunks.get(key)
            if cb is None:
                continue
            merged = _ref_binary_op(ca, cb, "and")
            if merged is not None:
                total += _card(merged)
        return total

    def union(self, other):
        b = self._coerce(other)
        COUNTERS.record_bulk(self.cardinality() + b.cardinality(), 0)
        self._record_scan(b)
        out = {}
        for key in self._chunks.keys() | b._chunks.keys():
            ca = self._chunks.get(key)
            cb = b._chunks.get(key)
            if ca is None:
                out[key] = _ref_copy_container(cb)
            elif cb is None:
                out[key] = _ref_copy_container(ca)
            else:
                merged = _ref_binary_op(ca, cb, "or")
                if merged is not None:
                    out[key] = merged
        result = type(self)(out)
        COUNTERS.elements_written += result.cardinality()
        return result

    def diff(self, other):
        b = self._coerce(other)
        COUNTERS.record_bulk(self.cardinality() + b.cardinality(), 0)
        self._record_scan(b)
        out = {}
        for key, ca in self._chunks.items():
            cb = b._chunks.get(key)
            if cb is None:
                out[key] = _ref_copy_container(ca)
                continue
            merged = _ref_binary_op(ca, cb, "diff")
            if merged is not None:
                out[key] = merged
        result = type(self)(out)
        COUNTERS.elements_written += result.cardinality()
        return result

    def add(self, element):
        COUNTERS.record_point()
        key = element >> _CHUNK_BITS
        low = element & _LOW_MASK
        container = self._chunks.get(key)
        if container is None:
            self._chunks[key] = ("a", np.array([low], dtype=np.uint16))
            COUNTERS.elements_written += 1
            return
        container = _densify(container)
        tag, payload = container
        if tag == "b":
            if not (payload >> low) & 1:
                COUNTERS.elements_written += 1
            self._chunks[key] = ("b", payload | (1 << low))
            return
        arr = payload
        idx = int(np.searchsorted(arr, low))
        if idx < len(arr) and arr[idx] == low:
            self._chunks[key] = container
            return
        self._chunks[key] = _container_from_array(np.insert(arr, idx, low))
        COUNTERS.elements_written += 1

    def remove(self, element):
        COUNTERS.record_point()
        key = element >> _CHUNK_BITS
        low = element & _LOW_MASK
        container = self._chunks.get(key)
        if container is None:
            return
        container = _densify(container)
        tag, payload = container
        if tag == "b":
            if (payload >> low) & 1:
                COUNTERS.elements_written += 1
            bits = payload & ~(1 << low)
            if bits:
                self._chunks[key] = _container_from_bits(bits)
            else:
                del self._chunks[key]
            return
        arr = payload
        idx = int(np.searchsorted(arr, low))
        if idx < len(arr) and arr[idx] == low:
            new = np.delete(arr, idx)
            COUNTERS.elements_written += 1
            if len(new):
                self._chunks[key] = ("a", new)
            else:
                del self._chunks[key]
        else:
            self._chunks[key] = container

    def cardinality(self):
        return sum(_card(c) for c in self._chunks.values())

    def to_array(self):
        parts = []
        for key in sorted(self._chunks):
            base = np.int64(key << _CHUNK_BITS)
            tag, payload = _densify(self._chunks[key])
            arr = payload if tag == "a" else _array_from_bits(payload)
            parts.append(arr.astype(np.int64) + base)
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    def storage_bytes(self):
        total = 0
        for tag, payload in self._chunks.values():
            total += 4
            if tag == "a":
                total += 2 * len(payload)
            elif tag == "b":
                total += _CHUNK_SIZE // 8
            else:
                total += 4 * len(payload)
        return total


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def state(x):
    """Everything observable about a result: members, dtype and layout."""
    if isinstance(x, np.ndarray):
        return ("ndarray", x.dtype.str, x.tolist())
    if isinstance(x, (SortedSet, AdaptiveSet)):
        words = getattr(x, "_words", None)
        return (x._data.dtype.str, x._data.tolist(),
                None if words is None else words.tolist())
    if isinstance(x, BitSet):
        return x._bits
    if isinstance(x, HashSet):
        return sorted(x._data)
    if isinstance(x, RoaringSet):
        return sorted(
            (key, tag, payload.dtype.str, payload.tolist())
            if tag == "a" else (key, tag, payload)
            for key, (tag, payload) in x._chunks.items()
        )
    return x


def metered(fn):
    before = counters.snapshot()
    out = fn()
    return out, before.delta(counters.snapshot())


def check(new_cls, ref_cls, op, *arrays, build=None):
    """``op`` on fresh ``new_cls`` and ``ref_cls`` operands built from
    *arrays*: same result, same operand states, same counter delta."""
    build = build or (lambda cls, arr: cls.from_sorted_array(arr))
    new_ops = [build(new_cls, arr) for arr in arrays]
    ref_ops = [build(ref_cls, arr) for arr in arrays]
    new_out, new_delta = metered(lambda: op(new_cls, *new_ops))
    ref_out, ref_delta = metered(lambda: op(ref_cls, *ref_ops))
    assert state(new_out) == state(ref_out)
    assert [state(s) for s in new_ops] == [state(s) for s in ref_ops]
    assert new_delta == ref_delta


def _assign(cls, a, b):
    target = cls.empty()
    target.intersect_assign(a, b)
    return target


def _inplace(cls, a, b):
    a.intersect_inplace(b)
    return a


BINARY_OPS = {
    "intersect": lambda cls, a, b: a.intersect(b),
    "intersect_count": lambda cls, a, b: a.intersect_count(b),
    "union": lambda cls, a, b: a.union(b),
    "diff": lambda cls, a, b: a.diff(b),
    "diff_reversed": lambda cls, a, b: b.diff(a),
    "intersect_inplace": _inplace,
    "intersect_assign": _assign,
}
UNARY_OPS = {
    "to_array": lambda cls, a: a.to_array(),
    "cardinality": lambda cls, a: a.cardinality(),
    "is_empty": lambda cls, a: a.is_empty(),
    "storage_bytes": lambda cls, a: a.storage_bytes(),
    "iter": lambda cls, a: list(a),
    "empty": lambda cls, a: cls.empty(),
}


def point_ops(elements):
    """add/remove/contains of absent and present elements."""
    ops = {}
    for e in elements:
        ops[f"add {e}"] = lambda cls, a, e=e: a.add(e)
        ops[f"remove {e}"] = lambda cls, a, e=e: a.remove(e)
        ops[f"contains {e}"] = lambda cls, a, e=e: a.contains(e)
        ops[f"add+remove {e}"] = lambda cls, a, e=e: (a.add(e), a.remove(e))
    return ops


def probes(arr: np.ndarray, extra: int):
    """Point-op elements: the probe itself plus present first/last members."""
    picked = [int(extra)]
    if len(arr):
        picked += [int(arr[0]), int(arr[-1]), int(arr[len(arr) // 2])]
    return picked


# ---------------------------------------------------------------------------
# Operand strategies
# ---------------------------------------------------------------------------


def _members(seed, size, universe, dense_chunk, run):
    rng = np.random.default_rng(seed)
    parts = [rng.choice(universe, size=min(size, universe), replace=False)]
    if dense_chunk is not None:  # > 4096 members in one chunk: bitmap
        parts.append((dense_chunk << _CHUNK_BITS)
                     + rng.choice(_CHUNK_SIZE, size=5000, replace=False))
    if run is not None:  # one long consecutive run: a run container
        parts.append(np.arange(run, run + 300))
    return np.unique(np.concatenate(parts)).astype(np.int64)


_seeds = st.integers(0, 2**32 - 1)
#: Empty, singleton, small (the suite-deep neighbourhood size) and large,
#: so independently drawn pairs are often skewed.
_sizes = st.sampled_from([0, 1, 2, 15, 16, 40, 300]) | st.integers(0, 64)

small_universe = st.builds(_members, _seeds, _sizes, st.just(2000),
                           st.none(), st.none())
bitset_operands = st.builds(_members, _seeds, _sizes,
                            st.sampled_from([64, 2000, 20_000]),
                            st.none(), st.none())
roaring_operands = st.builds(
    _members, _seeds, _sizes,
    st.sampled_from([2000, 3 * _CHUNK_SIZE]),
    st.none() | st.integers(0, 2),
    st.none() | st.integers(0, 3 * _CHUNK_SIZE - 300),
)
probe_elements = st.integers(0, 3 * _CHUNK_SIZE)


def _roaring_build(run_optimize):
    def build(cls, arr):
        s = cls.from_sorted_array(arr)
        if run_optimize:
            s.run_optimize()
        return s
    return build


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(a=small_universe, b=small_universe, e=st.integers(0, 2100))
def test_sorted_set_matches_reference(a, b, e):
    for name in ("diff", "diff_reversed"):
        check(SortedSet, RefSortedSet, BINARY_OPS[name], a, b)
    check(SortedSet, RefSortedSet, UNARY_OPS["empty"], a)
    for op in point_ops(probes(a, e)).values():
        check(SortedSet, RefSortedSet, op, a)


@settings(max_examples=60, deadline=None)
@given(a=st.one_of(small_universe, st.builds(
    _members, _seeds, st.integers(30, 600), st.just(700), st.none(),
    st.none())), e=st.integers(0, 800))
def test_adaptive_set_point_ops_match_reference(a, e):
    # The second operand family is dense enough to carry a bitmap.
    check(AdaptiveSet, RefAdaptiveSet, UNARY_OPS["empty"], a)
    for op in point_ops(probes(a, e)).values():
        check(AdaptiveSet, RefAdaptiveSet, op, a)


@settings(max_examples=60, deadline=None)
@given(a=bitset_operands, b=bitset_operands)
def test_bitset_matches_reference(a, b):
    for op in BINARY_OPS.values():
        check(BitSet, RefBitSet, op, a, b)
    check(BitSet, RefBitSet, UNARY_OPS["to_array"], a)


@settings(max_examples=60, deadline=None)
@given(a=small_universe, b=small_universe)
def test_hash_set_intersect_count_matches_reference(a, b):
    check(HashSet, RefHashSet, BINARY_OPS["intersect_count"], a, b)


@settings(max_examples=60, deadline=None)
@given(a=roaring_operands, b=roaring_operands, e=probe_elements,
       run_optimize=st.booleans())
def test_roaring_set_matches_reference(a, b, e, run_optimize):
    build = _roaring_build(run_optimize)
    check(RoaringSet, RefRoaringSet,
          lambda cls, arr: cls.from_sorted_array(arr), a, build=lambda c, x: x)
    for op in BINARY_OPS.values():
        check(RoaringSet, RefRoaringSet, op, a, b, build=build)
    for op in UNARY_OPS.values():
        check(RoaringSet, RefRoaringSet, op, a, build=build)
    for op in point_ops(probes(a, e)).values():
        check(RoaringSet, RefRoaringSet, op, a, build=build)


def test_operand_strategies_reach_every_container_kind():
    """The roaring operands exercise multi-chunk sets and all three
    container kinds (guards the strategy, not the implementation)."""
    arr = _members(1, 40, 3 * _CHUNK_SIZE, 1, 140_000)
    s = RoaringSet.from_sorted_array(arr)
    assert len(s._chunks) > 1 and s.container_kinds().get("b") == 1
    s.run_optimize()
    assert s.container_kinds().get("r", 0) >= 1


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(small_universe, min_size=1, max_size=5),
       edits=st.lists(st.tuples(st.integers(0, 4), st.booleans(),
                                st.integers(0, 2000)), max_size=20))
def test_row_edits_leave_shared_csr_values_alone(rows, edits):
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    values = (np.concatenate(rows) if any(len(r) for r in rows)
              else np.empty(0, dtype=np.int64))
    original = values.copy()
    for cls in (SortedSet, AdaptiveSet):
        sets = cls.from_csr(offsets, values)
        truth = [set(r.tolist()) for r in rows]
        for row, add, element in edits:
            row %= len(rows)
            if add:
                sets[row].add(element)
                truth[row].add(element)
            else:
                sets[row].remove(element)
                truth[row].discard(element)
        assert np.array_equal(values, original)
        assert [s.to_array().tolist() for s in sets] == [
            sorted(t) for t in truth]
