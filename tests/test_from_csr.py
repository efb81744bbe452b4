"""Bulk CSR construction: ``SetBase.from_csr`` and the SetGraph builders.

Every set ``cls.from_csr(offsets, values)`` builds must equal the per-row
``cls.from_sorted_array(row)`` build — same members, same layout, same
storage size — for every registered backend, including unsorted or
duplicated rows (which must still be normalized), empty rows, no rows and
non-``int64`` input.  Sizes, counters and zero-copy views of the
materialization paths that call it are pinned here as well.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import counters
from repro.core.bit_set import BitSet
from repro.core.dispatch import AdaptiveSet
from repro.core.ops import csr_sorted_unique
from repro.core.registry import SET_CLASSES
from repro.core.roaring import RoaringSet
from repro.core.sorted_set import SortedSet
from repro.graph import build_undirected
from repro.graph.set_graph import (
    MaterializationCache,
    build_oriented_set_graph,
    build_set_graph,
    flatten_set_graph,
    unflatten_set_graph,
)
from repro.graph.transforms import oriented_arcs
from repro.preprocess.ordering import compute_ordering
from tests.conftest import EXACT_SET_CLASSES, random_csr

CLASSES = sorted(set(SET_CLASSES.values()), key=lambda c: c.__name__)

rows_strategy = st.lists(
    st.lists(st.integers(min_value=0, max_value=5000), max_size=30),
    max_size=12,
)
dtypes = st.sampled_from([np.int64, np.int32, np.uint16, np.int16])


def _csr(rows, dtype=np.int64):
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=offsets[1:])
    values = np.array([x for r in rows for x in r], dtype=dtype)
    return offsets, values


def _per_row(cls, offsets, values):
    return [cls.from_sorted_array(values[offsets[v]:offsets[v + 1]])
            for v in range(len(offsets) - 1)]


def _assert_same_sets(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert g == w
        assert np.array_equal(g.to_array(), w.to_array())
        assert g.storage_bytes() == w.storage_bytes()
        rep = getattr(g, "representation", None)
        if callable(rep):
            assert rep() == w.representation()


@settings(max_examples=60, deadline=None)
@given(rows=rows_strategy, dtype=dtypes, presort=st.booleans())
def test_from_csr_equals_per_row_build(rows, dtype, presort):
    if presort:
        rows = [sorted(set(r)) for r in rows]
    offsets, values = _csr(rows, dtype)
    for cls in CLASSES:
        _assert_same_sets(cls.from_csr(offsets, values),
                          _per_row(cls, offsets, values))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_no_rows_and_empty_rows(cls):
    assert cls.from_csr(np.zeros(1, dtype=np.int64),
                        np.empty(0, dtype=np.int64)) == []
    offsets, values = _csr([[], [3, 1, 3], [], [], [0, 2]])
    built = cls.from_csr(offsets, values)
    _assert_same_sets(built, _per_row(cls, offsets, values))
    if cls.IS_EXACT:  # sketches keep their per-row input contract
        assert [s.cardinality() for s in built] == [0, 2, 0, 0, 2]


class TestCsrSortedUnique:
    def test_valid_int64_rows_pass_through_as_views(self):
        offsets, values = _csr([[1, 5, 9], [0, 2], [], [7]])
        out_offsets, out_values = csr_sorted_unique(offsets, values)
        assert np.shares_memory(out_values, values)
        assert np.array_equal(out_offsets, offsets)

    def test_only_failing_rows_are_normalized(self):
        offsets, values = _csr([[1, 5], [9, 3, 3], [2, 4], [6, 6], [8]])
        out_offsets, out_values = csr_sorted_unique(offsets, values)
        rows = [out_values[a:b].tolist()
                for a, b in zip(out_offsets[:-1], out_offsets[1:])]
        assert rows == [[1, 5], [3, 9], [2, 4], [6], [8]]

    def test_descending_across_a_row_boundary_is_valid(self):
        offsets, values = _csr([[5, 9], [1, 2], [0]])
        _, out_values = csr_sorted_unique(offsets, values)
        assert np.shares_memory(out_values, values)

    @pytest.mark.parametrize("offsets", [[], [0, 3, 2, 4], [0, 9],
                                         [0, 3], [1, 4], [-1, 4]])
    def test_malformed_offsets_are_rejected(self, offsets):
        with pytest.raises(ValueError):
            csr_sorted_unique(np.array(offsets, dtype=np.int64),
                              np.arange(4, dtype=np.int64))


class TestBitSetStaging:
    @pytest.mark.parametrize("staging", [1, 7, 64, 1000])
    def test_chunked_staging_matches_per_row(self, monkeypatch, staging):
        import repro.core.bit_set as bit_set

        monkeypatch.setattr(bit_set, "_CSR_STAGING_BYTES", staging)
        csr, _ = random_csr(80, 400, 71)
        _assert_same_sets(BitSet.from_csr(csr.offsets, csr.adjacency),
                          _per_row(BitSet, csr.offsets, csr.adjacency))

    def test_large_universe_graph_matches_per_row(self):
        # Rows reaching past vertex 9M need more than a 1 MiB buffer, let
        # alone the real staging bound, so each gets a buffer of its own;
        # the narrow rows between them share chunks.
        import repro.core.bit_set as bit_set

        narrow = 2 * 8 * bit_set._CSR_STAGING_BYTES // 5
        rng = np.random.default_rng(5)
        rows = [np.unique(rng.integers(0, narrow, size=40))
                for _ in range(30)]
        rows[4] = np.array([3, 9_000_000, 9_500_000])
        rows[17] = np.array([0, 9_000_001])
        rows[20] = np.array([], dtype=np.int64)
        offsets, values = _csr([r.tolist() for r in rows])
        sg = unflatten_set_graph(offsets, values, BitSet, directed=True)
        _assert_same_sets(list(sg._neighborhoods),
                          _per_row(BitSet, offsets, values))
        assert sg.out_neigh(4).to_array().tolist() == [3, 9_000_000,
                                                       9_500_000]


@pytest.mark.parametrize("cls", [SortedSet, AdaptiveSet],
                         ids=lambda c: c.__name__)
def test_unflatten_rows_are_views_of_the_values(cls):
    csr, _ = random_csr(40, 200, 72)
    offsets, values = flatten_set_graph(build_set_graph(csr, cls))
    sg = unflatten_set_graph(offsets, values, cls, directed=False)
    nonempty = [s for s in sg._neighborhoods if s.cardinality()]
    assert nonempty
    assert all(np.shares_memory(s._data, values) for s in nonempty)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_builders_match_per_row_materialization(cls):
    csr, _ = random_csr(50, 260, 73)
    rank = compute_ordering(csr, "DGR").rank
    _assert_same_sets(build_set_graph(csr, cls)._neighborhoods,
                      _per_row(cls, csr.offsets, csr.adjacency))
    arcs = oriented_arcs(csr, rank)
    _assert_same_sets(build_oriented_set_graph(csr, rank, cls)._neighborhoods,
                      _per_row(cls, *arcs))


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_cache_counter_delta_matches_per_row_build(cls):
    csr, _ = random_csr(50, 260, 74)
    before = counters.snapshot()
    cache = MaterializationCache()
    cache.set_graph(csr, cls)
    cache.oriented(csr, cls, "DGR")
    bulk = before.delta(counters.snapshot())
    before = counters.snapshot()
    _per_row(cls, csr.offsets, csr.adjacency)
    _per_row(cls, *oriented_arcs(csr, compute_ordering(csr, "DGR").rank))
    assert bulk == before.delta(counters.snapshot())


def _old_storage_bytes(sg) -> int:
    """Reference copy of the type-dispatch chain SetGraph.storage_bytes
    used before every set class carried its own ``storage_bytes()`` (its
    ``hasattr(s, "storage_bytes")`` arm, now true for every set, names
    the two classes it matched)."""
    total = 0
    for s in sg._neighborhoods:
        if isinstance(s, RoaringSet):
            total += s.storage_bytes()
        elif type(s).__name__ in ("AdaptiveSet", "CompressedSortedSet"):
            total += s.storage_bytes()
        elif hasattr(s, "storage_bits"):
            total += s.storage_bits() // 8 + 1
        elif type(s).__name__ == "HashSet":
            total += 32 * max(s.cardinality(), 8)
        else:
            total += 8 * s.cardinality()
    return total


@pytest.mark.parametrize("cls", EXACT_SET_CLASSES, ids=lambda c: c.__name__)
def test_storage_bytes_totals_are_unchanged(cls):
    # A dense clique block gives the adaptive backend bitmap rows too.
    clique = [(u, v) for u in range(20) for v in range(u + 1, 20)]
    csr, _ = random_csr(120, 500, 75)
    dense = build_undirected(40, clique + [(20 + i, 21 + i) for i in range(19)])
    for graph in (csr, dense):
        rank = compute_ordering(graph, "DGR").rank
        for sg in (build_set_graph(graph, cls),
                   build_oriented_set_graph(graph, rank, cls)):
            assert sg.storage_bytes() == _old_storage_bytes(sg)
    cache = MaterializationCache(budget_bytes=3 * _old_storage_bytes(
        build_set_graph(csr, cls)) // 2)
    cache.set_graph(csr, cls)
    cache.oriented(csr, cls, "DGR")
    cache.set_graph(dense, cls)
    assert cache.resident_bytes == sum(
        _old_storage_bytes(sg) for sg in cache._graphs.values())
