"""Tests for tensor layout and tile-extent decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.address import PAGE_SIZE_4K, AddressError, Extent
from repro.memory.layout import TensorLayout, coalesce_extents, extents_total_bytes


def reference_tile_extents(layout, starts, sizes):
    """Per-row loop decomposition of a tile: the reference for the column.

    Bounds are the caller's business; this walks the outer dimensions
    recursively and emits one :class:`Extent` per contiguous run.
    """
    ndim = len(layout.shape)
    contig_from = ndim
    while contig_from > 0:
        d = contig_from - 1
        if starts[d] == 0 and sizes[d] == layout.shape[d]:
            contig_from = d
        else:
            break
    if contig_from > 0:
        contig_from -= 1

    strides = layout.strides
    run_bytes = sizes[contig_from] * strides[contig_from]
    run_start = layout.base_va + starts[contig_from] * strides[contig_from]

    extents = []

    def recurse(dim, va):
        if dim == contig_from:
            extents.append(Extent(va, run_bytes))
            return
        base = va + starts[dim] * strides[dim]
        for i in range(sizes[dim]):
            recurse(dim + 1, base + i * strides[dim])

    recurse(0, run_start)
    return extents


def reference_extent_bytes(shape, starts, sizes, elem):
    """Brute-force byte set of a tile via numpy offsets."""
    offsets = np.arange(int(np.prod(shape)) * elem, dtype=np.int64).reshape(
        tuple(shape) + (elem,)
    )
    index = tuple(slice(s, s + z) for s, z in zip(starts, sizes))
    return set(offsets[index].ravel().tolist())


class TestBasics:
    def test_strides_row_major(self):
        t = TensorLayout("t", 0, (2, 3, 4), elem_bytes=4)
        assert t.strides == (48, 16, 4)

    def test_nbytes(self):
        t = TensorLayout("t", 0, (2, 3, 4), elem_bytes=4)
        assert t.nbytes == 96

    def test_element_va(self):
        t = TensorLayout("t", 1000, (2, 3, 4), elem_bytes=4)
        assert t.element_va((0, 0, 0)) == 1000
        assert t.element_va((1, 2, 3)) == 1000 + 48 + 32 + 12

    def test_element_va_bounds(self):
        t = TensorLayout("t", 0, (2, 3), elem_bytes=4)
        with pytest.raises(AddressError):
            t.element_va((2, 0))
        with pytest.raises(AddressError):
            t.element_va((0,))

    def test_rejects_bad_shapes(self):
        with pytest.raises(AddressError):
            TensorLayout("t", 0, ())
        with pytest.raises(AddressError):
            TensorLayout("t", 0, (0, 3))
        with pytest.raises(AddressError):
            TensorLayout("t", 0, (1,), elem_bytes=0)


class TestTileExtents:
    def test_full_tensor_single_extent(self):
        t = TensorLayout("t", 0, (4, 8), elem_bytes=4)
        extents = t.tile_extents((0, 0), (4, 8))
        assert len(extents) == 1
        assert extents[0].va == 0
        assert extents[0].length == t.nbytes

    def test_row_slice_contiguous(self):
        t = TensorLayout("t", 0, (4, 8), elem_bytes=4)
        extents = t.tile_extents((1, 0), (2, 8))
        assert len(extents) == 1
        assert extents[0].va == 32
        assert extents[0].length == 64

    def test_column_slice_strided(self):
        t = TensorLayout("t", 0, (4, 8), elem_bytes=4)
        extents = t.tile_extents((0, 2), (4, 3))
        assert len(extents) == 4
        assert [e.va for e in extents] == [8, 40, 72, 104]
        assert all(e.length == 12 for e in extents)

    def test_extents_ascending(self):
        t = TensorLayout("t", 0, (3, 5, 7), elem_bytes=2)
        extents = t.tile_extents((1, 1, 2), (2, 3, 4))
        vas = [e.va for e in extents]
        assert vas == sorted(vas)

    def test_out_of_bounds_rejected(self):
        t = TensorLayout("t", 0, (4, 8))
        with pytest.raises(AddressError):
            t.tile_extents((0, 0), (5, 8))
        with pytest.raises(AddressError):
            t.tile_extents((0, 7), (1, 2))
        with pytest.raises(AddressError):
            t.tile_extents((0, 0), (0, 1))

    def test_negative_run_va_rejected(self):
        t = TensorLayout("t", -64, (4, 8), elem_bytes=4)
        with pytest.raises(AddressError):
            t.tile_extents((0, 0), (4, 8))
        with pytest.raises(AddressError):
            t.tile_extents((1, 2), (2, 3))  # first run at -64 + 32 + 8
        # Only the runs' VAs must be non-negative, not the tensor base.
        got = t.tile_extents((2, 1), (2, 3))
        assert [(e.va, e.length) for e in got] == [(4, 12), (36, 12)]

    def test_end_va_must_fit_int64(self):
        int64_max = (1 << 63) - 1
        fits = TensorLayout("t", int64_max - 128, (4, 8), elem_bytes=4)
        assert fits.end_va == int64_max
        got = fits.tile_extents((0, 4), (4, 4))
        assert [(e.va, e.length) for e in got] == [
            (e.va, e.length)
            for e in reference_tile_extents(fits, (0, 4), (4, 4))
        ]
        too_far = TensorLayout("t", int64_max - 127, (4, 8), elem_bytes=4)
        with pytest.raises(AddressError):
            too_far.tile_extents((0, 0), (1, 1))

    def test_view_indexing(self):
        t = TensorLayout("t", 0, (4, 8), elem_bytes=4)
        extents = t.tile_extents((0, 2), (4, 3))
        assert extents
        assert extents[-1] == Extent(104, 12)
        assert extents[1:3] == [Extent(40, 12), Extent(72, 12)]
        with pytest.raises(IndexError):
            extents[4]

    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=4),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_loop_reference_exactly(self, shape, data):
        starts = [data.draw(st.integers(0, d - 1)) for d in shape]
        sizes = [data.draw(st.integers(1, d - s)) for d, s in zip(shape, starts)]
        elem = data.draw(st.sampled_from([1, 2, 4]))
        base = data.draw(st.integers(0, 64 * PAGE_SIZE_4K))
        t = TensorLayout("t", base, tuple(shape), elem_bytes=elem)
        got = [(e.va, e.length) for e in t.tile_extents(starts, sizes)]
        want = [
            (e.va, e.length) for e in reference_tile_extents(t, starts, sizes)
        ]
        assert got == want

    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=4),
        st.data(),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_numpy_reference(self, shape, data):
        starts = [data.draw(st.integers(0, d - 1)) for d in shape]
        sizes = [data.draw(st.integers(1, d - s)) for d, s in zip(shape, starts)]
        elem = data.draw(st.sampled_from([1, 2, 4]))
        t = TensorLayout("t", 0, tuple(shape), elem_bytes=elem)
        extents = t.tile_extents(tuple(starts), tuple(sizes))
        got = set()
        for e in extents:
            got.update(range(e.va, e.end))
        assert got == reference_extent_bytes(shape, starts, sizes, elem)

    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=4),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_total_bytes_matches_volume(self, shape, data):
        starts = [data.draw(st.integers(0, d - 1)) for d in shape]
        sizes = [data.draw(st.integers(1, d - s)) for d, s in zip(shape, starts)]
        t = TensorLayout("t", 0, tuple(shape), elem_bytes=4)
        extents = t.tile_extents(tuple(starts), tuple(sizes))
        volume = 4
        for s in sizes:
            volume *= s
        assert extents_total_bytes(extents) == volume


class TestCoalesce:
    def test_empty(self):
        assert coalesce_extents([]) == []

    def test_adjacent_merge(self):
        from repro.memory.address import Extent

        merged = coalesce_extents([Extent(0, 10), Extent(10, 5)])
        assert len(merged) == 1
        assert merged[0].length == 15

    def test_overlap_merge(self):
        from repro.memory.address import Extent

        merged = coalesce_extents([Extent(0, 10), Extent(5, 10)])
        assert len(merged) == 1
        assert merged[0].length == 15

    def test_disjoint_kept(self):
        from repro.memory.address import Extent

        merged = coalesce_extents([Extent(20, 5), Extent(0, 5)])
        assert [(e.va, e.length) for e in merged] == [(0, 5), (20, 5)]

    def test_contained_absorbed(self):
        from repro.memory.address import Extent

        merged = coalesce_extents([Extent(0, 100), Extent(10, 5)])
        assert len(merged) == 1
        assert merged[0].length == 100

    @given(
        st.lists(
            st.tuples(st.integers(0, 1000), st.integers(1, 100)),
            min_size=1,
            max_size=20,
        )
    )
    def test_property_coalesce_preserves_byte_set(self, raw):
        from repro.memory.address import Extent

        extents = [Extent(va, ln) for va, ln in raw]
        merged = coalesce_extents(extents)
        original = set()
        for e in extents:
            original.update(range(e.va, e.end))
        merged_set = set()
        for e in merged:
            merged_set.update(range(e.va, e.end))
        assert merged_set == original
        # Merged extents are sorted and strictly disjoint with gaps.
        for a, b in zip(merged, merged[1:]):
            assert a.end < b.va
