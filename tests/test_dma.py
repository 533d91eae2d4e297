"""Tests for the DMA engine: transaction splitting and page divergence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.address import (
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
    AddressError,
    Extent,
    page_number,
)
from repro.memory.layout import TensorLayout
from repro.npu.config import NPUConfig
from repro.npu.dma import (
    DMAEngine,
    FetchSpec,
    PageDivergence,
    distinct_pages,
    page_divergence_of_fetches,
)
from tests.test_columnar import golden_runs


def fetch_2d(rows, cols, elem=4, base=0x10_0000_0000, starts=(0, 0), sizes=None):
    layout = TensorLayout("t", base, (rows, cols), elem)
    sizes = sizes or (rows, cols)
    return FetchSpec("w", layout, starts, sizes)


class TestTransactions:
    def test_cover_fetch_exactly(self):
        dma = DMAEngine(NPUConfig(dma_transaction_bytes=256))
        fetch = fetch_2d(8, 1024)
        txs = list(dma.transactions(fetch))
        assert sum(size for _, size in txs) == fetch.nbytes
        # In order, no gaps within the contiguous region.
        for (va_a, sz_a), (va_b, _) in zip(txs, txs[1:]):
            assert va_a + sz_a == va_b

    def test_max_size_respected(self):
        dma = DMAEngine(NPUConfig(dma_transaction_bytes=256))
        txs = dma.transactions(fetch_2d(4, 1024))
        assert all(size <= 256 for _, size in txs)

    def test_never_cross_page_boundary(self):
        dma = DMAEngine(NPUConfig(dma_transaction_bytes=1024))
        # Base offset 3000 into a page forces a straddle without splitting.
        txs = dma.transactions(fetch_2d(4, 2048, base=0x10_0000_0000 + 3000))
        for va, size in txs:
            assert page_number(va) == page_number(va + size - 1)

    def test_strided_tile_many_transactions(self):
        dma = DMAEngine(NPUConfig(dma_transaction_bytes=1024))
        # A column slice of a wide matrix: one transaction per row.
        fetch = fetch_2d(128, 4096, starts=(0, 0), sizes=(128, 64))
        txs = dma.transactions(fetch)
        assert len(txs) == 128
        assert all(size == 64 * 4 for _, size in txs)

    def test_transaction_count_helper(self):
        dma = DMAEngine()
        fetch = fetch_2d(16, 256)
        assert dma.transaction_count(fetch) == len(dma.transactions(fetch))

    def test_multi_mb_tile_yields_thousands(self):
        """Section III-C: a multi-MB tile decomposes into thousands of
        translations — the burst the whole paper is about."""
        dma = DMAEngine(NPUConfig(dma_transaction_bytes=256))
        fetch = fetch_2d(1280, 1024)  # 5 MB
        assert dma.transaction_count(fetch) >= 5 * 1024 * 1024 // 256

    @given(
        st.integers(1, 64),
        st.integers(1, 2048),
        st.sampled_from([64, 256, 1024]),
        st.integers(0, PAGE_SIZE_4K - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_split_invariants(self, rows, cols, tx_bytes, page_offset):
        dma = DMAEngine(NPUConfig(dma_transaction_bytes=tx_bytes))
        fetch = fetch_2d(rows, cols, base=0x10_0000_0000 + page_offset)
        txs = dma.transactions(fetch)
        assert sum(s for _, s in txs) == fetch.nbytes
        for va, size in txs:
            assert size <= tx_bytes
            assert page_number(va) == page_number(va + size - 1)

    @given(
        st.sampled_from([64, 256, 1024]),
        st.sampled_from([PAGE_SIZE_4K, PAGE_SIZE_2M]),
        st.sampled_from([1, 2, 4]),
        st.integers(1, 4),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_stream_matches_split_transactions(
        self, max_bytes, run_page_size, elem, ndim, data
    ):
        """The emitter is ``Extent.split_transactions`` over the fetch's
        extents, in order, and its runs are the pairs' same-page runs.

        Bases sit within 16 KB of a 2 MB boundary, so tiles cross 4 KB
        and 2 MB pages, misaligned or 256 B aligned.
        """
        shape = [data.draw(st.integers(1, 4)) for _ in range(ndim - 1)]
        shape.append(
            data.draw(
                st.one_of(
                    st.integers(1, 3 * PAGE_SIZE_4K // elem),
                    st.integers(1, 48).map(lambda k: k * 256 // elem),
                )
            )
        )
        starts, sizes = [], []
        for dim in shape:
            start = data.draw(st.one_of(st.just(0), st.integers(0, dim - 1)))
            starts.append(start)
            sizes.append(data.draw(st.integers(1, dim - start)))
        base = (
            0x10_0000_0000
            + data.draw(st.integers(1, 3)) * PAGE_SIZE_2M
            + data.draw(st.integers(-64, 64))
            * data.draw(st.sampled_from([1, 4, 256]))
        )
        layout = TensorLayout("t", base, tuple(shape), elem)
        fetch = FetchSpec("w", layout, tuple(starts), tuple(sizes))
        dma = DMAEngine(NPUConfig(dma_transaction_bytes=max_bytes))
        dma.run_page_size = run_page_size
        stream = dma.transactions(fetch)
        expected = [
            (piece.va, piece.length)
            for extent in fetch.extents()
            for piece in extent.split_transactions(max_bytes)
        ]
        assert list(stream) == expected
        assert len(stream) == len(expected)
        assert stream.page_size == run_page_size
        assert stream.runs == golden_runs(expected, run_page_size)


class TestSignature:
    def test_excludes_position_and_name(self):
        a = FetchSpec("w", TensorLayout("layer1.w", 0, (64, 64), 4), (0, 0), (8, 64))
        b = FetchSpec("w", TensorLayout("layer9.w", 4096, (64, 64), 4), (8, 0), (8, 64))
        assert a.signature == b.signature

    def test_distinguishes_shape(self):
        a = fetch_2d(8, 64)
        b = fetch_2d(8, 128)
        assert a.signature != b.signature

    def test_distinguishes_stream(self):
        layout = TensorLayout("t", 0, (8, 8), 4)
        a = FetchSpec("ia", layout, (0, 0), (8, 8))
        b = FetchSpec("w", layout, (0, 0), (8, 8))
        assert a.signature != b.signature


class TestDistinctPages:
    def test_empty(self):
        assert distinct_pages([]) == 0

    def test_single_extent(self):
        assert distinct_pages([Extent(0, PAGE_SIZE_4K * 3)]) == 3
        assert distinct_pages([Extent(100, 10)]) == 1

    def test_adjacent_extents_share_page(self):
        extents = [Extent(0, 100), Extent(100, 100)]
        assert distinct_pages(extents) == 1

    def test_unsorted_input(self):
        extents = [Extent(PAGE_SIZE_4K * 5, 10), Extent(0, 10)]
        assert distinct_pages(extents) == 2

    def test_overlapping_extents_not_double_counted(self):
        extents = [Extent(0, PAGE_SIZE_4K * 2), Extent(PAGE_SIZE_4K, PAGE_SIZE_4K * 2)]
        assert distinct_pages(extents) == 3

    @given(
        st.lists(
            st.tuples(st.integers(0, 200_000), st.integers(1, 20_000)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=100)
    def test_property_matches_bruteforce(self, raw):
        extents = [Extent(va, ln) for va, ln in raw]
        pages = set()
        for e in extents:
            pages.update(
                range(page_number(e.va), page_number(e.end - 1) + 1)
            )
        assert distinct_pages(extents) == len(pages)

    def test_tile_rejects_unsupported_page_size(self):
        tile = fetch_2d(4, 1024).extents()
        with pytest.raises(AddressError):
            distinct_pages(tile, 8192)
        with pytest.raises(AddressError):
            distinct_pages(list(tile), 8192)

    @given(
        st.sampled_from([PAGE_SIZE_4K, PAGE_SIZE_2M]),
        st.sampled_from([1, 2, 4]),
        st.integers(1, 3),
        st.integers(1, 48),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_tile_column_count_matches_loop(self, page_size, elem, outer, rows, data):
        # Rows of half a page to three pages, at a misaligned base, so
        # runs straddle page boundaries and neighbours can share a page.
        cols = data.draw(st.integers(page_size // 2, 3 * page_size)) // elem
        col_start = data.draw(st.integers(0, cols - 1))
        col_size = data.draw(st.integers(1, cols - col_start))
        outer_start = data.draw(st.integers(0, outer - 1))
        row_start = data.draw(st.integers(0, rows - 1))
        base = data.draw(st.integers(0, 8)) * page_size + data.draw(
            st.integers(0, page_size - 1)
        )
        layout = TensorLayout("t", base, (outer, rows, cols), elem)
        tile = FetchSpec(
            "ia",
            layout,
            (outer_start, row_start, col_start),
            (outer - outer_start, rows - row_start, col_size),
        ).extents()
        assert distinct_pages(tile, page_size) == distinct_pages(list(tile), page_size)


class TestPageDivergence:
    def test_from_counts(self):
        d = PageDivergence.from_counts([10, 20, 30])
        assert d.max_pages == 30
        assert d.mean_pages == pytest.approx(20.0)
        assert d.fetches == 3

    def test_empty(self):
        d = PageDivergence.from_counts([])
        assert d.max_pages == 0
        assert d.fetches == 0

    def test_of_fetches(self):
        fetches = [fetch_2d(1, 1024), fetch_2d(4, 1024)]
        d = page_divergence_of_fetches(fetches)
        assert d.fetches == 2
        assert d.max_pages >= d.mean_pages

    def test_multi_mb_tile_exceeds_1k_pages(self):
        """Section III-C: a 5 MB tile touches ≥1.2K distinct 4 KB pages."""
        fetch = fetch_2d(1280, 1024)  # 5 MB dense
        d = page_divergence_of_fetches([fetch])
        assert d.max_pages >= 1280
