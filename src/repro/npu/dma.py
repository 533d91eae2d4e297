"""DMA engine: tiles → linearized extents → translated memory transactions.

Section III-C: "a single tile tensor can be decomposed into multiple,
linearized memory transactions by the DMA unit.  Each of these memory
transactions require address translation".  The DMA here takes a
:class:`FetchSpec` (a rectangular tile of a row-major tensor), expands it to
contiguous extents via :class:`~repro.memory.layout.TensorLayout`, and
splits those into transactions bounded by the DMA's maximum burst size,
never crossing a 4 KB boundary (so each transaction maps to exactly one
page at either page size).

It also computes the *page divergence* of a fetch — the number of distinct
pages a single tile touches — which is Figure 6's metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.stream import TransactionStream
from ..memory.address import PAGE_SIZE_4K, Extent, page_number, page_offset_bits
from ..memory.layout import TensorLayout, TileExtents
from .config import NPUConfig


@dataclass(frozen=True)
class FetchSpec:
    """A planned tile fetch: a rectangular slice of one tensor.

    ``tensor`` labels the stream ("ia" or "w"); ``signature`` (shape-only,
    no base address) is the key the FAST-fidelity simulator dedups on.
    """

    tensor: str
    layout: TensorLayout
    starts: Tuple[int, ...]
    sizes: Tuple[int, ...]

    @property
    def nbytes(self) -> int:
        """Bytes this fetch moves."""
        total = self.layout.elem_bytes
        for s in self.sizes:
            total *= s
        return total

    @property
    def signature(self) -> Tuple:
        """Shape-identity for dedup.

        Deliberately excludes the tensor *name* and tile *position*: two
        fetches of the same tile geometry from same-shaped tensors produce
        the same extent structure (all segments are 2 MB aligned), hence
        the same translation-timing class.  This is what lets the FAST
        fidelity mode reuse timings across repeated layers/blocks.
        """
        return (self.tensor, self.layout.shape, self.sizes)

    def extents(self) -> TileExtents:
        """Contiguous linear extents of the tile (ascending VA).

        A :class:`~repro.memory.layout.TileExtents` column view; it reads
        as a sequence of :class:`~repro.memory.address.Extent` objects.
        """
        return self.layout.tile_extents(self.starts, self.sizes)


class DMAEngine:
    """Decomposes fetches into bounded, page-local transactions."""

    def __init__(self, config: NPUConfig | None = None):
        self.config = config or NPUConfig()
        #: Transactions never cross this boundary so one transaction always
        #: lives in one page (valid for both 4 KB and 2 MB translation).
        self.split_boundary = PAGE_SIZE_4K
        #: Page size of the run metadata of emitted streams (the MMU's
        #: translation page size; set by the simulator).
        self.run_page_size = PAGE_SIZE_4K
        #: Optional ``id(fetch) -> TransactionStream`` memo, set by the
        #: simulator when its schedules come from the construction cache
        #: (pinned fetch identities).  Streams are never mutated, so
        #: sharing them across runs is safe.
        self._stream_cache: Optional[Dict[int, TransactionStream]] = None

    def transactions(self, fetch: FetchSpec) -> TransactionStream:
        """All transactions of one tile fetch, in DMA issue order.

        Inline arithmetic equivalent of
        :meth:`repro.memory.address.Extent.split_transactions` over the
        fetch's extents (``tests/test_dma.py`` pins the two to each
        other); this runs for every simulated tile, so object churn is
        avoided.  The dominant aligned-256 B extents are emitted as column
        ranges, and the stream derives its same-page run metadata at
        :attr:`run_page_size` vectorized over the finished columns.
        """
        cache = self._stream_cache
        if cache is not None:
            # simlint: disable=det-hash-order -- id(fetch) is an opaque memo key (keyed lookup only, never ordered or iterated); the fetch list outlives the memo so the id cannot be recycled
            key = id(fetch)
            stream = cache.get(key)
            if stream is not None:
                return stream
        max_bytes = self.config.dma_transaction_bytes
        boundary = self.split_boundary
        offset_mask = boundary - 1
        vector_ok = max_bytes == 256
        # Segment accumulator: every aligned extent is one (start, count)
        # range of back-to-back 256 B transactions; every boundary/tail
        # chunk is a (start, 1) singleton with its own size.  The columns
        # are then produced by ONE ragged-range expansion per burst — the
        # per-extent work stays pure-Python appends, so a tile of many
        # short rows pays no per-extent NumPy fixed cost.
        seg_va: List[int] = []
        seg_n: List[int] = []
        seg_size: List[int] = []
        uniform = True
        total = 0
        for extent in fetch.extents():
            va = extent.va
            remaining = extent.length
            if vector_ok and not va & 255 and remaining >= 256:
                n_full = remaining >> 8
                seg_va.append(va)
                seg_n.append(n_full)
                seg_size.append(256)
                total += n_full
                va += n_full << 8
                remaining -= n_full << 8
            while remaining > 0:
                room = boundary - (va & offset_mask)
                chunk = room if room < max_bytes else max_bytes
                if chunk > remaining:
                    chunk = remaining
                if chunk != 256:
                    uniform = False
                seg_va.append(va)
                seg_n.append(1)
                seg_size.append(chunk)
                total += 1
                va += chunk
                remaining -= chunk
        m = len(seg_va)
        if m == 0:
            vas = np.empty(0, dtype=np.int64)
            sizes = None
        elif m == 1:
            # Single segment: a bare range (or singleton) needs no ragged
            # expansion.
            vas = np.arange(
                seg_va[0], seg_va[0] + (seg_n[0] << 8), 256, dtype=np.int64
            ) if seg_n[0] > 1 else np.array(seg_va, dtype=np.int64)
            sizes = None if uniform else np.array(seg_size, dtype=np.int64)
        else:
            starts = np.fromiter(seg_va, dtype=np.int64, count=m)
            counts = np.fromiter(seg_n, dtype=np.int64, count=m)
            cum = np.cumsum(counts)
            # Index of each transaction within its segment, via the
            # ragged-range identity arange(total) - repeat(seg_base).
            base = np.repeat(cum - counts, counts)
            vas = np.repeat(starts, counts) + (
                (np.arange(total, dtype=np.int64) - base) << 8
            )
            sizes = (
                None
                if uniform
                else np.repeat(
                    np.fromiter(seg_size, dtype=np.int64, count=m), counts
                )
            )
        stream = TransactionStream(
            vas, sizes, 256 if uniform else 0, self.run_page_size
        )
        if cache is not None:
            cache[key] = stream
        return stream

    def transaction_count(self, fetch: FetchSpec) -> int:
        """Number of transactions without materializing them."""
        return len(self.transactions(fetch))


def distinct_pages(
    extents: Sequence[Extent], page_size: int = PAGE_SIZE_4K
) -> int:
    """Exact count of distinct pages touched by ``extents``.

    A :class:`~repro.memory.layout.TileExtents` (what
    :meth:`FetchSpec.extents` returns) is counted in closed form over its
    VA column.  Its runs are ascending and disjoint, so a run shares at
    most one page with the runs before it: its first page, exactly when
    that is the previous run's last page.  The count is therefore
    ``sum(last - first + 1) - #{i : first[i] == last[i - 1]}``.

    Any other extent list is sorted by VA and page runs are merged across
    adjacent extents, so overlapping or page-sharing rows are not
    double-counted.
    """
    if isinstance(extents, TileExtents):
        bits = page_offset_bits(page_size)
        vas = extents.vas
        first = vas >> bits
        last = (vas + (extents.length - 1)) >> bits
        shared = int(np.count_nonzero(first[1:] == last[:-1]))
        return int((last - first).sum()) + len(extents) - shared
    last_counted = -1
    total = 0
    for ext in sorted(extents, key=lambda e: e.va):
        first = page_number(ext.va, page_size)
        last = page_number(ext.end - 1, page_size)
        if first <= last_counted:
            first = last_counted + 1
        if last >= first:
            total += last - first + 1
            last_counted = last
    return total


@dataclass
class PageDivergence:
    """Figure 6's per-workload statistic."""

    max_pages: int
    mean_pages: float
    fetches: int

    @classmethod
    def from_counts(cls, counts: Iterable[int]) -> "PageDivergence":
        values = list(counts)
        if not values:
            return cls(max_pages=0, mean_pages=0.0, fetches=0)
        return cls(
            max_pages=max(values),
            mean_pages=sum(values) / len(values),
            fetches=len(values),
        )


def page_divergence_of_fetches(
    fetches: Iterable[FetchSpec], page_size: int = PAGE_SIZE_4K
) -> PageDivergence:
    """Distinct-page statistics over every tile fetch of a schedule."""
    counts = [distinct_pages(f.extents(), page_size) for f in fetches]
    return PageDivergence.from_counts(counts)
