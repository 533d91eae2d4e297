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
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..memory.address import PAGE_SIZE_4K, Extent, page_number, page_offset_bits
from ..memory.layout import TensorLayout, TileExtents
from .config import NPUConfig

#: One DMA transaction: (virtual address, size in bytes).
Transaction = Tuple[int, int]


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


class TransactionStream(List[Transaction]):
    """A transaction list annotated with same-page *run* metadata.

    ``runs`` partitions the stream into maximal same-page runs as
    ``(end_index, streamable)`` pairs in index order; a run is *streamable*
    when every transaction in it is 256 bytes and virtually contiguous with
    its predecessor — the structure the translation engine's batched fast
    path needs, known for free at linearization time.  ``page_size`` is the
    page size the runs were computed for; consumers must ignore the
    metadata when their own page size differs.

    Being a ``list`` subclass, the stream is a drop-in transaction list for
    every existing consumer.
    """

    __slots__ = ("runs", "page_size")

    def __init__(self, page_size: int = PAGE_SIZE_4K):
        super().__init__()
        self.runs: List[Tuple[int, bool]] = []
        self.page_size = page_size


class ColumnarTransactionStream:
    """Structure-of-arrays transaction stream (the ``columnar`` engine mode).

    The canonical storage is a pair of parallel NumPy columns — ``vas``
    (int64 virtual addresses) and ``sizes`` (int64 byte counts, or ``None``
    with ``uniform_size`` set when every transaction is the same size, the
    DMA's dominant 256 B shape) — plus per-*run* metadata derived once,
    vectorized, at emission time: ``run_ends`` (exclusive end index of each
    maximal same-page run) and ``run_streamable`` (whether the run is a
    contiguous uniform 256 B stream, the closed-form precondition).  The
    remaining logical columns of the representation are implicit: the run
    VPNs are ``vas[start] >> log2(page_size)`` (see :meth:`run_vpns`), page
    offsets are ``vas & (page_size - 1)`` (:meth:`offsets`), the ASID is a
    per-burst scalar (a stream never mixes address spaces; the engine's
    ``run_burst(asid=...)`` carries it), and issue cycles are affine in the
    index (one transaction per ``issue_interval``).

    The object :class:`TransactionStream` stays the golden representation;
    this class is a *view*-style drop-in over the columns: ``len``,
    indexing, slicing and iteration yield the same ``(va, size)`` tuples,
    and :attr:`runs`/:attr:`page_size` present the same metadata shape, so
    every per-object consumer works unchanged.  Hot engine loops instead
    bind :attr:`va_list`/:attr:`size_list` — plain-list projections
    materialized lazily, once per stream — and consume column slices
    between interaction points.
    """

    __slots__ = (
        "vas", "sizes", "uniform_size", "run_ends", "run_streamable",
        "page_size", "_va_list", "_size_list", "_runs",
    )

    def __init__(
        self,
        vas: np.ndarray,
        sizes: Optional[np.ndarray],
        uniform_size: int,
        page_size: int = PAGE_SIZE_4K,
    ):
        self.vas = vas
        self.sizes = sizes
        #: Common transaction size when ``sizes`` is None (0 otherwise).
        self.uniform_size = uniform_size
        self.page_size = page_size
        self.run_ends, self.run_streamable = self._compute_runs(
            vas, sizes, uniform_size, page_size
        )
        self._va_list: Optional[List[int]] = None
        self._size_list: Optional[List[int]] = None
        self._runs: Optional[List[Tuple[int, bool]]] = None

    @staticmethod
    def _compute_runs(
        vas: np.ndarray,
        sizes: Optional[np.ndarray],
        uniform_size: int,
        page_size: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorized same-page run derivation.

        Element-for-element the same partition and streamability the
        scalar :meth:`DMAEngine.transactions` loop computes: a run breaks
        at every page-number change; a run is streamable when each of its
        transactions is 256 bytes and (except the run head) virtually
        contiguous with its predecessor.
        """
        n = int(vas.shape[0])
        if n == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)
        page_bits = page_size.bit_length() - 1
        pages = vas >> page_bits
        head = np.empty(n, dtype=bool)
        head[0] = True
        np.not_equal(pages[1:], pages[:-1], out=head[1:])
        run_starts = np.flatnonzero(head)
        run_ends = np.empty(run_starts.shape[0], dtype=np.int64)
        run_ends[:-1] = run_starts[1:]
        run_ends[-1] = n
        # A transaction breaks its run's streamability when it is not
        # 256 B, or when it follows a same-page VA gap.
        bad = np.empty(n, dtype=bool)
        bad[0] = False
        if sizes is None:
            np.not_equal(vas[1:], vas[:-1] + uniform_size, out=bad[1:])
            bad &= ~head
            if uniform_size != 256:
                bad[:] = True
        else:
            np.not_equal(vas[1:], vas[:-1] + sizes[:-1], out=bad[1:])
            bad &= ~head
            bad |= sizes != 256
        csum = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(bad, out=csum[1:])
        run_streamable = csum[run_ends] == csum[run_starts]
        return run_ends, run_streamable

    # -- plain-list projections (lazy, cached) ------------------------- #

    @property
    def va_list(self) -> List[int]:
        """Virtual addresses as a plain list (hot-loop projection)."""
        out = self._va_list
        if out is None:
            out = self._va_list = self.vas.tolist()
        return out

    @property
    def size_list(self) -> List[int]:
        """Transaction sizes as a plain list (hot-loop projection)."""
        out = self._size_list
        if out is None:
            if self.sizes is None:
                out = [self.uniform_size] * int(self.vas.shape[0])
            else:
                out = self.sizes.tolist()
            self._size_list = out
        return out

    @property
    def runs(self) -> List[Tuple[int, bool]]:
        """Legacy ``(end_index, streamable)`` run metadata view."""
        out = self._runs
        if out is None:
            out = self._runs = list(
                zip(self.run_ends.tolist(), self.run_streamable.tolist())
            )
        return out

    # -- derived columns ----------------------------------------------- #

    def run_vpns(self) -> np.ndarray:
        """Virtual page number of each run (at :attr:`page_size`)."""
        page_bits = self.page_size.bit_length() - 1
        if self.run_ends.shape[0] == 0:
            return np.empty(0, dtype=np.int64)
        starts = np.empty_like(self.run_ends)
        starts[0] = 0
        starts[1:] = self.run_ends[:-1]
        return self.vas[starts] >> page_bits

    def offsets(self) -> np.ndarray:
        """Per-transaction page offsets (at :attr:`page_size`)."""
        return self.vas & (self.page_size - 1)

    # -- per-object drop-in protocol ----------------------------------- #

    def __len__(self) -> int:
        return int(self.vas.shape[0])

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return list(zip(self.va_list[idx], self.size_list[idx]))
        return (self.va_list[idx], self.size_list[idx])

    def __iter__(self):
        return iter(zip(self.va_list, self.size_list))

    def __eq__(self, other):
        return list(self) == list(other)

    def __ne__(self, other):
        return not self.__eq__(other)

    @classmethod
    def from_pairs(
        cls, pairs: Sequence[Transaction], page_size: int = PAGE_SIZE_4K
    ) -> "ColumnarTransactionStream":
        """Columns from an object-path transaction list (tests, replay)."""
        n = len(pairs)
        vas = np.fromiter((va for va, _ in pairs), dtype=np.int64, count=n)
        size_arr = np.fromiter((s for _, s in pairs), dtype=np.int64, count=n)
        if n and (size_arr == size_arr[0]).all():
            return cls(vas, None, int(size_arr[0]), page_size)
        return cls(vas, size_arr, 0, page_size)


class DMAEngine:
    """Decomposes fetches into bounded, page-local transactions."""

    def __init__(self, config: NPUConfig | None = None):
        self.config = config or NPUConfig()
        #: Transactions never cross this boundary so one transaction always
        #: lives in one page (valid for both 4 KB and 2 MB translation).
        self.split_boundary = PAGE_SIZE_4K
        #: Page size used for the run metadata attached to generated
        #: streams (the MMU's translation page size; set by the simulator).
        self.run_page_size = PAGE_SIZE_4K
        #: When True, :meth:`transactions` emits columns natively
        #: (:class:`ColumnarTransactionStream`) instead of the per-object
        #: stream — set by the simulator for ``engine_mode="columnar"``.
        self.emit_columns = False
        #: Optional ``id(fetch) -> ColumnarTransactionStream`` memo, set by
        #: the simulator when its schedules come from the construction
        #: cache (pinned fetch identities).  Columnar streams are immutable
        #: array bundles, so sharing them across runs is safe; the mutable
        #: object-mode stream is never cached.
        self._stream_cache: Optional[Dict[int, ColumnarTransactionStream]] = None

    def transactions(self, fetch: FetchSpec) -> TransactionStream:
        """All transactions of one tile fetch, in DMA issue order.

        Inline arithmetic equivalent of
        :meth:`repro.memory.address.Extent.split_transactions` — this runs
        for every simulated tile, so object churn is avoided.  The result
        carries same-page run metadata (:class:`TransactionStream`).
        """
        if self.emit_columns:
            cache = self._stream_cache
            if cache is None:
                return self._transactions_columnar(fetch)
            # simlint: disable=det-hash-order -- id(fetch) is an opaque memo key (keyed lookup only, never ordered or iterated); the fetch list outlives the memo so the id cannot be recycled
            key = id(fetch)
            stream = cache.get(key)
            if stream is None:
                stream = cache[key] = self._transactions_columnar(fetch)
            return stream
        max_bytes = self.config.dma_transaction_bytes
        boundary = self.split_boundary
        offset_mask = boundary - 1
        page_size = self.run_page_size
        page_mask = ~(page_size - 1)
        txs = TransactionStream(page_size)
        runs = txs.runs
        append = txs.append
        extend = txs.extend
        vector_ok = max_bytes == 256
        idx = 0
        run_page = -1
        streamable = True
        prev_end = -1
        for extent in fetch.extents():
            va = extent.va
            remaining = extent.length
            if vector_ok and not va & 255 and remaining >= 256:
                # Vectorized emission of the dominant shape: a 256 B
                # aligned extent yields uniform back-to-back 256 B
                # transactions, whose same-page runs fall at page
                # boundaries computable arithmetically.  Bit-identical
                # to the scalar loop below (tests/test_dma.py), which
                # still handles the sub-256 B tail and unaligned heads.
                n_full = remaining >> 8
                end = va + (n_full << 8)
                page = va & page_mask
                if page != run_page:
                    if run_page >= 0:
                        runs.append((idx, streamable))
                    run_page = page
                    streamable = True
                elif va != prev_end:
                    streamable = False  # same page, but a gap in VA
                next_boundary = (va | (page_size - 1)) + 1
                if next_boundary < end:
                    for b in range(next_boundary, end, page_size):
                        runs.append((idx + ((b - va) >> 8), streamable))
                        streamable = True
                    run_page = (end - 256) & page_mask
                extend([(v, 256) for v in range(va, end, 256)])
                idx += n_full
                prev_end = end
                va = end
                remaining -= n_full << 8
            while remaining > 0:
                room = boundary - (va & offset_mask)
                chunk = room if room < max_bytes else max_bytes
                if chunk > remaining:
                    chunk = remaining
                page = va & page_mask
                if page != run_page:
                    if run_page >= 0:
                        runs.append((idx, streamable))
                    run_page = page
                    streamable = True
                elif va != prev_end:
                    streamable = False  # same page, but a gap in VA
                if chunk != 256:
                    streamable = False
                append((va, chunk))
                prev_end = va + chunk
                va = prev_end
                remaining -= chunk
                idx += 1
        if run_page >= 0:
            runs.append((idx, streamable))
        return txs

    def _transactions_columnar(self, fetch: FetchSpec) -> ColumnarTransactionStream:
        """Native column emission for one tile fetch.

        Same transaction sequence as the scalar path
        (``tests/test_columnar.py`` pins them to each other), but the
        dominant aligned-256 B extents are emitted as ``np.arange`` column
        segments instead of per-object tuples, and the same-page run
        metadata is derived vectorized over the finished columns.
        """
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
        return ColumnarTransactionStream(vas, sizes, 256 if uniform else 0,
                                         self.run_page_size)

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
