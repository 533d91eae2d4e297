"""The DMA's transaction stream: one burst, from the emitter to the engine.

Section III-C: the DMA turns each tile into linearized transactions,
issued one per cycle, about 16 per 4 KB page.  :class:`TransactionStream`
is the one representation of such a burst.  The DMA emits it
(:meth:`repro.npu.dma.DMAEngine.transactions`) and every engine path
consumes it (:meth:`repro.core.engine.TranslationEngine.run_burst` wraps
anything else once with :meth:`TransactionStream.from_pairs`).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np
import numpy.typing as npt

from ..memory.address import PAGE_SIZE_4K

#: One DMA transaction: (virtual address, size in bytes).
Transaction = Tuple[int, int]


class TransactionStream:
    """Structure-of-arrays transaction stream with same-page run metadata.

    The storage is a pair of parallel NumPy columns: ``vas`` (int64
    virtual addresses) and ``sizes`` (int64 byte counts, or ``None`` with
    ``uniform_size`` set when every transaction is the same size, the
    DMA's dominant 256 B shape).  Per-*run* metadata is derived once,
    vectorized, at construction: ``run_ends`` (exclusive end index of each
    maximal same-page run at ``page_size``) and ``run_streamable`` (whether
    the run is a contiguous uniform 256 B stream, the closed-form
    precondition).  The ASID is a per-burst scalar (a stream never mixes
    address spaces; ``run_burst(asid=...)`` carries it), and issue cycles
    are affine in the index (the DMA issues one transaction per cycle).

    ``len`` and iteration yield the ``(va, size)`` tuples.  Hot engine
    loops instead bind :attr:`va_list`/:attr:`size_list` and walk
    :attr:`runs`, plain-list projections materialized lazily, once per
    stream.  A stream is never mutated after construction, so the
    simulator shares the streams of a cached schedule across runs.
    """

    __slots__ = (
        "vas", "sizes", "uniform_size", "run_ends", "run_streamable",
        "page_size", "_va_list", "_size_list", "_runs",
    )

    def __init__(
        self,
        vas: npt.NDArray[np.int64],
        sizes: Optional[npt.NDArray[np.int64]],
        uniform_size: int,
        page_size: int = PAGE_SIZE_4K,
    ) -> None:
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
        vas: npt.NDArray[np.int64],
        sizes: Optional[npt.NDArray[np.int64]],
        uniform_size: int,
        page_size: int,
    ) -> Tuple[npt.NDArray[np.int64], npt.NDArray[np.bool_]]:
        """Vectorized same-page run derivation.

        A run breaks at every page-number change; a run is streamable
        when each of its transactions is 256 bytes and (except the run
        head) virtually contiguous with its predecessor.
        """
        n = int(vas.shape[0])
        if n == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.bool_)
        page_bits = page_size.bit_length() - 1
        pages = vas >> page_bits
        head = np.empty(n, dtype=np.bool_)
        head[0] = True
        head[1:] = pages[1:] != pages[:-1]
        run_starts = np.flatnonzero(head)
        run_ends = np.empty(run_starts.shape[0], dtype=np.int64)
        run_ends[:-1] = run_starts[1:]
        run_ends[-1] = n
        # A transaction breaks its run's streamability when it is not
        # 256 B, or when it follows a same-page VA gap.
        bad = np.empty(n, dtype=np.bool_)
        bad[0] = False
        if sizes is None:
            bad[1:] = vas[1:] != vas[:-1] + uniform_size
            bad &= ~head
            if uniform_size != 256:
                bad[:] = True
        else:
            bad[1:] = vas[1:] != vas[:-1] + sizes[:-1]
            bad &= ~head
            bad |= sizes != 256
        csum = np.zeros(n + 1, dtype=np.int64)
        csum[1:] = np.cumsum(bad)
        run_streamable: npt.NDArray[np.bool_] = (
            csum[run_ends] == csum[run_starts]
        )
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
        """Same-page runs as ``(end_index, streamable)`` pairs, in order."""
        out = self._runs
        if out is None:
            out = self._runs = list(
                zip(self.run_ends.tolist(), self.run_streamable.tolist())
            )
        return out

    def __len__(self) -> int:
        return int(self.vas.shape[0])

    def __iter__(self) -> Iterator[Transaction]:
        return zip(self.va_list, self.size_list)

    @classmethod
    def from_pairs(
        cls, pairs: Burst, page_size: int = PAGE_SIZE_4K
    ) -> TransactionStream:
        """The stream of ``pairs`` (a ``(va, size)`` sequence, or a stream
        built at another page size), with its runs at ``page_size``."""
        va_list = [va for va, _ in pairs]
        size_list = [size for _, size in pairs]
        vas = np.array(va_list, dtype=np.int64)
        if size_list and size_list.count(size_list[0]) == len(size_list):
            stream = cls(vas, None, size_list[0], page_size)
        else:
            stream = cls(
                vas, np.array(size_list, dtype=np.int64), 0, page_size
            )
        stream._va_list = va_list
        stream._size_list = size_list
        return stream


#: What :meth:`~repro.core.engine.TranslationEngine.run_burst` accepts: the
#: DMA's stream, or any ``(va, size)`` sequence (wrapped once on entry).
Burst = Union[Sequence[Transaction], TransactionStream]
