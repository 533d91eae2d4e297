"""Pending request merging buffer (PRMB) — Section IV-A.

Each page-table walker carries a PRMB with a fixed number of *mergeable
slots*.  While the walker's translation is in flight, subsequent requests to
the same virtual page are parked in the PRMB rather than consuming walk
bandwidth; when the translation returns, merged requests are replayed to
the DMA engine "on a cycle-by-cycle basis".

The PRMB is the paper's translation *bandwidth filter*: with 8–32 slots it
absorbs most of a tile fetch's intra-page burst (Figure 10), and without it
every same-page request must either launch a redundant walk or stall
(Figure 12a shows the performance/energy consequence).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class MergeBufferStats:
    """Aggregate PRMB behaviour over a run."""

    merges: int = 0
    rejects_full: int = 0
    peak_occupancy: int = 0


class MergeBuffer:
    """One walker's PRMB.

    Only occupancy is tracked — the identity of merged requests lives with
    the engine, which knows each request's completion time is the walk's
    completion plus its drain position.
    """

    __slots__ = ("slots", "_occupied", "stats")

    def __init__(self, slots: int, stats: MergeBufferStats | None = None) -> None:
        if slots < 0:
            raise ValueError(f"PRMB slot count cannot be negative, got {slots}")
        self.slots = slots
        self._occupied = 0
        self.stats = stats if stats is not None else MergeBufferStats()

    @property
    def occupied(self) -> int:
        """Requests currently parked in this buffer."""
        return self._occupied

    def try_merge(self) -> int:
        """Attempt to park one request.

        Returns the request's *drain position* (1-based: the walk completion
        cycle plus this number is when the merged request is replayed), or
        0 when the buffer is full.
        """
        if self._occupied >= self.slots:
            self.stats.rejects_full += 1
            return 0
        self._occupied += 1
        self.stats.merges += 1
        if self._occupied > self.stats.peak_occupancy:
            self.stats.peak_occupancy = self._occupied
        return self._occupied

    #: Bytes per PRMB slot for the area model: VA tag plus request metadata
    #: is conservatively 8 bytes (Section IV-E).
    SLOT_BYTES = 8
