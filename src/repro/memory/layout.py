"""Tensor-to-linear-memory layout.

Activations and weights are multi-dimensional tensors "mapped to a
traditional, linear (1D) memory subsystem" (Section I).  When the DMA
fetches a rectangular tile of such a tensor, only the innermost contiguous
runs are linear in memory — so one tile decomposes into many per-row
extents, which is precisely why a single tile fetch invokes thousands of
translations (Section III-C).

:class:`TensorLayout` captures a row-major tensor placed at a virtual base
address and converts tile coordinates into :class:`TileExtents`, a column
of run VAs that reads as a sequence of
:class:`~repro.memory.address.Extent` objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple, Union, overload

import numpy as np
import numpy.typing as npt

from .address import AddressError, Extent

#: Largest VA a :class:`TileExtents` column can hold.
_INT64_MAX = (1 << 63) - 1


def _row_major_strides(shape: Sequence[int], elem_bytes: int) -> Tuple[int, ...]:
    """Byte strides of a dense row-major tensor."""
    strides = [elem_bytes] * len(shape)
    for i in range(len(shape) - 2, -1, -1):
        strides[i] = strides[i + 1] * shape[i + 1]
    return tuple(strides)


class TileExtents(Sequence[Extent]):
    """A tile's row decomposition: ascending run VAs and one run length.

    ``vas`` holds the base VA of every contiguous run as an int64 column,
    in row-major (ascending) order; every run is ``length`` bytes and the
    runs are disjoint.  Consumers that need only page or VA bounds read
    the column (:func:`repro.npu.dma.distinct_pages`).  ``len``, indexing
    and iteration yield the same :class:`Extent` objects, in the same
    order, as a per-row list would hold.
    """

    __slots__ = ("vas", "length")

    def __init__(self, vas: npt.NDArray[np.int64], length: int) -> None:
        self.vas = vas
        self.length = length

    def __len__(self) -> int:
        return int(self.vas.shape[0])

    @overload
    def __getitem__(self, index: int) -> Extent: ...

    @overload
    def __getitem__(self, index: slice) -> List[Extent]: ...

    def __getitem__(self, index: Union[int, slice]) -> Union[Extent, List[Extent]]:
        if isinstance(index, slice):
            return [Extent(va, self.length) for va in self.vas[index].tolist()]
        return Extent(int(self.vas[index]), self.length)

    def __iter__(self) -> Iterator[Extent]:
        length = self.length
        return (Extent(va, length) for va in self.vas.tolist())


@dataclass(frozen=True)
class TensorLayout:
    """A dense row-major tensor at a fixed virtual base address.

    Parameters
    ----------
    name:
        Human-readable identifier (e.g. ``"conv3/weights"``).
    base_va:
        Virtual address of element ``(0, 0, ..., 0)``.
    shape:
        Logical dimensions, outermost first.
    elem_bytes:
        Bytes per element (4 for fp32, 2 for fp16/bf16).
    """

    name: str
    base_va: int
    shape: Tuple[int, ...]
    elem_bytes: int = 4

    def __post_init__(self) -> None:
        if not self.shape:
            raise AddressError(f"tensor {self.name!r} needs at least one dimension")
        if any(d <= 0 for d in self.shape):
            raise AddressError(f"tensor {self.name!r} has non-positive dims {self.shape}")
        if self.elem_bytes <= 0:
            raise AddressError(f"elem_bytes must be positive, got {self.elem_bytes}")

    @property
    def strides(self) -> Tuple[int, ...]:
        """Byte strides, outermost dimension first."""
        return _row_major_strides(self.shape, self.elem_bytes)

    @property
    def nbytes(self) -> int:
        """Total size of the tensor in bytes."""
        total = self.elem_bytes
        for d in self.shape:
            total *= d
        return total

    @property
    def end_va(self) -> int:
        """One past the last byte of the tensor."""
        return self.base_va + self.nbytes

    def element_va(self, coords: Sequence[int]) -> int:
        """Virtual address of the element at ``coords``."""
        if len(coords) != len(self.shape):
            raise AddressError(
                f"tensor {self.name!r} is {len(self.shape)}-D, got {len(coords)} coords"
            )
        va = self.base_va
        for c, dim, stride in zip(coords, self.shape, self.strides):
            if not 0 <= c < dim:
                raise AddressError(f"coord {c} out of bounds for dim {dim}")
            va += c * stride
        return va

    # ------------------------------------------------------------------ #
    # tile decomposition                                                 #
    # ------------------------------------------------------------------ #

    def tile_extents(
        self, starts: Sequence[int], sizes: Sequence[int]
    ) -> TileExtents:
        """Decompose a rectangular tile into contiguous linear extents.

        The tile covers ``[starts[d], starts[d] + sizes[d])`` in each
        dimension.  Trailing dimensions the tile covers entirely are
        coalesced into the contiguous run, so e.g. a tile that spans full
        rows of a 2-D tensor yields a single extent.

        Returns a :class:`TileExtents`: the run base VAs as one int64
        column in ascending-VA (row-major iteration) order, which is also
        the order the DMA streams them — giving the streaming VA pattern
        of Figure 14 — plus the runs' common length.  Its ``len``,
        indexing and iteration yield :class:`Extent` objects.

        Raises :class:`AddressError` for an out-of-bounds tile, a negative
        run VA, or a tensor whose :attr:`end_va` does not fit in int64.
        """
        ndim = len(self.shape)
        if len(starts) != ndim or len(sizes) != ndim:
            raise AddressError(
                f"tile coords must be {ndim}-D for tensor {self.name!r}"
            )
        for d in range(ndim):
            if sizes[d] <= 0:
                raise AddressError(f"tile size in dim {d} must be positive")
            if starts[d] < 0 or starts[d] + sizes[d] > self.shape[d]:
                raise AddressError(
                    f"tile [{starts[d]}, {starts[d] + sizes[d]}) out of bounds "
                    f"for dim {d} of size {self.shape[d]}"
                )

        # Find the split point: dims at or after `contig_from` are covered
        # fully (and start at 0), so they fold into one contiguous run.
        contig_from = ndim
        while contig_from > 0:
            d = contig_from - 1
            if starts[d] == 0 and sizes[d] == self.shape[d]:
                contig_from = d
            else:
                break
        # The innermost non-full dim also contributes contiguously.
        if contig_from > 0:
            contig_from -= 1

        strides = self.strides
        run_bytes = sizes[contig_from] * strides[contig_from]
        # The first run is the lowest: every later one adds non-negative
        # row offsets, so one sign check covers the whole column.
        first_va = self.base_va + sum(
            starts[d] * strides[d] for d in range(contig_from + 1)
        )
        if first_va < 0:
            raise AddressError(f"negative extent base {first_va:#x}")
        if self.end_va > _INT64_MAX:
            raise AddressError(
                f"tensor {self.name!r} ends at {self.end_va:#x}, "
                f"beyond the int64 VA column"
            )
        vas = np.array([first_va], dtype=np.int64)
        for d in range(contig_from):
            rows = np.arange(sizes[d], dtype=np.int64) * strides[d]
            vas = np.add.outer(vas, rows).ravel()
        return TileExtents(vas, run_bytes)


def coalesce_extents(extents: Sequence[Extent]) -> List[Extent]:
    """Merge adjacent/overlapping extents (input need not be sorted).

    Useful for computing the distinct footprint of a tile and for tests
    asserting tile decompositions cover exactly the expected bytes.
    """
    if not extents:
        return []
    ordered = sorted(extents, key=lambda e: e.va)
    merged = [ordered[0]]
    for ext in ordered[1:]:
        last = merged[-1]
        if ext.va <= last.end:
            if ext.end > last.end:
                merged[-1] = Extent(last.va, ext.end - last.va)
        else:
            merged.append(ext)
    return merged


def extents_total_bytes(extents: Sequence[Extent]) -> int:
    """Sum of extent lengths (double-counts overlaps; see coalesce_extents)."""
    return sum(e.length for e in extents)
