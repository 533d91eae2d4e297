"""Tile planning: blocking GEMMs/convolutions into SPM-sized tiles.

"Because the size of IA and W can be hundreds to thousands of MBs, the DMA
unit blocks the IA and W into smaller tiles and sequence them in and out of
the SPM across multiple iterations" (Section II-A, Figure 3).  This module
produces those tile sequences:

* :func:`plan_gemm` — FC/RNN-style layers where IA is an (M, K) matrix and
  W a (K, N) matrix; tiles N (and K when necessary) under a
  weight-stationary order.
* :func:`plan_conv` — convolutions, tiling output rows and filters; the IA
  tile is a 4-D (B, H-slice, W, C) region whose rows are the linearized
  extents of Figure 14.

Each schedule step carries the fetches (tile loads) that must complete
before the step's compute phase — the implicit barrier of Figure 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import ceil
from typing import List, Optional, Sequence, Tuple

from ..memory.layout import TensorLayout
from .config import NPUConfig
from .dma import FetchSpec
from .spm import Scratchpad, SPMCapacityError
from .systolic import GemmShape


@dataclass(frozen=True)
class TileStep:
    """One (memory phase, compute phase) unit of the schedule."""

    fetches: Tuple[FetchSpec, ...]
    compute: GemmShape

    @property
    def fetch_bytes(self) -> int:
        """Bytes this step's memory phase moves."""
        return sum(f.nbytes for f in self.fetches)

    @cached_property
    def signature(self) -> Tuple:
        """Dedup key: identical signatures have identical timing class.

        Cached: the FAST-fidelity timing cache reads it on every step
        instance (``cached_property`` writes through ``__dict__``, which
        frozen dataclasses permit).
        """
        return tuple(f.signature for f in self.fetches) + (
            self.compute.m,
            self.compute.k,
            self.compute.n,
        )


@dataclass
class LayerSchedule:
    """The full tile sequence of one layer."""

    name: str
    steps: List[TileStep]

    @property
    def total_fetch_bytes(self) -> int:
        """Total DRAM traffic of the layer's memory phases."""
        return sum(step.fetch_bytes for step in self.steps)

    @property
    def total_macs(self) -> int:
        """Total multiply-accumulates across all steps."""
        return sum(step.compute.macs for step in self.steps)

    def all_fetches(self) -> List[FetchSpec]:
        """Every tile fetch in order (Figure 6/14 instrumentation)."""
        return [f for step in self.steps for f in step.fetches]


def _tile_ranges(total: int, tile: int) -> List[Tuple[int, int]]:
    """(start, size) blocks covering ``[0, total)`` in ``tile``-sized chunks."""
    return [(start, min(tile, total - start)) for start in range(0, total, tile)]


def _largest_tile(total: int, budget_elems: int, quantum: int = 1) -> int:
    """Largest tile ≤ budget, a multiple of ``quantum`` when possible."""
    tile = min(total, max(1, budget_elems))
    if quantum > 1 and tile < total:
        tile = max(quantum, (tile // quantum) * quantum)
        tile = min(tile, total)
    return tile


# --------------------------------------------------------------------- #
# GEMM layers (fully-connected, RNN/LSTM projections)                   #
# --------------------------------------------------------------------- #


def plan_gemm(
    name: str,
    m: int,
    k: int,
    n: int,
    ia_layout: TensorLayout,
    w_layout: TensorLayout,
    config: NPUConfig,
    ia_resident_hint: bool = True,
) -> LayerSchedule:
    """Weight-stationary tile schedule for C[M,N] += A[M,K]·B[K,N].

    ``ia_layout`` must be the (M, K) activation matrix and ``w_layout`` the
    (K, N) weight matrix.  Tiling strategy (mirrors the paper's TPU model):

    1. keep K whole when a (K × array-width) weight tile fits the W budget;
       otherwise block K;
    2. block N so each weight tile fills the W budget;
    3. block M so each activation tile fits the IA budget; when the whole
       (M, K) IA fits, fetch it once up front (``ia_resident_hint``).
    """
    elem = config.elem_bytes
    ia_spm = Scratchpad("ia", config.ia_spm_bytes, config.double_buffered)
    w_spm = Scratchpad("w", config.w_spm_bytes, config.double_buffered)

    # --- choose K tile -------------------------------------------------
    min_n = min(n, config.array_cols)
    kt = _largest_tile(k, w_spm.tile_budget // (elem * min_n), config.array_rows)
    # --- choose N tile -------------------------------------------------
    nt = _largest_tile(n, w_spm.tile_budget // (elem * kt), config.array_cols)
    # --- choose M tile -------------------------------------------------
    mt = _largest_tile(m, ia_spm.tile_budget // (elem * kt), config.array_rows)

    w_spm.check_tile(kt * nt * elem)
    ia_spm.check_tile(mt * kt * elem)

    ia_resident = ia_resident_hint and ia_spm.fits(m * k * elem)

    steps: List[TileStep] = []
    first = True
    for n0, ns in _tile_ranges(n, nt):
        for k0, ks in _tile_ranges(k, kt):
            w_fetch = FetchSpec("w", w_layout, (k0, n0), (ks, ns))
            if ia_resident:
                fetches: Tuple[FetchSpec, ...]
                if first:
                    fetches = (
                        FetchSpec("ia", ia_layout, (0, 0), (m, k)),
                        w_fetch,
                    )
                    first = False
                else:
                    fetches = (w_fetch,)
                steps.append(TileStep(fetches, GemmShape(m, ks, ns)))
            else:
                for m0, ms in _tile_ranges(m, mt):
                    ia_fetch = FetchSpec("ia", ia_layout, (m0, k0), (ms, ks))
                    fetches = (ia_fetch, w_fetch) if m0 == 0 else (ia_fetch,)
                    steps.append(TileStep(fetches, GemmShape(ms, ks, ns)))
    return LayerSchedule(name=name, steps=steps)


# --------------------------------------------------------------------- #
# Convolutions                                                          #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ConvGeometry:
    """Shape parameters of a 2-D convolution (NHWC activations, FHWC weights)."""

    batch: int
    in_h: int
    in_w: int
    in_c: int
    out_c: int
    kernel: int
    stride: int = 1
    pad: int = 0

    def __post_init__(self) -> None:
        dims = (self.batch, self.in_h, self.in_w, self.in_c, self.out_c, self.kernel)
        if any(d <= 0 for d in dims):
            raise ValueError(f"conv dims must be positive: {self}")
        if self.stride <= 0:
            raise ValueError("stride must be positive")
        if self.out_h <= 0 or self.out_w <= 0:
            raise ValueError(f"conv produces empty output: {self}")

    @property
    def out_h(self) -> int:
        return (self.in_h + 2 * self.pad - self.kernel) // self.stride + 1

    @property
    def out_w(self) -> int:
        return (self.in_w + 2 * self.pad - self.kernel) // self.stride + 1

    @property
    def gemm_k(self) -> int:
        """im2col reduction dimension."""
        return self.kernel * self.kernel * self.in_c


def plan_conv(
    name: str,
    geom: ConvGeometry,
    ia_layout: TensorLayout,
    w_layout: TensorLayout,
    config: NPUConfig,
) -> LayerSchedule:
    """Tile schedule for a convolution.

    ``ia_layout`` is the (B, H, W, C) activation tensor; ``w_layout`` the
    (F, k, k, C) filter tensor (each filter contiguous).  Output rows and
    filters are blocked; the IA tile for an output-row block is the input
    row slab it consumes (including halo rows).
    """
    elem = config.elem_bytes
    ia_spm = Scratchpad("ia", config.ia_spm_bytes, config.double_buffered)
    w_spm = Scratchpad("w", config.w_spm_bytes, config.double_buffered)

    filter_bytes = geom.gemm_k * elem
    ft = _largest_tile(geom.out_c, w_spm.tile_budget // filter_bytes, config.array_cols)
    w_spm.check_tile(ft * filter_bytes)

    ia_resident = ia_spm.fits(geom.batch * geom.in_h * geom.in_w * geom.in_c * elem)

    if ia_resident:
        # Whole activation fits: no need to block output rows at all.
        oht = geom.out_h
    else:
        row_bytes = geom.batch * geom.in_w * geom.in_c * elem
        # Output-row block: its IA slab has (oht-1)*stride + kernel input rows.
        max_in_rows = max(geom.kernel, ia_spm.tile_budget // row_bytes)
        oht = max(1, min(geom.out_h, (max_in_rows - geom.kernel) // geom.stride + 1))

    steps: List[TileStep] = []
    ia_fetched_once = False
    for f0, fs in _tile_ranges(geom.out_c, ft):
        w_fetch = FetchSpec(
            "w",
            w_layout,
            (f0, 0, 0, 0),
            (fs, geom.kernel, geom.kernel, geom.in_c),
        )
        for oh0, ohs in _tile_ranges(geom.out_h, oht):
            # Input rows feeding this output-row block, clipped to the
            # unpadded tensor (padding rows are generated on-chip).
            ih0 = max(0, oh0 * geom.stride - geom.pad)
            ih_last = min(
                geom.in_h - 1,
                (oh0 + ohs - 1) * geom.stride - geom.pad + geom.kernel - 1,
            )
            ih_rows = max(1, ih_last - ih0 + 1)
            fetches: List[FetchSpec] = []
            if oh0 == 0:
                fetches.append(w_fetch)
            if ia_resident:
                if not ia_fetched_once:
                    fetches.append(
                        FetchSpec(
                            "ia",
                            ia_layout,
                            (0, 0, 0, 0),
                            (geom.batch, geom.in_h, geom.in_w, geom.in_c),
                        )
                    )
                    ia_fetched_once = True
            else:
                fetches.append(
                    FetchSpec(
                        "ia",
                        ia_layout,
                        (0, ih0, 0, 0),
                        (geom.batch, ih_rows, geom.in_w, geom.in_c),
                    )
                )
            compute = GemmShape(
                m=geom.batch * ohs * geom.out_w, k=geom.gemm_k, n=fs
            )
            steps.append(TileStep(tuple(fetches), compute))
    return LayerSchedule(name=name, steps=steps)


# --------------------------------------------------------------------- #
# Recurrent layers                                                      #
# --------------------------------------------------------------------- #


def plan_recurrent(
    name: str,
    batch: int,
    input_size: int,
    hidden_size: int,
    seq_len: int,
    gates: int,
    ia_layout: TensorLayout,
    w_layout: TensorLayout,
    config: NPUConfig,
) -> LayerSchedule:
    """Tile schedule for an RNN/LSTM layer run over ``seq_len`` timesteps.

    Each timestep computes GEMM(M=batch, K=input+hidden, N=gates·hidden).
    The recurrence serializes timesteps, so when the (K, N) weight matrix
    exceeds the W scratchpad it must be *re-streamed every timestep* —
    the root cause of RNN inference being memory-phase bound (Section II-C
    picked DeepBench RNNs for exactly this).  When weights fit, they are
    fetched once and reused across timesteps.

    ``ia_layout`` is the (seq_len, batch, input+hidden) activation tensor
    (x_t concatenated with h_{t-1}); ``w_layout`` is (K, N).
    """
    elem = config.elem_bytes
    w_spm = Scratchpad("w", config.w_spm_bytes, config.double_buffered)

    k = input_size + hidden_size
    n = gates * hidden_size
    min_n = min(n, config.array_cols)
    kt = _largest_tile(k, w_spm.tile_budget // (elem * min_n), config.array_rows)
    nt = _largest_tile(n, w_spm.tile_budget // (elem * kt), config.array_cols)
    w_spm.check_tile(kt * nt * elem)

    weights_resident = w_spm.fits(k * n * elem)

    steps: List[TileStep] = []
    for t in range(seq_len):
        ia_fetch = FetchSpec("ia", ia_layout, (t, 0, 0), (1, batch, k))
        if weights_resident:
            fetches: Tuple[FetchSpec, ...]
            if t == 0:
                fetches = (ia_fetch, FetchSpec("w", w_layout, (0, 0), (k, n)))
            else:
                fetches = (ia_fetch,)
            steps.append(TileStep(fetches, GemmShape(batch, k, n)))
        else:
            first_tile = True
            for n0, ns in _tile_ranges(n, nt):
                for k0, ks in _tile_ranges(k, kt):
                    w_fetch = FetchSpec("w", w_layout, (k0, n0), (ks, ns))
                    if first_tile:
                        steps.append(
                            TileStep((ia_fetch, w_fetch), GemmShape(batch, ks, ns))
                        )
                        first_tile = False
                    else:
                        steps.append(
                            TileStep((w_fetch,), GemmShape(batch, ks, ns))
                        )
    return LayerSchedule(name=name, steps=steps)
