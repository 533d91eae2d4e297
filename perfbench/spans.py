"""In-memory span recording around the simulator's layer entry points.

A :class:`SpanRecorder` keeps one record per span (name, start, end,
parent) in a list and computes per-name self times at the end: a span's
self time is its duration minus the time its direct children cover.
:class:`LayerWrappers` installs timing wrappers on the public entry point
of each simulator layer (see :data:`LAYER_ENTRY_POINTS`) and restores the
original attributes on exit, so the traced code runs unchanged.  Spans
can be written out as Chrome trace-event JSON, which Perfetto loads.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Name of the span the benchmark opens around each timed segment; its
#: self time is the part of the segment no layer span covers.
ROOT = "bench.pass"


class SpanRecorder:
    """Records nested spans in memory; counts ride along by name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: ``[name, start, end, parent index or -1]`` per span, in start order.
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    def enter(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, self.clock(), 0.0, parent])

    def exit(self) -> None:
        self.spans[self._stack.pop()][2] = self.clock()

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def self_times(self) -> Dict[str, float]:
        """Total self time per span name (duration minus direct children)."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: Dict[str, float] = defaultdict(float)
        for (name, _, _, _), seconds in zip(self.spans, own):
            totals[name] += seconds
        return dict(totals)

    def inclusive_times(self, name: str) -> float:
        """Summed duration of the outermost spans called ``name``."""
        spans = self.spans
        total = 0.0
        for span_name, start, end, parent in spans:
            if span_name != name:
                continue
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                total += end - start
        return total

    def chrome_events(self, tid: int = 0, limit: Optional[int] = None) -> List[dict]:
        """Complete ("X") trace events in start order, at most ``limit``."""
        if not self.spans:
            return []
        origin = self.spans[0][1]
        chosen = self.spans if limit is None else self.spans[:limit]
        return [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 1,
                "tid": tid,
                "args": {"parent": chosen[parent][0] if parent >= 0 else None},
            }
            for name, start, end, parent in chosen
        ]


def write_chrome_trace(
    path: Path, recorder: SpanRecorder, meta: dict, limit: int = 100_000
) -> int:
    """Write the first ``limit`` spans as a trace file; returns the count."""
    events = recorder.chrome_events(limit=limit)
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(meta, truncated=len(recorder.spans) > limit),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
    return len(events)


# --------------------------------------------------------------------- #
# layer entry points                                                     #
# --------------------------------------------------------------------- #


def _engine_span(config: Any) -> str:
    if config.oracle:
        return "engine.oracle"
    return "engine.prmb" if config.prmb_slots > 0 else "engine.no_prmb"


#: ``(module, owner class name or None, attribute, span name or chooser,
#: count hook)``.  A chooser maps the call's ``self`` to a span name; a
#: count hook ``(recorder, args, result)`` records exact work counts.
#: Entry points are wrapped before any simulator is built, so objects
#: that capture a bound method at construction (the engine's fault
#: handler) capture the wrapper.
LAYER_ENTRY_POINTS: Tuple[tuple, ...] = (
    ("repro.npu.simulator", "NPUSimulator", "__init__", "setup.construct",
     lambda rec, args, result: rec.count("setup.simulators")),
    ("repro.npu.simulator", "MultiTenantSimulator", "__init__",
     "setup.construct", None),
    ("repro.sparse.demand_paging", "DemandPagingSimulator", "__init__",
     "setup.construct", None),
    ("repro.memory.layout", "TensorLayout", "tile_extents",
     "layout.tile_extents",
     lambda rec, args, result: rec.count("layout.extents", len(result))),
    ("repro.npu.dma", "DMAEngine", "transactions", "dma.transactions",
     lambda rec, args, result: rec.count("dma.transactions.count", len(result))),
    ("repro.npu.simulator", None, "distinct_pages", "dma.distinct_pages", None),
    ("repro.npu.simulator", "NPUSimulator", "run", "sim.single", None),
    ("repro.npu.simulator", "MultiTenantSimulator", "run", "sim.multi", None),
    ("repro.core.engine", "TranslationEngine", "run_bursts",
     lambda self: _engine_span(self.mmu.config), None),
    ("repro.core.engine", "TranslationEngine", "run_burst",
     lambda self: _engine_span(self.mmu.config),
     lambda rec, args, result: rec.count("engine.bursts")),
    ("repro.core.mmu", "SharedMMU", "run_bursts",
     lambda self: _engine_span(self.config), None),
    ("repro.core.mmu", "MMU", "shootdown", "mmu.shootdown", None),
    ("repro.core.mmu", "MMU", "drain", "mmu.drain", None),
    ("repro.memory.tiering", "LocalMemoryTier", "handle_fault",
     "tiering.handle_fault", None),
    ("repro.analysis.parallel", "ParallelRunner", "run_many",
     "parallel.run_many",
     lambda rec, args, result: rec.count("parallel.cells", len(args[1]))),
    ("repro.analysis.experiments", None, "fig6_page_divergence", "figure", None),
    ("repro.analysis.experiments", None, "fig8_baseline_iommu", "figure", None),
    ("repro.analysis.experiments", None, "fig11_ptw_sweep", "figure", None),
    ("repro.analysis.experiments", None, "headline_claims", "figure", None),
)


def _wrap(
    fn: Callable,
    recorder: SpanRecorder,
    span: Any,
    hook: Optional[Callable],
) -> Callable:
    enter = recorder.enter
    leave = recorder.exit
    choose = span if callable(span) else (lambda _self: span)

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        enter(choose(args[0] if args else None))
        try:
            result = fn(*args, **kwargs)
        finally:
            leave()
        if hook is not None:
            hook(recorder, args, result)
        return result

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    wrapper.__name__ = getattr(fn, "__name__", "wrapped")
    return wrapper


class LayerWrappers:
    """Context manager installing span wrappers on the layer entry points.

    Every replaced attribute is restored on exit — including after an
    exception — to the very object that was there before.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._saved: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> "LayerWrappers":
        try:
            for module_name, owner_name, attr, span, hook in LAYER_ENTRY_POINTS:
                owner: Any = importlib.import_module(module_name)
                if owner_name is not None:
                    owner = getattr(owner, owner_name)
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, _wrap(original, self.recorder, span, hook))
        except BaseException:
            self.restore()
            raise
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc: Any) -> None:
        self.restore()
