"""Pluggable QoS layer: tenant share policies and shared-MMU arbitration.

PR 2's :class:`~repro.core.mmu.SharedMMU` made every sharing decision a
hard-coded constant: the TLB was a free-for-all, walkers and PRMB slots
were first-come-first-served, and the multi-tenant arbiter was a
whole-tile-step round robin baked into ``MultiTenantSimulator.run``.  The
partition-vs-share choice for translation structures is a first-order
design axis (Kim et al., *Address Translation Design Tradeoffs for
Heterogeneous Systems*; Picorel et al., *Near-Memory Address Translation*),
so this module turns it into one pluggable abstraction with two halves:

* :class:`SharePolicy` — per-resource occupancy quotas per ASID.  Every
  shared structure (TLB capacity/ways, walker pool, PRMB merge slots, and
  the demand-paging :class:`~repro.memory.tiering.MigrationFabric`'s
  transfer slots) consults the policy instead of assuming full sharing:

  - ``full_share`` — no quotas; bit-identical to the pre-QoS engine.
  - ``static_partition`` — weight-proportional *hard* quotas: a tenant can
    never occupy more than its reservation, even when the rest of the
    structure idles (strict isolation).
  - ``weighted`` — weight-proportional *work-conserving* quotas: the quota
    binds only under pressure; idle capacity beyond every other tenant's
    unmet reservation may be borrowed.

* :class:`Arbiter` — decides whose tile step the shared DMA front-end
  services next.  ``round_robin`` and ``priority`` reproduce the PR 2
  policies exactly; ``weighted_quantum`` is a deficit-round-robin arbiter
  that grants each tenant a weight-proportional quantum of *translation
  slots* (requests issued) instead of whole tile steps, so a heavy tenant
  keeps the walker pool warm across several consecutive steps.

The default (``full_share`` + ``round_robin``) is verified bit-identical
to the pre-QoS engine against golden captures (``tests/test_qos.py``).
"""

from __future__ import annotations

import heapq
from typing import Dict, KeysView, List, Optional, Sequence, Tuple

#: Valid :class:`SharePolicy` kinds, in documentation order.
SHARE_POLICIES = ("full_share", "static_partition", "weighted")

#: Valid :class:`Arbiter` kinds.
ARBITRATION_POLICIES = ("round_robin", "priority", "weighted_quantum")


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index of ``values`` (per-tenant slowdowns).

    ``(sum x)^2 / (n * sum x^2)`` — 1.0 when every tenant is slowed
    equally, approaching ``1/n`` as one tenant absorbs all the contention.
    Returns 0.0 for an empty sequence.
    """
    if not values:
        return 0.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares == 0.0:
        return 0.0
    return (total * total) / (len(values) * squares)


# --------------------------------------------------------------------- #
# share policies                                                         #
# --------------------------------------------------------------------- #


class SharePolicy:
    """Per-ASID share of each shared translation resource.

    The base class is the ``full_share`` policy: every quota query answers
    ``None`` ("unlimited") and :attr:`trivial` is True, which lets every
    enforcement site — and the engine's batched fast path — skip QoS
    bookkeeping entirely, keeping the default bit-identical to the
    pre-QoS engine.

    Tenants are registered with a positive weight (default 1.0); quotas of
    the non-trivial subclasses are weight-proportional fractions of each
    resource's capacity, recomputed on the fly so tenant arrival/departure
    reshapes the partition immediately.

    Quota answers depend only on the tenant registry, never on the cycle,
    and every registry change bumps :attr:`version`.  The engine relies on
    this: its fast paths memoize quotas by version and bound their bulk
    segments by walk completions alone.
    """

    kind = "full_share"
    #: True when the policy never constrains anything (pure full sharing).
    trivial = True
    #: True when idle capacity beyond other tenants' unmet reservations
    #: may be borrowed (quota binds only under pressure).
    work_conserving = True

    def __init__(self, weights: Optional[Dict[int, float]] = None) -> None:
        self._weights: Dict[int, float] = {}
        #: Memoized ``(asid, capacity) -> quota`` answers.  Quotas are
        #: pure functions of the weight registry, recomputed from scratch
        #: on the translate hot path otherwise; any registry change
        #: invalidates the whole cache.
        self._quota_cache: Dict[Tuple[int, int], Optional[int]] = {}
        #: Monotone registry version.  Bumped on every register/unregister
        #: (the only events that can change a built-in policy's quota
        #: answers), so enforcement sites may keep flat per-structure
        #: quota memos and invalidate them by comparing one integer
        #: instead of re-calling :meth:`quota` per fill or walk dispatch.
        self.version = 0
        if weights:
            for asid, weight in weights.items():
                self.register(asid, weight)

    # -- tenant registry ----------------------------------------------- #

    def register(self, asid: int, weight: float = 1.0) -> None:
        """Add (or re-weight) one tenant's share."""
        if weight <= 0:
            raise ValueError(
                f"tenant weight must be positive, got {weight} for ASID {asid}"
            )
        self._weights[asid] = float(weight)
        self._quota_cache.clear()
        self.version += 1

    def unregister(self, asid: int) -> None:
        """Drop one tenant; surviving tenants' shares grow accordingly."""
        self._weights.pop(asid, None)
        self._quota_cache.clear()
        self.version += 1

    set_weight = register

    @property
    def tenants(self) -> List[int]:
        """Registered ASIDs, in registration order."""
        return list(self._weights)

    @property
    def asids(self) -> KeysView[int]:
        """Registered ASIDs as a live view (no copy — hot-path iteration)."""
        return self._weights.keys()

    # -- quotas --------------------------------------------------------- #

    def share_of(self, asid: int) -> Optional[float]:
        """Fraction of each resource owed to ``asid`` (None = unlimited)."""
        return None

    def quota(self, asid: int, capacity: int) -> Optional[int]:
        """Max entries of a ``capacity``-entry resource ``asid`` may hold.

        ``None`` means unlimited.  Non-trivial policies floor the
        weight-proportional share at one entry so a registered tenant can
        always make forward progress.
        """
        return None

    #: Resource-specific aliases — one enforcement vocabulary per
    #: structure, so a future policy can differentiate (e.g. partition
    #: walkers but share the TLB) without touching the call sites.
    def tlb_quota(self, asid: int, entries: int) -> Optional[int]:
        """Max TLB entries ``asid`` may occupy (None = unlimited)."""
        return self.quota(asid, entries)

    def walker_quota(self, asid: int, n_walkers: int) -> Optional[int]:
        """Max concurrent walks ``asid`` may hold (None = unlimited)."""
        return self.quota(asid, n_walkers)

    def prmb_quota(self, asid: int, total_slots: int) -> Optional[int]:
        """Max merged requests ``asid`` may park (None = unlimited)."""
        return self.quota(asid, total_slots)

    def fabric_quota(self, asid: int, slots: int) -> Optional[int]:
        """Max concurrent page migrations ``asid`` may hold in flight on
        the shared :class:`~repro.memory.tiering.MigrationFabric`
        (None = unlimited)."""
        return self.quota(asid, slots)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(tenants={self._weights})"


class FullShare(SharePolicy):
    """Every structure fully shared — the pre-QoS behaviour."""


class StaticPartition(SharePolicy):
    """Weight-proportional hard partitions of every shared structure.

    A tenant's quota is reserved for it exclusively: it can neither exceed
    its own share nor (because every other tenant is likewise capped)
    have its reservation stolen.  Strict isolation at the cost of idle
    reserved capacity.

    Quotas floor the proportional share, so a non-divisible split strands
    the remainder (3 equal tenants on 8 walkers get 2+2+2, leaving 2
    unusable) — deliberately mirroring way/bank-granular hardware
    partitions, which cannot apportion fractions either.  The stranded
    slack is exactly what the work-conserving ``weighted`` policy exists
    to reclaim.
    """

    kind = "static_partition"
    trivial = False
    work_conserving = False

    def share_of(self, asid: int) -> Optional[float]:
        total = sum(self._weights.values())
        if not total or asid not in self._weights:
            return None
        return self._weights[asid] / total

    def quota(self, asid: int, capacity: int) -> Optional[int]:
        cache = self._quota_cache
        key = (asid, capacity)
        if key in cache:
            return cache[key]
        share = self.share_of(asid)
        if share is None or capacity <= 0:
            value = None
        else:
            value = max(1, int(capacity * share))
        cache[key] = value
        return value


class WeightedShare(StaticPartition):
    """Weight-proportional quotas that bind only under pressure.

    Same quotas as :class:`StaticPartition`, but work-conserving: a tenant
    at its quota may keep growing into capacity no other tenant's unmet
    reservation is entitled to, and victim selection under pressure
    reclaims from over-quota tenants first.
    """

    kind = "weighted"
    work_conserving = True


_POLICY_CLASSES = {
    "full_share": FullShare,
    "static_partition": StaticPartition,
    "weighted": WeightedShare,
}


def make_share_policy(
    kind: str, weights: Optional[Dict[int, float]] = None
) -> SharePolicy:
    """Instantiate a share policy by name (:data:`SHARE_POLICIES`)."""
    try:
        cls = _POLICY_CLASSES[kind]
    except KeyError:
        raise ValueError(
            f"unknown QoS share policy {kind!r}; "
            f"choose from {', '.join(SHARE_POLICIES)}"
        ) from None
    return cls(weights)


# --------------------------------------------------------------------- #
# arbitration                                                            #
# --------------------------------------------------------------------- #


class Arbiter:
    """Schedules tenant tile pipelines onto the shared translation stack.

    :meth:`run` drives a list of stepwise tenant runs (duck-typed: each
    exposes ``done`` and ``advance() -> int``, the translation-request
    cost of the step just executed) to completion, deciding after every
    step whose pipeline the shared DMA front-end services next.

    The arbiters are *event-driven*: a run that additionally exposes
    ``advance_quiet(limit) -> int`` (see
    :meth:`repro.npu.simulator._TenantRun.advance_quiet`) is advanced to
    its next **interaction point** — the first tile step that must touch
    the shared walker pool, PRMB, TLB quotas or memory channels — in one
    closed-form stretch, instead of being stepped through every
    translation-slot quantum.  Quiet steps read and write only the run's
    private pipeline state, so each arbiter hoists them in a way that
    provably preserves its historical service order for the interacting
    steps (documented per arbiter); plain runs without ``advance_quiet``
    are scheduled exactly as before.
    """

    kind = "base"

    def run(self, runs: Sequence) -> None:
        """Advance every run to completion under this policy."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RoundRobinArbiter(Arbiter):
    """Strict turns, one whole tile step each (the PR 2 default).

    Bursts from different tenants overlap in time, so walkers and memory
    channels see genuinely mixed traffic — the contention regime.

    Event-driven form: when a run's next steps are quiet, the whole
    stretch executes on its first turn and the run then *sits out* one
    rotation turn per remaining hoisted step.  Every interacting step
    therefore lands on exactly the rotation turn the one-step-per-turn
    schedule would have given it, and since quiet steps touch no shared
    state, the results are bit-identical to the historical arbiter.
    """

    kind = "round_robin"

    def run(self, runs: Sequence) -> None:
        pending = [run for run in runs if not run.done]
        owed: Dict[int, int] = {}
        while pending:
            for run in list(pending):
                # simlint: disable=det-hash-order -- id(run) is an opaque identity key for the owed-turns dict; it is only ever looked up, never ordered or iterated, so its value cannot affect scheduling order
                key = id(run)
                turns_owed = owed.get(key, 0)
                if turns_owed:
                    if turns_owed == 1:
                        del owed[key]
                        if run.done:
                            pending.remove(run)
                    else:
                        owed[key] = turns_owed - 1
                    continue
                quiet = getattr(run, "advance_quiet", None)
                executed = quiet() if quiet is not None else 0
                if not executed:
                    run.advance()
                    executed = 1
                if executed > 1:
                    owed[key] = executed - 1
                elif run.done:
                    pending.remove(run)


class PriorityArbiter(Arbiter):
    """Lower ASIDs run to completion first (strict time multiplexing).

    Later tenants inherit a polluted TLB/path-cache state but never
    overlap with earlier ones.  (Service is already sequential, so quiet
    stretches trivially preserve the order.)
    """

    kind = "priority"

    def run(self, runs: Sequence) -> None:
        for run in runs:
            quiet = getattr(run, "advance_quiet", None)
            while not run.done:
                if quiet is None or not quiet():
                    run.advance()


class WeightedQuantumArbiter(Arbiter):
    """Clock-ordered deficit round robin over translation-slot quanta.

    Every rotation credits each live tenant ``weight * quantum``
    translation slots.  Within the rotation the shared front-end always
    services the *eligible tenant whose pipeline clock is furthest
    behind* (each run's ``clock`` attribute), debiting the translation
    requests the step actually issued (a cached FAST-fidelity step debits
    one slot so progress is guaranteed).  A tenant whose credit is spent
    sits out the rest of the rotation, so a heavy tenant holds the
    front-end for weight-proportionally more slots.

    The min-clock service order matters beyond fairness: tenants simulate
    on private clocks against shared walker/memory-channel state, so an
    arbiter that lets one tenant's clock race ahead (as whole-tile-step
    round robin does when service rates diverge — exactly the regime
    share policies create) makes the laggard queue behind channel
    occupancy written at far-future cycles.  Two rules bound that skew:

    * service goes to the eligible tenant with the minimum clock, and
    * a tenant more than ``skew_window`` (a fraction of the laggard's
      elapsed clock, floored at ``skew_floor`` cycles) ahead of the
      laggard is ineligible even with credit; when nobody is eligible a
      new rotation refills every credit, so the laggard — by definition
      inside the window — always proceeds and deadlock is impossible.

    Without the window, unequal weights grow the clock gap without bound
    and the laggard's slowdown explodes through the shared channels
    (e.g. 2:1 weights on RNN-2 read as a 10x slowdown instead of the
    ~1.3x the weighted service split actually implies).  This is why the
    QoS fairness studies default to this arbiter.
    """

    kind = "weighted_quantum"

    def __init__(
        self,
        weights: Optional[Sequence[float]] = None,
        quantum: int = 2048,
        skew_window: float = 0.01,
        skew_floor: float = 20_000.0,
    ) -> None:
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        if weights is not None and any(w <= 0 for w in weights):
            raise ValueError("arbitration weights must all be positive")
        if skew_window < 0 or skew_floor < 0:
            raise ValueError("skew_window and skew_floor cannot be negative")
        self.weights = list(weights) if weights is not None else None
        self.quantum = quantum
        self.skew_window = skew_window
        self.skew_floor = skew_floor

    def run(self, runs: Sequence) -> None:
        """Heap-ordered event loop over tenant clocks.

        The historical decision procedure — find the laggard, filter by
        credit and skew horizon, service the min-clock eligible tenant,
        debit, refill when nobody is eligible — is preserved decision for
        decision; what changed is how each decision is computed:

        * pending runs live in a lazily-invalidated min-heap keyed by
          ``(clock, index)``, so the laggard and the min-clock eligible
          tenant come off the heap top instead of O(n) scans (entries go
          stale when a run advances; a version counter skips them);
        * after servicing a tenant, service *stays* with it — without
          re-running the full decision — for as long as it holds credit
          and its clock remains strictly below every other pending
          tenant's: in that state it is the laggard (trivially inside
          its own skew horizon) and the unique min-clock eligible, so
          the reference procedure would pick it again.  Ties fall back
          to the full decision, whose ``(clock, index)`` heap order
          reproduces the reference's lowest-index tie-break.

        Both shortcuts reproduce the historical service sequence exactly
        (the decision-sequence unit tests and the bit-identical golden
        captures lock this in).
        """
        weights = self.weights or [1.0] * len(runs)
        if len(weights) != len(runs):
            raise ValueError(
                f"got {len(weights)} arbitration weights for {len(runs)} "
                f"tenants; pass exactly one positive weight per tenant"
            )
        deficit = [0.0] * len(runs)
        pending = [i for i, run in enumerate(runs) if not run.done]
        version = [0] * len(runs)
        heap = [(runs[i].clock, i, 0) for i in pending]
        heapq.heapify(heap)
        heappush = heapq.heappush
        heappop = heapq.heappop
        skew_floor = self.skew_floor
        skew_window = self.skew_window
        while pending:
            # -- one reference decision, off the heap ------------------- #
            while heap and heap[0][2] != version[heap[0][1]]:
                heappop(heap)
            laggard = heap[0][0]
            skew = skew_window * laggard
            horizon = laggard + (skew_floor if skew_floor > skew else skew)
            idx = -1
            parked = None
            while heap:
                clock, i, v = heap[0]
                if v != version[i]:
                    heappop(heap)
                    continue
                if clock > horizon:
                    break
                if deficit[i] > 0:
                    idx = i
                    break
                # Credit-exhausted tenant below the horizon: set it aside
                # so the next-lowest clock surfaces, restore afterwards.
                if parked is None:
                    parked = []
                parked.append(heappop(heap))
            if idx >= 0:
                # Consume idx's entry while it is still the heap top,
                # before the parked (lower-clock) entries come back.
                heappop(heap)
                version[idx] += 1
            if parked is not None:
                for entry in parked:
                    heappush(heap, entry)
            if idx < 0:
                for i in pending:
                    deficit[i] += weights[i] * self.quantum
                continue
            # -- service, staying with the strict laggard --------------- #
            while heap and heap[0][2] != version[heap[0][1]]:
                heappop(heap)
            others_min = heap[0][0] if heap else float("inf")
            run = runs[idx]
            credit = deficit[idx]
            while True:
                cost = run.advance()
                credit -= cost if cost and cost > 1 else 1
                if run.done:
                    credit = 0.0
                    pending.remove(idx)
                    break
                if credit <= 0 or run.clock >= others_min:
                    break
            deficit[idx] = credit
            if not run.done:
                heappush(heap, (run.clock, idx, version[idx]))


def make_arbiter(
    kind: str,
    weights: Optional[Sequence[float]] = None,
    quantum: int = 2048,
) -> Arbiter:
    """Instantiate an arbiter by name (:data:`ARBITRATION_POLICIES`).

    ``weights``/``quantum`` configure ``weighted_quantum`` and are
    ignored by the other policies.
    """
    if kind == "round_robin":
        return RoundRobinArbiter()
    if kind == "priority":
        return PriorityArbiter()
    if kind == "weighted_quantum":
        return WeightedQuantumArbiter(weights=weights, quantum=quantum)
    raise ValueError(
        f"unknown arbitration policy {kind!r}; "
        f"choose from {', '.join(ARBITRATION_POLICIES)}"
    )
