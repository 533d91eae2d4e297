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
    tile step whose pipeline the shared DMA front-end services next.
    """

    kind = "base"

    def run(self, runs: Sequence) -> None:
        """Advance every run to completion under this policy."""
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class RoundRobinArbiter(Arbiter):
    """Strict turns, one whole tile step each (the default).

    Bursts from different tenants overlap in time, so walkers and memory
    channels see genuinely mixed traffic — the contention regime.
    """

    kind = "round_robin"

    def run(self, runs: Sequence) -> None:
        pending = [run for run in runs if not run.done]
        while pending:
            for run in list(pending):
                run.advance()
                if run.done:
                    pending.remove(run)


class PriorityArbiter(Arbiter):
    """Lower ASIDs run to completion first (strict time multiplexing).

    Later tenants inherit a polluted TLB/path-cache state but never
    overlap with earlier ones.
    """

    kind = "priority"

    def run(self, runs: Sequence) -> None:
        for run in runs:
            while not run.done:
                run.advance()


#: Translation slots one unit of weight earns per ``weighted_quantum``
#: rotation.
QUANTUM = 2048
#: How far past the laggard's clock ``weighted_quantum`` still services
#: a tenant: this fraction of the laggard's elapsed clock, but never
#: fewer than ``SKEW_FLOOR`` cycles.
SKEW_WINDOW = 0.01
SKEW_FLOOR = 20_000.0


class WeightedQuantumArbiter(Arbiter):
    """Clock-ordered deficit round robin over translation-slot quanta.

    Every rotation credits each live tenant ``weight * QUANTUM``
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

    * service goes to the eligible tenant with the minimum clock (ties
      to the lowest index), and
    * a tenant more than ``SKEW_WINDOW`` (a fraction of the laggard's
      elapsed clock, floored at ``SKEW_FLOOR`` cycles) ahead of the
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

    def __init__(self, weights: Optional[Sequence[float]] = None) -> None:
        if weights is not None and any(w <= 0 for w in weights):
            raise ValueError("arbitration weights must all be positive")
        self.weights = list(weights) if weights is not None else None

    def run(self, runs: Sequence) -> None:
        weights = self.weights or [1.0] * len(runs)
        if len(weights) != len(runs):
            raise ValueError(
                f"got {len(weights)} arbitration weights for {len(runs)} "
                f"tenants; pass exactly one positive weight per tenant"
            )
        credit = [0.0] * len(runs)
        pending = [i for i, run in enumerate(runs) if not run.done]
        while pending:
            clocks = {i: runs[i].clock for i in pending}
            laggard = min(clocks.values())
            skew = SKEW_WINDOW * laggard
            horizon = laggard + (SKEW_FLOOR if SKEW_FLOOR > skew else skew)
            eligible = [
                i for i in pending if credit[i] > 0 and clocks[i] <= horizon
            ]
            if not eligible:
                for i in pending:
                    credit[i] += weights[i] * QUANTUM
                continue
            # min() keeps the first of equal clocks: the lowest index.
            idx = min(eligible, key=clocks.__getitem__)
            run = runs[idx]
            cost = run.advance()
            credit[idx] -= cost if cost > 1 else 1
            if run.done:
                pending.remove(idx)


def make_arbiter(
    kind: str, weights: Optional[Sequence[float]] = None
) -> Arbiter:
    """Instantiate an arbiter by name (:data:`ARBITRATION_POLICIES`).

    ``weights`` configures ``weighted_quantum`` and is ignored by the
    other policies.
    """
    if kind == "round_robin":
        return RoundRobinArbiter()
    if kind == "priority":
        return PriorityArbiter()
    if kind == "weighted_quantum":
        return WeightedQuantumArbiter(weights=weights)
    raise ValueError(
        f"unknown arbitration policy {kind!r}; "
        f"choose from {', '.join(ARBITRATION_POLICIES)}"
    )


def default_arbitration(weights: Optional[Sequence[float]]) -> str:
    """The arbitration of a shared-MMU run that names none.

    ``weighted_quantum`` when ``weights`` are given and not all equal,
    ``round_robin`` otherwise.  Round robin never reads the weights, and
    under unequal shares its whole-tile-step turns let one tenant's clock
    race ahead (see :class:`WeightedQuantumArbiter`).
    """
    if weights is not None and any(w != weights[0] for w in weights):
        return "weighted_quantum"
    return "round_robin"
