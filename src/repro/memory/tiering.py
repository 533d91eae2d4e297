"""First-class demand-paged memory tier: local residency + migration fabric.

NeuMMU's Section VI-A shows that demand paging's fault/translation bursts
are where translation machinery breaks down, and the heterogeneous-MMU
literature (Kim et al., *Address Translation Design Tradeoffs for
Heterogeneous Systems*; NDPage's tailored migration path) treats the
migration/translation interaction as a **system-level** concern.  This
module promotes the model that used to live inside the Figure 16 script
(:mod:`repro.sparse.demand_paging`) to a subsystem every layer can share:

* :class:`MigrationFabric` — the shared NPU↔NPU page-migration fabric.  A
  bounded number of migration *slots* (parallel transfer lanes, each at
  full link bandwidth — the walker-pool treatment applied to transfers)
  serve page moves; per-ASID byte/occupancy accounting is exact, and a
  :class:`~repro.core.qos.SharePolicy` may impose slot quotas
  (``fabric_quota``) mirroring the TLB/walker/PRMB treatment:
  ``full_share`` admits any free slot, ``static_partition`` caps every
  tenant at its reservation, and ``weighted`` lets a tenant at quota
  borrow slots no other tenant's unmet reservation is entitled to.

* :class:`LocalMemoryTier` — per-ASID residency tracking with per-tenant
  local-memory budgets and pluggable eviction.  Its
  :meth:`~LocalMemoryTier.handle_fault` is the engine's first-class
  demand-paging hook (:data:`repro.core.engine.FaultHandler`): it maps
  the faulting page, shoots the stale translation down through the
  ASID-tagged :meth:`~repro.core.mmu.MMU.shootdown` path, charges the
  migration on the fabric, and evicts over-budget pages — every eviction
  again routed through ``MMU.shootdown`` so no context can ever observe
  a stale PFN.

Single-tenant timing is bit-identical to the historical Figure 16 model:
with an uncontended fabric, a fault resolves at
``cycle + fault_overhead_cycles + link.bulk_transfer_cycles(page_size)``
in the same float-operation order.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Protocol

from .address import page_offset_bits
from .page_table import PageTable

MB = 1024 * 1024

#: Valid :class:`LocalMemoryTier` eviction policies.  ``lru`` evicts the
#: least-recently-*migrated* page first (insertion order; a re-fault
#: re-inserts at the back); ``mru`` evicts the most recent first — the
#: anti-thrash policy for scan-dominated footprints.
EVICTION_POLICIES = ("lru", "mru")


class MigrationLink(Protocol):
    """Transfer-timing surface the fabric needs from a link model.

    Structural, not nominal: :class:`repro.sparse.numa.LinkModel`
    satisfies it without the memory layer importing the sparse layer
    (``simlint: layer-import``).
    """

    def bulk_transfer_cycles(self, nbytes: int) -> float: ...


class FabricSharePolicy(Protocol):
    """Quota surface the fabric consumes from a QoS share policy.

    Mirrors the slice of :class:`repro.core.qos.SharePolicy` the fabric
    actually calls; a Protocol keeps ``memory`` below ``core`` in the
    layering order (``simlint: layer-import``).
    """

    @property
    def trivial(self) -> bool: ...

    @property
    def work_conserving(self) -> bool: ...

    @property
    def asids(self) -> Iterable[int]: ...

    def fabric_quota(self, asid: int, slots: int) -> int: ...


class ResidentSpace(Protocol):
    """Surface the tier needs from a tenant's address space."""

    page_table: PageTable

    def touch(self, va: int, page_size: Optional[int] = None) -> bool: ...


class WalkTracker(Protocol):
    """In-flight-walk probe (the slice of ``core.pts.PTS`` we consult)."""

    def peek(self, vpn: int, asid: int = 0) -> Optional[List[int]]: ...


class ShootdownMMU(Protocol):
    """Invalidation surface the tier drives on its bound MMU.

    Structural stand-in for :class:`repro.core.mmu.MMU` so the memory
    layer never imports ``core`` (``simlint: layer-import``).
    """

    paging_tier: Optional["LocalMemoryTier"]

    @property
    def pts(self) -> Optional[WalkTracker]: ...

    def shootdown(self, vpn: int, asid: int = 0) -> None: ...


@dataclass(frozen=True)
class TieringConfig:
    """Knobs of a demand-paged memory tier (shared or per-tenant)."""

    #: Parallel migration lanes on the shared fabric (walker-pool style:
    #: each in-flight transfer streams at full link bandwidth).
    fabric_slots: int = 4
    #: Driver + queueing cost of taking one fault, before the transfer.
    fault_overhead_cycles: float = 500.0
    #: Local-memory budget per tenant when none is given explicitly.
    default_budget_bytes: int = 64 * MB
    #: One of :data:`EVICTION_POLICIES`.
    eviction: str = "lru"

    def __post_init__(self) -> None:
        if self.fabric_slots <= 0:
            raise ValueError("fabric_slots must be positive")
        if self.fault_overhead_cycles < 0:
            raise ValueError("fault_overhead_cycles cannot be negative")
        if self.default_budget_bytes <= 0:
            raise ValueError("default_budget_bytes must be positive")
        if self.eviction not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {self.eviction!r}; "
                f"choose from {', '.join(EVICTION_POLICIES)}"
            )

    def build_tier(
        self,
        link: MigrationLink,
        page_size: int,
        policy: Optional[FabricSharePolicy] = None,
    ) -> "LocalMemoryTier":
        """A fresh tier over its own fabric, both sized by this config.

        ``policy`` governs the fabric's slot quotas (None: a private
        fabric with no quotas).
        """
        fabric = MigrationFabric(link, slots=self.fabric_slots, policy=policy)
        return LocalMemoryTier(
            fabric,
            page_size=page_size,
            fault_overhead_cycles=self.fault_overhead_cycles,
            eviction=self.eviction,
        )


@dataclass
class FabricUsage:
    """One tenant's exact share of the migration fabric."""

    asid: int
    migrations: int = 0
    bytes_moved: int = 0
    #: Sum of transfer durations (fabric occupancy attributable to the
    #: tenant; overlapping tenants can sum past wall-clock).
    busy_cycles: float = 0.0
    #: Cycles migrations waited for a slot (admission + occupancy).
    queue_cycles: float = 0.0


class MigrationFabric:
    """Bounded-slot page-migration fabric with exact byte accounting.

    ``link`` is duck-typed: anything exposing
    ``bulk_transfer_cycles(nbytes) -> float`` (e.g.
    :class:`repro.sparse.numa.LinkModel`).  ``policy`` is an optional
    :class:`~repro.core.qos.SharePolicy`; its
    :meth:`~repro.core.qos.SharePolicy.fabric_quota` bounds each
    tenant's concurrent in-flight migrations exactly as walker quotas
    bound concurrent walks.
    """

    def __init__(
        self,
        link: MigrationLink,
        slots: int = 1,
        policy: Optional[FabricSharePolicy] = None,
    ) -> None:
        if slots <= 0:
            raise ValueError("a migration fabric needs at least one slot")
        self.link = link
        self.slots = slots
        self._policy = policy
        #: Completion cycle of the migration occupying each slot.
        self._free_at: List[float] = [0.0] * slots
        #: ASID owning each slot's most recent migration.
        self._owner: List[Optional[int]] = [None] * slots
        self.usage: Dict[int, FabricUsage] = {}
        self.total_migrations = 0
        self.total_bytes = 0

    # -- observation ---------------------------------------------------- #

    def in_flight_at(self, cycle: float) -> int:
        """Migrations still streaming at ``cycle``."""
        return sum(1 for free in self._free_at if free > cycle)

    def usage_of(self, asid: int) -> FabricUsage:
        """The tenant's usage record (created on first touch)."""
        usage = self.usage.get(asid)
        if usage is None:
            usage = self.usage[asid] = FabricUsage(asid=asid)
        return usage

    def _busy_count(self, asid: int, cycle: float) -> int:
        free_at = self._free_at
        owner = self._owner
        return sum(
            1
            for slot in range(self.slots)
            if free_at[slot] > cycle and owner[slot] == asid
        )

    def _admit(self, asid: int, cycle: float) -> bool:
        """Whether ``asid`` may claim a free slot at ``cycle``.

        Mirrors :meth:`repro.core.ptw.WalkerPool.can_start`: below quota
        always admits; at quota a work-conserving policy admits when the
        free slots exceed every other tenant's unmet reservation.
        """
        policy = self._policy
        if policy is None or policy.trivial:
            return True
        quota = policy.fabric_quota(asid, self.slots)
        if quota is None or self._busy_count(asid, cycle) < quota:
            return True
        if not policy.work_conserving:
            return False
        free = self.slots - self.in_flight_at(cycle)
        reserved_unmet = 0
        for other in policy.asids:
            if other == asid:
                continue
            other_quota = policy.fabric_quota(other, self.slots)
            if other_quota is not None:
                shortfall = other_quota - self._busy_count(other, cycle)
                if shortfall > 0:
                    reserved_unmet += shortfall
        return free > reserved_unmet

    # -- transfer ------------------------------------------------------- #

    def migrate(self, asid: int, nbytes: int, request_cycle: float) -> float:
        """Stream one page move; returns its completion cycle.

        The migration starts at ``request_cycle`` when a slot is free
        and the share policy admits the tenant; otherwise it queues
        until the earliest in-flight completion that unblocks it.  An
        uncontended fabric completes at exactly
        ``request_cycle + link.bulk_transfer_cycles(nbytes)`` — the
        historical single-tenant fault math, float op for float op.
        """
        if nbytes <= 0:
            raise ValueError(f"migration size must be positive, got {nbytes}")
        duration = self.link.bulk_transfer_cycles(nbytes)
        free_at = self._free_at
        t = request_cycle
        while True:
            slot = -1
            for s in range(self.slots):
                if free_at[s] <= t:
                    slot = s
                    break
            if slot >= 0 and self._admit(asid, t):
                break
            pending = [free for free in free_at if free > t]
            if not pending:  # pragma: no cover - admit() floors quotas at 1
                raise RuntimeError("migration fabric deadlock")
            t = min(pending)
        done = t + duration
        free_at[slot] = done
        self._owner[slot] = asid
        usage = self.usage_of(asid)
        usage.migrations += 1
        usage.bytes_moved += nbytes
        usage.busy_cycles += duration
        usage.queue_cycles += t - request_cycle
        self.total_migrations += 1
        self.total_bytes += nbytes
        return done

    def __repr__(self) -> str:
        return (
            f"MigrationFabric(slots={self.slots}, "
            f"migrations={self.total_migrations}, bytes={self.total_bytes})"
        )


@dataclass
class TierTenant:
    """One tenant's residency state in a :class:`LocalMemoryTier`.

    Byte/migration attribution is *not* duplicated here: the fabric's
    :class:`FabricUsage` is the single source of truth for moved bytes
    (read it through :meth:`LocalMemoryTier.migrated_bytes_of`).
    """

    asid: int
    #: The tenant's address space (duck-typed: ``touch`` + ``page_table``).
    space: ResidentSpace
    budget_bytes: int
    #: Migrated remote pages in residency order: vpn -> page bytes.
    resident: "OrderedDict[int, int]" = field(default_factory=OrderedDict)
    resident_bytes: int = 0
    faults: int = 0
    evictions: int = 0
    #: Bumped whenever a page *leaves* the resident set (budget
    #: eviction).  FAST-fidelity timing caches stamp the epoch their
    #: converged tile timings were measured under and drop them when it
    #: moves — a timing observed while a page was local is stale once
    #: that page has been evicted.  Pages *joining* the set never move
    #: the epoch: a signature measured earlier either faulted the
    #: newcomer in itself during sampling or never touches it, so its
    #: timing stays valid and cold-start fault storms don't wipe the
    #: cache on every step.
    residency_epoch: int = 0

    def bump_residency_epoch(self) -> None:
        """Invalidate FAST timings measured under the old resident set.

        The *only* sanctioned way to move :attr:`residency_epoch` after
        construction — every eviction site routes through here so the
        invalidation trail stays auditable (``simlint: epoch-raw-write``).
        """
        self.residency_epoch += 1


class LocalMemoryTier:
    """Per-ASID local-memory residency with budgets and eviction.

    The tier binds to one :class:`~repro.core.mmu.MMU` (single- or
    multi-context) and registers one :class:`TierTenant` per address
    space.  :meth:`handle_fault` is installed as the translation
    engine's fault handler; every mapping change — fault-time remap and
    budget eviction alike — goes through the MMU's ASID-tagged
    ``shootdown`` so no TLB/PTS/path-cache entry of *any* context can
    serve a stale PFN.
    """

    def __init__(
        self,
        fabric: MigrationFabric,
        page_size: int,
        fault_overhead_cycles: float = 500.0,
        eviction: str = "lru",
    ) -> None:
        if eviction not in EVICTION_POLICIES:
            raise ValueError(
                f"unknown eviction policy {eviction!r}; "
                f"choose from {', '.join(EVICTION_POLICIES)}"
            )
        if fault_overhead_cycles < 0:
            raise ValueError("fault_overhead_cycles cannot be negative")
        self.fabric = fabric
        self.page_size = page_size
        self.fault_overhead_cycles = fault_overhead_cycles
        self.eviction = eviction
        self._vpn_shift = page_offset_bits(page_size)
        self._mmu: Optional[ShootdownMMU] = None
        self.tenants: Dict[int, TierTenant] = {}

    # -- wiring --------------------------------------------------------- #

    def bind(self, mmu: ShootdownMMU) -> None:
        """Attach the MMU whose shootdown path invalidations route through.

        Idempotent for the same MMU; a tier serves exactly one
        translation stack (per-NPU tiers each get their own instance).
        """
        if self._mmu is mmu:
            return
        if self._mmu is not None:
            raise ValueError("tier is already bound to a different MMU")
        self._mmu = mmu
        mmu.paging_tier = self

    @property
    def mmu(self) -> Optional[ShootdownMMU]:
        """The bound MMU (None before :meth:`bind`)."""
        return self._mmu

    def register_tenant(
        self, asid: int, space: ResidentSpace, budget_bytes: Optional[int] = None
    ) -> TierTenant:
        """Attach one address space's residency state under its ASID."""
        if asid in self.tenants:
            raise ValueError(f"ASID {asid} already registered on this tier")
        if budget_bytes is None:
            budget_bytes = TieringConfig().default_budget_bytes
        if budget_bytes <= 0:
            raise ValueError(
                f"tenant budget must be positive, got {budget_bytes} "
                f"for ASID {asid}"
            )
        if budget_bytes < self.page_size:
            raise ValueError(
                f"tenant budget ({budget_bytes} B) must cover at least one "
                f"{self.page_size} B page for ASID {asid}; a sub-page "
                f"budget could never keep the faulting page resident"
            )
        tenant = TierTenant(asid=asid, space=space, budget_bytes=budget_bytes)
        self.tenants[asid] = tenant
        return tenant

    def unregister_tenant(self, asid: int) -> TierTenant:
        """Drop a tenant's residency state (its pages stay mapped; pair
        with :meth:`~repro.core.mmu.MMU.destroy_context` for teardown)."""
        try:
            return self.tenants.pop(asid)
        except KeyError:
            raise KeyError(f"no tenant registered for ASID {asid}") from None

    # -- fault path ----------------------------------------------------- #

    def handle_fault(self, vpn: int, cycle: float, asid: int = 0) -> float:
        """Migrate the faulting page in; returns the retry cycle.

        The engine's :data:`~repro.core.engine.FaultHandler` hook: maps
        the page (``space.touch``), shoots down every cached translation
        for (ASID, VPN), streams the page over the shared fabric
        (``fault_overhead_cycles`` ahead of the transfer), tracks
        residency and evicts over-budget pages.
        """
        tenant = self.tenants.get(asid)
        if tenant is None:
            raise KeyError(
                f"page fault for unregistered ASID {asid} (VPN 0x{vpn:x}); "
                f"call LocalMemoryTier.register_tenant first"
            )
        mmu = self._mmu
        if mmu is None:
            raise RuntimeError(
                "tier has no bound MMU to shoot stale translations down "
                "through; call LocalMemoryTier.bind first"
            )
        page_size = self.page_size
        base = vpn << self._vpn_shift
        tenant.space.touch(base, page_size)
        # The migrated page now maps to a *new* local frame.  The page
        # table dropped its memoized walks of the page when ``touch``
        # mapped it; shoot down the TLB hierarchy and PTS too, so no
        # path can ever serve the stale remote PFN.
        mmu.shootdown(vpn, asid)

        resolved = self.fabric.migrate(asid, page_size, cycle + self.fault_overhead_cycles)
        tenant.faults += 1

        tenant.resident[vpn] = page_size
        tenant.resident_bytes += page_size
        self._evict_over_budget(tenant, protect=vpn)
        return resolved

    def _evict_over_budget(self, tenant: TierTenant, protect: int = -1) -> None:
        """Evict migrated pages past the tenant's budget.

        Victim order follows the tier's eviction policy; a page whose
        walk is currently in flight is never evicted, nor is ``protect``
        — the page the current fault just migrated in.  The engine is
        about to retry that page's translation, so unmapping it again
        would refault it on the spot and livelock the fault loop (MRU
        order would otherwise pick it first every time).  Every eviction
        unmaps the page and routes through the ASID-tagged
        ``MMU.shootdown`` so other contexts' shared structures are
        swept of it too.
        """
        mmu = self._mmu
        assert mmu is not None  # only reached from handle_fault, post-bind
        pts = mmu.pts
        asid = tenant.asid
        page_size = self.page_size
        resident = tenant.resident
        mru = self.eviction == "mru"
        while tenant.resident_bytes > tenant.budget_bytes:
            evicted = None
            candidates = reversed(resident) if mru else resident
            for vpn in candidates:
                if vpn == protect:
                    continue
                # Never evict a page whose walk is currently in flight.
                if pts is None or pts.peek(vpn, asid) is None:
                    evicted = vpn
                    break
            if evicted is None:
                break
            size = resident.pop(evicted)
            tenant.resident_bytes -= size
            tenant.bump_residency_epoch()
            base = evicted << self._vpn_shift
            tenant.space.page_table.unmap_page(base, page_size)
            mmu.shootdown(evicted, asid)
            tenant.evictions += 1

    # -- aggregates ------------------------------------------------------ #

    def residency_epoch(self, asid: int) -> int:
        """The tenant's residency epoch (0 for unregistered ASIDs).

        Moves whenever a page is evicted from the tenant's resident set,
        so FAST-fidelity timing caches can tell whether their converged
        tile timings were measured under the current residency regime
        (see :class:`TierTenant` for why only removals count).
        """
        tenant = self.tenants.get(asid)
        return tenant.residency_epoch if tenant is not None else 0

    def migrated_bytes_of(self, asid: int) -> int:
        """Bytes migrated in for one tenant — read from the fabric's
        usage record, the single source of attribution (it survives
        :meth:`unregister_tenant`, so departed tenants stay readable)."""
        return self.fabric.usage_of(asid).bytes_moved

    @property
    def faults(self) -> int:
        """Total faults across all tenants."""
        return sum(t.faults for t in self.tenants.values())

    @property
    def evictions(self) -> int:
        """Total evictions across all tenants."""
        return sum(t.evictions for t in self.tenants.values())

    @property
    def migrated_bytes(self) -> int:
        """Total bytes migrated across the tier's fabric."""
        return self.fabric.total_bytes

    def __repr__(self) -> str:
        return (
            f"LocalMemoryTier(tenants={sorted(self.tenants)}, "
            f"eviction={self.eviction!r}, faults={self.faults})"
        )
