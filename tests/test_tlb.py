"""Tests for the TLB, including an LRU reference-model property test."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tlb import TLB


class TestBasics:
    def test_miss_then_hit(self):
        tlb = TLB(entries=4)
        assert tlb.lookup(10) is None
        tlb.insert(10, 99)
        assert tlb.lookup(10) == 99
        assert tlb.hits == 1
        assert tlb.misses == 1

    def test_hit_rate(self):
        tlb = TLB(entries=4)
        tlb.insert(1, 1)
        tlb.lookup(1)
        tlb.lookup(2)
        assert tlb.hit_rate == pytest.approx(0.5)

    def test_empty_hit_rate_is_zero(self):
        assert TLB(4).hit_rate == 0.0

    def test_lru_eviction(self):
        tlb = TLB(entries=2)
        tlb.insert(1, 1)
        tlb.insert(2, 2)
        tlb.lookup(1)  # 1 becomes MRU
        tlb.insert(3, 3)  # evicts 2
        assert tlb.contains(1)
        assert not tlb.contains(2)
        assert tlb.contains(3)

    def test_insert_existing_updates(self):
        tlb = TLB(entries=2)
        tlb.insert(1, 1)
        tlb.insert(1, 42)
        assert tlb.lookup(1) == 42
        assert tlb.occupancy == 1

    def test_invalidate(self):
        tlb = TLB(entries=4)
        tlb.insert(1, 1)
        assert tlb.invalidate(1) is True
        assert tlb.invalidate(1) is False
        assert tlb.lookup(1) is None

    def test_flush_keeps_stats(self):
        tlb = TLB(entries=4)
        tlb.insert(1, 1)
        tlb.lookup(1)
        tlb.flush()
        assert tlb.occupancy == 0
        assert tlb.hits == 1

    def test_reset_stats(self):
        tlb = TLB(entries=4)
        tlb.lookup(1)
        tlb.reset_stats()
        assert tlb.misses == 0

    def test_contains_does_not_touch_lru(self):
        tlb = TLB(entries=2)
        tlb.insert(1, 1)
        tlb.insert(2, 2)
        tlb.contains(1)  # must NOT refresh 1
        tlb.insert(3, 3)  # evicts 1 (oldest by true LRU)
        assert not tlb.contains(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            TLB(0)


class TestSetAssociative:
    """The TLB is fully associative: pages that would share a set in a
    set-associative design never conflict."""

    def test_full_assoc_no_conflicts(self):
        tlb = TLB(entries=4)
        for vpn in (0, 4, 8, 12):  # would all conflict in a sets design
            tlb.insert(vpn, vpn)
        assert all(tlb.contains(v) for v in (0, 4, 8, 12))


class ReferenceLRU:
    """Golden-model fully-associative LRU."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.data = OrderedDict()

    def lookup(self, key):
        if key in self.data:
            self.data.move_to_end(key)
            return self.data[key]
        return None

    def insert(self, key, value):
        if key in self.data:
            self.data.move_to_end(key)
        elif len(self.data) >= self.capacity:
            self.data.popitem(last=False)
        self.data[key] = value


#: A batch of 1..20 pages for ``TLB.insert_many``: fresh, distinct pages
#: from a wider range (the bulk step), or pages that may be resident or
#: repeated (the per-pair path).  Batches outrun the TLBs and the quotas.
_batch_vpns = st.one_of(
    st.lists(st.integers(0, 63), min_size=1, max_size=20, unique=True),
    st.lists(st.integers(0, 23), min_size=1, max_size=20),
)


@given(
    st.integers(1, 8),
    st.lists(
        st.one_of(
            st.tuples(st.sampled_from(["lookup", "insert"]), st.integers(0, 15)),
            st.tuples(st.just("batch"), _batch_vpns),
        ),
        max_size=200,
    ),
)
@settings(max_examples=100)
def test_property_matches_reference_lru(capacity, ops):
    tlb = TLB(entries=capacity)
    ref = ReferenceLRU(capacity)
    for op, key in ops:
        if op == "lookup":
            assert tlb.lookup(key) == ref.lookup(key)
        elif op == "insert":
            tlb.insert(key, key * 7)
            ref.insert(key, key * 7)
        else:
            tlb.insert_many(key, [vpn * 7 for vpn in key])
            for vpn in key:
                ref.insert(vpn, vpn * 7)
    assert tlb.occupancy == len(ref.data)
    assert list(tlb._set.items()) == list(ref.data.items())


# --------------------------------------------------------------------- #
# policy-mode victim selection: mirrors vs the reference scan            #
# --------------------------------------------------------------------- #


class _ScanVictimTLB:
    """Reference policied TLB with O(n) scanning victim selection.

    This replicates the pre-mirror implementation: victims are found by
    walking the TLB's OrderedDict in LRU order (self-victimization picks
    the owner's first key; quota reclaim picks the first key of any
    over-quota tenant; fallback is the LRU head).  It keeps the historical
    borrow test (free entries *and* per-tenant counts summing below the
    capacity) and drops a fill that finds no self-victim.  The production
    TLB's per-tenant recency mirrors must choose the *same* victims, and
    its one-term borrow test must agree.
    """

    def __init__(self, entries, policy):
        from repro.memory.address import ASID_SHIFT

        self.shift = ASID_SHIFT
        self.entries = entries
        self.policy = policy
        self.set = OrderedDict()
        self.occ = {}

    def lookup(self, vpn, asid=0):
        key = vpn | (asid << self.shift)
        entry_set = self.set
        pfn = entry_set.get(key)
        if pfn is not None:
            entry_set.move_to_end(key)
        return pfn

    def _victim(self, entry_set, owner=None, over_quota_first=False):
        first = None
        for key in entry_set:
            if first is None:
                first = key
            key_asid = key >> self.shift
            if owner is not None:
                if key_asid == owner:
                    return key
                continue
            if over_quota_first:
                quota = self.policy.tlb_quota(key_asid, self.entries)
                if quota is not None and self.occ.get(key_asid, 0) > quota:
                    return key
        return None if owner is not None else first

    def insert(self, vpn, pfn, asid=0):
        key = vpn | (asid << self.shift)
        entry_set = self.set
        if key in entry_set:
            entry_set.move_to_end(key)
            entry_set[key] = pfn
            return
        policy = self.policy
        quota = policy.tlb_quota(asid, self.entries)
        count = self.occ.get(asid, 0)
        victim = None
        if quota is not None and count >= quota:
            borrow = (
                policy.work_conserving
                and len(entry_set) < self.entries
                and sum(self.occ.values()) < self.entries
            )
            if not borrow:
                victim = self._victim(entry_set, owner=asid)
                if victim is None:
                    return
        if victim is None and len(entry_set) >= self.entries:
            victim = self._victim(entry_set, over_quota_first=True)
        if victim is not None:
            del entry_set[victim]
            v_asid = victim >> self.shift
            self.occ[v_asid] = self.occ.get(v_asid, 1) - 1
        entry_set[key] = pfn
        self.occ[asid] = self.occ.get(asid, 0) + 1

    def invalidate(self, vpn, asid=0):
        key = vpn | (asid << self.shift)
        entry_set = self.set
        if key in entry_set:
            del entry_set[key]
            self.occ[asid] = self.occ.get(asid, 1) - 1

    def invalidate_asid(self, asid):
        lo = asid << self.shift
        hi = (asid + 1) << self.shift
        for key in [k for k in self.set if lo <= k < hi]:
            del self.set[key]
        self.occ.pop(asid, None)


policied_ops = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from(
                ["lookup", "insert", "insert", "invalidate", "drop_asid"]
            ),
            st.integers(0, 23),  # vpn
            st.integers(0, 2),  # asid
        ),
        # One ASID's batch: ``insert_many`` on the TLB, per pair on the
        # reference.
        st.tuples(st.just("batch"), _batch_vpns, st.integers(0, 2)),
    ),
    max_size=300,
)


class TestPoliciedVictimMirrors:
    """The O(1) mirror-based victim selection, and ``insert_many``'s bulk
    step, are bit-identical to the historical O(n) scanning implementation
    filling one page at a time."""

    def _fuzz(self, kind, weights, ops, entries=8):
        from repro.core.qos import make_share_policy

        policy = make_share_policy(kind)
        ref_policy = make_share_policy(kind)
        for asid, weight in weights.items():
            policy.register(asid, weight)
            ref_policy.register(asid, weight)
        tlb = TLB(entries, policy=policy)
        ref = _ScanVictimTLB(entries, ref_policy)
        for op, vpn, asid in ops:
            if op == "lookup":
                assert tlb.lookup(vpn, asid) == ref.lookup(vpn, asid)
            elif op == "insert":
                tlb.insert(vpn, vpn * 7 + asid, asid)
                ref.insert(vpn, vpn * 7 + asid, asid)
            elif op == "batch":
                tlb.insert_many(vpn, [v * 7 + asid for v in vpn], asid)
                for v in vpn:
                    ref.insert(v, v * 7 + asid, asid)
            elif op == "invalidate":
                tlb.invalidate(vpn, asid)
                ref.invalidate(vpn, asid)
            else:
                tlb.invalidate_asid(asid)
                ref.invalidate_asid(asid)
        assert list(tlb._set.items()) == list(ref.set.items())
        for asid in weights:
            assert tlb.occupancy_of(asid) == ref.occ.get(asid, 0)
        # Each tenant's mirror holds exactly its keys, in LRU order, with
        # strictly increasing stamps.
        mirrors = tlb._mirrors
        owned = {}
        for key in tlb._set:
            owned.setdefault(key >> ref.shift, []).append(key)
        assert sorted(mirrors) == sorted(owned)
        for asid, keys in owned.items():
            assert list(mirrors[asid]) == keys
            stamps = list(mirrors[asid].values())
            assert all(a < b for a, b in zip(stamps, stamps[1:]))

    @given(ops=policied_ops)
    @settings(max_examples=120, deadline=None)
    def test_static_partition_fully_associative(self, ops):
        self._fuzz("static_partition", {0: 2.0, 1: 1.0, 2: 1.0}, ops)

    @given(ops=policied_ops)
    @settings(max_examples=120, deadline=None)
    def test_weighted_fully_associative(self, ops):
        self._fuzz("weighted", {0: 3.0, 1: 1.0, 2: 2.0}, ops)

    @given(ops=policied_ops)
    @settings(max_examples=120, deadline=None)
    def test_static_partition_stranded_entries(self, ops):
        # Equal weights on 8 entries: a quota of 2 each, 2 entries stranded.
        self._fuzz("static_partition", {0: 1.0, 1: 1.0, 2: 1.0}, ops)

    @given(ops=policied_ops)
    @settings(max_examples=120, deadline=None)
    def test_weighted_sixteen_entries(self, ops):
        self._fuzz("weighted", {0: 2.0, 1: 1.0, 2: 1.0}, ops, entries=16)
