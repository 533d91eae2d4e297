"""Tests for the memoizing walk resolver and the page table's walk memos."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mmu import neummu_config
from repro.core.walk_info import WalkResolver
from repro.memory.address import (
    PAGE_SIZE_2M,
    PAGE_SIZE_4K,
    AddressError,
    translation_path,
)
from repro.memory.page_table import PageFault, PageTable
from repro.npu.simulator import MultiTenantSimulator, NPUSimulator
from repro.workloads.cnn import Workload
from repro.workloads.layers import ConvLayer, DenseLayer

BASE = 0x7F00_0000_0000


def table(n_pages=8, page_size=PAGE_SIZE_4K):
    pt = PageTable()
    pt.map_range(BASE, n_pages * page_size, first_pfn=100, page_size=page_size)
    return pt


class TestResolve:
    def test_resolves_mapped_page(self):
        resolver = WalkResolver(table(), PAGE_SIZE_4K)
        info = resolver.resolve_va(BASE + 5000)
        assert info is not None
        assert info.pfn == 101
        assert info.levels == 4
        assert info.page_size == PAGE_SIZE_4K

    def test_path_matches_address_split(self):
        resolver = WalkResolver(table(), PAGE_SIZE_4K)
        info = resolver.resolve_va(BASE)
        assert info.path == translation_path(BASE)
        assert len(info.entry_pas) == 4

    def test_unmapped_returns_none(self):
        resolver = WalkResolver(table(n_pages=1), PAGE_SIZE_4K)
        assert resolver.resolve_va(BASE + 10 * PAGE_SIZE_4K) is None

    def test_2mb_paths_have_two_levels(self):
        resolver = WalkResolver(table(2, PAGE_SIZE_2M), PAGE_SIZE_2M)
        info = resolver.resolve_va(BASE + 100)
        assert info.levels == 3
        assert len(info.path) == 2

    def test_memoization_caches_both_outcomes(self):
        pt = table(n_pages=1)
        resolver = WalkResolver(pt, PAGE_SIZE_4K)
        hit = resolver.resolve_va(BASE)
        again = resolver.resolve_va(BASE)
        assert hit is again  # cached object identity
        missing_vpn = (BASE >> 12) + 10
        assert resolver.resolve_vpn(missing_vpn) is None
        assert resolver._cache[missing_vpn] is None  # the fault is cached
        # Mapping the page drops the cached fault: seen at once.
        pt.map_page(BASE + 10 * PAGE_SIZE_4K, pfn=999)
        assert resolver.resolve_vpn(missing_vpn).pfn == 999
        assert resolver.resolve_va(BASE) is hit  # untouched page stays cached

    def test_remap_is_seen_at_once(self):
        pt = table()
        resolver = WalkResolver(pt, PAGE_SIZE_4K)
        first = resolver.resolve_va(BASE)
        neighbour = resolver.resolve_va(BASE + PAGE_SIZE_4K)
        pt.map_page(BASE, pfn=555)  # remap
        assert resolver.resolve_va(BASE).pfn == 555 != first.pfn
        pt.unmap_page(BASE)
        assert resolver.resolve_va(BASE) is None
        assert resolver.resolve_va(BASE + PAGE_SIZE_4K) is neighbour

    def test_adjacent_pages_share_upper_entry_pas(self):
        resolver = WalkResolver(table(), PAGE_SIZE_4K)
        a = resolver.resolve_va(BASE)
        b = resolver.resolve_va(BASE + PAGE_SIZE_4K)
        assert a.entry_pas[:3] == b.entry_pas[:3]
        assert a.entry_pas[3] != b.entry_pas[3]
        assert a.path is b.path  # one tuple per page-table node


# --------------------------------------------------------------------- #
# memo correctness under mapping changes                                #
# --------------------------------------------------------------------- #

#: Three adjacent 2 MB regions; probed 4 KB pages include each region's
#: first page (the one a 2 MB resolver walks) and its last.
REGIONS = 3
PAGES = (0, 1, 2, 511)


def region_va(region):
    return BASE + region * PAGE_SIZE_2M


def expected_walk(pt, resolver, vpn):
    """What a resolver must answer, from the independent WalkStep walk."""
    try:
        walk = pt.walk(vpn << (resolver.page_size.bit_length() - 1))
    except PageFault:
        return None
    return (
        vpn,
        walk.pfn,
        walk.page_size,
        walk.levels_accessed,
        tuple(step.index for step in walk.steps[:-1]),
        tuple(step.entry_pa for step in walk.steps),
        resolver.asid,
    )


mutations = st.one_of(
    st.tuples(
        st.just("map4k"), st.integers(0, REGIONS - 1), st.sampled_from(PAGES),
        st.integers(1, 10**6),
    ),
    st.tuples(
        st.just("range4k"), st.integers(0, REGIONS - 1), st.sampled_from(PAGES),
        st.integers(1, 3), st.integers(1, 10**6),
    ),
    st.tuples(st.just("unmap4k"), st.integers(0, REGIONS - 1), st.sampled_from(PAGES)),
    st.tuples(st.just("map2m"), st.integers(0, REGIONS - 1), st.integers(1, 10**4)),
    st.tuples(
        st.just("range2m"), st.integers(0, REGIONS - 1), st.integers(1, 2),
        st.integers(1, 10**4),
    ),
    st.tuples(st.just("unmap2m"), st.integers(0, REGIONS - 1)),
)
probes = st.tuples(
    st.just("resolve"), st.integers(0, 3), st.integers(0, REGIONS - 1),
    st.sampled_from(PAGES),
)


def apply(pt, op):
    kind, region = op[0], op[1]
    try:
        if kind == "map4k":
            pt.map_page(region_va(region) + op[2] * PAGE_SIZE_4K, op[3])
        elif kind == "range4k":
            pt.map_range(
                region_va(region) + op[2] * PAGE_SIZE_4K, op[3] * PAGE_SIZE_4K, op[4]
            )
        elif kind == "unmap4k":
            pt.unmap_page(region_va(region) + op[2] * PAGE_SIZE_4K)
        elif kind == "map2m":
            pt.map_page(region_va(region), op[2], PAGE_SIZE_2M)
        elif kind == "range2m":
            pt.map_range(region_va(region), op[2] * PAGE_SIZE_2M, op[3], PAGE_SIZE_2M)
        else:
            pt.unmap_page(region_va(region), PAGE_SIZE_2M)
    except AddressError:
        pass  # a 4 KB page under a 2 MB leaf; a range may fail part-way


class TestTableMemo:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.one_of(mutations, probes), min_size=1, max_size=25))
    def test_memo_matches_walk_under_mapping_changes(self, ops):
        pt = PageTable()
        pt.map_range(region_va(0), 4 * PAGE_SIZE_4K, first_pfn=7)
        resolvers = [
            WalkResolver(pt, size, asid) for size in (PAGE_SIZE_4K, PAGE_SIZE_2M)
            for asid in (0, 3)
        ]
        vas = [
            region_va(region) + page * PAGE_SIZE_4K
            for region in range(REGIONS) for page in PAGES
        ]

        def check(resolver, va):
            vpn = va >> (resolver.page_size.bit_length() - 1)
            got = resolver.resolve_vpn(vpn)
            want = expected_walk(pt, resolver, vpn)
            assert (None if got is None else tuple(got)) == want

        for op in ops:
            if op[0] == "resolve":
                _, which, region, page = op
                check(resolvers[which], region_va(region) + page * PAGE_SIZE_4K)
                continue
            apply(pt, op)
            for resolver in resolvers:
                for va in vas:
                    check(resolver, va)

    def test_memo_is_per_page_size_and_asid(self):
        pt = table()
        assert pt.walk_memo(PAGE_SIZE_4K, 0) is pt.walk_memo(PAGE_SIZE_4K, 0)
        assert pt.walk_memo(PAGE_SIZE_4K, 0) is not pt.walk_memo(PAGE_SIZE_4K, 1)
        assert pt.walk_memo(PAGE_SIZE_4K, 0) is not pt.walk_memo(PAGE_SIZE_2M, 0)
        first = WalkResolver(pt, PAGE_SIZE_4K, asid=1)
        second = WalkResolver(pt, PAGE_SIZE_4K, asid=1)
        assert first._cache is second._cache
        assert second.resolve_va(BASE) is first.resolve_va(BASE)


# --------------------------------------------------------------------- #
# sharing across simulators                                             #
# --------------------------------------------------------------------- #


def tiny_workload():
    return Workload(
        name="tiny_memo_b01",
        batch=1,
        layers=(
            ConvLayer("c1", 1, 28, 28, 16, 64, kernel=3, pad=1),
            DenseLayer("fc", 1, 28 * 28 * 64, 256),
        ),
    )


class TestSharedMemo:
    def test_second_simulator_resolves_nothing(self, monkeypatch):
        workload = tiny_workload()
        config = neummu_config()
        first_sim = NPUSimulator(workload, config)
        first = first_sim.run()
        calls = []
        resolve = PageTable.resolve

        def counting(self, va):
            calls.append(va)
            return resolve(self, va)

        monkeypatch.setattr(PageTable, "resolve", counting)
        second_sim = NPUSimulator(workload, config)
        # Construction-cached: both simulators walk one table.
        assert second_sim.address_space.page_table is first_sim.address_space.page_table
        second = second_sim.run()
        assert calls == []
        assert second == first

    def test_tenants_sharing_a_table_keep_separate_memos(self):
        workload = tiny_workload()
        sim = MultiTenantSimulator([workload, workload], neummu_config())
        table = sim.tenants[0].address_space.page_table
        assert sim.tenants[1].address_space.page_table is table
        sim.run()
        memos = []
        for asid in (0, 1):
            resolver = sim.shared.mmu.resolver_for(asid)
            assert resolver._cache is table.walk_memo(resolver.page_size, asid)
            walks = [w for w in resolver._cache.values() if w is not None]
            assert walks and all(w.asid == asid for w in walks)
            memos.append(resolver._cache)
        assert memos[0] is not memos[1]
        assert memos[0].keys() == memos[1].keys()
