"""Tests for repro.mem.page_table and repro.mem.tlb."""

from __future__ import annotations

import pytest

from repro.mem.page_table import PageMode, PageTable, PageTableEntry
from repro.mem.tlb import TLB


class TestPageTable:
    def test_invalid_node(self):
        with pytest.raises(ValueError):
            PageTable(-1)

    def test_unmapped_by_default(self):
        pt = PageTable(0)
        assert pt.mode_of(5) is PageMode.UNMAPPED
        assert not pt.is_mapped(5)
        assert pt.peek(5) is None

    def test_entry_views_are_live_and_uncached(self):
        pt = PageTable(0)
        held = pt.map_page(5, PageMode.CCNUMA_REMOTE)
        other = pt.entry(5)
        assert other is not held        # the table keeps no view objects
        other.mode = PageMode.SCOMA
        other.writable = False
        assert held.mode is PageMode.SCOMA and not held.writable
        assert pt.peek(5).mode is PageMode.SCOMA

    def test_map_page_counts_fault(self):
        pt = PageTable(0)
        entry = pt.map_page(5, PageMode.CCNUMA_REMOTE)
        assert entry.mode is PageMode.CCNUMA_REMOTE
        assert pt.is_mapped(5)
        assert pt.soft_faults == 1
        assert entry.faults == 1

    def test_map_without_fault_accounting(self):
        pt = PageTable(0)
        pt.map_page(5, PageMode.LOCAL_HOME, count_fault=False)
        assert pt.soft_faults == 0

    def test_mode_transition_counts_remap(self):
        pt = PageTable(0)
        pt.map_page(5, PageMode.CCNUMA_REMOTE, count_fault=False)
        entry = pt.map_page(5, PageMode.SCOMA, count_fault=False)
        assert entry.remaps == 1
        assert entry.mode is PageMode.SCOMA
        # remapping to the same mode is not a remap
        pt.map_page(5, PageMode.SCOMA, count_fault=False)
        assert entry.remaps == 1

    def test_map_unmapped_mode_rejected(self):
        pt = PageTable(0)
        with pytest.raises(ValueError):
            pt.map_page(5, PageMode.UNMAPPED)

    def test_unmap(self):
        pt = PageTable(0)
        pt.map_page(5, PageMode.REPLICA, writable=False, count_fault=False)
        pt.unmap(5)
        assert pt.mode_of(5) is PageMode.UNMAPPED
        # unmapping an unmapped page is a no-op
        pt.unmap(99)
        assert pt.mode_of(99) is PageMode.UNMAPPED

    def test_replica_is_read_only(self):
        pt = PageTable(0)
        entry = pt.map_page(5, PageMode.REPLICA, writable=False, count_fault=False)
        assert not entry.writable

    def test_protection_fault_counter(self):
        pt = PageTable(0)
        pt.record_protection_fault(5)
        pt.record_protection_fault(5)
        assert pt.protection_faults == 2

    def test_pages_in_mode_and_counts(self):
        pt = PageTable(0)
        pt.map_page(1, PageMode.SCOMA, count_fault=False)
        pt.map_page(2, PageMode.SCOMA, count_fault=False)
        pt.map_page(3, PageMode.CCNUMA_REMOTE, count_fault=False)
        assert sorted(pt.pages_in_mode(PageMode.SCOMA)) == [1, 2]
        assert pt.count_in_mode(PageMode.SCOMA) == 2
        assert pt.count_in_mode(PageMode.REPLICA) == 0
        assert pt.num_entries() == 3


class TestTLB:
    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            TLB(0)

    def test_miss_then_hit(self):
        tlb = TLB()
        assert not tlb.access(5)
        assert tlb.access(5)
        assert tlb.hits == 1
        assert tlb.misses == 1
        assert tlb.contains(5)

    def test_capacity_lru_eviction(self):
        tlb = TLB(capacity=2)
        tlb.access(1)
        tlb.access(2)
        tlb.access(1)       # 2 becomes LRU
        tlb.access(3)       # evicts 2
        assert tlb.contains(1)
        assert not tlb.contains(2)
        assert tlb.contains(3)
        assert tlb.occupancy() == 2

    def test_shootdown(self):
        tlb = TLB()
        tlb.access(7)
        assert tlb.shootdown(7)
        assert not tlb.contains(7)
        assert not tlb.shootdown(7)
        assert tlb.shootdowns == 2

    def test_flush(self):
        tlb = TLB()
        for p in range(5):
            tlb.access(p)
        assert tlb.flush() == 5
        assert tlb.occupancy() == 0
