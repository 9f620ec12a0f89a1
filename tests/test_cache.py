"""Tests for repro.mem.cache: direct-mapped and set-associative caches."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.cache import (
    PROBE_MISS,
    PROBE_READ_HIT,
    PROBE_WRITE_HIT_OWNED,
    PROBE_WRITE_HIT_SHARED,
    CacheStats,
    DirectMappedCache,
    SetAssociativeCache,
)


class TestCacheStats:
    def test_accumulation_and_rates(self):
        stats = CacheStats()
        stats.hits = 3
        stats.misses = 1
        assert stats.accesses == 4
        assert stats.miss_rate == pytest.approx(0.25)
        stats.reset()
        assert stats.accesses == 0
        assert stats.miss_rate == 0.0


class TestDirectMappedCache:
    def test_invalid_size(self):
        with pytest.raises(ValueError):
            DirectMappedCache(0)

    def test_miss_then_hit(self):
        c = DirectMappedCache(8)
        assert not c.lookup(5, 0)
        c.fill(5, 0)
        assert c.lookup(5, 0)
        assert c.stats.hits == 1
        assert c.stats.misses == 1

    def test_conflict_eviction(self):
        c = DirectMappedCache(8)
        c.fill(3, 0)
        victim = c.fill(11, 0)  # 11 % 8 == 3
        assert victim == (3, False)
        assert not c.contains(3)
        assert c.contains(11)
        assert c.stats.evictions == 1

    def test_dirty_victim_reported(self):
        c = DirectMappedCache(8)
        c.fill(3, 0, dirty=True)
        victim = c.fill(11, 0)
        assert victim == (3, True)

    def test_refill_same_block_not_eviction(self):
        c = DirectMappedCache(8)
        c.fill(3, 0)
        assert c.fill(3, 1) is None
        assert c.stats.evictions == 0

    def test_stale_version_is_miss_and_invalidates(self):
        c = DirectMappedCache(8)
        c.fill(3, 1)
        assert not c.lookup(3, 2)
        assert c.stats.invalidations == 1
        assert not c.contains(3)

    def test_newer_cached_version_still_hits(self):
        c = DirectMappedCache(8)
        c.fill(3, 5)
        assert c.lookup(3, 2)

    def test_touch_write_marks_dirty(self):
        c = DirectMappedCache(8)
        c.fill(3, 1)
        assert not c.is_dirty(3)
        c.touch_write(3, 2)
        assert c.is_dirty(3)
        assert c.version_of(3) == 2

    def test_invalidate(self):
        c = DirectMappedCache(8)
        c.fill(3, 0)
        assert c.invalidate(3)
        assert not c.invalidate(3)
        assert not c.contains(3)

    def test_probe_codes(self):
        c = DirectMappedCache(8)
        assert c.probe(3, 0, False) == PROBE_MISS
        c.fill(3, 0)
        assert c.probe(3, 0, False) == PROBE_READ_HIT
        assert c.probe(3, 0, True) == PROBE_WRITE_HIT_SHARED
        c.touch_write(3, 1)
        assert c.probe(3, 1, True) == PROBE_WRITE_HIT_OWNED
        # stale version probes miss and drop the line
        assert c.probe(3, 9, False) == PROBE_MISS
        assert not c.contains(3)

    def test_probe_write_miss(self):
        c = DirectMappedCache(8)
        assert c.probe(4, 0, True) == PROBE_MISS

    def test_resident_blocks_and_occupancy(self):
        c = DirectMappedCache(8)
        for b in (0, 1, 2):
            c.fill(b, 0)
        assert sorted(c.resident_blocks()) == [0, 1, 2]
        assert c.occupancy() == 3
        c.clear()
        assert c.occupancy() == 0

    def test_version_of_absent(self):
        c = DirectMappedCache(8)
        assert c.version_of(3) is None

    @given(blocks=st.lists(st.integers(min_value=0, max_value=500),
                           min_size=1, max_size=300))
    @settings(max_examples=40)
    def test_occupancy_never_exceeds_capacity(self, blocks):
        c = DirectMappedCache(16)
        for b in blocks:
            if not c.lookup(b, 0):
                c.fill(b, 0)
        assert c.occupancy() <= 16
        # every resident block maps to its own frame
        assert len(set(b % 16 for b in c.resident_blocks())) == c.occupancy()

    @given(blocks=st.lists(st.integers(min_value=0, max_value=200),
                           min_size=1, max_size=200))
    @settings(max_examples=40)
    def test_stats_conservation(self, blocks):
        c = DirectMappedCache(8)
        for b in blocks:
            if not c.lookup(b, 0):
                c.fill(b, 0)
        assert c.stats.hits + c.stats.misses == len(blocks)


class TestSetAssociativeCache:
    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(0, 1)
        with pytest.raises(ValueError):
            SetAssociativeCache(8, 0)
        with pytest.raises(ValueError):
            SetAssociativeCache(9, 2)

    def test_lru_eviction_order(self):
        # one set of 2 ways: blocks 0, 4, 8 all map to set 0 (4 sets)
        c = SetAssociativeCache(8, assoc=2)
        c.fill(0, 0)
        c.fill(4, 0)
        c.lookup(0, 0)          # touch 0 so 4 becomes LRU
        victim = c.fill(8, 0)
        assert victim == (4, False)
        assert c.contains(0)
        assert c.contains(8)

    def test_probe_and_write_paths(self):
        c = SetAssociativeCache(8, assoc=2)
        assert c.probe(1, 0, True) == PROBE_MISS
        c.fill(1, 0, dirty=True)
        assert c.probe(1, 0, True) == PROBE_WRITE_HIT_OWNED
        c2 = SetAssociativeCache(8, assoc=2)
        c2.fill(2, 0)
        assert c2.probe(2, 0, True) == PROBE_WRITE_HIT_SHARED

    def test_stale_version_invalidation(self):
        c = SetAssociativeCache(8, assoc=4)
        c.fill(7, 1)
        assert not c.lookup(7, 3)
        assert not c.contains(7)

    def test_invalidate_and_clear(self):
        c = SetAssociativeCache(8, assoc=2)
        c.fill(7, 0)
        assert c.invalidate(7)
        assert not c.invalidate(7)
        c.fill(3, 0, dirty=True)
        assert c.is_dirty(3)
        c.clear()
        assert c.occupancy() == 0

    @given(blocks=st.lists(st.integers(min_value=0, max_value=300),
                           min_size=1, max_size=300))
    @settings(max_examples=40)
    def test_direct_mapped_equivalence_when_assoc_one(self, blocks):
        """assoc=1 set-associative cache behaves exactly like direct-mapped."""
        dm = DirectMappedCache(16)
        sa = SetAssociativeCache(16, assoc=1)
        for b in blocks:
            hit_dm = dm.lookup(b, 0)
            hit_sa = sa.lookup(b, 0)
            assert hit_dm == hit_sa
            if not hit_dm:
                dm.fill(b, 0)
                sa.fill(b, 0)
        assert sorted(dm.resident_blocks()) == sorted(sa.resident_blocks())

    @given(blocks=st.lists(st.integers(min_value=0, max_value=400),
                           min_size=1, max_size=300),
           assoc=st.sampled_from([2, 4, 8]))
    @settings(max_examples=30)
    def test_occupancy_bounded(self, blocks, assoc):
        c = SetAssociativeCache(16, assoc=assoc)
        for b in blocks:
            if not c.lookup(b, 0):
                c.fill(b, 0)
        assert c.occupancy() <= 16


class TestBulkAPI:
    """The line-state and bulk-accounting helpers the kernel builds on."""

    def _filled(self):
        from repro.mem.cache import DirectMappedCache
        c = DirectMappedCache(8)
        c.fill(3, version=2)
        c.fill(5, version=0, dirty=True)
        return c

    def test_line_state_aliases_live_lines(self):
        c = self._filled()
        blocks, versions, dirty = c.line_state()
        assert blocks[3] == 3 and versions[3] == 2 and dirty[5]
        c.invalidate(3)
        assert blocks[3] == -1

    def test_credit_batch(self):
        c = self._filled()
        c.credit_batch(hits=10, misses=4, evictions=2, invalidations=1)
        assert (c.stats.hits, c.stats.misses, c.stats.evictions,
                c.stats.invalidations) == (10, 4, 2, 1)

    def test_watch_fires_on_invalidate_and_clear(self):
        events = []
        c = self._filled()
        c.watch = events.append
        c.invalidate(99)       # absent: no drop, no event
        assert events == []
        c.invalidate(3)        # the hook receives the dropped block id
        assert events == [3]
        c.clear()              # whole-cache drops report -1
        assert events == [3, -1]

    def test_fill_watch_fires_on_fill(self):
        events = []
        c = self._filled()
        c.fill_watch = events.append
        c.fill(7, version=1)
        assert events == [7]
        c.fill_watch = None
        c.fill(9, version=1)
        assert events == [7]
