"""Tests for repro.mem.block_cache: the per-node SRAM remote cache."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem.block_cache import BlockCache


class TestFiniteBlockCache:
    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            BlockCache(0)

    def test_basic_miss_fill_hit(self):
        bc = BlockCache(16)
        assert not bc.lookup(5, 0)
        bc.fill(5, 0)
        assert bc.lookup(5, 0)
        assert bc.contains(5)
        assert not bc.is_infinite

    def test_direct_mapped_conflict(self):
        bc = BlockCache(16)
        bc.fill(1, 0)
        victim = bc.fill(17, 0)
        assert victim == (1, False)
        assert not bc.contains(1)
        assert bc.stats.evictions == 1

    def test_dirty_state_and_writeback_reporting(self):
        bc = BlockCache(16)
        bc.fill(1, 0)
        bc.touch_write(1, 2)
        assert bc.is_dirty(1)
        victim = bc.fill(17, 0)
        assert victim == (1, True)

    def test_fill_with_dirty_flag(self):
        bc = BlockCache(16)
        bc.fill(2, 0, dirty=True)
        assert bc.is_dirty(2)

    def test_stale_version_misses_and_drops(self):
        bc = BlockCache(16)
        bc.fill(3, 1)
        assert not bc.lookup(3, 2)
        assert not bc.contains(3)
        assert bc.stats.invalidations == 1

    def test_invalidate(self):
        bc = BlockCache(16)
        bc.fill(3, 0)
        assert bc.invalidate(3)
        assert not bc.invalidate(3)
        # invalidating the wrong block in an occupied frame is a no-op
        bc.fill(4, 0)
        assert not bc.invalidate(20)  # 20 % 16 == 4 but holds block 4
        assert bc.contains(4)

    def test_invalidate_page(self):
        bc = BlockCache(64)
        for b in range(8, 16):
            bc.fill(b, 0)
        dropped = bc.invalidate_page(range(8, 16))
        assert dropped == 8
        assert bc.occupancy() == 0

    def test_touch_write_absent_is_noop(self):
        bc = BlockCache(16)
        bc.touch_write(9, 1)
        assert not bc.contains(9)

    @given(blocks=st.lists(st.integers(min_value=0, max_value=500),
                           min_size=1, max_size=400))
    @settings(max_examples=40)
    def test_occupancy_bounded_by_capacity(self, blocks):
        bc = BlockCache(32)
        for b in blocks:
            if not bc.lookup(b, 0):
                bc.fill(b, 0)
        assert bc.occupancy() <= 32
        assert bc.stats.hits + bc.stats.misses == len(blocks)


class TestInfiniteBlockCache:
    def test_is_infinite(self):
        bc = BlockCache(None)
        assert bc.is_infinite

    def test_never_evicts(self):
        bc = BlockCache(None)
        for b in range(1000):
            assert bc.fill(b, 0) is None
        assert bc.occupancy() == 1000
        assert bc.stats.evictions == 0

    def test_hits_after_fill(self):
        bc = BlockCache(None)
        bc.fill(123456, 0)
        assert bc.lookup(123456, 0)
        assert not bc.lookup(999999, 0)

    def test_stale_version_invalidation(self):
        bc = BlockCache(None)
        bc.fill(5, 1)
        assert not bc.lookup(5, 3)
        assert not bc.contains(5)

    def test_write_and_invalidate(self):
        bc = BlockCache(None)
        bc.fill(5, 1)
        bc.touch_write(5, 2)
        assert bc.is_dirty(5)
        assert bc.invalidate(5)
        assert not bc.invalidate(5)

    def test_invalidate_page_and_clear(self):
        bc = BlockCache(None)
        for b in range(64, 72):
            bc.fill(b, 0)
        assert bc.invalidate_page(range(64, 72)) == 8
        bc.fill(1, 0)
        bc.clear()
        assert bc.occupancy() == 0

    def test_capacity_conflict_free_property(self):
        """The perfect CC-NUMA cache never loses a block except to invalidation."""
        bc = BlockCache(None)
        blocks = list(range(0, 3000, 7))
        for b in blocks:
            bc.fill(b, 0)
        for b in blocks:
            assert bc.lookup(b, 0)

    def test_identity_mapped_frames(self):
        """The infinite cache stores block ``b`` in frame ``b`` of the same
        flat arrays a finite cache uses, growing them in place on a fill
        past the end; lookups past the end miss without growing."""
        bc = BlockCache(None)
        frames = bc._blocks
        assert len(frames) == 0
        assert not bc.lookup(5000, 0)
        assert not bc.contains(5000) and not bc.invalidate(5000)
        assert len(frames) == 0
        bc.fill(5000, 3, dirty=True)
        assert bc._blocks is frames and len(frames) > 5000
        assert frames[5000] == 5000 and bc._versions[5000] == 3
        assert bc._dirty[5000]
        assert bc.occupancy() == 1
        bc.reserve(100)            # never shrinks
        assert len(frames) > 5000

    def test_matches_dict_model(self):
        """The identity-mapped cache behaves exactly like an unbounded
        ``block -> (version, dirty)`` map, growing on fills past the end."""
        blocks = [0, 1, 5, 2047, 4000]
        for seed in range(5):
            rng = random.Random(seed)
            bc = BlockCache(None)
            model = {}
            for _ in range(3000):
                op = rng.choice(("fill", "lookup", "write", "inval"))
                block = rng.choice(blocks)
                version = rng.randrange(4)
                if op == "fill":
                    dirty = rng.random() < 0.5
                    assert bc.fill(block, version, dirty=dirty) is None
                    model[block] = (version, dirty)
                elif op == "lookup":
                    hit = block in model and model[block][0] >= version
                    assert bc.lookup(block, version) == hit
                    if block in model and not hit:
                        del model[block]
                elif op == "write":
                    bc.touch_write(block, version)
                    if block in model:
                        model[block] = (max(model[block][0], version), True)
                else:
                    assert bc.invalidate(block) == (block in model)
                    model.pop(block, None)
                assert bc.occupancy() == len(model)
            assert sorted(bc.resident_blocks()) == sorted(model)
            for block, (version, dirty) in model.items():
                assert bc.is_dirty(block) == dirty
            assert bc.stats.evictions == 0
