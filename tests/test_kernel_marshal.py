"""Unit tests for the kernel engine's zero-copy state marshalling.

The marshalling contract (:mod:`repro.engine.kernel.state`) promises
that every store view is an ``np.frombuffer`` over the owning object's
live buffer — writes on either side are immediately visible to the
other, no copies — and that the buffers are export-locked (growth
raises ``BufferError``) while the views exist.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.machine import Machine
from repro.core.factory import build_system
from repro.engine.classify import classify_phase
from repro.engine.kernel.state import (
    CON_BC_CAP, CON_BPP, NN_NIC_FREE, KernelState, schedule_arrays)
from repro.mem.page_table import MODE_CODES, PageMode
from repro.workloads.trace import PhaseTrace


@pytest.fixture
def machine(small_config):
    return Machine(small_config, build_system("migrep"))


@pytest.fixture
def kstate(machine):
    num_procs = len(machine.processors)
    caches = [machine.processors[p].cache for p in range(num_procs)]
    node_of = [machine.processors[p].node_id for p in range(num_procs)]
    return KernelState(machine, num_procs, caches, node_of)


def _marshal(machine, kstate, max_block=63):
    """Reserve and marshal one small phase; return its schedule."""
    kstate.reserve_for_phase(max_block)
    blocks = [np.asarray([1, 2, 1], dtype=np.int64)] * kstate.num_procs
    writes = [np.asarray([False, False, False])] * kstate.num_procs
    cls, sched = classify_phase(blocks, writes, kstate.caches,
                                machine.directory.version)
    kstate.marshal_phase(sched, len(sched))
    return sched


class TestZeroCopyViews:
    def test_store_views_share_memory(self, machine, kstate):
        """Every store view aliases the owner's buffer — no copies."""
        _marshal(machine, kstate)
        vm = machine.vm
        directory = machine.directory
        pairs = [
            (kstate.vm_home, np.frombuffer(vm._home, dtype=np.int64)),
            (kstate.vm_replicated,
             np.frombuffer(vm._replicated, dtype=np.uint8)),
            (kstate.dir_sharers,
             np.frombuffer(directory._sharers, dtype=np.int64)),
            (kstate.dir_versions,
             np.frombuffer(directory._version, dtype=np.int64)),
            (kstate.pt_modes[0],
             np.frombuffer(machine.page_tables[0]._modes, dtype=np.uint8)),
            (kstate.pt_faults[0],
             np.frombuffer(machine.page_tables[0]._faults, dtype=np.int64)),
            (kstate.bc_blocks[0],
             np.frombuffer(machine.block_caches[0]._blocks, dtype=np.int64)),
            (kstate.ctr_read,
             np.frombuffer(machine.protocol.counters._read, dtype=np.int64)),
        ]
        for view, owner in pairs:
            assert np.shares_memory(view, owner)

    def test_object_writes_visible_through_views(self, machine, kstate):
        _marshal(machine, kstate)
        machine.vm.ensure_placed(3, 1)
        assert kstate.vm_home[3] == 1
        machine.page_tables[2].map_page(5, PageMode.LOCAL_HOME)
        assert kstate.pt_modes[2][5] == MODE_CODES[PageMode.LOCAL_HOME]

    def test_view_writes_visible_through_objects(self, machine, kstate):
        _marshal(machine, kstate)
        kstate.vm_home[4] = 2
        assert machine.vm.home_of(4) == 2
        kstate.pt_modes[1][6] = MODE_CODES[PageMode.CCNUMA_REMOTE]
        assert machine.page_tables[1].mode_of(6) is PageMode.CCNUMA_REMOTE
        kstate.pt_faults[1][6] = 7
        assert machine.page_tables[1].entry(6).faults == 7

    def test_l1_line_views_share_memory(self, machine, kstate):
        _marshal(machine, kstate)
        blocks_l, versions_l, dirty_l = kstate.caches[0].line_state()
        assert np.shares_memory(
            kstate.cb[0], np.frombuffer(blocks_l, dtype=np.int64))
        assert np.shares_memory(
            kstate.cd[0], np.frombuffer(dirty_l, dtype=np.uint8))


class TestExportLocks:
    def test_growth_raises_while_views_live(self, machine, kstate):
        """In-place store growth must fail loudly, not dangle pointers."""
        _marshal(machine, kstate)
        with pytest.raises(BufferError):
            machine.vm.reserve(100_000)
        with pytest.raises(BufferError):
            machine.page_tables[0].reserve(100_000)

    def test_release_drops_locks(self, machine, kstate):
        _marshal(machine, kstate)
        kstate.release()
        machine.vm.reserve(100_000)
        assert machine.vm.home_of(99_999) is None

    def test_reserve_covers_whole_pages(self, machine, kstate):
        """Bail-time page operations touch every block of a page, so the
        reserve must cover the phase's maxima rounded up to pages."""
        max_block = 63
        _marshal(machine, kstate, max_block=max_block)
        bpp = int(kstate.con[CON_BPP])
        max_page = max_block // bpp
        assert len(kstate.vm_home) >= max_page + 1
        assert len(kstate.dir_sharers) >= (max_page + 1) * bpp
        for view in kstate.pt_modes:
            assert len(view) >= max_page + 1


class TestMirrors:
    def test_nic_sync_roundtrip(self, machine, kstate):
        _marshal(machine, kstate)
        kstate.load_absolutes()
        N = kstate.num_nodes
        kstate.nn[NN_NIC_FREE * N + 1] = 1234
        kstate.sync_nics_out()
        assert machine.network._nics[1].next_free == 1234
        machine.network._nics[1].next_free = 5678
        kstate.load_nics()
        assert kstate.nn[NN_NIC_FREE * N + 1] == 5678


class TestScheduleArrays:
    def test_columns_shared_per_phase_and_geometry(self, machine, kstate):
        """The walk columns come from the phase's cached static
        classification: a re-run of the phase passes the very same
        arrays, another cache geometry gets its own."""
        from repro.mem.cache import DirectMappedCache

        blocks = [np.asarray([1, 1, 2], dtype=np.int64)]
        writes = [np.asarray([True, False, False])]
        phase = PhaseTrace(name="p", compute_per_access=1,
                           blocks=blocks, writes=writes)
        version = machine.directory.version
        _, sched = classify_phase(blocks, writes, [DirectMappedCache(4)],
                                  version, phase=phase)
        _, again = classify_phase(blocks, writes, [DirectMappedCache(4)],
                                  version, phase=phase)
        _, other = classify_phase(blocks, writes, [DirectMappedCache(8)],
                                  version, phase=phase)
        first = schedule_arrays(sched)
        assert all(a is b for a, b in zip(first, schedule_arrays(again)))
        assert first[0] is not schedule_arrays(other)[0]
        ent_i, ent_p, ent_probe, ent_blk, ent_wrt, ent_slot, keys = first
        assert list(keys) == sorted(keys)
        assert len(ent_i) == len(sched)
        assert list(ent_blk) == [blocks[0][i] for i in ent_i]


class TestIdentityBlockCache:
    def test_reserve_grows_perfect_cache_to_whole_pages(self, small_config):
        """perfect's identity-mapped block cache is grown per phase past
        the phase's largest block, and the walk's frame count follows."""
        machine = Machine(small_config, build_system("perfect"))
        num_procs = len(machine.processors)
        caches = [p.cache for p in machine.processors]
        node_of = [p.node_id for p in machine.processors]
        kstate = KernelState(machine, num_procs, caches, node_of)
        bpp = int(kstate.con[CON_BPP])
        for max_block in (10, 5 * bpp + 3):
            kstate.reserve_for_phase(max_block)
            frames = int(kstate.con[CON_BC_CAP])
            assert frames >= (max_block // bpp + 1) * bpp
            for bc in machine.block_caches:
                assert len(bc._blocks) >= frames


class TestBuildCache:
    """The cached C object is keyed by source, compiler and flags."""

    @staticmethod
    def _fresh_load(monkeypatch):
        from repro.engine.kernel import cbuild

        monkeypatch.setattr(cbuild, "_loaded", False)
        monkeypatch.setattr(cbuild, "_caller", None)
        return cbuild.load_cwalk()

    @pytest.fixture
    def cache(self, monkeypatch, tmp_path):
        """A private, warm build cache built with the default compiler."""
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        monkeypatch.delenv("REPRO_KERNEL_CC", raising=False)
        if self._fresh_load(monkeypatch) is None:
            pytest.skip("no working C toolchain")
        assert len(list(tmp_path.glob("cwalk-*.so"))) == 1
        return tmp_path

    def test_unresolvable_override_ignores_warm_cache(self, cache,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_CC", "/nonexistent-compiler")
        assert self._fresh_load(monkeypatch) is None

    def test_other_compiler_rebuilds(self, cache, monkeypatch, tmp_path):
        import shutil

        from repro.engine.kernel import cbuild

        wrapper = tmp_path / "wrapped-cc"
        wrapper.write_text(f"#!/bin/sh\nexec {cbuild._compiler()} \"$@\"\n")
        wrapper.chmod(0o755)
        assert shutil.which(str(wrapper))
        monkeypatch.setenv("REPRO_KERNEL_CC", str(wrapper))
        assert self._fresh_load(monkeypatch) is not None
        assert len(list(cache.glob("cwalk-*.so"))) == 2

    def test_other_flags_rebuild(self, cache, monkeypatch):
        from repro.engine.kernel import cbuild

        monkeypatch.setattr(cbuild, "_FLAGS",
                            cbuild._FLAGS + ("-DREPRO_CACHE_KEY_TEST",))
        assert self._fresh_load(monkeypatch) is not None
        assert len(list(cache.glob("cwalk-*.so"))) == 2
