"""Out-of-core trace files: writer/reader round-trips, corruption
handling, the no-copy fast path, and streaming through the sweep runner.

The contract under test is bit-identity: a trace streamed lazily from an
on-disk trace file must be indistinguishable — digests, counters, full
machine fingerprints — from the same trace held in memory.
"""

from __future__ import annotations

import json
import struct

import numpy as np
import pytest

from helpers import make_simple_spec, make_trace
from repro.cluster.machine import Machine
from repro.config import base_config
from repro.core.factory import SYSTEM_NAMES, build_system
from repro.experiments.runner import SweepRunner, _trace_digest
from repro.workloads import get_workload
from repro.workloads.generator import TraceGenerator
from repro.workloads.spec import SharingPattern
from repro.workloads.trace import PhaseTrace, Trace
from repro.workloads.trace_io import save_trace, traces_equal
from repro.workloads.tracefile import (
    DEFAULT_CACHED_PHASES,
    MAGIC,
    StreamingTrace,
    TraceFileError,
    TraceFileWorkload,
    TraceFileWriter,
    as_trace_file_path,
    open_trace,
    read_trace_header,
    trace_digest,
    trace_file_info,
    verify_trace_file,
    write_trace_file,
)
from test_engine_equivalence import fingerprint


def small_trace(machine, *, accesses=300, phases=2, seed=0) -> Trace:
    spec = make_simple_spec(pattern=SharingPattern.READ_WRITE_SHARED,
                            accesses=accesses, phases=phases,
                            write_fraction=0.3)
    return make_trace(spec, machine, seed=seed)


@pytest.fixture
def trace(tiny_machine) -> Trace:
    return small_trace(tiny_machine)


@pytest.fixture
def trace_file(trace, tmp_path):
    return write_trace_file(trace, tmp_path / "t.rpt")


# ---------------------------------------------------------------------------
# Digest scheme
# ---------------------------------------------------------------------------


class TestDigest:
    def test_matches_the_runner_memo_scheme(self, trace):
        assert trace_digest(trace) == _trace_digest(trace)

    def test_file_footer_carries_the_same_digest(self, trace, trace_file):
        streamed = open_trace(trace_file)
        assert streamed.digest == trace_digest(trace)
        # the runner's key helper short-circuits on the carried digest
        assert _trace_digest(streamed) == trace_digest(trace)

    def test_digest_sees_stream_splits(self, tiny_machine):
        a = Trace(name="t", num_procs=2, phases=[PhaseTrace(
            name="p", compute_per_access=0,
            blocks=[np.array([1, 2], dtype=np.int64),
                    np.array([], dtype=np.int64)],
            writes=[np.array([False, False]), np.array([], dtype=bool)])])
        b = Trace(name="t", num_procs=2, phases=[PhaseTrace(
            name="p", compute_per_access=0,
            blocks=[np.array([1], dtype=np.int64),
                    np.array([2], dtype=np.int64)],
            writes=[np.array([False]), np.array([False])])])
        assert trace_digest(a) != trace_digest(b)


# ---------------------------------------------------------------------------
# Writer / reader round-trips
# ---------------------------------------------------------------------------


class TestRoundTrip:
    def test_streams_and_metadata_survive(self, trace, trace_file):
        streamed = open_trace(trace_file)
        assert streamed.name == trace.name
        assert streamed.num_procs == trace.num_procs
        assert streamed.total_accesses() == trace.total_accesses()
        assert traces_equal(streamed.materialize(), trace)

    def test_multi_chunk_round_trip(self, trace, tmp_path):
        path = write_trace_file(trace, tmp_path / "c.rpt", chunk_refs=7)
        streamed = open_trace(path)
        info = trace_file_info(path)
        assert info["chunks"] > info["phases"]  # the tiny chunks split
        assert traces_equal(streamed.materialize(), trace)
        assert streamed.digest == trace_digest(trace)

    def test_generate_to_file_equals_generate(self, tiny_machine, tmp_path):
        spec = make_simple_spec(accesses=200)
        gen = TraceGenerator(spec, tiny_machine, seed=5)
        in_memory = TraceGenerator(spec, tiny_machine, seed=5).generate()
        path = gen.generate_to_file(tmp_path / "g.rpt")
        streamed = open_trace(path)
        assert traces_equal(streamed.materialize(), in_memory)
        assert streamed.digest == trace_digest(in_memory)

    def test_incremental_writer_discovers_procs(self, tmp_path):
        with TraceFileWriter(tmp_path / "i.rpt", name="inc") as w:
            w.begin_phase("one", compute_per_access=2)
            w.append(0, [1, 2, 3], [True, False, True])
            w.end_phase()
            w.begin_phase("two")
            w.append(2, [9], [False])   # a later phase widens the trace
            w.end_phase()
        streamed = open_trace(tmp_path / "i.rpt")
        assert streamed.num_procs == 3
        first = streamed.phases[0]
        assert first.num_procs == 3            # padded with empty streams
        assert len(first.blocks[1]) == 0
        assert list(first.blocks[0]) == [1, 2, 3]
        assert list(streamed.phases[1].blocks[2]) == [9]
        assert verify_trace_file(tmp_path / "i.rpt")["ok"]

    def test_verify_passes_on_good_files(self, trace_file):
        report = verify_trace_file(trace_file)
        assert report["ok"]
        assert report["chunks"] > 0

    def test_abort_leaves_nothing_behind(self, tmp_path):
        target = tmp_path / "a.rpt"
        with pytest.raises(RuntimeError):
            with TraceFileWriter(target, name="a", num_procs=1) as w:
                w.begin_phase("p")
                w.append(0, [1], [False])
                raise RuntimeError("producer died")
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []   # no orphaned temp file


# ---------------------------------------------------------------------------
# Corruption and version handling
# ---------------------------------------------------------------------------


class TestBadFiles:
    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceFileError):
            read_trace_header(tmp_path / "nope.rpt")

    def test_not_a_trace_file(self, tmp_path):
        p = tmp_path / "junk.rpt"
        p.write_bytes(b"definitely not a trace file, but long enough")
        with pytest.raises(TraceFileError, match="magic"):
            read_trace_header(p)

    def test_wrong_version(self, trace_file):
        raw = bytearray(trace_file.read_bytes())
        struct.pack_into("<I", raw, 8, 99)
        trace_file.write_bytes(bytes(raw))
        with pytest.raises(TraceFileError, match="version"):
            read_trace_header(trace_file)

    def test_unfinalized_file(self, trace_file):
        raw = bytearray(trace_file.read_bytes())
        struct.pack_into("<Q", raw, 16, 0)      # footer offset = 0
        trace_file.write_bytes(bytes(raw))
        with pytest.raises(TraceFileError, match="unfinalized"):
            read_trace_header(trace_file)

    def test_truncated_file(self, trace_file):
        raw = trace_file.read_bytes()
        trace_file.write_bytes(raw[:len(raw) // 2])
        with pytest.raises(TraceFileError):
            read_trace_header(trace_file)

    def test_shorter_than_preamble(self, tmp_path):
        p = tmp_path / "tiny.rpt"
        p.write_bytes(MAGIC)
        with pytest.raises(TraceFileError):
            read_trace_header(p)

    def test_flipped_stream_byte_fails_verify(self, trace_file):
        raw = bytearray(trace_file.read_bytes())
        raw[40] ^= 0xFF                         # inside the first chunk
        trace_file.write_bytes(bytes(raw))
        with pytest.raises(TraceFileError, match="digest"):
            verify_trace_file(trace_file)

    def test_corrupt_footer_json(self, trace_file):
        raw = bytearray(trace_file.read_bytes())
        _magic, _v, _f, f_off, _f_len = struct.unpack_from("<8sIIQQ", raw)
        raw[f_off] ^= 0xFF
        trace_file.write_bytes(bytes(raw))
        with pytest.raises(TraceFileError, match="footer"):
            read_trace_header(trace_file)


# ---------------------------------------------------------------------------
# No-copy fast path (PhaseTrace must not duplicate conforming arrays)
# ---------------------------------------------------------------------------


class TestNoCopy:
    def test_phase_trace_keeps_conforming_arrays(self):
        blocks = np.array([1, 2, 3], dtype=np.int64)
        writes = np.array([True, False, True], dtype=np.bool_)
        phase = PhaseTrace(name="p", compute_per_access=0,
                           blocks=[blocks], writes=[writes])
        assert phase.blocks[0] is blocks
        assert phase.writes[0] is writes

    def test_phase_trace_still_normalizes_foreign_dtypes(self):
        phase = PhaseTrace(name="p", compute_per_access=0,
                           blocks=[np.array([1, 2], dtype=np.int32)],
                           writes=[np.array([1, 0], dtype=np.uint8)])
        assert phase.blocks[0].dtype == np.int64
        assert phase.writes[0].dtype == np.bool_

    def test_streamed_phase_views_share_the_mapping(self, trace, tmp_path):
        path = write_trace_file(trace, tmp_path / "v.rpt")
        streamed = open_trace(path)
        phase = streamed.phases[0]
        mapping = streamed._mapping()
        for arr in (*phase.blocks, *phase.writes):
            if len(arr):
                assert np.shares_memory(arr, mapping)
                assert not arr.flags.writeable

    def test_multi_chunk_views_are_fresh_arrays(self, trace, tmp_path):
        path = write_trace_file(trace, tmp_path / "m.rpt", chunk_refs=7)
        streamed = open_trace(path)
        phase = streamed.phases[0]
        mapping = streamed._mapping()
        split = [a for a in phase.blocks if len(a) > 7]
        assert split, "expected at least one multi-chunk stream"
        for arr in split:
            assert not np.shares_memory(arr, mapping)


# ---------------------------------------------------------------------------
# Phase cache semantics
# ---------------------------------------------------------------------------


class TestPhaseCache:
    def test_pinned_prefix_is_stable(self, trace_file):
        streamed = open_trace(trace_file)
        assert streamed.phases[0] is streamed.phases[0]

    def test_cache_bound_is_respected(self, tiny_machine, tmp_path):
        trace = small_trace(tiny_machine, phases=3)
        path = write_trace_file(trace, tmp_path / "b.rpt")
        streamed = open_trace(path, cache_phases=1)
        assert streamed.phases[0] is streamed.phases[0]
        assert streamed.phases[2] is not streamed.phases[2]
        uncached = open_trace(path, cache_phases=False)
        assert uncached.phases[0] is not uncached.phases[0]
        assert DEFAULT_CACHED_PHASES >= 1

    def test_bytes_streamed_counts_every_serve(self, trace, trace_file):
        streamed = open_trace(trace_file)
        per_pass = 9 * trace.total_accesses()
        list(streamed.phases)
        assert streamed.bytes_streamed == per_pass
        list(streamed.phases)                   # cached serves still count
        assert streamed.bytes_streamed == 2 * per_pass


# ---------------------------------------------------------------------------
# Bit-identity on every system
# ---------------------------------------------------------------------------


class TestSystemEquivalence:
    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_streamed_run_is_bit_identical(self, system, tiny_config,
                                           tiny_machine, tmp_path):
        trace = small_trace(tiny_machine)
        path = write_trace_file(trace, tmp_path / "eq.rpt")
        m1 = Machine(tiny_config, build_system(system))
        fp_mem = fingerprint(m1, m1.run(trace))
        m2 = Machine(tiny_config, build_system(system))
        fp_file = fingerprint(m2, m2.run(open_trace(path)))
        assert fp_file == fp_mem


# ---------------------------------------------------------------------------
# Sweep runner integration: memo keys, the file lane, chaos
# ---------------------------------------------------------------------------


SYSTEMS = ("perfect", "ccnuma", "migrep")


class TestRunnerIntegration:
    @pytest.fixture(scope="class")
    def cfg(self):
        return base_config(seed=0)

    @pytest.fixture(scope="class")
    def lu_trace(self, cfg):
        return get_workload("lu", machine=cfg.machine, scale=0.05, seed=0)

    @pytest.fixture(scope="class")
    def lu_file(self, lu_trace, tmp_path_factory):
        return write_trace_file(
            lu_trace, tmp_path_factory.mktemp("lane") / "lu.rpt")

    def test_memo_key_is_shared_with_in_memory(self, cfg, lu_trace, lu_file):
        with SweepRunner(jobs=1) as runner:
            runner.map_runs([(lu_trace, s, cfg) for s in SYSTEMS])
            assert runner.stats.memo_hits == 0
            runner.map_runs([(open_trace(lu_file), s, cfg) for s in SYSTEMS])
            assert runner.stats.memo_hits == len(SYSTEMS)

    def test_file_lane_is_bit_identical_and_counted(self, cfg, lu_trace,
                                                    lu_file):
        with SweepRunner(jobs=1, memoize=False) as runner:
            reference = runner.map_runs(
                [(lu_trace, s, cfg) for s in SYSTEMS])
        with SweepRunner(jobs=2, memoize=False) as runner:
            streamed = runner.map_runs(
                [(open_trace(lu_file), s, cfg) for s in SYSTEMS])
            stats = runner.stats
        assert stats.parallel_runs == len(SYSTEMS)
        assert stats.file_maps >= 1
        assert stats.traces_spilled == 0        # ships its own path
        assert stats.bytes_streamed > 0
        assert stats.peak_rss_kb > 0
        for got, want in zip(streamed, reference):
            assert got.summary() == want.summary()
            assert got.stats.stall_breakdown == want.stats.stall_breakdown

    def test_chaos_streaming_survives_crashing_workers(self, cfg, lu_trace,
                                                       lu_file, monkeypatch):
        with SweepRunner(jobs=1, memoize=False) as runner:
            reference = runner.map_runs(
                [(lu_trace, s, cfg) for s in SYSTEMS])
        # every pool attempt (retries=2) crashes: the ladder must land
        # each run on the inline lane
        monkeypatch.setenv("REPRO_FAULTS", "crash=1.0")
        monkeypatch.setenv("REPRO_FAULTS_ATTEMPTS", "2")
        with SweepRunner(jobs=2, memoize=False, retries=2,
                         backoff=0.01) as runner:
            streamed = runner.map_runs(
                [(open_trace(lu_file), s, cfg) for s in SYSTEMS])
            stats = runner.stats
        assert stats.crashes > 0                # the injectors did fire
        assert stats.degradations > 0           # runs fell back inline
        for got, want in zip(streamed, reference):
            assert got.summary() == want.summary()
            assert got.stats.stall_breakdown == want.stats.stall_breakdown


# ---------------------------------------------------------------------------
# Registry integration (file: workloads)
# ---------------------------------------------------------------------------


class TestWorkloadRegistry:
    def test_file_prefix_resolves(self, trace, trace_file, tiny_machine):
        loaded = get_workload(f"file:{trace_file}", machine=tiny_machine)
        assert isinstance(loaded, StreamingTrace)
        assert traces_equal(loaded.materialize(), trace)

    def test_bare_rpt_path_resolves(self, trace_file, tiny_machine):
        loaded = get_workload(str(trace_file), machine=tiny_machine)
        assert isinstance(loaded, StreamingTrace)

    def test_missing_file_raises(self, tmp_path, tiny_machine):
        with pytest.raises(TraceFileError):
            get_workload(f"file:{tmp_path / 'gone.rpt'}",
                         machine=tiny_machine)

    def test_as_trace_file_path(self, trace_file):
        assert as_trace_file_path(f"file:{trace_file}") == trace_file
        assert as_trace_file_path(str(trace_file)) == trace_file
        assert as_trace_file_path("lu") is None

    def test_registered_workload_object(self, trace, trace_file,
                                        tiny_machine):
        from repro.traces import register_trace_file
        from repro.workloads.splash2.registry import WORKLOADS, get_spec

        workload = register_trace_file(trace_file, name="rt-test")
        try:
            assert isinstance(workload, TraceFileWorkload)
            assert get_spec("rt-test") is workload
            loaded = get_workload("rt-test", machine=tiny_machine)
            assert isinstance(loaded, StreamingTrace)
            assert traces_equal(loaded.materialize(), trace)
        finally:
            WORKLOADS.unregister("rt-test")


# ---------------------------------------------------------------------------
# Inspection
# ---------------------------------------------------------------------------


class TestInfo:
    def test_info_is_json_safe(self, trace, trace_file):
        info = trace_file_info(trace_file)
        json.dumps(info)
        assert info["name"] == trace.name
        assert info["num_procs"] == trace.num_procs
        assert info["accesses"] == trace.total_accesses()
        assert info["phases"] == len(trace.phases)
        assert info["file_bytes"] == trace_file.stat().st_size


# ---------------------------------------------------------------------------
# Atomic npz saves (satellite: torn-write protection for the trace store)
# ---------------------------------------------------------------------------


class TestAtomicSave:
    def test_no_temp_residue(self, trace, tmp_path):
        path = save_trace(trace, tmp_path / "t.npz")
        assert path.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["t.npz"]

    def test_failed_save_keeps_the_old_file(self, trace, tmp_path,
                                            monkeypatch):
        import repro.workloads.trace_io as trace_io

        path = tmp_path / "t.npz"
        save_trace(trace, path)
        before = path.read_bytes()

        def boom(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(trace_io.np, "savez_compressed", boom)
        with pytest.raises(OSError):
            save_trace(trace, path)
        assert path.read_bytes() == before      # old archive untouched
        assert [p.name for p in tmp_path.iterdir()] == ["t.npz"]
