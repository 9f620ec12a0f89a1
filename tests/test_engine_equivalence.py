"""Engine equivalence regression: the kernel == legacy, bit for bit.

The compiled residual kernel (:mod:`repro.engine.kernel`) must reproduce
the reference interpreter's statistics and execution times exactly —
every counter, stall category, clock, message count and cache statistic
— for every system the factory can build.  These tests run the same
trace through both engines on freshly built machines and compare deep
fingerprints of the results.  (A run the kernel cannot take falls back
to ``legacy`` for the whole run, so asserting ``kernel == legacy`` is
meaningful on any host; the tests that pin the compiled path itself
skip without a C toolchain.)
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.machine import Machine
from repro.config import CostModel, SimulationConfig
from repro.core.factory import SYSTEM_NAMES, build_system
from repro.engine import ENGINE_NAMES, default_engine, resolve_engine
from repro.workloads.spec import SharingPattern
from repro.workloads.trace import PhaseTrace, Trace

import numpy as np

from helpers import line_views, make_simple_spec, make_trace

#: a directory version column no block reaches: every version reads 0
NO_VERSIONS = np.zeros(0, dtype=np.int64)

NODE_FIELDS = (
    "accesses", "l1_hits", "upgrades", "local_misses", "block_cache_hits",
    "page_cache_hits", "remote_misses", "remote_cold",
    "remote_capacity_conflict", "remote_coherence", "migrations",
    "replications", "relocations", "page_cache_evictions",
    "replica_collapses", "mapping_faults",
)


def fingerprint(machine: Machine, stats) -> dict:
    """Deep fingerprint of a run: everything an experiment can observe."""
    return {
        "execution_time": stats.execution_time,
        "proc_finish_times": list(stats.proc_finish_times),
        "network_messages": stats.network_messages,
        "network_bytes": stats.network_bytes,
        "barrier_count": stats.barrier_count,
        "stalls": {k.value: v for k, v in stats.stall_breakdown.items()},
        "messages": {k.value: v for k, v in stats.message_stats.counts.items()},
        "nodes": [{f: getattr(n, f) for f in NODE_FIELDS} for n in stats.nodes],
        "l1": [(p.cache.stats.hits, p.cache.stats.misses,
                p.cache.stats.evictions, p.cache.stats.invalidations)
               for p in machine.processors],
        "bc": [(n.block_cache.stats.hits, n.block_cache.stats.misses,
                n.block_cache.stats.evictions,
                n.block_cache.stats.invalidations) for n in machine.nodes],
        "bus": [(n.bus.next_free, n.bus.transactions, n.bus.busy_cycles,
                 n.bus.wait_cycles) for n in machine.nodes],
        "timing": [(pt.clock, {k.value: v for k, v in pt.stalls.items()})
                   for pt in machine.timing.processors],
        "directory": (machine.directory.num_tracked(),
                      machine.directory.invalidations_sent,
                      machine.directory.writebacks),
    }


def run_both(cfg: SimulationConfig, system: str, trace):
    """Run ``trace`` under every engine on fresh machines; return fingerprints."""
    out = {}
    for engine in ENGINE_NAMES:
        machine = Machine(cfg, build_system(system))
        stats = machine.run(trace, engine=engine)
        out[engine] = fingerprint(machine, stats)
    return out


def assert_equivalent(cfg: SimulationConfig, system: str, trace) -> None:
    fps = run_both(cfg, system, trace)
    for engine in ENGINE_NAMES:
        assert fps[engine] == fps["legacy"], (
            f"engine {engine!r} mismatch for system {system!r}")


def require_c() -> None:
    """Skip unless the C walk builds on this host."""
    from repro.engine.kernel.cbuild import load_cwalk
    if load_cwalk() is None:
        pytest.skip("no working C toolchain")


class TestEverySystem:
    """Kernel == legacy for every buildable system."""

    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_read_write_shared(self, system, tiny_config, tiny_machine):
        spec = make_simple_spec(pattern=SharingPattern.READ_WRITE_SHARED,
                                accesses=300, write_fraction=0.3)
        trace = make_trace(spec, tiny_machine, seed=3)
        assert_equivalent(tiny_config, system, trace)

    @pytest.mark.parametrize("system",
                             ["ccnuma", "migrep", "rnuma", "scoma",
                              "rnuma-half-migrep"])
    def test_page_op_churn(self, system, small_config, small_machine):
        """Patterns that trigger migrations/replications/relocations.

        Page operations flush L1 lines from outside the reference stream —
        the one hazard the kernel's fast path must detect and demote
        around — so this exercises the shootdown watch.
        """
        spec = make_simple_spec(pattern=SharingPattern.MIGRATORY,
                                accesses=400, write_fraction=0.3,
                                shift=1, phases=3)
        trace = make_trace(spec, small_machine, seed=5)
        assert_equivalent(small_config, system, trace)

    @pytest.mark.parametrize("system", ["rep", "migrep", "rnuma"])
    def test_read_shared(self, system, small_config, small_machine):
        spec = make_simple_spec(pattern=SharingPattern.READ_SHARED,
                                accesses=400, write_fraction=0.05)
        trace = make_trace(spec, small_machine, seed=7)
        assert_equivalent(small_config, system, trace)

    def test_streaming_low_reuse(self, small_config, small_machine):
        spec = make_simple_spec(pattern=SharingPattern.STREAMING,
                                pages=32, accesses=400, touches_per_page=4)
        trace = make_trace(spec, small_machine, seed=9)
        for system in ("rnuma", "scoma", "migrep"):
            assert_equivalent(small_config, system, trace)

    def test_no_contention_model(self, tiny_machine, fast_thresholds):
        cfg = SimulationConfig(machine=tiny_machine, costs=CostModel(),
                               thresholds=fast_thresholds,
                               model_contention=False)
        spec = make_simple_spec(accesses=300, write_fraction=0.25)
        trace = make_trace(spec, tiny_machine, seed=11)
        for system in ("ccnuma", "rnuma"):
            assert_equivalent(cfg, system, trace)


def _random_trace_config() -> SimulationConfig:
    from repro.config import MachineConfig, ThresholdConfig
    return SimulationConfig(
        machine=MachineConfig(num_nodes=2, procs_per_node=2, block_size=64,
                              page_size=512, l1_size=1024, l1_assoc=1,
                              block_cache_size=2048, page_cache_size=8 * 512),
        costs=CostModel(),
        thresholds=ThresholdConfig(migrep_threshold=16,
                                   migrep_reset_interval=4000,
                                   rnuma_threshold=16,
                                   hybrid_relocation_delay=0, scale=1.0),
        seed=1)


class TestRandomTraces:
    """Property: equivalence holds on adversarial random traces."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_random_streams(self, data):
        tiny_config = _random_trace_config()
        num_procs = 4
        num_blocks = data.draw(st.integers(8, 96))
        phases = []
        for pi in range(data.draw(st.integers(1, 3))):
            blocks, writes = [], []
            for p in range(num_procs):
                n = data.draw(st.integers(0, 60))
                blocks.append(np.array(
                    data.draw(st.lists(st.integers(0, num_blocks - 1),
                                       min_size=n, max_size=n)),
                    dtype=np.int64))
                writes.append(np.array(
                    data.draw(st.lists(st.integers(0, 1),
                                       min_size=n, max_size=n)),
                    dtype=np.int8))
            phases.append(PhaseTrace(name=f"ph{pi}", compute_per_access=2,
                                     blocks=blocks, writes=writes))
        trace = Trace(name="random", num_procs=num_procs, phases=phases)
        system = data.draw(st.sampled_from(
            ["ccnuma", "perfect", "migrep", "rnuma", "scoma"]))
        assert_equivalent(tiny_config, system, trace)


def _run_streams(num_procs, streams):
    """Build a one-phase trace from per-proc (blocks, writes) tuples."""
    blocks = [np.asarray(b, dtype=np.int64) for b, _ in streams]
    writes = [np.asarray(w, dtype=np.int8) for _, w in streams]
    phase = PhaseTrace(name="adv", compute_per_access=2,
                       blocks=blocks, writes=writes)
    return Trace(name="adversarial", num_procs=num_procs, phases=[phase])


class TestAdversarial:
    """Equivalence under traces built to stress the walk's hazards.

    Each trace forces a specific hazard sequence — miss fill followed by
    a long same-block read run, a conflicting-set access cutting the
    run, foreign writes landing inside it, owned-write runs, and
    page-operation shootdowns mid-run — and must produce bit-identical
    results for every system.
    """

    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_runs_with_conflicts_and_writes(self, system, tiny_config):
        # proc0: miss on 3, long read run of 3, conflict (same set: 3+16),
        # return to 3, owned-write run on 5; proc1 writes 3 mid-run;
        # procs 2/3 mine remote pages to trigger page operations
        p0 = ([3, 3, 3, 3, 19, 3, 3, 5, 5, 5, 5, 3, 3],
              [1, 0, 0, 0, 0, 0, 0, 1, 1, 0, 1, 0, 0])
        p1 = ([40, 40, 3, 40, 40, 40, 3, 3, 3, 41, 41, 41, 41],
              [0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0])
        p2 = ([64, 64, 64, 64, 65, 65, 65, 65, 64, 64, 64, 64, 65],
              [1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0])
        p3 = ([80, 80, 80, 81, 81, 81, 80, 80, 80, 81, 81, 81, 80],
              [0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 1])
        trace = _run_streams(4, [p0, p1, p2, p3])
        assert_equivalent(tiny_config, system, trace)

    @pytest.mark.parametrize("system",
                             ["ccnuma", "migrep", "rnuma", "scoma",
                              "rnuma-half-migrep"])
    def test_shootdown_mid_run(self, system, small_config, small_machine):
        """Page-op churn demotes pre-classified runs mid-phase without
        changing a single counter."""
        spec = make_simple_spec(pattern=SharingPattern.MIGRATORY,
                                accesses=400, write_fraction=0.25,
                                shift=1, phases=3)
        trace = make_trace(spec, small_machine, seed=13)
        assert_equivalent(small_config, system, trace)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_random_run_traces(self, data):
        """Random traces with same-block run structure across the core
        systems."""
        tiny_config = _random_trace_config()
        num_procs = 4
        num_blocks = data.draw(st.integers(8, 48))
        phases = []
        for pi in range(data.draw(st.integers(1, 2))):
            blocks, writes = [], []
            for p in range(num_procs):
                picks = data.draw(st.integers(0, 12))
                stream = []
                for _ in range(picks):
                    b = data.draw(st.integers(0, num_blocks - 1))
                    stream.extend([b] * data.draw(st.integers(1, 6)))
                n = len(stream)
                blocks.append(np.array(stream, dtype=np.int64))
                writes.append(np.array(
                    data.draw(st.lists(st.integers(0, 1),
                                       min_size=n, max_size=n)),
                    dtype=np.int8))
            phases.append(PhaseTrace(name=f"ph{pi}", compute_per_access=2,
                                     blocks=blocks, writes=writes))
        trace = Trace(name="random-runs", num_procs=num_procs, phases=phases)
        system = data.draw(st.sampled_from(
            ["ccnuma", "perfect", "migrep", "rnuma", "scoma"]))
        assert_equivalent(tiny_config, system, trace)


class TestResidualSchedule:
    """Unit tests for the per-phase residual schedule."""

    def _classify(self, streams, num_lines=4):
        from repro.engine.classify import classify_phase
        from repro.mem.cache import DirectMappedCache

        blocks = [np.asarray(b, dtype=np.int64) for b, _ in streams]
        writes = [np.asarray(w, dtype=bool) for _, w in streams]
        caches = [DirectMappedCache(num_lines) for _ in streams]
        return classify_phase(blocks, writes, line_views(caches),
                              NO_VERSIONS)

    def test_entries_in_interleave_order_with_slots(self):
        cls, sched = self._classify([([1, 1, 2], [1, 0, 0]),
                                     ([3, 3, 3], [0, 0, 1])])
        assert len(sched) > 0
        assert list(sched.keys) == sorted(sched.keys)
        for i, p, slot, key in zip(sched.i, sched.p, sched.slot,
                                   sched.keys):
            assert key == i * 2 + p
            assert sched.slot_of[p][i] == slot

    def test_first_touch_prepromoted_when_resident_fresh(self):
        from repro.engine.classify import CLS_FAST, classify_phase
        from repro.mem.cache import DirectMappedCache

        cache = DirectMappedCache(4)
        cache.fill(1, version=0)
        cls, sched = classify_phase([np.asarray([1, 1], dtype=np.int64)],
                                    [np.asarray([0, 0], dtype=bool)],
                                    line_views([cache]), NO_VERSIONS)
        # the first touch is a residual slot, marked fast for this run
        assert cls[0][0] == CLS_FAST
        slot = int(sched.slot_of[0][0])
        assert slot >= 0 and sched.status[sched.status_off[0] + slot] == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_first_touch_resolution_matches_reference(self, seed):
        """Vectorised first-touch resolution against a reference pass in
        interleave order: a processor's first reference to a line is fast
        iff it is a read, no write to its block precedes it in the phase,
        and the live line holds the block at a version no older than the
        directory's."""
        from repro.engine.classify import CLS_FAST, classify_phase
        from repro.mem.cache import DirectMappedCache

        rng = np.random.default_rng(seed)
        P, L, span, n = 4, 8, 16, 30
        blocks = [rng.integers(0, span, n, dtype=np.int64) for _ in range(P)]
        writes = [rng.random(n) < 0.2 for _ in range(P)]
        # a short version column: later blocks read as version 0; every
        # seed yields fresh, stale and earlier-written resident first touches
        versions = rng.integers(0, 3, span // 2, dtype=np.int64)
        caches = []
        for p in range(P):
            cache = DirectMappedCache(L)
            for b in blocks[p][:L]:
                cache.fill(int(b), version=int(rng.integers(0, 2)))
            caches.append(cache)

        cold = [DirectMappedCache(L) for _ in range(P)]
        base, _ = classify_phase(blocks, writes, line_views(cold),
                                 NO_VERSIONS)
        cls, sched = classify_phase(blocks, writes, line_views(caches),
                                    versions)

        expected = [c.copy() for c in base]
        status = np.zeros_like(sched.status)
        seen, written = set(), set()
        for i in range(n):
            for p in range(P):
                b, w = int(blocks[p][i]), bool(writes[p][i])
                line = b % L
                if (p, line) not in seen:
                    seen.add((p, line))
                    cur = int(versions[b]) if b < len(versions) else 0
                    if (not w and b not in written
                            and caches[p].version_of(b) is not None
                            and caches[p].version_of(b) >= cur):
                        expected[p][i] = CLS_FAST
                        slot = sched.slot_of[p][i]
                        status[sched.status_off[p] + slot] = 1
                if w:
                    written.add(b)
        for got, want in zip(cls, expected):
            assert list(got) == list(want)
        assert list(sched.status) == list(status)
        assert status.any()

    def test_static_schedule_cached_on_phase(self):
        from repro.engine import classify as C
        from repro.mem.cache import DirectMappedCache

        phase = PhaseTrace(name="c", compute_per_access=1,
                           blocks=[np.asarray([1, 2, 1], dtype=np.int64)],
                           writes=[np.asarray([0, 0, 0], dtype=bool)])
        caches = [DirectMappedCache(4)]
        calls = []
        orig = C._build_static

        def counting(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        C._build_static = counting
        try:
            for _ in range(3):
                C.classify_phase(phase.blocks, phase.writes,
                                 line_views(caches), NO_VERSIONS,
                                 phase=phase)
        finally:
            C._build_static = orig
        assert len(calls) == 1
        assert "_classify_static" in phase.__dict__


class TestKernelEngine:
    """engine=kernel: the compiled path, its fallback and its profile."""

    def _trace(self, small_machine):
        spec = make_simple_spec(pattern=SharingPattern.MIGRATORY,
                                accesses=400, write_fraction=0.3,
                                shift=1, phases=3)
        return make_trace(spec, small_machine, seed=5)

    def _legacy(self, cfg, spec, trace):
        machine = Machine(cfg, spec)
        return fingerprint(machine, machine.run(trace, engine="legacy"))

    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_kernel_bit_identical(self, system, small_config,
                                  small_machine):
        """The C walk reproduces legacy exactly — including the
        page-op-churn shape that exercises the bail path."""
        require_c()
        trace = self._trace(small_machine)
        ref = self._legacy(small_config, build_system(system), trace)
        machine = Machine(small_config, build_system(system))
        stats = machine.run(trace, engine="kernel")
        prof = stats.engine_profile
        assert prof["engine"] == "kernel", prof.get("fallback_reason")
        assert prof["backend"] == "c"
        assert prof["bails"] == sum(prof["bail_kinds"].values())
        assert fingerprint(machine, stats) == ref

    def test_perfect_runs_on_kernel(self, small_config, small_machine):
        """perfect's infinite block cache is identity-mapped: it runs
        compiled, never evicts, and matches legacy."""
        require_c()
        trace = self._trace(small_machine)
        ref = self._legacy(small_config, build_system("perfect"), trace)
        machine = Machine(small_config, build_system("perfect"))
        stats = machine.run(trace, engine="kernel")
        prof = stats.engine_profile
        assert prof["engine"] == "kernel"
        assert "fallback_reason" not in prof
        assert all(bc.stats.evictions == 0 for bc in machine.block_caches)
        assert fingerprint(machine, stats) == ref

    def test_streamed_perfect_cache_grows_across_phases(
            self, tiny_config, tmp_path, monkeypatch):
        """A multi-phase ``.rpt`` trace streamed without being
        materialised: later phases reach larger block ids, so perfect's
        cache grows phase by phase, and the run stays bit-identical."""
        require_c()
        from repro.engine.kernel.state import KernelState
        from repro.workloads.tracefile import open_trace, write_trace_file

        rng = np.random.default_rng(7)
        phases = []
        for pi, span in enumerate((64, 3000, 9000)):
            blocks = [rng.integers(0, span, 120, dtype=np.int64)
                      for _ in range(4)]
            writes = [rng.random(120) < 0.3 for _ in range(4)]
            phases.append(PhaseTrace(name=f"ph{pi}", compute_per_access=2,
                                     blocks=blocks, writes=writes))
        path = write_trace_file(
            Trace(name="growing", num_procs=4, phases=phases),
            tmp_path / "growing.rpt")

        frames = []
        reserve = KernelState.reserve_for_phase

        def recording(state, max_block):
            reserve(state, max_block)
            frames.append(len(state.machine.block_caches[0]._blocks))

        monkeypatch.setattr(KernelState, "reserve_for_phase", recording)
        machine = Machine(tiny_config, build_system("perfect"))
        stats = machine.run(open_trace(path), engine="kernel")
        assert stats.engine_profile["engine"] == "kernel"
        assert frames == sorted(frames) and frames[0] < frames[-1]
        monkeypatch.undo()
        ref = self._legacy(tiny_config, build_system("perfect"),
                           open_trace(path))
        assert fingerprint(machine, stats) == ref

    def test_page_cache_system_runs_on_kernel(self, small_config,
                                              small_machine):
        """rnuma runs compiled, bit-identical to legacy."""
        require_c()
        trace = self._trace(small_machine)
        ref = self._legacy(small_config, build_system("rnuma"), trace)
        machine = Machine(small_config, build_system("rnuma"))
        stats = machine.run(trace, engine="kernel")
        assert stats.engine_profile["engine"] == "kernel"
        assert fingerprint(machine, stats) == ref

    def test_adaptive_policy_runs_on_kernel(self, small_config,
                                            small_machine):
        """Adaptive policies ride the compiled walk via decide bails."""
        require_c()
        trace = self._trace(small_machine)
        spec = build_system("migrep").derive("migrep-competitive",
                                             migrep_policy="competitive")
        ref = self._legacy(small_config, spec, trace)
        machine = Machine(small_config, spec)
        stats = machine.run(trace, engine="kernel")
        assert stats.engine_profile["engine"] == "kernel"
        assert fingerprint(machine, stats) == ref

    def test_eligibility_reports_all_reasons(self, small_config,
                                             small_machine):
        """Every failing condition is reported, not just the first."""
        from repro.core.ccnuma import CCNUMAProtocol
        from repro.engine.kernel import kernel_eligibility

        trace = self._trace(small_machine)
        perfect = Machine(small_config, build_system("perfect"))
        assert kernel_eligibility(perfect, trace) is None

        class TweakedCCNUMA(CCNUMAProtocol):
            def handle_miss(self, *args):  # pragma: no cover - never run
                return super().handle_miss(*args)

        machine = Machine(small_config, build_system("ccnuma"))
        machine.protocol.__class__ = TweakedCCNUMA
        machine.block_caches[1].capacity_blocks = 7
        reason = kernel_eligibility(machine, trace)
        assert "heterogeneous block-cache capacity" in reason
        assert "overrides base machinery" in reason
        assert "unsupported protocol TweakedCCNUMA" in reason
        assert reason.count(";") >= 2

    def test_fallback_profile(self, small_config, small_machine,
                              monkeypatch):
        """A kernel request served by legacy says so in its profile."""
        from repro.engine.kernel import cbuild

        monkeypatch.setattr(cbuild, "load_cwalk", lambda: None)
        trace = self._trace(small_machine)
        machine = Machine(small_config, build_system("migrep"))
        stats = machine.run(trace, engine="kernel")
        prof = stats.engine_profile
        assert prof["engine"] == "legacy"
        assert prof["requested_engine"] == "kernel"
        assert "C backend build failed" in prof["fallback_reason"]
        assert prof["references"] == trace.total_accesses()
        assert prof["fast"] == 0
        assert prof["phases"] == len(trace.phases)
        assert prof["wall_s"] >= 0
        ref = self._legacy(small_config, build_system("migrep"), trace)
        assert fingerprint(machine, stats) == ref

    def test_missing_compiler_falls_back(self, small_config, small_machine,
                                         monkeypatch, tmp_path):
        """No working compiler: the C walk never loads, every kernel run
        falls back to legacy, results unchanged."""
        from repro.engine.kernel import cbuild

        monkeypatch.setenv("REPRO_KERNEL_CC", "/nonexistent-compiler")
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kc"))
        monkeypatch.setattr(cbuild, "_loaded", False)
        monkeypatch.setattr(cbuild, "_caller", None)
        trace = self._trace(small_machine)
        machine = Machine(small_config, build_system("ccnuma"))
        stats = machine.run(trace, engine="kernel")
        prof = stats.engine_profile
        assert prof["engine"] == "legacy"
        assert prof["requested_engine"] == "kernel"
        ref = self._legacy(small_config, build_system("ccnuma"), trace)
        assert fingerprint(machine, stats) == ref

    def test_backend_crash_falls_back_bit_identical(
            self, small_config, small_machine, monkeypatch):
        """An exception escaping the compiled walk (marshalling bug,
        broken C build) re-runs legacy from a pristine machine with the
        crash surfaced as the fallback reason."""
        from repro.engine.kernel import cbuild

        def crashing_bind(args):
            def runner():
                raise ValueError("synthetic backend crash")
            return runner

        monkeypatch.setattr(cbuild, "load_cwalk", lambda: crashing_bind)
        trace = self._trace(small_machine)
        machine = Machine(small_config, build_system("migrep"))
        stats = machine.run(trace, engine="kernel")
        prof = stats.engine_profile
        assert prof["engine"] == "legacy"
        assert prof["requested_engine"] == "kernel"
        assert "crashed" in prof["fallback_reason"]
        assert "synthetic backend crash" in prof["fallback_reason"]
        ref_machine = Machine(small_config, build_system("migrep"))
        ref = ref_machine.run(trace, engine="legacy")
        # the fallback re-ran on a pristine machine: every stats-level
        # observable matches a clean legacy run exactly
        assert stats.execution_time == ref.execution_time
        assert list(stats.proc_finish_times) == list(ref.proc_finish_times)
        assert stats.network_messages == ref.network_messages
        assert stats.network_bytes == ref.network_bytes
        assert stats.stall_breakdown == ref.stall_breakdown
        assert machine.stats.execution_time == ref.execution_time


class TestStreamedTraces:
    """Kernel runs over mmap-backed ``.rpt`` phases (read-only views, one
    phase resident at a time) match legacy over the in-memory trace."""

    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_streamed_bit_identical(self, system, small_config,
                                    small_machine, tmp_path):
        require_c()
        from repro.workloads.tracefile import open_trace, write_trace_file

        spec = make_simple_spec(pattern=SharingPattern.MIGRATORY,
                                accesses=300, write_fraction=0.3,
                                shift=1, phases=3)
        trace = make_trace(spec, small_machine, seed=17)
        path = write_trace_file(trace, tmp_path / "t.rpt")
        ref_machine = Machine(small_config, build_system(system))
        ref = fingerprint(ref_machine,
                          ref_machine.run(trace, engine="legacy"))
        machine = Machine(small_config, build_system(system))
        stats = machine.run(open_trace(path), engine="kernel")
        prof = stats.engine_profile
        assert prof["engine"] == "kernel", prof.get("fallback_reason")
        assert prof["references"] == trace.total_accesses()
        assert fingerprint(machine, stats) == ref


class TestEngineSelection:
    def test_engine_names(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert set(ENGINE_NAMES) == {"kernel", "legacy"}
        assert default_engine() == "kernel"

    @pytest.mark.parametrize("name", ["turbo", "batched"])
    def test_unknown_engine_rejected(self, name):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine(name)

    def test_env_var_selects_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "legacy")
        assert default_engine() == "legacy"
        monkeypatch.setenv("REPRO_ENGINE", "nonsense")
        assert default_engine() == "kernel"

    def test_machine_run_accepts_engine(self, tiny_config, tiny_machine):
        spec = make_simple_spec(accesses=50)
        trace = make_trace(spec, tiny_machine)
        machine = Machine(tiny_config, build_system("ccnuma"))
        stats = machine.run(trace, engine="legacy")
        assert stats.total_accesses == trace.total_accesses()
