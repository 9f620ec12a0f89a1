"""Run-scoped binding of the kernel's C walk.

The kernel takes its store views and binds the walk once per run; a
phase reaching pages the stores do not cover drops both, grows the
stores and binds again.  Real traces stop growing after their first
phase, so these traces are built to reach new pages in later phases.
Every run must stay bit-identical to ``legacy``, bind once plus once per
growth, and leave no store export-locked — after a normal run, a
backend-crash fallback, or an exception raised by a bail handler.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.machine import Machine
from repro.core.factory import build_system
from repro.engine.kernel import cbuild
from repro.engine.kernel.state import KernelState
from repro.workloads.spec import SharingPattern
from repro.workloads.trace import PhaseTrace, Trace

from helpers import make_simple_spec, make_trace
from test_engine_equivalence import fingerprint, require_c

#: block-id spans of successive phases: the second and fourth reach pages
#: no earlier phase did, the others stay within the pages already covered
GROWING_SPANS = (64, 3000, 64, 9000, 64)


def _growing_trace(num_procs: int, spans=GROWING_SPANS, *, refs: int = 120,
                   seed: int = 7) -> Trace:
    rng = np.random.default_rng(seed)
    phases = []
    for pi, span in enumerate(spans):
        blocks = [rng.integers(0, span, refs, dtype=np.int64)
                  for _ in range(num_procs)]
        writes = [rng.random(refs) < 0.3 for _ in range(num_procs)]
        phases.append(PhaseTrace(name=f"ph{pi}", compute_per_access=2,
                                 blocks=blocks, writes=writes))
    return Trace(name="growing", num_procs=num_procs, phases=phases)


def _store_sizes(machine: Machine) -> tuple:
    """Lengths of every store buffer the walk holds a view of."""
    proto = machine.protocol
    sizes = [len(machine.vm._home), len(machine.directory._sharers)]
    sizes += [len(pt._modes) for pt in machine.page_tables]
    sizes += [len(bc._blocks) for bc in machine.block_caches]
    sizes += [len(pc._stamp) for pc in machine.page_caches if pc is not None]
    counters = (getattr(proto, "counters", None)
                or getattr(proto, "migrep_counters", None))
    if counters is not None:
        sizes.append(len(counters._since))
    if hasattr(proto, "_page_miss_totals"):
        sizes.append(len(proto._page_miss_totals))
    sizes += [len(rc._counts) for rc in getattr(proto, "refetch_counters", ())]
    return tuple(sizes)


@pytest.fixture
def binds(monkeypatch):
    """Count calls of the real C bind; returns the list of calls."""
    require_c()
    real = cbuild.load_cwalk()
    calls = []

    def counting(args):
        calls.append(1)
        return real(args)

    monkeypatch.setattr(cbuild, "load_cwalk", lambda: counting)
    return calls


@pytest.fixture
def growths(monkeypatch):
    """Per phase, whether its reserve grew any store the walk views."""
    reserve = KernelState.reserve_for_phase
    grew = []

    def recording(state, max_block):
        before = _store_sizes(state.machine)
        reserve(state, max_block)
        grew.append(_store_sizes(state.machine) != before)

    monkeypatch.setattr(KernelState, "reserve_for_phase", recording)
    return grew


def _legacy(cfg, system, trace) -> dict:
    machine = Machine(cfg, build_system(system))
    return fingerprint(machine, machine.run(trace, engine="legacy"))


def _assert_one_bind_per_growth(binds, growths, phases):
    assert len(growths) == phases
    later = sum(growths[1:])
    assert 1 <= later < phases - 1, "the trace must grow in some phases only"
    assert len(binds) == 1 + later


class TestGrowthPath:
    @pytest.mark.parametrize("system", ["migrep", "rnuma", "scoma"])
    def test_later_phases_reach_new_pages(self, system, tiny_config, binds,
                                          growths):
        trace = _growing_trace(4)
        machine = Machine(tiny_config, build_system(system))
        stats = machine.run(trace, engine="kernel")
        assert stats.engine_profile["engine"] == "kernel"
        _assert_one_bind_per_growth(binds, growths, len(trace.phases))
        assert fingerprint(machine, stats) == _legacy(tiny_config, system,
                                                      trace)

    def test_perfect_identity_cache_grows(self, tiny_config, binds,
                                          growths):
        trace = _growing_trace(4)
        machine = Machine(tiny_config, build_system("perfect"))
        stats = machine.run(trace, engine="kernel")
        assert stats.engine_profile["engine"] == "kernel"
        top = max(int(b.max()) for ph in trace.phases for b in ph.blocks)
        assert len(machine.block_caches[0]._blocks) > top
        _assert_one_bind_per_growth(binds, growths, len(trace.phases))
        assert fingerprint(machine, stats) == _legacy(tiny_config, "perfect",
                                                      trace)

    def test_streamed_perfect_identity_cache_grows(self, tiny_config,
                                                   tmp_path, binds,
                                                   growths):
        from repro.workloads.tracefile import open_trace, write_trace_file

        path = write_trace_file(_growing_trace(4), tmp_path / "grow.rpt")
        machine = Machine(tiny_config, build_system("perfect"))
        stats = machine.run(open_trace(path), engine="kernel")
        assert stats.engine_profile["engine"] == "kernel"
        _assert_one_bind_per_growth(binds, growths, len(GROWING_SPANS))
        ref = _legacy(tiny_config, "perfect", open_trace(path))
        assert fingerprint(machine, stats) == ref

    @pytest.mark.parametrize("system", ["ccnuma", "migrep", "rnuma"])
    def test_growth_free_run_binds_once(self, system, small_config,
                                        small_machine, binds, growths):
        """A generated trace touches all its pages in its first phase, so
        its multi-phase run binds the walk exactly once."""
        spec = make_simple_spec(pattern=SharingPattern.MIGRATORY,
                                accesses=400, write_fraction=0.3, shift=1,
                                phases=3)
        trace = make_trace(spec, small_machine, seed=5)
        machine = Machine(small_config, build_system(system))
        stats = machine.run(trace, engine="kernel")
        assert stats.engine_profile["engine"] == "kernel"
        assert len(trace.phases) >= 3
        assert not any(growths[1:])
        assert len(binds) == 1


def _assert_stores_can_grow(machine: Machine) -> None:
    """No view of the machine's stores outlived the run."""
    machine.vm.reserve(10 ** 6)
    machine.directory.reserve(10 ** 7)
    for pt in machine.page_tables:
        pt.reserve(10 ** 6)
    proto = machine.protocol
    counters = (getattr(proto, "counters", None)
                or getattr(proto, "migrep_counters", None))
    if counters is not None:
        counters.reserve(10 ** 6)


class TestViewsReleased:
    def test_after_kernel_run(self, tiny_config):
        require_c()
        machine = Machine(tiny_config, build_system("migrep"))
        stats = machine.run(_growing_trace(4), engine="kernel")
        assert stats.engine_profile["engine"] == "kernel"
        _assert_stores_can_grow(machine)

    def test_after_backend_crash_fallback(self, tiny_config, monkeypatch):
        """The walk crashes on its second entry, with real pointers bound:
        the run falls back, and the caller's stores can still grow."""
        require_c()
        real = cbuild.load_cwalk()
        calls = []

        def crashing_bind(args):
            runner = real(args)

            def crash_later():
                calls.append(1)
                if len(calls) > 1:
                    raise ValueError("synthetic backend crash")
                return runner()
            return crash_later

        monkeypatch.setattr(cbuild, "load_cwalk", lambda: crashing_bind)
        machine = Machine(tiny_config, build_system("migrep"))
        stats = machine.run(_growing_trace(4, (64, 64, 64)), engine="kernel")
        prof = stats.engine_profile
        assert prof["engine"] == "legacy"
        assert "synthetic backend crash" in prof["fallback_reason"]
        _assert_stores_can_grow(machine)

    def test_raised_bail_handler_leaves_no_lock(self, small_config,
                                                small_machine):
        """A bail handler raising mid-run propagates, and while its
        exception (and the run's frames) are alive the stores can grow."""
        require_c()
        spec = make_simple_spec(pattern=SharingPattern.MIGRATORY,
                                accesses=400, write_fraction=0.3, shift=1,
                                phases=3)
        trace = make_trace(spec, small_machine, seed=5)
        machine = Machine(small_config, build_system("migrep"))

        def failing_migration(*args):
            raise RuntimeError("synthetic migration failure")

        machine.protocol._perform_migration = failing_migration
        with pytest.raises(RuntimeError, match="synthetic migration"):
            try:
                machine.run(trace, engine="kernel")
            except RuntimeError:
                _assert_stores_can_grow(machine)
                raise
