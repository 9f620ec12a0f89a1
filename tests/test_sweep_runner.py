"""Tests for the parallel, memoizing SweepRunner and its file lane."""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import base_config
from repro.core.ccnuma import CCNUMAProtocol
from repro.core.factory import SystemSpec
from repro.experiments.runner import (
    SweepRunner,
    _trace_digest,
    default_jobs,
    ensure_runner,
    run_experiment,
)
from repro.experiments.scenario import run_scenario
from repro.registry import SYSTEMS, register_system
from repro.workloads import get_workload
from repro.workloads.trace import PhaseTrace, Trace
from repro.workloads.trace_io import traces_equal

from test_engine_equivalence import require_c


@pytest.fixture(scope="module")
def cfg():
    return base_config(seed=0)


@pytest.fixture(scope="module")
def ocean_trace(cfg):
    return get_workload("ocean", machine=cfg.machine, scale=0.05, seed=0)


class TestMemoization:
    def test_repeated_run_is_memoized(self, cfg, ocean_trace):
        with SweepRunner() as runner:
            first = runner.run(ocean_trace, "ccnuma", cfg)
            second = runner.run(ocean_trace, "ccnuma", cfg)
            assert first is second
            assert runner.stats.runs == 1
            assert runner.stats.memo_hits == 1

    def test_distinct_configs_not_conflated(self, cfg, ocean_trace):
        other = base_config(seed=0, threshold_scale=1.0)
        with SweepRunner() as runner:
            a = runner.run(ocean_trace, "rnuma", cfg)
            b = runner.run(ocean_trace, "rnuma", other)
            assert runner.stats.runs == 2
            assert a is not b

    def test_distinct_traces_not_conflated(self, cfg, ocean_trace):
        other_trace = get_workload("ocean", machine=cfg.machine, scale=0.05,
                                   seed=1)
        with SweepRunner() as runner:
            a = runner.run(ocean_trace, "ccnuma", cfg)
            b = runner.run(other_trace, "ccnuma", cfg)
            assert runner.stats.runs == 2
            assert a.execution_time != b.execution_time or a is not b

    def test_memoize_off(self, cfg, ocean_trace):
        with SweepRunner(memoize=False) as runner:
            first = runner.run(ocean_trace, "ccnuma", cfg)
            second = runner.run(ocean_trace, "ccnuma", cfg)
            assert first is not second
            assert runner.stats.runs == 2

    def test_matches_unmemoized_result(self, cfg, ocean_trace):
        direct = run_experiment(ocean_trace, "ccnuma", cfg)
        with SweepRunner() as runner:
            memoed = runner.run(ocean_trace, "ccnuma", cfg)
        assert memoed.execution_time == direct.execution_time
        assert memoed.summary() == direct.summary()


def _tiny_trace(name, streams, writes=None, procs=2):
    blocks = [np.asarray(s, dtype=np.int64) for s in streams]
    if writes is None:
        writes = [np.zeros(len(s), dtype=bool) for s in streams]
    return Trace(name=name, num_procs=procs,
                 phases=[PhaseTrace(name="ph0", compute_per_access=1,
                                    blocks=blocks, writes=writes)])


class TestTraceDigest:
    def test_distinct_streams_distinct_digests(self):
        a = _tiny_trace("t", [[1, 2, 3], [4, 5, 6]])
        b = _tiny_trace("t", [[1, 2, 3], [4, 5, 7]])
        assert _trace_digest(a) != _trace_digest(b)

    def test_stream_split_cannot_collide(self):
        """The same flat ids split differently across processors differ."""
        a = _tiny_trace("t", [[1, 2, 3, 4], [5, 6]])
        b = _tiny_trace("t", [[1, 2, 3], [4, 5, 6]])
        assert _trace_digest(a) != _trace_digest(b)

    def test_write_flags_change_digest(self):
        a = _tiny_trace("t", [[1, 2], [3, 4]])
        b = _tiny_trace("t", [[1, 2], [3, 4]],
                        writes=[np.array([True, False]),
                                np.array([False, False])])
        assert _trace_digest(a) != _trace_digest(b)

    def test_digest_is_content_based(self):
        a = _tiny_trace("t", [[9, 8], [7, 6]])
        b = _tiny_trace("t", [[9, 8], [7, 6]])
        assert a is not b
        assert _trace_digest(a) == _trace_digest(b)


class TestZeroCopyDispatch:
    """Pooled runs ship a trace-file path; in-memory traces spill once."""

    def test_parallel_dispatch_spills_each_trace_once(self, cfg, ocean_trace):
        other = get_workload("ocean", machine=cfg.machine, scale=0.05, seed=1)
        items = [(trace, system, cfg)
                 for trace in (ocean_trace, other)
                 for system in ("perfect", "ccnuma", "rnuma")]
        with SweepRunner(jobs=2) as runner:
            par = runner.map_runs(items)
            # two distinct traces -> exactly two trace files, six runs
            assert runner.stats.parallel_runs == 6
            assert runner.stats.traces_spilled == 2
            spilled = sorted(runner.spill_dir.iterdir())
            assert [p.name for p in spilled] == sorted(
                f"{_trace_digest(t)}.rpt" for t in (ocean_trace, other))
            # every parallel run either opened its file or reused it warm
            assert (runner.stats.file_maps
                    + runner.stats.worker_reuse) == 6
            assert runner.stats.file_maps >= 2
            # a later batch over the same traces spills nothing new
            runner.map_runs([(trace, "migrep", cfg)
                             for trace in (ocean_trace, other)])
            assert runner.stats.traces_spilled == 2
        with SweepRunner(jobs=1) as runner:
            ser = runner.map_runs(items)
        for a, b in zip(par, ser):
            assert a.summary() == b.summary()
            assert a.stats.stall_breakdown == b.stats.stall_breakdown

    def test_spilled_file_round_trips_bit_identically(self, cfg, ocean_trace):
        from repro.workloads.tracefile import open_trace

        with SweepRunner(jobs=2) as runner:
            runner.map_runs([(ocean_trace, s, cfg)
                             for s in ("perfect", "ccnuma")])
            (path,) = runner.spill_dir.iterdir()
            streamed = open_trace(path)
            assert streamed.digest == _trace_digest(ocean_trace)
            assert traces_equal(streamed.materialize(), ocean_trace)

    def test_spill_dir_removed_on_close(self, cfg, ocean_trace):
        runner = SweepRunner(jobs=2)
        try:
            runner.map_runs([(ocean_trace, s, cfg)
                             for s in ("perfect", "ccnuma")])
            spill_dir = runner.spill_dir
            assert spill_dir is not None and spill_dir.is_dir()
        finally:
            runner.close()
        assert not spill_dir.exists()
        assert runner.spill_dir is None

    def test_spill_honours_tmpdir(self, cfg, ocean_trace, tmp_path,
                                  monkeypatch):
        import tempfile

        monkeypatch.setenv("TMPDIR", str(tmp_path))
        monkeypatch.setattr(tempfile, "tempdir", None)
        with SweepRunner(jobs=2) as runner:
            runner.map_runs([(ocean_trace, s, cfg)
                             for s in ("perfect", "ccnuma")])
            assert runner.spill_dir.parent == tmp_path
        assert list(tmp_path.iterdir()) == []

    def test_serial_runner_never_spills(self, cfg, ocean_trace):
        with SweepRunner(jobs=1) as runner:
            runner.map_runs([(ocean_trace, s, cfg)
                             for s in ("perfect", "ccnuma")])
            assert runner.stats.traces_spilled == 0
            assert runner.spill_dir is None

    def test_footer_digest_mismatch_raises(self, cfg, ocean_trace,
                                           monkeypatch):
        import repro.experiments.runner as runner_mod
        from repro.workloads.tracefile import TraceFileError

        real = runner_mod.read_trace_header

        def forged(path):
            header = real(path)
            header["digest"] = "0" * 32
            return header

        monkeypatch.setattr(runner_mod, "read_trace_header", forged)
        with SweepRunner(jobs=2) as runner:
            with pytest.raises(TraceFileError, match="footer digest"):
                runner.map_runs([(ocean_trace, s, cfg)
                                 for s in ("perfect", "ccnuma")])


def _subprocess_env(**extra):
    """Environment for a child interpreter that imports this checkout."""
    import os
    from pathlib import Path

    import repro

    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    src = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.update(extra)
    return env


def _proc_state(pid):
    """Linux process state letter of ``pid``, or None when it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except (FileNotFoundError, ProcessLookupError, IndexError):
        return None


def _children(pid):
    """Pids whose parent is ``pid`` (scanned from /proc)."""
    import os

    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == pid:
            kids.append(int(entry))
    return kids


_SWEEP_UNDER_HOOK = """
import json, os, sys
counter = sys.argv[1]

def hook(unraisable):
    with open(counter, "a") as fh:
        fh.write(f"{os.getpid()} {type(unraisable.exc_value).__name__}\\n")

sys.unraisablehook = hook   # forked pool workers inherit it
from repro.config import base_config
from repro.experiments.runner import SweepRunner
from repro.workloads import get_workload
cfg = base_config(seed=0)
traces = [get_workload(app, machine=cfg.machine, scale=0.02, seed=seed)
          for app in ("lu", "ocean", "radix") for seed in (0, 1)]
runner = SweepRunner(jobs=2)
runner.map_runs([(t, s, cfg) for t in traces for s in ("perfect", "ccnuma")])
spill = getattr(runner, "spill_dir", None)
runner.close()
print(json.dumps({"spill_dir": str(spill) if spill else None}))
"""


@pytest.mark.skipif(not __import__("os").path.isdir("/proc"),
                    reason="needs Linux /proc")
class TestProcessHygiene:
    """A pooled sweep leaves no exceptions, segments, files or processes."""

    def test_pooled_sweep_is_clean(self, tmp_path):
        """More distinct traces than a worker caches, under a counting
        unraisable hook: no exception escapes a destructor, nothing
        appears in /dev/shm and the spill directory is gone on close."""
        import glob
        import json
        import subprocess
        import sys

        before = set(glob.glob("/dev/shm/repro_*"))
        counter = tmp_path / "unraisable.log"
        proc = subprocess.run(
            [sys.executable, "-c", _SWEEP_UNDER_HOOK, str(counter)],
            env=_subprocess_env(TMPDIR=str(tmp_path)), cwd=tmp_path,
            capture_output=True,
            text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        logged = counter.read_text() if counter.exists() else ""
        assert logged == ""
        assert set(glob.glob("/dev/shm/repro_*")) <= before
        spill_dir = json.loads(proc.stdout.splitlines()[-1])["spill_dir"]
        assert spill_dir is not None
        from pathlib import Path
        assert not Path(spill_dir).exists()

    def test_workers_exit_when_supervisor_is_killed(self, tmp_path):
        """SIGKILL a jobs=2 sweep whose workers are mid-run: every child
        exits on its own within 10 s instead of outliving it."""
        import os
        import signal
        import subprocess
        import sys
        import time

        # the killed sweep cannot remove its spill directory: keep it
        # under tmp_path
        env = _subprocess_env(REPRO_FAULTS="hang=1.0",
                              REPRO_FAULTS_HANG_S="120",
                              TMPDIR=str(tmp_path))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "exp", "figure5", "--apps",
             "lu,ocean", "--scale", "0.05", "--jobs", "2"],
            env=env, cwd=tmp_path, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        kids = []
        try:
            deadline = time.monotonic() + 120
            while len(kids) < 2 and time.monotonic() < deadline:
                assert proc.poll() is None, "sweep ended before the kill"
                time.sleep(0.1)
                kids = _children(proc.pid)
            assert len(kids) >= 2, "the pool never started"
            time.sleep(0.5)   # let the workers pick up their runs
            kids = _children(proc.pid)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 10
            alive = kids
            while alive and time.monotonic() < deadline:
                time.sleep(0.1)
                alive = [k for k in kids
                         if _proc_state(k) not in (None, "Z")]
            assert alive == []
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            for kid in kids:
                try:
                    os.kill(kid, signal.SIGKILL)
                except OSError:
                    pass


class UserCCNUMA(CCNUMAProtocol):
    """A user protocol overriding base machinery: kernel-ineligible."""

    def handle_miss(self, *args):
        return super().handle_miss(*args)


@pytest.fixture
def user_system():
    """A user-registered system around :class:`UserCCNUMA`."""
    name = "user-ccnuma-test"
    register_system(SystemSpec(name=name, label="User CC-NUMA",
                               protocol_factory=UserCCNUMA))
    try:
        yield name
    finally:
        SYSTEMS.unregister(name)


class TestKernelFallbackInWorkers:
    """Engine-lane accounting must survive the process boundary."""

    def test_user_protocol_fallback_is_counted(self, cfg, ocean_trace,
                                               user_system):
        """A user protocol subclass runs on legacy, and the fallback is
        counted and explained rather than vanishing."""
        with SweepRunner(jobs=1, engine="kernel") as runner:
            (result,) = runner.map_runs([(ocean_trace, user_system, cfg)])
            assert runner.stats.kernel_fallbacks == 1
            assert runner.stats.kernel_runs == 0
        prof = result.stats.engine_profile
        assert prof["engine"] == "legacy"
        assert prof["requested_engine"] == "kernel"
        assert "UserCCNUMA" in prof["fallback_reason"]
        direct = run_experiment(ocean_trace, "ccnuma", cfg)
        assert result.execution_time == direct.execution_time

    def test_ineligible_systems_fall_back_inside_pool_workers(
            self, cfg, ocean_trace, user_system):
        # the user protocol is kernel-ineligible, so the pool workers run
        # legacy and ship the fallback profile home for note_profile (two
        # distinct configs keep the runs from collapsing into one memo
        # entry)
        items = [(ocean_trace, user_system, c)
                 for c in (cfg, base_config(seed=1))]
        with SweepRunner(jobs=2, engine="kernel") as runner:
            par = runner.map_runs(items)
            assert runner.stats.parallel_runs == 2
            assert runner.stats.kernel_fallbacks == 2
            assert runner.stats.kernel_runs == 0
            reasons = [r.stats.engine_profile.get("fallback_reason")
                       for r in par]
            assert all(reasons)
        with SweepRunner(jobs=1, engine="kernel") as serial:
            ser = serial.map_runs(items)
        for a, b in zip(par, ser):
            assert a.summary() == b.summary()

    def test_eligible_system_keeps_kernel_lane_in_workers(self, cfg,
                                                          ocean_trace):
        require_c()
        items = [(ocean_trace, system, cfg)
                 for system in ("perfect", "ccnuma", "migrep")]
        with SweepRunner(jobs=2, engine="kernel") as runner:
            runner.map_runs(items)
            assert runner.stats.kernel_runs == 3
            assert runner.stats.kernel_fallbacks == 0

    def test_bail_kinds_fold_across_workers(self, cfg, ocean_trace):
        """Per-run bail_kinds aggregate into RunnerStats with the full
        stable key set, and survive the worker process boundary."""
        from repro.engine.kernel import BAIL_KIND_NAMES

        require_c()
        items = [(ocean_trace, system, cfg)
                 for system in ("rnuma", "scoma")]
        with SweepRunner(jobs=2, engine="kernel") as runner:
            par = runner.map_runs(items)
            exported = runner.stats.as_dict()["bail_kinds"]
            assert tuple(exported) == BAIL_KIND_NAMES
            per_run = [r.stats.engine_profile["bail_kinds"] for r in par]
            assert all(tuple(k) == BAIL_KIND_NAMES for k in per_run)
            for kind in BAIL_KIND_NAMES:
                assert exported[kind] == sum(k[kind] for k in per_run)


class TestBatchExecution:
    def test_run_systems_shape(self, cfg, ocean_trace):
        with SweepRunner() as runner:
            results = runner.run_systems(ocean_trace, ["ccnuma", "rnuma"], cfg)
        assert set(results) == {"perfect", "ccnuma", "rnuma"}

    def test_batch_deduplicates(self, cfg, ocean_trace):
        with SweepRunner() as runner:
            results = runner.map_runs([
                (ocean_trace, "ccnuma", cfg),
                (ocean_trace, "ccnuma", cfg),
                (ocean_trace, "perfect", cfg),
            ])
            assert runner.stats.runs == 2
        assert results[0] is results[1]

    def test_parallel_matches_serial(self, cfg, ocean_trace):
        items = [(ocean_trace, name, cfg)
                 for name in ("perfect", "ccnuma", "migrep", "rnuma")]
        with SweepRunner(jobs=2) as parallel:
            par = parallel.map_runs(items)
            assert parallel.stats.parallel_runs == len(items)
        with SweepRunner(jobs=1) as serial:
            ser = serial.map_runs(items)
        for a, b in zip(par, ser):
            assert a.summary() == b.summary()
            assert a.stats.stall_breakdown == b.stats.stall_breakdown

    def test_engine_override(self, cfg, ocean_trace):
        with SweepRunner(engine="legacy") as runner:
            res = runner.run(ocean_trace, "ccnuma", cfg)
        direct = run_experiment(ocean_trace, "ccnuma", cfg)
        assert res.execution_time == direct.execution_time


class TestHarnessIntegration:
    def test_figures_share_a_runner_cache(self, cfg):
        with SweepRunner() as runner:
            first = run_scenario("figure5", apps=["ocean"], scale=0.05,
                                 runner=runner)
            executed = runner.stats.runs
            second = run_scenario("figure5", apps=["ocean"], scale=0.05,
                                  runner=runner)
            assert runner.stats.runs == executed  # fully served from memo
        assert first.rows == second.rows

    def test_default_jobs_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert default_jobs() == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "auto")
        assert default_jobs() >= 1
        monkeypatch.setenv("REPRO_JOBS", "bogus")
        assert default_jobs() == 1

    def test_ensure_runner_rejects_conflicting_kwargs(self, tmp_path):
        with SweepRunner() as mine:
            with pytest.raises(ValueError):
                ensure_runner(mine, store=tmp_path / "results.sqlite")
            same, owned = ensure_runner(mine, store=None)
            assert same is mine and not owned

    def test_ensure_runner_ownership(self):
        owned_runner, owned = ensure_runner(None)
        assert owned
        owned_runner.close()
        mine = SweepRunner()
        same, owned = ensure_runner(mine)
        assert same is mine and not owned
        mine.close()


class TestExplicitSystemSpecs:
    """Custom SystemSpec objects must not be conflated with registry names."""

    def test_custom_spec_runs_and_is_not_memo_conflated(self, cfg, ocean_trace):
        import dataclasses
        from repro.core.factory import build_system

        bigger = dataclasses.replace(build_system("ccnuma"),
                                     block_cache_scale=4.0)
        with SweepRunner() as runner:
            stock = runner.run(ocean_trace, "ccnuma", cfg)
            custom = runner.run(ocean_trace, bigger, cfg)
            # the customised spec simulates a different machine ...
            assert custom.execution_time != stock.execution_time
            # ... and never lands in (or is served from) the memo table
            again = runner.run(ocean_trace, bigger, cfg)
            assert again is not custom
            assert again.execution_time == custom.execution_time

    def test_run_systems_with_spec_object(self, cfg, ocean_trace):
        from repro.core.factory import build_system

        spec = build_system("rnuma-half")
        with SweepRunner() as runner:
            results = runner.run_systems(ocean_trace, [spec], cfg)
        assert set(results) == {"perfect", "rnuma-half"}
