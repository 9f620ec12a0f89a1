"""Run (workload, system) experiments: one-shot helpers and the SweepRunner.

:func:`run_experiment` is the basic entry point: build a machine for a
named system, run a trace through it and wrap the statistics in an
:class:`ExperimentResult`.  Because the paper reports everything
normalized to a perfect CC-NUMA run of the same application,
:func:`run_pair` and :func:`run_systems` bundle the baseline run together
with the systems of interest.

The figure/table/ablation harnesses go through a :class:`SweepRunner`
instead: it executes independent (workload, system, config) runs across
worker *processes* (``--jobs`` on the CLI, ``REPRO_JOBS`` in the
environment) and memoizes results keyed by a digest of the trace content,
the system name and the configuration — so e.g. the perfect-CC-NUMA
baseline of an application is simulated once per sweep, not once per
figure, and re-renders are free.

Parallel dispatch ships no stream arrays: every pooled run travels as a
trace *file* path plus ``(digest, system, config)``.  A file-backed
trace (:class:`repro.workloads.tracefile.StreamingTrace`) ships its own
path, and its content digest comes from the file footer, so memoization
needs no stream hashing.  An in-memory trace is spilled once, on its
first pooled dispatch, as ``<digest>.rpt`` (:func:`~repro.workloads.
tracefile.write_trace_file`) into a runner-private temporary directory
that honours ``TMPDIR`` and is removed on :meth:`SweepRunner.close`.
Workers mmap a file the first time they see its digest and keep it open
per process, so repeated runs of the same trace cost nothing to ship.

Parallel execution is *supervised*: futures are harvested as they
complete, so one dying worker cannot orphan finished results.  Failures
are classified — worker crash (``BrokenProcessPool``), wall-clock
timeout (the runner kills the hung pool), or an exception raised by the
run itself — and failed runs are retried on a respawned pool with
capped exponential backoff; the last attempt runs inline in the
supervising process (which cannot crash the sweep).  Pool workers exit
on their own once the supervisor is gone, so a killed sweep leaves no
process behind.  The deterministic fault injectors in
:mod:`repro.experiments.faults` prove the invariant: a sweep under
injected crashes/hangs returns results bit-identical to a fault-free
run.

The memo table can be made durable: a content-addressed
:class:`~repro.experiments.store.ResultStore` (``store=`` /
``repro exp --store``) is consulted before any pending run executes and
upserted as each run is harvested, sharing the memo key scheme — so a
sweep killed at any instant loses at most its in-flight runs, a re-run
in a fresh process executes only the missing runs, and the persistent
sweep service (:mod:`repro.experiments.service`) keeps one warm store
shared by every client.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import threading
import time
import weakref
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    wait,
)
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.cluster.machine import Machine
from repro.config import MachineConfig, SimulationConfig, base_config
from repro.core.factory import SystemSpec, build_system
from repro.engine import default_engine
from repro.engine.kernel import BAIL_KIND_NAMES
from repro.experiments import faults as _faults
from repro.experiments.store import ResultStore
from repro.stats.counters import MachineStats
from repro.workloads import get_workload
from repro.workloads.trace import Trace
from repro.workloads.tracefile import (
    TRACE_FILE_SUFFIX,
    StreamingTrace,
    TraceFileError,
    read_trace_header,
    trace_digest,
    write_trace_file,
)

#: Environment variable giving the default retry budget per run.
RETRIES_ENV_VAR = "REPRO_RETRIES"

#: Environment variable giving the default per-run wall-clock timeout in
#: seconds (empty/unset: no timeout).
RUN_TIMEOUT_ENV_VAR = "REPRO_RUN_TIMEOUT"


@dataclass
class ExperimentResult:
    """Results of running one workload under one system configuration."""

    workload: str
    system: str
    config: SimulationConfig
    stats: MachineStats

    # -- headline numbers ---------------------------------------------------------

    @property
    def execution_time(self) -> int:
        """Execution time of the run, in processor cycles."""
        return self.stats.execution_time

    def normalized_time(self, baseline: "ExperimentResult | int | float") -> float:
        """Execution time normalized against ``baseline`` (perfect CC-NUMA)."""
        base = (baseline.execution_time
                if isinstance(baseline, ExperimentResult) else float(baseline))
        if base <= 0:
            raise ValueError("baseline execution time must be positive")
        return self.execution_time / base

    # -- Table 4 style numbers -----------------------------------------------------

    def per_node_page_ops(self) -> Dict[str, float]:
        """Per-node migrations, replications and relocations."""
        return {
            "migrations": self.stats.per_node_migrations(),
            "replications": self.stats.per_node_replications(),
            "relocations": self.stats.per_node_relocations(),
        }

    def per_node_misses(self) -> Dict[str, float]:
        """Per-node overall and capacity/conflict remote misses."""
        return {
            "overall": self.stats.per_node_remote_misses(),
            "capacity_conflict": self.stats.per_node_capacity_conflict(),
        }

    def summary(self) -> Dict[str, object]:
        """Flat dictionary of the headline results (reports and tests)."""
        out: Dict[str, object] = {
            "workload": self.workload,
            "system": self.system,
            "execution_time": self.execution_time,
            "remote_misses": self.stats.total_remote_misses,
            "capacity_conflict_misses": self.stats.total_capacity_conflict_misses,
            "coherence_misses": self.stats.total_coherence_misses,
            "cold_misses": self.stats.total_cold_misses,
            "local_misses": self.stats.total_local_misses,
            "network_messages": self.stats.network_messages,
            "network_bytes": self.stats.network_bytes,
        }
        out.update({f"per_node_{k}": v for k, v in self.per_node_page_ops().items()})
        return out


def run_experiment(trace: Trace, system: Union[str, SystemSpec],
                   config: Optional[SimulationConfig] = None) -> ExperimentResult:
    """Run ``trace`` under ``system`` and return the result.

    ``system`` may be a name (see :data:`repro.core.factory.SYSTEM_NAMES`)
    or an explicit :class:`SystemSpec`; ``config`` defaults to the base
    (reduced-machine, fast-page-op) configuration.
    """
    spec = build_system(system) if isinstance(system, str) else system
    cfg = config if config is not None else base_config()
    machine = Machine(cfg, spec)
    stats = machine.run(trace)
    return ExperimentResult(workload=trace.name, system=spec.name,
                            config=cfg, stats=stats)


def run_pair(trace: Trace, system: Union[str, SystemSpec],
             config: Optional[SimulationConfig] = None,
             baseline: str = "perfect") -> tuple[ExperimentResult, ExperimentResult]:
    """Run ``system`` and the normalisation ``baseline`` on the same trace."""
    base = run_experiment(trace, baseline, config)
    result = run_experiment(trace, system, config)
    return result, base


def run_systems(trace: Trace, systems: Sequence[Union[str, SystemSpec]],
                config: Optional[SimulationConfig] = None,
                baseline: Optional[str] = "perfect"
                ) -> Dict[str, ExperimentResult]:
    """Run several systems on the same trace.

    Returns a mapping from system name to result; when ``baseline`` is not
    None it is included under its own name (so callers can normalize).
    """
    results: Dict[str, ExperimentResult] = {}
    if baseline is not None:
        results[baseline] = run_experiment(trace, baseline, config)
    for system in systems:
        spec = build_system(system) if isinstance(system, str) else system
        if spec.name in results:
            continue
        results[spec.name] = run_experiment(trace, spec, config)
    return results


# ---------------------------------------------------------------------------
# SweepRunner: parallel, memoized execution of independent runs
# ---------------------------------------------------------------------------


#: Environment variable giving the default worker-process count.
JOBS_ENV_VAR = "REPRO_JOBS"


def default_jobs() -> int:
    """Worker processes used when a SweepRunner is built without ``jobs``."""
    raw = os.environ.get(JOBS_ENV_VAR, "").strip().lower()
    if raw in ("", "1"):
        return 1
    if raw in ("auto", "0"):
        return os.cpu_count() or 1
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def default_retries() -> int:
    """Retry budget used when a SweepRunner is built without ``retries``."""
    raw = os.environ.get(RETRIES_ENV_VAR, "").strip()
    try:
        return max(0, int(raw)) if raw else 3
    except ValueError:
        return 3


def default_run_timeout() -> Optional[float]:
    """Per-run timeout used when a SweepRunner is built without one."""
    raw = os.environ.get(RUN_TIMEOUT_ENV_VAR, "").strip()
    try:
        value = float(raw) if raw else 0.0
    except ValueError:
        return None
    return value if value > 0 else None


def _trace_digest(trace: Trace) -> str:
    """Content digest of a trace (streams, geometry and phase costs).

    The canonical scheme lives in
    :func:`repro.workloads.tracefile.trace_digest`; traces that already
    carry their digest (a :class:`StreamingTrace` reads it from its file
    footer, where the writer stored the identical hash) skip the stream
    scan entirely.
    """
    carried = getattr(trace, "digest", None)
    if carried:
        return str(carried)
    return trace_digest(trace)


def _peak_rss_kb() -> int:
    """Peak resident set size of this process in KiB (0 if unavailable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-Unix platforms
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import sys
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss in bytes
        peak //= 1024
    return int(peak)


def _execute_run(trace: Trace, system_name: str, cfg: SimulationConfig,
                 engine: str) -> ExperimentResult:
    """Worker entry point: one independent simulation (also used inline).

    The run's ``engine_profile`` (when the engine produces one) is
    annotated with the executing process's peak RSS and, for streamed
    traces, the logical stream bytes this run pulled through the trace —
    the observability behind ``repro exp --profile`` on out-of-core
    sweeps.
    """
    streamed_before = getattr(trace, "bytes_streamed", None)
    machine = Machine(cfg, build_system(system_name))
    stats = machine.run(trace, engine=engine)
    profile = stats.engine_profile
    if isinstance(profile, dict):
        profile["peak_rss_kb"] = _peak_rss_kb()
        if streamed_before is not None:
            profile["bytes_streamed"] = (
                getattr(trace, "bytes_streamed", 0) - streamed_before)
    return ExperimentResult(workload=trace.name, system=system_name,
                            config=cfg, stats=stats)


# ---------------------------------------------------------------------------
# The file lane: workers mmap trace files
# ---------------------------------------------------------------------------


def _watch_parent() -> None:
    """Pool-worker initializer: exit once the supervising process is gone.

    A SIGKILLed supervisor cannot shut its pool down, and an idle worker
    blocked on the call queue would otherwise live on, reparented to
    init.  A daemon thread polls the parent pid and ends the worker as
    soon as it changes.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch",
                     daemon=True).start()


#: Per-worker cache of open trace files, keyed by digest.  An open
#: :class:`StreamingTrace` holds one read-only mmap plus cached phase
#: *views* (not data), so the cache is cheap no matter how large the
#: traces are; keeping it warm preserves the per-phase classification
#: schedules across repeated runs of the same file.
_WORKER_FILES: "Dict[str, StreamingTrace]" = {}
_WORKER_FILE_LIMIT = 4


def _execute_file_run(trace_path: str, digest: str, system_name: str,
                      cfg: SimulationConfig, engine: str,
                      attempt: int = 0) -> Tuple[ExperimentResult, bool]:
    """Worker entry point: run one trace file (the only pooled lane).

    Only the path string crosses the process boundary — the worker mmaps
    the trace file on first sight of its digest and streams phases from
    it, never materializing the trace.  Returns ``(result, opened)``;
    ``opened`` is True when this call had to open/map the file (a cold
    worker).
    """
    _faults.inject_from_env(digest, system_name, attempt)
    trace = _WORKER_FILES.pop(digest, None)
    opened = False
    if trace is None:
        trace = StreamingTrace(trace_path)
        opened = True
        while len(_WORKER_FILES) >= _WORKER_FILE_LIMIT:
            _WORKER_FILES.pop(next(iter(_WORKER_FILES)))
    _WORKER_FILES[digest] = trace   # re-insert = move to MRU position
    return _execute_run(trace, system_name, cfg, engine), opened


#: The memo key: (trace digest, system, config repr, engine).
RunKey = Tuple[str, str, str, str]

#: Builds one trace: ``(app, machine, scale, seed) -> Trace``.
TraceFactory = Callable[[str, MachineConfig, float, int], Trace]


@dataclass
class RunnerStats:
    """Bookkeeping of a SweepRunner's cache, dispatch and fault behaviour."""

    runs: int = 0           # simulations actually executed
    memo_hits: int = 0      # results served from the memo table
    parallel_runs: int = 0  # runs dispatched to worker processes
    traces_spilled: int = 0  # in-memory traces written out as trace files
    worker_reuse: int = 0   # parallel runs served by a warm worker's trace
    file_maps: int = 0      # cold worker opens of a trace file (one mmap each)
    bytes_streamed: int = 0  # logical stream bytes served from trace files
    peak_rss_kb: int = 0    # max peak RSS observed across executed runs
    kernel_runs: int = 0    # runs executed by the compiled kernel engine
    kernel_fallbacks: int = 0  # kernel requests served by legacy fallback
    retries: int = 0        # re-attempts scheduled after a failed run
    crashes: int = 0        # runs charged with killing a worker process
    timeouts: int = 0       # runs killed by the per-run wall-clock timeout
    run_errors: int = 0     # runs whose execution raised an exception
    degradations: int = 0   # lane demotions (file -> inline)
    store_hits: int = 0     # pending runs served from the durable store
    store_misses: int = 0   # pending runs the durable store had never seen
    inflight_joins: int = 0  # submissions joined to an identical in-flight
    #                          run (set by the sweep service's deduper)
    #: kernel bail counts by kind, summed over executed runs — always
    #: carries the full stable key set, even when every count is zero
    bail_kinds: Dict[str, int] = field(
        default_factory=lambda: {name: 0 for name in BAIL_KIND_NAMES})

    def as_dict(self) -> Dict[str, object]:
        """Plain dictionary of the counters (JSON export).

        All values are ints except ``bail_kinds``, a stable
        ``{kind: count}`` dict keyed by :data:`BAIL_KIND_NAMES`.
        """
        return {
            "runs": self.runs,
            "memo_hits": self.memo_hits,
            "parallel_runs": self.parallel_runs,
            "traces_spilled": self.traces_spilled,
            "worker_reuse": self.worker_reuse,
            "file_maps": self.file_maps,
            "bytes_streamed": self.bytes_streamed,
            "peak_rss_kb": self.peak_rss_kb,
            "kernel_runs": self.kernel_runs,
            "kernel_fallbacks": self.kernel_fallbacks,
            "retries": self.retries,
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "run_errors": self.run_errors,
            "degradations": self.degradations,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "inflight_joins": self.inflight_joins,
            "bail_kinds": {name: self.bail_kinds.get(name, 0)
                           for name in BAIL_KIND_NAMES},
        }

    def note_profile(self, profile) -> None:
        """Fold one executed run's ``engine_profile`` into the counters."""
        if not isinstance(profile, dict):
            return
        if profile.get("engine") == "kernel":
            self.kernel_runs += 1
            kinds = profile.get("bail_kinds")
            if isinstance(kinds, dict):
                for kind, count in kinds.items():
                    self.bail_kinds[kind] = (
                        self.bail_kinds.get(kind, 0) + int(count))
        elif profile.get("requested_engine") == "kernel":
            self.kernel_fallbacks += 1
        self.bytes_streamed += int(profile.get("bytes_streamed") or 0)
        peak = int(profile.get("peak_rss_kb") or 0)
        if peak > self.peak_rss_kb:
            self.peak_rss_kb = peak


class SweepRunner:
    """Executes independent (trace, system, config) runs, possibly in parallel.

    Parameters
    ----------
    jobs:
        Worker processes.  ``1`` (the default, or ``REPRO_JOBS`` unset)
        runs everything inline; ``N > 1`` dispatches cache-missing runs of
        a batch to a supervised ``ProcessPoolExecutor``.  Results are
        bit-identical either way — runs are independent and the simulator
        is deterministic — including under worker crashes and timeouts,
        which are retried (see ``retries`` / ``run_timeout``).
    memoize:
        Keep a result table keyed by ``(trace digest, system, config,
        engine)`` so repeated runs (e.g. the per-app perfect baseline
        shared by several figures) are simulated once.
    engine:
        Execution engine for all runs (default: the session default, see
        :mod:`repro.engine`).
    store:
        A durable content-addressed
        :class:`~repro.experiments.store.ResultStore` (or a path to one,
        opened — and closed — by this runner).  Pending runs consult the
        store before executing (``RunnerStats.store_hits`` /
        ``store_misses``) and each completed run is upserted as soon as
        it is harvested, so the store is the sweep's checkpoint: a sweep
        re-run against the same store — after a crash, a SIGKILL or in a
        fresh process — executes only the runs it is missing.
    retries:
        Retry budget per run for crash/timeout/error failures (default
        3, or ``REPRO_RETRIES``).  Attempts before the last ride the
        pool; the last runs inline in the supervising process.
        ``retries=0`` degenerates to all-inline execution.
    run_timeout:
        Per-run wall-clock timeout in seconds (default none, or
        ``REPRO_RUN_TIMEOUT``).  A run exceeding it has its pool killed
        and is retried like a crash; timeouts are not enforced on the
        inline lane.
    backoff / backoff_cap:
        Base delay and cap of the capped exponential backoff slept
        between retry waves (seconds).

    Use as a context manager (or call :meth:`close`) to release the worker
    pool and the spilled trace files; a runner with ``jobs=1`` holds no
    pool resources.
    """

    def __init__(self, jobs: Optional[int] = None, *, memoize: bool = True,
                 engine: Optional[str] = None,
                 store: Optional[Union[str, Path, ResultStore]] = None,
                 retries: Optional[int] = None,
                 run_timeout: Optional[float] = None,
                 backoff: float = 0.25,
                 backoff_cap: float = 4.0) -> None:
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        self.engine = engine if engine is not None else default_engine()
        self.memoize = memoize
        self.stats = RunnerStats()
        self.retries = default_retries() if retries is None else max(0, int(retries))
        self.run_timeout = (default_run_timeout() if run_timeout is None
                            else (float(run_timeout) if run_timeout > 0 else None))
        self.backoff = max(0.0, float(backoff))
        self.backoff_cap = max(0.0, float(backoff_cap))
        self._memo: Dict[RunKey, ExperimentResult] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._trace_keys: Dict[int, str] = {}
        #: generated traces by (factory, app, machine, scale, seed)
        self._traces: Dict[Tuple, Trace] = {}
        #: private directory of spilled trace files (created on first spill)
        self.spill_dir: Optional[Path] = None
        self._spilled: Dict[str, Path] = {}
        if store is None or isinstance(store, ResultStore):
            self.store = store
            self._owns_result_store = False
        else:
            self.store = ResultStore(store)
            self._owns_result_store = True

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "SweepRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut down the worker pool, drop the trace memo, remove spilled
        traces and close the store."""
        self._traces.clear()
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self.spill_dir is not None:
            shutil.rmtree(self.spill_dir, ignore_errors=True)
            self.spill_dir = None
            self._spilled.clear()
        if self.store is not None and self._owns_result_store:
            self.store.close()

    # -- traces -------------------------------------------------------------

    def trace(self, app: str, machine: MachineConfig, scale: float,
              seed: int, factory: Optional[TraceFactory] = None) -> Trace:
        """The trace of one (app, machine, scale, seed) cell.

        ``factory`` builds it (default :func:`repro.workloads.get_workload`).
        Each distinct (factory, app, machine, scale, seed) is generated,
        and later digested and spilled, once per runner: every scenario
        run over this runner shares the trace memo until :meth:`close`
        or :meth:`forget_traces`.
        """
        key = (factory, app, machine, scale, seed)
        trace = self._traces.get(key)
        if trace is None:
            if factory is None:
                trace = get_workload(app, machine=machine, scale=scale,
                                     seed=seed)
            else:
                trace = factory(app, machine, scale, seed)
            self._traces[key] = trace
        return trace

    def forget_traces(self) -> None:
        """Drop the trace memo (a long-lived runner between batches)."""
        self._traces.clear()

    # -- keys ---------------------------------------------------------------

    def _key(self, trace: Trace, system_name: str,
             cfg: SimulationConfig) -> RunKey:
        # id()-keyed digest cache: sweeps reuse the same trace object for
        # many systems, and hashing the streams repeatedly would dominate.
        # A finalizer drops the entry when the trace dies, so a recycled
        # id() can never serve a stale digest.
        tkey = self._trace_keys.get(id(trace))
        if tkey is None:
            tkey = _trace_digest(trace)
            self._trace_keys[id(trace)] = tkey
            weakref.finalize(trace, self._trace_keys.pop, id(trace), None)
        return (tkey, system_name, repr(sorted(cfg.describe().items())),
                self.engine)

    # -- supervised parallel execution --------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs,
                                             initializer=_watch_parent)
        return self._pool

    def _kill_pool(self) -> None:
        """Forcibly tear down the worker pool (hung or broken workers)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for proc in list(getattr(pool, "_processes", {}).values()):
            try:
                proc.kill()
            except Exception:  # pragma: no cover - already-dead workers
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - broken executor races
            pass

    def _trace_path(self, trace: Trace, digest: str) -> Path:
        """The file a worker opens for ``trace``, spilling it on first use.

        A :class:`StreamingTrace` is already a file.  An in-memory trace
        is written once per digest as ``<digest>.rpt`` into
        :attr:`spill_dir`; the file's footer digest must equal the run
        key's, or workers would simulate a different trace than the key
        names.
        """
        if isinstance(trace, StreamingTrace):
            return trace.path
        path = self._spilled.get(digest)
        if path is None:
            if self.spill_dir is None:
                self.spill_dir = Path(tempfile.mkdtemp(prefix="repro-spill-"))
            path = write_trace_file(
                trace, self.spill_dir / f"{digest}{TRACE_FILE_SUFFIX}")
            written = read_trace_header(path)["digest"]
            if written != digest:
                raise TraceFileError(
                    f"spilled trace {trace.name!r} has footer digest "
                    f"{written}, but its run key names {digest}")
            self._spilled[digest] = path
            self.stats.traces_spilled += 1
        return path

    def _harvest(self, key: RunKey, payload) -> ExperimentResult:
        """Fold one completed worker payload into stats + the store."""
        result, opened = payload
        if opened:
            self.stats.file_maps += 1
        else:
            self.stats.worker_reuse += 1
        self.stats.note_profile(result.stats.engine_profile)
        self._checkpoint(key, result)
        return result

    def _checkpoint(self, key: RunKey, result: ExperimentResult) -> None:
        """Upsert one completed run into the durable store, if any."""
        if self.store is not None:
            self.store.put(key, result)

    def _run_supervised(self, pending: Dict[RunKey, Tuple[Trace, str,
                                                          SimulationConfig]]
                        ) -> Dict[RunKey, ExperimentResult]:
        """Execute ``pending`` across the worker pool under supervision.

        Futures are harvested as they complete, so results finished
        before a crash are never lost.  Failed runs are classified and
        retried in *waves*: each wave submits everything still missing,
        sleeps a capped exponential backoff first, and walks repeat
        offenders down the ladder (file lane → inline).  Worker
        crashes break the whole ``ProcessPoolExecutor``; blame is
        assigned to the runs observed executing at the break (or to all
        unharvested runs of the wave when none were observed, which
        guarantees progress), everything else retries for free.  The
        inline lane runs in this process — it cannot crash the sweep,
        and any exception it raises is a genuine simulation error and
        propagates.
        """
        executed: Dict[RunKey, ExperimentResult] = {}
        attempts: Dict[RunKey, int] = {key: 0 for key in pending}
        todo: Set[RunKey] = set(pending)
        wave = 0

        def penalize(key: RunKey, penalized: Set[RunKey]) -> None:
            if key in penalized:
                return
            penalized.add(key)
            attempts[key] += 1
            self.stats.retries += 1

        while todo:
            if wave and self.backoff > 0:
                time.sleep(min(self.backoff_cap,
                               self.backoff * (2 ** (wave - 1))))
            wave += 1
            pool_keys = [k for k in todo if attempts[k] < self.retries]
            inline_keys = [k for k in todo if attempts[k] >= self.retries]
            self.stats.degradations += sum(1 for k in inline_keys
                                           if attempts[k] > 0)

            futures: Dict[Future, RunKey] = {}
            if pool_keys:
                pool = self._ensure_pool()
                for key in pool_keys:
                    trace, name, cfg = pending[key]
                    try:
                        fut = pool.submit(
                            _execute_file_run,
                            str(self._trace_path(trace, key[0])), key[0],
                            name, cfg, self.engine, attempts[key])
                    except BrokenExecutor:
                        # pool died mid-submission: the submitted futures
                        # resolve broken below; the rest retry next wave
                        break
                    futures[fut] = key
                    self.stats.parallel_runs += 1

            # the inline lane executes here, in parallel with the pool
            for key in inline_keys:
                trace, name, cfg = pending[key]
                result = _execute_run(trace, name, cfg, self.engine)
                self.stats.note_profile(result.stats.engine_profile)
                self._checkpoint(key, result)
                executed[key] = result
                todo.discard(key)

            penalized: Set[RunKey] = set()
            started: Dict[Future, float] = {}
            broke = False
            not_done: Set[Future] = set(futures)
            while not_done:
                poll = 0.05 if self.run_timeout is not None else 0.25
                done, not_done = wait(not_done, timeout=poll,
                                      return_when=FIRST_COMPLETED)
                now = time.monotonic()
                for fut in not_done:
                    if fut not in started and fut.running():
                        started[fut] = now
                for fut in done:
                    key = futures[fut]
                    try:
                        payload = fut.result()
                    except BrokenExecutor:
                        broke = True   # blame assigned below
                    except Exception as exc:
                        # the run itself raised (e.g. an injected poison
                        # fault or a transient MemoryError): retry it; a
                        # deterministic error resurfaces on the inline
                        # lane and propagates from there
                        self.stats.run_errors += 1
                        penalize(key, penalized)
                        del exc
                    else:
                        executed[key] = self._harvest(key, payload)
                        todo.discard(key)
                if broke:
                    break
                if self.run_timeout is not None:
                    expired = [f for f in not_done
                               if f in started
                               and now - started[f] >= self.run_timeout]
                    if expired:
                        for fut in expired:
                            self.stats.timeouts += 1
                            penalize(futures[fut], penalized)
                        broke = True   # surviving runs retry for free
                        break

            if broke:
                self._kill_pool()
                victims = {futures[f] for f in futures} & todo
                observed = ({futures[f] for f in started} & victims) - penalized
                blamed = observed or (victims - penalized)
                for key in blamed:
                    self.stats.crashes += 1
                    penalize(key, penalized)
        return executed

    # -- execution ----------------------------------------------------------

    def run(self, trace: Trace, system: Union[str, SystemSpec],
            config: Optional[SimulationConfig] = None) -> ExperimentResult:
        """Run one (trace, system) pair through the memo table."""
        return self.map_runs([(trace, system, config)])[0]

    def map_runs(self, items: Sequence[Tuple[Trace, Union[str, SystemSpec],
                                             Optional[SimulationConfig]]]
                 ) -> List[ExperimentResult]:
        """Run a batch of independent (trace, system, config) items.

        Cache-missing items are deduplicated and executed — across the
        supervised worker pool when ``jobs > 1`` — and every result lands
        in the memo table (and the durable store, when one is attached).
        The returned list is aligned with ``items``.

        Explicit :class:`SystemSpec` objects (rather than registry names)
        may carry arbitrary protocol factories, so they are executed
        inline and bypass the memo table, the worker pool and the
        store — a customised spec can never be conflated with the
        registry system of the same name.
        """
        keyed: List[Tuple[Optional[RunKey], Trace,
                          Union[str, SystemSpec], SimulationConfig]] = []
        for trace, system, config in items:
            cfg = config if config is not None else base_config()
            key = (self._key(trace, system, cfg)
                   if isinstance(system, str) else None)
            keyed.append((key, trace, system, cfg))

        pending: Dict[RunKey, Tuple[Trace, str, SimulationConfig]] = {}
        for key, trace, system, cfg in keyed:
            if key is not None and key not in self._memo and key not in pending:
                pending[key] = (trace, system, cfg)

        self.stats.memo_hits += sum(1 for key, *_ in keyed
                                    if key is not None and key in self._memo)

        # consult the durable store before executing anything: hits are
        # pulled into the memo table (so later batches hit the memo
        # directly), misses execute below and are upserted on harvest
        if self.store is not None and pending:
            for key in list(pending):
                stored = self.store.get(key)
                if stored is not None:
                    self._memo[key] = stored
                    self.stats.store_hits += 1
                    del pending[key]
                else:
                    self.stats.store_misses += 1

        if pending:
            self.stats.runs += len(pending)
            if self.jobs > 1 and len(pending) > 1:
                for key, result in self._run_supervised(pending).items():
                    self._memo[key] = result
            else:
                for key, (trace, name, cfg) in pending.items():
                    result = _execute_run(trace, name, cfg, self.engine)
                    self.stats.note_profile(result.stats.engine_profile)
                    self._memo[key] = result
                    self._checkpoint(key, result)

        results = []
        for key, trace, system, cfg in keyed:
            if key is not None:
                results.append(self._memo[key])
            else:
                # explicit SystemSpec: fresh, unmemoized inline run
                self.stats.runs += 1
                machine = Machine(cfg, system)
                stats = machine.run(trace, engine=self.engine)
                self.stats.note_profile(stats.engine_profile)
                results.append(ExperimentResult(workload=trace.name,
                                                system=system.name,
                                                config=cfg, stats=stats))
        if not self.memoize:
            self._memo.clear()
            self._trace_keys.clear()
        return results

    def iter_results(self) -> List[ExperimentResult]:
        """The memoized results accumulated so far (insertion order).

        Used e.g. by ``repro exp --profile`` to aggregate the engines'
        per-lane execution profiles across a scenario's runs.
        """
        return list(self._memo.values())

    def run_systems(self, trace: Trace,
                    systems: Sequence[Union[str, SystemSpec]],
                    config: Optional[SimulationConfig] = None,
                    baseline: Optional[str] = "perfect"
                    ) -> Dict[str, ExperimentResult]:
        """Memoized, batched equivalent of :func:`run_systems`."""
        ordered: List[Union[str, SystemSpec]] = (
            [baseline] if baseline is not None else [])
        names = [baseline] if baseline is not None else []
        for system in systems:
            name = system if isinstance(system, str) else system.name
            if name not in names:
                names.append(name)
                ordered.append(system)
        results = self.map_runs([(trace, system, config)
                                 for system in ordered])
        return dict(zip(names, results))


def ensure_runner(runner: Optional[SweepRunner],
                  **runner_kwargs) -> Tuple[SweepRunner, bool]:
    """Return ``(runner, owned)`` — creating a default one when None.

    Harness entry points accept an optional shared runner; when the caller
    did not supply one, a private runner is created (with
    ``runner_kwargs`` forwarded to :class:`SweepRunner`) and the caller
    is responsible for closing it (``owned`` is True) — use
    ``try/finally`` or the runner's context manager so the pool and the
    spilled trace files are released even when the harness raises
    mid-sweep.  Passing both a shared runner *and* runner kwargs
    is a conflict and raises ``ValueError``.
    """
    if runner is not None:
        conflicts = {k: v for k, v in runner_kwargs.items() if v}
        if conflicts:
            raise ValueError(
                "cannot combine a shared runner with runner options "
                f"({', '.join(sorted(conflicts))}); configure the "
                "SweepRunner directly instead")
        return runner, False
    return SweepRunner(**runner_kwargs), True
