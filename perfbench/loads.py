"""The benchmark's workloads: inputs, operations and reference checks.

Every input (trace specs, systems, configurations, sizes) is defined
here, so edits elsewhere in the repository cannot change what is
measured.  Each workload derives its inputs from the run's seed.

References come from ``engine="legacy"`` and are computed before the
timed operations start.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

from repro.cluster.machine import Machine
from repro.config import ThresholdConfig, base_config
from repro.core.factory import build_system
from repro.experiments import runner as runner_mod
from repro.experiments.report import build_report
from repro.experiments.scenario import Scenario, run_scenario
from repro.workloads import tracefile
from repro.workloads.generator import TraceGenerator
from repro.workloads.spec import PageGroup, Phase, SharingPattern, WorkloadSpec

APPS = ("barnes", "cholesky", "fmm", "lu", "ocean", "radix", "raytrace")
POLICIES = ("static-threshold", "competitive", "hysteresis", "cost-model")


def derive_seed(seed: int, *parts: object) -> int:
    """A 31-bit seed for one input, stable across Python versions."""
    text = ":".join(str(p) for p in (seed,) + parts).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=4).digest(),
                          "little") >> 1


def same_stats(a, b) -> bool:
    """Statistics a simulation must reproduce bit for bit."""
    return (a.execution_time == b.execution_time
            and a.proc_finish_times == b.proc_finish_times
            and a.stall_breakdown == b.stall_breakdown
            and a.nodes == b.nodes
            and a.network_messages == b.network_messages
            and a.network_bytes == b.network_bytes
            and a.barrier_count == b.barrier_count)


def profile_of(stats) -> dict:
    profile = stats.engine_profile
    return profile if isinstance(profile, dict) else {}


@dataclass
class OpResult:
    """One timed operation and what its checks need."""

    wall_s: float
    refs: int
    sim_s: List[float]
    peak_worker_kb: int = 0
    profiles: List[dict] = field(default_factory=list)
    #: (reference key, ok, what) for every comparison made
    checks: List[Tuple[object, bool, str]] = field(default_factory=list)
    #: identity of the engine path taken, compared traced vs untraced
    path: object = None
    extra: Dict[str, float] = field(default_factory=dict)
    #: host speed around the operation (see ``run.host_speed``)
    speed: float = 1.0


# ---------------------------------------------------------------------------
# in-process kernel workloads
# ---------------------------------------------------------------------------


def miss_dense_spec(phases: int, refs_per_proc: int) -> WorkloadSpec:
    """Migratory churn: each phase shifts ownership so every node mines a
    remote slice; each drawn block repeats six times back to back."""
    mig = PageGroup(name="mig", num_pages=96, pattern=SharingPattern.MIGRATORY,
                    write_fraction=0.1, run_length=6)
    return WorkloadSpec(
        name="bench-miss-dense", description="migratory churn",
        groups=(mig,),
        phases=tuple(Phase(name=f"mig-{i}", accesses_per_proc=refs_per_proc,
                           weights={"mig": 1.0}, compute_per_access=2,
                           migratory_shift=i + 1)
                     for i in range(phases)))


def miss_dense_config():
    """Low page-operation thresholds so the churn fires them, with a reset
    interval longer than the run."""
    cfg = base_config(seed=0)
    return replace(cfg, thresholds=ThresholdConfig(
        migrep_threshold=25, migrep_reset_interval=200000,
        rnuma_threshold=24, hybrid_relocation_delay=0, scale=1.0))


def hot_phases_spec(phases: int, refs_per_proc: int) -> WorkloadSpec:
    """L1-resident private working sets plus a 2% read-write shared fringe,
    cut into many short phases."""
    private = PageGroup(name="data", num_pages=32,
                        pattern=SharingPattern.PRIVATE, write_fraction=0.02)
    shared = PageGroup(name="shared", num_pages=32,
                       pattern=SharingPattern.READ_WRITE_SHARED,
                       write_fraction=0.2)
    return WorkloadSpec(
        name="bench-hot-phases", description="hot sets, short phases",
        groups=(private, shared),
        phases=tuple(Phase(name=f"work-{i}", accesses_per_proc=refs_per_proc,
                           weights={"data": 0.98, "shared": 0.02},
                           compute_per_access=4)
                     for i in range(phases)))


class KernelWorkload:
    """One fresh seed-derived trace through every system, in process.

    An operation generates its trace, digests it, and runs each system
    on the kernel engine.  The run cycles through ``traces`` distinct
    trace seeds so that a legacy reference exists for every simulation.
    """

    jobs = 1
    pool = False
    kernel = True

    def __init__(self, name: str, spec: WorkloadSpec, systems, traces: int,
                 ops_per_s: float) -> None:
        self.name = name
        self.spec = spec
        self.systems = systems     # [(label, system name, config)]
        self.traces = traces
        self.ops_per_s = ops_per_s
        self.refs: Dict[str, Dict[str, object]] = {}
        self.seeds: List[int] = []

    def _trace(self, trace_seed: int):
        machine = self.systems[0][2].machine
        return TraceGenerator(self.spec, machine, seed=trace_seed).generate()

    def prepare(self, seed: int) -> None:
        from repro.engine.kernel.cbuild import load_cwalk
        load_cwalk()   # the one-time load belongs to set-up, not to an op
        self.seeds = [derive_seed(seed, self.name, j)
                      for j in range(self.traces)]
        for trace_seed in self.seeds:
            trace = self._trace(trace_seed)
            digest = tracefile.trace_digest(trace)
            self.refs[digest] = {
                label: Machine(cfg, build_system(system)).run(
                    trace, engine="legacy")
                for label, system, cfg in self.systems}

    def run_op(self, i: int, tracer=None) -> OpResult:
        sims = []
        t0 = perf_counter()
        trace = self._trace(self.seeds[i % len(self.seeds)])
        # looked up at call time so a traced operation sees the wrapper
        digest = tracefile.trace_digest(trace)
        for label, system, cfg in self.systems:
            machine = Machine(cfg, build_system(system))
            s0 = perf_counter()
            if tracer is None:
                stats = machine.run(trace, engine="kernel")
            else:
                tracer.instrument_protocol(machine.protocol)
                span = tracer.open("engine.run")
                try:
                    stats = machine.run(trace, engine="kernel")
                finally:
                    tracer.close(span)
            sims.append((label, perf_counter() - s0, stats))
        wall = perf_counter() - t0
        res = OpResult(wall_s=wall,
                       refs=trace.total_accesses() * len(self.systems),
                       sim_s=[dt for _, dt, _ in sims])
        ref = self.refs.get(digest)
        path = []
        for label, _dt, stats in sims:
            prof = profile_of(stats)
            res.profiles.append(prof)
            ok = ref is not None and same_stats(stats, ref[label])
            res.checks.append(((digest, label), ok, f"{label} stats"))
            on_kernel = (prof.get("engine") == "kernel"
                         and not prof.get("fallback_reason"))
            res.checks.append(((digest, label), on_kernel,
                               f"{label} fell back: "
                               f"{prof.get('fallback_reason')}"))
            path.append((label, prof.get("engine"), prof.get("backend"),
                         prof.get("fallback_reason")))
        res.path = (digest, tuple(path))
        return res


# ---------------------------------------------------------------------------
# pool workloads: the report and the sweep
# ---------------------------------------------------------------------------


class MapCollector:
    """Collects what ``SweepRunner.map_runs`` returns during an operation.

    Installed for every operation, traced or not: the report and the
    sweep expose no per-run results, and the per-run host times, the
    simulated reference count and the worker peak RSS are read from the
    executed runs' ``engine_profile``.
    """

    def __init__(self) -> None:
        self.results: Dict[int, object] = {}
        self.retries = 0
        self._original = None

    def install(self) -> None:
        cls = runner_mod.SweepRunner
        self._original = vars(cls)["map_runs"]
        original = self._original
        collector = self

        def map_runs(runner, items):
            before = runner.stats.retries
            out = original(runner, items)
            collector.retries += runner.stats.retries - before
            for result in out:
                collector.results.setdefault(id(result), result)
            return out

        cls.map_runs = map_runs

    def uninstall(self) -> None:
        runner_mod.SweepRunner.map_runs = self._original

    def drain(self) -> Tuple[List[dict], int]:
        """Profiles of the runs returned since the last drain, and retries."""
        profiles = [profile_of(r.stats) for r in self.results.values()]
        retries, self.results, self.retries = self.retries, {}, 0
        return profiles, retries


def fold_profiles(res: OpResult, collector: MapCollector) -> None:
    profiles, res.extra["experiments.runner.retries"] = collector.drain()
    res.profiles = profiles
    res.sim_s = [float(p["wall_s"]) for p in profiles if "wall_s" in p]
    res.refs = sum(int(p.get("references", 0)) for p in profiles)
    res.peak_worker_kb = max([int(p.get("peak_rss_kb") or 0)
                              for p in profiles] + [0])
    engines = sorted((p.get("engine"), p.get("backend"),
                      p.get("fallback_reason")) for p in profiles)
    res.path = tuple(engines)


class PaperWorkload:
    """``build_report`` exactly as ``scripts/make_experiments_md.py`` runs
    it, on the default engine with two workers."""

    name = "paper"
    jobs = 2
    pool = True
    kernel = False
    ops_per_s = 0.0   # one report per run

    def __init__(self, scale: float) -> None:
        self.scale = scale
        self.seed = 0
        self.ref_markdown = ""
        self.ref_claims = 0
        self.collector = MapCollector()

    def prepare(self, seed: int) -> None:
        self.seed = seed
        os.environ["REPRO_ENGINE"] = "legacy"
        try:
            report = build_report(scale=self.scale, seed=seed)
        finally:
            del os.environ["REPRO_ENGINE"]
        self.ref_markdown = report.to_markdown()
        self.ref_claims = sum(c.passed for c in report.all_checks())

    def run_op(self, i: int, tracer=None) -> OpResult:
        sections: List[Tuple[str, float]] = []

        def progress(stage: str) -> None:
            sections.append((stage, perf_counter()))

        t0 = perf_counter()
        report = build_report(scale=self.scale, seed=self.seed,
                              progress=progress)
        t1 = perf_counter()
        res = OpResult(wall_s=t1 - t0, refs=0, sim_s=[])
        fold_profiles(res, self.collector)
        ends = [t for _, t in sections[1:]] + [t1]
        for (stage, start), end in zip(sections, ends):
            key = stage.replace(" ", "")
            res.extra[f"experiments.report.{key}_s"] = end - start
        claims = sum(c.passed for c in report.all_checks())
        res.extra["analysis.claims_passed"] = claims
        key = ("report", self.scale, self.seed)
        res.checks.append((key, report.to_markdown() == self.ref_markdown,
                           "rendered report differs from legacy"))
        res.checks.append((key, claims == self.ref_claims,
                           f"claims {claims} != legacy {self.ref_claims}"))
        return res


def policy_sweep(scale: float) -> Scenario:
    """Every decision policy for MigRep and R-NUMA on all seven apps."""
    return Scenario(
        name="bench-sweep-policy", title="decision-policy sweep",
        apps=APPS, systems=("migrep", "rnuma"),
        configs={p: (lambda seed, p=p: base_config(seed=seed).with_policies(
            migrep=p, rnuma=p)) for p in POLICIES},
        default_scale=scale)


class SweepReplayWorkload:
    """A cold sweep into a fresh result store, then the same sweep again
    against the now-warm store."""

    name = "sweep-replay"
    jobs = 2
    pool = True
    kernel = False

    def __init__(self, scale: float, ops_per_s: float, tmp_root: Path) -> None:
        self.scenario = policy_sweep(scale)
        self.scale = scale
        self.ops_per_s = ops_per_s
        self.tmp_root = tmp_root
        self.seed = 0
        self.ref_rows: list = []
        self.collector = MapCollector()

    def prepare(self, seed: int) -> None:
        self.seed = seed
        with runner_mod.SweepRunner(jobs=self.jobs, engine="legacy") as ref:
            self.ref_rows = run_scenario(self.scenario, scale=self.scale,
                                         seed=seed, runner=ref).rows

    def run_op(self, i: int, tracer=None) -> OpResult:
        tmp = Path(tempfile.mkdtemp(prefix="store-", dir=self.tmp_root))
        try:
            store = tmp / "results.sqlite"
            t0 = perf_counter()
            cold = run_scenario(self.scenario, scale=self.scale,
                                seed=self.seed, store=store)
            t1 = perf_counter()
            res = OpResult(wall_s=t1 - t0, refs=0, sim_s=[])
            fold_profiles(res, self.collector)
            warm = run_scenario(self.scenario, scale=self.scale,
                                seed=self.seed, store=store)
            res.extra["experiments.store.replay_s"] = perf_counter() - t1
            self.collector.drain()
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        key = ("sweep", self.scale, self.seed)
        res.checks.append((key, cold.rows == self.ref_rows,
                           "cold rows differ from legacy"))
        res.checks.append((key, warm.rows == cold.rows,
                           "replayed rows differ from cold rows"))
        hits = warm.runner_stats.get("store_hits")
        res.checks.append((key, hits == len(cold.rows)
                           and warm.runner_stats.get("runs") == 0,
                           f"replay executed runs (store hits {hits})"))
        return res


def make(name: str, work_dir: Path):
    """The workload called ``name``, sized for this benchmark."""
    if name == "miss-dense":
        cfg = miss_dense_config()
        return KernelWorkload(
            name, miss_dense_spec(phases=8, refs_per_proc=1000),
            [("migrep", "migrep", cfg), ("rnuma", "rnuma", cfg),
             ("scoma", "scoma", cfg), ("rnuma-migrep", "rnuma-migrep", cfg),
             ("migrep-hysteresis", "migrep",
              cfg.with_policies(migrep="hysteresis"))],
            traces=2, ops_per_s=2.5)
    if name == "hot-phases":
        cfg = base_config(seed=0)
        return KernelWorkload(
            name, hot_phases_spec(phases=32, refs_per_proc=250),
            [(s, s, cfg) for s in ("ccnuma", "migrep", "rnuma")],
            traces=3, ops_per_s=3.5)
    if name == "paper":
        return PaperWorkload(scale=0.01)
    if name == "sweep-replay":
        return SweepReplayWorkload(scale=0.01, ops_per_s=0.4,
                                   tmp_root=work_dir / "tmp")
    raise KeyError(name)


WORKLOADS = ("paper", "miss-dense", "hot-phases", "sweep-replay")


def setup_probe(name: str, work_dir: Path) -> None:
    """The set-up a user of this workload pays once per process."""
    wl = make(name, work_dir)
    if wl.kernel:
        from repro.engine.kernel.cbuild import load_cwalk
        if load_cwalk() is None:
            raise RuntimeError("C kernel did not load")
    if wl.pool:
        tmp = Path(tempfile.mkdtemp(prefix="probe-", dir=work_dir / "tmp"))
        try:
            cfg = base_config(seed=0)
            spec = hot_phases_spec(phases=1, refs_per_proc=8)
            trace = TraceGenerator(spec, cfg.machine, seed=0).generate()
            with runner_mod.SweepRunner(jobs=wl.jobs,
                                        store=tmp / "s.sqlite") as runner:
                runner.map_runs([(trace, "ccnuma", cfg),
                                 (trace, "migrep", cfg)])
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


def resolved_backend() -> Tuple[str, bool]:
    """``(backend, numba present)`` as ``engine=kernel`` would resolve them."""
    import importlib.util

    from repro.engine.kernel.cbuild import load_cwalk
    numba = importlib.util.find_spec("numba") is not None
    if numba:
        return "numba", numba
    return ("c" if load_cwalk() is not None else "none"), numba
