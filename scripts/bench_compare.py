#!/usr/bin/env python
"""Track and gate the engine benchmarks against BENCH_engine.json.

The repository commits ``BENCH_engine.json``: the engine's headline
numbers recorded for the current tree (``current``) next to the last
record of the previous schema (``before``).  This script re-measures
the same quantities and

* ``--record``  rewrites the ``current`` section (run on the machine
  whose numbers you want committed),
* ``--check``   fails (exit 1) when the fresh measurements regress —
  used in CI, so the comparisons are *ratios* (kernel vs legacy on the
  same host, warm vs cold sweep workers, streamed vs in-memory, store vs
  no store), which transfer across machines, never absolute wall times.

Gates enforced by ``--check`` (record schema 6):

1. The compiled residual kernel (``engine=kernel``, the default) must
   beat the legacy interpreter on the miss-dense configuration
   (``benchmarks/bench_engine_speedup.miss_dense_spec``) on the same
   host by ``>= 8x`` for ``migrep``, ``>= 7x`` for ``rnuma`` (the
   R-NUMA relocation lane), ``>= 6x`` for ``rnuma_migrep`` (the hybrid)
   and ``>= 4x`` for ``hysteresis`` (migrep under the adaptive
   hysteresis policy, its evaluation inlined in the compiled walk) —
   and none may regress below the committed ``current`` band.  When the
   kernel falls back (no C toolchain) the lanes record their
   ``fallback_reason`` and the gates are skipped, so a compiler-less
   install stays green.
2. The hot-set kernel-vs-legacy speedup must stay within the band of
   the committed ``current`` recording.
3. A warm ``jobs=2`` sweep (the same runner again: trace files already
   spilled, pool up, files open in the workers) must not be slower than
   the cold pass of a fresh runner (spill, pool start-up, cold opens)
   beyond the tolerance band.
4. Streaming a trace from an on-disk trace file
   (:class:`repro.workloads.tracefile.StreamingTrace`) must cost at most
   10% over running the same trace in memory — the mmap-served phase
   views are supposed to be within noise of heap arrays, and this lane
   keeps the out-of-core path honest.
5. A sweep checkpointing into a **cold** durable
   :class:`~repro.experiments.store.ResultStore` must cost at most 10%
   over the same sweep without a store — the per-run pickle+upsert is
   supposed to disappear next to simulation time.  The warm-store
   replay time is recorded informationally (it is bounded by
   unpickling, typically a tiny fraction of the cold sweep).
6. The many-phases kernel-vs-legacy speedups (the hot-set trace cut
   into 32 short phases, on ``ccnuma`` and ``rnuma``) must stay within
   the band of the committed ``current`` recording.  Short phases load
   the kernel's fixed per-phase cost — classification, re-pointing the
   bound walk, the statistics fold — rather than the walk itself.

Every timing lane also asserts bit-identical results across engines
first — a speedup over wrong results is worthless.  Everything measured
is also printed, so CI logs double as a perf record.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "benchmarks"))

BENCH_FILE = REPO / "BENCH_engine.json"

#: (miss-dense lane, minimum kernel speedup over legacy) — gate 1
KERNEL_FLOORS = (("migrep", 8.0), ("rnuma", 7.0), ("rnuma_migrep", 6.0),
                 ("hysteresis", 4.0))


def _build_system(system):
    """Resolve a lane's system: registry names plus the bench-local
    ``hysteresis`` lane (migrep under the adaptive hysteresis policy)."""
    from repro.core.factory import build_system

    if system == "hysteresis":
        return build_system("migrep").derive("migrep-hysteresis",
                                             migrep_policy="hysteresis")
    return build_system(system)


def _one_run(cfg, system, trace, engine):
    """One timed run on a fresh machine."""
    from repro.cluster.machine import Machine

    machine = Machine(cfg, _build_system(system))
    t0 = time.perf_counter()
    stats = machine.run(trace, engine=engine)
    return time.perf_counter() - t0, stats


def _interleaved_runs(cfg, system, trace, engines, repeats):
    """Median times for several engines, repeats interleaved round-robin.

    The engines being compared are always ratioed against each other,
    and wall-clock drift on shared machines (CPU frequency, co-tenants)
    easily exceeds the effects being measured.  Interleaving the repeats
    spreads the drift over every engine instead of loading it onto
    whichever ran last.  Returns ``(medians, stats)`` in engine order;
    each engine gets one free warmup run first.
    """
    times = [[] for _ in engines]
    stats = [None] * len(engines)
    for engine in engines:
        _one_run(cfg, system, trace, engine)
    for _ in range(repeats):
        for j, engine in enumerate(engines):
            t, st = _one_run(cfg, system, trace, engine)
            times[j].append(t)
            stats[j] = st
    return [statistics.median(t) for t in times], stats


def _assert_identical(system, a, b) -> None:
    if (a.execution_time != b.execution_time
            or a.stall_breakdown != b.stall_breakdown
            or a.nodes != b.nodes):
        raise SystemExit(
            f"engine results diverged for {system}: a speedup over "
            "wrong results is worthless")


def _engine_lane(cfg, system, trace, repeats) -> dict:
    """Time ``legacy`` and ``kernel`` on the same trace; assert identity.

    When the kernel falls back (no C toolchain, ineligible system) the
    ``kernel`` sub-record holds the fallback reason instead of timings,
    so the committed file documents *why* there is no kernel number.
    """
    (legacy_s, kernel_s), (legacy_stats, kernel_stats) = _interleaved_runs(
        cfg, system, trace, ("legacy", "kernel"), repeats)
    _assert_identical(system, legacy_stats, kernel_stats)
    prof = kernel_stats.engine_profile or {}
    out = {"legacy_s": round(legacy_s, 4)}
    if prof.get("engine") != "kernel":
        out["kernel"] = {"fallback_reason": prof.get("fallback_reason", "?")}
        return out
    out["kernel"] = {
        "backend": prof.get("backend", "?"),
        "kernel_s": round(kernel_s, 4),
        "refs_per_s": int(trace.total_accesses() / kernel_s),
        "speedup_vs_legacy": round(legacy_s / kernel_s, 3),
        "bails": int(prof.get("bails", 0)),
    }
    return out


def measure_miss_dense(scale: float, repeats: int) -> dict:
    """Kernel-vs-legacy timings on the miss-dense configuration."""
    from bench_engine_speedup import miss_dense_config, miss_dense_spec
    from repro.workloads.generator import TraceGenerator

    cfg = miss_dense_config()
    accesses = max(600, int(1500 * scale))
    trace = TraceGenerator(miss_dense_spec(accesses_per_proc=accesses),
                           cfg.machine, seed=0).generate()
    out = {"accesses": trace.total_accesses()}
    for system, key in (("migrep", "migrep"), ("rnuma", "rnuma"),
                        ("rnuma-migrep", "rnuma_migrep"),
                        ("hysteresis", "hysteresis")):
        out[key] = _engine_lane(cfg, system, trace, repeats)
    return out


def measure_hot_set(scale: float, repeats: int) -> dict:
    """Kernel-vs-legacy speedup on the high-hit-ratio workload."""
    from bench_engine_speedup import hot_set_spec
    from repro.config import base_config
    from repro.workloads.generator import TraceGenerator

    cfg = base_config(seed=0)
    accesses = max(1000, int(2000 * scale))
    trace = TraceGenerator(hot_set_spec(accesses_per_proc=accesses),
                           cfg.machine, seed=0).generate()
    return {"accesses": trace.total_accesses(),
            **_engine_lane(cfg, "ccnuma", trace, repeats)}


#: systems of the many-phases lane — gate 6
MANY_PHASES_SYSTEMS = ("ccnuma", "rnuma")


def measure_many_phases(scale: float, repeats: int) -> dict:
    """Kernel-vs-legacy speedups on the hot-set trace in 32 short phases."""
    from bench_engine_speedup import hot_set_spec
    from repro.config import base_config
    from repro.workloads.generator import TraceGenerator

    cfg = base_config(seed=0)
    # the hot-set lane's references per processor, spread over 32 phases
    accesses = max(125, int(250 * scale))
    trace = TraceGenerator(hot_set_spec(phases=32, accesses_per_proc=accesses),
                           cfg.machine, seed=0).generate()
    out = {"accesses": trace.total_accesses(), "phases": len(trace.phases)}
    for system in MANY_PHASES_SYSTEMS:
        out[system] = _engine_lane(cfg, system, trace, repeats)
    return out


def measure_sweep(scale: float) -> dict:
    """Figure-sized jobs=2 sweep: cold pass of a fresh runner vs warm pass.

    The cold pass spills every trace to its ``.rpt`` file, starts the
    pool and opens each file cold in the workers; the warm pass runs the
    same items through the same runner again (``memoize=False``, so
    every run executes), with the files spilled and open already.
    """
    from repro.config import base_config
    from repro.experiments.runner import SweepRunner
    from repro.workloads import get_workload

    cfg = base_config(seed=0)
    traces = [get_workload(app, machine=cfg.machine, scale=max(0.05, scale),
                           seed=0) for app in ("lu", "radix", "barnes")]
    items = [(t, s, cfg) for t in traces
             for s in ("perfect", "ccnuma", "migrep", "rnuma")]

    def timed(runner):
        t0 = time.perf_counter()
        runner.map_runs(items)
        return time.perf_counter() - t0

    # two fresh runners, best-of: pool start-up and 2-worker scheduling
    # on small CI machines are noisy, and the gate compares the two
    # numbers against each other rather than against a committed
    # recording
    cold_times, warm_times = [], []
    for _ in range(2):
        with SweepRunner(jobs=2, memoize=False) as runner:
            cold_times.append(timed(runner))
            cold = runner.stats.as_dict()
            warm_times.append(timed(runner))
            warm = runner.stats.as_dict()
    cold_s = min(cold_times)
    warm_s = min(warm_times)
    return {
        "runs": len(items),
        "cold_s": round(cold_s, 4),
        "warm_s": round(warm_s, 4),
        "warm_speedup": round(cold_s / warm_s, 3),
        "traces_spilled": cold["traces_spilled"],
        "cold_file_maps": cold["file_maps"],
        "warm_worker_reuse": warm["worker_reuse"] - cold["worker_reuse"],
    }


def measure_streaming(scale: float, repeats: int) -> dict:
    """In-memory vs streamed-from-file timings of the same trace.

    Writes a figure-sized trace to a trace file, then times the default
    engine over the in-memory :class:`Trace` and over the mmap-backed
    :class:`StreamingTrace` of the same file, repeats interleaved to
    cancel drift.  Results must be bit-identical; the gate is on the
    overhead ratio.
    """
    import tempfile

    from repro.config import base_config
    from repro.workloads import get_workload
    from repro.workloads.tracefile import open_trace, write_trace_file

    cfg = base_config(seed=0)
    trace = get_workload("lu", machine=cfg.machine,
                         scale=max(0.05, 0.3 * scale), seed=0)
    with tempfile.TemporaryDirectory(prefix="repro-bench-stream-") as d:
        path = write_trace_file(trace, Path(d) / "bench.rpt")
        streamed = open_trace(path)
        lanes = [("memory", trace), ("file", streamed)]
        times = {label: [] for label, _ in lanes}
        stats = {}
        for label, tr in lanes:            # warmup (maps the file once)
            _one_run(cfg, "migrep", tr, None)
        for _ in range(repeats):
            for label, tr in lanes:
                t, st = _one_run(cfg, "migrep", tr, None)
                times[label].append(t)
                stats[label] = st
        _assert_identical("migrep", stats["memory"], stats["file"])
        inmem_s = statistics.median(times["memory"])
        stream_s = statistics.median(times["file"])
        return {
            "accesses": trace.total_accesses(),
            "file_bytes": path.stat().st_size,
            "inmem_s": round(inmem_s, 4),
            "streamed_s": round(stream_s, 4),
            "overhead": round(stream_s / inmem_s, 3),
            "bytes_streamed": streamed.bytes_streamed,
        }


def measure_store(scale: float) -> dict:
    """Sweep wall time without a store vs checkpointing into a cold one.

    Each repetition of the store lane gets a fresh sqlite file, so the
    measured cost is the worst case: every run pickled and upserted.
    A final warm pass over the last populated store is recorded
    informationally — it is bounded by unpickling and should be a small
    fraction of the cold sweep.  Both gated sides are fresh best-of-two
    wall clocks, compared against each other (ratios transfer across
    machines).
    """
    import tempfile

    from repro.config import base_config
    from repro.experiments.runner import SweepRunner
    from repro.experiments.store import ResultStore
    from repro.workloads import get_workload

    cfg = base_config(seed=0)
    traces = [get_workload(app, machine=cfg.machine, scale=max(0.05, scale),
                           seed=0) for app in ("lu", "radix", "barnes")]
    items = [(t, s, cfg) for t in traces
             for s in ("perfect", "ccnuma", "migrep", "rnuma")]

    def sweep(store_path=None):
        with SweepRunner(jobs=2, memoize=False,
                         store=store_path) as runner:
            runner.map_runs(items)
            return runner.stats

    with tempfile.TemporaryDirectory(prefix="repro-bench-store-") as d:
        nostore_times, cold_times = [], []
        store_path = None
        for rep in range(2):
            t0 = time.perf_counter()
            sweep()
            nostore_times.append(time.perf_counter() - t0)
            store_path = Path(d) / f"bench-{rep}.sqlite"
            t0 = time.perf_counter()
            cold_stats = sweep(store_path)
            cold_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        warm_stats = sweep(store_path)
        warm_s = time.perf_counter() - t0
        with ResultStore(store_path) as store:
            store_rows = len(store)
    nostore_s = min(nostore_times)
    cold_s = min(cold_times)
    return {
        "runs": len(items),
        "nostore_s": round(nostore_s, 4),
        "cold_store_s": round(cold_s, 4),
        "warm_store_s": round(warm_s, 4),
        "overhead": round(cold_s / nostore_s, 3),
        "warm_ratio": round(warm_s / nostore_s, 3),
        "store_misses": cold_stats.store_misses,
        "store_hits": warm_stats.store_hits,
        "store_rows": store_rows,
    }


def measure_all(scale: float, repeats: int) -> dict:
    return {
        "miss_dense": measure_miss_dense(scale, repeats),
        "hot_set": measure_hot_set(scale, repeats),
        "many_phases": measure_many_phases(scale, repeats),
        "sweep_jobs2": measure_sweep(scale * 0.15),
        "streaming": measure_streaming(scale, repeats),
        "store": measure_store(scale * 0.15),
    }


def _fail(msgs, msg):
    msgs.append("FAIL: " + msg)


def check(measured: dict, recorded: dict, tolerance: float) -> int:
    """Compare fresh measurements against the committed record."""
    failures: list = []
    current = recorded.get("current", {})

    # 1. compiled kernel lanes vs legacy on the same host, each above
    # its floor and none below the band of the committed recording.  A
    # fallback (no C toolchain on this host) skips that lane's gate by
    # design.
    md = measured["miss_dense"]
    for key, floor in KERNEL_FLOORS:
        kernel = md.get(key, {}).get("kernel", {})
        if "speedup_vs_legacy" not in kernel:
            print(f"miss-dense {key} kernel: fell back "
                  f"({kernel.get('fallback_reason', 'no record')}) — gate "
                  "skipped")
            continue
        got = kernel["speedup_vs_legacy"]
        need = floor * (1 - tolerance)
        print(f"miss-dense {key} kernel ({kernel.get('backend')}) vs "
              f"legacy: x{got:.2f} at {kernel['refs_per_s']:,} refs/s "
              f"(gate >= x{need:.2f})")
        if got < need:
            _fail(failures, f"{key} kernel speedup over legacy fell "
                            f"below the {floor:g}x floor")
        cur_kernel = (current.get("miss_dense", {}).get(key, {})
                      .get("kernel", {}).get("speedup_vs_legacy"))
        if cur_kernel and got < cur_kernel * (1 - tolerance):
            _fail(failures, f"{key} kernel speedup regressed below the "
                            "committed band")

    # 2. hot-set band vs the committed current recording
    hot_kernel = measured["hot_set"].get("kernel", {})
    cur_hot = (current.get("hot_set", {}).get("kernel", {})
               .get("speedup_vs_legacy"))
    hot = hot_kernel.get("speedup_vs_legacy")
    if hot is None:
        print("hot-set kernel: fell back — gate skipped")
    elif cur_hot:
        need = cur_hot * (1 - tolerance)
        print(f"hot-set kernel speedup vs legacy: {hot:.2f} "
              f"(recorded {cur_hot:.2f}; gate >= {need:.2f})")
        if hot < need:
            _fail(failures, "hot-set kernel speedup regressed")
    else:
        print(f"hot-set kernel speedup vs legacy: {hot:.2f} (no recording)")

    # 3. a warm runner must not lose to a cold one.  Both sides are fresh
    # best-of-two wall clocks (no committed anchor), so the margin is
    # doubled to keep small shared CI machines from flaking the build.
    sw = measured["sweep_jobs2"]
    print(f"jobs=2 sweep: warm {sw['warm_s']}s vs cold "
          f"{sw['cold_s']}s (x{sw['warm_speedup']})")
    if sw["warm_s"] > sw["cold_s"] * (1 + 2 * tolerance):
        _fail(failures, "warm jobs=2 sweep slower than the cold pass of a "
                        "fresh runner")

    # 4. streaming overhead: a file-served run may cost at most 10% over
    # the in-memory run of the same trace (both sides fresh wall clocks,
    # so the tolerance band widens the fixed gate rather than anchoring
    # to a committed number)
    stream = measured.get("streaming")
    if stream:
        limit = 1.10 * (1 + tolerance)
        print(f"streaming overhead vs in-memory: x{stream['overhead']:.3f} "
              f"(gate <= x{limit:.3f})")
        if stream["overhead"] > limit:
            _fail(failures, "file-streamed run exceeded the 10% overhead "
                            "budget over the in-memory run")

    # 5. cold-store checkpointing overhead: a sweep writing every result
    # into a fresh ResultStore may cost at most 10% over the same sweep
    # without a store (fixed gate widened by the tolerance band, same
    # shape as gate 4).  The warm number is informational: it is a
    # replay, not a simulation.
    store = measured.get("store")
    if store:
        limit = 1.10 * (1 + tolerance)
        print(f"cold-store sweep overhead vs no-store: "
              f"x{store['overhead']:.3f} (gate <= x{limit:.3f}; warm "
              f"replay x{store['warm_ratio']:.3f})")
        if store["overhead"] > limit:
            _fail(failures, "cold-store sweep exceeded the 10% overhead "
                            "budget over the storeless sweep")
        if store["store_hits"] != store["runs"]:
            _fail(failures, "warm store pass recomputed runs that were "
                            "already stored")

    # 6. many-phases bands vs the committed current recording
    many = measured.get("many_phases", {})
    for system in MANY_PHASES_SYSTEMS:
        got = many.get(system, {}).get("kernel", {}).get("speedup_vs_legacy")
        cur = (current.get("many_phases", {}).get(system, {})
               .get("kernel", {}).get("speedup_vs_legacy"))
        if got is None:
            print(f"many-phases {system} kernel: fell back — gate skipped")
        elif cur:
            need = cur * (1 - tolerance)
            print(f"many-phases {system} kernel speedup vs legacy: "
                  f"{got:.2f} (recorded {cur:.2f}; gate >= {need:.2f})")
            if got < need:
                _fail(failures, f"many-phases {system} kernel speedup "
                                "regressed")
        else:
            print(f"many-phases {system} kernel speedup vs legacy: "
                  f"{got:.2f} (no recording)")

    for msg in failures:
        print(msg, file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--record", action="store_true",
                      help="measure and rewrite the `current` section of "
                           "BENCH_engine.json")
    mode.add_argument("--check", action="store_true",
                      help="measure and fail on regression vs the committed "
                           "BENCH_engine.json")
    parser.add_argument("--scale", type=float,
                        default=float(os.environ.get("REPRO_BENCH_SCALE",
                                                     "1.0")),
                        help="workload scale factor (default: "
                             "REPRO_BENCH_SCALE or 1.0)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions per measurement (median)")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="relative tolerance band for --check "
                             "(default 0.2)")
    parser.add_argument("--file", type=Path, default=BENCH_FILE,
                        help="benchmark record file (default: "
                             "BENCH_engine.json)")
    args = parser.parse_args(argv)

    recorded = {}
    if args.file.exists():
        recorded = json.loads(args.file.read_text())

    measured = measure_all(args.scale, args.repeats)
    print(json.dumps(measured, indent=2))

    if args.record:
        recorded["schema"] = 6
        recorded["current"] = {
            "scale": args.scale,
            **measured,
        }
        args.file.write_text(json.dumps(recorded, indent=2) + "\n")
        print(f"recorded -> {args.file}")
        return 0
    return check(measured, recorded, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
