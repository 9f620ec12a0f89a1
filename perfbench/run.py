#!/usr/bin/env python3
"""Benchmark of the reproduction: end-to-end and per-layer timings.

Run from the repository root::

    python3 perfbench/run.py --workload paper --seed 0 --seconds 10 --trace 0

``--trace 0`` times operations untraced and prints the end-to-end
metrics.  ``--trace 1`` alternates untraced and traced operations on the
same inputs and prints the per-layer metrics, the tracing overhead
(traced over untraced wall time), and asserts that traced operations
took the same engine path with the same statistics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it is an ``info`` object
(kernel backend, numba, tail percentile and sample count, failures).

Workloads, and the layer metrics each should move, are described in
``perfbench/LAYERS.md``.  ``python3 -m pytest perfbench`` checks the
benchmark's own arithmetic.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from arith import Ledger, median, tail_percentile
from hostclock import HostClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sim_refs_per_s": "1/s",
    "run_p50_s": "s",
    "run_tail_s": "s",
    "peak_rss_mb": "MB",
}

BAIL_KINDS = ("fault", "collapse", "replicate", "migrate", "relocate",
              "decide", "pagecache")
REPORT_SECTIONS = ("table1", "table2", "table3", "figure5", "table4",
                   "figure6", "figure7", "figure8", "ablations")

PER_LAYER = {
    "workloads.gen_s": "s",
    "workloads.digest_s": "s",
    "engine.classify_s": "s",
    "engine.fast_frac": "ratio",
    "engine.kernel.schedule_s": "s",
    "engine.kernel.marshal_s": "s",
    "engine.kernel.bind_s": "s",
    "engine.kernel.walk_s": "s",
    "engine.kernel.walk_entries": "count",
    "engine.kernel.sync_s": "s",
    "engine.kernel.fold_s": "s",
    "engine.kernel.unattributed_s": "s",
    **{f"core.bail.{k}_s": "s" for k in BAIL_KINDS},
    **{f"core.bail.{k}_n": "count" for k in BAIL_KINDS},
    "engine.run_s": "s",
    "engine.kernel.fallbacks": "count",
    "experiments.runner.map_s": "s",
    "experiments.runner.busy_frac": "ratio",
    "experiments.runner.retries": "count",
    "experiments.runner.leaked_shm": "count",
    "experiments.runner.unraisable": "count",
    "experiments.store.put_s": "s",
    "experiments.store.puts": "count",
    "experiments.store.get_s": "s",
    "experiments.store.hits": "count",
    "experiments.store.replay_s": "s",
    **{f"experiments.report.{s}_s": "s" for s in REPORT_SECTIONS},
    "analysis.validate_s": "s",
    "analysis.claims_passed": "count",
    "trace.overhead": "ratio",
}

#: set-up probes per run; the median is reported
SETUP_PROBES = 3


def clean_environment() -> None:
    """Clear every ``REPRO_*`` variable and pin the benchmark's own.

    Worker processes inherit this environment.  The kernel build cache
    and temporary files stay inside the checkout.
    """
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_KERNEL_CACHE"] = str(WORK / "kernel-cache")
    os.environ["TMPDIR"] = str(WORK / "tmp")
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)


def measure_setup(workload: str, clock):
    """Median set-up time of fresh processes: ``(scaled, unscaled)``.

    One untimed probe first warms the kernel build cache and bytecode.
    """
    cmd = [sys.executable, str(Path(__file__)), "--setup-probe", workload]
    raw, scaled = [], []
    for rep in range(SETUP_PROBES + 1):
        start = clock.now()
        t0 = perf_counter()
        probe = subprocess.run(cmd, timeout=170, cwd=ROOT, text=True,
                               stdout=subprocess.DEVNULL,
                               stderr=subprocess.PIPE)
        dt = perf_counter() - t0
        if probe.returncode:
            raise RuntimeError(f"set-up probe failed:\n{probe.stderr[-2000:]}")
        if rep:
            raw.append(dt)
            scaled.append(dt * clock.speed_between(start, clock.now()))
    return median(scaled), median(raw)


def shm_segments() -> int:
    try:
        return sum(1 for n in os.listdir("/dev/shm") if n.startswith("repro_"))
    except OSError:
        return 0


def reset_peak_rss() -> None:
    """Reset this process's peak RSS (Linux); elsewhere keep the lifetime one."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def peak_rss_kb() -> int:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class UnraisableCounter:
    """``sys.unraisablehook`` that logs a line instead of a traceback.

    Forked pool workers inherit the hook, so their unraisable exceptions
    land in the same append-only log as the parent's.
    """

    def __init__(self, log: Path) -> None:
        self.log = log
        self.reset()

    def reset(self) -> None:
        self.log.write_text("")

    def __call__(self, unraisable) -> None:
        with open(self.log, "a") as fh:
            fh.write(f"{os.getpid()} {type(unraisable.exc_value).__name__}\n")

    def kinds(self) -> dict:
        out: dict = {}
        for line in self.log.read_text().splitlines():
            kind = line.split()[-1]
            out[kind] = out.get(kind, 0) + 1
        return out

    def close(self) -> None:
        self.log.unlink(missing_ok=True)


def reap_children() -> None:
    """Wait for every child process, the shared-memory tracker included."""
    import multiprocessing
    from multiprocessing import resource_tracker
    for child in multiprocessing.active_children():
        child.join(timeout=30)
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def layer_metrics(res, op_layers: dict, jobs: int) -> dict:
    """Per-layer values of one traced operation, times on the nominal host."""
    out = {name: 0.0 for name in PER_LAYER}
    out.update(res.extra)
    out.update(op_layers)
    refs = sum(int(p.get("references", 0)) for p in res.profiles)
    fast = sum(int(p.get("fast", 0)) for p in res.profiles)
    out["engine.fast_frac"] = fast / refs if refs else 0.0
    out["engine.run_s"] = sum(float(p.get("wall_s", 0.0))
                              for p in res.profiles)
    out["engine.kernel.fallbacks"] = sum(
        1 for p in res.profiles if p.get("fallback_reason"))
    map_s = out["experiments.runner.map_s"]
    out["experiments.runner.busy_frac"] = (
        out["engine.run_s"] / (map_s * jobs) if map_s else 0.0)
    for name, unit in PER_LAYER.items():
        if unit == "s":
            out[name] *= res.speed
    return out


def run_ops(wl, plan, tracer, ledger, clock):
    """Run the planned operations; returns (untraced, traced, leaked shm).

    ``plan`` holds ``(input index, traced)`` pairs.  A traced operation
    must take the engine path its untraced twin took.
    """
    untraced, traced_ops, paths = [], [], {}
    leaked = 0
    for j, traced in plan:
        op_id = f"op{j}{'t' if traced else ''}"
        ledger.begin(op_id)
        shm_before = shm_segments()
        start = clock.now()
        try:
            if traced:
                tracer.install(op_id)
                try:
                    res = wl.run_op(j, tracer)
                finally:
                    tracer.uninstall()
            else:
                res = wl.run_op(j)
        except Exception as exc:  # the op fails; the run goes on
            traceback.print_exc(file=sys.stderr)
            ledger.fail(f"{type(exc).__name__}: {exc}")
            ledger.end()
            continue
        finally:
            leaked += max(0, shm_segments() - shm_before)
        res.speed = clock.speed_between(start, clock.now())
        for key, ok, what in res.checks:
            ledger.check(key, ok, what)
        if traced:
            if res.path != paths.get(j):
                ledger.fail("traced run took another engine path: "
                            f"{res.path!r} vs {paths.get(j)!r}")
            traced_ops.append((op_id, res))
        else:
            paths[j] = res.path
            untraced.append(res)
        ledger.end()
    return untraced, traced_ops, leaked


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="WORKLOAD",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree under {ROOT}", file=sys.stderr)
        return 2
    clean_environment()
    sys.path.insert(0, str(ROOT / "src"))
    import loads
    if args.setup_probe:
        loads.setup_probe(args.setup_probe, WORK)
        return 0
    if args.workload not in loads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(loads.WORKLOADS)}")
    wl = loads.make(args.workload, WORK)
    os.environ["REPRO_JOBS"] = str(wl.jobs)
    unraisable = UnraisableCounter(WORK / "tmp" / f"unraisable-{os.getpid()}")
    sys.unraisablehook = unraisable
    try:
        with HostClock() as clock:
            return measure(args, wl, clock, unraisable)
    finally:
        reap_children()
        unraisable.close()


def measure(args, wl, clock, unraisable) -> int:
    """Set up, prepare references, run the operations, print the result."""
    import loads

    setup_s, setup_raw = measure_setup(wl.name, clock)
    wl.prepare(args.seed)

    n_ops = max(1, round(args.seconds * wl.ops_per_s))
    tracer = None
    if args.trace:
        # pairs on the same input: untraced, then traced
        import spans
        tracer = spans.Tracer()
        n_ops = max(1, n_ops // 2)
        plan = [(j, traced) for j in range(n_ops) for traced in (False, True)]
    else:
        plan = [(j, False) for j in range(n_ops)]

    ledger = Ledger()
    collector = getattr(wl, "collector", None)
    if collector is not None:
        collector.install()
    reset_peak_rss()
    unraisable.reset()
    try:
        untraced, traced_ops, leaked = run_ops(wl, plan, tracer, ledger,
                                               clock)
    finally:
        if collector is not None:
            collector.uninstall()
    if not untraced or (args.trace and not traced_ops):
        print(f"perfbench: no operation completed; {ledger.reasons}",
              file=sys.stderr)
        return 1
    everything = untraced + [r for _, r in traced_ops]
    peak_kb = max([peak_rss_kb()] + [r.peak_worker_kb for r in everything])

    sims = [s * r.speed for r in untraced for s in r.sim_s]
    tail_label, tail_s, n_sims = tail_percentile(sims)
    wall = median([r.wall_s * r.speed for r in untraced])
    backend, numba = loads.resolved_backend()
    info = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "ops": ledger.attempted, "failed_fraction": ledger.failed_fraction,
        "sims_timed": n_sims,
        "tail_percentile": tail_label, "tail_samples": n_sims,
        "references_checked": ledger.checked,
        "reference_inputs": ledger.references,
        "kernel_backend": backend, "numba": numba,
        "engine_backends": sorted({str(p.get("backend") or p.get("engine"))
                                   for r in untraced for p in r.profiles}),
        "host_speed": median([r.speed for r in everything]),
        "unscaled_wall_s": median([r.wall_s for r in untraced]),
        "unscaled_setup_s": setup_raw,
        "unraisable_kinds": unraisable.kinds(),
        "failures": ledger.reasons,
    }
    if tracer is None:
        values = {
            "setup_s": setup_s,
            "wall_s": wall,
            "sim_refs_per_s": median([r.refs / (r.wall_s * r.speed)
                                      for r in untraced]),
            "run_p50_s": median(sims),
            "run_tail_s": tail_s,
            "peak_rss_mb": peak_kb / 1024.0,
        }
        units = END_TO_END
    else:
        per_op = [layer_metrics(r, tracer.op_metrics(op), wl.jobs)
                  for op, r in traced_ops]
        values = {name: median([m[name] for m in per_op])
                  for name in PER_LAYER}
        values["trace.overhead"] = median(
            [r.wall_s * r.speed for _, r in traced_ops]) / wall
        values["experiments.runner.leaked_shm"] = leaked
        values["experiments.runner.unraisable"] = sum(
            unraisable.kinds().values())
        units = PER_LAYER
        tracer.write(WORK / "spans" / f"{wl.name}-seed{args.seed}.json", info)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": ledger.failed == 0 and ledger.mismatched == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
