#!/usr/bin/env python
"""CI chaos leg: prove the sweep-robustness invariants end to end.

Two checks, both runnable locally:

``python scripts/chaos_smoke.py chaos``
    Runs a figure5 sweep at ``jobs=2`` with crash+hang+error injectors
    afflicting a large fraction of worker runs and asserts the
    ``ResultSet`` rows are bit-identical to a fault-free run, with the
    recoveries visible in the runner counters.

``python scripts/chaos_smoke.py kill-resume``
    Launches a ``--store`` sweep in a subprocess, SIGKILLs it mid-flight
    and asserts every pool worker of the killed process exits on its
    own.  It then re-runs the sweep against the same store to completion
    (only the missing runs execute), re-runs once more and asserts zero
    runs were re-executed (everything served from the store) with rows
    identical to the completing run.

Exit code 0 means the invariants held.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

APPS = ["lu"]
SCALE = "0.05"


def _clean_env() -> dict:
    env = dict(os.environ)
    for var in ("REPRO_FAULTS", "REPRO_FAULTS_SEED", "REPRO_FAULTS_ATTEMPTS",
                "REPRO_FAULTS_HANG_S", "REPRO_JOBS"):
        env.pop(var, None)
    return env


def check_chaos() -> int:
    from repro.experiments.runner import SweepRunner
    from repro.experiments.scenario import run_scenario

    clean = run_scenario("figure5", apps=APPS, scale=float(SCALE))

    os.environ["REPRO_FAULTS"] = "crash=0.25,hang=0.15,error=0.15"
    os.environ["REPRO_FAULTS_HANG_S"] = "60"
    with SweepRunner(jobs=2, run_timeout=10.0, backoff=0.05) as runner:
        faulted = run_scenario("figure5", apps=APPS, scale=float(SCALE),
                               runner=runner)
        stats = runner.stats.as_dict()
    del os.environ["REPRO_FAULTS"]

    print("runner counters under injection:", json.dumps(stats))
    recoveries = stats["retries"] + stats["crashes"] + stats["timeouts"] \
        + stats["run_errors"]
    if recoveries == 0:
        print("FAIL: injection produced no faults (rates too low?)")
        return 1
    if faulted.rows != clean.rows:
        print("FAIL: faulted ResultSet differs from the fault-free run")
        return 1
    print(f"OK: {len(faulted.rows)} rows bit-identical under injection "
          f"({recoveries} recoveries)")
    return 0


def _store_rows(path: Path) -> int:
    """Completed runs checkpointed in the store so far (0 if none yet)."""
    import sqlite3
    try:
        conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True, timeout=1)
        try:
            return conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
        finally:
            conn.close()
    except sqlite3.Error:
        return 0


def _children(pid: int) -> list:
    """Pids whose parent is ``pid`` (Linux /proc scan; [] elsewhere)."""
    kids = []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else []:
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == pid:
            kids.append(int(entry))
    return kids


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except (OSError, IndexError):
        return False


def check_kill_resume() -> int:
    env = _clean_env()
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    with tempfile.TemporaryDirectory() as tmp:
        # the killed sweep cannot remove its trace spill directory: keep
        # it inside this check's temporary directory
        env["TMPDIR"] = tmp
        store = Path(tmp) / "results.sqlite"
        out_json = Path(tmp) / "out.json"
        argv = [sys.executable, "-m", "repro", "exp", "figure5",
                "--apps", ",".join(APPS), "--scale", SCALE, "--jobs", "2",
                "--store", str(store), "--json", str(out_json)]

        # 1) start a checkpointed sweep and SIGKILL it mid-flight (as
        # soon as the store holds a run, so the kill lands mid-sweep)
        victim = subprocess.Popen(argv, env=env, cwd=tmp,
                                  stdout=subprocess.DEVNULL,
                                  stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 120
        kids: list = []
        while time.monotonic() < deadline:
            if victim.poll() is not None:
                break
            kids = _children(victim.pid) or kids
            if _store_rows(store) > 0:
                break
            time.sleep(0.02)
        if victim.poll() is None:
            kids = _children(victim.pid) or kids
            victim.send_signal(signal.SIGKILL)
            victim.wait()
            print(f"killed mid-flight ({_store_rows(store)} run(s) "
                  f"checkpointed, {len(kids)} child process(es))")
            # 2) the killed sweep's pool workers must exit on their own
            deadline = time.monotonic() + 10
            while any(_running(k) for k in kids) \
                    and time.monotonic() < deadline:
                time.sleep(0.1)
            survivors = [k for k in kids if _running(k)]
            if survivors:
                print(f"FAIL: children {survivors} outlived the killed "
                      "sweep")
                for kid in survivors:
                    os.kill(kid, signal.SIGKILL)
                return 1
        else:
            # tiny sweeps can finish before the kill lands; the re-run
            # half of the check still proves the checkpoint contract
            print("sweep finished before the kill; continuing with re-run")

        # 3) re-run to completion: only the missing runs execute
        rc = subprocess.run(argv, env=env, cwd=tmp).returncode
        if rc != 0:
            print(f"FAIL: re-run sweep exited {rc}")
            return 1
        first = json.loads(out_json.read_text())
        print("re-run counters:", json.dumps(first.get("runner") or {}))

        # 4) re-run again: everything must come from the store
        rc = subprocess.run(argv, env=env, cwd=tmp).returncode
        if rc != 0:
            print(f"FAIL: second re-run exited {rc}")
            return 1
        second = json.loads(out_json.read_text())
        runner = second.get("runner") or {}
        print("second re-run counters:", json.dumps(runner))
        if runner.get("runs") != 0:
            print(f"FAIL: re-run re-executed {runner.get('runs')} runs")
            return 1
        if runner.get("store_hits", 0) <= 0:
            print("FAIL: re-run did not report store hits")
            return 1
        if second["rows"] != first["rows"]:
            print("FAIL: re-run rows differ")
            return 1
    print("OK: kill-resume recomputed zero completed runs")
    return 0


def main() -> int:
    if len(sys.argv) != 2 or sys.argv[1] not in ("chaos", "kill-resume"):
        print(__doc__)
        return 2
    if sys.argv[1] == "chaos":
        return check_chaos()
    return check_kill_resume()


if __name__ == "__main__":
    sys.exit(main())
