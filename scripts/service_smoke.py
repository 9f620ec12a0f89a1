#!/usr/bin/env python
"""CI service leg: prove the sweep-service invariants end to end.

Two checks, both runnable locally:

``python scripts/service_smoke.py two-client``
    Starts a ``repro serve`` daemon, submits the same scenario from two
    concurrent clients, and asserts exactly one execution happened
    (the second submission joined in flight), both clients received
    identical rows, and the rows match a direct ``run_scenario``.

``python scripts/service_smoke.py kill-restart``
    Starts a store-backed daemon, SIGKILLs it mid-sweep, restarts it
    against the same store and socket, resubmits, and asserts every run
    completed before the kill was served from the store (zero
    recomputation) with the final rows matching a direct run.

Exit code 0 means the invariants held.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

APPS = ["lu"]
KILL_APPS = ["lu", "ocean"]
SCALE = 0.05


def _clean_env() -> dict:
    env = dict(os.environ)
    for var in ("REPRO_FAULTS", "REPRO_FAULTS_SEED", "REPRO_FAULTS_ATTEMPTS",
                "REPRO_FAULTS_HANG_S", "REPRO_JOBS", "REPRO_STORE",
                "REPRO_SERVICE"):
        env.pop(var, None)
    env["PYTHONPATH"] = str(REPO / "src") + os.pathsep + env.get(
        "PYTHONPATH", "")
    return env


def _spawn_daemon(sock: Path, store: Path) -> subprocess.Popen:
    # a SIGKILLed daemon cannot remove its trace spill directory: keep it
    # inside the check's temporary directory
    env = dict(_clean_env(), TMPDIR=str(store.parent))
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", str(sock),
         "--store", str(store), "--jobs", "2"],
        env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.STDOUT)


def check_two_client() -> int:
    from repro.experiments.scenario import run_scenario
    from repro.experiments.service import ServiceClient, wait_for_service

    direct = run_scenario("figure5", apps=APPS, scale=SCALE)

    with tempfile.TemporaryDirectory() as tmp:
        sock = Path(tmp) / "svc.sock"
        store = Path(tmp) / "results.sqlite"
        daemon = _spawn_daemon(sock, store)
        try:
            wait_for_service(sock, timeout=60)
            results: dict = {}
            joined: dict = {}

            def submit(idx: int, delay: float) -> None:
                time.sleep(delay)
                client = ServiceClient(sock)

                def on_event(event):
                    if event.get("event") == "accepted":
                        joined[idx] = event["joined"]

                results[idx] = client.submit("figure5", apps=APPS,
                                             scale=SCALE, on_event=on_event)

            threads = [threading.Thread(target=submit, args=(0, 0.0)),
                       threading.Thread(target=submit, args=(1, 0.1))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            stats = ServiceClient(sock).stats()
            ServiceClient(sock).shutdown()
            daemon.wait(timeout=15)
        finally:
            if daemon.poll() is None:
                daemon.kill()

    print("service stats:", json.dumps(stats["service"]))
    if stats["runner"]["runs"] != len(results[0].rows):
        print(f"FAIL: expected {len(results[0].rows)} executions, "
              f"got {stats['runner']['runs']}")
        return 1
    if stats["service"]["inflight_joins"] != 1:
        print(f"FAIL: expected 1 in-flight join, got "
              f"{stats['service']['inflight_joins']}")
        return 1
    if sorted(joined.values()) != [False, True]:
        print(f"FAIL: unexpected joined flags {joined}")
        return 1
    if results[0].rows != results[1].rows:
        print("FAIL: the two clients received different rows")
        return 1
    if results[0].rows != direct.rows:
        print("FAIL: served rows differ from a direct run_scenario")
        return 1
    print(f"OK: 2 clients, 1 execution, {len(direct.rows)} identical rows")
    return 0


def check_kill_restart() -> int:
    import sqlite3

    from repro.experiments.scenario import run_scenario
    from repro.experiments.service import ServiceClient, wait_for_service

    with tempfile.TemporaryDirectory() as tmp:
        sock = Path(tmp) / "svc.sock"
        store = Path(tmp) / "results.sqlite"

        daemon = _spawn_daemon(sock, store)
        try:
            wait_for_service(sock, timeout=60)

            def swallow():
                try:
                    ServiceClient(sock).submit("figure5", apps=KILL_APPS,
                                               scale=SCALE)
                except Exception:
                    pass   # the daemon dies mid-request by design

            threading.Thread(target=swallow, daemon=True).start()

            # kill as soon as the store proves at least one completed run
            rows_at_kill = 0
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if store.exists():
                    try:
                        conn = sqlite3.connect(str(store), timeout=5)
                        (rows_at_kill,) = conn.execute(
                            "SELECT COUNT(*) FROM results").fetchone()
                        conn.close()
                    except sqlite3.Error:
                        rows_at_kill = 0
                    if rows_at_kill:
                        break
                time.sleep(0.1)
            daemon.kill()
            daemon.wait(timeout=15)
            print(f"killed the daemon with {rows_at_kill} run(s) stored")
        finally:
            if daemon.poll() is None:
                daemon.kill()
        if rows_at_kill == 0:
            print("FAIL: no run reached the store before the kill")
            return 1

        daemon = _spawn_daemon(sock, store)
        try:
            wait_for_service(sock, timeout=60)
            client = ServiceClient(sock)
            rs = client.submit("figure5", apps=KILL_APPS, scale=SCALE)
            stats = rs.runner_stats
            client.shutdown()
            daemon.wait(timeout=15)
        finally:
            if daemon.poll() is None:
                daemon.kill()

    print("resubmit counters:", json.dumps(stats))
    if stats["store_hits"] < rows_at_kill:
        print(f"FAIL: only {stats['store_hits']} store hits for "
              f"{rows_at_kill} stored runs")
        return 1
    if stats["runs"] + stats["store_hits"] != len(rs.rows):
        print("FAIL: runs + store_hits do not cover the sweep")
        return 1
    direct = run_scenario("figure5", apps=KILL_APPS, scale=SCALE)
    if rs.rows != direct.rows:
        print("FAIL: resumed rows differ from a direct run_scenario")
        return 1
    print(f"OK: restart served {stats['store_hits']} runs from the store, "
          f"recomputed {stats['runs']}")
    return 0


def main() -> int:
    if len(sys.argv) != 2 or sys.argv[1] not in ("two-client",
                                                 "kill-restart"):
        print(__doc__)
        return 2
    if sys.argv[1] == "two-client":
        return check_two_client()
    return check_kill_restart()


if __name__ == "__main__":
    sys.exit(main())
