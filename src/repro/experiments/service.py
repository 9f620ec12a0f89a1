"""Persistent sweep service: a warm daemon shared by many clients.

The :class:`~repro.experiments.runner.SweepRunner` and the durable
:class:`~repro.experiments.store.ResultStore` make any *single* process
cheap to re-run; this module turns them into shared infrastructure — one
long-running local daemon holding a warm runner (memo table, worker
pool, spilled trace files) and one store, accepting scenario
submissions from any number of concurrent clients:

* **Nothing is computed twice.**  Completed runs live in the store, so
  a submission seen before — by any client, in any process, before any
  crash — is served without simulating.
* **Nothing is computed twice *concurrently* either.**  Submissions are
  content-addressed (scenario name + canonical axis overrides); a
  second client submitting an identical request while the first is
  still executing *joins* the in-flight execution and receives the same
  :class:`~repro.experiments.scenario.ResultSet` when it completes
  (``RunnerStats.inflight_joins`` counts these).
* **A killed daemon resumes for free.**  Every harvested run is
  upserted into the store before the next one dispatches; restarting
  the daemon against the same store and resubmitting recomputes zero
  completed runs.
* **Progress streams live.**  While a submission executes, the client
  receives periodic progress events carrying the runner's counter
  deltas (the same counters behind ``repro exp --profile``), so long
  sweeps are observable without polling.

The wire protocol is newline-delimited JSON over a Unix domain socket —
one request object per line in, a stream of event objects per line out
(``accepted``, ``progress`` …, then ``result`` or ``error``).  Results
cross the socket as a base64 zlib pickle of the ResultSet, which is what
makes the service transparent: the rows a client receives are
bit-identical to a direct :func:`~repro.experiments.scenario.
run_scenario` of the same request.

.. note:: like the store, the transport embeds pickles;
   the socket is a *local trust boundary* (filesystem permissions), not
   a network API.

Server::

    repro serve --socket /tmp/repro.sock --store results.sqlite --jobs 4

Clients::

    repro exp figure5 --service /tmp/repro.sock

    from repro.experiments.service import ServiceClient
    rs = ServiceClient("/tmp/repro.sock").submit("figure5", apps=["lu"])
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import os
import pickle
import socket
import threading
import time
import zlib
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.experiments.runner import SweepRunner
from repro.experiments.scenario import ResultSet, run_scenario
from repro.experiments.store import ResultStore

#: Environment variable naming the default service socket for the CLI.
SERVICE_ENV_VAR = "REPRO_SERVICE"

#: Axis overrides a submission may carry (everything JSON-serializable
#: that ``run_scenario`` accepts; configs/factories stay server-side).
SUBMIT_KWARGS = ("apps", "systems", "scale", "seed")

#: Seconds between progress events while a submission executes.
PROGRESS_INTERVAL_S = 0.2


class ServiceError(RuntimeError):
    """Raised by the client for protocol/server-side failures."""


def request_key(scenario: str, kwargs: Dict[str, object]) -> str:
    """Content digest of one submission (scenario + canonical overrides).

    Two requests dedupe into one in-flight execution exactly when this
    digest matches, so the canonicalisation must be insensitive to
    irrelevant representation details: keys are sorted, absent and
    ``None`` overrides are identical, and list order is preserved (axis
    order is meaningful — it decides row order).
    """
    canon = {k: v for k, v in sorted(kwargs.items()) if v is not None}
    blob = json.dumps({"scenario": scenario, "kwargs": canon},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


def _encode_resultset(rs: ResultSet) -> str:
    return base64.b64encode(zlib.compress(
        pickle.dumps(rs, protocol=pickle.HIGHEST_PROTOCOL))).decode("ascii")


def _decode_resultset(blob: str) -> ResultSet:
    return pickle.loads(zlib.decompress(base64.b64decode(blob)))


class SweepService:
    """The daemon: one warm SweepRunner + store behind a Unix socket.

    Parameters
    ----------
    socket_path:
        Unix domain socket to listen on.  A stale socket file left by a
        killed daemon is detected (nothing accepts on it) and replaced;
        a *live* one raises :class:`ServiceError` instead of hijacking.
    store:
        Path to (or instance of) the durable
        :class:`~repro.experiments.store.ResultStore` backing the
        runner.  ``None`` runs memory-only — correct, but a restart
        forgets everything.
    jobs / engine / retries / run_timeout:
        Forwarded to the shared :class:`SweepRunner`.

    Submissions execute serially through the shared runner (its memo
    table and worker pool are not thread-safe); *deduplication* is what
    makes many concurrent clients cheap — identical requests join one
    execution, distinct requests queue and still reuse every overlapping
    (trace, system, config) cell through the memo table and the store.
    """

    def __init__(self, socket_path: Union[str, Path], *,
                 store: Optional[Union[str, Path, ResultStore]] = None,
                 jobs: Optional[int] = None,
                 engine: Optional[str] = None,
                 retries: Optional[int] = None,
                 run_timeout: Optional[float] = None) -> None:
        self.socket_path = Path(socket_path)
        self.runner = SweepRunner(jobs=jobs, engine=engine, store=store,
                                  retries=retries, run_timeout=run_timeout)
        self._runner_lock = threading.Lock()
        self._inflight: Dict[str, "asyncio.Task"] = {}
        self._conn_tasks: set = set()
        self._conn_writers: set = set()
        self._stop: Optional[asyncio.Event] = None
        #: total submissions accepted (joins included)
        self.submissions = 0
        #: submissions that joined an identical in-flight execution
        self.inflight_joins = 0
        self.started_at = time.time()

    # -- execution ----------------------------------------------------------

    def _execute(self, scenario: str, kwargs: Dict[str, object]) -> ResultSet:
        """Run one submission through the shared runner (worker thread).

        The runner outlives every submission, so its trace memo is dropped
        after each one: completed runs stay reusable through the memo
        table and the store, which key on trace digests, not on traces.
        """
        with self._runner_lock:
            try:
                return run_scenario(scenario, runner=self.runner, **kwargs)
            finally:
                self.runner.forget_traces()

    def _service_stats(self) -> Dict[str, object]:
        return {
            "pid": os.getpid(),
            "uptime_s": round(time.time() - self.started_at, 3),
            "submissions": self.submissions,
            "inflight_joins": self.inflight_joins,
            "inflight": len(self._inflight),
            "store": (str(self.runner.store.path)
                      if self.runner.store is not None else None),
            "store_rows": (len(self.runner.store)
                           if self.runner.store is not None else None),
            "jobs": self.runner.jobs,
            "engine": self.runner.engine,
        }

    # -- protocol -----------------------------------------------------------

    async def _send(self, writer: asyncio.StreamWriter,
                    event: Dict[str, object]) -> None:
        writer.write(json.dumps(event).encode() + b"\n")
        await writer.drain()

    async def _handle_submit(self, req: Dict[str, object],
                             writer: asyncio.StreamWriter) -> None:
        scenario = req.get("scenario")
        kwargs = dict(req.get("kwargs") or {})
        if not isinstance(scenario, str) or not scenario:
            raise ServiceError("submit requires a scenario name")
        unknown = sorted(set(kwargs) - set(SUBMIT_KWARGS))
        if unknown:
            raise ServiceError(
                f"unsupported submission option(s): {', '.join(unknown)} "
                f"(accepted: {', '.join(SUBMIT_KWARGS)})")

        rkey = request_key(scenario, kwargs)
        task = self._inflight.get(rkey)
        joined = task is not None
        self.submissions += 1
        if joined:
            # dedupe: await the first submitter's execution instead of
            # dispatching a second identical sweep
            self.inflight_joins += 1
            self.runner.stats.inflight_joins += 1
        else:
            task = asyncio.get_running_loop().create_task(
                asyncio.to_thread(self._execute, scenario, kwargs))
            self._inflight[rkey] = task
            task.add_done_callback(lambda _t: self._inflight.pop(rkey, None))
        await self._send(writer, {"event": "accepted", "request": rkey,
                                  "scenario": scenario, "joined": joined})

        while True:
            done, _pending = await asyncio.wait(
                {task}, timeout=PROGRESS_INTERVAL_S)
            if done:
                break
            await self._send(writer, {
                "event": "progress", "request": rkey,
                "runner": self.runner.stats.as_dict()})
        try:
            rs = task.result()
        except Exception as exc:
            await self._send(writer, {
                "event": "error", "request": rkey,
                "message": f"{type(exc).__name__}: {exc}"})
            return
        await self._send(writer, {
            "event": "result", "request": rkey, "joined": joined,
            "runner": rs.runner_stats,
            "resultset": _encode_resultset(rs)})

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        self._conn_writers.add(writer)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                try:
                    req = json.loads(line)
                    if not isinstance(req, dict):
                        raise ValueError("request must be an object")
                except ValueError as exc:
                    await self._send(writer, {"event": "error",
                                              "message": f"bad request: {exc}"})
                    continue
                op = req.get("op")
                if op == "ping":
                    from repro import __version__
                    await self._send(writer, {"event": "pong",
                                              "pid": os.getpid(),
                                              "version": __version__})
                elif op == "stats":
                    await self._send(writer, {
                        "event": "stats",
                        "runner": self.runner.stats.as_dict(),
                        "service": self._service_stats()})
                elif op == "submit":
                    try:
                        await self._handle_submit(req, writer)
                    except ServiceError as exc:
                        await self._send(writer, {"event": "error",
                                                  "message": str(exc)})
                elif op == "shutdown":
                    await self._send(writer, {"event": "bye"})
                    if self._stop is not None:
                        self._stop.set()
                    break
                else:
                    await self._send(writer, {
                        "event": "error",
                        "message": f"unknown op: {op!r}"})
        except (ConnectionError, BrokenPipeError):
            pass   # client went away mid-stream; in-flight work continues
        except asyncio.CancelledError:
            # loop teardown during shutdown: exit normally so the
            # streams protocol's done-callback (3.11 has no cancelled()
            # guard) doesn't log a spurious CancelledError
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            self._conn_writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):  # pragma: no cover
                pass

    # -- lifecycle ----------------------------------------------------------

    def _claim_socket(self) -> None:
        """Remove a stale socket file; refuse to replace a live daemon.

        A bare ``connect`` probe is not enough: a SIGKILLed daemon's
        forked pool workers inherit the listening descriptor, so
        connections to the leftover socket still *succeed* (they queue
        in the orphaned backlog) even though nothing will ever answer.
        Only a completed ping round-trip proves a live daemon.
        """
        if not self.socket_path.exists():
            return
        probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            probe.settimeout(1.0)
            probe.connect(str(self.socket_path))
            probe.sendall(b'{"op": "ping"}\n')
            if not probe.recv(1):
                raise OSError("no reply")   # EOF: nobody is serving
        except OSError:
            self.socket_path.unlink()   # dead daemon's leftover
        else:
            raise ServiceError(
                f"{self.socket_path}: a live service is already listening")
        finally:
            probe.close()

    async def serve(self) -> None:
        """Accept clients until a ``shutdown`` request (or cancellation)."""
        if not hasattr(socket, "AF_UNIX"):  # pragma: no cover - non-Unix
            raise ServiceError("the sweep service requires Unix sockets")
        self._claim_socket()
        if self.socket_path.parent != Path("."):
            self.socket_path.parent.mkdir(parents=True, exist_ok=True)
        self._stop = asyncio.Event()
        server = await asyncio.start_unix_server(
            self._handle_client, path=str(self.socket_path))
        try:
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            # nudge lingering connections (EOF beats cancellation: the
            # handlers exit their read loop cleanly) and wait for them
            for w in list(self._conn_writers):
                w.close()
            pending = {t for t in self._conn_tasks
                       if t is not asyncio.current_task()}
            if pending:
                await asyncio.wait(pending, timeout=2.0)
            self.runner.close()
            try:
                self.socket_path.unlink()
            except OSError:
                pass

    def serve_forever(self) -> None:
        """Blocking entry point (``repro serve``)."""
        asyncio.run(self.serve())


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


class ServiceClient:
    """Synchronous client of a :class:`SweepService` daemon.

    Parameters
    ----------
    socket_path:
        The daemon's Unix socket.
    timeout:
        Per-*event* socket timeout in seconds.  Progress events arrive
        every :data:`PROGRESS_INTERVAL_S` while a sweep executes, so
        this bounds silence, not total sweep duration.

    Each request opens a fresh connection — the daemon is the stateful
    side; clients stay trivial and fork/thread-safe.
    """

    def __init__(self, socket_path: Union[str, Path],
                 timeout: float = 120.0) -> None:
        self.socket_path = str(socket_path)
        self.timeout = timeout

    def _request(self, payload: Dict[str, object],
                 on_event: Optional[Callable[[Dict[str, object]], None]] = None,
                 final: tuple = ("result", "error")) -> Dict[str, object]:
        """Send one request; stream events until a final one arrives."""
        conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            conn.settimeout(self.timeout)
            try:
                conn.connect(self.socket_path)
            except OSError as exc:
                raise ServiceError(
                    f"cannot reach sweep service at {self.socket_path}: "
                    f"{exc}") from exc
            fh = conn.makefile("rwb")
            fh.write(json.dumps(payload).encode() + b"\n")
            fh.flush()
            while True:
                line = fh.readline()
                if not line:
                    raise ServiceError(
                        "service closed the connection mid-request")
                event = json.loads(line)
                if on_event is not None:
                    on_event(event)
                if event.get("event") in final:
                    return event
        except socket.timeout as exc:
            raise ServiceError(
                f"service did not respond within {self.timeout}s") from exc
        finally:
            conn.close()

    def ping(self) -> Dict[str, object]:
        """Liveness probe: the daemon's pid and package version."""
        return self._request({"op": "ping"}, final=("pong",))

    def stats(self) -> Dict[str, object]:
        """Runner counters plus service-level stats of the daemon."""
        return self._request({"op": "stats"}, final=("stats",))

    def shutdown(self) -> None:
        """Ask the daemon to exit after in-flight work completes."""
        self._request({"op": "shutdown"}, final=("bye",))

    def submit(self, scenario: str, *,
               apps: Optional[List[str]] = None,
               systems: Optional[List[str]] = None,
               scale: Optional[float] = None,
               seed: Optional[int] = None,
               on_event: Optional[Callable[[Dict[str, object]], None]] = None
               ) -> ResultSet:
        """Submit one scenario and block until its ResultSet arrives.

        Parameters mirror :func:`~repro.experiments.scenario.
        run_scenario`'s JSON-serializable axis overrides.  ``on_event``
        observes every protocol event (``accepted`` carries ``joined``,
        ``progress`` carries live runner counters).

        Returns the ResultSet bit-identical to a direct
        ``run_scenario(scenario, ...)`` of the same arguments.
        """
        kwargs = {k: v for k, v in (("apps", apps), ("systems", systems),
                                    ("scale", scale), ("seed", seed))
                  if v is not None}
        event = self._request({"op": "submit", "scenario": scenario,
                               "kwargs": kwargs}, on_event=on_event)
        if event["event"] == "error":
            raise ServiceError(str(event.get("message")))
        return _decode_resultset(event["resultset"])


def wait_for_service(socket_path: Union[str, Path], *,
                     timeout: float = 30.0,
                     poll_s: float = 0.05) -> Dict[str, object]:
    """Block until a daemon answers ``ping`` on ``socket_path``.

    Used by tests and smoke scripts right after launching a daemon
    process.  Raises :class:`ServiceError` on timeout.
    """
    client = ServiceClient(socket_path, timeout=max(1.0, poll_s * 20))
    deadline = time.monotonic() + timeout
    while True:
        try:
            return client.ping()
        except (ServiceError, OSError):
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"no sweep service on {socket_path} after {timeout}s")
            time.sleep(poll_s)
