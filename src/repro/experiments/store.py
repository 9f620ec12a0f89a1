"""Durable, content-addressed result store (``ResultStore``, SQLite).

The :class:`~repro.experiments.runner.SweepRunner` memoizes results by a
content-addressed key — ``(trace digest, system, canonical config,
engine)`` — but its memo table dies with the process.  This module
promotes that table to a *durable* store: a single SQLite file holding
one row per completed run, keyed by the exact memo key scheme, so a key
computed by the in-process memo addresses the same run in the store.

Each row carries the full pickled :class:`~repro.experiments.runner.
ExperimentResult` (zlib-compressed, blake2b-checksummed) plus extracted
headline metrics (execution time, remote misses, network traffic — so
``repro store ls``/``export`` never unpickle anything) and provenance:
the engine that produced the run, the kernel backend if any, the
``repro`` package version and the run's wall time.

Durability and concurrency come from SQLite itself: the store opens in
WAL mode (concurrent readers never block the writer and vice versa),
every upsert is one atomic transaction, and a schema-version row in the
``meta`` table lets newer code open and migrate older stores in place
(:data:`SCHEMA_VERSION`, :meth:`ResultStore._migrate`).

A store is wired into sweeps at three levels:

* ``SweepRunner(store=...)`` — cache-missing runs consult the store
  before executing and publish into it as each run is harvested
  (``RunnerStats.store_hits`` / ``store_misses``), so the store is the
  sweep's checkpoint: a killed sweep re-run against it executes only
  the missing runs;
* ``run_scenario(store=...)`` / ``repro exp --store PATH`` — the same,
  per scenario, so a sweep re-run in a *fresh process* reports 100%
  store hits;
* the persistent sweep service (:mod:`repro.experiments.service`) —
  the store is the service's checkpoint, so a killed daemon restarts
  with every completed run already warm.

.. note:: rows embed pickled :class:`ExperimentResult` objects; open
   stores only from paths you trust, like any pickle.
"""

from __future__ import annotations

import base64
import hashlib
import json
import pickle
import sqlite3
import threading
import time
import zlib
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle (runner imports us)
    from repro.experiments.runner import ExperimentResult, RunKey

#: Environment variable naming the default store file for the CLI.
STORE_ENV_VAR = "REPRO_STORE"

#: Current store schema version.  v1 held key + metrics + payload only;
#: v2 added the provenance columns (``engine_used``, ``backend``,
#: ``package_version``, ``wall_s``, ``created_at``).  Opening a v1 store
#: with v2 code migrates it in place.
SCHEMA_VERSION = 2

#: Provenance columns added by schema v2 (name -> SQL type), in the
#: order the migration adds them.
_V2_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("engine_used", "TEXT"),
    ("backend", "TEXT"),
    ("package_version", "TEXT"),
    ("wall_s", "REAL"),
    ("created_at", "REAL"),
)

_CREATE_META = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
)
"""

_CREATE_RESULTS = """
CREATE TABLE IF NOT EXISTS results (
    digest           TEXT NOT NULL,
    system           TEXT NOT NULL,
    config           TEXT NOT NULL,
    engine           TEXT NOT NULL,
    workload         TEXT NOT NULL,
    execution_time   INTEGER NOT NULL,
    remote_misses    INTEGER NOT NULL,
    network_messages INTEGER NOT NULL,
    network_bytes    INTEGER NOT NULL,
    payload          BLOB NOT NULL,
    checksum         TEXT NOT NULL,
    engine_used      TEXT,
    backend          TEXT,
    package_version  TEXT,
    wall_s           REAL,
    created_at       REAL,
    PRIMARY KEY (digest, system, config, engine)
)
"""


class StoreError(RuntimeError):
    """Raised for unusable store files (bad schema, future version)."""


def _checksum(payload: bytes) -> str:
    """Content checksum of one pickled result blob."""
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


def _encode(result: "ExperimentResult") -> Tuple[bytes, str]:
    payload = zlib.compress(
        pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
    return payload, _checksum(payload)


class ResultStore:
    """SQLite-backed, content-addressed store of completed run results.

    Parameters
    ----------
    path:
        The store file.  Created (with parent directories) if missing;
        an existing store of an older schema version is migrated in
        place on open, and a store written by a *newer* ``repro``
        raises :class:`StoreError` instead of guessing.

    The store is safe for concurrent use from multiple processes (WAL
    mode, atomic upserts, a generous busy timeout) and from multiple
    threads of one process (an internal lock serializes the shared
    connection).  Use as a context manager or call :meth:`close`.

    Examples
    --------
    >>> import tempfile, os
    >>> path = os.path.join(tempfile.mkdtemp(), "results.sqlite")
    >>> store = ResultStore(path)
    >>> len(store)
    0
    >>> store.close()
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        if self.path.parent != Path("."):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        #: number of rows served as misses because their payload was corrupt
        self.corrupt_reads = 0
        self._conn = sqlite3.connect(str(self.path), timeout=30.0,
                                     check_same_thread=False)
        try:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._init_schema()
        except Exception:
            self._conn.close()
            raise

    # -- schema -------------------------------------------------------------

    def _init_schema(self) -> None:
        with self._conn:
            self._conn.execute(_CREATE_META)
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                has_results = self._conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table' "
                    "AND name='results'").fetchone()
                if has_results:
                    raise StoreError(
                        f"{self.path}: results table without a "
                        "schema_version row — not a repro result store")
                self._conn.execute(_CREATE_RESULTS)
                self._conn.execute(
                    "INSERT INTO meta (key, value) VALUES "
                    "('schema_version', ?)", (str(SCHEMA_VERSION),))
                return
            version = int(row[0])
            if version > SCHEMA_VERSION:
                raise StoreError(
                    f"{self.path}: store schema v{version} is newer than "
                    f"this repro (v{SCHEMA_VERSION}); upgrade the package")
            if version < SCHEMA_VERSION:
                self._migrate(version)

    def _migrate(self, version: int) -> None:
        """Migrate an older store to :data:`SCHEMA_VERSION` in place.

        Runs inside the caller's transaction.  v1 → v2 adds the
        provenance columns (left NULL for pre-migration rows — their
        runs genuinely carry no recorded provenance).
        """
        if version == 1:
            existing = {r[1] for r in self._conn.execute(
                "PRAGMA table_info(results)")}
            for name, sql_type in _V2_COLUMNS:
                if name not in existing:
                    self._conn.execute(
                        f"ALTER TABLE results ADD COLUMN {name} {sql_type}")
            version = 2
        self._conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(version),))

    @property
    def schema_version(self) -> int:
        """Schema version of the open store (always the current one)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key = 'schema_version'"
            ).fetchone()
        return int(row[0])

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Close the underlying connection (flushes the WAL)."""
        with self._lock:
            self._conn.close()

    # -- core mapping -------------------------------------------------------

    def put(self, key: "RunKey", result: "ExperimentResult") -> None:
        """Atomically upsert one completed run under its memo key.

        Provenance (executing engine, kernel backend, wall time) is
        read from the result's ``engine_profile`` when present; the
        package version and a wall-clock timestamp are stamped at
        insert time.  Re-putting an existing key replaces the row — the
        simulator is deterministic, so a replacement is byte-identical
        content refreshed with current provenance.
        """
        from repro import __version__

        digest, system, config, engine = key
        payload, checksum = _encode(result)
        profile = getattr(result.stats, "engine_profile", None) or {}
        with self._lock, self._conn:
            self._conn.execute(
                "INSERT INTO results (digest, system, config, engine, "
                "workload, execution_time, remote_misses, network_messages, "
                "network_bytes, payload, checksum, engine_used, backend, "
                "package_version, wall_s, created_at) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT (digest, system, config, engine) DO UPDATE SET "
                "workload = excluded.workload, "
                "execution_time = excluded.execution_time, "
                "remote_misses = excluded.remote_misses, "
                "network_messages = excluded.network_messages, "
                "network_bytes = excluded.network_bytes, "
                "payload = excluded.payload, "
                "checksum = excluded.checksum, "
                "engine_used = excluded.engine_used, "
                "backend = excluded.backend, "
                "package_version = excluded.package_version, "
                "wall_s = excluded.wall_s, "
                "created_at = excluded.created_at",
                (digest, system, config, engine,
                 result.workload,
                 int(result.stats.execution_time),
                 int(result.stats.total_remote_misses),
                 int(result.stats.network_messages),
                 int(result.stats.network_bytes),
                 payload, checksum,
                 profile.get("engine") or engine,
                 profile.get("backend"),
                 __version__,
                 profile.get("wall_s"),
                 time.time()))

    def get(self, key: "RunKey") -> Optional["ExperimentResult"]:
        """The stored result for ``key``, or ``None``.

        A row whose payload fails its checksum or does not unpickle is
        treated as a miss — the caller recomputes and the next
        :meth:`put` overwrites the corrupt row, so torn writes from a
        killed process self-heal (:attr:`corrupt_reads` counts them;
        :meth:`verify` lists them without recomputing).
        """
        with self._lock:
            row = self._conn.execute(
                "SELECT payload, checksum FROM results WHERE digest = ? "
                "AND system = ? AND config = ? AND engine = ?",
                key).fetchone()
        if row is None:
            return None
        payload, checksum = row
        try:
            if _checksum(payload) != checksum:
                raise StoreError("checksum mismatch")
            result = pickle.loads(zlib.decompress(payload))
        except Exception:
            self.corrupt_reads += 1
            return None
        return result

    def __contains__(self, key: "RunKey") -> bool:
        with self._lock:
            row = self._conn.execute(
                "SELECT 1 FROM results WHERE digest = ? AND system = ? "
                "AND config = ? AND engine = ?", key).fetchone()
        return row is not None

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM results").fetchone()
        return int(count)

    def keys(self) -> Iterator[Tuple[str, str, str, str]]:
        """All stored run keys, in insertion-independent sorted order."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT digest, system, config, engine FROM results "
                "ORDER BY digest, system, config, engine").fetchall()
        return iter([tuple(r) for r in rows])

    # -- inspection (``repro store ls`` / ``export``) ------------------------

    def rows(self) -> List[Dict[str, object]]:
        """Metadata of every stored run — no payload is unpickled.

        One JSON-ready dictionary per row: the four key columns, the
        workload name, the extracted headline metrics and the
        provenance columns (``None`` for rows written by a v1 store).
        """
        with self._lock:
            cur = self._conn.execute(
                "SELECT digest, system, config, engine, workload, "
                "execution_time, remote_misses, network_messages, "
                "network_bytes, length(payload), engine_used, backend, "
                "package_version, wall_s, created_at FROM results "
                "ORDER BY created_at IS NULL, created_at, digest, system")
            names = [d[0] for d in cur.description]
            names[names.index("length(payload)")] = "payload_bytes"
            return [dict(zip(names, row)) for row in cur.fetchall()]

    def verify(self) -> Dict[str, object]:
        """Recompute every row's checksum and unpickle every payload.

        Returns ``{"rows": total, "ok": good, "corrupt": [keys...]}``;
        a non-empty ``corrupt`` list means those rows will read as
        misses (and be recomputed/overwritten) rather than poison a
        sweep.
        """
        corrupt: List[Tuple[str, str, str, str]] = []
        total = 0
        with self._lock:
            cur = self._conn.execute(
                "SELECT digest, system, config, engine, payload, checksum "
                "FROM results")
            for digest, system, config, engine, payload, checksum in cur:
                total += 1
                try:
                    if _checksum(payload) != checksum:
                        raise StoreError("checksum mismatch")
                    pickle.loads(zlib.decompress(payload))
                except Exception:
                    corrupt.append((digest, system, config, engine))
        return {"rows": total, "ok": total - len(corrupt),
                "corrupt": corrupt}

    def export_rows(self) -> List[Dict[str, object]]:
        """:meth:`rows` plus each payload as base64 (full fidelity export).

        The export is self-contained: importing a row elsewhere only
        needs ``pickle.loads(zlib.decompress(base64.b64decode(...)))``.
        """
        with self._lock:
            cur = self._conn.execute(
                "SELECT digest, system, config, engine, payload "
                "FROM results")
            payloads = {tuple(row[:4]): base64.b64encode(row[4]).decode()
                        for row in cur.fetchall()}
        out = []
        for row in self.rows():
            key = (row["digest"], row["system"], row["config"], row["engine"])
            row = dict(row)
            row["payload"] = payloads[key]
            del row["payload_bytes"]
            out.append(row)
        return out

    # -- garbage collection --------------------------------------------------

    def gc(self, *, max_age_s: Optional[float] = None,
           digests: Optional[List[str]] = None,
           everything: bool = False,
           dry_run: bool = False) -> List[Tuple[str, str, str, str]]:
        """Delete rows by age or digest prefix; return the affected keys.

        Parameters
        ----------
        max_age_s:
            Delete rows whose ``created_at`` is older than this many
            seconds (rows without a timestamp — migrated v1 rows —
            count as infinitely old).
        digests:
            Delete rows whose trace digest starts with any of these
            (hex) prefixes — e.g. after deleting the trace files of a
            retired workload.
        everything:
            Delete all rows (``repro store gc --all``).
        dry_run:
            Only report what would be deleted.

        With no criterion the call is a no-op — an accidental bare
        ``gc`` must never empty the store.  Deletions are followed by a
        ``VACUUM`` so the file actually shrinks.
        """
        clauses: List[str] = []
        params: List[object] = []
        if everything:
            clauses.append("1=1")
        if max_age_s is not None:
            clauses.append("(created_at IS NULL OR created_at < ?)")
            params.append(time.time() - max_age_s)
        for prefix in digests or ():
            clauses.append("digest LIKE ?")
            params.append(prefix + "%")
        if not clauses:
            return []
        where = " OR ".join(clauses)
        with self._lock:
            victims = [tuple(r) for r in self._conn.execute(
                "SELECT digest, system, config, engine FROM results "
                f"WHERE {where}", params).fetchall()]
            if victims and not dry_run:
                with self._conn:
                    self._conn.execute(
                        f"DELETE FROM results WHERE {where}", params)
                self._conn.execute("VACUUM")
        return victims

    def __repr__(self) -> str:
        return f"ResultStore({str(self.path)!r}, {len(self)} rows)"


def describe_key(key: "RunKey") -> Dict[str, str]:
    """JSON-ready view of one run key (``repro store ls --json``)."""
    digest, system, config, engine = key
    return {"digest": digest, "system": system, "config": config,
            "engine": engine}


def dumps_export(store: ResultStore) -> str:
    """Full-fidelity JSON export of a store (``repro store export``)."""
    return json.dumps({"schema": SCHEMA_VERSION,
                       "rows": store.export_rows()}, indent=2)
