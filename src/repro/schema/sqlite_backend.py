"""SQLite materialization and execution.

The paper's evaluation executes SQL against the Spider SQLite databases;
this module does the same for our synthetic databases via the standard
library ``sqlite3``.  Executors cache connections per database and guard
against runaway queries twice over: a row cap bounds result size, and a
progress-handler statement timeout interrupts queries (hallucinated
cross joins, most often) that would otherwise stall an evaluation run
indefinitely.  The per-(database, SQL) result cache is LRU-bounded with
hit/miss counters so long benchmark runs hold steady memory.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Optional

from repro.obs import runtime as obs
from repro.schema.errorinfo import (
    ErrorInfo,
    normalize_sqlite_error,
    row_cap_info,
    timeout_info,
    unknown_database_info,
)
from repro.schema.model import Database

_SQL_TYPE = {"text": "TEXT", "integer": "INTEGER", "real": "REAL"}


@dataclass
class ExecutionResult:
    """Outcome of executing one SQL query.

    ``rows`` is None when execution failed; ``error`` carries the DBMS
    message in that case, ``info`` its normalized classification
    (:class:`~repro.schema.errorinfo.ErrorInfo`), and ``timed_out``
    marks statement-timeout interrupts specifically.
    """

    rows: Optional[list[tuple]] = None
    error: Optional[str] = None
    columns: list[str] = field(default_factory=list)
    timed_out: bool = False
    info: Optional[ErrorInfo] = None

    @property
    def ok(self) -> bool:
        """True when execution succeeded."""
        return self.error is None

    def sorted_rows(self) -> list[tuple]:
        """Rows under a deterministic total order (for unordered compare)."""
        assert self.rows is not None
        return sorted(self.rows, key=_row_sort_key)


def _row_sort_key(row: tuple):
    return tuple(
        (value is None, str(type(value).__name__), str(value)) for value in row
    )


def create_sqlite(database: Database, path: str = ":memory:") -> sqlite3.Connection:
    """Materialize a :class:`Database` into a SQLite connection.

    The connection is created with ``check_same_thread=False`` so an
    executor's internal lock — not sqlite3's import-thread check — is
    what serializes cross-thread use.  It keeps no prepared-statement
    cache: :class:`SQLiteExecutor` caches results by SQL text, so a
    statement reaches SQLite once while its result is cached, and each
    cached statement would only hold a few KiB of memory per query.
    """
    conn = sqlite3.connect(path, check_same_thread=False, cached_statements=0)
    conn.execute("PRAGMA foreign_keys = OFF")
    for table in database.schema.tables:
        cols = []
        for col in table.columns:
            decl = f'"{col.name}" {_SQL_TYPE.get(col.col_type, "TEXT")}'
            if table.primary_key and col.key == table.primary_key.lower():
                decl += " PRIMARY KEY"
            cols.append(decl)
        conn.execute(f'CREATE TABLE "{table.name}" ({", ".join(cols)})')
        rows = database.table_rows(table.name)
        if rows:
            placeholders = ", ".join("?" for _ in table.columns)
            conn.executemany(
                f'INSERT INTO "{table.name}" VALUES ({placeholders})', rows
            )
    conn.commit()
    return conn


@dataclass
class CacheInfo:
    """Hit/miss counters and occupancy of the result cache."""

    hits: int = 0
    misses: int = 0
    size: int = 0
    capacity: int = 0


@dataclass(frozen=True)
class ExecutorStats:
    """A consistent snapshot of an executor's counters.

    ``executed`` counts statements that actually ran against SQLite
    (cache misses); ``timeouts`` counts statement-timeout interrupts
    among them.  The cache fields mirror :class:`CacheInfo`.
    """

    executed: int = 0
    timeouts: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_size: int = 0
    cache_capacity: int = 0
    databases: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Hits over lookups (0.0 before the first lookup)."""
        lookups = self.cache_hits + self.cache_misses
        return self.cache_hits / lookups if lookups else 0.0


class SQLiteExecutor:
    """Executes SQL against materialized databases with connection caching.

    One executor instance is shared across an evaluation run; databases
    are materialized lazily and kept in memory.  ``statement_timeout``
    (seconds, None disables) interrupts long-running statements via a
    SQLite progress handler; ``cache_size`` bounds the LRU result cache.

    The instance is thread-safe: an internal lock serializes connection
    creation, statement execution, and LRU cache mutation, so one
    executor can back concurrently-translating workers (the parallel
    harness additionally gives each worker its own instance to avoid
    serializing the scoring hot path).  Counters are read consistently
    through :meth:`stats`.
    """

    #: VM instructions between progress-handler timeout checks.
    PROGRESS_OPS = 2_000

    def __init__(
        self,
        max_rows: int = 10_000,
        statement_timeout: Optional[float] = 10.0,
        cache_size: int = 4_096,
    ):
        self.max_rows = max_rows
        self.statement_timeout = statement_timeout
        self.cache_size = cache_size
        self._connections: dict[str, sqlite3.Connection] = {}
        self._cache: OrderedDict[tuple[str, str], ExecutionResult] = OrderedDict()
        self._lock = threading.RLock()
        self.cache_hits = 0
        self.cache_misses = 0
        self.executed = 0
        self.timeouts = 0

    def register(self, database: Database, key: Optional[str] = None) -> str:
        """Materialize a database and return its registry key."""
        key = key or database.db_id
        with self._lock:
            if key not in self._connections:
                self._connections[key] = create_sqlite(database)
        return key

    def has(self, key: str) -> bool:
        """Whether a database is registered under this key."""
        with self._lock:
            return key in self._connections

    def execute(self, key: str, sql: str) -> ExecutionResult:
        """Execute SQL against a registered database (LRU-cached)."""
        cache_key = (key, sql)
        with self._lock:
            cached = self._cache.get(cache_key)
            if cached is not None:
                self.cache_hits += 1
                self._cache.move_to_end(cache_key)
                obs.count("executor.cache_hits")
                return cached
            self.cache_misses += 1
            self.executed += 1
            obs.count("executor.cache_misses")
            obs.count("executor.statements")
            conn = self._connections.get(key)
            if conn is None:
                info = unknown_database_info(key)
                result = ExecutionResult(error=info.message, info=info)
            else:
                with obs.span("sql.execute", db=key):
                    result = self._run(conn, sql)
            if result.timed_out:
                self.timeouts += 1
                obs.count("executor.timeouts")
                obs.event(
                    "executor.timeout",
                    level="warning",
                    db=key,
                    timeout_s=self.statement_timeout,
                )
            self._cache[cache_key] = result
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
            return result

    def stats(self) -> ExecutorStats:
        """A consistent snapshot of execution and cache counters."""
        with self._lock:
            return ExecutorStats(
                executed=self.executed,
                timeouts=self.timeouts,
                cache_hits=self.cache_hits,
                cache_misses=self.cache_misses,
                cache_size=len(self._cache),
                cache_capacity=self.cache_size,
                databases=len(self._connections),
            )

    def cache_info(self) -> CacheInfo:
        """Current hit/miss counters and cache occupancy.

        Kept for pre-:meth:`stats` callers; new code should prefer the
        fuller :meth:`stats` snapshot.
        """
        snapshot = self.stats()
        return CacheInfo(
            hits=snapshot.cache_hits,
            misses=snapshot.cache_misses,
            size=snapshot.cache_size,
            capacity=snapshot.cache_capacity,
        )

    def _run(self, conn: sqlite3.Connection, sql: str) -> ExecutionResult:
        deadline = None
        if self.statement_timeout is not None:
            deadline = time.monotonic() + self.statement_timeout
            conn.set_progress_handler(
                lambda: 1 if time.monotonic() > deadline else 0,
                self.PROGRESS_OPS,
            )
        try:
            cursor = conn.execute(sql)
            rows = cursor.fetchmany(self.max_rows + 1)
            if len(rows) > self.max_rows:
                info = row_cap_info(self.max_rows)
                return ExecutionResult(
                    error="result exceeds row cap", info=info
                )
            columns = (
                [d[0] for d in cursor.description] if cursor.description else []
            )
            return ExecutionResult(rows=[tuple(r) for r in rows], columns=columns)
        except sqlite3.Error as exc:
            info = normalize_sqlite_error(exc)
            if deadline is not None and info.code == "interrupted":
                info = timeout_info(self.statement_timeout)
                return ExecutionResult(
                    error=info.message, timed_out=True, info=info
                )
            return ExecutionResult(error=info.message, info=info)
        finally:
            if deadline is not None:
                conn.set_progress_handler(None, 0)

    def close(self) -> None:
        """Release the underlying SQLite resources."""
        with self._lock:
            for conn in self._connections.values():
                conn.close()
            self._connections.clear()
            self._cache.clear()

    def __enter__(self) -> "SQLiteExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
