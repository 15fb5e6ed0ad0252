"""Set-up, timed passes and the in-memory span tracer.

A run sets the workload up on several identical databases, the
*replicas*, one after another, and runs the same statement sequence on
each.  Every replica does exactly the same work from the same state, so
a statement's fastest time over the untraced replicas is its cost with as
little interference from the rest of the host as the run saw: the
replicas run seconds apart, so a busy spell of the host seldom covers a
statement on all of them.

Two kinds of pass run a workload's statement streams against a replica:

- **untraced** calls the public entry points (``Database.execute`` for a
  single client, ``Session.execute`` per serving client) and times each
  statement from outside;
- **traced** makes the same calls layer by layer, recording a span around
  each one.  For reads it mirrors ``Database.execute_statement`` (and, for
  sessions, ``Session.execute_statement``) with ``parse_statement``,
  ``Binder.bind``, ``Optimizer.plan_block`` and ``Executor.execute``;
  writes are one span around the write path through the group-commit
  coordinator.

Results are kept as digests, not rows, so the benchmark's own bookkeeping
stays small beside the database.  Spans live in memory and are written
out when the run ends.  Nothing here changes the program under test;
every number is taken around its calls.
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

from repro.database import Database
from repro.engine.executor import Executor
from repro.errors import DatabaseBusyError, ReproError
from repro.optimizer.binder import Binder
from repro.serving.session import SnapshotStorage
from repro.sql import ast, parse_statement
from repro.workloads.empdept import load_rows

from .workloads import Stmt, Workload


@dataclass
class Setup:
    """What creating, loading and indexing one database took, in seconds."""

    #: Create + load + index + UPDATE STATISTICS.
    setup_s: float
    #: Bulk load plus index build (``repro.workloads`` loader, CREATE INDEX).
    load_s: float
    #: The closing UPDATE STATISTICS.
    stats_s: float


def set_up(workload: Workload, path: str | None = None) -> tuple[Database, Setup]:
    """Create the workload's tables, load rows, build indexes, collect stats."""
    start = perf_counter()
    db = Database(path=path)
    for table in workload.tables:
        db.execute(table.create_sql())
    load_start = perf_counter()
    with db.storage.atomic():
        for table in workload.tables:
            load_rows(db, table.name, table.rows)
    for table in workload.tables:
        for ddl in table.indexes:
            db.execute(ddl)
    stats_start = perf_counter()
    db.execute("UPDATE STATISTICS")
    end = perf_counter()
    return db, Setup(end - start, stats_start - load_start, end - stats_start)


def _digest(value: object) -> str:
    return hashlib.blake2b(repr(value).encode(), digest_size=8).hexdigest()


def canonical(value: object) -> object:
    """A value as the oracle compares it: integral floats become ints."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


def rows_digest(rows) -> str:
    """Digest of a result's rows as a multiset (order ignored)."""
    counted = Counter(tuple(canonical(v) for v in row) for row in rows)
    return _digest(sorted(counted.items(), key=repr))


def order_digest(rows, positions: tuple[int, ...]) -> str:
    """Digest of the sequence of ORDER BY key values, in returned order."""
    return _digest([tuple(canonical(row[p]) for p in positions) for row in rows])


@dataclass
class Record:
    """The outcome of one statement on one replica."""

    client: int
    index: int
    stmt: Stmt
    latency: float = 0.0
    affected: int = 0
    error: str | None = None
    busy: bool = False
    #: Digest of the result rows in returned order, the row count and the
    #: error: what the counter and checksum gate compares.
    checksum: str = ""
    #: Multiset digest of a read's rows, and of its ORDER BY key sequence.
    rows_digest: str = ""
    order_digest: str = ""
    #: A read's first row, kept for the serving balance check.
    first_row: tuple | None = None
    #: (page fetches, RSI calls, buffer hits) during the statement; only
    #: meaningful with one client, where nothing else moves the counters.
    counters: tuple[int, int, int] | None = None
    commit_version: int | None = None
    #: Join-search plans considered for a read (traced replicas only).
    plans: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None

    def keep(self, rows: list) -> None:
        """Digest a read's rows; keep only what the checks need."""
        self.affected = len(rows)
        self.rows_digest = rows_digest(rows)
        if self.stmt.order_keys:
            self.order_digest = order_digest(rows, self.stmt.order_keys)
        self.first_row = tuple(rows[0]) if rows else None
        self.checksum = _digest((rows, self.affected, None))


class Tracer:
    """Spans for one client: ``[name, start, end, parent, statement]``.

    ``parent`` is the index of the enclosing span in :attr:`spans`, or -1
    for a statement's top-level spans.  A span whose call raised keeps
    ``end == 0.0`` and is left out of every total.
    """

    def __init__(self, client: int = 0):
        self.client = client
        self.spans: list[list] = []

    def open(self, name: str, statement: int, parent: int = -1) -> int:
        self.spans.append([name, perf_counter(), 0.0, parent, statement])
        return len(self.spans) - 1

    def close(self, span: int) -> None:
        self.spans[span][2] = perf_counter()


@dataclass
class Pass:
    """Every record of one pass over a replica, with its counter totals."""

    traced: bool
    records: list[Record]
    tracers: list[Tracer]
    #: Counter totals over the whole pass (page fetches, RSI, buffer hits).
    counters: tuple[int, int, int]

    @property
    def busy_s(self) -> float:
        """Seconds spent inside statements, summed over clients."""
        return sum(record.latency for record in self.records)


def _plans_considered(planned) -> int:
    stats = planned.search_stats
    count = stats.plans_considered if stats is not None else 0
    return count + sum(
        _plans_considered(sub) for sub in planned.subquery_plans.values()
    )


def _run_traced(db: Database, statement, tracer: Tracer, number: int, session):
    """One statement, layer by layer; returns (result, plans considered)."""
    if not isinstance(statement, ast.SelectQuery):
        span = tracer.open("serving.write", number)
        if session is None:
            result = db.execute_statement(statement)
        else:
            result = session.execute_statement(statement)
        tracer.close(span)
        return result, 0
    root = tracer.open("serving.read", number)
    if session is None:
        result, plans = _traced_read(db, statement, tracer, number, root, None)
    else:
        # Mirrors Session._read: shared schema latch, pinned snapshot.
        with db.ddl_latch.shared():
            version, meta = db.storage.pin_snapshot()
            try:
                storage = SnapshotStorage(db.storage, version, meta)
                result, plans = _traced_read(
                    db, statement, tracer, number, root, storage
                )
            finally:
                db.storage.unpin(version)
    tracer.close(root)
    return result, plans


def _traced_read(db, statement, tracer, number, root, storage):
    span = tracer.open("optimizer.bind", number, root)
    block = Binder(db.catalog).bind(statement)
    tracer.close(span)
    optimizer = db.optimizer()
    span = tracer.open("optimizer.plan", number, root)
    planned = optimizer.plan_block(block)
    tracer.close(span)
    if storage is None:
        executor = db.executor()
    else:
        executor = Executor(
            storage,
            db.catalog,
            db.subquery_cache_mode,
            exec_mode=db.exec_mode,
            workers=db.workers,
        )
    span = tracer.open("engine.exec", number, root)
    result = executor.execute(planned)
    tracer.close(span)
    return result, _plans_considered(planned)


def run_statement(
    db: Database,
    stmt: Stmt,
    client: int,
    index: int,
    tracer: Tracer | None,
    session,
) -> Record:
    """Time one statement; digest its outcome outside the timed region."""
    # Sessions share the counters, so per-statement deltas only mean
    # something for the single client that runs without one.
    before = db.counters.snapshot() if session is None else None
    record = Record(client, index, stmt)
    start = perf_counter()
    try:
        if tracer is not None:
            number = client * 1_000_000 + index
            span = tracer.open("sql.parse", number)
            statement = parse_statement(stmt.sql)
            tracer.close(span)
            result, record.plans = _run_traced(db, statement, tracer, number, session)
        elif session is None:
            result = db.execute(stmt.sql)
        else:
            result = session.execute(stmt.sql)
    except DatabaseBusyError as error:
        record.latency = perf_counter() - start
        record.error, record.busy = repr(error), True
    except ReproError as error:
        record.latency = perf_counter() - start
        record.error = repr(error)
    else:
        record.latency = perf_counter() - start
        if stmt.kind == "read":
            # A traced read returns the executor's QueryResult, whose row
            # count is what StatementResult reports as affected.
            record.keep(list(result.rows))
        else:
            record.affected = result.affected_rows
            record.commit_version = result.commit_version
    if not record.ok or stmt.kind == "write":
        record.checksum = _digest((None, record.affected, record.error))
    if before is not None:
        delta = before.delta(db.counters)
        record.counters = (delta.page_fetches, delta.rsi_calls, delta.buffer_hits)
    return record


def run_pass(db: Database, workload: Workload, traced: bool) -> Pass:
    """Run every stream to completion, one closed-loop client per stream."""
    before = db.counters.snapshot()
    tracers = [Tracer(client) if traced else None for client in range(workload.clients)]
    if workload.clients == 1:
        stream = workload.streams[0]
        records = [
            run_statement(db, stmt, 0, index, tracers[0], None)
            for index, stmt in enumerate(stream)
        ]
    else:
        records = _run_clients(db, workload, tracers)
    delta = before.delta(db.counters)
    return Pass(
        traced,
        records,
        [tracer for tracer in tracers if tracer is not None],
        (delta.page_fetches, delta.rsi_calls, delta.buffer_hits),
    )


def _run_clients(db: Database, workload: Workload, tracers) -> list[Record]:
    results: list[list[Record]] = [[] for __ in range(workload.clients)]
    failures: list[BaseException] = []
    sessions = [db.session(f"client-{client}") for client in range(workload.clients)]
    gate = threading.Barrier(workload.clients)

    def client_main(client: int) -> None:
        try:
            gate.wait()
            results[client] = [
                run_statement(
                    db, stmt, client, index, tracers[client], sessions[client]
                )
                for index, stmt in enumerate(workload.streams[client])
            ]
        except BaseException as error:  # re-raised by the driving thread
            failures.append(error)

    threads = [
        threading.Thread(target=client_main, args=(client,), name=f"client-{client}")
        for client in range(workload.clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for session in sessions:
        session.close()
    if failures:
        raise failures[0]
    return [record for stream in results for record in stream]


def warm_up(db: Database, workload: Workload, statements: int = 40) -> None:
    """Run a prefix of the first stream so lazy set-up happens untimed."""
    for stmt in workload.streams[0][:statements]:
        db.execute(stmt.sql)
