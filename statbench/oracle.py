"""Correctness checks against an independent oracle, outside the timed loop.

- Single-client workloads are replayed statement by statement into the
  standard library's ``sqlite3``, loaded with the same rows and indexes.
  Each read must return the same multiset of rows, and the same sequence
  of ORDER BY key values; each write must report the same row count; the
  final contents of every table must match.
- The counter and checksum gate compares the replicas of one run, which
  are separate databases given the same seed: every statement's
  cost-counter delta and result checksum must agree exactly.
- ``serving-mixed`` has no serial order to replay, so it is checked by
  invariants: the balance sum equals the acknowledged increments, the
  row count matches the acknowledged inserts, every read sees a balance
  its snapshot allows, ``verify_storage`` is clean, and re-opening the
  file yields the same logical dump.
"""

from __future__ import annotations

import sqlite3
from collections import Counter

from repro.analysis.storage_check import verify_storage
from repro.database import Database

from .harness import Pass, Record, order_digest, rows_digest
from .workloads import Table, Workload


def load_sqlite(workload: Workload) -> sqlite3.Connection:
    """An in-memory sqlite3 database holding the workload's initial rows."""
    conn = sqlite3.connect(":memory:")
    for table in workload.tables:
        conn.execute(table.create_sql())
        if table.rows:
            marks = ", ".join("?" for __ in table.columns)
            conn.executemany(f"INSERT INTO {table.name} VALUES ({marks})", table.rows)
        for ddl in table.indexes:
            conn.execute(ddl)
    conn.commit()
    return conn


def compare(record: Record, rows: list[tuple] | None, rowcount: int) -> str | None:
    """Why ``record`` disagrees with the oracle's outcome, or None."""
    stmt = record.stmt
    if not record.ok:
        return f"raised {record.error}"
    if stmt.kind == "write":
        if record.affected != rowcount:
            return f"affected {record.affected} rows, oracle {rowcount}"
        return None
    if record.rows_digest != rows_digest(rows):
        return f"{record.affected} rows differ from the oracle's {len(rows)}"
    if stmt.order_keys and record.order_digest != order_digest(rows, stmt.order_keys):
        return "ORDER BY keys out of order"
    return None


def dump(db: Database, tables: list[Table]) -> dict[str, list[tuple]]:
    """Every table's rows, sorted, read through the program's own SELECT."""
    return {
        table.name: sorted(
            tuple(row) for row in db.execute(f"SELECT * FROM {table.name}").rows
        )
        for table in tables
    }


def check_against_sqlite(
    workload: Workload, run: Pass, final: dict[str, list[tuple]]
) -> list[tuple[int | None, str]]:
    """Replay the single-client stream into sqlite3; list every mismatch.

    Each mismatch is ``(statement index, reason)``; a table whose final
    contents differ from ``final`` has index None.
    """
    conn = load_sqlite(workload)
    mismatches = []
    try:
        for record in run.records:
            cursor = conn.execute(record.stmt.sql)
            rows = cursor.fetchall() if record.stmt.kind == "read" else None
            reason = compare(record, rows, cursor.rowcount)
            if reason is not None:
                mismatches.append(
                    (record.index, f"#{record.index} {record.stmt.template}: {reason}")
                )
        for table in workload.tables:
            theirs = sorted(conn.execute(f"SELECT * FROM {table.name}").fetchall())
            if final[table.name] != theirs:
                mismatches.append((None, f"final contents of {table.name} differ"))
    finally:
        conn.close()
    return mismatches


def gate(first: Pass, second: Pass) -> list[tuple[int | None, str]]:
    """Statements whose counters or result checksum differ between replicas.

    Same shape as :func:`check_against_sqlite`'s mismatches.
    """
    if len(first.records) != len(second.records):
        return [(None, f"{len(first.records)} vs {len(second.records)} statements")]
    return [
        (
            a.index,
            f"#{a.index} {a.stmt.template}: counters {a.counters} vs "
            f"{b.counters}, checksum {a.checksum} vs {b.checksum}",
        )
        for a, b in zip(first.records, second.records)
        if a.counters != b.counters or a.checksum != b.checksum
    ]


def check_serving(
    workload: Workload, run: Pass, db: Database, path: str
) -> tuple[list[str], set[tuple[int, int]], dict[str, list[tuple]]]:
    """Invariants of a concurrent ``serving-mixed`` pass.

    Returns the violations, the (client, index) of every read that saw an
    impossible balance, and the logical dump taken before the database
    was closed.  Closes ``db``; re-opens ``path`` to check durability.
    """
    (accounts,) = workload.tables
    initial = {row[0]: row[2] for row in accounts.rows}
    issued: Counter = Counter()
    increments = inserts = 0
    for record in run.records:
        if record.stmt.template == "increment":
            issued[record.stmt.key] += 1
            if record.ok:
                increments += record.affected
        elif record.stmt.template == "insert" and record.ok:
            inserts += record.affected
    bad_reads = set()
    for record in run.records:
        if record.stmt.kind != "read" or not record.ok:
            continue
        key = record.stmt.key
        if record.affected != 1 or not (
            initial[key] <= record.first_row[2] <= initial[key] + issued[key]
        ):
            bad_reads.add((record.client, record.index))
    violations = []
    if bad_reads:
        violations.append(f"{len(bad_reads)} reads saw a balance no snapshot allows")
    total = db.execute("SELECT SUM(BAL), COUNT(*) FROM ACCOUNTS").rows[0]
    if total[0] != sum(initial.values()) + increments:
        violations.append(
            f"SUM(BAL) is {total[0]}, expected "
            f"{sum(initial.values())} + {increments} acknowledged increments"
        )
    if total[1] != len(initial) + inserts:
        violations.append(
            f"{total[1]} rows, expected {len(initial)} + {inserts} inserts"
        )
    violations += [f"storage: {v}" for v in verify_storage(db)]
    before = dump(db, workload.tables)
    db.close()
    reopened = Database(path=path)
    try:
        if dump(reopened, workload.tables) != before:
            violations.append("re-opened database differs from the acknowledged state")
        violations += [f"storage after re-open: {v}" for v in verify_storage(reopened)]
    finally:
        reopened.close()
    return violations, bad_reads, before
