"""One benchmark run of one workload: set-up, replicas, checks and metrics.

A run does this:

1. set a small copy of the workload up to warm the interpreter up, run a
   few of its statements and drop that database;
2. set it up again on :data:`UNTRACED` replicas, plus one traced replica
   with ``--trace 1``, one after another, and run the statement sequence
   on each (see :mod:`statbench.harness`); ``setup_s`` is the median of
   these set-ups, and only one replica is alive at a time;
3. check every outcome outside the timed regions: the replicas must agree
   statement by statement (the counter and checksum gate), replica 0 must
   agree with a sqlite3 replay, and ``serving-mixed`` replicas must keep
   their invariants.  A refused statement is a failure too: no workload
   here should see one.

End-to-end metrics take each statement's latency as its fastest over the
untraced replicas.  Per-layer times come from the traced replica's spans;
per-layer counts from replica 0.
"""

from __future__ import annotations

import gc
import os
import statistics
from collections import Counter
from dataclasses import dataclass, field, replace
from time import perf_counter

from repro.optimizer.cost import DEFAULT_W
from repro.rss.page import PAGE_SIZE

from . import oracle
from .harness import Pass, Record, Setup, Tracer, run_pass, set_up, warm_up
from .workloads import Workload

#: Candidate tail percentiles, highest first.  A timing's tail is the
#: highest one with at least ten samples beyond it, else the maximum.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)

#: Untraced replicas per run; each statement's latency is its fastest.
UNTRACED = 6

#: Rows per table in the throw-away database that warms the code up.
WARM_ROWS = 500

#: Iterations of the fixed pure-Python loop that probes the host's speed.
PROBE_LOOP = 100_000


@dataclass
class Timing:
    """Median and tail of one latency sample, in milliseconds."""

    samples: int
    p50_ms: float
    tail_ms: float
    #: The percentile ``tail_ms`` is; 100 means the maximum.
    tail_pct: int


def percentile(ordered: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks of a sorted sample."""
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * pct / 100
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def timing(latencies: list[float]) -> Timing:
    ordered = sorted(latencies)
    count = len(ordered)
    tail_pct = next(
        (pct for pct in TAIL_PERCENTILES if count * (100 - pct) / 100 >= 10), 100
    )
    return Timing(
        count,
        percentile(ordered, 50) * 1000,
        percentile(ordered, tail_pct) * 1000,
        tail_pct,
    )


def self_times(tracers: list[Tracer]) -> tuple[Counter, Counter]:
    """Per span name: total self time and total duration, in seconds.

    A span's self time is its duration minus the durations of the spans
    whose parent it is.
    """
    own: Counter = Counter()
    whole: Counter = Counter()
    for tracer in tracers:
        children = [0.0] * len(tracer.spans)
        for __, start, end, parent, __ in tracer.spans:
            if end and parent >= 0:
                children[parent] += end - start
        for span, (name, start, end, __, __) in enumerate(tracer.spans):
            if end:
                whole[name] += end - start
                own[name] += end - start - children[span]
    return own, whole


def host_probe_ms() -> float:
    """Median of five timings of a fixed pure-Python loop, in ms.

    Printed beside the metrics so a reader can tell a slow spell of the
    host from a slow program; no metric is adjusted by it.
    """
    times = []
    for __ in range(5):
        start = perf_counter()
        total = 0
        for number in range(PROBE_LOOP):
            total += number % 7
        times.append(perf_counter() - start)
    return statistics.median(times) * 1000


def current_rss_mb() -> float:
    """Resident memory of this process now, from Linux's procfs."""
    with open("/proc/self/statm", encoding="ascii") as statm:
        resident = int(statm.read().split()[1])
    return resident * os.sysconf("SC_PAGE_SIZE") / (1024 * 1024)


def user_bytes(tables: dict[str, list[tuple]]) -> int:
    """Bytes of user data: 8 per number, the UTF-8 length of each string."""
    return sum(
        len(value.encode()) if isinstance(value, str) else 8
        for rows in tables.values()
        for row in rows
        for value in row
    )


@dataclass
class Result:
    workload: Workload
    #: One pass per replica: the untraced ones, then the traced one if any.
    passes: list[Pass]
    setups: list[Setup]
    data_pages: int
    buffer_pages: int
    #: Resident memory when replica 0's pass ended, above the level before
    #: the first set-up: one database, loaded and run, and its records.
    max_rss_mb: float
    space_amp: float
    #: :func:`host_probe_ms` before each replica's pass.
    probes_ms: list[float]
    #: Oracle, gate and invariant failures; any entry makes the run wrong.
    problems: list[str] = field(default_factory=list)
    #: Statements that failed, were refused or were wrong on any replica.
    failed: int = 0

    @property
    def attempted(self) -> int:
        return len(self.passes[0].records)


def _data_pages(db, workload: Workload) -> int:
    return sum(
        len(db.storage.segment(db.catalog.table(table.name).segment_name).page_ids)
        for table in workload.tables
    )


def _file_bytes(path: str) -> int:
    """Bytes of a durable database: its frame file plus its page table."""
    directory, name = os.path.split(path)
    return sum(
        os.path.getsize(os.path.join(directory, entry))
        for entry in os.listdir(directory)
        if entry.startswith(name)
    )


def run(workload: Workload, workdir: str, traced: bool) -> Result:
    """Set up, run every replica and check every outcome."""
    durable = workload.durable
    kinds = [False] * UNTRACED + ([True] if traced else [])

    def path(name: str) -> str | None:
        if not durable:
            return None
        return os.path.join(workdir, f"{workload.name}-{name}.pages")

    gc.collect()
    baseline_mb = current_rss_mb()
    # A small copy of the data is enough to warm the code paths up.
    small = replace(
        workload,
        tables=[replace(t, rows=t.rows[:WARM_ROWS]) for t in workload.tables],
    )
    db, __ = set_up(small, path("warm"))
    warm_up(db, small)
    db.close()
    del db

    passes: list[Pass] = []
    setups: list[Setup] = []
    probes_ms: list[float] = []
    problems: list[str] = []
    failed: set[tuple[int, int]] = set()
    for replica, trace in enumerate(kinds):
        gc.collect()
        db, setup = set_up(workload, path(str(replica)))
        setups.append(setup)
        if replica == 0:
            data_pages = _data_pages(db, workload)
            buffer_pages = db.storage.buffer.capacity
        gc.collect()
        probes_ms.append(host_probe_ms())
        passes.append(run_pass(db, workload, traced=trace))
        if replica == 0:
            gc.collect()
            rss_mb = current_rss_mb() - baseline_mb
        if durable:
            if replica == 0:
                stored_bytes = _file_bytes(path("0"))
            violations, bad_reads, final = oracle.check_serving(
                workload, passes[-1], db, path(str(replica))
            )
            problems += [f"replica {replica}: {v}" for v in violations]
            failed |= bad_reads
        else:
            if replica == 0:
                stored_bytes = len(db.storage.store) * PAGE_SIZE
            final = oracle.dump(db, workload.tables)
            db.close()
        del db
        if replica == 0:
            first_final = final
        elif final != first_final:
            problems.append(f"replica {replica} left different table contents")
        del final

    if not durable:
        found = [
            ("oracle", oracle.check_against_sqlite(workload, passes[0], first_final))
        ]
        found += [
            (f"gate replica {replica}", oracle.gate(passes[0], passes[replica]))
            for replica in range(1, len(passes))
        ]
        for label, mismatches in found:
            problems += [f"{label}: {reason}" for __, reason in mismatches]
            failed.update((0, index) for index, __ in mismatches if index is not None)
    space_amp = stored_bytes / user_bytes(first_final)

    for kind, test in (
        ("raised an error", lambda r: not r.ok and not r.busy),
        ("were refused (DatabaseBusyError)", lambda r: r.busy),
    ):
        bad = {(r.client, r.index) for p in passes for r in p.records if test(r)}
        if bad:
            problems.append(f"{len(bad)} statements {kind}")
            failed |= bad
    return Result(
        workload,
        passes,
        setups,
        data_pages,
        buffer_pages,
        rss_mb,
        space_amp,
        probes_ms,
        problems,
        len(failed),
    )


def best_records(result: Result) -> list[Record]:
    """Each statement's record with the lowest latency over untraced replicas.

    Refused and failed statements keep their latency: that is what the
    client waited.
    """
    untraced = [run.records for run in result.passes if not run.traced]
    return [min(records, key=lambda r: r.latency) for records in zip(*untraced)]


def end_to_end(result: Result) -> dict[str, tuple[float, str]]:
    """User-visible metrics of the untraced replicas: name -> (value, unit).

    ``stmt_per_s`` is statements completed per second of closed-loop
    clients: each client's statements over the time they took, summed
    over clients.
    """
    records = best_records(result)
    reads = timing([r.latency for r in records if r.stmt.kind == "read"])
    writes = timing([r.latency for r in records if r.stmt.kind == "write"])
    busy = Counter()
    for record in records:
        busy[record.client] += record.latency
    statements = Counter(record.client for record in records)
    return {
        "stmt_per_s": (sum(statements[c] / busy[c] for c in statements), "1/s"),
        "read_p50_ms": (reads.p50_ms, "ms"),
        "read_tail_ms": (reads.tail_ms, "ms"),
        "write_p50_ms": (writes.p50_ms, "ms"),
        "write_tail_ms": (writes.tail_ms, "ms"),
        "setup_s": (statistics.median(s.setup_s for s in result.setups), "s"),
        "max_rss_mb": (result.max_rss_mb, "MB"),
        "space_amp": (result.space_amp, "ratio"),
    }


def tail_choices(result: Result) -> dict[str, str]:
    """Which percentile each tail is, and over how many samples."""
    records = best_records(result)
    described = {}
    for kind in ("read", "write"):
        sample = timing([r.latency for r in records if r.stmt.kind == kind])
        pct = "max" if sample.tail_pct == 100 else f"p{sample.tail_pct}"
        described[f"{kind}_tail_ms"] = f"{pct} of {sample.samples} samples"
    return described


def repeat_text_share(records: list[Record]) -> float:
    """Share of statements whose exact text already ran earlier in the pass.

    Clients are interleaved by position.  This is the property a
    statement cache depends on.
    """
    seen: set[str] = set()
    repeats = 0
    for record in sorted(records, key=lambda r: (r.index, r.client)):
        repeats += record.stmt.sql in seen
        seen.add(record.stmt.sql)
    return repeats / len(records)


def workload_properties(result: Result) -> dict[str, tuple[float, str]]:
    """What the replicas actually ran: data size against the pool, mix."""
    records = result.passes[0].records
    reads = sum(record.stmt.kind == "read" for record in records)
    return {
        "data_pages": (result.data_pages, "pages"),
        "buffer_pages": (result.buffer_pages, "pages"),
        "read_share": (reads / len(records), "share"),
        "write_share": (1 - reads / len(records), "share"),
        "repeat_text_share": (repeat_text_share(records), "share"),
    }


def per_layer(result: Result) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a ``--trace 1`` run: name -> (value, unit).

    Times are self times from the traced replica's spans, per statement of
    the kind that reaches the layer (``sql.parse_ms`` per statement, the
    optimizer and engine per read); ``serving.read_ms`` and
    ``serving.write_ms`` are whole dispatch spans, parse excluded.  Counts
    come from replica 0, which needs no tracing to measure them.
    """
    run, traced = result.passes[0], result.passes[-1]
    own, whole = self_times(traced.tracers)
    statements = len(traced.records)
    reads = sum(r.stmt.kind == "read" for r in traced.records)
    writes = statements - reads
    fetches, rsi, hits = run.counters
    rows_read = sum(r.affected for r in run.records if r.stmt.kind == "read")
    versions = [
        r.commit_version for r in run.records if r.ok and r.stmt.kind == "write"
    ]
    # Each statement's median over the untraced replicas, against its
    # traced time.
    untraced_s = sum(
        statistics.median(r.latency for r in records)
        for records in zip(*(p.records for p in result.passes if not p.traced))
    )

    def per(total: float, count: int, scale: float = 1000.0) -> float:
        return total * scale / count if count else 0.0

    return {
        "sql.parse_ms": (per(own["sql.parse"], statements), "ms"),
        "optimizer.bind_ms": (per(own["optimizer.bind"], reads), "ms"),
        "optimizer.plan_ms": (per(own["optimizer.plan"], reads), "ms"),
        "optimizer.plans_considered": (
            per(sum(r.plans for r in traced.records), reads, 1.0),
            "count",
        ),
        "optimizer.repeat_text_share": (repeat_text_share(run.records), "share"),
        "engine.exec_ms": (per(own["engine.exec"], reads), "ms"),
        "engine.rows_per_rsi": (rows_read / rsi if rsi else 0.0, "ratio"),
        "rss.page_fetches": (fetches / len(run.records), "count"),
        "rss.rsi_calls": (rsi / len(run.records), "count"),
        "rss.buffer_hit_ratio": (
            hits / (hits + fetches) if hits + fetches else 0.0,
            "share",
        ),
        "rss.measured_cost": ((fetches + DEFAULT_W * rsi) / len(run.records), "count"),
        "serving.read_ms": (per(whole["serving.read"], reads), "ms"),
        "serving.write_ms": (per(whole["serving.write"], writes), "ms"),
        "serving.batch_size": (
            len(versions) / len(set(versions)) if versions else 0.0,
            "count",
        ),
        "serving.busy_timeouts": (
            sum(r.busy for replica in result.passes for r in replica.records),
            "count",
        ),
        "catalog.stats_s": (statistics.median(s.stats_s for s in result.setups), "s"),
        "workloads.load_s": (statistics.median(s.load_s for s in result.setups), "s"),
        "trace.overhead": (traced.busy_s / untraced_s - 1.0, "share"),
    }
