"""Worker-pool parallel execution of fused scan pipelines.

``REPRO_EXEC=parallel`` runs the PR 5 fused ``Scan→Filter*→Project``
drivers over page-aligned partitions of a segment concurrently: the
segment's page list is snapshotted once per driver call
(:meth:`repro.rss.storage.StorageEngine.scan_snapshot`), split into
contiguous ranges, and each range is handed to a worker that decodes,
SARG-matches, filters, and projects its pages against the *same* compiled
closure programs the serial driver would run.  Nested-loop joins run the
fused engine's own driver, whose bucketed probe needs no workers.

Counter fidelity is the contract that keeps ``repro bench --exec
--compare`` bit-identical to ``fused``:

- **RSI calls** are order-independent sums.  Every worker counts into its
  own private :class:`~repro.rss.counters.CostCounters` and the driving
  thread folds them into the statement's counters with
  :meth:`~repro.rss.counters.CostCounters.merge` as results drain — the
  summation-at-the-gather the concurrency report's ``mergeable-counter``
  class is machine-proven to permit.
- **Page fetches and buffer hits** depend on LRU order, so workers never
  touch the buffer pool: they read frozen pages directly from the page
  store (a plain dict lookup with no counter effects), and the driving
  thread *replays* ``BufferPool.fetch`` in exact serial page order,
  lazily, as batches are pulled downstream.  The fetch/hit trace is
  therefore byte-identical to the serial engine's, including its
  interleaving with any downstream breaker's page traffic.

Row order is preserved by construction: morsels are contiguous page
ranges and the gather concatenates morsel results in submission order,
so every driver emits rows in exactly the serial scan order — no sort is
needed to keep order-dependent plans honest.

Eligibility is strict and failure is silent: a chain whose SARG values,
residuals, filters, or projections contain a subquery, or whose access
path is an index (the B-tree descent *is* the fetch trace), builds no
parallel driver and :mod:`repro.engine.fuse` falls back to the serial
fused driver.  Subqueries still parallelize internally — their own plans
compile their own drivers — while the enclosing chain keeps its exact
per-probe evaluation cadence.

Scheduling and backends live in :mod:`repro.engine.scheduler`: scans
decompose into fixed-size page morsels pulled from the pool's shared
queue by idle workers (work-stealing by construction), and
``REPRO_BACKEND`` selects the thread pool or the fork-based process
pool.  Process workers cannot receive compiled closures, so the scan
drivers ship value-bound SARG specs and either apply the all-columns
``itemgetter`` fast path worker-side or return raw ``(tid, values)``
chunks for the driver's closures at the gather; the probe and sort
exchanges below always pin themselves to the thread backend for the
same reason.  On top of the scheduler the two serial breakers go
parallel: :func:`parallel_aggregate_driver` folds per-morsel partial
aggregates merged at the gather, and :func:`parallel_run_sorter` feeds
per-worker sorted runs into the external sort's k-way merge.
"""

from __future__ import annotations

import heapq
from functools import partial

from ..optimizer.bound import BoundColumn
from ..optimizer.plan import (
    AggregateNode,
    FilterNode,
    HashJoinNode,
    IndexAccess,
    ProjectNode,
    ScanNode,
)
from ..rss.counters import CostCounters
from ..rss.sargs import (
    ConjunctiveSargs,
    SargPredicate,
    Sargs,
)
from ..rss.scan import DEFAULT_BATCH_SIZE, decode_page_rows
from .evaluator import EvalEnv
from .external_sort import _HeapKey, _sorted_run
from .fuse import _collapse, _columns_getter, _combine, _fused_program
from .operators import (
    ExecContext,
    _AggState,
    _build_aggregate,
    _build_filter,
    _build_hash_join,
    _build_project,
    _build_scan,
    _HashJoinProgram,
    _program,
    _ScanProgram,
    build_hash_table,
    compile_sarg_matcher,
)
from .probe import scan_exprs, subquery_free
from .rows import AGGREGATE_ALIAS, OUTPUT_ALIAS, Row
from .scheduler import (
    AggCallSpec,
    AggMorsel,
    ScanMorsel,
    get_backend,
    partition_ranges,
    run_agg_morsel,
    run_scan_morsel,
    scan_ranges,
)

#: Outer rows per probe task for the hash-join probe exchange.
_PROBE_CHUNK = 64

#: Below this workspace size a parallel sorted run is not worth the
#: slice/merge overhead; the run sorts serially (results are identical
#: either way — ``parallel_run_sorter`` is differentially gated).
_SORT_SLICE_MIN_ROWS = 512


# ---------------------------------------------------------------------------
# eligibility
# ---------------------------------------------------------------------------

def _segment_scan_eligible(node: ScanNode, program: _ScanProgram) -> bool:
    """Parallel drivers handle plain segment scans only.

    An index scan's B-tree descent and per-entry data-page fetches *are*
    its cost trace — there is no counter-free way to compute them ahead on
    a worker — so index access paths stay on the serial fused driver.
    """
    if isinstance(node.access, IndexAccess):
        return False
    return not program.low_fns and not program.high_fns


# ---------------------------------------------------------------------------
# partitioned segment scans
# ---------------------------------------------------------------------------


def _scan_partition(
    snapshot, decode, matcher, process, lo: int, hi: int
) -> tuple[CostCounters, list[list]]:
    """One worker task: decode, SARG-match, and process a page range.

    Runs on a worker thread against the read-only snapshot with a private
    :class:`CostCounters`; the buffer pool is never touched here (the
    driving thread replays fetches in serial page order as results
    drain).  Matched rows are chunked exactly as the serial scan's
    page-aligned batches so RSI charges land in identical quanta.
    """
    counters = CostCounters()
    count_rsi = counters.count_rsi_call
    get_page = snapshot.get_page
    page_ids = snapshot.page_ids
    relation_id = snapshot.relation_id
    pages: list[list] = []
    for index in range(lo, hi):
        page_id = page_ids[index]
        rows = decode_page_rows(page_id, get_page(page_id), relation_id, decode)
        if matcher is not None:
            rows = [item for item in rows if matcher(item[1])]
        chunks: list = []
        for start in range(0, len(rows), DEFAULT_BATCH_SIZE):
            chunk = rows[start : start + DEFAULT_BATCH_SIZE]
            count_rsi(len(chunk))
            chunks.append(process(chunk))
        pages.append(chunks)
    return counters, pages


def _value_bound_sargs(
    program: _ScanProgram, ctx: ExecContext, outer: EvalEnv | None
) -> ConjunctiveSargs | None:
    """The scan's SARGs with probe values evaluated, as picklable data.

    Process workers cannot receive the per-open matcher closure, so the
    driver evaluates every value closure once (pure by the subquery-free
    eligibility guarantee) and rebuilds the predicate structure the
    worker recompiles with :func:`~repro.rss.sargs.compile_matcher` —
    the same factories, fast paths, and NULL-rejects-all semantics as
    :func:`~repro.engine.operators.compile_sarg_matcher`.
    """
    if not program.sarg_parts:
        return None
    value_env = ctx.env(Row(), outer)
    parts = []
    for part, spec_part in zip(program.sarg_parts, program.sarg_specs):
        groups = []
        for group, spec_group in zip(part, spec_part):
            groups.append(
                [
                    SargPredicate(position, op, value_fn(value_env))
                    for (__, value_fn), (position, op) in zip(
                        group, spec_group
                    )
                ]
            )
        parts.append(Sargs(groups))
    return ConjunctiveSargs(parts)


def _column_positions(exprs, alias: str) -> tuple[int, ...] | None:
    """Output column positions when every projection is a plain column of
    ``alias`` — the positional mirror of ``fuse._columns_getter``, shipped
    to process workers instead of the getter closure."""
    positions = []
    for expr in exprs:
        if type(expr) is not BoundColumn or expr.alias != alias:
            return None
        positions.append(expr.position)
    if not positions:
        return None
    return tuple(positions)


def _partitioned_driver(
    scan_node: ScanNode,
    program: _ScanProgram,
    make_process,
    out_positions: tuple[int, ...] | None = None,
):
    """The generic gather: fan page morsels out, replay counters in order.

    ``make_process`` builds one per-task closure (with its own mutable
    environment) mapping a SARG-matched chunk to its output batch.  On
    the process backend closures cannot cross into workers, so morsels
    either carry ``out_positions`` (the all-columns fast path, applied
    worker-side) or return raw chunks that the driving thread maps
    through a single ``make_process`` closure at the gather — the same
    deterministic per-row function either way.
    """
    decode = program.decode_plan.decode
    table = scan_node.table
    alias = scan_node.alias

    def driver(ctx: ExecContext, outer: EvalEnv | None):
        snapshot = ctx.storage.scan_snapshot(table)
        page_ids = snapshot.page_ids
        if not page_ids:
            return
        backend = get_backend(ctx.workers, ctx.backend)
        ranges = scan_ranges(len(page_ids), backend.workers)
        post = None
        if backend.kind == "process":
            sargs = _value_bound_sargs(program, ctx, outer)
            datatypes = tuple(ctx.schemas[alias])
            tasks = [
                partial(
                    run_scan_morsel,
                    ScanMorsel(
                        pages=snapshot.freeze_range(lo, hi),
                        relation_id=snapshot.relation_id,
                        datatypes=datatypes,
                        sargs=sargs,
                        out_positions=out_positions,
                    ),
                )
                for lo, hi in ranges
            ]
            if out_positions is None:
                post = make_process(ctx, outer)
        else:
            value_env = ctx.env(Row(), outer)
            matcher = compile_sarg_matcher(program, value_env)
            tasks = [
                (
                    lambda lo=lo, hi=hi: _scan_partition(
                        snapshot, decode, matcher, make_process(ctx, outer), lo, hi
                    )
                )
                for lo, hi in ranges
            ]
        fetch = ctx.storage.buffer.fetch
        merge = ctx.storage.counters.merge
        index = 0
        for counters, pages in backend.imap(tasks):
            merge(counters)
            for chunks in pages:
                fetch(page_ids[index])
                index += 1
                for out in chunks:
                    if post is not None:
                        out = post(out)
                    if out:
                        yield out

    return driver


def parallel_chain_driver(
    scan_node: ScanNode,
    filters: list[FilterNode],
    project: ProjectNode | None,
    ctx: ExecContext,
):
    """A partitioned ``Scan→Filter*→Project?`` driver, or ``None``.

    Mirrors the four serial flavors of ``fuse._scan_chain_driver`` —
    same closures, same ``Row`` shapes, same charge points — with the
    per-tuple work moved onto workers.
    """
    program: _ScanProgram = _program(scan_node, ctx, _build_scan)
    if not _segment_scan_eligible(scan_node, program):
        return None
    filter_exprs = [pred for f in filters for pred in f.predicates]
    project_exprs = [] if project is None else list(project.exprs)
    if not subquery_free(scan_exprs(scan_node) + filter_exprs + project_exprs):
        return None
    alias = scan_node.alias
    preds = [program.residual]
    preds.extend(_program(f, ctx, _build_filter) for f in filters)
    test = _combine(preds)
    fns = None if project is None else _program(project, ctx, _build_project)

    if test is None and fns is None:

        def make_rows(ctx: ExecContext, outer: EvalEnv | None):
            def process(chunk):
                return [
                    Row(values={alias: values}, tids={alias: tid})
                    for tid, values in chunk
                ]

            return process

        return _partitioned_driver(scan_node, program, make_rows)

    if fns is None:

        def make_filter(ctx: ExecContext, outer: EvalEnv | None):
            env = ctx.env(Row(), outer)

            def process(chunk):
                out = []
                append = out.append
                for tid, values in chunk:
                    row = Row(values={alias: values}, tids={alias: tid})
                    env.row = row
                    if test(env):
                        append(row)
                return out

            return process

        return _partitioned_driver(scan_node, program, make_filter)

    if test is None:

        def make_project(ctx: ExecContext, outer: EvalEnv | None):
            env = ctx.env(Row(), outer)

            def process(chunk):
                out = []
                append = out.append
                for tid, values in chunk:
                    tids = {alias: tid}
                    env.row = Row(values={alias: values}, tids=tids)
                    append(
                        Row(
                            values={
                                alias: values,
                                OUTPUT_ALIAS: tuple([fn(env) for fn in fns]),
                            },
                            tids=tids,
                        )
                    )
                return out

            return process

        return _partitioned_driver(scan_node, program, make_project)

    def make_chain(ctx: ExecContext, outer: EvalEnv | None):
        env = ctx.env(Row(), outer)

        def process(chunk):
            out = []
            append = out.append
            for tid, values in chunk:
                tids = {alias: tid}
                env.row = Row(values={alias: values}, tids=tids)
                if test(env):
                    append(
                        Row(
                            values={
                                alias: values,
                                OUTPUT_ALIAS: tuple([fn(env) for fn in fns]),
                            },
                            tids=tids,
                        )
                    )
            return out

        return process

    return _partitioned_driver(scan_node, program, make_chain)


def parallel_output_driver(
    scan_node: ScanNode,
    filters: list[FilterNode],
    project: ProjectNode,
    ctx: ExecContext,
):
    """A partitioned chain emitting bare output tuples, or ``None``.

    The output-tuple counterpart of :func:`parallel_chain_driver`,
    mirroring ``fuse._scan_output_driver`` including its all-columns
    ``itemgetter`` fast path.
    """
    program: _ScanProgram = _program(scan_node, ctx, _build_scan)
    if not _segment_scan_eligible(scan_node, program):
        return None
    filter_exprs = [pred for f in filters for pred in f.predicates]
    if not subquery_free(
        scan_exprs(scan_node) + filter_exprs + list(project.exprs)
    ):
        return None
    alias = scan_node.alias
    preds = [program.residual]
    preds.extend(_program(f, ctx, _build_filter) for f in filters)
    test = _combine(preds)
    fns = _program(project, ctx, _build_project)
    fast = _columns_getter(project.exprs, alias)

    if test is None and fast is not None:

        def make_direct(ctx: ExecContext, outer: EvalEnv | None):
            def process(chunk):
                return [fast(values) for __, values in chunk]

            return process

        return _partitioned_driver(
            scan_node,
            program,
            make_direct,
            out_positions=_column_positions(project.exprs, alias),
        )

    if test is None:

        def make_project(ctx: ExecContext, outer: EvalEnv | None):
            env = ctx.env(Row(), outer)

            def process(chunk):
                out = []
                append = out.append
                for __, values in chunk:
                    env.row = Row(values={alias: values})
                    append(tuple([fn(env) for fn in fns]))
                return out

            return process

        return _partitioned_driver(scan_node, program, make_project)

    if fast is not None:

        def make_filtered_direct(ctx: ExecContext, outer: EvalEnv | None):
            env = ctx.env(Row(), outer)

            def process(chunk):
                out = []
                append = out.append
                for __, values in chunk:
                    env.row = Row(values={alias: values})
                    if test(env):
                        append(fast(values))
                return out

            return process

        return _partitioned_driver(scan_node, program, make_filtered_direct)

    def make_chain(ctx: ExecContext, outer: EvalEnv | None):
        env = ctx.env(Row(), outer)

        def process(chunk):
            out = []
            append = out.append
            for __, values in chunk:
                env.row = Row(values={alias: values})
                if test(env):
                    append(tuple([fn(env) for fn in fns]))
            return out

        return process

    return _partitioned_driver(scan_node, program, make_chain)


# ---------------------------------------------------------------------------
# exchange: partitioned probes over a shared hash-join build table
# ---------------------------------------------------------------------------


def _hash_probe_chunk(
    ctx: ExecContext,
    outer: EvalEnv | None,
    outer_rows: list[Row],
    table: dict[tuple, list[Row]],
    getters,
    residual,
) -> tuple[CostCounters, list[Row]]:
    """One worker task: probe the shared built table for a chunk of rows.

    Per outer row this reproduces exactly what the serial probe loop
    computes — the bucket lookup, its RSI charge (bucket size, before the
    residual), and the join residual — against a private environment and
    private counters.  The table is frozen before any task is submitted
    and probes never touch the buffer pool, so no fetch replay is needed.
    """
    counters = CostCounters()
    count_rsi = counters.count_rsi_call
    env = ctx.env(Row(), outer)
    out: list[Row] = []
    append = out.append
    for outer_row in outer_rows:
        key = tuple([getter(outer_row) for getter in getters])
        bucket = table.get(key)
        if bucket is None:
            continue
        count_rsi(len(bucket))
        if residual is None:
            for inner_row in bucket:
                append(outer_row.merged(inner_row))
        else:
            for inner_row in bucket:
                merged = outer_row.merged(inner_row)
                env.row = merged
                if residual(env):
                    append(merged)
    return counters, out


def parallel_hash_join_driver(node: HashJoinNode, ctx: ExecContext):
    """A partitioned-probe hash-join driver, or ``None`` when ineligible.

    The build side is consumed serially on the driving thread through the
    same counted inner scan the serial operator uses, so the build's
    fetch/RSI trace is the statement's own.  The finished table is then
    shared read-only: workers answer contiguous chunks of outer-batch
    probes with private counters that the gather merges in chunk order,
    and chunk results concatenate back into the serial emit order.  Grace
    plans (``partitions > 1``) spill through counted temp lists whose
    traffic is inherently serial, so they stay on the serial driver (the
    fuse dispatch never routes them here).
    """
    if not subquery_free(node.residual):
        return None
    program: _HashJoinProgram = _program(node, ctx, _build_hash_join)
    outer_source = _fused_program(node.outer, ctx)
    getters = program.outer_getters
    residual = program.residual

    def driver(ctx: ExecContext, outer: EvalEnv | None):
        table = build_hash_table(node, program, ctx, outer)
        # The shared build table and residual closures cannot cross a
        # process boundary; probes pin to the thread backend.
        backend = get_backend(ctx.workers, "thread")
        merge = ctx.storage.counters.merge
        for outer_batch in outer_source(ctx, outer):
            tasks = [
                (
                    lambda rows=outer_batch[lo:hi]: _hash_probe_chunk(
                        ctx, outer, rows, table, getters, residual
                    )
                )
                for lo, hi in partition_ranges(
                    len(outer_batch),
                    max(backend.workers, len(outer_batch) // _PROBE_CHUNK),
                )
            ]
            out: list[Row] = []
            extend = out.extend
            for counters, rows in backend.imap(tasks):
                merge(counters)
                extend(rows)
            if out:
                yield out

    return driver


# ---------------------------------------------------------------------------
# breaker: partial aggregation over scan morsels
# ---------------------------------------------------------------------------


def _agg_partition(
    snapshot,
    decode,
    matcher,
    key_positions: tuple[int, ...],
    arg_positions: tuple[int | None, ...],
    aggregates,
    lo: int,
    hi: int,
) -> tuple[CostCounters, int, list[tuple]]:
    """One thread-pool task: fold a page range into per-group partials.

    The thread twin of :func:`~repro.engine.scheduler.run_agg_morsel`
    (no freeze, no pickle): returns ``(counters, page_count, runs)``
    with runs ``(key, states, tid, values)`` in first-occurrence order
    under streaming (adjacency) group semantics, RSI charged in the
    serial scan's page-aligned batch quanta.
    """
    counters = CostCounters()
    count_rsi = counters.count_rsi_call
    get_page = snapshot.get_page
    page_ids = snapshot.page_ids
    relation_id = snapshot.relation_id
    runs: list[tuple] = []
    current_key: object = None
    states: list[_AggState] = []
    saw_rows = False
    for index in range(lo, hi):
        page_id = page_ids[index]
        rows = decode_page_rows(page_id, get_page(page_id), relation_id, decode)
        if matcher is not None:
            rows = [item for item in rows if matcher(item[1])]
        for start in range(0, len(rows), DEFAULT_BATCH_SIZE):
            chunk = rows[start : start + DEFAULT_BATCH_SIZE]
            count_rsi(len(chunk))
            for tid, values in chunk:
                key = tuple([values[p] for p in key_positions])
                if not saw_rows or key != current_key:
                    current_key = key
                    states = [_AggState(call) for call in aggregates]
                    runs.append((key, states, tid, values))
                saw_rows = True
                for state, position in zip(states, arg_positions):
                    state.add(None if position is None else values[position])
    return counters, hi - lo, runs


def parallel_aggregate_driver(node: AggregateNode, ctx: ExecContext):
    """A morsel-parallel ``Scan→Aggregate`` driver, or ``None``.

    Eligible exactly where ``fuse._scan_aggregate_driver`` is (bare
    segment scan, no residual, plain-column keys and arguments) plus the
    parallel preconditions (no index access, subquery-free SARG values
    and HAVING).  Workers fold morsels into per-group partial states
    with streaming group semantics; the gather merges a morsel's first
    run into the previous morsel's last run when they share a key
    (:meth:`_AggState.merge` — the mergeable-partial twin of the
    counter-merge discipline), so group boundaries, representatives,
    and results reproduce the serial scan-order fold bit-for-bit.
    Aggregate folds touch no counters, so the fetch replay per morsel
    keeps the serial page trace.
    """
    project, filters, bottom = _collapse(node.child)
    if project is not None or filters or not isinstance(bottom, ScanNode):
        return None
    scan_node = bottom
    scan_program: _ScanProgram = _program(scan_node, ctx, _build_scan)
    if scan_program.residual is not None:
        return None
    if not _segment_scan_eligible(scan_node, scan_program):
        return None
    having_exprs = [] if node.having is None else [node.having]
    if not subquery_free(scan_exprs(scan_node) + having_exprs):
        return None
    alias = scan_node.alias
    for column in node.group_by:
        if column.alias != alias:
            return None
    arg_positions: list[int | None] = []
    for call in node.aggregates:
        if call.argument is None:
            arg_positions.append(None)
        elif (
            type(call.argument) is BoundColumn
            and call.argument.alias == alias
        ):
            arg_positions.append(call.argument.position)
        else:
            return None
    positions = tuple(arg_positions)
    key_positions = tuple(column.position for column in node.group_by)
    aggregates = tuple(node.aggregates)
    agg_program = _program(node, ctx, _build_aggregate)
    having = agg_program.having
    grouped = bool(node.group_by)
    decode = scan_program.decode_plan.decode
    table = scan_node.table

    def driver(ctx: ExecContext, outer: EvalEnv | None):
        having_env = None if having is None else ctx.env(Row(), outer)

        def emit(representative: Row, states) -> Row | None:
            results = tuple([state.result() for state in states])
            out = representative.with_alias(AGGREGATE_ALIAS, results)
            if having is not None:
                having_env.row = out
                if having(having_env) is not True:
                    return None
            return out

        emitted: list[Row] = []
        snapshot = ctx.storage.scan_snapshot(table)
        page_ids = snapshot.page_ids
        pending: tuple | None = None  # (key, states, representative Row)
        if page_ids:
            backend = get_backend(ctx.workers, ctx.backend)
            ranges = scan_ranges(len(page_ids), backend.workers)
            if backend.kind == "process":
                sargs = _value_bound_sargs(scan_program, ctx, outer)
                datatypes = tuple(ctx.schemas[alias])
                calls = tuple(
                    AggCallSpec(call.name, position, call.distinct)
                    for call, position in zip(aggregates, positions)
                )
                tasks = [
                    partial(
                        run_agg_morsel,
                        AggMorsel(
                            pages=snapshot.freeze_range(lo, hi),
                            relation_id=snapshot.relation_id,
                            datatypes=datatypes,
                            sargs=sargs,
                            key_positions=key_positions,
                            arg_positions=positions,
                            calls=calls,
                        ),
                    )
                    for lo, hi in ranges
                ]
            else:
                value_env = ctx.env(Row(), outer)
                matcher = compile_sarg_matcher(scan_program, value_env)
                tasks = [
                    (
                        lambda lo=lo, hi=hi: _agg_partition(
                            snapshot,
                            decode,
                            matcher,
                            key_positions,
                            positions,
                            aggregates,
                            lo,
                            hi,
                        )
                    )
                    for lo, hi in ranges
                ]
            fetch = ctx.storage.buffer.fetch
            merge = ctx.storage.counters.merge
            index = 0
            for counters, page_count, runs in backend.imap(tasks):
                merge(counters)
                for __ in range(page_count):
                    fetch(page_ids[index])
                    index += 1
                for key, states, tid, values in runs:
                    if pending is not None and key == pending[0]:
                        # Boundary group continues across the morsel
                        # seam: fold the partial states in.
                        for mine, other in zip(pending[1], states):
                            mine.merge(other)
                    else:
                        if pending is not None:
                            out = emit(pending[2], pending[1])
                            if out is not None:
                                emitted.append(out)
                        pending = (
                            key,
                            states,
                            Row(values={alias: values}, tids={alias: tid}),
                        )
        if pending is not None:
            out = emit(pending[2], pending[1])
            if out is not None:
                emitted.append(out)
        elif not grouped:
            # Aggregates over an empty input still produce one row.
            out = emit(Row(), [_AggState(call) for call in aggregates])
            if out is not None:
                emitted.append(out)
        if emitted:
            yield emitted

    return driver


# ---------------------------------------------------------------------------
# breaker: parallel sorted-run generation
# ---------------------------------------------------------------------------


def parallel_run_sorter(ctx: ExecContext, keys):
    """A drop-in ``run_sorter`` for :class:`ExternalSorter`: per-worker
    sorted slices k-way-merged into one run.

    The workspace splits into contiguous slices, each stably sorted on a
    thread worker (``Row`` objects and key closures do not pickle, so
    the sort breaker always uses the thread backend), and
    ``heapq.merge`` reassembles them — equal keys prefer the earlier
    slice, which combined with slice contiguity and per-slice stability
    reproduces the serial stable sort's order exactly.  Run boundaries,
    contents, and temp-list traffic are untouched, so the sort's cost
    trace is bit-identical to the serial sorter's.
    """
    keys = list(keys)

    def sort_run(rows):
        backend = get_backend(ctx.workers, "thread")
        if backend.workers <= 1 or len(rows) < _SORT_SLICE_MIN_ROWS:
            return _sorted_run(rows, keys)
        slices = [
            rows[lo:hi]
            for lo, hi in partition_ranges(len(rows), backend.workers)
        ]
        tasks = [
            (lambda part=part: _sorted_run(part, keys)) for part in slices
        ]
        ordered = list(backend.imap(tasks))

        def merge_key(row, _keys=keys):
            return _HeapKey(row, _keys)

        return list(heapq.merge(*ordered, key=merge_key))

    return sort_run
