"""Bucketed nested-loop probes: the inner hashed once per statement.

The fused nested-loop driver (:mod:`repro.engine.fuse`) re-opens its
inner scan for every outer row.  When the inner is a segment scan with an
all-equality probe SARG, :class:`BucketProbe` answers each probe from
buckets of the inner relation built once per statement instead, and the
driver replays the per-probe scan's page fetches and RSI charges, so
rows, row order and cost counters stay those of the per-probe scan (see
DESIGN.md §19).  The driver imports this module only when it compiles a
nested-loop join.
"""

from __future__ import annotations

from typing import Callable

from ..datatypes import TypeKind
from ..optimizer.bound import BoundSubquery
from ..optimizer.plan import IndexAccess, NestedLoopJoinNode, ScanNode
from ..rss.sargs import CompareOp, and_matcher, dnf_matcher
from ..rss.scan import decode_page_rows
from ..sql import ast
from .evaluator import EvalEnv
from .operators import ExecContext, _ScanProgram

#: Expression nodes that evaluate through the runtime's subquery machinery.
#: ``walk_expr`` yields (and does not descend into) both forms.
_SUBQUERY_NODES = (BoundSubquery, ast.InSubquery)


def subquery_free(exprs) -> bool:
    """True when no expression reaches the runtime's subquery machinery.

    Subquery evaluation mutates statement-scoped caches and fetches pages
    mid-expression, so a driver that reorders page fetches relative to
    expression evaluation (the bucketed probe's fetch replay, parallel
    workers) must not see one.
    """
    for expr in exprs:
        for node in ast.walk_expr(expr):
            if type(node) in _SUBQUERY_NODES:
                return False
    return True


def scan_exprs(node: ScanNode) -> list:
    """Every expression a scan evaluates: residuals and SARG values."""
    exprs = list(node.residual)
    for expression in node.sargs:
        for group in expression.groups:
            for pred in group:
                exprs.append(pred.value)
    return exprs


def _equality_part(expression) -> bool:
    """A SARG factor that is one AND-group of ``column = value`` terms."""
    return len(expression.groups) == 1 and all(
        pred.op is CompareOp.EQ for pred in expression.groups[0]
    )


def bucketable(node: NestedLoopJoinNode) -> bool:
    """Whether a nested-loop join probes its inner through buckets.

    The inner must be a segment scan (an index scan's B-tree descent *is*
    its fetch trace) with at least one all-equality SARG factor, and no
    expression of the probe — SARG values, inner residual, join residual —
    may contain a subquery, whose page fetches would interleave with the
    inner scan's and break the replayed fetch order.
    """
    inner = node.inner
    return (
        not isinstance(inner.access, IndexAccess)
        and any(_equality_part(expression) for expression in inner.sargs)
        and subquery_free(scan_exprs(inner) + list(node.residual))
    )


class BucketProbe:
    """Bucketed nested-loop probes with the per-probe scan's exact trace.

    The inner relation is decoded once per statement straight from the
    page store (:meth:`~repro.rss.storage.StorageEngine.scan_snapshot`,
    no counter effects) and bucketed by the columns of its all-equality
    SARG factors, in (page, slot) order, so each bucket lists its tuples
    in scan order.  A probe evaluates every SARG value in the order the
    per-probe scan's matcher does, looks its key up, filters the bucket
    through the remaining SARG factors, and the driver then replays the
    scan's page fetches and charges one RSI call per matching tuple:
    rows, row order, page fetches, buffer hits and RSI calls are those of
    the per-probe scan.

    Only failed statements may differ: the fetch replay and RSI charge
    precede the probe's residual evaluation, so a residual that raises
    leaves the probe's whole fetch trace charged.
    """

    __slots__ = (
        "_table",
        "_decode",
        "_value_fns",
        "_key_index",
        "_key_positions",
        "_rest",
        "_nan_keys",
    )

    def __init__(self, node: NestedLoopJoinNode, program: _ScanProgram) -> None:
        inner = node.inner
        self._table = inner.table
        self._decode = program.decode_plan.decode
        value_fns: list = []
        key_index: list[int] = []
        key_positions: list[int] = []
        rest: list[list[list[tuple[Callable, int]]]] = []
        for expression, part in zip(inner.sargs, program.sarg_parts):
            if _equality_part(expression):
                for pred, (__, value_fn) in zip(expression.groups[0], part[0]):
                    key_index.append(len(value_fns))
                    key_positions.append(pred.column.position)
                    value_fns.append(value_fn)
                continue
            groups = []
            for group in part:
                indexed = []
                for make, value_fn in group:
                    indexed.append((make, len(value_fns)))
                    value_fns.append(value_fn)
                groups.append(indexed)
            rest.append(groups)
        self._value_fns = tuple(value_fns)
        self._key_index = tuple(key_index)
        self._key_positions = tuple(key_positions)
        self._rest = rest
        # Only a FLOAT column can hold NaN, which the scan's ``=`` matches
        # against every value but a hash lookup matches against none.
        datatypes = program.decode_plan.datatypes
        self._nan_keys = any(
            datatypes[position].kind is TypeKind.FLOAT for position in key_positions
        )

    def build(self, ctx: ExecContext) -> tuple[tuple[int, ...], dict | None]:
        """The inner page list and its buckets (``None``: a NaN key was
        found, so every probe of this statement scans)."""
        snapshot = ctx.storage.scan_snapshot(self._table)
        positions = self._key_positions
        check_nan = self._nan_keys
        buckets: dict[tuple, list] = {}
        for page_id in snapshot.page_ids:
            page = snapshot.get_page(page_id)
            for item in decode_page_rows(
                page_id, page, snapshot.relation_id, self._decode
            ):
                values = item[1]
                key = tuple([values[position] for position in positions])
                if None in key:
                    continue  # SQL equality never matches NULL
                if check_nan and any(k != k for k in key):
                    return snapshot.page_ids, None
                bucket = buckets.get(key)
                if bucket is None:
                    buckets[key] = [item]
                else:
                    bucket.append(item)
        return snapshot.page_ids, buckets

    def lookup(self, buckets: dict | None, env: EvalEnv) -> list | None:
        """The probe's matching inner tuples, or ``None`` when this probe
        must scan (NaN on either side)."""
        if buckets is None:
            return None
        values = [fn(env) for fn in self._value_fns]
        key = tuple([values[index] for index in self._key_index])
        for k in key:
            if k is None:
                return []
            if k != k:
                return None
        matches = buckets.get(key)
        if matches is None:
            return []
        if self._rest:
            matcher = and_matcher(
                [
                    dnf_matcher(
                        [[make(values[i]) for make, i in group] for group in part]
                    )
                    for part in self._rest
                ]
            )
            if matcher is not None:
                matches = [item for item in matches if matcher(item[1])]
        return matches
