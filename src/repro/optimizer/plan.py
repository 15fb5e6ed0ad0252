"""Plan trees — the reproduction's Access Specification Language.

The optimizer emits a tree of these nodes; the execution engine interprets
them (our substitute for System R's machine-code generation).  Every node
carries its predicted :class:`~repro.optimizer.cost.Cost`, its estimated
output cardinality, and the physical order of the rows it produces.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterator

from ..catalog.schema import IndexDef, TableDef
from ..sql import ast
from .bound import BoundColumn
from .cost import Cost
from .orders import ColumnKey
from .predicates import SargExpression


@dataclass
class PlanNode:
    """Base plan node."""

    cost: Cost = field(default_factory=Cost, kw_only=True)
    rows: float = field(default=0.0, kw_only=True)
    order_columns: tuple[ColumnKey, ...] = field(default=(), kw_only=True)
    #: Buffer pages this plan's pipeline keeps hot while producing rows: a
    #: couple per open scan, plus the whole footprint of any nested-loop
    #: inner assumed buffer-resident.  Join costing subtracts the outer's
    #: claim before granting residency to a new inner.
    buffer_claim: float = field(default=2.0, kw_only=True)
    #: Per-execution-mode compiled artifacts (closure programs) attached by
    #: the engine on first execution; never part of plan identity.  A
    #: cached plan runs on several sessions' threads at once, so entries
    #: are only ever added through :func:`publish_compiled`.
    compiled: dict = field(
        default_factory=dict, kw_only=True, compare=False, repr=False
    )

    def children(self) -> list["PlanNode"]:
        """Child plan nodes, outer before inner."""
        return []

    def label(self) -> str:
        """One-line description used by plan rendering."""
        return type(self).__name__


# ---------------------------------------------------------------------------
# access paths
# ---------------------------------------------------------------------------


@dataclass
class SegmentAccess:
    """Full segment scan; unordered for the optimizer's purposes."""

    def describe(self) -> str:
        """Human-readable description of this access path."""
        return "segment scan"


@dataclass
class IndexAccess:
    """B-tree access with optional key bounds.

    Bounds are *expressions* (literals, outer-block columns, outer join
    columns, or uncorrelated subqueries) evaluated when the scan opens, so
    one description covers constants, correlation probes, and nested-loop
    join lookups alike.
    """

    index: IndexDef
    low: tuple[ast.Expr, ...] = ()
    high: tuple[ast.Expr, ...] = ()
    low_inclusive: bool = True
    high_inclusive: bool = True

    def describe(self) -> str:
        """Human-readable description of this access path."""
        parts = [f"index {self.index.name}"]
        width = len(self.index.column_names)
        bound = max(len(self.low), len(self.high))
        if 0 < bound < width:
            parts.append(f"[prefix {bound}/{width}]")
        if self.low:
            op = ">=" if self.low_inclusive else ">"
            parts.append(f"{op} ({', '.join(map(str, self.low))})")
        if self.high:
            op = "<=" if self.high_inclusive else "<"
            parts.append(f"{op} ({', '.join(map(str, self.high))})")
        return " ".join(parts)


@dataclass
class ScanNode(PlanNode):
    """One relation accessed via a segment scan or an index scan.

    ``sargs`` are applied below the RSI; ``residual`` predicates are
    evaluated on returned tuples (each of which has already cost an RSI
    call).
    """

    alias: str
    table: TableDef
    access: SegmentAccess | IndexAccess
    sargs: list[SargExpression] = field(default_factory=list)
    residual: list[ast.Expr] = field(default_factory=list)

    def label(self) -> str:
        """One-line description used by plan rendering."""
        return f"scan {self.alias} via {self.access.describe()}"


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


@dataclass
class NestedLoopJoinNode(PlanNode):
    """Nested loops: for each outer row, re-open the inner scan.

    The inner :class:`ScanNode` typically carries join predicates as probe
    SARGs/index bounds referencing outer columns.  ``residual`` holds join
    predicates not enforceable by the inner access path.
    """

    outer: PlanNode
    inner: ScanNode
    residual: list[ast.Expr] = field(default_factory=list)

    def children(self) -> list[PlanNode]:
        """Child plan nodes, outer before inner."""
        return [self.outer, self.inner]

    def label(self) -> str:
        """One-line description used by plan rendering."""
        return f"nested-loop join (inner {self.inner.alias})"


@dataclass
class MergeJoinNode(PlanNode):
    """Merging scans over two inputs ordered on the join column."""

    outer: PlanNode
    inner: PlanNode
    outer_column: BoundColumn
    inner_column: BoundColumn
    residual: list[ast.Expr] = field(default_factory=list)

    def children(self) -> list[PlanNode]:
        """Child plan nodes, outer before inner."""
        return [self.outer, self.inner]

    def label(self) -> str:
        """One-line description used by plan rendering."""
        return f"merge join on {self.outer_column} = {self.inner_column}"


@dataclass
class HashJoinNode(PlanNode):
    """Build/probe hash join on one or more equijoin key pairs.

    The inner :class:`ScanNode` — the smaller input, by the build-side
    rule — is scanned once into an in-memory hash table keyed on its join
    columns; outer rows then probe it.  Produces no tuple order.  ``keys``
    pairs each outer key column with its inner counterpart.  ``matches``
    keeps the optimizer's probe-match estimate (the RSI consumption term)
    so the cost auditor can re-derive the formula exactly.  ``partitions``
    records the plan-time grace decision: above 1, both inputs are
    hash-partitioned through temporary pages and joined partition by
    partition.
    """

    outer: PlanNode
    inner: ScanNode
    keys: list[tuple[BoundColumn, BoundColumn]] = field(default_factory=list)
    residual: list[ast.Expr] = field(default_factory=list)
    matches: float = field(default=0.0, kw_only=True)
    partitions: int = field(default=1, kw_only=True)

    def children(self) -> list[PlanNode]:
        """Child plan nodes, outer before inner."""
        return [self.outer, self.inner]

    def label(self) -> str:
        """One-line description used by plan rendering."""
        keys = ", ".join(f"{o} = {i}" for o, i in self.keys)
        grace = f", grace x{self.partitions}" if self.partitions > 1 else ""
        # getattr: the plan checker renders labels of corrupted trees
        # whose build side may not be a ScanNode at all.
        build = getattr(self.inner, "alias", "<non-scan>")
        return f"hash join (build {build}{grace}) on {keys}"


# ---------------------------------------------------------------------------
# sorting / aggregation / projection
# ---------------------------------------------------------------------------


@dataclass
class FilterNode(PlanNode):
    """Residual predicate evaluation above a child (e.g. constant factors,
    predicates referencing only outer-block values)."""

    child: PlanNode
    predicates: list[ast.Expr] = field(default_factory=list)

    def children(self) -> list[PlanNode]:
        """Child plan nodes, outer before inner."""
        return [self.child]

    def label(self) -> str:
        """One-line description used by plan rendering."""
        return "filter " + " AND ".join(str(p) for p in self.predicates)


@dataclass
class SortNode(PlanNode):
    """Sort rows into a temporary list on the given key columns."""

    child: PlanNode
    keys: list[tuple[BoundColumn, bool]]  # (column, descending)

    def children(self) -> list[PlanNode]:
        """Child plan nodes, outer before inner."""
        return [self.child]

    def label(self) -> str:
        """One-line description used by plan rendering."""
        keys = ", ".join(
            f"{column}{' DESC' if descending else ''}"
            for column, descending in self.keys
        )
        return f"sort by {keys}"


@dataclass
class AggregateNode(PlanNode):
    """Grouping and aggregate evaluation over group-ordered input."""

    child: PlanNode
    group_by: list[BoundColumn]
    aggregates: list[ast.FuncCall]
    having: ast.Expr | None = None

    def children(self) -> list[PlanNode]:
        """Child plan nodes, outer before inner."""
        return [self.child]

    def label(self) -> str:
        """One-line description used by plan rendering."""
        if self.group_by:
            keys = ", ".join(str(column) for column in self.group_by)
            return f"group by {keys}"
        return "aggregate (whole input)"


@dataclass
class ProjectNode(PlanNode):
    """Evaluate the SELECT list."""

    child: PlanNode
    exprs: list[ast.Expr]
    names: list[str]

    def children(self) -> list[PlanNode]:
        """Child plan nodes, outer before inner."""
        return [self.child]

    def label(self) -> str:
        """One-line description used by plan rendering."""
        return "project " + ", ".join(self.names)


@dataclass
class DistinctNode(PlanNode):
    """Duplicate elimination on fully-projected rows."""

    child: PlanNode

    def children(self) -> list[PlanNode]:
        """Child plan nodes, outer before inner."""
        return [self.child]

    def label(self) -> str:
        """One-line description used by plan rendering."""
        return "distinct"


def walk_plan(node: PlanNode) -> Iterator[PlanNode]:
    """Yield every node of a plan tree, pre-order."""
    yield node
    for child in node.children():
        yield from walk_plan(child)


#: Serializes additions to any node's ``compiled`` memo.
_compiled_lock = threading.Lock()


def publish_compiled(node: PlanNode, key: str, artifact: object) -> object:
    """Add ``artifact`` as the node's compiled ``key``; return the winner.

    Artifacts are built outside the lock.  When two threads build the
    same key, the first one published is kept and the other is dropped,
    so every execution of the plan reads one artifact per key, and a
    published entry never changes.
    """
    with _compiled_lock:
        return node.compiled.setdefault(key, artifact)


def render_plan(
    node: PlanNode,
    indent: int = 0,
    w: float | None = None,
    params: tuple | None = None,
) -> str:
    """Multi-line, indented plan rendering (used by EXPLAIN).

    ``params`` shows the plan's literals with a statement's parameter
    vector, for a cached plan explained on behalf of another statement of
    its shape; None shows the values the plan was made from.
    """
    if params is not None:
        token = ast.RENDER_PARAMS.set(params)
        try:
            return render_plan(node, indent, w)
        finally:
            ast.RENDER_PARAMS.reset(token)
    pad = "  " * indent
    suffix = f"  [rows~{node.rows:.1f}"
    if w is not None:
        suffix += f", cost~{node.cost.total(w):.2f}"
    suffix += "]"
    lines = [f"{pad}{node.label()}{suffix}"]
    extras: list[str] = []
    if isinstance(node, ScanNode):
        for sarg in node.sargs:
            extras.append(f"{pad}  sarg: {sarg}")
        for residual in node.residual:
            extras.append(f"{pad}  filter: {residual}")
    elif isinstance(node, (NestedLoopJoinNode, MergeJoinNode, HashJoinNode)):
        for residual in node.residual:
            extras.append(f"{pad}  filter: {residual}")
    lines.extend(extras)
    for child in node.children():
        lines.append(render_plan(child, indent + 1, w))
    return "\n".join(lines)
