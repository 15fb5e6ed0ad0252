"""Abstract syntax tree for the SQL subset.

Expression nodes are plain dataclasses.  A parsed query is a
:class:`SelectQuery` — the paper's *query block*: a SELECT list, a FROM
list, and a WHERE tree.  Subqueries embed further :class:`SelectQuery`
instances inside predicate nodes, which is how a single SQL statement comes
to contain multiple query blocks.

Literals parsed from text carry a parameter *slot*.  A statement's values
travel separately as its parameter vector (``params``), and execution
reads a literal through its slot, so one plan serves every statement of
the same shape.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field

from ..datatypes import DataType
from ..rss.sargs import CompareOp

AGGREGATE_FUNCTIONS = frozenset({"AVG", "COUNT", "SUM", "MIN", "MAX"})


# --------------------------------------------------------------------------
# expressions
# --------------------------------------------------------------------------


class Expr:
    """Base class for expression nodes."""

    __slots__ = ()


#: The parameter vector ``str()`` shows slotted literals with, while a
#: cached plan is rendered for a statement other than the one it was
#: parsed from (see :func:`repro.optimizer.plan.render_plan`).
RENDER_PARAMS: ContextVar[tuple | None] = ContextVar("RENDER_PARAMS", default=None)


@dataclass(frozen=True)
class Literal(Expr):
    """A constant value (NULL included).

    ``value`` is the value the literal was parsed with.  ``slot`` is its
    index in the statement's parameter vector; it is None for the NULL
    keyword and for literals built by hand, which always mean ``value``.
    """

    value: object
    slot: int | None = None

    def __str__(self) -> str:
        value = self.value
        if self.slot is not None:
            shown = RENDER_PARAMS.get()
            if shown is not None:
                value = shown[self.slot]
        if isinstance(value, str):
            escaped = value.replace("'", "''")
            return f"'{escaped}'"
        if value is None:
            return "NULL"
        return str(value)


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A possibly-qualified column reference, e.g. ``EMP.DNO`` or ``DNO``."""

    qualifier: str | None
    name: str

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass(frozen=True)
class BinaryOp(Expr):
    """Arithmetic: ``+ - * /``."""

    op: str
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Negate(Expr):
    """Unary minus."""
    operand: Expr

    def __str__(self) -> str:
        return f"(-{self.operand})"


@dataclass(frozen=True)
class FuncCall(Expr):
    """An aggregate call: ``COUNT(*)``, ``AVG(SAL)``, ``COUNT(DISTINCT X)``."""

    name: str
    argument: Expr | None  # None means COUNT(*)
    distinct: bool = False

    def __str__(self) -> str:
        inner = "*" if self.argument is None else str(self.argument)
        if self.distinct:
            inner = f"DISTINCT {inner}"
        return f"{self.name}({inner})"


# --------------------------------------------------------------------------
# predicates
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Comparison(Expr):
    """A binary comparison predicate."""
    op: CompareOp
    left: Expr
    right: Expr

    def __str__(self) -> str:
        return f"{self.left} {self.op.value} {self.right}"


@dataclass(frozen=True)
class Between(Expr):
    """``x BETWEEN low AND high`` (inclusive)."""
    operand: Expr
    low: Expr
    high: Expr

    def __str__(self) -> str:
        return f"{self.operand} BETWEEN {self.low} AND {self.high}"


@dataclass(frozen=True)
class InList(Expr):
    """``x IN (literal, ...)``."""
    operand: Expr
    values: tuple[Literal, ...]

    def __str__(self) -> str:
        items = ", ".join(str(value) for value in self.values)
        return f"{self.operand} IN ({items})"


@dataclass(frozen=True)
class InSubquery(Expr):
    """``x IN (SELECT ...)``."""
    operand: Expr
    subquery: "SelectQuery"

    def __str__(self) -> str:
        return f"{self.operand} IN (<subquery>)"


@dataclass(frozen=True)
class ScalarSubquery(Expr):
    """A query used where a single value is expected."""

    subquery: "SelectQuery"

    def __str__(self) -> str:
        return "(<subquery>)"


@dataclass(frozen=True)
class IsNull(Expr):
    """``x IS [NOT] NULL``."""
    operand: Expr
    negated: bool = False

    def __str__(self) -> str:
        return f"{self.operand} IS {'NOT ' if self.negated else ''}NULL"


@dataclass(frozen=True)
class Like(Expr):
    """``x [NOT] LIKE pattern`` (% and _ wildcards)."""
    operand: Expr
    pattern: str
    negated: bool = False

    def __str__(self) -> str:
        return f"{self.operand} {'NOT ' if self.negated else ''}LIKE '{self.pattern}'"


@dataclass(frozen=True)
class And(Expr):
    """N-ary conjunction."""
    operands: tuple[Expr, ...]

    def __str__(self) -> str:
        return " AND ".join(f"({operand})" for operand in self.operands)


@dataclass(frozen=True)
class Or(Expr):
    """N-ary disjunction."""
    operands: tuple[Expr, ...]

    def __str__(self) -> str:
        return " OR ".join(f"({operand})" for operand in self.operands)


@dataclass(frozen=True)
class Not(Expr):
    """Logical negation."""
    operand: Expr

    def __str__(self) -> str:
        return f"NOT ({self.operand})"


# --------------------------------------------------------------------------
# query blocks
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TableRef:
    """A FROM-list entry: table name plus the alias it is known by.

    ``EMPLOYEE X`` gives alias ``X``; a bare ``EMPLOYEE`` is its own alias.
    """

    table_name: str
    alias: str

    def __str__(self) -> str:
        if self.alias == self.table_name:
            return self.table_name
        return f"{self.table_name} {self.alias}"


@dataclass(frozen=True)
class SelectItem:
    """One SELECT-list entry with an optional alias."""
    expr: Expr
    alias: str | None = None

    def __str__(self) -> str:
        return f"{self.expr} AS {self.alias}" if self.alias else str(self.expr)


@dataclass(frozen=True)
class OrderItem:
    """One ORDER BY entry with its direction."""
    column: ColumnRef
    descending: bool = False

    def __str__(self) -> str:
        return f"{self.column} {'DESC' if self.descending else 'ASC'}"


@dataclass(frozen=True)
class SelectQuery:
    """One query block: SELECT list, FROM list, WHERE tree (Section 2)."""

    select_items: tuple[SelectItem, ...]  # empty means SELECT *
    from_tables: tuple[TableRef, ...]
    where: Expr | None = None
    group_by: tuple[ColumnRef, ...] = ()
    having: Expr | None = None
    order_by: tuple[OrderItem, ...] = ()
    distinct: bool = False
    #: The statement's parameter vector (top-level statements only; a
    #: nested block's literals index into the enclosing statement's).
    params: tuple = field(default=(), compare=False, repr=False)

    @property
    def is_star(self) -> bool:
        """True for ``SELECT *`` (expanded during binding)."""
        return not self.select_items

    def __str__(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        if self.is_star:
            parts.append("*")
        else:
            parts.append(", ".join(str(item) for item in self.select_items))
        parts.append("FROM " + ", ".join(str(table) for table in self.from_tables))
        if self.where is not None:
            parts.append(f"WHERE {self.where}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(str(col) for col in self.group_by))
        if self.having is not None:
            parts.append(f"HAVING {self.having}")
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(str(item) for item in self.order_by))
        return " ".join(parts)


# --------------------------------------------------------------------------
# DML / DDL statements
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class InsertStmt:
    """INSERT ... VALUES or INSERT ... SELECT."""
    table_name: str
    column_names: tuple[str, ...] | None  # None: values cover all columns
    rows: tuple[tuple[Expr, ...], ...] = ()
    #: INSERT INTO t SELECT ... (mutually exclusive with rows)
    source: "SelectQuery | None" = None
    params: tuple = field(default=(), compare=False, repr=False)


@dataclass(frozen=True)
class UpdateStmt:
    """UPDATE ... SET ... [WHERE ...]."""
    table_name: str
    assignments: tuple[tuple[str, Expr], ...]
    where: Expr | None = None
    params: tuple = field(default=(), compare=False, repr=False)


@dataclass(frozen=True)
class DeleteStmt:
    """DELETE FROM ... [WHERE ...]."""
    table_name: str
    where: Expr | None = None
    params: tuple = field(default=(), compare=False, repr=False)


@dataclass(frozen=True)
class ColumnSpec:
    """A column definition inside CREATE TABLE."""
    name: str
    datatype: DataType


@dataclass(frozen=True)
class CreateTableStmt:
    """CREATE TABLE, optionally into a shared segment."""
    table_name: str
    columns: tuple[ColumnSpec, ...]
    #: Optional shared segment (``IN SEGMENT name``): relations may share
    #: pages, making P(T) < 1 as in the RSS.
    segment_name: str | None = None


@dataclass(frozen=True)
class CreateIndexStmt:
    """CREATE [UNIQUE] INDEX ... [CLUSTER]."""
    index_name: str
    table_name: str
    column_names: tuple[str, ...]
    unique: bool = False
    clustered: bool = False


@dataclass(frozen=True)
class DropTableStmt:
    """DROP TABLE."""
    table_name: str


@dataclass(frozen=True)
class DropIndexStmt:
    """DROP INDEX."""
    index_name: str


@dataclass(frozen=True)
class UpdateStatisticsStmt:
    """UPDATE STATISTICS [table]."""
    table_name: str | None = None  # None: all tables


#: The statements whose literals are parameters: the ones the statement
#: cache holds.
ParameterizedStatement = SelectQuery | InsertStmt | UpdateStmt | DeleteStmt

Statement = (
    SelectQuery
    | InsertStmt
    | UpdateStmt
    | DeleteStmt
    | CreateTableStmt
    | CreateIndexStmt
    | DropTableStmt
    | DropIndexStmt
    | UpdateStatisticsStmt
)


def walk_expr(expr: Expr | None):
    """Yield every node of an expression tree, pre-order.

    Does not descend into subquery blocks; callers that need nested blocks
    handle :class:`InSubquery` / :class:`ScalarSubquery` explicitly.
    """
    if expr is None:
        return
    stack: list[Expr] = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (And, Or)):
            stack.extend(node.operands)
        elif isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, Comparison):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Between):
            stack.extend((node.operand, node.low, node.high))
        elif isinstance(node, (InList, InSubquery, IsNull, Like)):
            stack.append(node.operand)
        elif isinstance(node, BinaryOp):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Negate):
            stack.append(node.operand)
        elif isinstance(node, FuncCall) and node.argument is not None:
            stack.append(node.argument)
