"""The statement cache: parse, bind, plan and compile once per shape.

System R compiled a statement once and ran the generated code many times
(§2).  Here every statement is still lexed, but its *shape* — the token
sequence with each literal replaced by a typed slot (see
:func:`repro.sql.lex_statement`) — keys a per-database LRU of
:class:`PreparedStatement` entries.  A hit skips the parser, the binder,
the optimizer and driver compilation: the cached plan runs with the new
statement's literal values as its parameter vector, through the same
compiled code a miss runs.

What makes an entry valid is in its key, not in the entry: the shape,
:attr:`~repro.catalog.catalog.Catalog.version` (bumped by every DDL
statement and UPDATE STATISTICS), and every planning input on the
database.  A schema or statistics change therefore makes every older
entry unreachable; the LRU ages it out.  A plan whose estimates read a
literal's value is right for that value only and is run but never cached.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..optimizer.planner import PlannedStatement
from ..sql import ast, slot_values

#: Prepared statements one database keeps; the least recently used goes
#: first.
STATEMENT_CACHE_CAPACITY = 256


@dataclass(frozen=True)
class PreparedStatement:
    """A statement parsed, bound and planned, ready for any values of its shape."""

    statement: ast.ParameterizedStatement
    #: SELECT: its plan.  INSERT ... SELECT: the source query's plan.
    #: UPDATE and DELETE: the plan that finds the target rows.
    #: INSERT ... VALUES: None.
    planned: PlannedStatement | None = None
    #: UPDATE: ``(column position, bound SET expression)`` per assignment.
    assignments: tuple[tuple[int, ast.Expr], ...] = ()
    #: Slots whose value a unary minus negates (see
    #: :func:`repro.sql.slot_values`).
    negated: frozenset[int] = frozenset()
    #: False when the plan is right only for the values it was made from
    #: (see :attr:`~repro.optimizer.planner.PlannedStatement.value_dependent`).
    cacheable: bool = True

    @property
    def plan(self) -> PlannedStatement:
        """The plan of a statement that has one (all but INSERT ... VALUES)."""
        assert self.planned is not None, "INSERT ... VALUES has no plan"
        return self.planned

    def params(self, values: tuple) -> tuple:
        """The parameter vector of a statement of this shape."""
        return slot_values(values, self.negated)


class StatementCache:  # concurrency: lock-guarded
    """A thread-safe LRU of prepared statements, shared by all sessions."""

    def __init__(self) -> None:
        self.capacity = STATEMENT_CACHE_CAPACITY
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, PreparedStatement] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple) -> PreparedStatement | None:
        """The entry for ``key`` (now most recently used), or None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: tuple, entry: PreparedStatement) -> None:
        """Publish ``entry``; evict the least recently used past capacity."""
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
