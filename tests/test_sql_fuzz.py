"""Seeded random-token fuzz of the SQL front end.

Every input either parses or raises a typed ``ReproError``: no other
exception escapes the lexer, the parser, or ``Database.execute`` (which
also runs the statement cache's lookup and the binder).
"""

import random

from repro.database import Database
from repro.errors import ReproError
from repro.sql import lex_statement, parse_lexed

_PIECES = [
    "SELECT", "FROM", "WHERE", "AND", "OR", "NOT", "IN", "BETWEEN", "LIKE",
    "IS", "NULL", "GROUP", "BY", "ORDER", "HAVING", "DISTINCT", "INSERT",
    "INTO", "VALUES", "UPDATE", "SET", "DELETE", "CREATE", "TABLE", "INDEX",
    "DROP", "STATISTICS", "AS", "COUNT", "SUM", "T", "A", "B", "T.A", "*",
    "(", ")", ",", ".", "=", "<>", "!=", "<", "<=", ">", ">=", "+", "-", "/",
    "0", "7", "-3", "2.5", ".5", "1.", "1.2.3", "'x'", "'it''s'", "'", "--",
    "\n", "@", "é", "²", ";",
]


def _statements(count: int, seed: int):
    rng = random.Random(seed)
    for __ in range(count):
        yield " ".join(rng.choice(_PIECES) for __ in range(rng.randint(0, 12)))


def test_front_end_raises_only_typed_errors():
    for text in _statements(20_000, seed=1979):
        try:
            parse_lexed(lex_statement(text))
        except ReproError:
            pass


def test_execute_raises_only_typed_errors():
    db = Database()
    db.execute("CREATE TABLE T (A INTEGER, B VARCHAR(8))")
    db.execute("INSERT INTO T VALUES (1, 'x'), (2, NULL)")
    for text in _statements(3_000, seed=79):
        if text.lstrip().startswith(("CREATE", "DROP", "UPDATE STATISTICS")):
            continue  # keep the one table in place
        try:
            db.execute(text)
        except ReproError:
            pass
