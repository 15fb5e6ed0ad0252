"""The statement cache: one parse, bind, plan and compile per shape.

A statement's shape is its token sequence with every literal replaced by
a typed slot; a cache hit runs the shape's plan with the new literal values
as its parameter vector.  The differential tests hold a warm database (its
cache holds the shape) against one whose cache is empty (every statement a
miss) and require the same rows, labels, rendered plan and cost counters.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass
from typing import Callable

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.database import Database
from repro.errors import ReproError, SemanticError
from repro.optimizer.plan import render_plan
from repro.serving import statement_cache
from repro.serving.statement_cache import StatementCache
from repro.sql import (
    Parser,
    TokenType,
    ast,
    lex_statement,
    parse_statement,
    slot_values,
)
from repro.sql.lexer import Lexer
from repro.workloads import build_empdept, load_rows


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------


class TestShape:
    def test_literals_become_typed_slots(self):
        lexed = lex_statement("SELECT A FROM T WHERE A = 5 AND B = 'x' AND C > 2.5")
        assert lexed.values == (5, "x", 2.5)
        assert lexed.shape[-1] is TokenType.FLOAT
        assert TokenType.STRING in lexed.shape and TokenType.INTEGER in lexed.shape

    def test_same_shape_for_other_values_and_spelling(self):
        first = lex_statement("SELECT A FROM T WHERE A = 5 AND B = 'x'")
        second = lex_statement("select a  from t where a = 123456 and b = 'a longer one'")
        assert first.shape == second.shape
        assert first.values != second.values

    def test_literal_type_is_part_of_the_shape(self):
        integer = lex_statement("SELECT A FROM T WHERE A = 5")
        real = lex_statement("SELECT A FROM T WHERE A = 5.0")
        text = lex_statement("SELECT A FROM T WHERE A = '5'")
        assert len({integer.shape, real.shape, text.shape}) == 3

    def test_null_stays_a_keyword(self):
        lexed = lex_statement("SELECT A FROM T WHERE A = NULL OR B IN (1, NULL)")
        assert lexed.values == (1,)
        assert lexed.shape.count("NULL") == 2

    def test_like_pattern_is_part_of_the_shape(self):
        first = lex_statement("SELECT A FROM T WHERE B LIKE 'a%' AND C = 'a%'")
        second = lex_statement("SELECT A FROM T WHERE B LIKE 'b%' AND C = 'a%'")
        assert first.values == ("a%",) == second.values
        assert first.shape != second.shape

    def test_like_pattern_is_not_an_identifier(self):
        pattern = lex_statement("SELECT A FROM T WHERE B LIKE 'X'")
        ident = lex_statement("SELECT A FROM T WHERE B LIKE X")
        assert pattern.shape != ident.shape

    def test_parse_numbers_slots_in_text_order(self):
        query = parse_statement("SELECT A + 1 AS X FROM T WHERE A IN (2, 3) AND B = 'q'")
        assert query.params == (1, 2, 3, "q")
        assert query.select_items[0].expr.right == ast.Literal(1, 0)
        assert [literal.slot for literal in query.where.operands[0].values] == [1, 2]

    @pytest.mark.parametrize(
        "text, values, params",
        [
            ("SELECT A FROM T WHERE A = -5", (5,), (-5,)),
            ("SELECT A FROM T WHERE A = - - 5", (5,), (5,)),
            ("SELECT A FROM T WHERE A = -(5)", (5,), (-5,)),
            ("SELECT A FROM T WHERE A = 3 - 5", (3, 5), (3, 5)),
            ("SELECT A FROM T WHERE A IN (-1, 2, -3.5)", (1, 2, 3.5), (-1, 2, -3.5)),
        ],
    )
    def test_unary_minus_negates_its_slot(self, text, values, params):
        lexed = lex_statement(text)
        parser = Parser(lexed)
        statement = parser.parse_statement()
        assert lexed.values == values
        assert statement.params == params
        assert slot_values(lexed.values, parser.negated_slots) == params

    def test_parse_from_lexed_tokens_equals_parse_from_text(self):
        text = "SELECT A, COUNT(*) FROM T WHERE A BETWEEN -1 AND 9 GROUP BY A"
        assert Parser(lex_statement(text)).parse_statement() == parse_statement(text)

    def test_a_miss_lexes_once(self, monkeypatch):
        db = Database()
        db.execute("CREATE TABLE T (A INTEGER)")
        calls = []
        original = Lexer.tokens

        def counting(self):
            calls.append(1)
            return original(self)

        monkeypatch.setattr(Lexer, "tokens", counting)
        result = db.execute("SELECT A FROM T WHERE A = 1")
        assert not result.plan_cached
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# the hit / miss differential
# ---------------------------------------------------------------------------


_ints = st.integers(-30, 30)
_small = st.integers(0, 25)
_sal = st.one_of(st.integers(0, 1100), st.floats(-50.0, 1100.0, allow_nan=False))
_names = st.sampled_from(["", "x", "EMP7", "EMP123", "DENVER", "O'HARE", "a much longer string"])
_locs = st.sampled_from(["DENVER", "SAN JOSE", "NYC", "AUSTIN", "NOWHERE", "DEN"])
_titles = st.sampled_from(["CLERK", "TYPIST", "SALES", "MANAGER", "CLERKS"])


def _sql_literal(value: object) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, float):
        return format(value, ".3f")
    return repr(value)


@dataclass(frozen=True)
class Template:
    """A statement shape plus a strategy for its literal values."""

    name: str
    text: str
    values: st.SearchStrategy
    #: Whether a second statement of the shape is served from the cache.
    cached: bool = True

    def sql(self, values: tuple) -> str:
        return self.text.format(*(_sql_literal(value) for value in values))


def _t(name, text, *strategies, cached=True) -> Template:
    return Template(name, text, st.tuples(*strategies), cached)


#: The EMP/DEPT/JOB corpus of ``repro check`` with its literals as slots,
#: the benchmark's statement shapes, and the corners the cache must keep.
TEMPLATES = [
    _t(
        "fig1",
        "SELECT NAME, TITLE, SAL, DNAME FROM EMP, DEPT, JOB WHERE TITLE={} "
        "AND LOC={} AND EMP.DNO=DEPT.DNO AND EMP.JOB=JOB.JOB",
        _titles,
        _locs,
    ),
    _t("range", "SELECT NAME, SAL FROM EMP WHERE SAL > {}", _sal),
    _t("point", "SELECT * FROM EMP WHERE DNO = {}", _small),
    _t(
        "conjunction",
        "SELECT * FROM EMP WHERE DNO = {} AND JOB = {} AND SAL < {}",
        _small,
        _small,
        _sal,
    ),
    _t("dept", "SELECT DNAME FROM DEPT WHERE DNO = {}", _small),
    _t(
        "between_unindexed",
        "SELECT NAME FROM EMP WHERE SAL BETWEEN {} AND {} ORDER BY SAL",
        _sal,
        _sal,
    ),
    _t(
        "having",
        "SELECT DNO, AVG(SAL) FROM EMP WHERE JOB = {} GROUP BY DNO "
        "HAVING COUNT(*) > {}",
        _small,
        st.integers(0, 6),
    ),
    _t(
        "group_strings",
        "SELECT DNAME, COUNT(*) FROM DEPT WHERE DNO = {} AND LOC = {} GROUP BY DNAME",
        _small,
        _locs,
    ),
    _t(
        "in_subquery",
        "SELECT NAME FROM EMP WHERE DNO IN (SELECT DNO FROM DEPT WHERE LOC = {})",
        _locs,
    ),
    _t(
        "correlated",
        "SELECT NAME FROM EMP X WHERE X.JOB = {} AND SAL > "
        "(SELECT AVG(SAL) FROM EMP WHERE DNO = X.DNO) + {}",
        _small,
        _ints,
    ),
    _t(
        "in_list_null",
        "SELECT ENO FROM EMP WHERE JOB IN ({}, {}, NULL) AND SAL > {}",
        _small,
        _ints,
        _sal,
    ),
    _t(
        "negatives",
        "SELECT ENO, SAL FROM EMP WHERE SAL > - {} AND ENO <> -{}",
        _sal,
        st.integers(0, 400),
    ),
    _t("strings", "SELECT ENO FROM EMP WHERE NAME = {} OR NAME > {}", _names, _names),
    _t(
        "null_compare",
        "SELECT ENO FROM EMP WHERE DNO = NULL OR JOB = {} ORDER BY ENO",
        _small,
    ),
    _t(
        "aliased_expression",
        "SELECT ENO + {} AS SHIFTED, SAL * {} AS SCALED FROM EMP WHERE DNO = {}",
        _ints,
        _ints,
        _small,
    ),
    _t(
        "labelled_literal",
        "SELECT ENO + {} FROM EMP WHERE DNO = {}",
        _ints,
        _small,
        cached=False,
    ),
    _t(
        "like",
        "SELECT ENO FROM EMP WHERE NAME LIKE 'EMP1%' AND DNO = {}",
        _small,
    ),
    _t(
        "between_indexed",
        "SELECT ENO FROM EMP WHERE DNO BETWEEN {} AND {}",
        _small,
        _small,
        cached=False,
    ),
    _t(
        "serving_read",
        "SELECT AID, OWNER, BAL FROM ACCT WHERE AID = {}",
        st.integers(0, 60),
    ),
    _t(
        "serving_increment",
        "UPDATE ACCT SET BAL = BAL + {} WHERE AID = {}",
        _ints,
        st.integers(0, 60),
    ),
    _t(
        "update_set_literals",
        "UPDATE ACCT SET NOTE = {}, BAL = {} WHERE OWNER = {}",
        _names,
        _ints,
        st.integers(0, 9),
    ),
    _t(
        "serving_insert",
        "INSERT INTO ACCT VALUES ({}, {}, {}, {})",
        st.integers(100, 10_000),
        st.integers(0, 9),
        _ints,
        _names,
    ),
    _t(
        "insert_null",
        "INSERT INTO ACCT (AID, NOTE, BAL) VALUES ({}, {}, NULL)",
        st.integers(100, 10_000),
        _names,
    ),
    _t("delete", "DELETE FROM ACCT WHERE AID = {}", st.integers(0, 60)),
    _t(
        "insert_select",
        "INSERT INTO ROLLUP SELECT {} AS BATCH, DNO, COUNT(*) FROM EMP "
        "WHERE JOB = {} GROUP BY DNO",
        _ints,
        _small,
    ),
    _t(
        "insert_select_labelled_literal",
        "INSERT INTO ROLLUP SELECT {}, DNO, COUNT(*) FROM EMP WHERE JOB = {} "
        "GROUP BY DNO",
        _ints,
        _small,
        cached=False,
    ),
    _t(
        "division",
        "SELECT ENO / {} AS Q FROM EMP WHERE DNO = {}",
        st.integers(-2, 2),
        _small,
    ),
]


def _build(exec_mode: str | None = None) -> Database:
    db = build_empdept(employees=160, departments=12, jobs=5, seed=7)
    if exec_mode is not None:
        db.exec_mode = exec_mode
    db.execute("CREATE TABLE ACCT (AID INTEGER, OWNER INTEGER, BAL INTEGER, NOTE VARCHAR(12))")
    db.execute("CREATE TABLE ROLLUP (BATCH INTEGER, DNO INTEGER, N INTEGER)")
    load_rows(db, "ACCT", [(aid, aid % 10, aid * 3, f"n{aid}") for aid in range(60)])
    db.execute("CREATE UNIQUE INDEX ACCT_PK ON ACCT (AID)")
    db.execute("UPDATE STATISTICS")
    return db


@dataclass
class Outcome:
    rendered: str
    columns: list
    rows: list
    affected: int
    cached: bool
    counters: tuple
    error: str | None


def _rendered(db: Database, sql: str) -> str:
    """The plan the statement runs, shown with its own literal values."""
    prepared, params, __ = db._prepare(lex_statement(sql))
    if prepared.planned is None:
        return ""
    planned = prepared.planned
    return render_plan(planned.root, w=planned.w, params=params)


def _run(db: Database, sql: str, fresh: bool) -> Outcome:
    if fresh:
        db.statement_cache = StatementCache()
    db.cold_cache()
    before = db.counters.snapshot()
    try:
        result = db.execute(sql)
    except ReproError as error:
        outcome = Outcome("", [], [], 0, False, (), repr(error))
    else:
        outcome = Outcome(
            "",
            result.columns,
            result.rows,
            result.affected_rows,
            result.plan_cached,
            (),
            None,
        )
    delta = before.delta(db.counters)
    outcome.counters = (delta.page_fetches, delta.rsi_calls, delta.buffer_hits)
    # Plans depend on the catalog only, so rendering after the statement
    # shows the plan it ran.
    if fresh:
        db.statement_cache = StatementCache()
    outcome.rendered = _rendered(db, sql)
    return outcome


def _contents(db: Database) -> tuple:
    return tuple(
        sorted(db.execute(f"SELECT * FROM {table}").rows, key=repr)
        for table in ("ACCT", "ROLLUP")
    )


def _check_pair(warm: Database, cold: Database, template: Template, first, second):
    # Both databases run the first statement, so their data stays equal;
    # only the warm one keeps its cache.
    for db in (warm, cold):
        try:
            db.execute(template.sql(first))
        except ReproError:
            pass
    sql = template.sql(second)
    hit = _run(warm, sql, fresh=False)
    miss = _run(cold, sql, fresh=True)
    assert miss.cached is False
    same_shape = lex_statement(template.sql(first)).shape == lex_statement(sql).shape
    if hit.error is None and same_shape:
        assert hit.cached is template.cached, template.name
    assert hit == Outcome(
        miss.rendered, miss.columns, miss.rows, miss.affected, hit.cached,
        miss.counters, miss.error,
    ), template.name
    assert _contents(warm) == _contents(cold)


@pytest.fixture(scope="module")
def pair() -> tuple[Database, Database]:
    """A warm and a cold database, kept in step across examples."""
    return _build(), _build()


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_hit_matches_miss(pair, data):
    template = data.draw(st.sampled_from(TEMPLATES), label="template")
    first = data.draw(template.values, label="first")
    second = data.draw(template.values, label="second")
    warm, cold = pair
    _check_pair(warm, cold, template, first, second)


@pytest.mark.parametrize("exec_mode", ["fused", "compiled", "interp", "parallel:2"])
@settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_template_in_every_exec_mode(exec_mode, data):
    warm, cold = _build(exec_mode), _build(exec_mode)
    for template in TEMPLATES:
        first = data.draw(template.values, label=template.name)
        second = data.draw(template.values, label=template.name)
        _check_pair(warm, cold, template, first, second)
    assert warm.statement_cache.hits > 0


def test_hit_skips_parse_bind_and_plan(monkeypatch):
    db = _build()
    db.execute("SELECT NAME FROM EMP WHERE DNO = 3")
    expected = _build().execute("SELECT NAME FROM EMP WHERE DNO = 4").rows
    calls = []
    monkeypatch.setattr(Parser, "parse_statement", lambda self: calls.append("parse"))
    monkeypatch.setattr(db, "plan_query", lambda query: calls.append("plan"))
    result = db.execute("SELECT NAME FROM EMP WHERE DNO = 4")
    assert result.plan_cached
    assert calls == []
    assert result.rows == expected


def test_explain_shows_the_statements_own_values():
    db = _build()
    first = "SELECT NAME FROM EMP WHERE DNO = 3 AND NAME > 'EMP100'"
    second = "SELECT NAME FROM EMP WHERE DNO = 9 AND NAME > 'EMP777'"
    db.execute(first)
    text = db.explain(second)
    assert "'EMP777'" in text and "'EMP100'" not in text
    assert text == _build().explain(second)
    assert db.explain(first) != text


def test_ddl_and_parsed_statements_bypass_the_cache():
    db = Database()
    assert not db.execute("CREATE TABLE T (A INTEGER)").plan_cached
    assert not db.execute("UPDATE STATISTICS").plan_cached
    statement = parse_statement("SELECT A FROM T WHERE A = 1")
    db.execute_statement(statement)
    assert not db.execute_statement(statement).plan_cached
    assert len(db.statement_cache) == 0


def test_writes_report_hits():
    db = _build()
    first = db.execute("UPDATE ACCT SET BAL = BAL + 1 WHERE AID = 5")
    second = db.execute("UPDATE ACCT SET BAL = BAL + 2 WHERE AID = 6")
    assert (first.plan_cached, second.plan_cached) == (False, True)
    assert second.affected_rows == 1
    assert db.execute("SELECT BAL FROM ACCT WHERE AID = 6").scalar() == 6 * 3 + 2


def test_cache_is_lru_bounded(monkeypatch):
    monkeypatch.setattr(statement_cache, "STATEMENT_CACHE_CAPACITY", 2)
    db = _build()
    shapes = [
        "SELECT ENO FROM EMP WHERE DNO = {}",
        "SELECT NAME FROM EMP WHERE DNO = {}",
        "SELECT SAL FROM EMP WHERE DNO = {}",
    ]
    for sql in shapes:
        db.execute(sql.format(1))
    assert len(db.statement_cache) == 2
    assert not db.execute(shapes[0].format(2)).plan_cached  # evicted
    assert db.execute(shapes[2].format(2)).plan_cached


# ---------------------------------------------------------------------------
# value-dependent plans and invalidation
# ---------------------------------------------------------------------------


def _keyed() -> Database:
    db = Database()
    db.execute("CREATE TABLE T (K INTEGER, V INTEGER, PAD VARCHAR(40))")
    load_rows(db, "T", [(i % 1000, i, "p" * 40) for i in range(3000)])
    db.execute("CREATE INDEX T_K ON T (K)")
    db.execute("UPDATE STATISTICS")
    return db


_RANGE = "SELECT V FROM T WHERE K BETWEEN {} AND {}"


def test_value_dependent_plan_is_replanned_every_time():
    db = _keyed()
    assert "index T_K" in db.explain(_RANGE.format(10, 12))
    assert "segment scan" in db.explain(_RANGE.format(0, 990))
    for low, high in [(10, 12), (0, 990), (10, 12), (0, 990), (500, 501)]:
        result = db.execute(_RANGE.format(low, high))
        assert not result.plan_cached
        assert sorted(result.rows) == sorted(
            (v,) for v in range(3000) if low <= v % 1000 <= high
        )
    assert len(db.statement_cache) == 0
    assert db.plan(_RANGE.format(10, 12)).value_dependent


def test_equality_on_the_same_index_is_cached():
    db = _keyed()
    assert not db.execute("SELECT V FROM T WHERE K = 3").plan_cached
    result = db.execute("SELECT V FROM T WHERE K = 4")
    assert result.plan_cached
    assert sorted(result.rows) == [(4,), (1004,), (2004,)]
    assert not db.plan("SELECT V FROM T WHERE K = 4").value_dependent


_POINT = "SELECT PAD FROM T WHERE V = {}"


def test_create_and_drop_index_force_a_replan():
    db = _keyed()
    db.execute(_POINT.format(1))
    assert db.execute(_POINT.format(2)).plan_cached
    db.execute("CREATE INDEX T_V ON T (V)")
    after_create = db.execute(_POINT.format(3))
    assert not after_create.plan_cached
    assert after_create.rows == [("p" * 40,)]
    assert "index T_V" in db.explain(_POINT.format(4))
    assert db.execute(_POINT.format(4)).plan_cached
    db.execute("DROP INDEX T_V")
    assert not db.execute(_POINT.format(5)).plan_cached
    assert "segment scan" in db.explain(_POINT.format(6))


def test_update_statistics_forces_a_replan():
    db = _keyed()
    db.execute(_POINT.format(1))
    assert db.execute(_POINT.format(2)).plan_cached
    db.execute("UPDATE STATISTICS")
    assert not db.execute(_POINT.format(3)).plan_cached
    assert db.execute(_POINT.format(4)).plan_cached


def test_planning_inputs_are_part_of_the_key():
    db = _keyed()
    db.execute(_POINT.format(1))
    db.w = 0.5
    assert not db.execute(_POINT.format(2)).plan_cached
    db.use_interesting_orders = False
    assert not db.execute(_POINT.format(3)).plan_cached
    assert db.execute(_POINT.format(4)).plan_cached


def test_drop_table_gives_a_typed_error_not_a_stale_plan():
    db = _keyed()
    db.execute(_POINT.format(1))
    assert db.execute(_POINT.format(2)).plan_cached
    db.execute("DROP TABLE T")
    with pytest.raises(SemanticError, match="unknown table"):
        db.execute(_POINT.format(3))
    db.execute("CREATE TABLE T (K INTEGER, V INTEGER, PAD VARCHAR(40))")
    db.execute("INSERT INTO T VALUES (1, 3, 'again')")
    result = db.execute(_POINT.format(3))
    assert not result.plan_cached
    assert result.rows == [("again",)]


def test_drop_table_under_a_session():
    db = _keyed()
    with db.session() as session:
        session.execute(_POINT.format(1))
        assert session.execute(_POINT.format(2)).plan_cached
        session.execute("DROP TABLE T")
        with pytest.raises(ReproError):
            session.execute(_POINT.format(3))


# ---------------------------------------------------------------------------
# concurrency
# ---------------------------------------------------------------------------


def _run_threads(target: Callable[[int], None], count: int) -> None:
    """Run ``target(n)`` on ``count`` threads with frequent switches."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=target, args=(n,)) for n in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)


_SHARED_SHAPES: list[Callable[[int], str]] = [
    lambda i: f"SELECT NAME, SAL FROM EMP WHERE DNO = {i % 12 + 1}",
    lambda i: f"SELECT ENO FROM EMP WHERE JOB IN ({i % 5}, {i % 3 + 1}) AND SAL > {i * 7}",
    lambda i: (
        "SELECT NAME FROM EMP X WHERE SAL > "
        f"(SELECT AVG(SAL) FROM EMP WHERE DNO = X.DNO) + {i % 40}"
    ),
    lambda i: f"SELECT DNO, COUNT(*), MAX(SAL) FROM EMP WHERE SAL > {i * 11} GROUP BY DNO",
    lambda i: (
        "SELECT NAME, DNAME FROM EMP, DEPT WHERE EMP.DNO = DEPT.DNO "
        f"AND DEPT.DNO = {i % 12 + 1} ORDER BY NAME"
    ),
    lambda i: f"SELECT AID, BAL FROM ACCT WHERE AID = {i % 60}",
]


@pytest.mark.parametrize("exec_mode", ["fused", "compiled"])
def test_four_sessions_share_cached_plans(exec_mode):
    streams = [
        [shape(client * 100 + n) for n in range(12) for shape in _SHARED_SHAPES]
        for client in range(4)
    ]
    reference = _build(exec_mode)
    expected = []
    for stream in streams:
        expected.append([])
        for sql in stream:
            result = reference.execute(sql)
            expected[-1].append((result.columns, result.rows))
    db = _build(exec_mode)
    results: list[list] = [[] for __ in streams]
    failures: list[BaseException] = []
    gate = threading.Barrier(len(streams))

    def client(number: int) -> None:
        try:
            with db.session(f"client-{number}") as session:
                gate.wait()
                for sql in streams[number]:
                    result = session.execute(sql)
                    results[number].append((result.columns, result.rows))
        except BaseException as error:  # re-raised below
            failures.append(error)

    _run_threads(client, len(streams))
    assert not failures, failures
    assert results == expected
    assert db.statement_cache.hits >= sum(len(s) for s in streams) - 4 * len(_SHARED_SHAPES)


def test_concurrent_writers_share_cached_plans():
    db = _build()
    counts = [0] * 4

    def client(number: int) -> None:
        with db.session() as session:
            for n in range(15):
                aid = number * 15 + n
                session.execute(f"UPDATE ACCT SET BAL = BAL + {number + 1} WHERE AID = {aid}")
                counts[number] += 1

    _run_threads(client, 4)
    assert counts == [15] * 4
    rows = dict(db.execute("SELECT AID, BAL FROM ACCT").rows)
    assert rows == {aid: aid * 3 + aid // 15 + 1 for aid in range(60)}
