"""Unit tests for the SQL parser."""

import pytest

from repro.datatypes import TypeKind
from repro.errors import ParseError
from repro.rss.sargs import CompareOp
from repro.sql import ast, parse_statement


def parse_select(sql) -> ast.SelectQuery:
    statement = parse_statement(sql)
    assert isinstance(statement, ast.SelectQuery)
    return statement


class TestSelectBasics:
    def test_star(self):
        query = parse_select("SELECT * FROM EMP")
        assert query.is_star
        assert query.from_tables == (ast.TableRef("EMP", "EMP"),)

    def test_select_list(self):
        query = parse_select("SELECT NAME, SAL FROM EMP")
        assert len(query.select_items) == 2
        assert query.select_items[0].expr == ast.ColumnRef(None, "NAME")

    def test_alias_with_as(self):
        query = parse_select("SELECT SAL AS SALARY FROM EMP")
        assert query.select_items[0].alias == "SALARY"

    def test_alias_without_as(self):
        query = parse_select("SELECT SAL SALARY FROM EMP")
        assert query.select_items[0].alias == "SALARY"

    def test_table_alias(self):
        query = parse_select("SELECT * FROM EMPLOYEE X")
        assert query.from_tables == (ast.TableRef("EMPLOYEE", "X"),)

    def test_multiple_tables(self):
        query = parse_select("SELECT * FROM A, B, C")
        assert [t.table_name for t in query.from_tables] == ["A", "B", "C"]

    def test_distinct(self):
        assert parse_select("SELECT DISTINCT DNO FROM EMP").distinct

    def test_qualified_column(self):
        query = parse_select("SELECT EMP.DNO FROM EMP")
        assert query.select_items[0].expr == ast.ColumnRef("EMP", "DNO")


class TestWhere:
    def test_comparison_ops(self):
        for text, op in [
            ("=", CompareOp.EQ),
            ("<>", CompareOp.NE),
            ("<", CompareOp.LT),
            ("<=", CompareOp.LE),
            (">", CompareOp.GT),
            (">=", CompareOp.GE),
        ]:
            query = parse_select(f"SELECT * FROM T WHERE A {text} 5")
            assert isinstance(query.where, ast.Comparison)
            assert query.where.op is op

    def test_and_flattens(self):
        query = parse_select("SELECT * FROM T WHERE A=1 AND B=2 AND C=3")
        assert isinstance(query.where, ast.And)
        assert len(query.where.operands) == 3

    def test_or_binds_looser_than_and(self):
        query = parse_select("SELECT * FROM T WHERE A=1 AND B=2 OR C=3")
        assert isinstance(query.where, ast.Or)
        assert isinstance(query.where.operands[0], ast.And)

    def test_parenthesized(self):
        query = parse_select("SELECT * FROM T WHERE A=1 AND (B=2 OR C=3)")
        assert isinstance(query.where, ast.And)
        assert isinstance(query.where.operands[1], ast.Or)

    def test_not(self):
        query = parse_select("SELECT * FROM T WHERE NOT A=1")
        assert isinstance(query.where, ast.Not)

    def test_between(self):
        query = parse_select("SELECT * FROM T WHERE A BETWEEN 1 AND 10")
        where = query.where
        assert isinstance(where, ast.Between)
        assert where.low == ast.Literal(1, 0)
        assert where.high == ast.Literal(10, 1)
        assert query.params == (1, 10)

    def test_not_between(self):
        query = parse_select("SELECT * FROM T WHERE A NOT BETWEEN 1 AND 10")
        assert isinstance(query.where, ast.Not)
        assert isinstance(query.where.operand, ast.Between)

    def test_in_list(self):
        query = parse_select("SELECT * FROM T WHERE A IN (1, 2, 3)")
        where = query.where
        assert isinstance(where, ast.InList)
        assert [v.value for v in where.values] == [1, 2, 3]

    def test_in_list_negative_numbers(self):
        query = parse_select("SELECT * FROM T WHERE A IN (-1, 2)")
        assert [v.value for v in query.where.values] == [-1, 2]

    def test_not_in_list(self):
        query = parse_select("SELECT * FROM T WHERE A NOT IN (1)")
        assert isinstance(query.where, ast.Not)

    def test_is_null(self):
        query = parse_select("SELECT * FROM T WHERE A IS NULL")
        assert query.where == ast.IsNull(ast.ColumnRef(None, "A"), False)

    def test_is_not_null(self):
        query = parse_select("SELECT * FROM T WHERE A IS NOT NULL")
        assert query.where == ast.IsNull(ast.ColumnRef(None, "A"), True)

    def test_like(self):
        query = parse_select("SELECT * FROM T WHERE A LIKE 'x%'")
        assert query.where == ast.Like(ast.ColumnRef(None, "A"), "x%", False)

    def test_not_like(self):
        query = parse_select("SELECT * FROM T WHERE A NOT LIKE 'x%'")
        assert query.where.negated

    def test_arithmetic_precedence(self):
        query = parse_select("SELECT * FROM T WHERE A + 2 * 3 = 7")
        comparison = query.where
        add = comparison.left
        assert isinstance(add, ast.BinaryOp) and add.op == "+"
        assert isinstance(add.right, ast.BinaryOp) and add.right.op == "*"

    def test_unary_minus_folds_literals(self):
        query = parse_select("SELECT * FROM T WHERE A = -5")
        assert query.where.right == ast.Literal(-5, 0)
        assert query.params == (-5,)


class TestSubqueries:
    def test_scalar_subquery(self):
        query = parse_select(
            "SELECT * FROM T WHERE A = (SELECT MAX(A) FROM T)"
        )
        assert isinstance(query.where.right, ast.ScalarSubquery)

    def test_in_subquery(self):
        query = parse_select(
            "SELECT * FROM T WHERE A IN (SELECT B FROM S WHERE C = 1)"
        )
        assert isinstance(query.where, ast.InSubquery)
        assert isinstance(query.where.subquery, ast.SelectQuery)

    def test_nested_subqueries(self):
        query = parse_select(
            "SELECT NAME FROM E X WHERE S > "
            "(SELECT S FROM E WHERE N = (SELECT M FROM E WHERE N = X.M))"
        )
        outer_sub = query.where.right.subquery
        inner = outer_sub.where.right
        assert isinstance(inner, ast.ScalarSubquery)


class TestGroupOrder:
    def test_group_by(self):
        query = parse_select("SELECT DNO, AVG(SAL) FROM EMP GROUP BY DNO")
        assert query.group_by == (ast.ColumnRef(None, "DNO"),)

    def test_having(self):
        query = parse_select(
            "SELECT DNO FROM EMP GROUP BY DNO HAVING COUNT(*) > 3"
        )
        assert isinstance(query.having, ast.Comparison)

    def test_order_by_directions(self):
        query = parse_select("SELECT * FROM T ORDER BY A, B DESC, C ASC")
        assert [item.descending for item in query.order_by] == [
            False,
            True,
            False,
        ]

    def test_aggregates(self):
        query = parse_select(
            "SELECT COUNT(*), COUNT(DISTINCT A), AVG(B) FROM T"
        )
        count_star, count_distinct, avg = [
            item.expr for item in query.select_items
        ]
        assert count_star == ast.FuncCall("COUNT", None, False)
        assert count_distinct.distinct
        assert avg.name == "AVG"

    def test_count_star_only_for_count(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT AVG(*) FROM T")


class TestDdlDml:
    def test_create_table_types(self):
        statement = parse_statement(
            "CREATE TABLE T (A INTEGER, B INT, C FLOAT, D VARCHAR(7))"
        )
        kinds = [spec.datatype.kind for spec in statement.columns]
        assert kinds == [
            TypeKind.INTEGER,
            TypeKind.INTEGER,
            TypeKind.FLOAT,
            TypeKind.VARCHAR,
        ]
        assert statement.columns[3].datatype.length == 7

    def test_create_index_variants(self):
        plain = parse_statement("CREATE INDEX I ON T (A)")
        assert not plain.unique and not plain.clustered
        full = parse_statement("CREATE UNIQUE INDEX I ON T (A, B) CLUSTER")
        assert full.unique and full.clustered
        assert full.column_names == ("A", "B")

    def test_insert_multiple_rows(self):
        statement = parse_statement("INSERT INTO T VALUES (1, 'a'), (2, 'b')")
        assert len(statement.rows) == 2

    def test_insert_with_columns(self):
        statement = parse_statement("INSERT INTO T (B, A) VALUES ('x', 1)")
        assert statement.column_names == ("B", "A")

    def test_update(self):
        statement = parse_statement("UPDATE T SET A = A + 1, B = 2 WHERE C = 3")
        assert len(statement.assignments) == 2
        assert statement.where is not None

    def test_update_statistics(self):
        assert parse_statement("UPDATE STATISTICS").table_name is None
        assert parse_statement("UPDATE STATISTICS EMP").table_name == "EMP"

    def test_delete(self):
        statement = parse_statement("DELETE FROM T WHERE A = 1")
        assert statement.table_name == "T"

    def test_drop(self):
        assert parse_statement("DROP TABLE T").table_name == "T"
        assert parse_statement("DROP INDEX I").index_name == "I"


class TestParseErrors:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT",
            "SELECT * FROM",
            "SELECT * FROM T WHERE",
            "SELECT * T",
            "INSERT T VALUES (1)",
            "CREATE TABLE T ()",
            "CREATE TABLE T (A BLOB)",
            "CREATE UNIQUE TABLE T (A INTEGER)",
            "SELECT * FROM T WHERE A LIKE 5",
            "SELECT * FROM T WHERE A IN (B)",
            "SELECT * FROM T extra garbage (",
            "FOO BAR",
        ],
    )
    def test_rejects(self, sql):
        with pytest.raises(ParseError):
            parse_statement(sql)

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT * FROM T SELECT")
