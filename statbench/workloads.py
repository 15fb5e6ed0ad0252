"""Seeded data and statement sequences for the benchmark's three workloads.

Everything here is plain Python: the database under test only ever sees
the generated rows (through the bulk loader) and the generated SQL text.
The same seed always yields the same tables and the same statements.

Each workload's statement stream is built from fixed blocks of twenty
templates, shuffled within the block.  The seed picks the constants and
the order inside each block, never the template mix, so the share of each
statement kind is identical across seeds and run-to-run spread comes from
timing, not from a different mix.
"""

from __future__ import annotations

import bisect
import itertools
import os
import random
from dataclasses import dataclass, field

#: Statements per block; every template list below has this many entries.
BLOCK = 20


@dataclass(frozen=True)
class Stmt:
    """One generated SQL statement."""

    sql: str
    #: ``"read"`` (SELECT) or ``"write"`` (INSERT/UPDATE/DELETE).
    kind: str
    template: str
    #: Output positions the statement's ORDER BY sorts on, in order.
    order_keys: tuple[int, ...] = ()
    #: The account a ``serving-mixed`` read or increment touches.
    key: int | None = None


@dataclass
class Table:
    """A table's DDL, its rows, and the indexes built after loading."""

    name: str
    columns: list[tuple[str, str]]
    rows: list[tuple]
    indexes: list[str] = field(default_factory=list)

    def create_sql(self) -> str:
        columns = ", ".join(f"{name} {kind}" for name, kind in self.columns)
        return f"CREATE TABLE {self.name} ({columns})"


@dataclass
class Workload:
    """A named workload: its tables and one statement stream per client."""

    name: str
    tables: list[Table]
    streams: list[list[Stmt]]
    #: Durable (file-backed, fsync per commit) instead of in-memory.
    durable: bool = False

    @property
    def clients(self) -> int:
        return len(self.streams)

    def statements(self) -> list[Stmt]:
        return [stmt for stream in self.streams for stmt in stream]


class Zipf:
    """Draws keys from ``keys`` with rank ``r`` weighted ``1 / r**exponent``.

    The seed shuffles which key holds which rank, so hot keys differ
    between seeds while the popularity curve stays the same.
    """

    def __init__(self, keys: list[int], exponent: float, rng: random.Random):
        self._keys = list(keys)
        rng.shuffle(self._keys)
        self._cumulative = list(
            itertools.accumulate(
                1.0 / rank**exponent for rank in range(1, len(self._keys) + 1)
            )
        )

    def draw(self, rng: random.Random) -> int:
        point = rng.random() * self._cumulative[-1]
        return self._keys[bisect.bisect_left(self._cumulative, point)]


def _blocks(count: int, templates: list[str], rng: random.Random):
    """``count`` template names: whole shuffled blocks, then a partial one."""
    assert len(templates) == BLOCK
    names: list[str] = []
    while len(names) < count:
        block = list(templates)
        rng.shuffle(block)
        names.extend(block)
    return names[:count]


def _even(count: int, domain: int, rng: random.Random, low: int = 0) -> list[int]:
    """``count`` values over ``[low, low + domain)``, each equally often.

    Only the order depends on the seed, so the value counts -- and with
    them the statistics and plans -- are the same for every seed.
    """
    values = [low + number % domain for number in range(count)]
    rng.shuffle(values)
    return values


def _scaled(rows: int, scale: float, floor: int = 5) -> int:
    return max(floor, int(rows * scale))


# -- point-lookup ---------------------------------------------------------------

#: Statement executions per second each workload is sized for.  A run of
#: ``--seconds`` executes this many times the seconds, divided evenly
#: among its untraced replicas, and takes about that long on a 2-CPU host
#: with Python 3.11, set-ups and checks aside.  A 40-second join-report
#: run over six replicas has 567 statements, 58 of them writes: enough
#: for a p75 write tail.
POINT_LOOKUP_RATE = 300
JOIN_REPORT_RATE = 85
SERVING_MIXED_RATE = 580

_POINT_TEMPLATES = (
    ["fact_point"] * 10
    + ["dim_point"] * 2
    + ["star6"]
    + ["range_index_order", "range_index_order", "range_sorted"]
    + ["update_qty", "update_qty", "insert_fact"]
    + ["fact_point"]
)

_STAR_DIMENSIONS = 6


def point_lookup(seed: int, statements: int, scale: float = 1.0) -> Workload:
    """Star schema several times the 64-page buffer pool; OLTP-style mix.

    Unique-key point reads with Zipf key popularity, 6-way star lookups
    keyed on one FACT row, short index ranges with ORDER BY and 15%
    single-row writes.  Parsing and planning dominate.
    """
    rng = random.Random(seed)
    fact_rows = _scaled(8000, scale, floor=40)
    dim_sizes = [_scaled(size, scale) for size in (40, 60, 90, 120, 200, 300)]
    dims = []
    for number, size in enumerate(dim_sizes, start=1):
        dims.append(
            Table(
                name=f"DIM{number}",
                columns=[
                    ("DKEY", "INTEGER"),
                    ("ATTR", "INTEGER"),
                    ("NAME", "VARCHAR(16)"),
                ],
                rows=[
                    (key, attr, f"d{number}-{key}")
                    for key, attr in enumerate(_even(size, 12, rng))
                ],
                indexes=[
                    f"CREATE UNIQUE INDEX DIM{number}_PK ON DIM{number} (DKEY)"
                ],
            )
        )
    fact_columns = [("FID", "INTEGER")]
    fact_columns += [
        (f"FK{number}", "INTEGER") for number in range(1, _STAR_DIMENSIONS + 1)
    ]
    fact_columns += [("QTY", "INTEGER"), ("PAD", "VARCHAR(40)")]

    def fact_row(fid: int, keys, qty: int) -> tuple:
        return (fid, *keys, qty, f"fact-{fid:07d}-" + "x" * 20)

    foreign_keys = zip(*(_even(fact_rows, size, rng) for size in dim_sizes))
    fact = Table(
        name="FACT",
        columns=fact_columns,
        rows=[
            fact_row(fid, keys, qty)
            for fid, keys, qty in zip(
                range(fact_rows), foreign_keys, _even(fact_rows, 100, rng)
            )
        ],
        indexes=[
            "CREATE UNIQUE INDEX FACT_PK ON FACT (FID)",
            "CREATE INDEX FACT_FK1 ON FACT (FK1)",
        ],
    )
    popular = Zipf(list(range(fact_rows)), 1.1, rng)
    next_fid = fact_rows
    star_select = ", ".join(
        f"DIM{number}.NAME" for number in range(1, _STAR_DIMENSIONS + 1)
    )
    star_from = ", ".join(
        f"DIM{number}" for number in range(1, _STAR_DIMENSIONS + 1)
    )
    star_join = " AND ".join(
        f"FACT.FK{number} = DIM{number}.DKEY"
        for number in range(1, _STAR_DIMENSIONS + 1)
    )
    stream: list[Stmt] = []
    for template in _blocks(statements, _POINT_TEMPLATES, rng):
        if template == "fact_point":
            sql = (
                "SELECT FID, FK1, QTY FROM FACT "
                f"WHERE FID = {popular.draw(rng)}"
            )
            stream.append(Stmt(sql, "read", template))
        elif template == "dim_point":
            number = rng.randrange(1, _STAR_DIMENSIONS + 1)
            key = rng.randrange(dim_sizes[number - 1])
            sql = f"SELECT DKEY, ATTR, NAME FROM DIM{number} WHERE DKEY = {key}"
            stream.append(Stmt(sql, "read", template))
        elif template == "star6":
            sql = (
                f"SELECT FACT.FID, FACT.QTY, {star_select} "
                f"FROM FACT, {star_from} "
                f"WHERE FACT.FID = {popular.draw(rng)} AND {star_join}"
            )
            stream.append(Stmt(sql, "read", template))
        elif template == "range_index_order":
            low = rng.randrange(fact_rows)
            sql = (
                "SELECT FID, QTY FROM FACT "
                f"WHERE FID BETWEEN {low} AND {low + 15} ORDER BY FID"
            )
            stream.append(Stmt(sql, "read", template, (0,)))
        elif template == "range_sorted":
            low = rng.randrange(fact_rows)
            sql = (
                "SELECT FID, FK2, QTY FROM FACT "
                f"WHERE FID BETWEEN {low} AND {low + 15} "
                "ORDER BY QTY DESC, FID"
            )
            stream.append(Stmt(sql, "read", template, (2, 0)))
        elif template == "update_qty":
            sql = f"UPDATE FACT SET QTY = QTY + 1 WHERE FID = {popular.draw(rng)}"
            stream.append(Stmt(sql, "write", template))
        else:
            row = fact_row(
                next_fid,
                [rng.randrange(size) for size in dim_sizes],
                rng.randrange(100),
            )
            values = ", ".join(_sql_literal(value) for value in row)
            next_fid += 1
            sql = f"INSERT INTO FACT VALUES ({values})"
            stream.append(Stmt(sql, "write", template))
    return Workload("point-lookup", dims + [fact], [stream])


# -- join-report ----------------------------------------------------------------

_JOIN_TEMPLATES = [
    "star3_sel1",
    "star3_sel2",
    "star4_sel2",
    "star4_sel1",
    "chain3_sel0",
    "chain4_sel1",
    "chain4_sel2",
    "chain5_sel2",
    "chain5_sel1",
    "group_store",
    "group_category",
    "group_range",
    "order_price",
    "order_qty",
    "order_customer",
    "correlated",
    "correlated",
    "star4_sel1",
    "rollup",
    "rollup",
]


def join_report(seed: int, statements: int, scale: float = 1.0) -> Workload:
    """Sales star plus a region/nation/customer chain, about twice the pool.

    Star and chain joins of 3-5 relations with 0-2 equality selections,
    GROUP BY and ORDER BY over the fact table (external sort into temp
    relations), a correlated subquery (§6) and 10% INSERT ... SELECT
    rollups -- two per block, so a run has enough writes for a write tail.
    Execution and the storage system dominate.
    """
    rng = random.Random(seed)
    sales_rows = _scaled(1000, scale, floor=40)
    customers = _scaled(300, scale)
    products = _scaled(80, scale)
    stores = _scaled(20, scale)
    regions, nations, categories, cities, segments = 5, 25, 8, 6, 5
    tables = [
        Table(
            "REGION",
            [("RID", "INTEGER"), ("RNAME", "VARCHAR(12)")],
            [(rid, f"R{rid}") for rid in range(regions)],
            ["CREATE UNIQUE INDEX REGION_PK ON REGION (RID)"],
        ),
        Table(
            "NATION",
            [("NID", "INTEGER"), ("RID", "INTEGER"), ("NNAME", "VARCHAR(12)")],
            [(nid, nid % regions, f"N{nid}") for nid in range(nations)],
            [
                "CREATE UNIQUE INDEX NATION_PK ON NATION (NID)",
                "CREATE INDEX NATION_RID ON NATION (RID)",
            ],
        ),
        Table(
            "CUSTOMER",
            [
                ("CID", "INTEGER"),
                ("NID", "INTEGER"),
                ("SEG", "INTEGER"),
                ("CNAME", "VARCHAR(16)"),
            ],
            [
                (cid, nid, seg, f"C{cid}")
                for cid, nid, seg in zip(
                    range(customers),
                    _even(customers, nations, rng),
                    _even(customers, segments, rng),
                )
            ],
            [
                "CREATE UNIQUE INDEX CUSTOMER_PK ON CUSTOMER (CID)",
                "CREATE INDEX CUSTOMER_NID ON CUSTOMER (NID)",
            ],
        ),
        Table(
            "PRODUCT",
            [
                ("PID", "INTEGER"),
                ("CAT", "INTEGER"),
                ("BRAND", "INTEGER"),
                ("PNAME", "VARCHAR(16)"),
            ],
            [
                (pid, cat, brand, f"P{pid}")
                for pid, cat, brand in zip(
                    range(products),
                    _even(products, categories, rng),
                    _even(products, 20, rng),
                )
            ],
            [
                "CREATE UNIQUE INDEX PRODUCT_PK ON PRODUCT (PID)",
                "CREATE INDEX PRODUCT_CAT ON PRODUCT (CAT)",
            ],
        ),
        Table(
            "STORE",
            [("STID", "INTEGER"), ("CITY", "INTEGER"), ("SNAME", "VARCHAR(12)")],
            [
                (stid, city, f"S{stid}")
                for stid, city in enumerate(_even(stores, cities, rng))
            ],
            ["CREATE UNIQUE INDEX STORE_PK ON STORE (STID)"],
        ),
        Table(
            "SALES",
            [
                ("SID", "INTEGER"),
                ("CID", "INTEGER"),
                ("PID", "INTEGER"),
                ("STID", "INTEGER"),
                ("QTY", "INTEGER"),
                ("PRICE", "INTEGER"),
                ("PAD", "VARCHAR(400)"),
            ],
            [
                (sid, *values, f"sale-{sid:07d}-" + "y" * 360)
                for sid, values in enumerate(
                    zip(
                        _even(sales_rows, customers, rng),
                        _even(sales_rows, products, rng),
                        _even(sales_rows, stores, rng),
                        _even(sales_rows, 19, rng, low=1),
                        _even(sales_rows, 499, rng, low=1),
                    )
                )
            ],
            [
                "CREATE UNIQUE INDEX SALES_PK ON SALES (SID)",
                "CREATE INDEX SALES_CID ON SALES (CID)",
                "CREATE INDEX SALES_PID ON SALES (PID)",
            ],
        ),
        Table(
            "SUMMARY",
            [
                ("BATCH", "INTEGER"),
                ("CAT", "INTEGER"),
                ("TOTAL", "INTEGER"),
                ("N", "INTEGER"),
            ],
            [],
        ),
    ]
    star3 = (
        "SELECT SALES.SID, PRODUCT.PNAME, STORE.SNAME "
        "FROM SALES, PRODUCT, STORE "
        "WHERE SALES.PID = PRODUCT.PID AND SALES.STID = STORE.STID"
    )
    star4 = (
        "SELECT SALES.SID, PRODUCT.PNAME, STORE.SNAME, CUSTOMER.CNAME "
        "FROM SALES, PRODUCT, STORE, CUSTOMER "
        "WHERE SALES.PID = PRODUCT.PID AND SALES.STID = STORE.STID "
        "AND SALES.CID = CUSTOMER.CID"
    )
    chain3 = (
        "SELECT CUSTOMER.CID, NATION.NNAME, REGION.RNAME "
        "FROM CUSTOMER, NATION, REGION "
        "WHERE CUSTOMER.NID = NATION.NID AND NATION.RID = REGION.RID"
    )
    chain4 = (
        "SELECT SALES.SID, CUSTOMER.CNAME, NATION.NNAME "
        "FROM SALES, CUSTOMER, NATION, REGION "
        "WHERE SALES.CID = CUSTOMER.CID AND CUSTOMER.NID = NATION.NID "
        "AND NATION.RID = REGION.RID"
    )
    chain5 = (
        "SELECT SALES.SID, PRODUCT.PNAME, NATION.NNAME "
        "FROM REGION, NATION, CUSTOMER, SALES, PRODUCT "
        "WHERE SALES.CID = CUSTOMER.CID AND CUSTOMER.NID = NATION.NID "
        "AND NATION.RID = REGION.RID AND SALES.PID = PRODUCT.PID"
    )

    def sel(column: str, domain: int) -> str:
        return f" AND {column} = {rng.randrange(domain)}"

    stream: list[Stmt] = []
    batch = 0
    for template in _blocks(statements, _JOIN_TEMPLATES, rng):
        order: tuple[int, ...] = ()
        if template == "star3_sel1":
            sql = star3 + sel("PRODUCT.CAT", categories)
        elif template == "star3_sel2":
            sql = star3 + sel("PRODUCT.CAT", categories) + sel("STORE.CITY", cities)
        elif template == "star4_sel1":
            sql = star4 + sel("SALES.STID", stores)
        elif template == "star4_sel2":
            sql = star4 + sel("CUSTOMER.SEG", segments) + sel("SALES.STID", stores)
        elif template == "chain3_sel0":
            sql = chain3
        elif template == "chain4_sel1":
            sql = chain4 + sel("REGION.RID", regions)
        elif template == "chain4_sel2":
            sql = chain4 + sel("REGION.RID", regions) + sel("CUSTOMER.SEG", segments)
        elif template == "chain5_sel1":
            sql = chain5 + sel("NATION.NID", nations)
        elif template == "chain5_sel2":
            sql = chain5 + sel("REGION.RID", regions) + sel("PRODUCT.CAT", categories)
        elif template == "group_store":
            sql = (
                "SELECT STID, SUM(QTY), COUNT(*), MAX(PRICE) FROM SALES "
                f"WHERE PRICE > {rng.randrange(100, 300)} "
                "GROUP BY STID ORDER BY STID"
            )
            order = (0,)
        elif template == "group_category":
            sql = (
                "SELECT PRODUCT.CAT, SUM(SALES.QTY), COUNT(*) "
                "FROM SALES, PRODUCT WHERE SALES.PID = PRODUCT.PID "
                f"AND SALES.STID = {rng.randrange(stores)} "
                "GROUP BY PRODUCT.CAT ORDER BY PRODUCT.CAT"
            )
            order = (0,)
        elif template == "group_range":
            low = rng.randrange(max(1, sales_rows - 300))
            sql = (
                "SELECT CID, SUM(PRICE), MIN(QTY) FROM SALES "
                f"WHERE SID BETWEEN {low} AND {low + 300} "
                "GROUP BY CID ORDER BY CID"
            )
            order = (0,)
        elif template == "order_price":
            sql = (
                "SELECT SID, PRICE, QTY FROM SALES "
                f"WHERE PRICE > {rng.randrange(400, 480)} "
                "ORDER BY PRICE DESC, SID"
            )
            order = (1, 0)
        elif template == "order_qty":
            sql = (
                "SELECT SID, QTY, PRICE FROM SALES "
                f"WHERE QTY = {rng.randrange(1, 20)} ORDER BY PRICE, SID"
            )
            order = (2, 0)
        elif template == "order_customer":
            sql = (
                "SELECT SALES.SID, SALES.CID, CUSTOMER.CNAME "
                "FROM SALES, CUSTOMER WHERE SALES.CID = CUSTOMER.CID "
                f"AND CUSTOMER.NID = {rng.randrange(nations)} "
                "ORDER BY SALES.CID, SALES.SID"
            )
            order = (1, 0)
        elif template == "correlated":
            sql = (
                "SELECT P.PID, P.PNAME FROM PRODUCT P "
                f"WHERE P.CAT = {rng.randrange(categories)} "
                f"AND {rng.randrange(10, 25)} < "
                "(SELECT COUNT(*) FROM SALES S WHERE S.PID = P.PID)"
            )
        else:
            batch += 1
            sql = (
                f"INSERT INTO SUMMARY SELECT {batch}, PRODUCT.CAT, "
                "SUM(SALES.QTY), COUNT(*) FROM SALES, PRODUCT "
                "WHERE SALES.PID = PRODUCT.PID "
                f"AND SALES.STID = {rng.randrange(stores)} "
                "GROUP BY PRODUCT.CAT"
            )
        kind = "write" if template == "rollup" else "read"
        stream.append(Stmt(sql, kind, template, order))
    return Workload("join-report", tables, [stream])


# -- serving-mixed ----------------------------------------------------------------

_SERVING_TEMPLATES = ["read"] * 14 + ["increment"] * 5 + ["insert"]

#: First account id handed to each client's inserts; clients never collide.
_INSERT_BASE = 1_000_000


def serving_mixed(seed: int, statements: int, scale: float = 1.0) -> Workload:
    """A durable accounts table that fits the buffer pool, two sessions.

    70% point reads, 25% ``BAL = BAL + 1`` increments by key and 5%
    inserts, closed loop per client.  The only workload with snapshot
    pins, fsync'd page-table flips and writer contention.
    """
    rng = random.Random(seed)
    accounts = _scaled(3000, scale, floor=20)
    table = Table(
        "ACCOUNTS",
        [
            ("AID", "INTEGER"),
            ("OWNER", "INTEGER"),
            ("BAL", "INTEGER"),
            ("NOTE", "VARCHAR(20)"),
        ],
        [
            (aid, rng.randrange(97), rng.randrange(1000), f"acct-{aid}")
            for aid in range(accounts)
        ],
        ["CREATE UNIQUE INDEX ACCOUNTS_PK ON ACCOUNTS (AID)"],
    )
    # Two clients, but never more client threads than CPUs.
    clients = min(2, os.cpu_count() or 1)
    per_client = max(1, statements // clients)
    streams = []
    for client in range(clients):
        next_aid = _INSERT_BASE * (client + 1)
        stream = []
        for template in _blocks(per_client, _SERVING_TEMPLATES, rng):
            key = rng.randrange(accounts)
            if template == "read":
                sql = f"SELECT AID, OWNER, BAL FROM ACCOUNTS WHERE AID = {key}"
                stream.append(Stmt(sql, "read", template, key=key))
            elif template == "increment":
                sql = f"UPDATE ACCOUNTS SET BAL = BAL + 1 WHERE AID = {key}"
                stream.append(Stmt(sql, "write", template, key=key))
            else:
                sql = (
                    f"INSERT INTO ACCOUNTS VALUES ({next_aid}, "
                    f"{rng.randrange(97)}, 0, 'new-{next_aid}')"
                )
                next_aid += 1
                stream.append(Stmt(sql, "write", template))
        streams.append(stream)
    return Workload("serving-mixed", [table], streams, durable=True)


def _sql_literal(value: object) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return repr(value)


#: Workload name -> (builder, nominal statements per second).
WORKLOADS = {
    "point-lookup": (point_lookup, POINT_LOOKUP_RATE),
    "join-report": (join_report, JOIN_REPORT_RATE),
    "serving-mixed": (serving_mixed, SERVING_MIXED_RATE),
}


def build(name: str, seed: int, seconds: float, scale: float = 1.0) -> Workload:
    """The named workload with ``seconds`` worth of statements at its rate."""
    builder, rate = WORKLOADS[name]
    return builder(seed, max(BLOCK, round(rate * seconds)), scale)
