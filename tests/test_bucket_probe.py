"""The fused nested-loop driver's bucketed probe ≡ the per-probe inner scan.

A nested-loop join whose inner is a segment scan with an all-equality
probe SARG answers each probe from buckets built once per statement and
replays the scan's page fetches (``engine/probe.py``).  Over the
``repro check --fusion`` nested-loop corpus — NULL, duplicate, two-column,
FLOAT-with-NaN and VARCHAR keys, a leftover non-equality SARG, inner and
join residuals, an empty outer, and a correlated subquery that must fall
back to per-probe scans — the interpreted, compiled, fused and
``parallel:2`` engines must return the same rows in the same order with
the same page fetches, RSI calls, buffer hits and subquery cadence.
``INSERT INTO T SELECT ... FROM T, U`` with ``T`` as the bucketed inner
must insert the same rows and leave the same counters in every mode.
"""

from __future__ import annotations

import pytest

from repro.analysis.check import (
    BUCKETED,
    PER_PROBE_SCAN,
    _audit_fused_query,
    nested_loop_corpus,
)
from repro.analysis.storage_check import logical_dump, verify_storage
from repro.engine.fuse import describe_chains

_DB, _QUERIES = nested_loop_corpus()


@pytest.mark.parametrize("sql,path", _QUERIES, ids=[sql for sql, __ in _QUERIES])
def test_every_mode_agrees_on_rows_order_and_counters(sql, path):
    violations: list = []
    _audit_fused_query(_DB, sql, violations, workers=2)
    assert violations == []
    chains = describe_chains(_DB.plan(sql).root)
    assert any(path in chain for chain in chains), chains


def test_corpus_covers_both_probe_paths():
    paths = {path for __, path in _QUERIES}
    assert paths == {BUCKETED, PER_PROBE_SCAN}
    assert all(_DB.execute(sql).rows for sql, __ in _QUERIES if "50" not in sql)


def test_empty_outer_never_builds_buckets(monkeypatch):
    from repro.engine import probe

    built = []
    original = probe.BucketProbe.build

    def counting_build(self, ctx):
        built.append(self)
        return original(self, ctx)

    monkeypatch.setattr(probe.BucketProbe, "build", counting_build)
    sql = "SELECT T.A, U.Y FROM T, U WHERE T.A = U.X AND U.Y > 50"
    assert _DB.execute(sql).rows == []
    assert built == []
    _DB.execute("SELECT T.A, U.Y FROM T, U WHERE T.A = U.X AND U.Y > 1")
    assert len(built) == 1


INSERT_SELECT = "INSERT INTO T SELECT U.X, T.B, T.C, U.W FROM T, U WHERE T.A = U.X AND U.Y = 1"


def test_insert_select_with_the_target_as_bucketed_inner():
    select = INSERT_SELECT.split(" ", 3)[3]
    plan = nested_loop_corpus()[0].plan(select)
    assert "nested-loop join (bucketed probe T)" in describe_chains(plan.root)
    outcomes = {}
    for mode in ("interp", "compiled", "fused", "parallel:2"):
        db, __ = nested_loop_corpus()
        db.exec_mode = mode
        db.storage.cold_cache()
        before = db.counters.snapshot()
        affected = db.execute(INSERT_SELECT).affected_rows
        delta = before.delta(db.counters)
        assert verify_storage(db) == []
        outcomes[mode] = (
            affected,
            (delta.page_fetches, delta.rsi_calls, delta.buffer_hits),
            # repr: the corpus stores NaN, which never compares equal
            repr(logical_dump(db)),
        )
    reference = outcomes["interp"]
    assert reference[0] > 0
    for mode, outcome in outcomes.items():
        assert outcome == reference, mode


def test_session_snapshot_reads_take_the_same_probe_trace():
    """A session's snapshot storage replays fetches through the shared
    pool exactly like the database's own storage."""
    sql, __ = _QUERIES[2]
    db, ___ = nested_loop_corpus()
    outcomes = []
    for run in (db.execute, db.session("reader").execute):
        db.storage.cold_cache()
        before = db.counters.snapshot()
        rows = run(sql).rows
        delta = before.delta(db.counters)
        outcomes.append(
            (rows, (delta.page_fetches, delta.rsi_calls, delta.buffer_hits))
        )
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0]
