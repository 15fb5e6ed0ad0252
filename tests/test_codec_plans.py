"""Compiled record codecs, the temp-page writer and the one-pass slot
directory ≡ their reference counterparts, byte for byte.

- :class:`~repro.rss.tuples.EncodePlan` must produce exactly the bytes of
  :func:`~repro.rss.tuples.encode_tuple`, and :class:`DecodePlan` exactly
  the values of :func:`decode_tuple`, over random schemas with NULLs,
  empty and multi-byte strings, and fixed-width runs at the start, in the
  middle and at the end.
- :class:`~repro.rss.page.PageWriter` pages must equal pages built by
  ``Page.can_fit``/``Page.insert``, across page boundaries and up to a
  :class:`RecordTooLargeError`; a :class:`TempList` must leave the same
  pages and counters as the per-row ``can_fit``/``insert`` loop it
  replaced.
- ``Page.records`` and ``Page.can_fit`` must agree with per-slot
  reference loops on pages with deleted slots and after compaction.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import FLOAT, INTEGER, varchar
from repro.engine.rows import Row
from repro.engine.temp import TempList
from repro.errors import PageFullError, RecordTooLargeError, StorageError
from repro.rss import StorageEngine
from repro.rss.page import PAGE_SIZE, USABLE_PAGE_BYTES, Page, PageWriter
from repro.rss.tuples import DecodePlan, EncodePlan, decode_tuple, encode_tuple

# ---------------------------------------------------------------------------
# codecs
# ---------------------------------------------------------------------------

_TEXT = st.text(
    alphabet=st.sampled_from("aZ0 -éß€日本😀"), max_size=12
)


def _value(datatype):
    if datatype is INTEGER:
        return st.integers(-(2**63), 2**63 - 1)
    if datatype is FLOAT:
        return st.floats(allow_nan=True, allow_infinity=True)
    return _TEXT


@st.composite
def schema_and_values(draw):
    schema = draw(
        st.lists(st.sampled_from([INTEGER, FLOAT, varchar(12)]), max_size=20)
    )
    values = tuple(
        draw(st.none() | _value(datatype)) if draw(st.booleans()) else draw(_value(datatype))
        for datatype in schema
    )
    return schema, values


#: Fixed-width runs at the start, in the middle, at the end, alone, and
#: VARCHARs back to back.
RUN_SHAPES = [
    [INTEGER, FLOAT, varchar(10)],
    [varchar(10), INTEGER, FLOAT, INTEGER, varchar(10)],
    [varchar(10), varchar(10), FLOAT, INTEGER],
    [INTEGER] * 6 + [varchar(400)],
    [INTEGER, FLOAT, INTEGER],
    [varchar(10)],
    [],
]


@settings(max_examples=300, deadline=None)
@given(case=schema_and_values(), relation_id=st.integers(0, 2**16 - 1))
def test_plans_match_reference_codecs_on_random_schemas(case, relation_id):
    schema, values = case
    record = encode_tuple(relation_id, values, schema)
    assert EncodePlan(relation_id, schema).encode(values) == record
    # repr: NaN decodes to a fresh float that never compares equal
    assert repr(DecodePlan(schema).decode(record)) == repr(
        decode_tuple(record, schema)
    )


@pytest.mark.parametrize("schema", RUN_SHAPES, ids=str)
def test_plans_match_reference_on_every_null_pattern(schema):
    sample = {INTEGER: -(2**62), FLOAT: -0.0}
    encode = EncodePlan(7, schema).encode
    decode = DecodePlan(schema).decode
    for mask in range(2 ** len(schema)):
        values = tuple(
            None if mask >> position & 1 else sample.get(datatype, "ü€" * position)
            for position, datatype in enumerate(schema)
        )
        record = encode_tuple(7, values, schema)
        assert encode(values) == record
        assert decode(record) == decode_tuple(record, schema) == values


@pytest.mark.parametrize(
    "values",
    [
        (1, 2.0),  # wrong arity
        (1, 2.0, "x", 4),  # wrong arity
        ("x", 2.0, "y"),  # a string in an INTEGER column
        (1, 2.0, 3),  # an integer in a VARCHAR column
        (2**63, 2.0, "y"),  # out of INTEGER range
    ],
)
def test_encode_plan_raises_what_encode_tuple_raises(values):
    schema = [INTEGER, FLOAT, varchar(5)]
    with pytest.raises(Exception) as reference:
        encode_tuple(3, values, schema)
    with pytest.raises(reference.type):
        EncodePlan(3, schema).encode(values)
    if len(values) != len(schema):
        assert reference.type is StorageError


# ---------------------------------------------------------------------------
# append-only page writer
# ---------------------------------------------------------------------------


def _records(sizes):
    return [bytes([size % 251]) * size for size in sizes]


def _write_with_writer(records):
    """Pages from PageWriter, with a fresh page whenever one is full."""
    pages: list[Page] = []
    writer = None
    for record in records:
        if writer is None or not writer.append(record):
            pages.append(Page(len(pages)))
            writer = PageWriter(pages[-1])
            if not writer.append(record):
                raise RecordTooLargeError(len(record), USABLE_PAGE_BYTES)
    return pages


def _write_with_insert(records):
    """Pages from the reference ``can_fit``/``insert`` loop."""
    pages: list[Page] = []
    for record in records:
        if not pages or not pages[-1].can_fit(len(record)):
            pages.append(Page(len(pages)))
        pages[-1].insert(record)
    return pages


def _outcome(write, records):
    pages: list[Page] = []
    try:
        pages = write(records)
        error = None
    except RecordTooLargeError as caught:
        error = str(caught)
    return [bytes(page.data) for page in pages], error


@settings(max_examples=150, deadline=None)
@given(sizes=st.lists(st.integers(1, 1500), max_size=40))
def test_writer_pages_equal_insert_pages(sizes):
    records = _records(sizes)
    assert _outcome(_write_with_writer, records) == _outcome(
        _write_with_insert, records
    )


@pytest.mark.parametrize(
    "sizes",
    [
        [USABLE_PAGE_BYTES],  # exactly fills an empty page
        [USABLE_PAGE_BYTES + 1],  # can never be placed
        [100, USABLE_PAGE_BYTES - 100 - 4, 1],  # exact fill, then overflow
        [100, USABLE_PAGE_BYTES - 100 - 3, 1],  # one byte short
        [2000, 2000, USABLE_PAGE_BYTES + 1, 5],  # error after a boundary
    ],
)
def test_writer_page_boundaries(sizes):
    records = _records(sizes)
    writer_pages, writer_error = _outcome(_write_with_writer, records)
    insert_pages, insert_error = _outcome(_write_with_insert, records)
    assert writer_error == insert_error
    if writer_error is None:
        assert writer_pages == insert_pages


class _ReferenceTempList(TempList):
    """The per-row ``can_fit``/``insert`` loop TempList used to run."""

    def build(self, rows):
        for row in rows:
            flat = tuple(
                value
                for alias, datatypes in self._schema
                for value in (row.values.get(alias) or (None,) * len(datatypes))
            )
            datatypes = [d for __, ds in self._schema for d in ds]
            record = encode_tuple(0, flat, datatypes)
            page = self._tail
            if page is None or not page.can_fit(len(record)):
                page = self._storage.store.allocate_data_page(temp=True)
                self._page_ids.append(page.page_id)
                self._storage.buffer.fetch(page.page_id)
                self._tail = page
            page.insert(record)
            self._storage.counters.count_rsi_call()
            self.row_count += 1

    _tail = None


@settings(max_examples=40, deadline=None)
@given(
    lengths=st.lists(st.integers(0, 900) | st.none(), max_size=60),
    with_u=st.booleans(),
)
def test_temp_list_pages_and_counters_match_insert_loop(lengths, with_u):
    schema = [("T", [INTEGER, varchar(900)]), ("U", [FLOAT])]
    rows = [
        Row(
            values={"T": (i, None if n is None else "é" * (n // 2))}
            | ({"U": (i / 3,)} if with_u else {})
        )
        for i, n in enumerate(lengths)
    ]
    outcomes = []
    for cls in (TempList, _ReferenceTempList):
        storage = StorageEngine(buffer_pages=3)
        temp = cls(storage, schema)
        storage.counters.reset()
        half = len(rows) // 2
        temp.build(rows[:half])
        for row in rows[half:]:
            temp.append(row)
        pages = [bytes(storage.store.get(pid).data) for pid in temp._page_ids]
        counters = storage.counters.snapshot()
        scanned = [row.values for row in temp.scan()]
        outcomes.append(
            (
                pages,
                (counters.page_fetches, counters.rsi_calls, counters.buffer_hits),
                scanned,
                storage.counters.snapshot().rsi_calls,
            )
        )
        temp.drop()
    assert outcomes[0] == outcomes[1]


def test_temp_list_too_large_record_matches_insert_loop():
    schema = [("T", [varchar(5000)])]
    rows = [Row(values={"T": ("a" * 10,)}), Row(values={"T": ("b" * 4090,)})]
    outcomes = []
    for cls in (TempList, _ReferenceTempList):
        storage = StorageEngine()
        temp = cls(storage, schema)
        storage.counters.reset()
        with pytest.raises(RecordTooLargeError):
            temp.build(rows)
        counters = storage.counters.snapshot()
        outcomes.append(
            (
                [bytes(storage.store.get(pid).data) for pid in temp._page_ids],
                (counters.page_fetches, counters.rsi_calls),
                temp.row_count,
            )
        )
        temp.drop()
    assert outcomes[0] == outcomes[1]


# ---------------------------------------------------------------------------
# one-pass slot directory
# ---------------------------------------------------------------------------


def _reference_records(page):
    out = []
    for slot in range(page.slot_count):
        offset, length = page._slot(slot)
        if length:
            out.append((slot, bytes(page.data[offset : offset + length])))
    return out


def _reference_can_fit(page, size):
    slots = [page._slot(slot) for slot in range(page.slot_count)]
    has_empty = any(length == 0 for __, length in slots)
    needed = size + (0 if has_empty else 4)
    live = sum(length for __, length in slots)
    dead = page._header()[1] - 4 - live
    return page.free_space() + dead >= needed


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "compact", "update"]),
        st.integers(0, 400),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(ops=_OPS)
def test_records_and_can_fit_match_per_slot_loops(ops):
    page = Page(1)
    for op, n in ops:
        live = [slot for slot, __ in _reference_records(page)]
        if op == "insert":
            try:
                page.insert(bytes([n % 256]) * (n + 1))
            except PageFullError:
                pass
        elif op == "delete" and live:
            page.delete(live[n % len(live)])
        elif op == "update" and live:
            page.update(live[n % len(live)], b"u" * (n % 40 + 1))
        elif op == "compact":
            page.compact()
        assert list(page.records()) == _reference_records(page)
        # sizes straddling the fit boundary, where a reusable empty slot
        # (no new 4-byte slot entry) decides the answer
        room = page.free_space() + page._header()[1] - 4 - sum(
            len(record) for __, record in _reference_records(page)
        )
        for size in (1, n, PAGE_SIZE, *range(max(1, room - 6), room + 2)):
            assert page.can_fit(size) == _reference_can_fit(page, size)
