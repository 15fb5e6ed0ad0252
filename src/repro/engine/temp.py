"""Temporary lists: sorted intermediates with real page accounting.

System R sorts into a "temporary list, an internal form which is more
efficient than a relation but which can only be accessed sequentially".
Here a temp list is a private run of real pages: building it writes every
row (one RSI call per insert, page fetches through the buffer pool), and
scanning it back reads the pages sequentially (one RSI call per row), so
sort costs are measured in the same currency the cost model predicts.

Because a temp list is only ever appended to, rows go through a compiled
:class:`~repro.rss.tuples.EncodePlan` into a
:class:`~repro.rss.page.PageWriter` — no slot-directory scans — and come
back one page at a time through a :class:`~repro.rss.tuples.DecodePlan`.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from ..datatypes import DataType
from ..errors import RecordTooLargeError
from ..rss.page import USABLE_PAGE_BYTES, Page, PageWriter
from ..rss.storage import StorageEngine
from ..rss.tuples import DecodePlan, EncodePlan
from .rows import Row

#: Relation id tag used for temp records (never a real relation id).
_TEMP_RELATION_ID = 0

Schema = list[tuple[str, list[DataType]]]


class TempList:  # concurrency: statement-scoped
    """A materialized, sequentially readable list of composite rows."""

    def __init__(self, storage: StorageEngine, schema: Schema):
        self._storage = storage
        self._schema = schema
        datatypes = [datatype for __, datatypes in schema for datatype in datatypes]
        self._encode = EncodePlan(_TEMP_RELATION_ID, datatypes).encode
        self._decode = DecodePlan(datatypes).decode
        self._flatten = _flattener(schema)
        self._unflatten = _unflattener(schema)
        self._page_ids: list[int] = []
        self._writer: PageWriter | None = None
        self.row_count = 0

    def append(self, row: Row) -> None:
        """Write one row (counted: page fetch on new page, one RSI call)."""
        self.build((row,))

    def build(self, rows: Iterable[Row]) -> None:
        """Write rows in order (counted: one page fetch per new page, one
        RSI call per row written).

        A new page is allocated and fetched exactly when a row does not
        fit on the tail page, at the same point in the input stream as a
        per-row ``can_fit``/``insert`` loop would, so input pulled lazily
        from other temp lists (a merge) interleaves its page traffic
        identically.
        """
        encode = self._encode
        flatten = self._flatten
        writer = self._writer
        written = 0
        try:
            for row in rows:
                record = encode(flatten(row))
                if writer is None or not writer.append(record):
                    writer = self._new_page()
                    if not writer.append(record):
                        raise RecordTooLargeError(len(record), USABLE_PAGE_BYTES)
                written += 1
        finally:
            self._writer = writer
            self.row_count += written
            self._storage.counters.count_rsi_call(written)

    def scan(self) -> Iterator[Row]:
        """Sequential read-back (counted: pages + one RSI per row).

        Each page decodes whole when it is fetched; RSI calls are charged
        per row as rows are pulled, so a consumer that stops early (a
        merge-join inner over a sort) is charged only for what it took.
        """
        fetch = self._storage.buffer.fetch
        count_rsi = self._storage.counters.count_rsi_call
        decode = self._decode
        unflatten = self._unflatten
        for page_id in self._page_ids:
            page = fetch(page_id)
            assert isinstance(page, Page)
            data = page.data
            rows = [
                unflatten(decode(data[offset : offset + length]))
                for offset, length in page.slot_directory()
            ]
            for row in rows:
                count_rsi()
                yield row

    def page_count(self) -> int:
        """Number of pages currently allocated."""
        return len(self._page_ids)

    def drop(self) -> None:
        """Free the temp pages (idempotent)."""
        for page_id in self._page_ids:
            self._storage.buffer.invalidate(page_id)
            self._storage.store.free(page_id)
        self._page_ids.clear()
        self._writer = None

    def _new_page(self) -> PageWriter:
        page = self._storage.store.allocate_data_page(temp=True)
        self._page_ids.append(page.page_id)
        self._storage.buffer.fetch(page.page_id)
        return PageWriter(page)


def _flattener(schema: Schema) -> Callable[[Row], tuple]:
    """A row's alias tuples concatenated in schema order; an alias the row
    lacks contributes NULLs."""
    pads = tuple((alias, (None,) * len(datatypes)) for alias, datatypes in schema)
    if len(pads) == 1:
        ((alias, pad),) = pads

        def flatten_one(row: Row) -> tuple:
            values = row.values.get(alias)
            return pad if values is None else values

        return flatten_one

    def flatten(row: Row) -> tuple:
        get = row.values.get
        flat: tuple = ()
        for alias, pad in pads:
            values = get(alias)
            flat += pad if values is None else values
        return flat

    return flatten


def _unflattener(schema: Schema) -> Callable[[tuple], Row]:
    """The inverse of :func:`_flattener`: split a flat tuple per alias."""
    if len(schema) == 1:
        alias = schema[0][0]

        def unflatten_one(flat: tuple) -> Row:
            return Row(values={alias: flat})

        return unflatten_one
    spans = []
    offset = 0
    for alias, datatypes in schema:
        spans.append((alias, offset, offset + len(datatypes)))
        offset += len(datatypes)

    def unflatten(flat: tuple) -> Row:
        return Row(values={alias: flat[lo:hi] for alias, lo, hi in spans})

    return unflatten
