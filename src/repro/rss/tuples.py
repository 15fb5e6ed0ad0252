"""Byte-level tuple serialization.

A stored tuple is a contiguous byte record inside a slotted page:

====================  =====================================================
bytes                 meaning
====================  =====================================================
``u16``               relation id (segments interleave relations, so every
                      record is tagged with the relation it belongs to)
``ceil(ncols/8)``     null bitmap, bit *i* set when column *i* is NULL
per column            8-byte big-endian signed int / IEEE double, or a
                      2-byte length followed by UTF-8 bytes for VARCHAR
====================  =====================================================

NULL columns occupy no payload bytes beyond their bitmap bit.
"""

from __future__ import annotations

import struct
from typing import Callable

from ..datatypes import DataType, TypeKind
from ..errors import StorageError

_U16 = struct.Struct(">H")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")


def encode_tuple(relation_id: int, values: tuple, datatypes: list[DataType]) -> bytes:
    """Serialize ``values`` (already validated) into a page record."""
    if len(values) != len(datatypes):
        raise StorageError(
            f"tuple has {len(values)} values but schema has {len(datatypes)}"
        )
    bitmap_size = (len(datatypes) + 7) // 8
    bitmap = bytearray(bitmap_size)
    parts: list[bytes] = []
    for position, (value, datatype) in enumerate(zip(values, datatypes)):
        if value is None:
            bitmap[position // 8] |= 1 << (position % 8)
            continue
        if datatype.kind is TypeKind.INTEGER:
            parts.append(_I64.pack(value))
        elif datatype.kind is TypeKind.FLOAT:
            parts.append(_F64.pack(value))
        else:
            raw = value.encode("utf-8")
            parts.append(_U16.pack(len(raw)))
            parts.append(raw)
    return _U16.pack(relation_id) + bytes(bitmap) + b"".join(parts)


def decode_tuple(record: bytes, datatypes: list[DataType]) -> tuple:
    """Deserialize a page record produced by :func:`encode_tuple`.

    The caller is expected to have matched the relation id already (use
    :func:`record_relation_id` for that); this returns only column values.
    """
    bitmap_size = (len(datatypes) + 7) // 8
    offset = 2 + bitmap_size
    bitmap = record[2 : 2 + bitmap_size]
    values: list[object] = []
    for position, datatype in enumerate(datatypes):
        if bitmap[position // 8] & (1 << (position % 8)):
            values.append(None)
            continue
        if datatype.kind is TypeKind.INTEGER:
            values.append(_I64.unpack_from(record, offset)[0])
            offset += 8
        elif datatype.kind is TypeKind.FLOAT:
            values.append(_F64.unpack_from(record, offset)[0])
            offset += 8
        else:
            (length,) = _U16.unpack_from(record, offset)
            offset += 2
            values.append(record[offset : offset + length].decode("utf-8"))
            offset += length
    return tuple(values)


class DecodePlan:
    """A precompiled decoder for one relation's schema.

    :func:`decode_tuple` re-derives the bitmap size, base offset, and
    per-column type dispatch for every record; a scan decodes thousands of
    records against one schema, so this plan hoists all of that out of the
    per-record path.  The schema splits into *runs* (see :func:`_runs`):
    a NULL-free record — the common case — decodes with one precompiled
    :class:`struct.Struct` unpack per run plus one UTF-8 decode per
    VARCHAR, and a schema with no VARCHAR is a single unpack.  A record
    with NULLs goes through :func:`decode_tuple`, because a NULL column
    occupies no payload bytes and shifts every offset after it.

    Output is byte-for-byte equivalent to :func:`decode_tuple` (gated by
    ``tests/test_decode_plan.py`` and ``tests/test_codec_plans.py``).
    """

    __slots__ = ("datatypes", "decode")

    def __init__(self, datatypes: list[DataType]):
        self.datatypes = list(datatypes)
        #: ``decode(record) -> tuple``, compiled for this schema.
        self.decode: Callable[[bytes], tuple] = _compile_decoder(self.datatypes)


class EncodePlan:
    """A precompiled encoder for one relation id and schema.

    The write-side twin of :class:`DecodePlan`: a NULL-free tuple encodes
    with one :class:`struct.Struct` pack per run, the first of which also
    writes the relation id and the all-zero null bitmap.  Tuples with a
    NULL (or any value the packs reject) go through :func:`encode_tuple`,
    so the output — and any error — is exactly :func:`encode_tuple`'s
    (gated by ``tests/test_codec_plans.py``).
    """

    __slots__ = ("relation_id", "datatypes", "encode")

    def __init__(self, relation_id: int, datatypes: list[DataType]):
        self.relation_id = relation_id
        self.datatypes = list(datatypes)
        #: ``encode(values) -> bytes``, compiled for this schema.
        self.encode: Callable[[tuple], bytes] = _compile_encoder(
            relation_id, self.datatypes
        )


def _runs(datatypes: list[DataType]) -> list[tuple[str, int, bool]]:
    """Split a schema into fixed-width runs for whole-run ``struct`` calls.

    A run is a maximal stretch of INTEGER/FLOAT columns plus the 2-byte
    length prefix of the VARCHAR that closes it, if one does.  Returns
    ``(struct codes, fixed column count, closed by a VARCHAR)`` per run,
    in column order; a schema ending in a VARCHAR has no trailing open
    run.  Callers prefix the codes with ``>`` (big-endian, no padding).
    """
    runs: list[tuple[str, int, bool]] = []
    fmt = ""
    for datatype in datatypes:
        if datatype.kind is TypeKind.INTEGER:
            fmt += "q"
        elif datatype.kind is TypeKind.FLOAT:
            fmt += "d"
        else:
            runs.append((fmt + "H", len(fmt), True))
            fmt = ""
    if fmt or not runs:
        runs.append((fmt, len(fmt), False))
    return runs


def _compile_decoder(datatypes: list[DataType]) -> Callable[[bytes], tuple]:
    bitmap_size = (len(datatypes) + 7) // 8
    base = 2 + bitmap_size
    no_null = bytes(bitmap_size)
    structs = [
        (struct.Struct(">" + codes), closed) for codes, __, closed in _runs(datatypes)
    ]
    runs = tuple((run.unpack_from, run.size, closed) for run, closed in structs)

    def decode_nullable(record: bytes) -> tuple:
        return decode_tuple(record, datatypes)

    if len(runs) == 1 and not runs[0][2]:
        unpack = runs[0][0]

        def decode_fixed(record: bytes) -> tuple:
            if record[2:base] != no_null:
                return decode_nullable(record)
            return unpack(record, base)

        return decode_fixed

    if len(runs) == 1:
        # Fixed-width columns closed by one VARCHAR: the common table shape.
        unpack, size, __ = runs[0]
        start = base + size

        def decode_tail_string(record: bytes) -> tuple:
            if record[2:base] != no_null:
                return decode_nullable(record)
            fields = unpack(record, base)
            end = start + fields[-1]
            return fields[:-1] + (record[start:end].decode("utf-8"),)

        return decode_tail_string

    def decode(record: bytes) -> tuple:
        if record[2:base] != no_null:
            return decode_nullable(record)
        values: list[object] = []
        offset = base
        for unpack, size, closed in runs:
            fields = unpack(record, offset)
            offset += size
            if closed:
                end = offset + fields[-1]
                values += fields[:-1]
                values.append(record[offset:end].decode("utf-8"))
                offset = end
            else:
                values += fields
        return tuple(values)

    return decode


def _compile_encoder(
    relation_id: int, datatypes: list[DataType]
) -> Callable[[tuple], bytes]:
    width = len(datatypes)
    # The first run's struct also packs the relation id and, as pad bytes,
    # the all-zero null bitmap of a NULL-free tuple.
    prefixes = [f">H{(width + 7) // 8}x"] + [">"] * len(datatypes)
    runs = [
        (struct.Struct(prefix + codes).pack, count, closed)
        for prefix, (codes, count, closed) in zip(prefixes, _runs(datatypes))
    ]

    def encode(values: tuple) -> bytes:
        if len(values) != width:
            return encode_tuple(relation_id, values, datatypes)  # arity error
        parts = []
        position = 0
        lead: tuple = (relation_id,)
        try:
            for pack, count, closed in runs:
                end = position + count
                if closed:
                    raw = values[end].encode("utf-8")
                    parts.append(pack(*lead, *values[position:end], len(raw)))
                    parts.append(raw)
                    position = end + 1
                else:
                    parts.append(pack(*lead, *values[position:end]))
                    position = end
                lead = ()
        except (struct.error, AttributeError):
            # A NULL (or a value the packs reject): the reference encoder
            # sets the bitmap, or raises exactly as it always has.
            return encode_tuple(relation_id, values, datatypes)
        return b"".join(parts)

    return encode


def record_relation_id(record: bytes) -> int:
    """The relation id tag at the front of a stored record."""
    return _U16.unpack_from(record, 0)[0]


def max_record_size(datatypes: list[DataType]) -> int:
    """Worst-case record size for a schema; used to reject impossible tuples."""
    bitmap_size = (len(datatypes) + 7) // 8
    return 2 + bitmap_size + sum(datatype.max_encoded_size() for datatype in datatypes)
