"""File formats: interaction CSV, snapshot CSV, result JSON.

All readers validate and reject malformed data instead of coercing it.
Each CSV reader parses the plain form its writer emits in numpy and hands
any other file to a ``csv`` row loop, the reference for what is accepted.
Formats are versioned where they carry structure (schema_version in JSON
documents); snapshots serialize probabilities with 6 decimal digits, so a
write/read round trip is exact to 5e-7.
"""

from __future__ import annotations

import csv
import json
import os
import re
from io import BytesIO, StringIO, TextIOWrapper
from pathlib import Path
from typing import Any, BinaryIO, Iterator, Sequence

import numpy as np

from .core import InteractionLog, Snapshot
from .criteria import FitnessReport
from .search import SearchResult

INTERACTION_HEADER = ["learner_id", "question_id", "correct", "order"]
SCHEMA_VERSION = 1


def read_interactions(path: str | Path) -> InteractionLog:
    """Parse an interaction CSV; raises with a line number on bad rows.

    A file in the plain form that ``write_interactions`` gives plain ids is
    parsed in numpy a block of ``_BLOCK_BYTES`` of whole lines at a time,
    straight into the log's columns: beyond the file's bytes and the
    columns, it holds about one block's temporaries and, per id column, a
    dict of its distinct ids and their numbers. It qualifies when it
    starts with the exact header line; holds no ``"``, CR or NUL byte and
    no blank line; every line has exactly three commas; ``correct`` is the
    single byte 0 or 1 and ``order`` 1-18 ASCII digits; no field is longer
    than ``csv.field_size_limit()``; every distinct id is strict UTF-8; and
    each id column, padded to whole 8-byte words of its longest id, takes no
    more bytes than the file. Any other file (quoted ids, CRLF line ends, blank
    lines, an order spelled ``+1`` or ``1_0``, ...) goes, as the bytes already
    read, to the row loop, which decides what is accepted and names the first
    bad line. The file is read once, so it may be a pipe.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    columns = _interaction_columns(data)
    if columns is None:
        return _read_interaction_rows(data)
    del data  # before the log's checks allocate
    return InteractionLog._own(*columns)


_HEADER_LINE = (",".join(INTERACTION_HEADER) + "\n").encode()
# Orders of at most 18 digits stay below 2**63.
_ORDER_DIGITS = 18
# Bytes of whole lines the one-pass reader parses at a time; this bounds its
# temporaries.
_BLOCK_BYTES = 1 << 18
# The snapshot reader's buffer holds a line of 6000 cells, 54 KB, in one read
# where the default 8 KiB takes seven; a read stays within 1 MiB of its values.
_READ_BYTES = 1 << 17
# A snapshot cell "d.dddddd," less "0.000000," is at most _CEILING bytewise. Of k
# micro-units, its "d.dddddd" is the OR of the little-endian words of "d.ddd" in
# _HIGH_WORDS[k // 1000] and of the last three digits in _LOW_WORDS[k % 1000].
_CELL_BYTES = 9
_CEILING = b"\t\0\t\t\t\t\t\t\0"
_DIGITS = np.arange(1001)[:, None] // [1000, 100, 10, 1] % 10 + ord("0")
_SPELLING = np.zeros((2, 1001, 8), dtype=np.uint8)
_SPELLING[0, :, :5] = np.insert(_DIGITS, 1, ord("."), axis=1)
_SPELLING[1, :, 5:] = _DIGITS[:, 1:]
_HIGH_WORDS, _LOW_WORDS = _SPELLING.view("<u8")[..., 0]
# Multiplier, shift and mask of each step that folds a little-endian word of
# eight digit bytes, the first most significant, into the number they spell.
_FOLDS = [
    (1 + (10 << 8), 8, 0x00FF00FF00FF00FF),
    (1 + (100 << 16), 16, 0x0000FFFF0000FFFF),
    (1 + (10000 << 32), 32, 0xFFFFFFFF),
]
# For k = 0..8, the mask of a uint64's k most significant bytes.
_KEEP_HIGH = np.array([(1 << 64) - (1 << (64 - 8 * k)) for k in range(9)], dtype=np.uint64)


def _interaction_columns(data: bytes) -> tuple | None:
    """The ``InteractionLog`` fields (learner ids, question ids and the four
    columns) of a file in the form that ``read_interactions`` parses in one
    pass, or None for any other file. Every line, the header first, is three
    commas and then its line end: four separators per line end, every fourth
    of them a line end. The records are parsed ``_BLOCK_BYTES`` of whole
    lines at a time, straight into the columns."""
    if not data.endswith(b"\n"):
        data += b"\n"
    if not data.startswith(_HEADER_LINE) or any(byte in data for byte in (b'"', b"\r", b"\0")):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    n = data.count(b"\n") - 1
    ids = _IdColumn(buf, max(n, 1)), _IdColumn(buf, max(n, 1))
    columns = tuple(np.empty(n, dtype=dtype) for dtype in (np.intp, np.intp, bool, np.int64))
    at, row = len(_HEADER_LINE), 0
    while at < len(data):
        # The block's last line end, or the end of a line longer than a block.
        end = (data.rfind(b"\n", at, at + _BLOCK_BYTES) + 1) or (data.find(b"\n", at) + 1)
        lines = _read_lines(buf, at, end, ids, [column[row:] for column in columns])
        if lines is None:
            return None
        at, row = end, row + lines
    return tuple(ids[0].ids), tuple(ids[1].ids), *columns


def _read_lines(buf: np.ndarray, at: int, end: int, ids: tuple, columns: list) -> int | None:
    """Parse the whole lines ``buf[at:end]`` into the front of the
    ``columns`` (learner, question, correct, order), numbering their ids in
    the ``_IdColumn`` tables ``ids``; the number of lines, or None if one is
    not in the plain form. Its temporaries end with the call."""
    block = buf[at:end]
    separators = block == ord("\n")
    n = np.count_nonzero(separators)
    separators |= block == ord(",")
    separators = np.flatnonzero(separators)
    separators += at
    if separators.size != 4 * n or np.any(buf[separators[3::4]] != ord("\n")):
        return None
    comma0, comma1, comma2, ends = separators.reshape(-1, 4).T
    starts = np.empty_like(ends)
    starts[0], starts[1:] = at, ends[:-1] + 1
    limit = csv.field_size_limit()
    too_long = max((comma0 - starts).max(), (comma1 - comma0 - 1).max()) > limit
    if too_long or np.any(comma2 - comma1 != 2):
        return None
    flags = buf[comma1 + 1]
    if np.any((flags != ord("0")) & (flags != ord("1"))):
        return None
    learner, question, correct, order = (column[:n] for column in columns)
    np.equal(flags, ord("1"), out=correct)
    read = (
        ids[0].number(starts, comma0, out=learner)
        and ids[1].number(comma0 + 1, comma1, out=question)
        and _digits(buf, comma2, ends, out=order)
    )
    return n if read else None


def _digits(buf: np.ndarray, before: np.ndarray, ends: np.ndarray, out: np.ndarray) -> bool:
    """Whether each ``buf[before + 1:end]`` spells a non-negative integer of
    1 to ``_ORDER_DIGITS`` digits; if so, the integers are in ``out``. Read
    right-aligned a digit column at a time."""
    lengths = ends - before - 1
    if lengths.min() < 1 or lengths.max() > _ORDER_DIGITS:
        return False
    out[:] = 0
    for back in range(int(lengths.max()), 0, -1):
        at = ends - back
        # Bytes below "0" wrap past 9; columns before a field's first digit read as 0.
        digit = buf[at] - np.uint8(ord("0"))
        digit[at <= before] = 0
        if np.any(digit > 9):
            return False
        out *= 10
        out += digit
    return True


class _IdColumn:
    """One id column of the file ``buf``, read a block of fields at a time.

    ``ids`` maps each distinct id of the fields read so far to its number,
    in order of first appearance. A block's fields are numbered among the
    block's distinct ids, which are decoded once and looked up in ``ids``:
    an id is looked up once in each block it appears in.

    An id's key is its bytes zero-padded in front to whole 8-byte words. The
    file has no NUL, so no two ids share a key. The keys of a column of
    ``n`` fields, padded to its longest id, may take no more bytes than the
    file; a field that would outgrow that declines the file.
    """

    def __init__(self, buf: np.ndarray, n: int) -> None:
        self.buf = buf
        # Element i is the little-endian word of buf[i:i + 8].
        self.ending = np.ndarray((buf.size - 7,), np.dtype("<u8"), buf, strides=(1,))
        self.most_words = buf.size // (8 * n)
        self.ids: dict[str, int] = {}

    def number(self, starts: np.ndarray, ends: np.ndarray, out: np.ndarray) -> bool:
        """Whether the keys of the fields ``buf[start:end]`` would not
        outgrow the file and their distinct ids are strict UTF-8; if so,
        each field's number in ``ids`` is in ``out``."""
        found = self._distinct(starts, ends)
        if found is None:
            return False
        code, firsts = found
        # Each id is followed by a comma: decode "id,id,...,id," in one piece.
        starts, ends = starts[firsts], ends[firsts]
        spans = ends - starts + 1
        at = np.arange(spans.sum()) + np.repeat(starts - np.cumsum(spans) + spans, spans)
        try:
            names = self.buf[at].tobytes().decode("utf-8").split(",")[:-1]
        except UnicodeDecodeError:
            return False
        ids = self.ids
        numbers = np.fromiter(
            (ids.setdefault(name, len(ids)) for name in names), dtype=np.intp, count=len(names)
        )
        # With the mode "clip", take writes into ``out`` without a buffer.
        np.take(numbers, code, out=out, mode="clip")
        return True

    def _distinct(self, starts: np.ndarray, ends: np.ndarray) -> tuple | None:
        """Each field's index among the distinct ids of the fields
        ``buf[start:end]`` in order of first appearance, and where each of
        those first appears; None if the keys would outgrow the file. Only
        the first field of each run of equal fields is numbered, one uint64
        word at a time: a log grouped by learner numbers one key per learner."""
        lengths = ends - starts
        n_words = max(-(-int(lengths.max()) // 8), 1)
        if n_words > self.most_words:
            return None
        # Word j of a field ends 8 j bytes before it; one that would start
        # before buf, which begins with the header, is masked to zero.
        words = [
            self.ending[np.maximum(ends - (8 * j + 8), 0)]
            & _KEEP_HIGH[np.minimum(np.maximum(lengths - 8 * j, 0), 8)]
            for j in range(n_words)
        ]
        heads = np.zeros(starts.size, dtype=bool)
        heads[0] = True
        for word in words:
            heads[1:] |= word[1:] != word[:-1]
        at = np.flatnonzero(heads)
        words = [word[at] for word in words]
        code, firsts = _numbered(words[0])
        for word in words[1:]:
            code, firsts = _numbered(code * word.size + _numbered(word)[0])
        return code[np.cumsum(heads) - 1], at[firsts]


def _numbered(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each of ``values``, which are not empty, numbered among the distinct
    values in order of first appearance, and where each of those first
    appears: the least position in its run of equal values once sorted."""
    order = np.argsort(values)
    ordered = values[order]
    runs = np.empty(values.size, dtype=bool)
    runs[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=runs[1:])
    at = np.flatnonzero(runs)
    firsts = np.minimum.reduceat(order, at)
    by_first = np.argsort(firsts)
    numbers = np.empty(firsts.size, dtype=np.intp)
    numbers[by_first] = np.arange(firsts.size)
    codes = np.empty(values.size, dtype=np.intp)
    codes[order] = numbers[np.cumsum(runs) - 1]
    return codes, firsts[by_first]


def _read_interaction_rows(data: bytes) -> InteractionLog:
    """``read_interactions`` of a file's bytes one row at a time, checking
    each row as it comes."""
    reader = _csv_rows(data)
    header = next(reader, None)
    if header != INTERACTION_HEADER:
        raise ValueError(
            f"bad header: expected {','.join(INTERACTION_HEADER)}"
        )
    return InteractionLog.from_records(_interaction_rows(reader))


def _csv_rows(data: bytes) -> Iterator[list[str]]:
    """The ``csv.reader`` rows of a file's bytes, decoded as strict UTF-8
    as they are read, as ``open`` would; a ``csv.Error``, such as a field
    over ``csv.field_size_limit()``, becomes a ValueError naming its line."""
    reader = csv.reader(TextIOWrapper(BytesIO(data), encoding="utf-8", newline=""))
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{exc} (line {reader.line_num})") from None


def _interaction_rows(reader: Iterator[list[str]]) -> Iterator[tuple[str, str, bool, int]]:
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ValueError(f"malformed row: expected 4 fields (line {line})")
        learner_id, question_id, correct, order = row
        if correct not in ("0", "1"):
            raise ValueError(f"correct must be 0 or 1 (line {line})")
        try:
            order_val = int(order)
        except ValueError:
            raise ValueError(f"order must be an integer (line {line})") from None
        if order_val < 0:
            raise ValueError(f"order must be non-negative (line {line})")
        if order_val >= 2**63:
            raise ValueError(f"order must be below 2**63 (line {line})")
        yield learner_id, question_id, correct == "1", order_val


def write_interactions(log: InteractionLog, path: str | Path) -> None:
    """Interaction CSV with ``INTERACTION_HEADER``. Ids are quoted as
    ``write_snapshot`` quotes them, so ids holding a comma, a quote, a CR
    or a LF read back unchanged; an empty id is an empty field; orders are
    spelled as ``str`` spells them.

    Each chunk of about ``_WRITE_BYTES`` is one byte matrix, a row per
    record, each field NUL-padded to columns as wide as its widest value;
    the matrix less its NULs is the chunk's lines, since ids hold no NUL.
    A chunk holding an id field wider than ``_FIELD_BYTES`` is written
    record by record.
    """
    fields, tables, wide = zip(*map(_field_table, (log.learner_ids, log.question_ids)))
    order_width = len(str(int(log.order.max(initial=0))))
    edges = np.cumsum([0, tables[0].itemsize, tables[1].itemsize, 2, order_width + 1])
    rows = max(_WRITE_BYTES // edges[-1], 1)
    lines = np.empty((min(rows, len(log)), edges[-1]), dtype=np.uint8)
    lines[:, edges[3] - 1], lines[:, -1] = ord(","), ord("\n")
    with open(path, "wb") as fh:
        fh.write(_HEADER_LINE)
        for at in range(0, len(log), rows):
            chunk = slice(at, at + rows)
            indices = (log.learner[chunk], log.question[chunk])
            if any(w[i].any() for w, i in zip(wide, indices)):
                columns = (*indices, log.correct[chunk], log.order[chunk])
                fh.writelines(
                    b"%s%s%d,%d\n" % (fields[0][l], fields[1][q], c, o)
                    for l, q, c, o in zip(*(column.tolist() for column in columns))
                )
                continue
            n = len(indices[0])
            block = lines[:n]
            for table, i, a, b in zip(tables, indices, edges, edges[1:]):
                block[:, a:b] = table[i].view(np.uint8).reshape(n, b - a)
            block[:, edges[2]] = log.correct[chunk] + np.uint8(ord("0"))
            _put_digits(log.order[chunk], block[:, edges[3] : -1])
            fh.write(block[block != 0])


# Bytes of the record matrix ``write_interactions`` assembles at a time, and
# the most columns an id field takes in it.
_WRITE_BYTES = 1 << 20
_FIELD_BYTES = 256
# A field the csv module quotes.
_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _field_table(ids: Sequence[str]) -> tuple[list[bytes], np.ndarray, np.ndarray]:
    """Ids as CSV fields, each with its comma, in UTF-8; the same as a
    NUL-padded bytes table as wide as the widest, at most ``_FIELD_BYTES``;
    and which fields are wider, each an empty entry in the table."""
    fields = [(_csv_field(i) + ",").encode() for i in ids]
    lengths = np.fromiter(map(len, fields), dtype=np.intp, count=len(fields))
    width = int(min(lengths.max(initial=1), _FIELD_BYTES))
    wide = lengths > width
    table = np.array([b"" if w else f for f, w in zip(fields, wide.tolist())], dtype=f"S{width}")
    return fields, table, wide


def _put_digits(order: np.ndarray, digits: np.ndarray) -> None:
    """``str`` of each non-negative order right-aligned in its row of
    ``digits``, NUL in place of leading zeros."""
    value = order.astype(np.uint64)
    ten = np.uint64(10)
    shown = True  # the last column spells 0 too
    for col in range(digits.shape[1] - 1, -1, -1):
        quotient = value // ten
        digits[:, col] = (value - quotient * ten + np.uint64(ord("0"))) * shown
        value, shown = quotient, quotient > 0


def write_snapshot(snapshot: Snapshot, path: str | Path) -> None:
    """Snapshot CSV: header `question_id,<learner ids>`, one question per
    row, cells as ``%.6f`` spells them. Ids are quoted as the csv module
    quotes them, so ids holding a comma, a quote or a line break read back
    unchanged. The digits come from ``np.rint(row * 1e6)``, whose product
    errs by under 6e-11 micro-units; a row holding -0.0 or a value within
    1e-9 of a half micro-unit (such as the exact tie 2**-7) is formatted
    with ``%.6f`` instead."""
    n_learners = snapshot.n_learners
    row_format = ",".join(["%.6f"] * n_learners) + "\n"
    # One reusable row of cells, the last ending in a line end; word i is
    # cell i's "d.dddddd".
    cells = np.frombuffer(b"0.000000," * n_learners, dtype=np.uint8).copy()
    cells[-1:] = ord("\n")
    words = np.ndarray((n_learners,), np.dtype("<u8"), cells, strides=(_CELL_BYTES,))
    with open(path, "wb") as fh:
        fh.write((_csv_record(["question_id", *snapshot.learner_ids]) + "\n").encode())
        for qid, row in zip(snapshot.question_ids, snapshot.values):
            fh.write((_csv_record([qid]) + ",").encode())
            scaled = row * 1e6
            micro = np.rint(scaled)
            near_half = np.abs(scaled - micro) >= 0.5 - 1e-9
            if not row.size or np.signbit(row).any() or near_half.any():
                fh.write((row_format % tuple(row.tolist())).encode())
                continue
            micro = micro.astype(np.intp)
            high = micro // 1000
            np.bitwise_or(_HIGH_WORDS.take(high), _LOW_WORDS.take(micro - high * 1000), out=words)
            fh.write(cells)


def _csv_record(cells: Sequence[str]) -> str:
    """``cells`` as one CSV record without its line end; a CRLF terminator
    makes the writer quote cells that hold a CR or a LF too."""
    buffer = StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow(cells)
    return buffer.getvalue()[:-2]


def _csv_field(cell: str) -> str:
    """``cell`` as a field of a longer CSV record: a record of one empty
    field is written ``""``, an empty field among others as nothing. Only a
    cell holding a comma, a quote, a CR or a LF is quoted."""
    return _csv_record([cell]) if _NEEDS_QUOTES(cell) else cell


def read_snapshot(path: str | Path) -> Snapshot:
    """Parse a snapshot CSV; rejects ragged rows and out-of-range values,
    naming the offending cell.

    The form ``write_snapshot`` gives plain ids is parsed one line at a
    time in numpy: strict UTF-8 without ``"``, CR or NUL, ids within
    ``csv.field_size_limit()``, and per learner one cell ``d.dddddd`` of n
    <= 10**6 micro-units, read as n / 1e6, which is bitwise ``float(cell)``.
    Any other file (quoted ids, CRLF, ``%.17g``, ...) is read from its start
    again by the row loop, which decides what is accepted and names the
    first bad line. The file is opened once; one that cannot seek, such as
    a pipe, is read into memory first.
    """
    with open(path, "rb", buffering=_READ_BYTES) as fh:
        source = fh if fh.seekable() else BytesIO(fh.read())
        fields = _plain_snapshot(source)
        if fields is None:
            source.seek(0)
            return _read_snapshot_rows(source.read())
    return Snapshot._own(*fields)


def _plain_snapshot(fh: BinaryIO) -> tuple | None:
    """The ``Snapshot`` fields of a seekable binary file, read from its start,
    in the form ``read_snapshot`` parses one line at a time, or None for any
    other file."""
    limit = csv.field_size_limit()
    line = fh.readline()
    header = _plain_fields(line[:-1], limit) if line.endswith(b"\n") else None
    if header is None or header[0] != "question_id" or len(header) < 2:
        return None
    n_learners = len(header) - 1
    width = n_learners * _CELL_BYTES
    template = np.frombuffer(b"0.000000," * (n_learners - 1) + b"0.000000\n", dtype=np.uint8)
    ceiling = np.frombuffer(_CEILING * n_learners, dtype=np.uint8)
    # Buffers reused by every line. Word i of ``digits`` is cell i's "d.dddddd"
    # less "0.000000": its digits from the low byte up, the dot a zero byte.
    digits, in_range = np.empty(width, dtype=np.uint8), np.empty(width, dtype=bool)
    words = np.ndarray((n_learners,), np.dtype("<u8"), digits, strides=(_CELL_BYTES,))
    micro = np.empty(n_learners, dtype=np.uint64)
    # A line holds at least a comma and its cells; a file that grows while
    # it is read goes to the row loop.
    values = np.empty(((fh.seek(0, os.SEEK_END) - len(line)) // (width + 1), n_learners))
    fh.seek(len(line))
    question_ids: list[str] = []
    for line in fh:
        qid_end = line.find(b",")
        qid = _plain_fields(line[:qid_end], limit) if qid_end >= 0 else None
        if qid is None or len(line) - qid_end - 1 != width or len(question_ids) == len(values):
            return None
        np.subtract(np.frombuffer(line, np.uint8, offset=qid_end + 1), template, out=digits)
        micro[:] = words
        for multiplier, shift, mask in _FOLDS:
            micro *= multiplier
            micro >>= shift
            micro &= mask
        # With every byte within the ceiling, a word holds d * 10**7 plus the micro-units
        # below 10**6: at most 10**7, "1.000000", in a cell of at most 10**6 micro-units.
        if not np.less_equal(digits, ceiling, out=in_range).all() or micro.max() > 10**7:
            return None
        np.divide(np.minimum(micro, 10**6, out=micro), 1e6, out=values[len(question_ids)])
        question_ids.append(qid[0])
    if not question_ids:
        return None
    return values[: len(question_ids)], tuple(question_ids), tuple(header[1:])


def _plain_fields(text: bytes, limit: int) -> list[str] | None:
    """The comma-separated fields of ``text``, a line without its end, if it
    is strict UTF-8 with no ``"``, CR or NUL byte and no field over ``limit``."""
    if any(byte in text for byte in (b'"', b"\r", b"\0")):
        return None
    try:
        fields = text.decode("utf-8").split(",")
    except UnicodeDecodeError:
        return None
    return fields if max(map(len, fields)) <= limit else None


def _read_snapshot_rows(data: bytes) -> Snapshot:
    """``read_snapshot`` of a file's bytes one row at a time, checking each
    row as it comes."""
    reader = _csv_rows(data)
    header = next(reader, None)
    if not header or header[0] != "question_id" or len(header) < 2:
        raise ValueError("bad header: expected question_id,<learner ids>")
    learner_ids = tuple(header[1:])
    question_ids: list[str] = []
    rows: list[np.ndarray] = []
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != len(header):
            raise ValueError(
                f"ragged row: expected {len(header)} fields, "
                f"got {len(row)} (line {line})"
            )
        question_ids.append(row[0])
        cells = row[1:]
        try:
            values = np.array(cells, dtype=np.float64)
        except ValueError:
            col = next(col for col, cell in enumerate(cells) if not _is_number(cell))
            raise ValueError(
                f"non-numeric value {cells[col]!r} at line {line}, "
                f"learner {learner_ids[col]!r}"
            ) from None
        outside = ~((values >= 0.0) & (values <= 1.0))
        if outside.any():
            col = int(outside.argmax())
            raise ValueError(
                f"value {cells[col]} out of range [0, 1] at line {line}, "
                f"learner {learner_ids[col]!r}"
            )
        rows.append(values)
    if not rows:
        raise ValueError("snapshot file has no data rows")
    return Snapshot._own(np.stack(rows), tuple(question_ids), learner_ids)


def _is_number(cell: str) -> bool:
    """Whether the conversion the row loop uses accepts the cell."""
    try:
        np.array([cell], dtype=np.float64)
    except ValueError:
        return False
    return True


def report_dict(report: FitnessReport) -> dict[str, float]:
    return {
        "rmse": report.rmse,
        "std": report.std,
        "fitness": report.fitness,
        "lambda": report.lam,
    }


def result_record(
    result: SearchResult,
    *,
    question_ids: Sequence[str],
    test_report: FitnessReport,
    swap_gain: float,
    config: dict[str, Any],
) -> dict[str, Any]:
    """Assemble the result document for one search run.

    ``config`` must contain everything needed to reproduce the run,
    including the seed and the calibrated lambda. ``swap_gain`` is the best
    train-fitness gain of a single swap (``search.swap_gain``).
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "algorithm": result.algorithm,
        "config": dict(config),
        "selected_questions": [question_ids[g] for g in result.best],
        "train": report_dict(result.report),
        "test": report_dict(test_report),
        "history": [list(entry) for entry in result.history],
        "evaluations": result.evaluations,
        "swap_gain": swap_gain,
    }


def write_json(doc: dict[str, Any], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
