"""File formats: interaction CSV, snapshot CSV, result JSON.

All readers validate and reject malformed data instead of coercing it.
Formats are versioned where they carry structure (schema_version in JSON
documents); snapshots serialize probabilities with 6 decimal digits, so a
write/read round trip is exact to 5e-7.
"""

from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

from .core import InteractionLog, Snapshot
from .criteria import FitnessReport
from .search import SearchResult

INTERACTION_HEADER = ["learner_id", "question_id", "correct", "order"]
SCHEMA_VERSION = 1


def read_interactions(path: str | Path) -> InteractionLog:
    """Parse an interaction CSV; raises with a line number on bad rows."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != INTERACTION_HEADER:
            raise ValueError(
                f"bad header: expected {','.join(INTERACTION_HEADER)}"
            )
        return InteractionLog.from_records(_interaction_rows(reader))


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
    learner_ids = np.asarray(log.learner_ids, dtype=object)
    question_ids = np.asarray(log.question_ids, dtype=object)
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(INTERACTION_HEADER)
        writer.writerows(
            zip(
                learner_ids[log.learner],
                question_ids[log.question],
                log.correct.view(np.uint8).tolist(),
                log.order.tolist(),
            )
        )


def write_snapshot(snapshot: Snapshot, path: str | Path) -> None:
    """Snapshot CSV: header `question_id,<learner ids>`, one question per
    row, probabilities with 6 decimal places."""
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("question_id," + ",".join(snapshot.learner_ids) + "\n")
        row_format = ",".join(["%.6f"] * snapshot.n_learners)
        for qid, row in zip(snapshot.question_ids, snapshot.values):
            fh.write(qid + "," + row_format % tuple(row.tolist()) + "\n")


def read_snapshot(path: str | Path) -> Snapshot:
    """Parse a snapshot CSV; rejects ragged rows and out-of-range values,
    naming the offending cell.

    The body is parsed in one pass by ``np.loadtxt``. When that pass fails
    or yields anything but a full table of values in [0, 1], the file is
    read again row by row; that loop decides what is accepted and names
    the first bad line.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        header = _snapshot_header(csv.reader(fh))
        question_ids: list[str] = []

        def question_id(cell: str) -> float:
            question_ids.append(cell)
            return 0.0

        try:
            with warnings.catch_warnings():
                # An empty body is reported by the row loop instead.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                table = np.loadtxt(
                    fh, delimiter=",", quotechar='"', comments=None, ndmin=2,
                    converters={0: question_id},
                )
        except ValueError:
            table = None
    if table is not None and len(table) and table.shape[1] == len(header):
        values = table[:, 1:]
        if values.min() >= 0.0 and values.max() <= 1.0:
            return Snapshot(
                values=values, question_ids=tuple(question_ids), learner_ids=tuple(header[1:])
            )
    return _read_snapshot_rows(path)


def _snapshot_header(reader: Iterator[list[str]]) -> list[str]:
    header = next(reader, None)
    if not header or header[0] != "question_id" or len(header) < 2:
        raise ValueError("bad header: expected question_id,<learner ids>")
    return header


def _read_snapshot_rows(path: str | Path) -> Snapshot:
    """``read_snapshot`` one row at a time, checking each row as it comes."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = _snapshot_header(reader)
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
    return Snapshot(
        values=np.stack(rows), question_ids=tuple(question_ids), learner_ids=learner_ids
    )


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
    train_report: FitnessReport,
    test_report: FitnessReport,
    config: dict[str, Any],
) -> dict[str, Any]:
    """Assemble the result document for one search run.

    ``config`` must contain everything needed to reproduce the run,
    including the seed and the calibrated lambda.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "algorithm": result.algorithm,
        "config": dict(config),
        "selected_questions": [question_ids[g] for g in result.best.genes],
        "train": report_dict(train_report),
        "test": report_dict(test_report),
        "history": [list(entry) for entry in result.history],
        "evaluations": result.evaluations,
    }


def write_json(doc: dict[str, Any], path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
