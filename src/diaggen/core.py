"""Shared domain types: interaction logs, id pools, snapshots, splits.

Identifiers come in two flavors. External ids are the opaque strings found in
input files. Internal indices are dense 0-based integers assigned in order of
first appearance; every algorithm works on indices and external ids only
appear at I/O boundaries.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields
from itertools import compress
from typing import Iterable, Sequence

import numpy as np


class _Owned:
    """A frozen ``eq=False`` dataclass of ids and arrays that ``_freeze`` checks."""

    def __post_init__(self) -> None:
        self._freeze(np.array)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        return all(np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b for a, b in pairs)

    @classmethod
    def _own(cls, *values):
        """Instance of the given field values, in field order, whose fresh arrays
        a builder hands over: one of the right dtype is frozen, not copied."""
        owned = cls.__new__(cls)
        for field, value in zip(fields(cls), values, strict=True):
            object.__setattr__(owned, field.name, value)
        owned._freeze(np.asarray)
        return owned


@dataclass(frozen=True, eq=False)
class InteractionLog(_Owned):
    """Problem-solving records in ingestion order, held as columns.

    Record ``i`` says that learner ``learner_ids[learner[i]]`` answered
    question ``question_ids[question[i]]`` (rightly when ``correct[i]``) at
    position ``order[i]`` of their history. Each id table lists every id of
    the records once, in order of first appearance; no id holds NUL.
    ``order`` is non-negative and, per learner, strictly increasing in
    record order. The columns are frozen read-only.
    """

    learner_ids: tuple[str, ...]
    question_ids: tuple[str, ...]
    learner: np.ndarray
    question: np.ndarray
    correct: np.ndarray
    order: np.ndarray

    def _freeze(self, convert) -> None:
        """Check that the columns hold integers (``_index_array``) and
        flags (``_correct_array``), convert them with ``convert``
        (``np.array`` copies, and ``np.asarray`` only when the dtype
        changes), freeze them and check the log."""
        columns = {
            name: convert(
                _index_array(
                    getattr(self, name),
                    f"{name} indices must be integers",
                    f"{name} index out of range",
                ),
                dtype=np.intp,
            )
            for name in ("learner", "question")
        }
        columns["correct"] = convert(_correct_array(self.correct), dtype=bool)
        columns["order"] = convert(
            _index_array(self.order, "order must be an integer", "order must be below 2**63"),
            dtype=np.int64,
        )
        if len({column.shape for column in columns.values()}) != 1 or columns["order"].ndim != 1:
            raise ValueError("interaction columns must be 1-D arrays of equal length")
        if columns["order"].size and columns["order"].min() < 0:
            raise ValueError("order must be non-negative")
        for name, column in columns.items():
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        for name in ("learner", "question"):
            ids = tuple(getattr(self, f"{name}_ids"))
            _check_ids(name, ids)
            _check_first_appearance(name, columns[name], ids)
            object.__setattr__(self, f"{name}_ids", ids)
        learner, order = self.learner, self.order
        by_learner = np.argsort(learner, kind="stable")
        learners, orders = learner[by_learner], order[by_learner]
        bad = by_learner[1:][(learners[1:] == learners[:-1]) & (orders[1:] <= orders[:-1])]
        if bad.size:
            raise ValueError(
                f"order values for learner {self.learner_ids[learner[bad.min()]]!r} "
                "are not strictly increasing"
            )

    @classmethod
    def from_records(
        cls, records: Iterable[tuple[str, str, bool, int]]
    ) -> "InteractionLog":
        """Log from ``(learner_id, question_id, correct, order)`` tuples."""
        learners: dict[str, int] = {}
        questions: dict[str, int] = {}
        learner, question, correct, order = (array("q") for _ in range(4))
        for learner_id, question_id, solved, position in records:
            learner.append(learners.setdefault(learner_id, len(learners)))
            question.append(questions.setdefault(question_id, len(questions)))
            correct.append(solved)
            order.append(position)
        return cls._own(
            tuple(learners),
            tuple(questions),
            np.asarray(learner),
            np.asarray(question),
            np.asarray(correct),
            np.asarray(order),
        )

    def __len__(self) -> int:
        return len(self.order)

    # Nothing in src/ calls restrict_learners (fit_rasch and
    # correct_ratio_snapshot take fit_learners); perfbench/tracing.py wraps it
    # under this name.
    def restrict_learners(self, learner_ids: set[str]) -> "InteractionLog":
        """Sub-log containing only the given learners, order preserved."""
        wanted = np.array([lid in learner_ids for lid in self.learner_ids], dtype=bool)
        keep = wanted[self.learner]
        kept = self.question[keep]
        positions, question = _first_appearances(kept, len(self.question_ids))
        question_ids = tuple(self.question_ids[q] for q in kept[positions].tolist())
        # Kept learners keep every record, so a running count numbers them.
        learner = (np.cumsum(wanted) - 1)[self.learner[keep]]
        learner_ids = tuple(compress(self.learner_ids, wanted))
        return InteractionLog._own(
            learner_ids, question_ids, learner, question, self.correct[keep], self.order[keep]
        )


def _check_ids(name: str, ids: tuple[str, ...]) -> None:
    """No two ids are equal and none holds NUL, which the csv module of
    Python 3.10 neither writes nor reads."""
    # A dict of the ids peaks at half the memory of a set.
    if len(dict.fromkeys(ids)) != len(ids):
        raise ValueError(f"duplicate {name} ids")
    if "\0" in "".join(ids):
        raise ValueError(f"{name} ids must not hold NUL")


def _check_first_appearance(name: str, index: np.ndarray, ids: tuple[str, ...]) -> None:
    """Every id is used by some record, and ids are numbered in order of
    first appearance: each index exceeds all earlier ones by at most one."""
    if index.size and (index.min() < 0 or index.max() >= len(ids)):
        raise ValueError(f"{name} index out of range")
    ceiling = np.concatenate(([0], np.maximum.accumulate(index) + 1))
    if np.any(index > ceiling[:-1]) or ceiling[-1] != len(ids):
        raise ValueError(
            f"{name} ids must each appear in the records, numbered in order of first appearance"
        )


def _first_appearances(index: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each value in [0, n) that ``index`` holds first appears, in
    order of first appearance, and ``index`` renumbered in that order."""
    first = np.full(n, index.size)
    np.minimum.at(first, index, np.arange(index.size))
    by_first = np.argsort(first)[: np.count_nonzero(first < index.size)]
    lookup = np.empty(n, dtype=np.intp)
    lookup[by_first] = np.arange(by_first.size)
    return first[by_first], lookup[index]


def sigmoid(x) -> np.ndarray:
    """The logistic function 1 / (1 + exp(-x)), elementwise (0 below -709)."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def build_pool(log: InteractionLog) -> tuple[dict[str, int], dict[str, int]]:
    """Assign dense 0-based indices to questions and learners.

    Indices follow first appearance in the log; the returned maps are
    bijections between external ids and indices.
    """
    if not len(log):
        raise ValueError("empty interaction log")
    questions = {qid: i for i, qid in enumerate(log.question_ids)}
    learners = {lid: i for i, lid in enumerate(log.learner_ids)}
    return questions, learners


def to_index_arrays(
    log: InteractionLog,
    question_index: dict[str, int],
    learner_index: dict[str, int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(learner idx, question idx, correct) arrays under the given indices."""
    l_lookup = np.array([learner_index[lid] for lid in log.learner_ids], dtype=np.intp)
    q_lookup = np.array([question_index[qid] for qid in log.question_ids], dtype=np.intp)
    return l_lookup[log.learner], q_lookup[log.question], log.correct.astype(np.float64)


@dataclass(frozen=True, eq=False)
class Snapshot(_Owned):
    """Question-by-learner matrix of correct-answer probabilities.

    Rows are questions and the second axis runs over learners; every entry lies in [0, 1]
    and NaN is rejected at construction. The array is frozen read-only so
    a snapshot can be shared across threads.
    """

    values: np.ndarray
    question_ids: tuple[str, ...]
    learner_ids: tuple[str, ...]

    def _freeze(self, convert) -> None:
        """Convert the values to C-ordered float64 with ``convert`` (as in
        ``InteractionLog._freeze``), check the snapshot and freeze it."""
        values = np.asarray(self.values)
        # A cast would parse strings and read None as NaN.
        if values.dtype.kind not in "biufc":
            raise ValueError(f"snapshot values must be numbers, got dtype {values.dtype}")
        values = convert(values, dtype=np.float64, order="C")
        if values.ndim != 2:
            raise ValueError("snapshot values must be a 2-D matrix")
        if values.shape[0] != len(self.question_ids):
            raise ValueError(
                f"row count {values.shape[0]} does not match "
                f"{len(self.question_ids)} question ids"
            )
        if values.shape[1] != len(self.learner_ids):
            raise ValueError(
                f"column count {values.shape[1]} does not match "
                f"{len(self.learner_ids)} learner ids"
            )
        for name, ids in (("question", self.question_ids), ("learner", self.learner_ids)):
            _check_ids(name, ids)
        if np.isnan(values).any():
            raise ValueError("snapshot contains NaN")
        if values.size and (values.min() < 0.0 or values.max() > 1.0):
            raise ValueError("snapshot values must lie in [0, 1]")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "question_ids", tuple(self.question_ids))
        object.__setattr__(self, "learner_ids", tuple(self.learner_ids))

    @property
    def n_questions(self) -> int:
        return self.values.shape[0]

    @property
    def n_learners(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class LearnerSplit:
    """Disjoint train/test partition of learner indices.

    ``split_learners`` builds one from (learner set, ratio, seed) alone.
    """

    train: tuple[int, ...]
    test: tuple[int, ...]

    def __post_init__(self) -> None:
        if not set(self.train).isdisjoint(self.test):
            raise ValueError("train and test learners overlap")


def _index_array(values, not_integer: str, past_intp: str) -> np.ndarray:
    """``values`` as an intp array of their shape. Raises ValueError with
    the message ``not_integer`` unless each is an integer and not a bool,
    and with ``past_intp`` if one lies past intp: an array of an integer
    dtype passes on its dtype, anything else is checked element by element."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        if not issubclass(values.dtype.type, np.integer):
            raise ValueError(not_integer)
        array = values.astype(np.intp, copy=False)
        # A uint64 past 2**63 - 1 wraps negative.
        if not np.can_cast(values.dtype, np.intp) and np.any(array < 0):
            raise ValueError(past_intp)
        return array
    values = np.asarray(values, dtype=object)
    if not all(
        issubclass(kind, (int, np.integer)) and not issubclass(kind, bool)
        for kind in set(map(type, values.ravel()))
    ):
        raise ValueError(not_integer)
    try:
        return values.astype(np.intp)
    except OverflowError:
        raise ValueError(past_intp) from None


def _correct_array(values) -> np.ndarray:
    """``values`` as a bool array of their shape. Raises ValueError unless
    each is a bool or the integer 0 or 1: an array of a bool or integer
    dtype is checked as a whole, anything else element by element."""
    if isinstance(values, np.ndarray) and values.dtype != object:
        if values.dtype == bool:
            return values
        if issubclass(values.dtype.type, np.integer) and np.all((values == 0) | (values == 1)):
            return values == 1
        raise ValueError("correct must be 0 or 1")
    values = np.asarray(values, dtype=object)
    if not all(
        isinstance(value, (int, np.integer, np.bool_)) and value in (0, 1)
        for value in values.ravel()
    ):
        raise ValueError("correct must be 0 or 1")
    return values.astype(bool)


def _learner_indices(
    learners: Sequence[int], stop: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``learners`` as an intp array, in their order and sorted. Raises
    unless they are one row of integers (``_index_array``), each lies in
    [0, stop) when ``stop`` is given, and no two are equal."""
    array = (
        np.arange(learners.start, learners.stop, learners.step, dtype=np.intp)
        if isinstance(learners, range)
        else _index_array(
            learners, "learner indices must be integers", "learner index out of range"
        )
    )
    if array.ndim != 1:
        raise ValueError("learner indices must be integers")
    ordered = np.sort(array)
    if stop is not None and ordered.size and (ordered[0] < 0 or ordered[-1] >= stop):
        raise ValueError("learner index out of range")
    if np.any(ordered[1:] == ordered[:-1]):
        raise ValueError("learner indices must be distinct")
    return array, ordered


def split_learners(
    learners: Sequence[int], ratio: float, seed: int
) -> LearnerSplit:
    """Deterministically split learner indices into train and test.

    The train side gets round(ratio * n) learners, with at least one
    learner on each side. A pure function of (sorted learner list, ratio,
    seed). Learner indices must be distinct integers: a float (even 2.0), a
    bool, a string, a repeated index or one beyond the int64 range raises
    ValueError, as ``CriteriaContext.build`` does.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")
    pool = _learner_indices(learners)[1]
    n = pool.size
    if n < 2:
        raise ValueError("need at least 2 learners to split")
    n_train = int(round(ratio * n))
    n_train = min(max(n_train, 1), n - 1)
    perm = np.random.default_rng(seed).permutation(pool)
    train = tuple(np.sort(perm[:n_train]).tolist())
    test = tuple(np.sort(perm[n_train:]).tolist())
    return LearnerSplit(train=train, test=test)
