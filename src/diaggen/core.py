"""Shared domain types: interaction logs, id pools, snapshots, assessments, splits.

Identifiers come in two flavors. External ids are the opaque strings found in
input files. Internal indices are dense 0-based integers assigned in order of
first appearance; every algorithm works on indices and external ids only
appear at I/O boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np


class Interaction(NamedTuple):
    learner_id: str
    question_id: str
    correct: bool
    order: int


@dataclass(frozen=True)
class InteractionLog:
    """Problem-solving records in ingestion order.

    Per learner, ``order`` must be strictly increasing in record order.
    """

    records: tuple[Interaction, ...]

    def __post_init__(self) -> None:
        last: dict[str, int] = {}
        for rec in self.records:
            prev = last.get(rec.learner_id)
            if prev is not None and rec.order <= prev:
                raise ValueError(
                    f"order values for learner {rec.learner_id!r} "
                    "are not strictly increasing"
                )
            last[rec.learner_id] = rec.order

    def __len__(self) -> int:
        return len(self.records)

    def restrict_learners(self, learner_ids: set[str]) -> "InteractionLog":
        """Sub-log containing only the given learners, order preserved."""
        return InteractionLog(
            tuple(r for r in self.records if r.learner_id in learner_ids)
        )


def build_pool(log: InteractionLog) -> tuple[dict[str, int], dict[str, int]]:
    """Assign dense 0-based indices to questions and learners.

    Indices follow first appearance in the log; the returned maps are
    bijections between external ids and indices.
    """
    if not log.records:
        raise ValueError("empty interaction log")
    questions: dict[str, int] = {}
    learners: dict[str, int] = {}
    for rec in log.records:
        questions.setdefault(rec.question_id, len(questions))
        learners.setdefault(rec.learner_id, len(learners))
    return questions, learners


def to_index_arrays(
    log: InteractionLog,
    question_index: dict[str, int],
    learner_index: dict[str, int],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columnar view of a log: (learner idx, question idx, correct) arrays."""
    n = len(log.records)
    l_idx = np.empty(n, dtype=np.intp)
    q_idx = np.empty(n, dtype=np.intp)
    y = np.empty(n, dtype=np.float64)
    for i, rec in enumerate(log.records):
        l_idx[i] = learner_index[rec.learner_id]
        q_idx[i] = question_index[rec.question_id]
        y[i] = 1.0 if rec.correct else 0.0
    return l_idx, q_idx, y


@dataclass(frozen=True)
class Snapshot:
    """Question-by-learner matrix of correct-answer probabilities.

    Rows are questions and the second axis runs over learners; every entry lies in [0, 1]
    and NaN is rejected at construction. The array is frozen read-only so
    a snapshot can be shared across threads.
    """

    values: np.ndarray
    question_ids: tuple[str, ...]
    learner_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
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
        if np.isnan(values).any():
            raise ValueError("snapshot contains NaN")
        if values.size and (values.min() < 0.0 or values.max() > 1.0):
            raise ValueError("snapshot values must lie in [0, 1]")
        values = values.copy()
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
class Assessment:
    """A candidate diagnostic test: K distinct question indices.

    Gene order is kept for reproducibility but carries no meaning; all
    scoring is a function of the gene set only.
    """

    genes: tuple[int, ...]

    def __post_init__(self) -> None:
        genes = tuple(int(g) for g in self.genes)
        if len(set(genes)) != len(genes):
            raise ValueError("assessment genes must be distinct")
        if any(g < 0 for g in genes):
            raise ValueError("assessment genes must be non-negative")
        object.__setattr__(self, "genes", genes)

    def __len__(self) -> int:
        return len(self.genes)


@dataclass(frozen=True)
class LearnerSplit:
    """Disjoint train/test partition of learner indices.

    Reconstructible: the same (learner set, ratio, seed) always produces
    the same split.
    """

    train: tuple[int, ...]
    test: tuple[int, ...]
    seed: int
    ratio: float

    def __post_init__(self) -> None:
        if set(self.train) & set(self.test):
            raise ValueError("train and test learners overlap")


def split_learners(
    learners: Sequence[int], ratio: float, seed: int
) -> LearnerSplit:
    """Deterministically split learner indices into train and test.

    The train side gets round(ratio * n) learners, with at least one
    learner on each side. A pure function of (sorted learner list, ratio,
    seed).
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")
    pool = sorted(int(x) for x in learners)
    n = len(pool)
    if n < 2:
        raise ValueError("need at least 2 learners to split")
    n_train = int(round(ratio * n))
    n_train = min(max(n_train, 1), n - 1)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(np.asarray(pool, dtype=np.intp))
    train = tuple(sorted(int(x) for x in perm[:n_train]))
    test = tuple(sorted(int(x) for x in perm[n_train:]))
    return LearnerSplit(train=train, test=test, seed=seed, ratio=ratio)
