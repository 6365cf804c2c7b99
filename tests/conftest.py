import numpy as np
import pytest

from diaggen import CriteriaContext, InteractionLog, Snapshot


@pytest.fixture
def toy_snapshot() -> Snapshot:
    """4 questions x 2 learners with hand-checkable statistics.

    Pool means are (0.6, 0.4); rows {1, 3} average to (0.7, 0.3) and rows
    {0, 3} to (0.95, 0.05).
    """
    return Snapshot(
        values=np.array(
            [
                [1.0, 0.0],
                [0.5, 0.5],
                [0.0, 1.0],
                [0.9, 0.1],
            ]
        ),
        question_ids=("a", "b", "c", "d"),
        learner_ids=("x", "y"),
    )


@pytest.fixture
def toy_ctx(toy_snapshot) -> CriteriaContext:
    return CriteriaContext.build(toy_snapshot, [0, 1], lam=0.5)


def random_snapshot(seed: int, n_questions: int = 12, n_learners: int = 30) -> Snapshot:
    """Uniform random snapshot used by oracle-comparison tests."""
    rng = np.random.default_rng(seed)
    return Snapshot(
        values=rng.random((n_questions, n_learners)),
        question_ids=tuple(f"q{i}" for i in range(n_questions)),
        learner_ids=tuple(f"l{j}" for j in range(n_learners)),
    )


def kept_records(log, keep):
    """The log of the records where ``keep`` holds, ids renumbered."""
    learner_ids, question_ids = np.array(log.learner_ids), np.array(log.question_ids)
    return InteractionLog.from_records(
        zip(
            learner_ids[log.learner[keep]].tolist(),
            question_ids[log.question[keep]].tolist(),
            log.correct[keep].tolist(),
            log.order[keep].tolist(),
        )
    )


def learners_log(log, learners):
    """The log of the records of the learners at indices ``learners``, ids
    renumbered: the reference sub-log for a fit on those learners."""
    return kept_records(log, np.isin(log.learner, list(learners)))
