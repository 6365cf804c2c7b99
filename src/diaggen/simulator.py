"""Synthetic learner population with concept skills and skill growth.

Each question belongs to one concept and carries a difficulty; each learner
carries one skill value per concept. A learner answers every question in
index order. The success probability follows a guessing-floor logistic
model, and a correct answer adds the question's growth factor to the
matching concept skill. The ground-truth snapshot is taken at the end of
each learner's history, from the final skills.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import InteractionLog, Snapshot, sigmoid


@dataclass(frozen=True)
class SimConfig:
    num_learners: int
    num_questions: int = 50
    num_concepts: int = 5
    slip: float = 0.25
    growth_mean: float = 0.4
    growth_std: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_learners < 1:
            raise ValueError("num_learners must be at least 1")
        if not self.num_questions >= self.num_concepts >= 1:
            raise ValueError("need num_questions >= num_concepts >= 1")
        if not 0.0 <= self.slip < 1.0:
            raise ValueError("slip must lie in [0, 1)")
        for name in ("growth_mean", "growth_std"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.growth_std < 0.0:
            raise ValueError("growth_std must be non-negative")


@dataclass(frozen=True)
class SimWorld:
    """Frozen draw of question and learner parameters.

    ``learner_skill`` holds the initial skills, before any growth.
    """

    question_concept: np.ndarray
    question_difficulty: np.ndarray
    question_growth: np.ndarray
    learner_skill: np.ndarray


def solve_probability(alpha, beta, c):
    """Probability of a correct answer: c + (1 - c) / (1 + exp(alpha - beta)).

    ``alpha`` is question difficulty, ``beta`` the learner's skill on the
    question's concept, ``c`` the guessing floor. Accepts scalars or arrays.
    """
    return c + (1.0 - c) * sigmoid(np.asarray(beta) - np.asarray(alpha))


def simulate(cfg: SimConfig) -> tuple[SimWorld, InteractionLog, Snapshot]:
    """Generate a world, the full interaction log, and the true snapshot.

    Draw order is fixed for reproducibility: the world comes from one child
    stream of the seed (concepts, difficulties, growth factors, skills, in
    that order), then each learner consumes an independent child stream
    derived from (seed, learner index), with one uniform draw per question.
    All learners are stepped through the questions together; since no
    learner's draws depend on another's, this equals simulating them one at
    a time.
    """
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.num_learners + 1)
    world_rng = np.random.default_rng(streams[0])

    concepts = world_rng.integers(0, cfg.num_concepts, size=cfg.num_questions)
    difficulty = world_rng.standard_normal(cfg.num_questions)
    growth = cfg.growth_mean + cfg.growth_std * world_rng.standard_normal(
        cfg.num_questions
    )
    skills = world_rng.standard_normal((cfg.num_learners, cfg.num_concepts))
    world = SimWorld(
        question_concept=concepts,
        question_difficulty=difficulty,
        question_growth=growth,
        learner_skill=skills,
    )

    draws = np.stack(
        [np.random.default_rng(stream).random(cfg.num_questions) for stream in streams[1:]]
    )
    final_skills = skills.copy()
    correct = np.empty((cfg.num_learners, cfg.num_questions), dtype=bool)
    for q in range(cfg.num_questions):
        concept = concepts[q]
        p = solve_probability(difficulty[q], final_skills[:, concept], cfg.slip)
        correct[:, q] = draws[:, q] < p
        final_skills[correct[:, q], concept] += growth[q]
    questions = np.arange(cfg.num_questions)
    log = InteractionLog(
        learner_ids=tuple(f"l{j}" for j in range(cfg.num_learners)),
        question_ids=tuple(f"q{q}" for q in questions),
        learner=np.repeat(np.arange(cfg.num_learners), cfg.num_questions),
        question=np.tile(questions, cfg.num_learners),
        correct=correct.ravel(),
        order=np.tile(questions, cfg.num_learners),
    )

    beta = final_skills[:, concepts].T
    values = solve_probability(difficulty[:, None], beta, cfg.slip)
    snapshot = Snapshot(
        values=values, question_ids=log.question_ids, learner_ids=log.learner_ids
    )
    return world, log, snapshot
