"""Synthetic learner population with concept skills and skill growth.

Each question belongs to one concept and carries a difficulty; each learner
carries one skill value per concept. A learner answers every question in
index order. The success probability follows a guessing-floor logistic
model, and a correct answer adds the question's growth factor to the
matching concept skill. The ground-truth snapshot is taken at the end of
each learner's history, from the final skills.

Each learner draws from the child stream that ``np.random.default_rng``
makes of ``SeedSequence(seed).spawn``; all learners' streams are generated
together, in array passes, bitwise as numpy generates them one by one.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate, chain, pairwise, permutations, product, repeat

import numpy as np

from .core import InteractionLog, Snapshot, sigmoid


@dataclass(frozen=True)
class SimConfig:
    """Sizes, slip, skill growth and seed of a simulated world. The flags
    of ``diaggen simulate`` read their defaults from here."""

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
    derived from (seed, learner index), with one uniform draw per question;
    ``_learner_uniforms`` generates those streams together. All learners
    are stepped through the questions together; since no learner's draws
    depend on another's, this equals simulating them one at a time.
    """
    seed = np.random.SeedSequence(cfg.seed)
    world_rng = np.random.default_rng(seed.spawn(1)[0])

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

    draws = _learner_uniforms(operator.index(seed.entropy), cfg.num_learners, cfg.num_questions)
    final_skills = skills.copy()
    correct = np.empty((cfg.num_learners, cfg.num_questions), dtype=bool)
    for q in range(cfg.num_questions):
        concept = concepts[q]
        p = solve_probability(difficulty[q], final_skills[:, concept], cfg.slip)
        correct[:, q] = draws[:, q] < p
        final_skills[correct[:, q], concept] += growth[q]
    questions = np.arange(cfg.num_questions)
    log = InteractionLog._own(
        tuple(f"l{j}" for j in range(cfg.num_learners)),
        tuple(f"q{q}" for q in questions),
        np.repeat(np.arange(cfg.num_learners), cfg.num_questions),
        np.tile(questions, cfg.num_learners),
        correct.ravel(),
        np.tile(questions, cfg.num_learners),
    )

    beta = final_skills[:, concepts].T
    values = solve_probability(difficulty[:, None], beta, cfg.slip)
    return world, log, Snapshot._own(values, log.question_ids, log.learner_ids)


_MASK32 = 0xFFFFFFFF
_U64 = {bits: np.uint64(bits) for bits in (1, 11, 32, 58, 63, 64, _MASK32)}
# PCG64's multiplier: its high limb, its low limb and the low limb's 32-bit halves.
_PCG_MULT = [np.uint64(m) for m in (0x2360ED051FC65DA4, 0x4385DF649FCCF645, 0x4385DF64, 0x9FCCF645)]


def _hashmix(value: np.ndarray, consts) -> np.ndarray:
    """SeedSequence's hashmix of uint32 words, with the hash constant before
    and after this call taken from ``consts``."""
    before, after = map(np.uint32, next(consts))
    value = (value ^ before) * after
    return value ^ (value >> np.uint32(16))


def _hash_consts(init: int, mult: int):
    """Pairs of successive SeedSequence hash constants from ``init`` on."""
    return pairwise(accumulate(repeat(mult), lambda c, m: c * m & _MASK32, initial=init))


def _learner_uniforms(seed: int, n: int, q: int) -> np.ndarray:
    """``[default_rng(c).random(q) for c in SeedSequence(seed).spawn(n + 1)[1:]]``
    as one (n, q) array, with all learners' streams advanced together.

    Child ``i`` mixes the 32-bit words of ``seed``, padded with zeros to
    the pool of 4, then its spawn key ``i``. Eight words of its pool seed
    PCG64's 128-bit state and increment, held as (high, low) uint64 limbs;
    each draw steps the state and maps its XSL-RR output ``x`` to
    ``(x >> 11) * 2**-53``.
    """
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    entropy = [np.array([w], np.uint32) for w in words + [0] * (4 - len(words))]
    entropy.append(np.arange(1, n + 1, dtype=np.uint32))
    # SeedSequence.mix_entropy: the pool mixes in itself, then the words past it.
    consts = _hash_consts(0x43B0D7E5, 0x931E8875)
    pool = [_hashmix(word, consts) for word in entropy[:4]]
    for src, dst in chain(permutations(range(4), 2), product(range(4, len(entropy)), range(4))):
        hashed = _hashmix(pool[src] if src < 4 else entropy[src], consts)
        mixed = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * hashed
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    # SeedSequence.generate_state(4, np.uint64).
    consts = _hash_consts(0x8B51F9DD, 0x58F38DED)
    halves = [_hashmix(pool[t % 4], consts).astype(np.uint64) for t in range(8)]
    # Each uint64 is two words, the first its low half.
    pairs = zip(halves[::2], halves[1::2])
    seed_hi, seed_lo, seq_hi, seq_lo = (low | high << _U64[32] for low, high in pairs)
    # pcg64_set_seed: inc = 2 seq + 1, state = (inc + seed) * M + inc.
    inc = (seq_hi << _U64[1] | seq_lo >> _U64[63], seq_lo << _U64[1] | _U64[1])
    lo = inc[1] + seed_lo
    state = _pcg_step(inc[0] + seed_hi + (lo < seed_lo), lo, *inc)
    draws = np.empty((n, q))
    for t in range(q):
        state = hi, lo = _pcg_step(*state, *inc)
        xored, rot = hi ^ lo, hi >> _U64[58]
        out = xored >> rot | xored << ((_U64[64] - rot) & _U64[63])
        np.multiply(out >> _U64[11], np.float64(2.0**-53), out=draws[:, t])
    return draws


def _pcg_step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """PCG64's LCG step ``state * M + inc`` on (high, low) uint64 limbs."""
    m_hi, m_lo, m_lo_hi, m_lo_lo = _PCG_MULT
    # The high limb of lo * m_lo, from 32-bit halves (Hacker's Delight, mulhu).
    lo_hi, lo_lo = lo >> _U64[32], lo & _U64[_MASK32]
    upper = lo_hi * m_lo_lo + (lo_lo * m_lo_lo >> _U64[32])
    lower = lo_lo * m_lo_hi + (upper & _U64[_MASK32])
    carry = lo_hi * m_lo_hi + (upper >> _U64[32]) + (lower >> _U64[32])
    new_lo = lo * m_lo + inc_lo
    return hi * m_lo + lo * m_hi + carry + inc_hi + (new_lo < inc_lo), new_lo
