"""Subset-search algorithms: random draw, stepwise greedy, genetic algorithm,
and an exhaustive oracle for small pools.

All stochastic draws flow from one numpy Generator per run in a fixed,
documented order, so a (snapshot, config, seed) triple fully determines the
result. The genetic algorithm's draw order is: production, then per
generation selection tournaments, crossover pair by pair, mutation
individual by individual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import NamedTuple, Sequence

import numpy as np

from .core import Assessment
from .criteria import CriteriaContext, FitnessReport, _criteria, batch_criteria, fitness

Individual = list[int]


class GenerationStats(NamedTuple):
    generation: int
    best: float
    mean: float


@dataclass(frozen=True)
class GaConfig:
    """Genetic-algorithm hyperparameters.

    ``p_c`` is the crossover probability per pair, ``p_m1`` the probability
    of selecting an individual for mutation and ``p_m2`` the per-gene
    replacement probability within a selected individual. Defaults follow
    the synthetic-dataset configuration used throughout the test suite.
    """

    k: int
    population_size: int = 1000
    generations: int = 5
    p_c: float = 0.75
    p_m1: float = 0.5
    p_m2: float = 0.25
    tournament_fraction: float = 0.10
    seed: int = 0
    track_best_ever: bool = False

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.population_size < 2:
            raise ValueError("population_size must be at least 2")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        for name in ("p_c", "p_m1", "p_m2"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if not 0.0 < self.tournament_fraction <= 1.0:
            raise ValueError("tournament_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class SearchResult:
    algorithm: str
    best: Assessment
    report: FitnessReport
    history: tuple[GenerationStats, ...]
    evaluations: int


def _require_lambda(ctx: CriteriaContext) -> float:
    if ctx.lam is None:
        raise ValueError("context has no lam; calibrate it first")
    return ctx.lam


def tournament_size(population_size: int, fraction: float) -> int:
    return min(population_size, max(1, round(fraction * population_size)))


def select(
    population: Sequence[Individual],
    fitnesses: Sequence[float],
    cfg: GaConfig,
    rng: np.random.Generator,
) -> list[Individual]:
    """Tournament selection: P tournaments, each over a random fraction of
    the population sampled without replacement; the winner is the member
    with the highest fitness, ties broken by lower population index."""
    p = len(population)
    if p < 1:
        raise ValueError("population is empty")
    size = tournament_size(p, cfg.tournament_fraction)
    fit = np.asarray(fitnesses, dtype=np.float64)
    chosen: list[Individual] = []
    for _ in range(p):
        members = np.sort(rng.choice(p, size=size, replace=False))
        winner = int(members[int(np.argmax(fit[members]))])
        chosen.append(list(population[winner]))
    return chosen


def _repair(child: Individual, n_questions: int, rng: np.random.Generator) -> Individual:
    """Replace duplicate genes (left to right, keeping first occurrences)
    with uniform random questions absent from the offspring; the candidate
    pool is re-derived after every replacement."""
    seen: set[int] = set()
    present = set(child)
    for i, gene in enumerate(child):
        if gene in seen:
            candidates = np.setdiff1d(
                np.arange(n_questions, dtype=np.intp),
                np.fromiter(present, dtype=np.intp, count=len(present)),
            )
            new = int(candidates[rng.integers(candidates.size)])
            child[i] = new
            present.add(new)
            seen.add(new)
        else:
            seen.add(gene)
    return child


def one_point_swap(a: Sequence[int], b: Sequence[int], cut: int) -> tuple[Individual, Individual]:
    """Exchange tails after position ``cut``; duplicates are not repaired here."""
    if not 1 <= cut <= len(a) - 1:
        raise ValueError("cut must lie in [1, K-1]")
    return list(a[:cut]) + list(b[cut:]), list(b[:cut]) + list(a[cut:])


def crossover(
    a: Sequence[int],
    b: Sequence[int],
    p_c: float,
    n_questions: int,
    rng: np.random.Generator,
) -> tuple[Individual, Individual]:
    """Single-point tail swap with probability p_c, followed by duplicate
    repair so both offspring keep K distinct genes. With K = 1 there is no
    valid cut point and the parents pass through unchanged (no draws)."""
    if len(a) != len(b):
        raise ValueError("parents must have equal length")
    if len(a) < 2:
        return list(a), list(b)
    if rng.random() >= p_c:
        return list(a), list(b)
    cut = int(rng.integers(1, len(a)))
    child1, child2 = one_point_swap(a, b, cut)
    return _repair(child1, n_questions, rng), _repair(child2, n_questions, rng)


def mutate(
    individual: Sequence[int],
    p_m1: float,
    p_m2: float,
    n_questions: int,
    rng: np.random.Generator,
) -> Individual:
    """With probability p_m1 the individual is selected; each gene of a
    selected individual is then independently replaced (probability p_m2)
    by a uniform random question not currently in the individual. When the
    pool is exhausted (K equals the pool size) genes stay unchanged."""
    genes = list(individual)
    if rng.random() >= p_m1:
        return genes
    for i in range(len(genes)):
        if rng.random() < p_m2:
            present = set(genes)
            candidates = np.setdiff1d(
                np.arange(n_questions, dtype=np.intp),
                np.fromiter(present, dtype=np.intp, count=len(present)),
            )
            if candidates.size == 0:
                continue
            genes[i] = int(candidates[rng.integers(candidates.size)])
    return genes


def random_search(ctx: CriteriaContext, k: int, seed: int = 0) -> SearchResult:
    """Baseline: one uniform K-subset drawn without replacement."""
    _require_lambda(ctx)
    if k > ctx.n_questions:
        raise ValueError("k exceeds the number of questions")
    rng = np.random.default_rng(seed)
    genes = [int(g) for g in rng.choice(ctx.n_questions, size=k, replace=False)]
    report = fitness(ctx, genes)
    stats = GenerationStats(0, report.fitness, report.fitness)
    return SearchResult("random", Assessment(tuple(genes)), report, (stats,), 1)


def greedy_search(ctx: CriteriaContext, k: int) -> SearchResult:
    """Add one question at a time, always the one that maximizes the
    objective of the extended subset; ties go to the lowest question
    index. Performs at most K * |pool| fitness evaluations."""
    lam = _require_lambda(ctx)
    nq = ctx.n_questions
    if k > nq:
        raise ValueError("k exceeds the number of questions")
    chosen: list[int] = []
    in_set = np.zeros(nq, dtype=bool)
    evaluations = 0
    history: list[GenerationStats] = []
    for step in range(1, k + 1):
        cand = np.flatnonzero(~in_set)
        rows = np.empty((cand.size, step), dtype=np.intp)
        rows[:, :-1] = chosen
        rows[:, -1] = cand
        # Unsorted rows share the prefix ``chosen``, so candidates with
        # identical snapshot rows score bitwise-equal and the tie goes to
        # the lower index; sorting would reorder the sum per candidate.
        rmse, std = _criteria(ctx, rows)
        fits = -rmse + lam * std
        evaluations += int(cand.size)
        j = int(np.argmax(fits))
        q = int(cand[j])
        chosen.append(q)
        in_set[q] = True
        history.append(GenerationStats(step, float(fits[j]), float(fits.mean())))
    report = fitness(ctx, chosen)
    return SearchResult(
        "greedy", Assessment(tuple(chosen)), report, tuple(history), evaluations
    )


def ga_search(ctx: CriteriaContext, cfg: GaConfig) -> SearchResult:
    """Evolve a population of K-subsets through selection, crossover and
    mutation for a fixed number of generations.

    Returns the best individual of the final population; with
    ``track_best_ever`` it returns the best individual ever evaluated
    instead (selection carries no elitism, so the incumbent can be lost).
    """
    lam = _require_lambda(ctx)
    nq = ctx.n_questions
    if cfg.k > nq:
        raise ValueError("k exceeds the number of questions")
    rng = np.random.default_rng(cfg.seed)
    p = cfg.population_size

    population: list[Individual] = [
        [int(g) for g in rng.choice(nq, size=cfg.k, replace=False)] for _ in range(p)
    ]

    evaluations = 0
    history: list[GenerationStats] = []
    best_ever: Individual | None = None
    best_ever_fit = -np.inf

    def evaluate(pop: list[Individual], generation: int) -> np.ndarray:
        nonlocal evaluations, best_ever, best_ever_fit
        rmse, std = batch_criteria(ctx, np.asarray(pop, dtype=np.intp))
        fits = -rmse + lam * std
        evaluations += len(pop)
        i = int(np.argmax(fits))
        if fits[i] > best_ever_fit:
            best_ever_fit = float(fits[i])
            best_ever = list(pop[i])
        history.append(GenerationStats(generation, float(fits[i]), float(fits.mean())))
        return fits

    fits = evaluate(population, 0)
    for generation in range(1, cfg.generations + 1):
        population = select(population, fits, cfg, rng)
        for i in range(0, p - 1, 2):
            population[i], population[i + 1] = crossover(
                population[i], population[i + 1], cfg.p_c, nq, rng
            )
        population = [
            mutate(ind, cfg.p_m1, cfg.p_m2, nq, rng) for ind in population
        ]
        fits = evaluate(population, generation)

    if cfg.track_best_ever:
        assert best_ever is not None
        chosen = best_ever
    else:
        chosen = population[int(np.argmax(fits))]
    report = fitness(ctx, chosen)
    return SearchResult(
        "ga", Assessment(tuple(chosen)), report, tuple(history), evaluations
    )


# Largest number of subsets the exhaustive oracle will enumerate.
BRUTE_FORCE_LIMIT = 10_000_000

_BRUTE_CHUNK = 4096


def brute_force(ctx: CriteriaContext, k: int) -> SearchResult:
    """Exact argmax over all K-subsets; ties go to the lexicographically
    smallest gene list. Refuses instances above BRUTE_FORCE_LIMIT subsets.

    The history entry carries the mean fitness over every subset, which
    doubles as the exact random-baseline expectation.
    """
    lam = _require_lambda(ctx)
    nq = ctx.n_questions
    if k > nq:
        raise ValueError("k exceeds the number of questions")
    total = math.comb(nq, k)
    if total > BRUTE_FORCE_LIMIT:
        raise ValueError("instance too large for exhaustive search")
    best_fit = -np.inf
    best_genes: tuple[int, ...] | None = None
    fit_sum = 0.0
    count = 0
    combos = combinations(range(nq), k)
    while True:
        block = list(islice(combos, _BRUTE_CHUNK))
        if not block:
            break
        rmse, std = batch_criteria(ctx, np.asarray(block, dtype=np.intp))
        fits = -rmse + lam * std
        fit_sum += float(fits.sum())
        count += len(block)
        i = int(np.argmax(fits))
        if fits[i] > best_fit:
            best_fit = float(fits[i])
            best_genes = block[i]
    assert best_genes is not None and count == total
    report = fitness(ctx, best_genes)
    stats = GenerationStats(0, report.fitness, fit_sum / count)
    return SearchResult(
        "brute", Assessment(best_genes), report, (stats,), count
    )
