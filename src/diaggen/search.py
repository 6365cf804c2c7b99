"""Subset-search algorithms: random draw, stepwise greedy, genetic algorithm,
and an exhaustive oracle for small pools.

All stochastic draws flow from one numpy Generator per run in a fixed,
documented order, so a (snapshot, config, seed) triple fully determines the
result. The genetic algorithm holds its population as one (P, K) array and
draws for production (``sample_subsets``), then per generation for
``select``, ``crossover`` and ``mutate``, each documenting its own draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice
from typing import NamedTuple

import numpy as np

from .core import Assessment
from .criteria import (
    CriteriaContext, FitnessReport, _check_k, _criteria, _lambda, batch_criteria, combined,
    fitness, sample_subsets,
)


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

    def __post_init__(self) -> None:
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


def tournament_size(population_size: int, fraction: float) -> int:
    return min(population_size, max(1, round(fraction * population_size)))


def select(
    population: np.ndarray,
    fitnesses: np.ndarray,
    cfg: GaConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Tournament selection: P tournaments, each over a random fraction of
    the population sampled without replacement; the winner is the member
    with the highest fitness, ties broken by lower population index.

    With the population ranked by (fitness descending, index ascending), a
    tournament of s members is won by its lowest rank, which exceeds j with
    probability C(P-1-j, s) / C(P, s); each winner's rank is drawn from that
    distribution with one uniform.
    """
    p = len(population)
    if p < 1:
        raise ValueError("population is empty")
    size = tournament_size(p, cfg.tournament_fraction)
    ranked = np.argsort(-np.asarray(fitnesses, dtype=np.float64), kind="stable")
    j = np.arange(p)
    survival = np.cumprod(np.maximum(p - j - size, 0) / (p - j))
    ranks = np.searchsorted(1.0 - survival, rng.random(p), side="right")
    return population[ranked[ranks]]


def _replace(
    population: np.ndarray, mask: np.ndarray, n_questions: int, rng: np.random.Generator
) -> np.ndarray:
    """A copy of ``population`` whose masked genes are refilled, left to
    right, with distinct questions drawn uniformly from those missing from
    the row; when a row has fewer missing questions than masked genes, only
    its leftmost masked genes change. Draws one uniform per question for
    each row with a masked gene and takes the missing questions in the
    order of their draws."""
    out = population.copy()
    rows = np.flatnonzero(mask.any(axis=1))
    genes, masked = out[rows], mask[rows]
    keys = rng.random((rows.size, n_questions))
    keys[np.arange(rows.size)[:, None], genes] = 2.0  # present questions sort last
    missing = np.argsort(keys, axis=1)
    n_missing = np.count_nonzero(keys < 2.0, axis=1)
    slot = np.cumsum(masked, axis=1) - 1
    fill = np.take_along_axis(missing, np.maximum(slot, 0), axis=1)
    out[rows] = np.where(masked & (slot < n_missing[:, None]), fill, genes)
    return out


def crossover(
    a: np.ndarray,
    b: np.ndarray,
    p_c: float,
    n_questions: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Single-point crossover of each row pair ``a[i]``, ``b[i]``: with
    probability p_c the tails after a uniform cut in [1, K-1] swap, then
    every repeat of an earlier gene in an offspring is replaced with a
    question absent from it. Draws one uniform and one cut per pair, then
    as ``_replace``. With K = 1 there is no valid cut point and the parents
    pass through unchanged (no draws)."""
    if a.shape != b.shape:
        raise ValueError("parents must have equal shape")
    n, k = a.shape
    if k < 2:
        return a.copy(), b.copy()
    swap = rng.random(n) < p_c
    cut = np.where(swap, rng.integers(1, k, size=n), k)
    tail = np.arange(k) >= cut[:, None]
    children = np.concatenate([np.where(tail, b, a), np.where(tail, a, b)])
    earlier = np.tri(k, k, -1, dtype=bool)  # earlier[i, j]: j < i
    repeated = ((children[:, :, None] == children[:, None, :]) & earlier).any(axis=2)
    children = _replace(children, repeated, n_questions, rng)
    return children[:n], children[n:]


def mutate(
    population: np.ndarray,
    p_m1: float,
    p_m2: float,
    n_questions: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Each row is selected with probability p_m1 and each gene of a
    selected row with probability p_m2; the chosen genes get distinct
    questions missing from the row before mutation. When more genes are
    chosen than questions are missing (Q - K smaller than the number
    chosen), only the leftmost that many change. Draws one uniform per row,
    one per gene of every row, then as ``_replace``."""
    selected = rng.random(len(population)) < p_m1
    mask = selected[:, None] & (rng.random(population.shape) < p_m2)
    return _replace(population, mask, n_questions, rng)


def random_search(ctx: CriteriaContext, k: int, seed: int = 0) -> SearchResult:
    """Baseline: one uniform K-subset drawn without replacement."""
    _lambda(ctx)
    _check_k(ctx, k)
    rng = np.random.default_rng(seed)
    genes = [int(g) for g in rng.choice(ctx.n_questions, size=k, replace=False)]
    report = fitness(ctx, genes)
    stats = GenerationStats(0, report.fitness, report.fitness)
    return SearchResult("random", Assessment(tuple(genes)), report, (stats,), 1)


def greedy_search(ctx: CriteriaContext, k: int) -> SearchResult:
    """Add one question at a time, always the one that maximizes the
    objective of the extended subset; ties go to the lowest question
    index. Performs at most K * |pool| fitness evaluations."""
    lam = _lambda(ctx)
    _check_k(ctx, k)
    nq = ctx.n_questions
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
        fits = combined(rmse, std, lam)
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
    """Evolve a (P, K) population of K-subsets through selection,
    crossover of row pairs (0, 1), (2, 3), ... and mutation for a fixed
    number of generations.

    Returns the best individual ever evaluated: selection carries no
    elitism, so the final population can lose the incumbent.
    """
    lam = _lambda(ctx)
    _check_k(ctx, cfg.k)
    nq = ctx.n_questions
    rng = np.random.default_rng(cfg.seed)
    pairs = cfg.population_size // 2 * 2
    population = sample_subsets(nq, cfg.k, cfg.population_size, rng)
    history: list[GenerationStats] = []
    best, best_fit = population[0], -np.inf
    for generation in range(cfg.generations + 1):
        if generation:
            population = select(population, fits, cfg, rng)
            population[0:pairs:2], population[1:pairs:2] = crossover(
                population[0:pairs:2], population[1:pairs:2], cfg.p_c, nq, rng
            )
            population = mutate(population, cfg.p_m1, cfg.p_m2, nq, rng)
        rmse, std = batch_criteria(ctx, population)
        fits = combined(rmse, std, lam)
        i = int(np.argmax(fits))
        if fits[i] > best_fit:
            best, best_fit = population[i].copy(), fits[i]
        history.append(GenerationStats(generation, float(fits[i]), float(fits.mean())))
    genes = tuple(int(g) for g in best)
    evaluations = cfg.population_size * (cfg.generations + 1)
    return SearchResult(
        "ga", Assessment(genes), fitness(ctx, genes), tuple(history), evaluations
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
    lam = _lambda(ctx)
    _check_k(ctx, k)
    nq = ctx.n_questions
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
        fits = combined(rmse, std, lam)
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
