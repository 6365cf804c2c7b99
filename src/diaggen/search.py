"""Subset-search algorithms: random draw, stepwise greedy, genetic algorithm,
and an exhaustive oracle for small pools.

All stochastic draws flow from one numpy Generator per run in a fixed,
documented order, so a (snapshot, config, seed) triple fully determines the
result. The genetic algorithm holds its population as one (P, K) array and
draws for production (``sample_subsets``), then per generation for
``select``, ``crossover`` and ``mutate``, each documenting its own draws.

The exhaustive oracle scores subsets in blocks in lexicographic order, so
each block's first maximum is its lexicographically smallest optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .criteria import (
    CriteriaContext, FitnessReport, _check_k, _fold, _from_sums, _lambda,
    batch_criteria, combined, fitness, sample_subsets,
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
    the synthetic-dataset configuration used throughout the test suite;
    the GA flags of ``diaggen search`` read their defaults from here.
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
    best: tuple[int, ...]
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
    # One pass over the gene columns; row i marks its questions in seen[i * Q:].
    at = children + np.arange(0, 2 * n * n_questions, n_questions)[:, None]
    seen = np.zeros(2 * n * n_questions, dtype=bool)
    repeated = np.zeros_like(children, dtype=bool)
    for col in range(1, k):
        seen[at[:, col - 1]] = True
        repeated[:, col] = seen[at[:, col]]
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
    genes = tuple(int(g) for g in rng.choice(ctx.n_questions, size=k, replace=False))
    report = fitness(ctx, genes)
    stats = GenerationStats(0, report.fitness, report.fitness)
    return SearchResult("random", genes, report, (stats,), 1)


def greedy_search(ctx: CriteriaContext, k: int) -> SearchResult:
    """Add one question at a time, always the one that maximizes the
    objective of the extended subset; ties go to the lowest question
    index. Performs at most K * |pool| fitness evaluations. From the chosen
    questions' sums and row sums, each candidate is one ``_fold`` step, so
    candidates with identical snapshot rows tie exactly."""
    lam = _lambda(ctx)
    _check_k(ctx, k)
    head, row = np.zeros(2), np.zeros((ctx.n_questions, 2))
    chosen: list[int] = []
    in_set = np.zeros(ctx.n_questions, dtype=bool)
    evaluations = 0
    history: list[GenerationStats] = []
    for step in range(1, k + 1):
        cand = np.flatnonzero(~in_set)
        sums = _fold(ctx.stats, [cand], head, row)
        fits = combined(*_from_sums(ctx, step, sums), lam)
        evaluations += int(cand.size)
        j = int(np.argmax(fits))
        q = int(cand[j])
        chosen.append(q)
        in_set[q] = True
        head = sums[j]
        row += ctx.stats[q]
        history.append(GenerationStats(step, float(fits[j]), float(fits.mean())))
    genes = tuple(chosen)
    return SearchResult("greedy", genes, fitness(ctx, genes), tuple(history), evaluations)


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
    return SearchResult("ga", genes, fitness(ctx, genes), tuple(history), evaluations)


# Largest number of subsets the exhaustive oracle will enumerate.
BRUTE_FORCE_LIMIT = 10_000_000

# Entries in a block of the oracle's scored subsets or prefix (H, C) row sums.
_BLOCK = 1 << 16


def _chunks(combos: Iterator[tuple[int, ...]], width: int, rows: int) -> Iterator[np.ndarray]:
    """``combos``, tuples of ``width`` > 0 questions, as consecutive arrays
    of at most ``rows`` rows."""
    while (chunk := np.fromiter(chain.from_iterable(islice(combos, rows)), np.intp)).size:
        yield chunk.reshape(-1, width)


def _blocks(nq: int, k: int) -> Iterator[tuple[np.ndarray, Iterator[np.ndarray]]]:
    """Every K-subset of range(nq) once, as blocks of prefixes and tails.

    A subset is a prefix of K - s questions and a tail of s = min(K, 2)
    questions after the prefix's last one. Each item is a chunk of prefixes
    that share their last question p, with the chunks of the tails after p;
    every prefix meets every tail. Prefixes and tails both come from
    ``combinations`` in lexicographic order, so within a block the subsets,
    prefix-major, are in lexicographic order too.
    """
    s = min(k, 2)
    m = k - s
    for p in range(m - 1, nq - s) if m else (-1,):
        tail_step = min(math.comb(nq - 1 - p, s), _BLOCK)
        step = max(1, min(_BLOCK // tail_step, _BLOCK // nq))
        if m > 1:
            firsts = _chunks(combinations(range(p), m - 1), m - 1, step)
            heads = (np.column_stack([c, np.full(len(c), p)]) for c in firsts)
        else:
            heads = (np.full((1, m), p, np.intp),)  # no prefix, or p alone
        for prefixes in heads:
            yield prefixes, _chunks(combinations(range(p + 1, nq), s), s, tail_step)


def _subset_fits(ctx: CriteriaContext, k: int, lam: float) -> Iterator[tuple[np.ndarray, ...]]:
    """Every K-subset's fitness once, in blocks (prefixes, tails, fits):
    fits[a, b] scores prefixes[a] followed by tails[b], bitwise as the
    kernel scores that row. ``_fold`` extends each prefix's (H, C) sums of
    x[P, P] and row sums x[P, :] by the tail's questions, at O(1) per subset."""
    for prefixes, tail_chunks in _blocks(ctx.n_questions, k):
        rows = np.zeros((len(prefixes), ctx.n_questions, 2))
        for q in prefixes.T:
            rows += ctx.stats[q]
        heads = _fold(ctx.stats, prefixes.T, np.zeros((len(prefixes), 2)))[:, None]
        for tails in tail_chunks:
            sums = _fold(ctx.stats, tails.T, heads, rows)
            yield prefixes, tails, combined(*_from_sums(ctx, k, sums), lam)


def brute_force(ctx: CriteriaContext, k: int) -> SearchResult:
    """Exact argmax over all K-subsets; ties go to the lexicographically
    smallest gene list. Refuses instances above BRUTE_FORCE_LIMIT subsets.

    The history entry carries the mean fitness over every subset, which
    doubles as the exact random-baseline expectation.

    Each subset is a prefix P of K - 2 questions and a pair i < j after P's
    last question (K = 1: one question, no prefix). With h = H[P, :], its
    sum of H is sum(H[P, P]) + (2 h_i + H_ii), then + (2 (h_j + H_ij) +
    H_jj), and likewise for C: ``_fold``'s order, so each fitness is
    bitwise the kernel's. Each block is in lexicographic order, so its first
    maximum is its smallest tied subset, and the smallest (-fitness, genes)
    of these maxima is the optimum.
    """
    lam = _lambda(ctx)
    _check_k(ctx, k)
    if math.comb(ctx.n_questions, k) > BRUTE_FORCE_LIMIT:
        raise ValueError("instance too large for exhaustive search")
    best = (np.inf, ())
    fit_sum, count = 0.0, 0
    for prefixes, tails, fits in _subset_fits(ctx, k, lam):
        fit_sum += float(fits.sum())
        count += fits.size
        i, j = divmod(int(np.argmax(fits)), len(tails))
        best = min(best, (-float(fits[i, j]), tuple(prefixes[i].tolist() + tails[j].tolist())))
    assert count == math.comb(ctx.n_questions, k)
    report = fitness(ctx, best[1])
    stats = GenerationStats(0, report.fitness, fit_sum / count)
    return SearchResult("brute", best[1], report, (stats,), count)


def swap_gain(ctx: CriteriaContext, genes: Sequence[int]) -> float:
    """The largest change in fitness from exchanging one question of the
    assessment for one outside it, over all K (Q - K) single swaps, or 0.0
    when the assessment holds every question. A positive gain means the
    assessment is not 1-swap locally optimal.

    With h = x[S, :] summed over S, swapping s out and t in turns the sum of
    x[S, S] into sum - 2 h_s + x_ss + 2 (h_t - x_st) + x_tt, for x = H and
    C at once; the best swap by these sums is re-scored with ``fitness``.
    """
    current = fitness(ctx, genes)
    chosen = np.asarray(genes, dtype=np.intp)
    inside = np.zeros(ctx.n_questions, dtype=bool)
    inside[chosen] = True
    outside = np.flatnonzero(~inside)
    if not outside.size:
        return 0.0
    x = ctx.stats
    h, diag = x[chosen].sum(axis=0), np.diagonal(x).T
    drop = diag[chosen] - 2.0 * h[chosen]
    add = 2.0 * (h[outside] - x[np.ix_(chosen, outside)]) + diag[outside]
    # one contiguous row per statistic, summed pairwise whatever the layout
    sums = h[chosen].T.copy().sum(axis=1) + drop[:, None] + add
    fits = combined(*_from_sums(ctx, len(chosen), sums), current.lam)
    i, j = np.unravel_index(np.argmax(fits), fits.shape)
    swapped = chosen.copy()
    swapped[i] = outside[j]
    return fitness(ctx, swapped).fitness - current.fitness
