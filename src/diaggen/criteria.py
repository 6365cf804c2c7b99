"""Scoring of candidate assessments against a snapshot.

An assessment (a subset of the question pool) has two criteria:

* rmse: RMSE across learners between the mean score on the whole pool and
  the mean score on the subset (lower is better: the subset represents the
  pool),
* std: population standard deviation across learners of the subset mean
  score (higher is better: the subset separates strong from weak learners).

``combined`` is the objective, -rmse plus lam times std. lam is calibrated
as the ratio of the average rmse to the average std over uniformly random
subsets, which places "no better than a random subset" at fitness zero.
The two scoring entry points are ``fitness``, which scores one assessment
on a context with a calibrated lam, and ``batch_criteria``, which gives
(rmse, std) for many assessments, one per row.

Both criteria are quadratic in the subset indicator, so two Q x Q
statistics of the training matrix X (Q questions x L learners) are all
scoring needs. With D = X minus each learner's pool mean and Xc = X minus
each question's mean, H = D D^T / L and C = Xc Xc^T / L, and for a subset
S of K questions rmse^2 = sum(H[S, S]) / K^2 and std^2 = sum(C[S, S]) / K^2.
The context holds H and C as one (Q, Q, 2) array, summed together. Scoring
one subset costs O(K^2), independent of the number of learners. Every
subset score adds those terms in ``_fold``'s one order, so the searches,
which extend shared prefixes, score bitwise as ``fitness`` does.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Snapshot, _index_array, _learner_indices

# Rows of uniforms that ``sample_subsets`` holds at a time.
_SAMPLE_ROWS = 1024


@dataclass(frozen=True)
class FitnessReport:
    """One assessment scored on one learner set."""

    rmse: float
    std: float
    fitness: float
    lam: float

    def __post_init__(self) -> None:
        if abs(self.fitness - combined(self.rmse, self.std, self.lam)) > 1e-12:
            raise ValueError("fitness does not match rmse, std and lam")


@dataclass(frozen=True, eq=False)
class CriteriaContext:
    """The scoring statistics of a snapshot restricted to a learner subset.

    ``stats`` is one (Q, Q, 2) array: ``stats[..., 0]`` is H = D D^T / L,
    with D the learners' scores minus each learner's pool mean, and
    ``stats[..., 1]`` is C = Xc Xc^T / L, with Xc the scores minus each
    question's mean. A context holds no per-learner data.
    Read-only after construction; safe to score concurrently.
    """

    lam: float | None
    stats: np.ndarray

    @classmethod
    def build(
        cls,
        snapshot: Snapshot,
        learners: Sequence[int],
        lam: float | None = None,
    ) -> "CriteriaContext":
        learners = _learner_indices(learners, snapshot.n_learners)[0]
        if not learners.size:
            raise ValueError("learner subset is empty")
        x = snapshot.values[:, learners]
        d = x - x.mean(axis=0)
        x -= x.mean(axis=1, keepdims=True)
        stats = np.stack([d @ d.T, x @ x.T], axis=-1) / learners.size
        stats.flags.writeable = False
        ctx = cls(lam=None, stats=stats)
        return ctx if lam is None else ctx.with_lambda(lam)

    def with_lambda(self, lam: float) -> "CriteriaContext":
        if not lam >= 0:
            raise ValueError("lam must be non-negative")
        # Compared exactly, so an int too large for a float is not finite either.
        if not lam <= sys.float_info.max:
            raise ValueError("lam must be finite")
        return dataclasses.replace(self, lam=float(lam))

    @property
    def n_questions(self) -> int:
        return self.stats.shape[0]


def combined(
    rmse: float | np.ndarray, std: float | np.ndarray, lam: float
) -> float | np.ndarray:
    """The objective, of one (rmse, std) pair or of arrays of them:
    -rmse + lam * std."""
    return -rmse + lam * std


def _lambda(ctx: CriteriaContext) -> float:
    """The context's lam, which scoring a fitness requires."""
    if ctx.lam is None:
        raise ValueError("context has no lam; calibrate it first")
    return ctx.lam


def _check_k(ctx: CriteriaContext, k: int) -> None:
    """Reject an assessment size the context's question pool cannot hold."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if k > ctx.n_questions:
        raise ValueError("k exceeds the number of questions")


def _sorted_rows(ctx: CriteriaContext, genes_matrix: np.ndarray) -> np.ndarray:
    """Validated gene rows, one assessment each, each sorted.

    Sorting makes the set semantics literal: any permutation of the same
    genes produces bitwise-identical scores. Rows that are all strictly
    increasing are used as they are; any others are sorted into a copy.
    """
    idx = _index_array(
        genes_matrix, "gene indices must be integers", "gene index out of range for this snapshot"
    )
    if idx.ndim != 2 or idx.shape[1] == 0:
        raise ValueError("genes must give each assessment at least one question index")
    if idx.size and (idx.min() < 0 or idx.max() >= ctx.n_questions):
        raise ValueError("gene index out of range for this snapshot")
    if np.all(idx[:, 1:] > idx[:, :-1]):
        return idx
    idx = np.sort(idx, axis=1)
    if np.any(idx[:, 1:] == idx[:, :-1]):
        raise ValueError("genes must be distinct")
    return idx


def _fold(
    x: np.ndarray,
    cols: Sequence[np.ndarray],
    total: float | np.ndarray = 0.0,
    row: np.ndarray | None = None,
) -> np.ndarray:
    """Sums of x[S, S] over both statistics of a (Q, Q, 2) ``x``, shape
    (..., 2), in the one order of every subset score: the questions in gene
    order (``cols``, one index array per position), each question q adding
    2 c + x[q, q], where c is x[a, q] summed from left to right over the
    questions a before it. From a prefix P, pass ``total`` = sum(x[P, P])
    and ``row`` = x[P, :], shape (..., Q, 2), added in that order; c then
    starts at row[..., q, :].
    """
    nq = len(x)
    pairs = x.reshape(nq * nq, 2)
    for b, q in enumerate(cols):
        cross = np.zeros(q.shape + (2,)) if row is None else row.take(q, axis=-2)
        for a in cols[:b]:
            cross += pairs.take(a * nq + q, axis=0)
        total = total + (2.0 * cross + pairs.take(q * (nq + 1), axis=0))
    return total


def _criteria(ctx: CriteriaContext, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scoring kernel: (rmse, std) for each row of distinct, in-range
    genes, from ``_fold``'s K (K - 1) / 2 gathers of one (H, C) pair per
    row. Rows holding the same gene values in the same positions score
    bitwise-equal; callers sort rows to make that hold for equal sets."""
    return _from_sums(ctx, idx.shape[1], _fold(ctx.stats, idx.T))


def _from_sums(ctx: CriteriaContext, k: int, sums: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rmse, std) of K-subsets from their sums of H[S, S] and C[S, S],
    stacked on the last axis of ``sums`` as in ``stats``."""
    std = np.sqrt(np.maximum(sums[..., 1], 0.0) / (k * k))
    if k == ctx.n_questions:
        # K distinct genes out of Q = K questions: the subset is the pool.
        return np.zeros_like(std), std
    return np.sqrt(np.maximum(sums[..., 0], 0.0) / (k * k)), std


def fitness(ctx: CriteriaContext, genes: Sequence[int]) -> FitnessReport:
    """Score one assessment; requires a calibrated lam on the context."""
    lam = _lambda(ctx)
    rmse, std = _criteria(ctx, _sorted_rows(ctx, [genes]))
    rmse, std = float(rmse[0]), float(std[0])
    return FitnessReport(rmse=rmse, std=std, fitness=combined(rmse, std, lam), lam=lam)


def batch_criteria(
    ctx: CriteriaContext, genes_matrix: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (rmse, std) for many assessments at once, without lam.

    ``genes_matrix`` has one assessment per row; each row costs O(K^2)
    time and O(K) memory.
    """
    return _criteria(ctx, _sorted_rows(ctx, genes_matrix))


def sample_subsets(
    n_questions: int, k: int, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform random K-subsets (with replacement across samples): the
    first K entries of a uniform random permutation of the questions per
    sample, from an (n_samples, n_questions) matrix of uniforms drawn
    ``_SAMPLE_ROWS`` rows at a time, which ``rng.random`` fills as one block."""
    draws = np.empty((n_samples, min(k, n_questions)), dtype=np.intp)
    for at in range(0, n_samples, _SAMPLE_ROWS):
        uniforms = rng.random((min(_SAMPLE_ROWS, n_samples - at), n_questions))
        draws[at : at + len(uniforms)] = np.argsort(uniforms, axis=1)[:, :k]
    return draws


def calibrate_lambda(
    ctx: CriteriaContext, k: int, n_samples: int = 10_000, seed: int = 1
) -> float:
    """Estimate lam = mean(rmse) / mean(std) over random K-subsets.

    Deterministic in the seed. Raises when the snapshot shows no learner
    variance at all (mean std of zero), in which case lam is undefined.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    _check_k(ctx, k)
    rng = np.random.default_rng(seed)
    draws = sample_subsets(ctx.n_questions, k, n_samples, rng)
    draws.sort(axis=1)
    rmse, std = batch_criteria(ctx, draws)
    mean_std = float(std.mean())
    if mean_std <= 0.0:
        raise ValueError("snapshot has no learner discrimination; lambda undefined")
    return float(rmse.mean()) / mean_std
