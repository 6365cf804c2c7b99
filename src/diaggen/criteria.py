"""Scoring of candidate assessments against a snapshot.

Two criteria are combined into one scalar objective:

* discrepancy: RMSE across learners between the mean score on the whole
  question pool and the mean score on the selected subset (lower is
  better, the subset represents the pool),
* discrimination: population standard deviation across learners of the
  subset mean score (higher is better, the subset separates strong from
  weak learners).

fitness = -discrepancy + lam * discrimination, where lam rescales the two
criteria to comparable magnitude. lam is calibrated as the ratio of the
average discrepancy to the average discrimination over uniformly random
subsets, which places "no better than a random subset" at fitness zero.

Both criteria are quadratic in the subset indicator, so two Q x Q
statistics of the training matrix X (Q questions x L learners) are all
scoring needs. With D = X minus each learner's pool mean and Xc = X minus
each question's mean, H = D D^T / L and C = Xc Xc^T / L, and for a subset
S of K questions

    discrepancy^2 = sum(H[S, S]) / K^2,  discrimination^2 = sum(C[S, S]) / K^2.

Scoring one subset costs O(K^2), independent of the number of learners.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Assessment, Snapshot

Genes = Sequence[int] | Assessment


@dataclass(frozen=True)
class FitnessReport:
    """One assessment scored on one learner set."""

    rmse: float
    std: float
    fitness: float
    lam: float

    def __post_init__(self) -> None:
        if abs(self.fitness - combined(self.rmse, self.std, self.lam)) > 1e-12:
            raise ValueError("fitness does not equal -rmse + lam * std")


@dataclass(frozen=True)
class CriteriaContext:
    """The scoring statistics of a snapshot restricted to a learner subset.

    ``gap`` is H = D D^T / L, with D the learners' scores minus each
    learner's pool mean; ``spread`` is C = Xc Xc^T / L, with Xc the scores
    minus each question's mean. Both are Q x Q, so a context holds no
    per-learner data.
    Read-only after construction; safe to score concurrently.
    """

    lam: float | None
    gap: np.ndarray
    spread: np.ndarray

    @classmethod
    def build(
        cls,
        snapshot: Snapshot,
        learners: Sequence[int],
        lam: float | None = None,
    ) -> "CriteriaContext":
        learners = tuple(int(x) for x in learners)
        if not learners:
            raise ValueError("learner subset is empty")
        if min(learners) < 0 or max(learners) >= snapshot.n_learners:
            raise ValueError("learner index out of range")
        x = snapshot.values[:, np.asarray(learners, dtype=np.intp)]
        d = x - x.mean(axis=0)
        xc = x - x.mean(axis=1, keepdims=True)
        gap = d @ d.T / len(learners)
        spread = xc @ xc.T / len(learners)
        gap.flags.writeable = False
        spread.flags.writeable = False
        return cls(lam=lam, gap=gap, spread=spread)

    def with_lambda(self, lam: float) -> "CriteriaContext":
        if not lam >= 0:
            raise ValueError("lam must be non-negative")
        return dataclasses.replace(self, lam=float(lam))

    @property
    def n_questions(self) -> int:
        return self.gap.shape[0]


def combined(rmse: float, std: float, lam: float) -> float:
    """The scalar objective: -rmse + lam * std."""
    return -rmse + lam * std


def _sorted_rows(ctx: CriteriaContext, idx: np.ndarray) -> np.ndarray:
    """Validated gene rows, each sorted.

    Sorting makes the set semantics literal: any permutation of the same
    genes produces bitwise-identical scores.
    """
    if idx.size and (idx.min() < 0 or idx.max() >= ctx.n_questions):
        raise ValueError("gene index out of range for this snapshot")
    idx = np.sort(idx, axis=1)
    if np.any(idx[:, 1:] == idx[:, :-1]):
        raise ValueError("genes must be distinct")
    return idx


def _criteria(ctx: CriteriaContext, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scoring kernel: (rmse, std) for each row of distinct, in-range
    genes. Rows holding the same gene values in the same positions score
    bitwise-equal; callers sort rows to make that hold for equal sets."""
    k = idx.shape[1]
    rows, cols = idx[:, :, None], idx[:, None, :]
    std = np.sqrt(np.maximum(ctx.spread[rows, cols].sum(axis=(1, 2)), 0.0) / (k * k))
    if k == ctx.n_questions:
        # K distinct genes out of Q = K questions: the subset is the pool.
        return np.zeros(len(idx)), std
    rmse = np.sqrt(np.maximum(ctx.gap[rows, cols].sum(axis=(1, 2)), 0.0) / (k * k))
    return rmse, std


def _score(ctx: CriteriaContext, genes: Genes) -> tuple[float, float]:
    """(rmse, std) of one assessment."""
    if isinstance(genes, Assessment):
        genes = genes.genes
    arr = np.asarray(genes, dtype=np.intp)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("genes must be a non-empty 1-D index sequence")
    rmse, std = _criteria(ctx, _sorted_rows(ctx, arr[None, :]))
    return float(rmse[0]), float(std[0])


def discrepancy(ctx: CriteriaContext, genes: Genes) -> float:
    """RMSE across learners between pool means and subset means."""
    return _score(ctx, genes)[0]


def discrimination(ctx: CriteriaContext, genes: Genes) -> float:
    """Population standard deviation across learners of subset means."""
    return _score(ctx, genes)[1]


def fitness(ctx: CriteriaContext, genes: Genes) -> FitnessReport:
    """Score one assessment; requires a calibrated lam on the context."""
    if ctx.lam is None:
        raise ValueError("context has no lam; calibrate it first")
    rmse, std = _score(ctx, genes)
    return FitnessReport(
        rmse=rmse, std=std, fitness=combined(rmse, std, ctx.lam), lam=ctx.lam
    )


def batch_criteria(
    ctx: CriteriaContext, genes_matrix: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (rmse, std) for many assessments at once.

    ``genes_matrix`` has one assessment per row; each row costs O(K^2)
    memory and time.
    """
    idx = np.asarray(genes_matrix, dtype=np.intp)
    if idx.ndim != 2 or idx.shape[1] == 0:
        raise ValueError("genes_matrix must be 2-D with at least one gene per row")
    return _criteria(ctx, _sorted_rows(ctx, idx))


def sample_subsets(
    n_questions: int, k: int, n_samples: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform random K-subsets (with replacement across samples): the
    first K entries of a uniform random permutation of the questions per
    sample, from one (n_samples, n_questions) block of uniforms."""
    order = np.argsort(rng.random((n_samples, n_questions)), axis=1)
    # Copy, so the full (n_samples, n_questions) block is not kept alive.
    return order[:, :k].copy()


def calibrate_lambda(
    ctx: CriteriaContext, k: int, n_samples: int = 10_000, seed: int = 0
) -> float:
    """Estimate lam = mean(rmse) / mean(std) over random K-subsets.

    Deterministic in the seed. Raises when the snapshot shows no learner
    variance at all (mean std of zero), in which case lam is undefined.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if not 1 <= k <= ctx.n_questions:
        raise ValueError("k must lie in [1, number of questions]")
    rng = np.random.default_rng(seed)
    draws = sample_subsets(ctx.n_questions, k, n_samples, rng)
    rmse, std = batch_criteria(ctx, draws)
    mean_std = float(std.mean())
    if mean_std <= 0.0:
        raise ValueError("snapshot has no learner discrimination; lambda undefined")
    return float(rmse.mean()) / mean_std
