"""Predicted snapshots from raw interaction logs, without a neural model.

Two estimators are provided. The additive correct-ratio estimator combines
smoothed per-question and per-learner correct ratios. The one-parameter
logistic (Rasch) estimator fits a per-learner ability and per-question
difficulty by penalized maximum likelihood and predicts
sigmoid(ability - difficulty).

Also implements the learner-count sufficiency analysis: how much the mean
learner performance of a snapshot moves as learners are added, used to pick
a practical snapshot size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import expit
from scipy.stats import pearsonr, spearmanr

from .core import InteractionLog, Snapshot, build_pool, to_index_arrays

_CLIP = 1e-3


@dataclass(frozen=True)
class RaschModel:
    """Fitted one-parameter logistic model: P(correct) = sigmoid(theta - b).

    Difficulties are centered to zero mean after fitting (the ability scale
    absorbs the shift, predictions are unchanged). ``nll_history`` records
    the penalized negative log-likelihood accepted at each epoch.
    """

    theta: np.ndarray
    b: np.ndarray
    learner_ids: tuple[str, ...]
    question_ids: tuple[str, ...]
    reg: float
    learning_rate: float
    max_epochs: int
    tol: float
    nll_history: tuple[float, ...]


def _penalized_nll(z: np.ndarray, y: np.ndarray, reg: float, *params: np.ndarray) -> float:
    signed = np.where(y > 0.5, -z, z)
    nll = float(np.logaddexp(0.0, signed).sum())
    with np.errstate(over="ignore"):
        for p in params:
            nll += 0.5 * reg * float(p @ p)
    return nll


def fit_rasch(
    log: InteractionLog,
    *,
    reg: float = 1e-4,
    learning_rate: float = 0.1,
    max_epochs: int = 500,
    tol: float = 1e-6,
) -> RaschModel:
    """Fit abilities and difficulties by full-batch gradient ascent on the
    L2-penalized Bernoulli log-likelihood.

    Steps are scaled per parameter by its record count, and the step size
    is halved whenever a step would increase the penalized negative
    log-likelihood, which keeps the objective monotonically non-increasing.
    Stops when the largest parameter change falls below ``tol``. Raises if
    the likelihood turns non-finite.
    """
    q_index, l_index = build_pool(log)
    l_idx, q_idx, y = to_index_arrays(log, q_index, l_index)
    n_learners = len(l_index)
    n_questions = len(q_index)

    theta = np.zeros(n_learners)
    b = np.zeros(n_questions)
    n_per_learner = np.bincount(l_idx, minlength=n_learners).astype(float)
    n_per_question = np.bincount(q_idx, minlength=n_questions).astype(float)

    lr = learning_rate
    nll = _penalized_nll(theta[l_idx] - b[q_idx], y, reg, theta, b)
    nll_history = [nll]
    for epoch in range(1, max_epochs + 1):
        resid = y - expit(theta[l_idx] - b[q_idx])
        grad_theta = np.bincount(l_idx, weights=resid, minlength=n_learners) - reg * theta
        grad_b = -np.bincount(q_idx, weights=resid, minlength=n_questions) - reg * b
        while True:
            step_theta = lr * grad_theta / n_per_learner
            step_b = lr * grad_b / n_per_question
            new_theta = theta + step_theta
            new_b = b + step_b
            new_nll = _penalized_nll(
                new_theta[l_idx] - new_b[q_idx], y, reg, new_theta, new_b
            )
            if not np.isfinite(new_nll):
                raise ValueError(f"rasch fit diverged at epoch {epoch}")
            if new_nll <= nll + 1e-9:
                break
            lr /= 2.0
            if lr < 1e-12:
                break
        if new_nll > nll + 1e-9:
            break
        max_change = max(
            float(np.abs(step_theta).max()), float(np.abs(step_b).max())
        )
        theta, b, nll = new_theta, new_b, new_nll
        nll_history.append(nll)
        if max_change < tol:
            break

    shift = float(b.mean())
    b = b - shift
    theta = theta - shift
    return RaschModel(
        theta=theta,
        b=b,
        learner_ids=tuple(l_index),
        question_ids=tuple(q_index),
        reg=reg,
        learning_rate=learning_rate,
        max_epochs=max_epochs,
        tol=tol,
        nll_history=tuple(nll_history),
    )


def fit_abilities(model: RaschModel, log: InteractionLog) -> tuple[np.ndarray, tuple[str, ...]]:
    """Estimate abilities for new learners with difficulties frozen.

    This is how a fitted model is applied to learners outside the fitting
    split: only their own records are used and the question scale does not
    move. Questions absent from the model are rejected.
    """
    known = {qid: i for i, qid in enumerate(model.question_ids)}
    missing = sorted({r.question_id for r in log.records} - known.keys())
    if missing:
        raise ValueError(f"questions not in the fitted model: {missing[:5]}")
    l_index: dict[str, int] = {}
    for rec in log.records:
        l_index.setdefault(rec.learner_id, len(l_index))
    if not l_index:
        raise ValueError("empty interaction log")
    l_idx, q_idx, y = to_index_arrays(log, known, l_index)
    n_learners = len(l_index)

    theta = np.zeros(n_learners)
    counts = np.bincount(l_idx, minlength=n_learners).astype(float)
    b = model.b
    lr = model.learning_rate
    nll = _penalized_nll(theta[l_idx] - b[q_idx], y, model.reg, theta)
    for epoch in range(1, model.max_epochs + 1):
        resid = y - expit(theta[l_idx] - b[q_idx])
        grad = np.bincount(l_idx, weights=resid, minlength=n_learners) - model.reg * theta
        while True:
            step = lr * grad / counts
            new_theta = theta + step
            new_nll = _penalized_nll(new_theta[l_idx] - b[q_idx], y, model.reg, new_theta)
            if not np.isfinite(new_nll):
                raise ValueError(f"ability fit diverged at epoch {epoch}")
            if new_nll <= nll + 1e-9:
                break
            lr /= 2.0
            if lr < 1e-12:
                break
        if new_nll > nll + 1e-9:
            break
        theta, nll = new_theta, new_nll
        if float(np.abs(step).max()) < model.tol:
            break
    return theta, tuple(l_index)


def rasch_snapshot(model: RaschModel) -> Snapshot:
    """Predicted snapshot sigmoid(theta - b) for the model's own learners."""
    values = expit(model.theta[None, :] - model.b[:, None])
    return Snapshot(
        values=values,
        question_ids=model.question_ids,
        learner_ids=model.learner_ids,
    )


def correct_ratio_snapshot(
    log: InteractionLog,
    smoothing: float = 1.0,
    *,
    fit_learners: set[str] | None = None,
) -> Snapshot:
    """Additive estimator from smoothed correct ratios.

    Entry (q, l) is clip(p_q + a_l - g, eps, 1 - eps) where p_q is the
    smoothed correct ratio of question q, a_l the smoothed correct ratio of
    learner l over their own records, and g the smoothed global ratio.
    A learner without history falls back to p_q exactly (a_l = g).

    ``fit_learners`` optionally restricts the records used for p_q and g
    (per-learner ratios always come from the learner's own records), so a
    held-out split can be kept out of the question statistics.
    """
    if smoothing < 0:
        raise ValueError("smoothing must be non-negative")
    q_index, l_index = build_pool(log)
    nq, nl = len(q_index), len(l_index)

    q_correct = np.zeros(nq)
    q_count = np.zeros(nq)
    l_correct = np.zeros(nl)
    l_count = np.zeros(nl)
    g_correct = 0.0
    g_count = 0.0
    for rec in log.records:
        c = 1.0 if rec.correct else 0.0
        li = l_index[rec.learner_id]
        l_correct[li] += c
        l_count[li] += 1.0
        if fit_learners is None or rec.learner_id in fit_learners:
            qi = q_index[rec.question_id]
            q_correct[qi] += c
            q_count[qi] += 1.0
            g_correct += c
            g_count += 1.0
    if g_count == 0:
        raise ValueError("no records available for question statistics")

    def smoothed(correct, count):
        return (correct + smoothing) / (count + 2.0 * smoothing)

    with np.errstate(invalid="ignore", divide="ignore"):
        p_q = smoothed(q_correct, q_count)
        a_l = smoothed(l_correct, l_count)
    g = smoothed(g_correct, g_count)
    a_l = np.where(l_count > 0, a_l, g)

    values = np.clip(p_q[:, None] + a_l[None, :] - g, _CLIP, 1.0 - _CLIP)
    return Snapshot(
        values=values,
        question_ids=tuple(q_index),
        learner_ids=tuple(l_index),
    )


@dataclass(frozen=True)
class SufficiencyCurve:
    """Absolute change of mean learner performance as learners accumulate.

    ``counts[i]`` learners produce a mean that differs by ``deltas[i]``
    from the mean one step earlier. ``chosen_n`` is the first count from
    which the deltas stay below the threshold for a full window, or None
    when the curve never settles.
    """

    counts: tuple[int, ...]
    deltas: tuple[float, ...]
    chosen_n: int | None

    def __post_init__(self) -> None:
        if len(self.counts) != len(self.deltas):
            raise ValueError("counts and deltas must have equal length")
        if any(b <= a for a, b in zip(self.counts, self.counts[1:])):
            raise ValueError("counts must be strictly increasing")
        if any(d < 0 for d in self.deltas):
            raise ValueError("deltas must be non-negative")


def _count_grid(n_learners: int, step: int) -> list[int]:
    grid = list(range(step, n_learners + 1, step))
    if not grid or grid[-1] != n_learners:
        grid.append(n_learners)
    return grid


def _choose_n(counts: Sequence[int], deltas: np.ndarray, epsilon: float, window: int) -> int | None:
    for i in range(len(deltas) - window + 1):
        if np.all(deltas[i : i + window] < epsilon):
            return int(counts[i])
    return None


def sufficiency_curve(
    snapshot: Snapshot,
    step: int,
    epsilon: float = 1e-4,
    window: int = 3,
    seed: int = 0,
) -> SufficiencyCurve:
    """Mean-performance stability as learners are cumulatively added.

    Learners are shuffled once by the seed, then the running mean of
    per-learner average performance is computed at each multiple of
    ``step`` (plus the full count). The curve starts at the second grid
    point, the first one at which a change is defined.
    """
    if step < 1:
        raise ValueError("step must be at least 1")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if window < 1:
        raise ValueError("window must be at least 1")
    rng = np.random.default_rng(seed)
    perf = snapshot.values.mean(axis=0)
    shuffled = perf[rng.permutation(perf.size)]
    grid = _count_grid(perf.size, step)
    if len(grid) < 2:
        return SufficiencyCurve(counts=(), deltas=(), chosen_n=None)
    csum = np.cumsum(shuffled)
    means = csum[np.asarray(grid) - 1] / np.asarray(grid, dtype=float)
    deltas = np.abs(np.diff(means))
    counts = grid[1:]
    chosen = _choose_n(counts, deltas, epsilon, window)
    return SufficiencyCurve(
        counts=tuple(counts), deltas=tuple(float(d) for d in deltas), chosen_n=chosen
    )


def per_question_sufficiency_curve(
    snapshot: Snapshot,
    step: int,
    epsilon: float = 1e-4,
    window: int = 3,
    seed: int = 0,
) -> SufficiencyCurve:
    """Stricter variant tracking every question's running mean.

    The delta at each count is the largest per-question mean change, so
    ``chosen_n`` marks the count from which all questions are stable.
    """
    if step < 1:
        raise ValueError("step must be at least 1")
    rng = np.random.default_rng(seed)
    order = rng.permutation(snapshot.n_learners)
    shuffled = snapshot.values[:, order]
    grid = _count_grid(snapshot.n_learners, step)
    if len(grid) < 2:
        return SufficiencyCurve(counts=(), deltas=(), chosen_n=None)
    csum = np.cumsum(shuffled, axis=1)
    means = csum[:, np.asarray(grid) - 1] / np.asarray(grid, dtype=float)
    deltas = np.abs(np.diff(means, axis=1)).max(axis=0)
    counts = grid[1:]
    chosen = _choose_n(counts, deltas, epsilon, window)
    return SufficiencyCurve(
        counts=tuple(counts), deltas=tuple(float(d) for d in deltas), chosen_n=chosen
    )


def mean_performance_correlation(
    predicted: Snapshot, truth: Snapshot
) -> tuple[float, float]:
    """(Pearson, Spearman) correlation of per-learner mean performance.

    Learners and questions are aligned by external id; means are taken
    over the common question set.
    """
    truth_l, truth_q = set(truth.learner_ids), set(truth.question_ids)
    common_l = [l for l in predicted.learner_ids if l in truth_l]
    common_q = [q for q in predicted.question_ids if q in truth_q]
    if len(common_l) < 2:
        raise ValueError("need at least 2 common learners to correlate")
    if not common_q:
        raise ValueError("no common questions between snapshots")

    def means(snap: Snapshot) -> np.ndarray:
        qpos = {q: i for i, q in enumerate(snap.question_ids)}
        lpos = {l: i for i, l in enumerate(snap.learner_ids)}
        rows = np.asarray([qpos[q] for q in common_q], dtype=np.intp)
        cols = np.asarray([lpos[l] for l in common_l], dtype=np.intp)
        return snap.values[np.ix_(rows, cols)].mean(axis=0)

    a, b = means(predicted), means(truth)
    return float(pearsonr(a, b).statistic), float(spearmanr(a, b).statistic)
