"""Predicted snapshots from raw interaction logs, without a neural model.

Two estimators are provided. The additive correct-ratio estimator combines
smoothed per-question and per-learner correct ratios, counted with
``np.bincount`` over the log's columns. The one-parameter logistic (Rasch)
estimator fits a per-learner ability and per-question difficulty by
L2-penalized joint maximum likelihood and predicts
sigmoid(ability - difficulty). One Newton solver serves both the joint fit
(``fit_rasch``) and the ability-only fit with difficulties frozen
(``fit_abilities``); it alternates diagonal Newton steps on the two blocks
with step halving, and fixes the scale the likelihood leaves free by the
penalty-minimising shift, so sum(theta) + sum(b) = 0 at every iterate.
Each trial point costs one pass over the records, which yields both the
objective and the probabilities sigmoid(theta - b); the accepted trial's
probabilities drive the next Newton step, and the shift, which leaves
theta - b alone, re-evaluates only the penalty.

Also implements the learner-count sufficiency analysis: how much the mean
learner performance of a snapshot moves as learners are added, used to pick
a practical snapshot size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import InteractionLog, Snapshot, build_pool, sigmoid, to_index_arrays

_CLIP = 1e-3


@dataclass(frozen=True)
class RaschModel:
    """Fitted one-parameter logistic model: P(correct) = sigmoid(theta - b).

    ``nll_history`` records the penalized negative log-likelihood at the
    start and after each iteration, so ``iterations`` is one less than its
    length. ``converged`` says whether an iteration within ``max_epochs``
    moved no parameter by ``tol`` or more.
    """

    theta: np.ndarray
    b: np.ndarray
    learner_ids: tuple[str, ...]
    question_ids: tuple[str, ...]
    reg: float
    max_epochs: int
    tol: float
    nll_history: tuple[float, ...]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.nll_history) - 1


def _newton(
    l_idx: np.ndarray,
    q_idx: np.ndarray,
    y: np.ndarray,
    b: np.ndarray,
    *,
    n_learners: int,
    reg: float,
    max_epochs: int,
    tol: float,
    fit_b: bool,
) -> tuple[np.ndarray, np.ndarray, list[float], bool]:
    """Minimise the L2-penalized Bernoulli NLL of sigmoid(theta - b) by
    alternating diagonal Newton steps, starting from theta = 0.

    Each iteration takes a Newton step on theta and, when ``fit_b``, one on
    b; both block Hessians are diagonal. A step is halved until the
    objective does not rise. Fitting both blocks, the iteration ends by
    shifting theta and b by the same constant: the likelihood depends only
    on theta - b, so the shift that zeroes sum(theta) + sum(b) minimises the
    penalty along the one direction the likelihood leaves flat, and only the
    penalty is evaluated again. Converges when no parameter moves by ``tol``
    or more in an iteration; stops unconverged after ``max_epochs``
    iterations, or when no step size keeps the objective from rising.
    Returns (theta, b, objective history, converged).
    """
    flip = 1.0 - 2.0 * y
    # Record-length work buffers, written in place: a fresh temporary of
    # this size costs more in page faults than the arithmetic done on it.
    z, e, p, work = (np.empty(y.size) for _ in range(4))

    def penalty(theta: np.ndarray, b: np.ndarray) -> float:
        return 0.5 * reg * float(theta @ theta + b @ b)

    def evaluate(theta: np.ndarray, b: np.ndarray) -> float:
        """The NLL of the records at (theta, b), leaving sigmoid(theta - b)
        in ``p``.

        With z = theta - b and e = exp(-|z|), a record's NLL is
        log1p(e) + max(flip * z, 0), a sum of two non-negative terms, and
        sigmoid(z) is 1 / (1 + e) for z >= 0 and e / (1 + e) below.
        """
        # mode="clip" skips the bounds check; the indices come from the pool.
        np.take(theta, l_idx, out=z, mode="clip")
        np.subtract(z, np.take(b, q_idx, out=work, mode="clip"), out=z)
        np.abs(z, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        nll = float(np.log1p(e, out=work).sum())
        np.multiply(flip, z, out=work)
        nll += float(np.maximum(work, 0.0, out=work).sum())
        # e <= 1, so max(z >= 0, e) is 1 for z >= 0 and e below.
        np.maximum(np.greater_equal(z, 0.0, out=work), e, out=work)
        np.divide(work, np.add(e, 1.0, out=p), out=p)
        return nll

    def newton_step(theta, b, on_b):
        """Diagonal Newton step on theta, or on b when ``on_b``, from the
        probabilities in ``p``."""
        index, value, sign = (q_idx, b, -1.0) if on_b else (l_idx, theta, 1.0)
        grad = np.bincount(index, weights=np.subtract(p, y, out=work), minlength=value.size)
        grad = sign * grad + reg * value
        np.multiply(np.subtract(1.0, p, out=work), p, out=work)
        return -grad / (np.bincount(index, weights=work, minlength=value.size) + reg)

    def descend(theta, b, d_theta, d_b, nll):
        """The first of t = 1, 1/2, 1/4, ... at which the objective does not
        rise: (theta + t d_theta, b + t d_b, record NLL, objective), or
        None. ``p`` is left at the accepted point."""
        t = 1.0
        while t > 1e-12:
            trial = (theta + t * d_theta, b + t * d_b)
            loss = evaluate(*trial)
            value = loss + penalty(*trial)
            if value <= nll + 1e-9:
                return *trial, loss, value
            t /= 2.0
        return None

    theta = np.zeros(n_learners)
    nll = evaluate(theta, b) + penalty(theta, b)
    history = [nll]
    for _ in range(max_epochs):
        start_theta, start_b = theta, b
        moved = descend(theta, b, newton_step(theta, b, on_b=False), 0.0, nll)
        if moved is None:
            break
        theta, b, loss, nll = moved
        if fit_b:
            moved = descend(theta, b, 0.0, newton_step(theta, b, on_b=True), nll)
            if moved is None:
                break
            theta, b, loss, nll = moved
            shift = -(theta.sum() + b.sum()) / (theta.size + b.size)
            theta, b = theta + shift, b + shift
            nll = loss + penalty(theta, b)
        history.append(nll)
        change = max(np.abs(theta - start_theta).max(), np.abs(b - start_b).max())
        if change < tol:
            return theta, b, history, True
    return theta, b, history, False


def fit_rasch(
    log: InteractionLog,
    *,
    reg: float = 1e-4,
    max_epochs: int = 500,
    tol: float = 1e-6,
) -> RaschModel:
    """Fit abilities and difficulties by penalized joint maximum
    likelihood with the Newton solver above.

    ``reg`` is the L2 weight on both blocks, ``max_epochs`` the iteration
    cap and ``tol`` the largest parameter change of an iteration that
    counts as converged; all three must be positive.
    """
    if reg <= 0:
        raise ValueError("reg must be positive")
    if max_epochs < 1:
        raise ValueError("max_epochs must be at least 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    q_index, l_index = build_pool(log)
    l_idx, q_idx, y = to_index_arrays(log, q_index, l_index)
    theta, b, history, converged = _newton(
        l_idx, q_idx, y, np.zeros(len(q_index)),
        n_learners=len(l_index), reg=reg, max_epochs=max_epochs, tol=tol, fit_b=True,
    )
    return RaschModel(
        theta=theta,
        b=b,
        learner_ids=tuple(l_index),
        question_ids=tuple(q_index),
        reg=reg,
        max_epochs=max_epochs,
        tol=tol,
        nll_history=tuple(history),
        converged=converged,
    )


def fit_abilities(model: RaschModel, log: InteractionLog) -> tuple[np.ndarray, tuple[str, ...]]:
    """Estimate the abilities of the log's learners with difficulties frozen.

    This is how a fitted model is applied to learners outside the fitting
    split: only their own records are used and the question scale does not
    move. Questions absent from the model are rejected. Returns the
    abilities and the learner ids in log order.
    """
    known = {qid: i for i, qid in enumerate(model.question_ids)}
    missing = sorted(set(log.question_ids) - known.keys())
    if missing:
        raise ValueError(f"questions not in the fitted model: {missing[:5]}")
    _, l_index = build_pool(log)
    l_idx, q_idx, y = to_index_arrays(log, known, l_index)
    theta, *_ = _newton(
        l_idx, q_idx, y, model.b,
        n_learners=len(l_index), reg=model.reg, max_epochs=model.max_epochs,
        tol=model.tol, fit_b=False,
    )
    return theta, tuple(l_index)


def rasch_snapshot(model: RaschModel, theta: np.ndarray, learner_ids: Sequence[str]) -> Snapshot:
    """Predicted snapshot sigmoid(theta - b) for the given abilities."""
    return Snapshot(
        values=sigmoid(np.asarray(theta)[None, :] - model.b[:, None]),
        question_ids=model.question_ids,
        learner_ids=tuple(learner_ids),
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

    ``fit_learners`` optionally restricts the records used for p_q and g
    (per-learner ratios always come from the learner's own records), so a
    held-out split can be kept out of the question statistics.
    """
    if smoothing < 0:
        raise ValueError("smoothing must be non-negative")
    q_index, l_index = build_pool(log)
    l_idx, q_idx, y = to_index_arrays(log, q_index, l_index)
    nq, nl = len(q_index), len(l_index)
    if fit_learners is not None:
        fitting = np.fromiter((lid in fit_learners for lid in l_index), dtype=bool, count=nl)
        keep = fitting[l_idx]
        q_idx, fit_y = q_idx[keep], y[keep]
    else:
        fit_y = y
    if not fit_y.size:
        raise ValueError("no records available for question statistics")

    def smoothed(correct, count):
        return (correct + smoothing) / (count + 2.0 * smoothing)

    with np.errstate(invalid="ignore", divide="ignore"):
        p_q = smoothed(
            np.bincount(q_idx, weights=fit_y, minlength=nq), np.bincount(q_idx, minlength=nq)
        )
    a_l = smoothed(np.bincount(l_idx, weights=y, minlength=nl), np.bincount(l_idx, minlength=nl))
    g = smoothed(fit_y.sum(), fit_y.size)

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


def _sufficiency(
    values: np.ndarray, step: int, epsilon: float, window: int, seed: int
) -> SufficiencyCurve:
    """The curve of the running means of each row of ``values`` (rows x
    learners): learners are shuffled once by the seed, and the delta at a
    grid count is the largest change of any row's mean since the previous
    grid count."""
    if step < 1:
        raise ValueError("step must be at least 1")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if window < 1:
        raise ValueError("window must be at least 1")
    rng = np.random.default_rng(seed)
    shuffled = values[:, rng.permutation(values.shape[1])]
    grid = _count_grid(values.shape[1], step)
    if len(grid) < 2:
        return SufficiencyCurve(counts=(), deltas=(), chosen_n=None)
    csum = np.cumsum(shuffled, axis=1)
    means = csum[:, np.asarray(grid) - 1] / np.asarray(grid, dtype=float)
    deltas = np.abs(np.diff(means, axis=1)).max(axis=0)
    counts = grid[1:]
    chosen = None
    for i in range(len(deltas) - window + 1):
        if np.all(deltas[i : i + window] < epsilon):
            chosen = int(counts[i])
            break
    return SufficiencyCurve(
        counts=tuple(counts), deltas=tuple(float(d) for d in deltas), chosen_n=chosen
    )


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
    point, the first one at which a change is defined. ``step`` and
    ``window`` must be at least 1 and ``epsilon`` positive.
    """
    return _sufficiency(snapshot.values.mean(axis=0)[None, :], step, epsilon, window, seed)


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
    Learners are shuffled as in ``sufficiency_curve`` and the arguments
    are checked alike.
    """
    return _sufficiency(snapshot.values, step, epsilon, window, seed)


def mean_performance_correlation(
    predicted: Snapshot, truth: Snapshot
) -> tuple[float, float]:
    """(Pearson, Spearman) correlation of per-learner mean performance.

    Learners and questions are aligned by external id; means are taken
    over the common question set. Raises when either side's means are all
    equal, since no correlation is defined then.
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
    for name, m in (("predicted", a), ("true", b)):
        if np.all(m == m[0]):
            raise ValueError(
                f"{name} per-learner mean performance is constant; correlation is undefined"
            )
    spearman = np.corrcoef(_average_ranks(a), _average_ranks(b))[0, 1]
    return float(np.corrcoef(a, b)[0, 1]), float(spearman)


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``, tied values sharing their average rank."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
