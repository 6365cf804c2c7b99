"""Predicted snapshots from raw interaction logs, without a neural model.

Two estimators are provided. The additive correct-ratio estimator combines
smoothed per-question and per-learner correct ratios, counted with
``np.bincount`` over the log's columns. The one-parameter logistic (Rasch)
estimator fits a per-learner ability and per-question difficulty by
L2-penalized joint maximum likelihood and predicts
sigmoid(ability - difficulty). One Newton solver serves both the joint fit
(``fit_rasch``, which fits on the records of its ``fit_learners`` alone,
such as a split's ``train``, in place, and gives b = 0 to a question none of
them answered) and the ability-only fit with difficulties frozen
(``fit_abilities``, which appends a question the fitted model lacks with
b = 0), both returning a ``RaschModel``. It alternates diagonal Newton
steps on the two blocks, halving each ability's or difficulty's step on
its own until that coordinate's share of the objective does not rise,
and fixes the offset the likelihood leaves free by the penalty-minimising
shift, so that sum(theta) + sum(b) = 0 over every connected part of the design.

The solver runs once per group of learners, not once per learner. A group
is the learners who answered the same multiset of questions and got the
same raw score: given the questions a learner answered, the Rasch
likelihood depends on their answers only through the raw score, which is
a sufficient statistic for ability (Rasch 1960; Fischer and Molenaar,
*Rasch Models*, 1995). The members of a group share one ability, and the
answers they gave at one position of their design are binomial in the
number of right ones. So every group, one-member groups included, is one
record per position of its design: the group, the question and how many
of its members answered it rightly, which leaves every step and objective
value as they are per learner. The grouping hashes each learner's
questions and sorts the records once, by (learner, question). When every
learner answers one fixed test, as in a diagnostic assessment, the
300,000 records of the 6000-learner, 50-question seed-101 log become
1,500: 30 groups of 50. On a sparse log, where few learners share their
questions, nearly every group has one member and there are about as many
records as in the log.

Also implements the learner-count sufficiency analysis: how much the mean
learner performance of a snapshot moves as learners are added, used to pick
a practical snapshot size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import NamedTuple, Sequence

import numpy as np

# build_pool and to_index_arrays are not called here; perfbench/tracing.py
# wraps them under these names.
from .core import InteractionLog, Snapshot, _learner_mask, build_pool, sigmoid, to_index_arrays

_CLIP = 1e-3


@dataclass(frozen=True, eq=False)
class RaschModel:
    """Fitted one-parameter logistic model: P(correct) = sigmoid(theta - b).

    ``fit_rasch`` and ``fit_abilities`` both return one, with one ``theta`` per
    learner of ``learner_ids``, one ``b`` per question of ``question_ids``.
    ``fit_rasch`` keeps every question of its log, with b = 0 for one that
    no fitting learner answered; ``fit_abilities`` appends the questions of
    its log that the fitted model lacks, with b = 0.
    ``nll_history`` records the penalized negative log-likelihood at the
    start and after each iteration, so ``iterations`` is one less than its
    length. ``converged`` says whether an iteration within ``max_epochs``
    moved no parameter by ``tol`` or more. ``groups`` is the number of
    abilities solved for: learners who answered the same questions and got
    the same raw score share one.
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
    groups: int

    @property
    def iterations(self) -> int:
        return len(self.nll_history) - 1


class _Groups(NamedTuple):
    """Learners pooled into groups, and the records one solve iterates on.

    A learner's design is the multiset of questions they answered; the
    members of a group share their design and their raw score. ``of``
    gives each learner's group and ``size`` each group's member count.
    Record ``i`` is one position of group ``group[i]``'s design: its
    ``size[group[i]]`` members answered question ``question[i]`` there,
    ``right[i]`` of them rightly.
    """

    of: np.ndarray
    size: np.ndarray
    group: np.ndarray
    question: np.ndarray
    right: np.ndarray


def _hash_keys(n_questions: int) -> np.ndarray:
    """Random integers below 2**32, as float64: one per question, then one
    for the raw score.

    A learner's hash is the sum of the keys of their records plus the last
    key times their raw score: equal for equal (design, raw score), in any
    record order, and exact while a learner has at most 2**20 records.
    """
    return np.random.default_rng(0).integers(0, 2**32, size=n_questions + 1).astype(np.float64)


def _group(
    l_idx: np.ndarray, q_idx: np.ndarray, y: np.ndarray, n_learners: int, n_questions: int
) -> _Groups:
    """Pool learners by (design, raw score).

    Each learner's representative is the first learner with the same hash.
    The records are sorted once, by (learner, question), which is nearly
    log order on a log written learner by learner; a learner whose record
    count, raw score or sorted questions differ from their
    representative's is a hash collision and becomes their own
    representative, so no two designs are merged. Every group, one-member
    groups included, keeps one record per position of its representative's
    sorted design, counting the members who answered rightly there.
    """
    counts = np.bincount(l_idx, minlength=n_learners)
    scores = np.bincount(l_idx, weights=y, minlength=n_learners)
    keys = _hash_keys(n_questions)
    hashes = np.bincount(l_idx, weights=keys[:-1].take(q_idx), minlength=n_learners)
    hashes += keys[-1] * scores
    _, first, inverse = np.unique(hashes, return_index=True, return_inverse=True)
    rep = first.take(inverse)

    by = np.argsort(l_idx * n_questions + q_idx, kind="stable")
    sorted_q, sorted_y = q_idx.take(by), y.take(by)
    del by
    # Record j of a learner sits at ``start`` + j, and record j of their
    # representative at ``ref``: past the representative's records when
    # the counts differ, which the count check rejects anyway.
    start = np.cumsum(counts) - counts
    ref = np.repeat(start.take(rep) - start, counts)
    ref += np.arange(ref.size)
    ok = (counts.take(rep) == counts) & (scores.take(rep) == scores)
    bad = np.flatnonzero(sorted_q.take(ref, mode="clip") != sorted_q)
    ok[np.searchsorted(start, bad, side="right") - 1] = False
    learners = np.arange(n_learners)
    rep_of = np.where(ok, rep, learners)
    is_rep = rep_of == learners
    of = (np.cumsum(is_rep) - 1).take(rep_of)
    size = np.bincount(of).astype(np.float64)

    # A learner who does not match their representative keeps their own
    # records; every other answer counts at its representative's position.
    own = np.flatnonzero(np.repeat(~ok, counts))
    ref[own] = own
    mine = np.repeat(is_rep, counts)
    return _Groups(
        of=of,
        size=size,
        group=np.repeat(np.arange(size.size), counts.compress(is_rep)),
        question=sorted_q.compress(mine),
        right=np.bincount(ref, weights=sorted_y, minlength=ref.size).compress(mine),
    )


def _newton(
    l_idx: np.ndarray,
    q_idx: np.ndarray,
    y: np.ndarray,
    b: np.ndarray,
    learner_ids: tuple[str, ...],
    question_ids: tuple[str, ...],
    *,
    reg: float,
    max_epochs: int,
    tol: float,
    fit_b: bool,
) -> RaschModel:
    """Minimise the L2-penalized Bernoulli NLL of sigmoid(theta - b) by
    alternating diagonal Newton steps, starting from theta = 0; the model
    of ``learner_ids`` and ``question_ids`` it ends at.

    The learners are pooled first (``_group``): the members of a group
    share one theta, and the iteration runs on the groups' records, a
    record of a group of n members weighing as its n answers. Each
    iteration takes a Newton step on theta and, when ``fit_b``, one on b.
    With the other block fixed, the objective is a sum of one term per
    coordinate (a group's or a question's records and penalty), so each
    coordinate's step is halved until its own term does not rise; one
    halved to nothing leaves its coordinate where it is. Fitting both
    blocks, the iteration ends by shifting theta and b by one constant per
    connected part of the design (groups and questions linked by records):
    the likelihood depends only on theta - b, so the shift that zeroes a
    part's sum of every learner's theta and every question's b minimises
    the penalty along a direction the likelihood leaves flat. Converges
    when no parameter moves by ``tol`` or more in an iteration; stops
    unconverged after ``max_epochs`` iterations.
    """
    groups = _group(l_idx, q_idx, y, len(learner_ids), b.size)
    size, g_idx, q_idx, right = groups.size, groups.group, groups.question, groups.right
    count = size.take(g_idx)
    wrong = count - right
    # Exact: a group's right answers are its size times each member's raw score.
    y_theta = np.bincount(g_idx, weights=right, minlength=size.size) / size
    y_b = np.bincount(q_idx, weights=right, minlength=b.size)

    def evaluate(theta, b):
        """Each record's NLL at (theta, b), and sigmoid(theta - b).

        With z = theta - b and e = exp(-|z|), a record of n answers, r of
        them right, has the NLL n log1p(e) + (n - r) max(z, 0) - r min(z, 0),
        a sum of non-negative terms, and sigmoid(z) is max(z >= 0, e) / (1 + e),
        which is 1 / (1 + e) for z >= 0 and e / (1 + e) below, as e <= 1.
        """
        z = theta.take(g_idx) - b.take(q_idx)
        e = np.exp(-np.abs(z))
        nll = count * np.log1p(e) + wrong * np.maximum(z, 0.0) - right * np.minimum(z, 0.0)
        return nll, np.maximum(z >= 0.0, e) / (1.0 + e)

    def descend(theta, b, nll, p, on_b):
        """Diagonal Newton step on theta, or on b when ``on_b``, each
        coordinate's step halved until its term does not rise: the block's new
        value, and the records' NLL and probabilities there. Every answer counts
        towards b; a group's sums are per member, and so are its step and term."""
        index, value, y_sum, sign, members = (
            (q_idx, b, y_b, -1.0, 1.0) if on_b else (g_idx, theta, y_theta, 1.0, size)
        )

        def sums(x):
            return np.bincount(index, weights=x, minlength=value.size) / members

        grad = sign * (sums(count * p) - y_sum) + reg * value
        step = -grad / (sums(count * ((1.0 - p) * p)) + reg)
        start = sums(nll) + 0.5 * reg * value * value
        t = np.ones(value.size)
        while True:
            trial = value + t * step
            nll, p = evaluate(theta, trial) if on_b else evaluate(trial, b)
            # The slack absorbs rounding; a NaN term counts as a rise.
            rose = ~(sums(nll) + 0.5 * reg * trial * trial <= start + 1e-9)
            if not rose.any():
                return trial, nll, p
            t[rose] /= 2.0
            t[t < 1e-12] = 0.0

    if fit_b:
        # Connected parts of the design, groups first and then questions: each
        # takes the least label linked to it by a record, until none falls.
        node_q = size.size + q_idx
        part, last = np.arange(size.size + b.size), None
        while not np.array_equal(part, last):
            last = part.copy()
            np.minimum.at(part, node_q, part.take(g_idx))
            np.minimum.at(part, g_idx, part.take(node_q))
        part = np.unique(part, return_inverse=True)[1]
        weight = np.concatenate((size, np.ones(b.size)))
        part_weight = np.bincount(part, weights=weight)

    def objective(theta, b, nll):
        return float(nll.sum() + 0.5 * reg * ((size * theta * theta).sum() + (b * b).sum()))

    theta = np.zeros(size.size)
    nll, p = evaluate(theta, b)
    history = [objective(theta, b, nll)]
    for _ in range(max_epochs):
        start_theta, start_b = theta, b
        theta, nll, p = descend(theta, b, nll, p, on_b=False)
        if fit_b:
            b, nll, p = descend(theta, b, nll, p, on_b=True)
            both = np.concatenate((theta, b))
            both -= (np.bincount(part, weights=weight * both) / part_weight).take(part)
            theta, b = both[: size.size], both[size.size :]
        history.append(objective(theta, b, nll))
        converged = bool(max(np.abs(theta - start_theta).max(), np.abs(b - start_b).max()) < tol)
        if converged:
            break
    return RaschModel(
        theta=theta.take(groups.of), b=b, learner_ids=learner_ids, question_ids=question_ids,
        reg=reg, max_epochs=max_epochs, tol=tol, nll_history=tuple(history),
        converged=converged, groups=size.size,
    )


def fit_rasch(
    log: InteractionLog,
    *,
    fit_learners: Sequence[int] | None = None,
    reg: float = 1e-4,
    max_epochs: int = 500,
    tol: float = 1e-6,
) -> RaschModel:
    """Fit abilities and difficulties by penalized joint maximum
    likelihood with the Newton solver above.

    ``fit_learners`` optionally restricts the fit to the records of the
    learners at those indices, as ``correct_ratio_snapshot`` does, without
    building a sub-log. The model's learners are the fitting learners in log
    order; its questions are the log's, in log order, and a question no
    fitting learner answered keeps b = 0, as ``fit_abilities`` would give it.
    ``reg`` is the L2 weight on both blocks, ``max_epochs`` the iteration
    cap and ``tol`` the largest parameter change of an iteration that
    counts as converged; all three must be positive and finite.
    """
    for name, value in (("reg", reg), ("tol", tol)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite")
        if value <= 0:
            raise ValueError(f"{name} must be positive")
    if max_epochs < 1:
        raise ValueError("max_epochs must be at least 1")
    l_idx, q_idx, y, learner_ids = log.learner, log.question, log.correct, log.learner_ids
    if fit_learners is not None:
        wanted = _learner_mask(fit_learners, len(learner_ids))
        keep = wanted.take(l_idx)
        # Fitting learners keep every record, so a running count numbers them.
        l_idx = (np.cumsum(wanted) - 1).take(l_idx.compress(keep))
        q_idx, y = q_idx.compress(keep), y.compress(keep)
        del keep
        learner_ids = tuple(compress(learner_ids, wanted))
    if not y.size:
        raise ValueError("empty interaction log")
    return _newton(
        l_idx, q_idx, y, np.zeros(len(log.question_ids)), learner_ids, log.question_ids,
        reg=reg, max_epochs=max_epochs, tol=tol, fit_b=True,
    )


def fit_abilities(model: RaschModel, log: InteractionLog) -> RaschModel:
    """The model re-fitted to the log's learners with difficulties frozen.

    This is how a fitted model is applied to learners outside the fitting
    split: only their own records are used and the question scale does not
    move. The result's questions are the model's, with their ``b``, followed
    by each log question the model lacks, in log order, with b = 0: what the
    penalised joint fit gives a question without records. It keeps the
    model's ``reg``, ``max_epochs`` and ``tol``; its learners, ``theta``,
    ``nll_history``, ``converged`` and ``groups`` are new.
    """
    if not len(log):
        raise ValueError("empty interaction log")
    if model.question_ids == log.question_ids:
        # The model's questions are the log's, in the same order: no remap.
        question, question_ids, b = log.question, model.question_ids, model.b.copy()
    else:
        position = {qid: i for i, qid in enumerate(model.question_ids)}
        for qid in log.question_ids:
            position.setdefault(qid, len(position))
        lookup = np.array([position[qid] for qid in log.question_ids], dtype=np.intp)
        question, question_ids = lookup.take(log.question), tuple(position)
        b = np.concatenate((model.b, np.zeros(len(position) - model.b.size)))
    return _newton(
        log.learner, question, log.correct, b, log.learner_ids, question_ids,
        reg=model.reg, max_epochs=model.max_epochs, tol=model.tol, fit_b=False,
    )


def rasch_snapshot(model: RaschModel) -> Snapshot:
    """Predicted snapshot sigmoid(theta - b) of the model's own learners."""
    values = sigmoid(model.theta[None, :] - model.b[:, None])
    return Snapshot._own(values, model.question_ids, model.learner_ids)


def correct_ratio_snapshot(
    log: InteractionLog,
    smoothing: float = 1.0,
    *,
    fit_learners: Sequence[int] | None = None,
) -> Snapshot:
    """Additive estimator from smoothed correct ratios.

    Entry (q, l) is clip(p_q + a_l - g, eps, 1 - eps) where p_q is the
    smoothed correct ratio of question q, a_l the smoothed correct ratio of
    learner l over their own records, and g the smoothed global ratio.

    ``fit_learners`` optionally restricts the records used for p_q and g to
    the learners at those indices (per-learner ratios always come from the
    learner's own records), so a held-out split can be kept out of the
    question statistics. Without smoothing, a question they left unanswered
    has no ratio and is rejected.
    """
    if not np.isfinite(smoothing):
        raise ValueError("smoothing must be finite")
    if smoothing < 0:
        raise ValueError("smoothing must be non-negative")
    if not len(log):
        raise ValueError("empty interaction log")
    l_idx, q_idx, y = log.learner, log.question, log.correct
    nq, nl = len(log.question_ids), len(log.learner_ids)
    fit_y = y
    if fit_learners is not None:
        keep = _learner_mask(fit_learners, nl)[l_idx]
        q_idx, fit_y = q_idx[keep], y[keep]
    if not fit_y.size:
        raise ValueError("no records available for question statistics")

    def smoothed(correct, count):
        return (correct + smoothing) / (count + 2.0 * smoothing)

    q_count = np.bincount(q_idx, minlength=nq)
    if smoothing == 0 and not q_count.all():
        missing = [qid for qid, n in zip(log.question_ids, q_count) if not n]
        raise ValueError(f"no records from the fitting learners for questions: {missing[:5]}")
    p_q = smoothed(np.bincount(q_idx, weights=fit_y, minlength=nq), q_count)
    a_l = smoothed(np.bincount(l_idx, weights=y, minlength=nl), np.bincount(l_idx, minlength=nl))
    g = smoothed(fit_y.sum(), fit_y.size)

    values = np.clip(p_q[:, None] + a_l[None, :] - g, _CLIP, 1.0 - _CLIP)
    return Snapshot._own(values, log.question_ids, log.learner_ids)


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
    if (predicted.learner_ids, predicted.question_ids) == (truth.learner_ids, truth.question_ids):
        common_l, common_q = truth.learner_ids, truth.question_ids
    else:
        truth_l, truth_q = set(truth.learner_ids), set(truth.question_ids)
        common_l = tuple(l for l in predicted.learner_ids if l in truth_l)
        common_q = tuple(q for q in predicted.question_ids if q in truth_q)
    if len(common_l) < 2:
        raise ValueError("need at least 2 common learners to correlate")
    if not common_q:
        raise ValueError("no common questions between snapshots")

    def means(snap: Snapshot) -> np.ndarray:
        if (snap.learner_ids, snap.question_ids) == (common_l, common_q):
            return snap.values.mean(axis=0)  # No id is dropped or moved.
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
