"""The grouped Rasch solver against the per-record solver it replaced.

``reference_newton`` iterates over every record: each learner has their own
theta, and no records are pooled. ``estimation._newton`` pools learners who
answered the same questions and got the same raw score; in every case here
both must take the same steps.
"""

import numpy as np
import pytest

from diaggen import estimation
from diaggen.estimation import _newton
from diaggen.simulator import SimConfig, simulate


def reference_newton(l_idx, q_idx, y, b, *, n_learners, reg, max_epochs, tol, fit_b):
    """Per-record alternating diagonal Newton steps, each learner's or
    question's step halved until its records' NLL plus its penalty does not
    rise, and the penalty-minimising gauge shift; (theta, b, history,
    converged, halvings), where ``halvings`` counts the halved steps."""
    flip = 1.0 - 2.0 * y
    y_theta = np.bincount(l_idx, weights=y, minlength=n_learners)
    y_b = np.bincount(q_idx, weights=y, minlength=b.size)
    z, e, p, work = (np.empty(y.size) for _ in range(4))
    halvings = 0

    def penalty(theta, b):
        return 0.5 * reg * float(theta @ theta + b @ b)

    def evaluate(theta, b):
        """Each record's NLL, leaving the probabilities in ``p``."""
        np.take(theta, l_idx, out=z, mode="clip")
        np.subtract(z, np.take(b, q_idx, out=work, mode="clip"), out=z)
        np.abs(z, out=e)
        np.negative(e, out=e)
        np.exp(e, out=e)
        nll = np.log1p(e)
        np.multiply(flip, z, out=work)
        nll += np.maximum(work, 0.0, out=work)
        np.maximum(np.greater_equal(z, 0.0, out=work), e, out=work)
        np.divide(work, np.add(e, 1.0, out=p), out=p)
        return nll

    def newton_step(theta, b, on_b):
        index, value, y_sum, sign = (q_idx, b, y_b, -1.0) if on_b else (l_idx, theta, y_theta, 1.0)
        grad = np.bincount(index, weights=p, minlength=value.size) - y_sum
        grad = sign * grad + reg * value
        np.multiply(np.subtract(1.0, p, out=work), p, out=work)
        return -grad / (np.bincount(index, weights=work, minlength=value.size) + reg)

    def descend(theta, b, nll, on_b):
        nonlocal halvings
        step = newton_step(theta, b, on_b)
        index, value = (q_idx, b) if on_b else (l_idx, theta)

        def terms(value, nll):
            return np.bincount(index, weights=nll, minlength=value.size) + 0.5 * reg * value**2

        start, t = terms(value, nll), np.ones(value.size)
        while True:
            trial = value + t * step
            nll = evaluate(theta, trial) if on_b else evaluate(trial, b)
            rose = ~(terms(trial, nll) <= start + 1e-9)
            if not rose.any():
                return trial, nll
            halvings += int(np.count_nonzero(rose & (t == 1.0)))
            t[rose] /= 2.0
            t[t < 1e-12] = 0.0

    theta = np.zeros(n_learners)
    nll = evaluate(theta, b)
    history = [float(nll.sum()) + penalty(theta, b)]
    for _ in range(max_epochs):
        start_theta, start_b = theta, b
        theta, nll = descend(theta, b, nll, on_b=False)
        if fit_b:
            b, nll = descend(theta, b, nll, on_b=True)
            shift = -(theta.sum() + b.sum()) / (theta.size + b.size)
            theta, b = theta + shift, b + shift
        history.append(float(nll.sum()) + penalty(theta, b))
        change = max(np.abs(theta - start_theta).max(), np.abs(b - start_b).max())
        if change < tol:
            return theta, b, history, True, halvings
    return theta, b, history, False, halvings


def records(n_learners, n_questions, keep, seed, repeat=0.0):
    """Records of a Bernoulli Rasch world: learner l answers question q with
    probability ``keep``, and a kept record is answered once more with
    probability ``repeat``; answers are drawn from sigmoid(theta - b)."""
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal(n_learners)
    b = rng.standard_normal(n_questions)
    l_idx, q_idx = np.divmod(np.arange(n_learners * n_questions), n_questions)
    kept = rng.random(l_idx.size) < keep
    l_idx, q_idx = l_idx[kept], q_idx[kept]
    twice = rng.random(l_idx.size) < repeat
    l_idx = np.concatenate((l_idx, l_idx[twice]))
    q_idx = np.concatenate((q_idx, q_idx[twice]))
    order = rng.permutation(l_idx.size)
    l_idx, q_idx = l_idx[order], q_idx[order]
    p = 1.0 / (1.0 + np.exp(b[q_idx] - theta[l_idx]))
    y = (rng.random(l_idx.size) < p).astype(np.float64)
    # Every learner keeps at least one record.
    missing = np.setdiff1d(np.arange(n_learners), l_idx)
    l_idx = np.concatenate((l_idx, missing))
    q_idx = np.concatenate((q_idx, np.zeros(missing.size, dtype=q_idx.dtype)))
    y = np.concatenate((y, np.ones(missing.size)))
    return l_idx, q_idx, y, n_learners, b


def assert_same_fit(l_idx, q_idx, y, n_learners, b, *, fit_b, reg=1e-4, max_epochs=500):
    settings = dict(n_learners=n_learners, reg=reg, max_epochs=max_epochs, tol=1e-6, fit_b=fit_b)
    start_b = np.zeros(b.size) if fit_b else b
    want_theta, want_b, want_history, want_converged, _ = reference_newton(
        l_idx, q_idx, y, start_b, **settings
    )
    fit = _newton(l_idx, q_idx, y, start_b, **settings)
    assert fit.converged == want_converged
    assert len(fit.history) == len(want_history)
    np.testing.assert_allclose(fit.history, want_history, rtol=1e-12, atol=0)
    np.testing.assert_allclose(fit.theta, want_theta, rtol=0, atol=1e-9)
    np.testing.assert_allclose(fit.b, want_b, rtol=0, atol=1e-9)
    return fit


@pytest.mark.parametrize("fit_b", [True, False])
class TestParity:
    def test_complete_design(self, fit_b):
        fit = assert_same_fit(*records(300, 12, keep=1.0, seed=1), fit_b=fit_b)
        assert fit.groups <= 13

    @pytest.mark.parametrize("keep", [0.6, 0.2])
    def test_sparse_design(self, fit_b, keep):
        assert_same_fit(*records(300, 15, keep=keep, seed=2), fit_b=fit_b)

    def test_duplicate_records(self, fit_b):
        fit = assert_same_fit(*records(300, 6, keep=1.0, seed=3, repeat=0.2), fit_b=fit_b)
        assert fit.groups < 300

    def test_pooled_and_lone_learners(self, fit_b):
        # A complete block, whose learners pool, beside a sparse one.
        dense = records(200, 8, keep=1.0, seed=4)
        sparse = records(100, 8, keep=0.5, seed=5)
        l_idx = np.concatenate((dense[0], sparse[0] + 200))
        q_idx = np.concatenate((dense[1], sparse[1]))
        y = np.concatenate((dense[2], sparse[2]))
        fit = assert_same_fit(l_idx, q_idx, y, 300, dense[4], fit_b=fit_b)
        assert 9 < fit.groups < 300

    def test_hash_collisions_never_merge_designs(self, fit_b, monkeypatch):
        # With every key 0, learners with equal record counts and raw
        # scores share a hash whatever their questions.
        monkeypatch.setattr(estimation, "_hash_keys", lambda n_questions: np.zeros(n_questions + 1))
        l_idx, q_idx, y, n_learners, b = records(300, 6, keep=0.5, seed=6, repeat=0.1)
        assert_same_fit(l_idx, q_idx, y, n_learners, b, fit_b=fit_b)
        designs = [tuple(sorted(q_idx[l_idx == l].tolist())) for l in range(n_learners)]
        scores = np.bincount(l_idx, weights=y)
        keys = {(len(d), s) for d, s in zip(designs, scores)}
        assert len(keys) < len(set(zip(designs, scores)))
        groups = estimation._group(l_idx, q_idx, y, n_learners, b.size)
        assert groups.size.max() > 1
        for group in range(groups.size.size):
            members = np.flatnonzero(groups.of == group)
            assert len({(designs[l], scores[l]) for l in members}) == 1


@pytest.mark.parametrize("answers", ["all right", "all wrong"])
def test_far_from_zero(answers):
    # Frozen difficulties put every record at |theta - b| > 40 at the start.
    b = np.array([-60.3, -45.1, -41.7, 41.7, 45.1, 60.3])
    n_learners = 40
    l_idx = np.repeat(np.arange(n_learners), b.size)
    q_idx = np.tile(np.arange(b.size), n_learners)
    keep = (b < 0 if answers == "all right" else b > 0)[q_idx]
    l_idx, q_idx = l_idx[keep], q_idx[keep]
    y = np.full(l_idx.size, float(answers == "all right"))
    fit = assert_same_fit(l_idx, q_idx, y, n_learners, b, fit_b=False, reg=1e-30, max_epochs=3)
    assert fit.groups == 1


def test_halved_steps():
    # On a simulated world thinned to a tenth of its records, a learner
    # answers about five questions. From theta = 0, with the difficulties
    # of the joint fit, many learners' first Newton steps overshoot.
    _, log, _ = simulate(SimConfig(num_learners=200, seed=101))
    keep = np.random.default_rng(0).random(len(log)) < 0.1
    l_idx = np.unique(log.learner[keep], return_inverse=True)[1]
    q_idx, y = log.question[keep], log.correct[keep].astype(np.float64)
    settings = dict(n_learners=l_idx.max() + 1, reg=1e-4, max_epochs=500, tol=1e-6)
    b = _newton(l_idx, q_idx, y, np.zeros(50), fit_b=True, **settings).b
    assert reference_newton(l_idx, q_idx, y, b, fit_b=False, **settings)[4] > 0
    assert_same_fit(l_idx, q_idx, y, l_idx.max() + 1, b, fit_b=False)


CASES = {
    "complete": dict(n_learners=300, n_questions=12, keep=1.0, seed=1),
    "sparse 0.6": dict(n_learners=300, n_questions=15, keep=0.6, seed=2),
    "sparse 0.2": dict(n_learners=300, n_questions=15, keep=0.2, seed=2),
    "duplicate records": dict(n_learners=300, n_questions=6, keep=1.0, seed=3, repeat=0.2),
}


@pytest.mark.parametrize("case", CASES)
class TestCountedRecords:
    """Every group, one-member groups included, is held as one
    (group, question, right) record per position of its design."""

    def test_counts_cover_every_record(self, case):
        l_idx, q_idx, y, n_learners, b = records(**CASES[case])
        groups = estimation._group(l_idx, q_idx, y, n_learners, b.size)
        assert groups.size.take(groups.group).sum() == l_idx.size
        assert groups.right.min() >= 0
        assert np.all(groups.right <= groups.size.take(groups.group))

    def test_right_answers_per_question(self, case):
        l_idx, q_idx, y, n_learners, b = records(**CASES[case])
        groups = estimation._group(l_idx, q_idx, y, n_learners, b.size)
        np.testing.assert_array_equal(
            np.bincount(groups.question, weights=groups.right, minlength=b.size),
            np.bincount(q_idx, weights=y, minlength=b.size),
        )

    def test_right_answers_per_group(self, case):
        l_idx, q_idx, y, n_learners, b = records(**CASES[case])
        groups = estimation._group(l_idx, q_idx, y, n_learners, b.size)
        # Every member's raw score is their group's right answers over its size.
        right = np.bincount(groups.group, weights=groups.right, minlength=groups.size.size)
        np.testing.assert_array_equal(
            (right / groups.size).take(groups.of), np.bincount(l_idx, weights=y)
        )

    @pytest.mark.parametrize("fit_b", [True, False])
    def test_record_order_does_not_matter(self, case, fit_b):
        l_idx, q_idx, y, n_learners, b = records(**CASES[case])
        settings = dict(n_learners=n_learners, reg=1e-4, max_epochs=500, tol=1e-6, fit_b=fit_b)
        start_b = np.zeros(b.size) if fit_b else b
        fit = _newton(l_idx, q_idx, y, start_b, **settings)
        order = np.random.default_rng(7).permutation(l_idx.size)
        shuffled = _newton(l_idx[order], q_idx[order], y[order], start_b, **settings)
        assert shuffled.groups == fit.groups
        assert len(shuffled.history) == len(fit.history)
        assert shuffled.converged == fit.converged
        np.testing.assert_allclose(shuffled.theta, fit.theta, rtol=0, atol=1e-9)
        np.testing.assert_allclose(shuffled.b, fit.b, rtol=0, atol=1e-9)


def test_no_shared_key_keeps_every_learner_apart():
    # Learner l answers questions 0..l, so no two learners share a design.
    n_learners = 12
    l_idx = np.repeat(np.arange(n_learners), np.arange(1, n_learners + 1))
    q_idx = np.concatenate([np.arange(l + 1) for l in range(n_learners)])
    y = (np.random.default_rng(8).random(l_idx.size) < 0.5).astype(np.float64)
    b = np.random.default_rng(9).standard_normal(n_learners)
    groups = estimation._group(l_idx, q_idx, y, n_learners, b.size)
    np.testing.assert_array_equal(groups.of, np.arange(n_learners))
    np.testing.assert_array_equal(groups.size, np.ones(n_learners))
    np.testing.assert_array_equal(groups.right, y)
    for fit_b in (True, False):
        fit = assert_same_fit(l_idx, q_idx, y, n_learners, b, fit_b=fit_b)
        assert fit.groups == n_learners
