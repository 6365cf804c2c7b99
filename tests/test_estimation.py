import dataclasses

import numpy as np
import pytest
from scipy.special import expit
from scipy.stats import pearsonr, spearmanr

from diaggen import (
    InteractionLog,
    RaschModel,
    Snapshot,
    correct_ratio_snapshot,
    fit_abilities,
    fit_rasch,
    mean_performance_correlation,
    rasch_snapshot,
    sufficiency_curve,
)
from diaggen.core import sigmoid, split_learners
from diaggen.estimation import _newton, per_question_sufficiency_curve
from diaggen.simulator import SimConfig, simulate

from conftest import kept_records, learners_log


def make_log(triples):
    return InteractionLog.from_records((l, q, bool(c), o) for (l, q, c, o) in triples)


def bernoulli_log(theta, b, seed):
    """One attempt per learner-question pair under sigmoid(theta - b)."""
    rng = np.random.default_rng(seed)
    n_l, n_q = len(theta), len(b)
    y = np.stack([rng.random(n_q) < expit(th - np.asarray(b)) for th in theta])
    return InteractionLog(
        learner_ids=tuple(f"l{l}" for l in range(n_l)),
        question_ids=tuple(f"q{q}" for q in range(n_q)),
        learner=np.repeat(np.arange(n_l), n_q),
        question=np.tile(np.arange(n_q), n_l),
        correct=y.ravel(),
        order=np.tile(np.arange(n_q), n_l),
    )


def penalized_gradient(model, log):
    """Gradient of the penalized NLL at the model's parameters, from the
    log's records directly."""
    theta = dict(zip(model.learner_ids, model.theta))
    b = dict(zip(model.question_ids, model.b))
    grad_theta = dict.fromkeys(model.learner_ids, 0.0)
    grad_b = dict.fromkeys(model.question_ids, 0.0)
    for l, q, c in zip(log.learner, log.question, log.correct):
        lid, qid = log.learner_ids[l], log.question_ids[q]
        resid = 1.0 / (1.0 + np.exp(b[qid] - theta[lid])) - float(c)
        grad_theta[lid] += resid
        grad_b[qid] -= resid
    return (
        np.array([grad_theta[l] + model.reg * theta[l] for l in model.learner_ids]),
        np.array([grad_b[q] + model.reg * b[q] for q in model.question_ids]),
    )


def reference_objective(theta, b, l_idx, q_idx, y, reg):
    """The penalized NLL of the records, each term by ``np.logaddexp``."""
    z = theta[l_idx] - b[q_idx]
    nll = np.logaddexp(0.0, np.where(y == 1.0, -z, z)).sum()
    return nll + 0.5 * reg * (theta @ theta + b @ b)


class TestCorrectRatioSnapshot:
    def test_all_correct_saturates(self):
        log = make_log([("l0", "q0", 1, 0), ("l1", "q0", 1, 0), ("l0", "q1", 1, 1)])
        snap = correct_ratio_snapshot(log, smoothing=0.0)
        np.testing.assert_allclose(snap.values, 1.0 - 1e-3)

    def test_single_record_laplace(self):
        # p_q = a_l = g = (1 + 1) / (1 + 2), entry collapses to 2/3
        snap = correct_ratio_snapshot(make_log([("l0", "q0", 1, 0)]), smoothing=1.0)
        assert snap.values[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_stronger_learner_has_higher_column(self):
        triples = []
        for q in range(6):
            triples.append(("good", f"q{q}", 1, q))
            triples.append(("poor", f"q{q}", q % 3 == 0, q))
        snap = correct_ratio_snapshot(make_log(triples))
        good = snap.values[:, snap.learner_ids.index("good")]
        poor = snap.values[:, snap.learner_ids.index("poor")]
        assert good.mean() >= poor.mean()
        assert np.all(good >= poor)

    def test_fit_learner_restriction_changes_question_stats(self):
        triples = [("a", "q0", 1, 0), ("b", "q0", 0, 0)]
        full = correct_ratio_snapshot(make_log(triples), fit_learners=None)
        only_a = correct_ratio_snapshot(make_log(triples), fit_learners=[0])
        assert not np.array_equal(full.values, only_a.values)

    def test_values_in_open_unit_interval(self):
        rng = np.random.default_rng(0)
        triples = [
            (f"l{rng.integers(8)}", f"q{rng.integers(5)}", int(rng.random() < 0.6), o)
            for o in range(300)
        ]
        snap = correct_ratio_snapshot(make_log(triples))
        assert snap.values.min() >= 1e-3 and snap.values.max() <= 1 - 1e-3

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            correct_ratio_snapshot(make_log([]))

    def test_matches_record_loop(self):
        rng = np.random.default_rng(4)
        triples = [
            (f"l{rng.integers(9)}", f"q{rng.integers(6)}", int(rng.random() < 0.4), o)
            for o in range(200)
        ]
        log = make_log(triples)
        fit = {f"l{l}" for l in range(5)}
        fit_learners = [i for i, l in enumerate(log.learner_ids) if l in fit]
        snap = correct_ratio_snapshot(log, smoothing=0.5, fit_learners=fit_learners)
        q_stats, l_stats, g = {}, {}, [0, 0]
        for l, q, c, _ in triples:
            l_stats.setdefault(l, [0, 0])
            l_stats[l][0] += c
            l_stats[l][1] += 1
            q_stats.setdefault(q, [0, 0])
            if l in fit:
                q_stats[q][0] += c
                q_stats[q][1] += 1
                g[0] += c
                g[1] += 1

        def smoothed(correct, count):
            return (correct + 0.5) / (count + 1.0)

        want = np.clip(
            [
                [
                    smoothed(*q_stats[q]) + smoothed(*l_stats[l]) - smoothed(*g)
                    for l in snap.learner_ids
                ]
                for q in snap.question_ids
            ],
            1e-3,
            1 - 1e-3,
        )
        np.testing.assert_array_equal(snap.values, want)


class TestFitRasch:
    def test_generate_then_recover(self):
        rng = np.random.default_rng(17)
        theta_true = rng.standard_normal(200)
        b_true = rng.standard_normal(50)
        model = fit_rasch(bernoulli_log(theta_true, b_true, seed=17))
        assert spearmanr(model.theta, theta_true).statistic >= 0.9
        assert spearmanr(model.b, b_true).statistic >= 0.9

    def test_scale_fixed_by_penalty(self):
        rng = np.random.default_rng(3)
        model = fit_rasch(bernoulli_log(rng.standard_normal(30), rng.standard_normal(12), 3))
        assert abs(model.theta.sum() + model.b.sum()) < 1e-9

    def test_penalized_gradient_vanishes(self):
        rng = np.random.default_rng(11)
        log = bernoulli_log(rng.standard_normal(80), rng.standard_normal(15), 11)
        model = fit_rasch(log)
        assert model.converged and model.iterations < 50
        grad_theta, grad_b = penalized_gradient(model, log)
        assert np.abs(grad_theta).max() <= 1e-6
        assert np.abs(grad_b).max() <= 1e-6

    def test_iteration_cap_reported_unconverged(self):
        rng = np.random.default_rng(12)
        model = fit_rasch(
            bernoulli_log(rng.standard_normal(40), rng.standard_normal(10), 12), max_epochs=2
        )
        assert not model.converged
        assert model.iterations == 2 and len(model.nll_history) == 3

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"reg": 0.0}, "reg must be positive"),
            ({"reg": -1.0}, "reg must be positive"),
            ({"max_epochs": 0}, "max_epochs must be at least 1"),
            ({"tol": 0.0}, "tol must be positive"),
            ({"tol": -1.0}, "tol must be positive"),
        ],
    )
    def test_rejects_unworkable_settings(self, setting, message):
        with pytest.raises(ValueError, match=message):
            fit_rasch(make_log([("l0", "q0", 1, 0), ("l1", "q0", 0, 0)]), **setting)

    def test_objective_monotone_non_increasing(self):
        rng = np.random.default_rng(5)
        model = fit_rasch(bernoulli_log(rng.standard_normal(40), rng.standard_normal(15), 5))
        nll = np.asarray(model.nll_history)
        assert np.all(np.diff(nll) <= 1e-9)

    @pytest.mark.parametrize(
        "answers, reg",
        [
            ("mixed", 1e-4),
            # With a negligible penalty the objective is the records' NLL
            # alone, about exp(-40) per record, so a cancelling sum shows.
            ("all right", 1e-30),
            ("all wrong", 1e-30),
        ],
    )
    def test_objective_matches_logaddexp_far_from_zero(self, answers, reg):
        # Frozen difficulties put every record at |theta - b| > 40 at the
        # start, theta = 0.
        b = np.array([-60.3, -45.1, -41.7, 41.7, 45.1, 60.3])
        n_learners = 3
        l_idx = np.repeat(np.arange(n_learners), b.size)
        q_idx = np.tile(np.arange(b.size), n_learners)
        if answers == "mixed":
            # learner 0 answers everything right, learner 1 nothing
            y = np.concatenate([np.ones(b.size), np.zeros(b.size), np.arange(b.size) % 2.0])
        else:
            keep = b < 0 if answers == "all right" else b > 0
            l_idx, q_idx = l_idx[keep[q_idx]], q_idx[keep[q_idx]]
            y = np.full(l_idx.size, float(answers == "all right"))
        fit = _newton(
            l_idx, q_idx, y, b,
            tuple(f"l{l}" for l in range(n_learners)), tuple(f"q{q}" for q in range(b.size)),
            reg=reg, max_epochs=3, tol=1e-6, fit_b=False,
        )
        theta, history = fit.theta, fit.nll_history
        start = reference_objective(np.zeros(n_learners), b, l_idx, q_idx, y, reg)
        assert history[0] == pytest.approx(start, rel=1e-12, abs=0)
        end = reference_objective(theta, b, l_idx, q_idx, y, reg)
        assert history[-1] == pytest.approx(end, rel=1e-12, abs=0)

    def test_history_ends_at_reference_objective(self):
        rng = np.random.default_rng(13)
        triples = [
            (f"l{l}", f"q{q}", int(rng.random() < 0.5), q) for l in range(40) for q in range(10)
        ]
        # one learner gets everything right and one everything wrong
        triples += [(who, f"q{q}", int(who == "ace"), q) for who in ("ace", "dud") for q in range(10)]
        log = make_log(triples)
        model = fit_rasch(log)
        assert model.converged
        l_idx = np.array([model.learner_ids.index(lid) for lid in log.learner_ids])[log.learner]
        q_idx = np.array([model.question_ids.index(qid) for qid in log.question_ids])[log.question]
        y = log.correct.astype(np.float64)
        want = reference_objective(model.theta, model.b, l_idx, q_idx, y, model.reg)
        assert model.nll_history[-1] == pytest.approx(want, rel=1e-12, abs=0)

    def test_all_correct_learner_gets_max_theta(self):
        rng = np.random.default_rng(9)
        triples = []
        for q in range(10):
            triples.append(("ace", f"q{q}", 1, q))
            for l in range(4):
                triples.append((f"l{l}", f"q{q}", int(rng.random() < 0.5), q))
        model = fit_rasch(make_log(triples))
        ace = model.theta[model.learner_ids.index("ace")]
        assert ace == max(model.theta)

    def test_identical_responses_identical_theta(self):
        pattern = [1, 0, 1, 1, 0, 1]
        triples = []
        for name in ("twin1", "twin2"):
            triples.extend((name, f"q{q}", pattern[q], q) for q in range(6))
        triples.extend(("other", f"q{q}", 1 - pattern[q], q) for q in range(6))
        model = fit_rasch(make_log(triples))
        t1 = model.theta[model.learner_ids.index("twin1")]
        t2 = model.theta[model.learner_ids.index("twin2")]
        assert abs(t1 - t2) < 1e-6

    def test_equal_raw_scores_give_bitwise_equal_theta(self):
        # Every learner answers the same questions in the same order, so the
        # raw score fixes theta: equal scores must tie exactly, not only up
        # to the rounding of each learner's own sum.
        rng = np.random.default_rng(31)
        log = bernoulli_log(rng.standard_normal(200), rng.standard_normal(12), 31)
        scores = np.bincount(log.learner, weights=log.correct)
        model = fit_rasch(log)
        abilities = fit_abilities(model, log)
        assert abilities.learner_ids == model.learner_ids
        for fitted in (model.theta, abilities.theta):
            for score in np.unique(scores):
                assert len(set(fitted[scores == score].tolist())) == 1
            assert len(np.unique(fitted)) == len(np.unique(scores))


    def test_groups_of_a_complete_design_are_its_raw_scores(self):
        rng = np.random.default_rng(37)
        log = bernoulli_log(rng.standard_normal(300), rng.standard_normal(10), 37)
        scores = np.bincount(log.learner, weights=log.correct)
        model = fit_rasch(log)
        assert model.groups == len(np.unique(scores)) < 300

    def test_groups_of_distinct_designs_are_learners(self):
        log = make_log([("l0", "q0", 1, 0), ("l1", "q1", 1, 0), ("l2", "q0", 0, 0)])
        assert fit_rasch(log).groups == 3

    def test_disjoint_forms_fit_apart(self):
        # Even learners answer questions 0-9 and odd ones 10-19: two parts
        # that no record links, each with its own free offset.
        _, log, _ = simulate(SimConfig(num_learners=200, num_questions=20, seed=101))
        forms = kept_records(log, (log.learner % 2 == 0) == (log.question < 10))
        model = fit_rasch(forms)
        assert model.converged
        theta = dict(zip(model.learner_ids, model.theta))
        b = dict(zip(model.question_ids, model.b))
        for parity in (0, 1):
            form = [i for i, l in enumerate(forms.learner_ids) if int(l[1:]) % 2 == parity]
            alone = fit_rasch(learners_log(forms, form))
            assert alone.converged
            joint = [theta[l] for l in alone.learner_ids] + [b[q] for q in alone.question_ids]
            np.testing.assert_allclose(
                joint, np.concatenate((alone.theta, alone.b)), rtol=0, atol=1e-6
            )


def shuffled_log(seed, n_learners, n_questions):
    """Every learner answers every question once, in an order of their own,
    after l0 answers qH, which no one else answers: qH is the log's first
    question, and the other learners meet the rest in other orders."""
    rng = np.random.default_rng(seed)
    return make_log(
        [("l0", "qH", 1, 0)]
        + [
            (f"l{l}", f"q{q}", int(rng.random() < 0.5), o + 1)
            for l in range(n_learners)
            for o, q in enumerate(rng.permutation(n_questions))
        ]
    )


def train_learners(log):
    return split_learners(range(len(log.learner_ids)), 0.8, 0).train


class TestFitLearners:
    """``fit_rasch(log, fit_learners=S)`` against ``fit_rasch(learners_log(log, S))``."""

    @pytest.mark.parametrize(
        "log",
        [
            simulate(SimConfig(num_learners=300, seed=101))[1],
            bernoulli_log(np.linspace(-2, 2, 40), np.linspace(-1, 1, 9), 3),
        ],
        ids=["simulated", "bernoulli"],
    )
    def test_log_order_is_bitwise_the_restricted_fit(self, log):
        fit = train_learners(log)
        got = fit_rasch(log, fit_learners=fit)
        want = fit_rasch(learners_log(log, fit))
        # The fitting learners meet the questions in log order.
        assert want.question_ids == got.question_ids == log.question_ids
        assert got.learner_ids == want.learner_ids
        for name in ("theta", "b"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        assert (got.nll_history, got.converged, got.groups) == (
            want.nll_history, want.converged, want.groups
        )

    @pytest.mark.parametrize("case", ["shuffled", "thinned"])
    def test_other_orders_agree_with_the_restricted_fit(self, case):
        if case == "shuffled":
            log = shuffled_log(7, 60, 12)
            fit = range(2, len(log.learner_ids))
        else:
            _, log, _ = simulate(SimConfig(num_learners=600, seed=101))
            log = kept_records(log, np.random.default_rng(0).random(len(log)) < 0.1)
            fit = train_learners(log)
        got = fit_rasch(log, fit_learners=fit)
        want = fit_rasch(learners_log(log, fit))
        assert got.question_ids == log.question_ids != want.question_ids
        assert got.learner_ids == want.learner_ids
        # Each learner's records are summed in another order. The thinned
        # log's learners with few records have abilities near 6, which agree
        # to 1e-12 relative.
        b = dict(zip(got.question_ids, got.b))
        close = {"rtol": 1e-12, "atol": 1e-12}
        np.testing.assert_allclose([b[q] for q in want.question_ids], want.b, **close)
        unanswered = [b[q] for q in got.question_ids if q not in want.question_ids]
        assert unanswered == ([0.0] if case == "shuffled" else [])
        np.testing.assert_allclose(got.theta, want.theta, **close)
        np.testing.assert_allclose(got.nll_history, want.nll_history, rtol=1e-12, atol=0)
        assert (got.converged, got.groups) == (want.converged, want.groups)

    def test_question_only_held_out_learners_answered_keeps_zero_difficulty(self):
        # Only l19 answers qX, and l19 is held out.
        log = make_log(
            [(f"l{l}", f"q{q}", int(l * (q + 2) % 7 < 4), q) for l in range(20) for q in range(3)]
            + [("l19", "qX", 1, 9)]
        )
        fit = range(19)
        model = fit_rasch(log, fit_learners=fit)
        assert model.question_ids == log.question_ids == ("q0", "q1", "q2", "qX")
        assert model.b[3] == 0.0
        want = fit_rasch(learners_log(log, fit))
        assert model.b[:3].tobytes() == want.b.tobytes()
        assert model.theta.tobytes() == want.theta.tobytes()
        scored = fit_abilities(model, log)
        assert scored.question_ids == log.question_ids and scored.b.tobytes() == model.b.tobytes()

    @pytest.mark.parametrize("fit", [[], range(0)])
    def test_fit_learners_without_records_rejected(self, fit):
        with pytest.raises(ValueError, match="^empty interaction log$"):
            fit_rasch(make_log([("l0", "q0", 1, 0), ("l1", "q0", 0, 0)]), fit_learners=fit)

    @pytest.mark.parametrize(
        "learners, message",
        [
            ({"l0", "l1"}, "learner indices must be integers"),
            ([0, 3], "learner index out of range"),
            ([-1], "learner index out of range"),
            ([1, 1], "learner indices must be distinct"),
            ([2.0], "learner indices must be integers"),
            ([True], "learner indices must be integers"),
        ],
        ids=["id-set", "past-end", "negative", "repeated", "float", "bool"],
    )
    @pytest.mark.parametrize(
        "restrict",
        [
            lambda log, learners: fit_rasch(log, fit_learners=learners),
            lambda log, learners: correct_ratio_snapshot(log, fit_learners=learners),
        ],
        ids=["fit_rasch", "correct_ratio_snapshot"],
    )
    def test_learners_other_than_distinct_indices_rejected(self, restrict, learners, message):
        # Learners l0, l1 and l2 are at indices 0, 1 and 2.
        log = make_log([(f"l{l}", "q0", l % 2, 0) for l in range(3)])
        with pytest.raises(ValueError, match=f"^{message}$"):
            restrict(log, learners)

    def test_abilities_take_the_log_questions_as_they_are(self):
        rng = np.random.default_rng(53)
        log = bernoulli_log(rng.standard_normal(40), rng.standard_normal(8), 53)
        model = fit_rasch(log, fit_learners=train_learners(log))
        scored = fit_abilities(model, log)
        assert scored.b.tobytes() == model.b.tobytes() and not np.shares_memory(scored.b, model.b)
        # A model with one more question remaps the log's questions onto the
        # same positions, and scores every learner bitwise alike.
        extended = dataclasses.replace(
            model, question_ids=model.question_ids + ("qZ",), b=np.append(model.b, 0.7)
        )
        assert fit_abilities(extended, log).theta.tobytes() == scored.theta.tobytes()


class TestRaschSnapshot:
    def snapshot(self, theta, b):
        log = bernoulli_log(np.zeros(len(theta)), np.zeros(len(b)), 0)
        ids = tuple(f"x{j}" for j in range(len(theta)))
        model = dataclasses.replace(
            fit_rasch(log, max_epochs=1),
            b=np.asarray(b, dtype=float),
            theta=np.asarray(theta, dtype=float),
            learner_ids=ids,
        )
        snap = rasch_snapshot(model)
        assert snap.question_ids == model.question_ids and snap.learner_ids == ids
        return snap

    def test_matched_ability_and_difficulty(self):
        snap = self.snapshot([1.7], [1.7])
        assert snap.values[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_column_means(self):
        snap = self.snapshot([1.0, -1.0], [0.0])
        np.testing.assert_allclose(
            snap.values.mean(axis=0),
            [0.7310585786300049, 0.2689414213699951],
            atol=1e-12,
        )

    def test_monotone_in_ability(self):
        theta = [-2.0, -0.5, 0.3, 1.9]
        snap = self.snapshot(theta, [0.0, 1.0, -1.0])
        for row in snap.values:
            assert np.all(np.diff(row) > 0)

    def test_open_interval(self):
        snap = self.snapshot([5.0, -5.0], [0.0])
        assert np.all((snap.values > 0) & (snap.values < 1))

    def test_scored_model_predicts_its_own_learners(self):
        rng = np.random.default_rng(43)
        log = bernoulli_log(rng.standard_normal(40), rng.standard_normal(9), 43)
        scored = fit_abilities(fit_rasch(learners_log(log, range(30))), log)
        snap = rasch_snapshot(scored)
        want = sigmoid(scored.theta[None, :] - scored.b[:, None])
        assert snap.values.tobytes() == want.tobytes()
        assert (snap.question_ids, snap.learner_ids) == (scored.question_ids, scored.learner_ids)


class TestFitAbilities:
    def test_returns_the_model_refitted_to_the_log(self):
        rng = np.random.default_rng(41)
        log = bernoulli_log(rng.standard_normal(50), rng.standard_normal(8), 41)
        # Fitted on learners l10-l49, then scored on every learner of the log.
        train = learners_log(log, range(10, 50))
        model = fit_rasch(train, reg=1e-3, max_epochs=200, tol=1e-7)
        scored = fit_abilities(model, log)
        assert isinstance(scored, RaschModel)
        assert scored.b.tobytes() == model.b.tobytes()
        assert (scored.question_ids, scored.reg, scored.max_epochs, scored.tol) == (
            model.question_ids, 1e-3, 200, 1e-7
        )
        assert scored.learner_ids == log.learner_ids
        assert scored.theta.shape == (len(log.learner_ids),)
        assert scored.converged and scored.iterations == len(scored.nll_history) - 1
        assert model == model and scored != model

    def test_held_out_learners_recovered(self):
        rng = np.random.default_rng(23)
        theta_true = rng.standard_normal(120)
        b_true = rng.standard_normal(30)
        log = bernoulli_log(theta_true, b_true, seed=23)
        model = fit_rasch(learners_log(log, range(100)))
        abilities = fit_abilities(model, learners_log(log, range(100, 120)))
        assert abilities.learner_ids == log.learner_ids[100:]
        truth = np.array([theta_true[int(l[1:])] for l in abilities.learner_ids])
        assert spearmanr(abilities.theta, truth).statistic >= 0.85

    def test_refit_reproduces_joint_abilities(self):
        rng = np.random.default_rng(29)
        log = bernoulli_log(rng.standard_normal(60), rng.standard_normal(12), 29)
        model = fit_rasch(log)
        abilities = fit_abilities(model, log)
        assert abilities.learner_ids == model.learner_ids
        assert np.abs(abilities.theta - model.theta).max() <= 1e-8
        assert abilities.converged and 0 < abilities.iterations < model.max_epochs

    def test_sparse_log_converges_in_few_iterations(self):
        # A tenth of the records: learners answer about five questions, and
        # the Newton steps of some overshoot from theta = 0. Halving theirs
        # must leave every other learner's step whole.
        _, log, _ = simulate(SimConfig(num_learners=600, seed=101))
        sparse = kept_records(log, np.random.default_rng(0).random(len(log)) < 0.1)
        model = fit_rasch(sparse)
        grad_theta, grad_b = penalized_gradient(model, sparse)
        assert np.abs(grad_theta).max() <= 1e-6
        assert np.abs(grad_b).max() <= 1e-6
        abilities = fit_abilities(model, sparse)
        assert abilities.converged and abilities.iterations <= 15

    def test_one_epoch_reports_no_convergence(self):
        rng = np.random.default_rng(29)
        log = bernoulli_log(rng.standard_normal(60), rng.standard_normal(12), 29)
        abilities = fit_abilities(fit_rasch(log, max_epochs=1), log)
        assert (abilities.converged, abilities.iterations) == (False, 1)

    def test_difficulties_untouched(self):
        rng = np.random.default_rng(2)
        log = bernoulli_log(rng.standard_normal(30), rng.standard_normal(8), 2)
        model = fit_rasch(learners_log(log, range(20)))
        before = model.b.copy()
        fit_abilities(model, learners_log(log, range(20, 30)))
        np.testing.assert_array_equal(model.b, before)

    def test_unseen_questions_appended_with_zero_difficulty(self):
        rng = np.random.default_rng(47)
        log = bernoulli_log(rng.standard_normal(30), rng.standard_normal(6), 47)
        model = fit_rasch(learners_log(log, range(20)))
        # q9 and q8 were never answered in the fit; q3 and q0 were.
        unseen = make_log(
            [("lx", "q9", 1, 0), ("lx", "q3", 0, 1), ("ly", "q8", 0, 0), ("ly", "q0", 1, 1),
             ("ly", "q9", 1, 2)]
        )
        scored = fit_abilities(model, unseen)
        assert scored.question_ids == model.question_ids + ("q9", "q8")
        assert scored.b[:-2].tobytes() == model.b.tobytes()
        assert scored.b[-2:].tobytes() == np.zeros(2).tobytes()
        # Scored as questions the model holds with b = 0 would be.
        extended = dataclasses.replace(model, question_ids=scored.question_ids, b=scored.b)
        assert fit_abilities(extended, unseen).theta.tobytes() == scored.theta.tobytes()

    def test_empty_log_rejected(self):
        model = fit_rasch(make_log([("l0", "q0", 1, 0), ("l1", "q0", 0, 0)]))
        with pytest.raises(ValueError, match="^empty interaction log$"):
            fit_abilities(model, make_log([]))


class TestSufficiencyCurve:
    def test_identical_columns_all_zero(self):
        # dyadic values keep the running means exact
        col = np.array([0.25, 0.5, 0.75, 0.5, 0.25, 0.75])
        snap = Snapshot(
            np.tile(col[:, None], (1, 30)),
            tuple(f"q{i}" for i in range(6)),
            tuple(f"l{j}" for j in range(30)),
        )
        curve = sufficiency_curve(snap, step=5, epsilon=1e-4, window=3, seed=0)
        assert all(d == 0.0 for d in curve.deltas)
        assert curve.chosen_n == curve.counts[0] == 10

    def test_two_column_hand_example(self):
        snap = Snapshot(
            np.array([[0.0, 1.0], [0.0, 1.0]]), ("q0", "q1"), ("lo", "hi")
        )
        curve = sufficiency_curve(snap, step=1, epsilon=1e-4, window=1, seed=0)
        assert curve.counts == (2,)
        assert curve.deltas[0] == pytest.approx(0.5, abs=1e-15)

    def test_grid_includes_partial_tail(self):
        rng = np.random.default_rng(0)
        snap = Snapshot(
            rng.random((3, 25)),
            tuple(f"q{i}" for i in range(3)),
            tuple(f"l{j}" for j in range(25)),
        )
        curve = sufficiency_curve(snap, step=10, seed=0)
        assert curve.counts == (20, 25)

    def test_deltas_shrink_with_count(self):
        rng = np.random.default_rng(6)
        snap = Snapshot(
            np.clip(rng.normal(0.5, 0.15, size=(10, 2000)), 0, 1),
            tuple(f"q{i}" for i in range(10)),
            tuple(f"l{j}" for j in range(2000)),
        )
        curve = sufficiency_curve(snap, step=100, seed=1)
        late = np.mean(curve.deltas[-5:])
        assert late < curve.deltas[0]

    def test_no_settling_gives_none(self):
        snap = Snapshot(
            np.array([[0.0, 1.0, 0.0, 1.0]]), ("q0",), tuple(f"l{j}" for j in range(4))
        )
        curve = sufficiency_curve(snap, step=1, epsilon=1e-12, window=2, seed=0)
        assert curve.chosen_n is None

    def test_per_question_variant_is_stricter(self):
        rng = np.random.default_rng(8)
        snap = Snapshot(
            rng.random((6, 600)),
            tuple(f"q{i}" for i in range(6)),
            tuple(f"l{j}" for j in range(600)),
        )
        scalar = sufficiency_curve(snap, step=50, epsilon=0.01, seed=2)
        per_q = per_question_sufficiency_curve(snap, step=50, epsilon=0.01, seed=2)
        assert scalar.counts == per_q.counts
        assert all(pq >= s for pq, s in zip(per_q.deltas, scalar.deltas))

    def test_validation(self):
        snap = Snapshot(np.full((1, 4), 0.5), ("q0",), tuple(f"l{j}" for j in range(4)))
        for curve in (sufficiency_curve, per_question_sufficiency_curve):
            with pytest.raises(ValueError, match="step must be at least 1"):
                curve(snap, step=0)
            for epsilon in (0.0, -1.0, float("nan")):
                with pytest.raises(ValueError, match="epsilon must be positive"):
                    curve(snap, step=1, epsilon=epsilon)
            with pytest.raises(ValueError, match="window must be at least 1"):
                curve(snap, step=1, window=0)

    def test_overall_curve_is_running_mean_of_learner_means(self):
        rng = np.random.default_rng(4)
        snap = Snapshot(
            rng.random((7, 503)),
            tuple(f"q{i}" for i in range(7)),
            tuple(f"l{j}" for j in range(503)),
        )
        curve = sufficiency_curve(snap, step=50, epsilon=2e-3, window=2, seed=9)
        perf = snap.values.mean(axis=0)
        shuffled = perf[np.random.default_rng(9).permutation(perf.size)]
        counts = [*range(50, 503, 50), 503]
        means = [shuffled[:n].cumsum()[-1] / n for n in counts]
        deltas = [abs(b - a) for a, b in zip(means, means[1:])]
        assert curve.counts == tuple(counts[1:])
        assert curve.deltas == tuple(deltas)
        settled = (n for i, n in enumerate(counts[1:-1]) if max(deltas[i : i + 2]) < 2e-3)
        assert curve.chosen_n == next(settled, None)


def reference_correlation(predicted, truth):
    """``mean_performance_correlation`` as it was written, with id
    dictionaries for both snapshots whether or not their ids line up."""
    truth_l, truth_q = set(truth.learner_ids), set(truth.question_ids)
    common_l = [l for l in predicted.learner_ids if l in truth_l]
    common_q = [q for q in predicted.question_ids if q in truth_q]

    def means(snap):
        qpos = {q: i for i, q in enumerate(snap.question_ids)}
        lpos = {l: i for i, l in enumerate(snap.learner_ids)}
        rows = np.asarray([qpos[q] for q in common_q], dtype=np.intp)
        cols = np.asarray([lpos[l] for l in common_l], dtype=np.intp)
        return snap.values[np.ix_(rows, cols)].mean(axis=0)

    a, b = means(predicted), means(truth)
    ranks = [np.unique(m, return_inverse=True, return_counts=True) for m in (a, b)]
    ranks = [(np.cumsum(c) - (c - 1) / 2.0)[i] for _, i, c in ranks]
    return float(np.corrcoef(a, b)[0, 1]), float(np.corrcoef(*ranks)[0, 1])


class TestMeanPerformanceCorrelation:
    def test_equals_reference_aligned_and_permuted(self):
        rng = np.random.default_rng(7)
        qids = tuple(f"q{i}" for i in range(12))
        lids = tuple(f"l{j}" for j in range(300))
        truth = Snapshot(rng.random((12, 300)), qids, lids)
        noisy = np.clip(truth.values + rng.normal(0, 0.2, (12, 300)), 0, 1)
        predicted = Snapshot(noisy, qids, lids)
        aligned = mean_performance_correlation(predicted, truth)
        assert aligned == reference_correlation(predicted, truth)
        rows, cols = rng.permutation(12), rng.permutation(300)
        permuted = Snapshot(
            predicted.values[np.ix_(rows, cols)],
            tuple(qids[i] for i in rows),
            tuple(lids[j] for j in cols),
        )
        for pair in ((permuted, truth), (truth, permuted), (permuted, permuted)):
            assert mean_performance_correlation(*pair) == reference_correlation(*pair)
        assert np.allclose(mean_performance_correlation(permuted, truth), aligned, atol=1e-12)
        # Moving the truth's learners alone changes no bit: each learner's
        # mean still sums the same questions in the same order.
        moved = Snapshot(truth.values[:, cols], qids, tuple(lids[j] for j in cols))
        assert mean_performance_correlation(predicted, moved) == aligned
        # Extra ids on one side drop out of the common sets.
        wider = Snapshot(np.vstack([truth.values, rng.random((1, 300))]), qids + ("extra",), lids)
        assert mean_performance_correlation(predicted, wider) == aligned

    def test_perfect_on_identical(self):
        rng = np.random.default_rng(0)
        snap = Snapshot(
            rng.random((4, 20)),
            tuple(f"q{i}" for i in range(4)),
            tuple(f"l{j}" for j in range(20)),
        )
        pearson, spearman = mean_performance_correlation(snap, snap)
        assert pearson == pytest.approx(1.0, abs=1e-12)
        assert spearman == pytest.approx(1.0, abs=1e-12)

    def test_matches_scipy_on_tied_means(self):
        # scores in steps of 1/2 over 3 questions give per-learner means in
        # steps of 1/6, so 200 learners share 7 values and tie heavily
        rng = np.random.default_rng(3)
        qids = tuple(f"q{i}" for i in range(3))
        lids = tuple(f"l{j}" for j in range(200))
        predicted = Snapshot(rng.integers(0, 3, (3, 200)) / 2, qids, lids)
        noise = rng.integers(-1, 2, (3, 200)) / 2
        truth = Snapshot(np.clip(predicted.values + noise, 0, 1), qids, lids)
        a, b = predicted.values.mean(axis=0), truth.values.mean(axis=0)
        assert len(np.unique(a)) < 10 and len(np.unique(b)) < 10
        pearson, spearman = mean_performance_correlation(predicted, truth)
        assert abs(pearson - pearsonr(a, b).statistic) <= 1e-12
        assert abs(spearman - spearmanr(a, b).statistic) <= 1e-12

    def test_aligns_by_external_id(self):
        rng = np.random.default_rng(1)
        values = rng.random((3, 10))
        qids = tuple(f"q{i}" for i in range(3))
        lids = tuple(f"l{j}" for j in range(10))
        snap = Snapshot(values, qids, lids)
        perm = rng.permutation(10)
        shuffled = Snapshot(values[:, perm], qids, tuple(lids[i] for i in perm))
        pearson, _ = mean_performance_correlation(snap, shuffled)
        assert pearson == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("constant_side", ["predicted", "true"])
    def test_constant_means_rejected(self, constant_side):
        rng = np.random.default_rng(2)
        ids = (("q0", "q1"), ("l0", "l1", "l2"))
        varied = Snapshot(rng.random((2, 3)), *ids)
        flat = Snapshot(np.full((2, 3), 0.5), *ids)
        pair = (flat, varied) if constant_side == "predicted" else (varied, flat)
        message = f"{constant_side} per-learner mean performance is constant"
        with pytest.raises(ValueError, match=message):
            mean_performance_correlation(*pair)

    def test_requires_common_learners(self):
        a = Snapshot(np.full((1, 2), 0.5), ("q0",), ("l0", "l1"))
        b = Snapshot(np.full((1, 2), 0.5), ("q0",), ("l8", "l9"))
        with pytest.raises(ValueError, match="common learners"):
            mean_performance_correlation(a, b)
