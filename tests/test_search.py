import math
import tracemalloc
from itertools import combinations, islice

import numpy as np
import pytest

from diaggen import (
    CriteriaContext,
    SimConfig,
    Snapshot,
    brute_force,
    calibrate_lambda,
    combined,
    crossover,
    fitness,
    ga_search,
    greedy_search,
    mutate,
    random_search,
    select,
    simulate,
)
from diaggen import search
from diaggen.core import split_learners
from diaggen.criteria import _criteria, batch_criteria
from diaggen.search import GaConfig, _subset_fits, swap_gain, tournament_size

from conftest import random_snapshot


def rows(population):
    return np.asarray(population).tolist()


def all_distinct(population):
    return all(len(set(row)) == len(row) for row in rows(population))


def pairs(*individuals):
    return np.array(individuals, dtype=np.intp)


def reference_brute_force(ctx, k):
    """The exhaustive loop the prefix oracle replaced: every K-subset in
    lexicographic order from ``combinations``, scored 4096 at a time by
    ``batch_criteria``; a later subset wins only with a strictly higher
    fitness. Returns (genes, evaluations, mean fitness)."""
    best_fit, best_genes, fit_sum, count = -np.inf, None, 0.0, 0
    combos = combinations(range(ctx.n_questions), k)
    while block := list(islice(combos, 4096)):
        rmse, std = batch_criteria(ctx, np.asarray(block, dtype=np.intp))
        fits = combined(rmse, std, ctx.lam)
        fit_sum += float(fits.sum())
        count += len(block)
        i = int(np.argmax(fits))
        if fits[i] > best_fit:
            best_fit, best_genes = float(fits[i]), block[i]
    return best_genes, count, fit_sum / count


def all_fitnesses(ctx, k):
    """Every K-subset in lexicographic order and its fitness."""
    subsets = np.array(list(combinations(range(ctx.n_questions), k)), dtype=np.intp)
    return subsets, combined(*batch_criteria(ctx, subsets), ctx.lam)


def duplicated_rows_snapshot(seed, n_questions, n_distinct, n_learners=20):
    """Questions drawn from ``n_distinct`` random rows, the copies of each
    row next to each other: two subsets holding the same rows hold them in
    the same positions, so they score bitwise-equal."""
    rng = np.random.default_rng(seed)
    distinct = rng.random((n_distinct, n_learners))
    return Snapshot(
        values=distinct[np.sort(rng.integers(n_distinct, size=n_questions))],
        question_ids=tuple(f"q{i}" for i in range(n_questions)),
        learner_ids=tuple(f"l{j}" for j in range(n_learners)),
    )


def binary_snapshot(seed, n_questions=16, n_learners=8):
    """Random 0/1 scores. With power-of-two counts, every entry of H and C
    is a multiple of 2^-11 and every sum of them is exact, so subsets with
    equal sums tie bitwise whatever the positions of their terms."""
    rng = np.random.default_rng(seed)
    return Snapshot(
        values=(rng.random((n_questions, n_learners)) < 0.5).astype(float),
        question_ids=tuple(f"q{i}" for i in range(n_questions)),
        learner_ids=tuple(f"l{j}" for j in range(n_learners)),
    )


def all_equal_snapshot(n_questions, n_learners=10):
    return Snapshot(
        values=np.full((n_questions, n_learners), 0.3),
        question_ids=tuple(f"q{i}" for i in range(n_questions)),
        learner_ids=tuple(f"l{j}" for j in range(n_learners)),
    )


def reference_crossover(a, b, p_c, n_questions, rng):
    """``crossover`` as it was written, finding repeats with a (2P, K, K) mask."""
    n, k = a.shape
    if k < 2:
        return a.copy(), b.copy()
    swap = rng.random(n) < p_c
    cut = np.where(swap, rng.integers(1, k, size=n), k)
    tail = np.arange(k) >= cut[:, None]
    children = np.concatenate([np.where(tail, b, a), np.where(tail, a, b)])
    earlier = np.tri(k, k, -1, dtype=bool)
    repeated = ((children[:, :, None] == children[:, None, :]) & earlier).any(axis=2)
    children = search._replace(children, repeated, n_questions, rng)
    return children[:n], children[n:]


class TestCrossover:
    def test_one_point_swap(self):
        # K = 2 leaves one cut point, so the swap is deterministic
        rng = np.random.default_rng(0)
        c1, c2 = crossover(pairs([1, 2]), pairs([4, 5]), p_c=1.0, n_questions=10, rng=rng)
        assert rows(c1) == [[1, 5]] and rows(c2) == [[4, 2]]

    def test_disjoint_parents_need_no_repair(self):
        rng = np.random.default_rng(0)
        a, b = pairs([1, 2, 3]), pairs([4, 5, 6])
        c1, c2 = crossover(np.repeat(a, 50, 0), np.repeat(b, 50, 0), 1.0, 10, rng)
        for x, y in zip(rows(c1), rows(c2)):
            assert sorted(x + y) == [1, 2, 3, 4, 5, 6]
            assert x[0] == 1 and y[0] == 4
        assert all_distinct(c1) and all_distinct(c2)

    def test_reversed_parents_get_repaired(self):
        rng = np.random.default_rng(1)
        a, b = np.repeat(pairs([1, 2, 3]), 200, 0), np.repeat(pairs([3, 2, 1]), 200, 0)
        c1, c2 = crossover(a, b, p_c=1.0, n_questions=8, rng=rng)
        assert c1.shape == c2.shape == (200, 3)
        assert all_distinct(c1) and all_distinct(c2)
        assert c1.min() >= 0 and c2.min() >= 0 and max(c1.max(), c2.max()) < 8

    def test_repair_keeps_prefix(self):
        # cut at 2 gives child [5, 2, 2]; the duplicate sits in the
        # swapped-in tail, so repair must leave the prefix alone
        rng = np.random.default_rng(0)
        a, b = np.repeat(pairs([5, 2, 9]), 200, 0), np.repeat(pairs([7, 1, 2]), 200, 0)
        c1, c2 = crossover(a, b, p_c=1.0, n_questions=12, rng=rng)
        cut_at_2 = (c2 == [7, 1, 9]).all(axis=1)
        assert 50 < cut_at_2.sum() < 150
        for child in rows(c1[cut_at_2]):
            assert child[:2] == [5, 2]
            assert child[2] not in (5, 2)
            assert 0 <= child[2] < 12
        assert (c1[~cut_at_2] == [5, 1, 2]).all()

    def test_repair_is_uniform_over_absent_questions(self):
        # cut at 2 gives child [0, 1, 1, 0]; it keeps its first occurrences
        # and the two repaired genes are distinct uniform draws from the
        # absent questions 2..7
        rng = np.random.default_rng(2)
        a = np.repeat(pairs([0, 1, 2, 3]), 30_000, 0)
        b = np.repeat(pairs([4, 5, 1, 0]), 30_000, 0)
        c1, c2 = crossover(a, b, p_c=1.0, n_questions=8, rng=rng)
        repaired = c1[(c2 == [4, 5, 2, 3]).all(axis=1)]
        assert len(repaired) > 9000
        assert (repaired[:, :2] == [0, 1]).all()
        assert (repaired[:, 2] != repaired[:, 3]).all()
        for column in (repaired[:, 2], repaired[:, 3]):
            freq = np.bincount(column, minlength=8) / len(column)
            assert freq[:2].sum() == 0
            assert np.abs(freq[2:] - 1 / 6).max() < 0.02

    def test_k1_is_noop(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        c1, c2 = crossover(pairs([3]), pairs([4]), p_c=1.0, n_questions=5, rng=rng)
        assert rows(c1) == [[3]] and rows(c2) == [[4]]
        assert rng.bit_generator.state == state  # consumed no draws

    def test_swap_rate_matches_p_c(self):
        # binomial(10000, 0.75): 3 sigma is about 130, the bound allows 150
        rng = np.random.default_rng(42)
        a = np.repeat(pairs([0, 1, 2, 3, 4]), 10_000, 0)
        b = np.repeat(pairs([5, 6, 7, 8, 9]), 10_000, 0)
        c1, _ = crossover(a, b, p_c=0.75, n_questions=10, rng=rng)
        fired = int((c1 != a).any(axis=1).sum())
        assert abs(fired - 7500) <= 150

    @pytest.mark.parametrize(
        "k, n_questions",
        [(k, q) for k in (1, 2, 10, 48) for q in (30, 50, 1500) if k <= q],
    )
    def test_equals_pairwise_repeat_mask(self, k, n_questions):
        # Parents drawn from a few questions repeat genes in head and tail;
        # the children equal those of the (2P, K, K) comparison of every gene
        # with the genes before it, bit for bit, as do the generators' states.
        rng = np.random.default_rng(k * n_questions)
        for low in (min(3, n_questions), min(k + 2, n_questions), n_questions):
            a, b = rng.integers(0, low, size=(2, 300, k))
            seed = int(rng.integers(1 << 30))
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = crossover(a, b, 0.8, n_questions, got_rng)
            want = reference_crossover(a, b, 0.8, n_questions, want_rng)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_mismatched_lengths_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="equal shape"):
            crossover(pairs([1, 2]), pairs([3]), p_c=1.0, n_questions=5, rng=rng)
        with pytest.raises(ValueError, match="equal shape"):
            crossover(pairs([1, 2], [3, 4]), pairs([3, 4]), p_c=1.0, n_questions=5, rng=rng)


class TestMutate:
    def test_never_selected_is_identity(self):
        rng = np.random.default_rng(0)
        population = np.repeat(pairs([1, 2, 3]), 100, 0)
        assert (mutate(population, 0.0, 1.0, 10, rng) == population).all()

    def test_exhausted_pool_is_identity(self):
        rng = np.random.default_rng(0)
        assert rows(mutate(pairs([0, 1, 2]), 1.0, 1.0, 3, rng)) == [[0, 1, 2]]

    def test_replacement_avoids_existing_genes(self):
        rng = np.random.default_rng(3)
        base = np.repeat(pairs([0, 1, 2, 3]), 500, 0)
        out = mutate(base, 1.0, 0.5, 6, rng)
        assert all_distinct(out) and out.min() >= 0 and out.max() < 6
        # a replaced gene never takes a value the row held before mutation
        assert not np.isin(np.where(out != base, out, -1), [0, 1, 2, 3]).any()

    def test_more_chosen_than_missing_changes_leftmost(self):
        # Q - K = 1 missing question and every gene chosen: only the
        # leftmost gene changes, to the one missing question
        rng = np.random.default_rng(4)
        assert rows(mutate(pairs([0, 1, 2]), 1.0, 1.0, 4, rng)) == [[3, 1, 2]]

    def test_mean_replacements(self):
        # k=10, p_m2=0.25: mean 2.5 replaced genes, 3 sigma ~ 0.05
        rng = np.random.default_rng(7)
        base = np.repeat(pairs(list(range(10))), 10_000, 0)
        out = mutate(base, 1.0, 0.25, 50, rng)
        assert abs((out != base).sum() / 10_000 - 2.5) <= 0.1

    def test_input_unchanged(self):
        rng = np.random.default_rng(8)
        population = np.repeat(pairs([0, 1, 2]), 10, 0)
        mutate(population, 1.0, 1.0, 9, rng)
        assert (population == [0, 1, 2]).all()


class TestSelect:
    def test_sole_individual_always_wins(self):
        rng = np.random.default_rng(0)
        cfg = GaConfig(k=2, population_size=2, tournament_fraction=0.1)
        out = select(pairs([1, 2]), [0.5], cfg, rng)
        assert rows(out) == [[1, 2]]

    def test_tournament_with_global_best_returns_it(self):
        # fraction 1.0 puts the whole population in every tournament
        rng = np.random.default_rng(0)
        cfg = GaConfig(k=2, population_size=4, tournament_fraction=1.0)
        pop = pairs([0, 1], [2, 3], [4, 5], [6, 7])
        out = select(pop, [0.1, 0.9, 0.4, 0.2], cfg, rng)
        assert rows(out) == [[2, 3]] * 4

    def test_tie_goes_to_lower_index(self):
        rng = np.random.default_rng(0)
        cfg = GaConfig(k=2, population_size=3, tournament_fraction=1.0)
        out = select(pairs([0, 1], [2, 3], [4, 5]), [0.5, 0.5, 0.5], cfg, rng)
        assert rows(out) == [[0, 1]] * 3

    def test_tournament_size_is_ten_percent(self):
        assert tournament_size(1000, 0.10) == 100
        assert tournament_size(5, 0.10) == 1
        assert tournament_size(3, 1.0) == 3

    def test_selection_preserves_individuals(self):
        rng = np.random.default_rng(5)
        cfg = GaConfig(k=3, population_size=20, tournament_fraction=0.1)
        pop = pairs(*[sorted(rng.choice(30, 3, replace=False).tolist()) for _ in range(20)])
        fits = rng.random(20)
        out = select(pop, fits, cfg, rng)
        assert out.shape == (20, 3)
        assert all(ind in rows(pop) for ind in rows(out))

    def test_win_frequencies_match_per_tournament_draws(self):
        # reference: each tournament draws its members with rng.choice and
        # the fittest member wins, ties to the lower index; fitnesses
        # rounded to one decimal tie often. Each frequency estimate has a
        # standard error below 0.0014, the bound is about 5 of them.
        p, n_rounds = 50, 1000
        rng = np.random.default_rng(6)
        fits = np.round(rng.random(p), 1)
        cfg = GaConfig(k=1, population_size=p, tournament_fraction=0.1)
        size = tournament_size(p, cfg.tournament_fraction)
        pop = np.arange(p)[:, None]
        won = np.concatenate([select(pop, fits, cfg, rng)[:, 0] for _ in range(n_rounds)])
        reference = []
        for _ in range(p * n_rounds):
            members = np.sort(rng.choice(p, size=size, replace=False))
            reference.append(members[np.argmax(fits[members])])
        freq = np.bincount(won, minlength=p) / won.size
        ref_freq = np.bincount(reference, minlength=p) / len(reference)
        assert np.abs(freq - ref_freq).max() < 0.01


class TestGaSearch:
    def test_default_hyperparameters(self):
        cfg = GaConfig(k=10)
        assert (cfg.p_c, cfg.p_m1, cfg.p_m2) == (0.75, 0.5, 0.25)
        assert cfg.population_size == 1000 and cfg.generations == 5
        assert cfg.tournament_fraction == 0.10

    def test_finds_toy_optimum(self, toy_ctx):
        cfg = GaConfig(k=2, population_size=20, generations=10, seed=0)
        result = ga_search(toy_ctx, cfg)
        oracle = brute_force(toy_ctx, 2)
        assert sorted(result.best) == [1, 3]
        assert result.report.fitness == pytest.approx(oracle.report.fitness, abs=1e-12)
        assert result.report.fitness == pytest.approx(0.0, abs=1e-12)

    def test_k_equals_pool_size(self, toy_ctx):
        cfg = GaConfig(k=4, population_size=6, generations=2, seed=1)
        result = ga_search(toy_ctx, cfg)
        assert sorted(result.best) == [0, 1, 2, 3]
        assert result.report.fitness == toy_ctx.lam * result.report.std

    def test_deterministic(self, toy_ctx):
        cfg = GaConfig(k=2, population_size=10, generations=5, seed=12)
        assert ga_search(toy_ctx, cfg) == ga_search(toy_ctx, cfg)

    def test_history_and_evaluations(self, toy_ctx):
        cfg = GaConfig(k=2, population_size=10, generations=5, seed=12)
        result = ga_search(toy_ctx, cfg)
        assert len(result.history) == 6  # production + 5 generations
        assert result.evaluations == 10 * 6

    def test_report_recomputable(self, toy_ctx):
        result = ga_search(toy_ctx, GaConfig(k=2, population_size=10, generations=3, seed=2))
        assert fitness(toy_ctx, result.best) == result.report

    def test_best_ever_monotone_in_generations(self):
        # a generation's draws do not depend on how many follow it, so a
        # longer run extends a shorter one and its best-ever cannot be worse
        snap = random_snapshot(33, n_questions=15, n_learners=25)
        ctx = CriteriaContext.build(snap, range(25), lam=0.3)
        fits = []
        for n_gen in range(1, 7):
            cfg = GaConfig(k=4, population_size=12, generations=n_gen, seed=5)
            fits.append(ga_search(ctx, cfg).report.fitness)
        assert all(b >= a for a, b in zip(fits, fits[1:]))

    def test_returns_best_individual_ever_evaluated(self, toy_ctx):
        result = ga_search(toy_ctx, GaConfig(k=2, population_size=6, generations=4, seed=8))
        best = max(stats.best for stats in result.history)
        assert result.report.fitness == pytest.approx(best, abs=1e-12)

    def test_population_invariants_hold_every_generation(self, toy_ctx):
        # distinct valid genes in every recorded best of every generation
        result = ga_search(toy_ctx, GaConfig(k=2, population_size=8, generations=4, seed=3))
        assert all_distinct([result.best])
        assert all(0 <= g < 4 for g in result.best)

    def test_k_too_large(self, toy_ctx):
        with pytest.raises(ValueError, match="k exceeds"):
            ga_search(toy_ctx, GaConfig(k=5, population_size=4, generations=1))

    def test_odd_population_allowed(self, toy_ctx):
        cfg = GaConfig(k=2, population_size=7, generations=3, seed=9)
        result = ga_search(toy_ctx, cfg)
        assert len(result.best) == 2


class TestGreedySearch:
    def test_toy_k1_prefers_low_index_on_tie(self, toy_ctx):
        # singletons 1 and 3 both score about -0.1, far above rows 0 and 2
        result = greedy_search(toy_ctx, 1)
        assert result.best == (1,)

    def test_exact_tie_breaks_to_lower_index(self):
        # identical rows give bitwise-equal fitness
        values = np.array([[0.7, 0.3], [0.7, 0.3], [0.2, 0.9]])
        snap = Snapshot(values, ("a", "b", "c"), ("x", "y"))
        ctx = CriteriaContext.build(snap, [0, 1], lam=0.5)
        result = greedy_search(ctx, 1)
        assert result.best == (0,)

    def test_exact_tie_after_first_step_breaks_to_lower_index(self):
        # rows 1 and 4 are identical; after question 2, both extend the
        # subset equally well and the lower index must win
        values = np.array(
            [
                [0.81, 0.81, 0.52, 0.29],
                [0.05, 0.38, 0.41, 0.05],
                [0.05, 1.00, 0.65, 0.23],
                [0.43, 0.97, 0.90, 0.84],
                [0.05, 0.38, 0.41, 0.05],
            ]
        )
        snap = Snapshot(values, tuple("abcde"), tuple("wxyz"))
        ctx = CriteriaContext.build(snap, range(4), lam=0.5)
        assert greedy_search(ctx, 2).best == (2, 1)

    def test_k_equals_pool(self, toy_ctx):
        result = greedy_search(toy_ctx, 4)
        assert sorted(result.best) == [0, 1, 2, 3]

    def test_evaluation_budget(self, toy_ctx):
        result = greedy_search(toy_ctx, 2)
        assert result.evaluations == 4 + 3
        assert result.evaluations <= 2 * 4

    def test_evaluation_budget_random_instances(self):
        for seed in range(3):
            snap = random_snapshot(seed)
            ctx = CriteriaContext.build(snap, range(snap.n_learners), lam=0.25)
            k = 5
            result = greedy_search(ctx, k)
            assert result.evaluations <= k * snap.n_questions

    def test_deterministic(self, toy_ctx):
        assert greedy_search(toy_ctx, 2) == greedy_search(toy_ctx, 2)

    def test_step_fits_are_the_kernels(self):
        # every step scores the chosen questions, in the order chosen,
        # followed by each candidate; the kernel gives the same bits on
        # those unsorted rows (batch_criteria would sort them)
        snap = random_snapshot(17, n_questions=20, n_learners=40)
        ctx = CriteriaContext.build(snap, range(40), lam=0.4)
        result = greedy_search(ctx, 8)
        chosen = list(result.best)
        for step, stats in enumerate(result.history, start=1):
            cand = [q for q in range(20) if q not in chosen[:step - 1]]
            rows = np.array([chosen[:step - 1] + [c] for c in cand], dtype=np.intp)
            fits = combined(*_criteria(ctx, rows), ctx.lam)
            j = int(np.argmax(fits))
            assert cand[j] == chosen[step - 1]
            assert stats.best == fits[j] and stats.mean == fits.mean()


class TestRandomSearch:
    def test_deterministic(self, toy_ctx):
        assert random_search(toy_ctx, 2, seed=4) == random_search(toy_ctx, 2, seed=4)

    def test_k_equals_pool(self, toy_ctx):
        result = random_search(toy_ctx, 4, seed=0)
        assert sorted(result.best) == [0, 1, 2, 3]
        assert result.report.fitness == toy_ctx.lam * result.report.std

    def test_k_too_large(self, toy_ctx):
        with pytest.raises(ValueError, match="k exceeds"):
            random_search(toy_ctx, 5, seed=0)

    def test_expected_fitness_matches_enumeration(self, toy_ctx):
        # oracle: all six 2-subsets average to fitness -0.1 exactly
        oracle = brute_force(toy_ctx, 2)
        assert oracle.history[0].mean == pytest.approx(-0.1, abs=1e-12)
        draws = [random_search(toy_ctx, 2, seed=s).report.fitness for s in range(400)]
        assert np.mean(draws) == pytest.approx(-0.1, abs=0.02)


class TestBruteForce:
    def test_toy_optimum(self, toy_ctx):
        result = brute_force(toy_ctx, 2)
        assert result.best == (1, 3)
        assert result.report.fitness == pytest.approx(0.0, abs=1e-12)
        assert result.evaluations == 6

    def test_combination_count(self):
        snap = random_snapshot(1, n_questions=15, n_learners=10)
        ctx = CriteriaContext.build(snap, range(10), lam=0.3)
        result = brute_force(ctx, 3)
        assert result.evaluations == math.comb(15, 3) == 455

    def test_guard_rejects_large_instances(self):
        snap = random_snapshot(2, n_questions=50, n_learners=5)
        ctx = CriteriaContext.build(snap, range(5), lam=0.3)
        with pytest.raises(ValueError, match="too large for exhaustive"):
            brute_force(ctx, 25)

    def test_k_equals_pool(self, toy_ctx):
        assert sorted(brute_force(toy_ctx, 4).best) == [0, 1, 2, 3]

    def test_dominates_other_algorithms(self):
        for seed in range(3):
            snap = random_snapshot(seed + 60, n_questions=10, n_learners=20)
            ctx = CriteriaContext.build(snap, range(20))
            lam = calibrate_lambda(ctx, k=3, n_samples=500, seed=seed)
            ctx = ctx.with_lambda(lam)
            best = brute_force(ctx, 3).report.fitness
            assert best >= greedy_search(ctx, 3).report.fitness - 1e-12
            assert best >= random_search(ctx, 3, seed=seed).report.fitness - 1e-12
            ga = ga_search(ctx, GaConfig(k=3, population_size=30, generations=10, seed=seed))
            assert best >= ga.report.fitness - 1e-12

    @staticmethod
    def tied_ctx(seed):
        # ten questions copying two to five distinct rows: many subsets tie
        # bitwise, the optimum among them, and at K >= 4 some of the tied
        # optima differ in more than one position
        snap = duplicated_rows_snapshot(seed, n_questions=10, n_distinct=2 + seed % 4)
        return CriteriaContext.build(snap, range(snap.n_learners), lam=0.6)

    @pytest.mark.parametrize("seed", range(8))
    def test_tie_goes_to_lexicographically_smallest(self, seed):
        ctx = self.tied_ctx(seed)
        for k in range(2, 8):
            subsets, fits = all_fitnesses(ctx, k)
            tied = subsets[fits == fits.max()]
            assert len(tied) >= 2
            assert brute_force(ctx, k).best == tuple(tied[0])

    @pytest.mark.parametrize("seed", range(8))
    def test_tie_in_a_later_block_goes_to_lexicographically_smallest(self, seed):
        # the smallest tied subset is often enumerated after another one
        ctx = CriteriaContext.build(binary_snapshot(seed), range(8), lam=0.5)
        for k in range(2, 9):
            subsets, fits = all_fitnesses(ctx, k)
            assert brute_force(ctx, k).best == tuple(subsets[fits == fits.max()][0])

    def test_all_equal_snapshot_takes_first_subset(self):
        snap = all_equal_snapshot(8)
        ctx = CriteriaContext.build(snap, range(snap.n_learners), lam=0.5)
        for k in range(1, 9):
            _, fits = all_fitnesses(ctx, k)
            assert (fits == fits[0]).all()
            assert brute_force(ctx, k).best == tuple(range(k))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_on_random_snapshots(self, seed):
        rng = np.random.default_rng(seed)
        nq = int(rng.integers(1, 11))
        snap = random_snapshot(seed + 200, n_questions=nq, n_learners=int(rng.integers(2, 30)))
        ctx = CriteriaContext.build(snap, range(snap.n_learners), lam=float(rng.random()))
        for k in range(1, nq + 1):
            self.assert_matches_reference(ctx, k)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_reference_on_tied_snapshots(self, seed):
        for k in range(1, 11):
            self.assert_matches_reference(self.tied_ctx(seed), k)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_where_sums_cancel(self, seed):
        # questions alternate between two rows, so a subset holding as many
        # of each has rmse 0 in exact arithmetic, and the square root of
        # its sum of H magnifies rounding; with lam = 4 such subsets lie far
        # below the optimum
        rows = np.random.default_rng(seed).random((2, 20))
        snap = Snapshot(
            rows[np.arange(10) % 2],
            tuple(f"q{i}" for i in range(10)),
            tuple(f"l{j}" for j in range(20)),
        )
        ctx = CriteriaContext.build(snap, range(20), lam=4.0)
        for k in range(1, 11):
            self.assert_matches_reference(ctx, k)

    @pytest.mark.parametrize("seed", range(2))
    def test_matches_reference_near_full_pool(self, seed):
        # near K = Q the sums of H are small and cancel; every subset is
        # still scored as the kernel scores it
        snap = random_snapshot(seed + 300, n_questions=18, n_learners=30)
        ctx = CriteriaContext.build(snap, range(30), lam=0.5)
        for k in range(12, 19):
            self.assert_matches_reference(ctx, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_subset_fits_are_the_kernels(self, k):
        snap = random_snapshot(k + 400, n_questions=12, n_learners=25)
        ctx = CriteriaContext.build(snap, range(25), lam=0.8)
        seen = []
        for prefixes, tails, fits in _subset_fits(ctx, k, ctx.lam):
            i, j = np.divmod(np.arange(fits.size), len(tails))
            genes = np.concatenate([prefixes[i], tails[j]], axis=1)
            assert (combined(*batch_criteria(ctx, genes), ctx.lam) == fits.ravel()).all()
            # the first maximum of a block is its smallest tied subset
            assert genes.tolist() == sorted(genes.tolist())
            seen += genes.tolist()
        assert sorted(seen) == [list(c) for c in combinations(range(12), k)]

    @pytest.mark.parametrize("block", [16, 64])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_in_small_blocks(self, monkeypatch, seed, block):
        # small blocks split both prefixes and tails into several chunks and
        # spread tied optima over several blocks
        monkeypatch.setattr(search, "_BLOCK", block)
        tied = self.tied_ctx(seed)
        binary = CriteriaContext.build(binary_snapshot(seed, n_questions=10), range(8), lam=0.5)
        for ctx in (tied, binary):
            for k in range(1, 11):
                self.assert_matches_reference(ctx, k)

    def test_matches_reference_on_all_equal_snapshot(self):
        ctx = CriteriaContext.build(all_equal_snapshot(10), range(10), lam=0.5)
        for k in range(1, 11):
            self.assert_matches_reference(ctx, k)

    @staticmethod
    def assert_matches_reference(ctx, k):
        genes, evaluations, mean = reference_brute_force(ctx, k)
        result = brute_force(ctx, k)
        assert result.best == genes
        assert result.evaluations == evaluations == math.comb(ctx.n_questions, k)
        assert abs(result.history[0].mean - mean) <= 1e-12
        assert result.report == fitness(ctx, genes)

    @pytest.mark.parametrize(
        "snap, k",
        [(random_snapshot(7, n_questions=20, n_learners=30), 8), (all_equal_snapshot(16), 8)],
        ids=["random-q20-k8", "all-equal-q16-k8"],
    )
    def test_memory_stays_bounded(self, snap, k):
        # every subset of the all-equal snapshot ties: none of them may be
        # held at once
        ctx = CriteriaContext.build(snap, range(snap.n_learners), lam=0.5)
        tracemalloc.start()
        try:
            brute_force(ctx, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


@pytest.mark.parametrize(
    "search",
    [
        lambda ctx: random_search(ctx, 2, seed=1),
        lambda ctx: greedy_search(ctx, 2),
        lambda ctx: ga_search(ctx, GaConfig(k=2, population_size=6, generations=2, seed=1)),
        lambda ctx: brute_force(ctx, 2),
    ],
    ids=["random", "greedy", "ga", "brute"],
)
def test_best_is_a_tuple_of_python_ints(toy_ctx, search):
    best = search(toy_ctx).best
    assert type(best) is tuple and all(type(g) is int for g in best)


class TestSwapGain:
    def test_matches_every_single_swap(self):
        snap = random_snapshot(41, n_questions=9, n_learners=25)
        ctx = CriteriaContext.build(snap, range(25), lam=0.7)
        rng = np.random.default_rng(41)
        for k in range(1, 9):
            genes = [int(g) for g in rng.choice(9, size=k, replace=False)]
            base = fitness(ctx, genes).fitness
            gains = [
                fitness(ctx, genes[:i] + [t] + genes[i + 1:]).fitness - base
                for i in range(k)
                for t in range(9)
                if t not in genes
            ]
            assert swap_gain(ctx, genes) == pytest.approx(max(gains), abs=1e-12)

    def test_full_pool_has_no_swap(self, toy_ctx):
        assert swap_gain(toy_ctx, [3, 1, 0, 2]) == 0.0

    def test_oracle_optimum_gains_nothing(self):
        for seed in range(3):
            snap = random_snapshot(seed + 70, n_questions=11, n_learners=20)
            ctx = CriteriaContext.build(snap, range(20), lam=0.3 + 0.3 * seed)
            for k in range(1, 11):
                assert swap_gain(ctx, brute_force(ctx, k).best) <= 1e-12

    def test_ga_on_seed_101_truth_is_not_swap_optimal(self):
        # the README pipeline's GA run on world 101's true snapshot (K = 10
        # of 50) stops short of a 1-swap local optimum
        _, _, truth = simulate(SimConfig(num_learners=6000, seed=101))
        split = split_learners(range(truth.n_learners), 0.8, 0)
        ctx = CriteriaContext.build(truth, split.train)
        ctx = ctx.with_lambda(calibrate_lambda(ctx, 10))
        result = ga_search(ctx, GaConfig(k=10, seed=0))
        assert swap_gain(ctx, result.best) > 0


class TestOperatorInvariants:
    def test_randomized_operator_applications(self):
        # a fast version of the full invariant sweep in the acceptance suite
        rng = np.random.default_rng(99)
        for _ in range(100):
            nq = int(rng.integers(4, 20))
            k = int(rng.integers(2, nq + 1))
            n = int(rng.integers(1, 10))
            a = pairs(*[sorted(rng.choice(nq, k, replace=False).tolist()) for _ in range(n)])
            b = pairs(*[sorted(rng.choice(nq, k, replace=False).tolist()) for _ in range(n)])
            c1, c2 = crossover(a, b, float(rng.random()), nq, rng)
            m = mutate(c1, float(rng.random()), float(rng.random()), nq, rng)
            for pop in (c1, c2, m):
                assert pop.shape == (n, k) and all_distinct(pop)
                assert pop.min() >= 0 and pop.max() < nq


class TestAlgorithmOrdering:
    def test_desk_scale_ordering(self):
        # on five simulated worlds the mean fitness orders GA, greedy,
        # random, with GA at or above greedy on at least 4 of 5
        ga_means, greedy_fits, random_means = [], [], []
        for seed in range(5):
            _, _, truth = simulate(
                SimConfig(num_learners=300, num_questions=40, seed=seed + 60)
            )
            ctx = CriteriaContext.build(truth, range(truth.n_learners))
            lam = calibrate_lambda(ctx, k=5, n_samples=2000, seed=seed)
            ctx = ctx.with_lambda(lam)
            ga_means.append(
                np.mean(
                    [
                        ga_search(
                            ctx,
                            GaConfig(k=5, population_size=300, generations=10, seed=s),
                        ).report.fitness
                        for s in range(3)
                    ]
                )
            )
            greedy_fits.append(greedy_search(ctx, 5).report.fitness)
            random_means.append(
                np.mean(
                    [random_search(ctx, 5, seed=s).report.fitness for s in range(3)]
                )
            )
        assert np.mean(ga_means) >= np.mean(greedy_fits) >= np.mean(random_means)
        wins = sum(g >= h for g, h in zip(ga_means, greedy_fits))
        assert wins >= 4
