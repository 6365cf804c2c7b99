import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diaggen import (
    CriteriaContext,
    FitnessReport,
    Snapshot,
    calibrate_lambda,
    combined,
    fitness,
)
from diaggen.criteria import _sorted_rows, batch_criteria, sample_subsets
from diaggen.search import swap_gain

from conftest import random_snapshot


def criteria_of(ctx, genes):
    """(rmse, std) of one assessment, on a context with or without lam."""
    rmse, std = batch_criteria(ctx, np.asarray([genes]))
    return rmse[0], std[0]


class TestStatistics:
    def test_contexts_compare_by_identity(self):
        snap = random_snapshot(3, 4, 10)
        ctx = CriteriaContext.build(snap, range(10))
        assert ctx == ctx and ctx != CriteriaContext.build(snap, range(10))

    def instances(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            snap = random_snapshot(
                int(rng.integers(1 << 30)), int(rng.integers(1, 30)), int(rng.integers(2, 60))
            )
            n = int(rng.integers(1, snap.n_learners + 1))
            yield snap, rng.choice(snap.n_learners, size=n, replace=False)

    def test_stats_are_h_and_c(self):
        for snap, learners in self.instances():
            ctx = CriteriaContext.build(snap, learners)
            x = snap.values[:, learners]
            d = x - x.mean(axis=0)
            assert ctx.stats.shape == (snap.n_questions, snap.n_questions, 2)
            assert np.abs(ctx.stats[..., 0] - d @ d.T / len(learners)).max() <= 1e-12
            cov = np.cov(x, bias=True).reshape(snap.n_questions, snap.n_questions)
            assert np.abs(ctx.stats[..., 1] - cov).max() <= 1e-12

    def test_stats_are_read_only(self, toy_ctx):
        with pytest.raises(ValueError, match="read-only"):
            toy_ctx.stats[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            toy_ctx.stats[..., 1] += 1.0

    def test_rejects_repeated_learners(self, toy_snapshot):
        with pytest.raises(ValueError, match="learner indices must be distinct"):
            CriteriaContext.build(toy_snapshot, [0, 0, 1])

    @pytest.mark.parametrize(
        "learners", [[0.9, 1.9, 2.2], [0.2, 0.7], [0, 1.0], [True, 2], [np.bool_(True), 2]]
    )
    def test_rejects_non_integer_learners(self, learners):
        # Fractional indices were truncated to learners 0-2, or to a repeat.
        with pytest.raises(ValueError, match="^learner indices must be integers$"):
            CriteriaContext.build(random_snapshot(5, 4, 3), learners)

    @pytest.mark.parametrize(
        "learners, message",
        [
            ([0.0, 1.0], "^learner indices must be integers$"),
            (np.array([0.0, 1.0]), "^learner indices must be integers$"),
            ((True, False), "^learner indices must be integers$"),
            (np.array([True, False]), "^learner indices must be integers$"),
            ([0, 1, np.int64(1)], "^learner indices must be distinct$"),
            (np.array([2, 0, 2]), "^learner indices must be distinct$"),
            ([], "^learner subset is empty$"),
            (np.array([], dtype=np.intp), "^learner subset is empty$"),
            (range(0), "^learner subset is empty$"),
            ([0, 3], "^learner index out of range$"),
            ([-1, 0], "^learner index out of range$"),
            ([0, 2**70], "^learner index out of range$"),
            (np.array([0, 3], dtype=np.uint8), "^learner index out of range$"),
        ],
    )
    def test_rejections_keep_their_messages(self, learners, message):
        with pytest.raises(ValueError, match=message):
            CriteriaContext.build(random_snapshot(5, 4, 3), learners)

    @pytest.mark.parametrize("kind", [tuple, list, np.asarray, "range"])
    def test_stats_bitwise_as_first_written(self, kind):
        # The formula as first written: a tuple of ints, a gathered block X,
        # D = X less each learner's mean and Xc = X less each question's mean.
        def reference(snap, learners):
            learners = tuple(map(int, learners))
            x = snap.values[:, np.asarray(learners, dtype=np.intp)]
            d = x - x.mean(axis=0)
            xc = x - x.mean(axis=1, keepdims=True)
            return np.stack([d @ d.T, xc @ xc.T], axis=-1) / len(learners)

        for snap, learners in self.instances():
            if kind == "range":
                learners = range(snap.n_learners - 1, -1, -2)
            else:
                learners = kind(learners.tolist())
            got = CriteriaContext.build(snap, learners).stats
            assert got.tobytes() == reference(snap, learners).tobytes()

    def test_accepts_python_and_numpy_integers(self):
        snap = random_snapshot(5, 4, 3)
        want = CriteriaContext.build(snap, [0, 1, 2]).stats
        for learners in ([np.int64(0), np.int32(1), np.uint8(2)], np.arange(3), range(3)):
            got = CriteriaContext.build(snap, learners).stats
            assert got.tobytes() == want.tobytes()


class TestDiscrepancy:
    def test_full_pool_is_zero(self, toy_ctx):
        assert fitness(toy_ctx, [0, 1, 2, 3]).rmse == 0.0

    def test_hand_values(self, toy_ctx):
        # sqrt((0.01 + 0.01) / 2) = 0.1 and sqrt((0.1225 + 0.1225) / 2) = 0.35
        assert fitness(toy_ctx, [1, 3]).rmse == pytest.approx(0.1, abs=1e-12)
        assert fitness(toy_ctx, [0, 3]).rmse == pytest.approx(0.35, abs=1e-12)

    def test_full_pool_zero_on_random_snapshots(self):
        for seed in range(3):
            snap = random_snapshot(seed)
            ctx = CriteriaContext.build(snap, range(snap.n_learners))
            assert criteria_of(ctx, range(snap.n_questions))[0] == 0.0

    @pytest.mark.parametrize(
        "genes",
        [
            [0, 4],
            [0, -1],
            [0, 2**70],
            np.array([0, 2**64 - 1], dtype=np.uint64),
            [0.9, 1.9],
            [0, 1.0],
            [True, 2],
            [np.True_, 2],
            np.array([0.9, 1.9]),
            np.array([True, False]),
        ],
    )
    def test_rejects_out_of_range_gene(self, toy_ctx, genes):
        # Fractional and bool genes are not read as the integers they cast to.
        integers = all(isinstance(g, (int, np.integer)) and not isinstance(g, bool) for g in genes)
        message = "^gene index out of range" if integers else "^gene indices must be integers$"
        scorers = [
            lambda: fitness(toy_ctx, genes),
            lambda: swap_gain(toy_ctx, genes),
            lambda: batch_criteria(toy_ctx, [genes]),
        ]
        if isinstance(genes, np.ndarray):
            scorers.append(lambda: batch_criteria(toy_ctx, genes[None]))
        for score in scorers:
            with pytest.raises(ValueError, match=message):
                score()

    @pytest.mark.parametrize(
        "genes", [(np.int64(0), 3), np.array([0, 3], dtype=np.uint8), np.array([0, 3], dtype=object)]
    )
    def test_integer_genes_of_any_type(self, toy_ctx, genes):
        assert fitness(toy_ctx, genes) == fitness(toy_ctx, [0, 3])
        assert swap_gain(toy_ctx, genes) == swap_gain(toy_ctx, [0, 3])
        want = batch_criteria(toy_ctx, [[0, 3]])
        assert all(np.array_equal(got, w) for got, w in zip(batch_criteria(toy_ctx, [genes]), want))

    def test_rejects_duplicate_genes(self, toy_ctx):
        with pytest.raises(ValueError, match="distinct"):
            fitness(toy_ctx, [1, 1])


class TestDiscrimination:
    def test_constant_subset_means(self, toy_ctx):
        # rows {0, 2} give every learner a mean of 0.5
        assert fitness(toy_ctx, [0, 2]).std == 0.0

    def test_population_std_of_two_points(self, toy_ctx):
        assert fitness(toy_ctx, [1, 3]).std == pytest.approx(0.2, abs=1e-12)
        assert fitness(toy_ctx, [0, 3]).std == pytest.approx(0.45, abs=1e-12)


class TestFitness:
    def test_hand_values(self, toy_ctx):
        report = fitness(toy_ctx, [1, 3])
        assert report.fitness == pytest.approx(0.0, abs=1e-12)
        report = fitness(toy_ctx, [0, 3])
        assert report.fitness == pytest.approx(-0.125, abs=1e-12)

    def test_full_pool_fitness_is_lam_times_spread(self, toy_ctx):
        report = fitness(toy_ctx, [0, 1, 2, 3])
        assert report.rmse == 0.0
        assert report.fitness == toy_ctx.lam * report.std

    def test_requires_lam(self, toy_snapshot):
        ctx = CriteriaContext.build(toy_snapshot, [0, 1])
        with pytest.raises(ValueError, match="lam"):
            fitness(ctx, [1, 3])

    @pytest.mark.parametrize(
        "lam, message",
        [
            (-1.0, "non-negative"),
            (float("nan"), "non-negative"),
            (float("inf"), "finite"),
            (10**400, "finite"),  # an int too large for a float
        ],
        ids=["-1", "nan", "inf", "huge-int"],
    )
    def test_build_checks_lam_like_with_lambda(self, toy_snapshot, lam, message):
        with pytest.raises(ValueError, match=f"lam must be {message}"):
            CriteriaContext.build(toy_snapshot, [0, 1], lam=lam)

    def test_report_consistency_enforced(self):
        with pytest.raises(ValueError, match="fitness"):
            FitnessReport(rmse=0.1, std=0.2, fitness=0.5, lam=0.5)

    def test_monotone_in_components(self):
        # fitness falls as rmse grows and rises as std grows, at fixed lam
        assert combined(0.2, 0.3, 0.5) < combined(0.1, 0.3, 0.5)
        assert combined(0.1, 0.4, 0.5) > combined(0.1, 0.3, 0.5)

    @given(st.permutations([0, 1, 3]))
    def test_gene_order_irrelevant(self, perm):
        snap = random_snapshot(11)
        ctx = CriteriaContext.build(snap, range(snap.n_learners), lam=0.7)
        assert fitness(ctx, perm) == fitness(ctx, [0, 1, 3])

    def test_learner_relabeling_invariance(self):
        snap = random_snapshot(5)
        rng = np.random.default_rng(0)
        perm = rng.permutation(snap.n_learners)
        relabeled = Snapshot(
            snap.values[:, perm],
            snap.question_ids,
            tuple(snap.learner_ids[i] for i in perm),
        )
        a = fitness(CriteriaContext.build(snap, range(snap.n_learners), lam=0.4), [2, 5, 7])
        b = fitness(
            CriteriaContext.build(relabeled, range(snap.n_learners), lam=0.4), [2, 5, 7]
        )
        assert a.rmse == pytest.approx(b.rmse, abs=1e-12)
        assert a.std == pytest.approx(b.std, abs=1e-12)
        assert a.fitness == pytest.approx(b.fitness, abs=1e-12)

    @given(st.floats(min_value=-0.2, max_value=0.2))
    @settings(max_examples=25)
    def test_constant_shift_invariance(self, shift):
        # deviation statistics ignore a constant added to every entry
        rng = np.random.default_rng(42)
        base = rng.uniform(0.2, 0.8, size=(8, 15))
        snap_a = Snapshot(base, tuple("q%d" % i for i in range(8)), tuple("l%d" % j for j in range(15)))
        snap_b = Snapshot(base + shift, snap_a.question_ids, snap_a.learner_ids)
        ctx_a = CriteriaContext.build(snap_a, range(15))
        ctx_b = CriteriaContext.build(snap_b, range(15))
        genes = [0, 3, 6]
        rmse_a, std_a = criteria_of(ctx_a, genes)
        rmse_b, std_b = criteria_of(ctx_b, genes)
        assert rmse_a == pytest.approx(rmse_b, abs=1e-12)
        assert std_a == pytest.approx(std_b, abs=1e-12)


class TestBatchCriteria:
    def test_matches_scalar_path(self, toy_ctx):
        subsets = list(itertools.combinations(range(4), 2))
        rmse, std = batch_criteria(toy_ctx, np.array(subsets))
        for i, genes in enumerate(subsets):
            report = fitness(toy_ctx, genes)
            assert rmse[i] == pytest.approx(report.rmse, abs=1e-14)
            assert std[i] == pytest.approx(report.std, abs=1e-14)

    def test_rejects_duplicate_genes_in_a_row(self, toy_ctx):
        with pytest.raises(ValueError, match="distinct"):
            batch_criteria(toy_ctx, np.array([[0, 1], [2, 2]]))

    def test_sorted_rows_used_as_they_are(self, toy_ctx):
        rows = np.array([[0, 1, 3], [1, 2, 3]])
        assert _sorted_rows(toy_ctx, rows) is rows
        unsorted = np.array([[0, 1, 3], [3, 1, 2]])
        got = _sorted_rows(toy_ctx, unsorted)
        assert got.tolist() == [[0, 1, 3], [1, 2, 3]]
        assert unsorted.tolist() == [[0, 1, 3], [3, 1, 2]]
        for scores, want in zip(batch_criteria(toy_ctx, unsorted), batch_criteria(toy_ctx, rows)):
            assert scores.tobytes() == want.tobytes()

    @pytest.mark.parametrize("genes", [[], 2, [[0, 1]]])
    def test_fitness_rejects_malformed_genes(self, toy_ctx, genes):
        with pytest.raises(ValueError, match="at least one question index"):
            fitness(toy_ctx, genes)

    @pytest.mark.parametrize("genes", [np.zeros((2, 0), dtype=int), np.array([0, 1])])
    def test_rejects_malformed_rows(self, toy_ctx, genes):
        with pytest.raises(ValueError, match="at least one question index"):
            batch_criteria(toy_ctx, genes)


def reference_criteria(values, learners, genes):
    """(rmse, std) from the definitions: per-learner subset means over the
    learner columns, their RMSE to the pool means and their population std."""
    cols = values[:, learners]
    means = cols[list(genes)].mean(axis=0)
    diff = means - cols.mean(axis=0)
    return float(np.sqrt(np.mean(diff * diff))), float(means.std())


class TestReferenceCriteria:
    """The kernel against plain numpy on random instances, for every K."""

    def instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            q = int(rng.integers(2, 16))
            n = int(rng.integers(2, 50))
            snap = random_snapshot(int(rng.integers(1 << 30)), q, n)
            learners = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
            yield rng, snap, learners

    def test_batch_criteria_matches_reference(self):
        for rng, snap, learners in self.instances():
            ctx = CriteriaContext.build(snap, learners)
            for k in range(1, snap.n_questions + 1):
                draws = sample_subsets(snap.n_questions, k, 8, rng)
                rmse, std = batch_criteria(ctx, draws)
                for i, genes in enumerate(draws):
                    ref_rmse, ref_std = reference_criteria(snap.values, learners, genes)
                    assert abs(rmse[i] - ref_rmse) <= 1e-12
                    assert abs(std[i] - ref_std) <= 1e-12

    def test_fitness_matches_reference(self):
        for rng, snap, learners in self.instances():
            ctx = CriteriaContext.build(snap, learners, lam=0.6)
            for k in range(1, snap.n_questions + 1):
                genes = rng.choice(snap.n_questions, size=k, replace=False)
                report = fitness(ctx, genes)
                ref_rmse, ref_std = reference_criteria(snap.values, learners, genes)
                assert abs(report.rmse - ref_rmse) <= 1e-12
                assert abs(report.std - ref_std) <= 1e-12
                assert abs(report.fitness - (-ref_rmse + 0.6 * ref_std)) <= 1e-12

    def test_full_pool_is_exactly_zero(self):
        for _, snap, learners in self.instances():
            ctx = CriteriaContext.build(snap, learners)
            everything = np.arange(snap.n_questions)
            rmse, _ = batch_criteria(ctx, everything[None, :])
            assert rmse[0] == 0.0
            assert criteria_of(ctx, everything[::-1])[0] == 0.0


def gather_criteria(ctx, idx):
    """(rmse, std) by the kernel's former summation: one (n, K, K) gather
    per statistic, summed by numpy."""
    rows, cols = idx[:, :, None], idx[:, None, :]
    k = idx.shape[1]
    rmse = np.sqrt(np.maximum(ctx.stats[..., 0][rows, cols].sum(axis=(1, 2)), 0.0)) / k
    std = np.sqrt(np.maximum(ctx.stats[..., 1][rows, cols].sum(axis=(1, 2)), 0.0)) / k
    return (np.zeros_like(rmse) if k == ctx.n_questions else rmse), std


class TestSummationOrder:
    def test_matches_gathered_sums(self):
        # the fold adds the same K^2 terms as the gather in another order
        rng = np.random.default_rng(13)
        for _ in range(20):
            q = int(rng.integers(2, 51))
            snap = random_snapshot(int(rng.integers(1 << 30)), q, int(rng.integers(2, 60)))
            ctx = CriteriaContext.build(snap, range(snap.n_learners))
            for k in range(1, min(q, 10) + 1):
                draws = np.sort(sample_subsets(q, k, 50, rng), axis=1)
                for ours, ref in zip(batch_criteria(ctx, draws), gather_criteria(ctx, draws)):
                    assert np.abs(ours - ref).max() <= 1e-12

    def test_batch_memory_is_linear_in_rows(self):
        # 10,000 rows of K = 10 over 50 questions: the former gather held a
        # 10,000 x 10 x 10 block per statistic, 8 MB each
        snap = random_snapshot(5, n_questions=50, n_learners=40)
        ctx = CriteriaContext.build(snap, range(40))
        draws = sample_subsets(50, 10, 10_000, np.random.default_rng(5))
        tracemalloc.start()
        try:
            batch_criteria(ctx, draws)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 2**20


def two_archetype_snapshot():
    """Every size-1 subset scores rmse 0.04 and std 0.2 by construction.

    Question offsets of +/-0.04 around two learner archetypes (0.6 and 0.2)
    cancel in the pool mean, so each singleton's rmse is its own |offset|
    while the archetype gap fixes the spread.
    """
    offsets = np.array([0.04, -0.04, 0.04, -0.04])
    values = np.stack([0.6 + offsets, 0.2 + offsets], axis=1)
    return Snapshot(
        values,
        tuple(f"q{i}" for i in range(4)),
        ("strong", "weak"),
    )


class TestSampleSubsets:
    @pytest.mark.parametrize("n_samples", [0, 1, 1023, 1024, 1025, 3000])
    def test_draws_of_one_block(self, n_samples):
        # Generator.random fills row by row, so drawing in row chunks gives
        # the subsets of one (n_samples, Q) block, and leaves the generator
        # where one block would.
        for q, k in ((50, 10), (7, 7), (5, 1)):
            rng, ref_rng = np.random.default_rng(n_samples), np.random.default_rng(n_samples)
            want = np.argsort(ref_rng.random((n_samples, q)), axis=1)[:, :k]
            got = sample_subsets(q, k, n_samples, rng)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert got.shape == (n_samples, k)
            assert rng.random() == ref_rng.random()

    def test_calibrate_memory(self):
        # 10,000 subsets of K = 10 out of 50: the draws, batch_criteria's
        # sorted copy of them and the fold's columns, 0.76 MiB each; the
        # former (10,000, 50) block of uniforms alone took 3.8 MiB.
        snap = random_snapshot(8, n_questions=50, n_learners=40)
        ctx = CriteriaContext.build(snap, range(40))
        tracemalloc.start()
        try:
            calibrate_lambda(ctx, k=10, n_samples=10_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 2**20

    def test_calibrate_scores_sorted_draws_in_place(self):
        # The draws are sorted in place and scored as they are: no sorted
        # copy, so the peak is the draws, the fold's columns and its sums
        # (1.55 MiB measured).
        snap = random_snapshot(8, n_questions=50, n_learners=40)
        ctx = CriteriaContext.build(snap, range(40))
        tracemalloc.start()
        try:
            calibrate_lambda(ctx, k=10, n_samples=10_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * 2**20


class TestCalibrateLambda:
    def test_constant_statistics_give_exact_ratio(self):
        snap = two_archetype_snapshot()
        ctx = CriteriaContext.build(snap, [0, 1])
        # oracle: enumerate all singletons, statistics are constant
        for q in range(4):
            rmse, std = criteria_of(ctx, [q])
            assert rmse == pytest.approx(0.04, abs=1e-12)
            assert std == pytest.approx(0.2, abs=1e-12)
        lam = calibrate_lambda(ctx, k=1, n_samples=500, seed=9)
        assert lam == pytest.approx(0.2, abs=1e-12)

    def test_constant_snapshot_rejected(self):
        snap = Snapshot(
            np.full((5, 4), 0.5),
            tuple(f"q{i}" for i in range(5)),
            tuple(f"l{j}" for j in range(4)),
        )
        ctx = CriteriaContext.build(snap, range(4))
        with pytest.raises(ValueError, match="no learner discrimination"):
            calibrate_lambda(ctx, k=2, n_samples=100, seed=0)

    def test_deterministic_in_seed(self):
        snap = random_snapshot(21)
        ctx = CriteriaContext.build(snap, range(snap.n_learners))
        a = calibrate_lambda(ctx, k=3, n_samples=300, seed=5)
        b = calibrate_lambda(ctx, k=3, n_samples=300, seed=5)
        assert a == b
        assert a != calibrate_lambda(ctx, k=3, n_samples=300, seed=6)

    def test_k_bounds(self):
        snap = random_snapshot(2)
        ctx = CriteriaContext.build(snap, range(snap.n_learners))
        with pytest.raises(ValueError):
            calibrate_lambda(ctx, k=0)
        with pytest.raises(ValueError):
            calibrate_lambda(ctx, k=snap.n_questions + 1)

    def test_random_subsets_average_near_zero(self):
        # with lam calibrated on the same snapshot, random subsets sit
        # around fitness zero: |mean| < 0.1 * lam * mean(std)
        for seed in (1, 2):
            snap = random_snapshot(seed, n_questions=15, n_learners=40)
            ctx = CriteriaContext.build(snap, range(40))
            lam = calibrate_lambda(ctx, k=4, n_samples=10_000, seed=seed)
            ctx = ctx.with_lambda(lam)
            draws = sample_subsets(15, 4, 1000, np.random.default_rng(seed + 100))
            rmse, std = batch_criteria(ctx, draws)
            fits = -rmse + lam * std
            bound = 0.1 * lam * std.mean()
            assert abs(fits.mean()) < bound
