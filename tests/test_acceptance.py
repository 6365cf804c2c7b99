"""End-to-end acceptance suite.

One test per acceptance criterion, each printing a PASS or FAIL line with
the measured quantities (run `pytest -s tests/test_acceptance.py` to see
them). Heavy artifacts (full-scale simulated worlds and their estimated
snapshots) are built once and shared across criteria.
"""

import json
import time
from pathlib import Path

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
    fit_abilities,
    fit_rasch,
    fitness,
    ga_search,
    greedy_search,
    mean_performance_correlation,
    mutate,
    random_search,
    rasch_snapshot,
    select,
    simulate,
    split_learners,
    sufficiency_curve,
)
from diaggen.cli import main
from diaggen.search import GaConfig

from conftest import random_snapshot


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {criterion}] {status}: {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# Shared full-scale pipelines: simulate -> split -> fit -> predicted snapshot
# ---------------------------------------------------------------------------

FULL_SCALE_SEEDS = (101, 102, 103, 104, 105)
_pipeline_cache: dict[int, tuple] = {}


def pipeline(world_seed: int):
    """(log, truth, predicted, split) for one 6000-learner world.

    Difficulties are fit on the training learners only; every learner is
    then scored with difficulties frozen, so held-out learners never move
    the question scale.
    """
    if world_seed not in _pipeline_cache:
        _, log, truth = simulate(SimConfig(num_learners=6000, seed=world_seed))
        ids = log.learner_ids
        split = split_learners(range(len(ids)), 0.8, seed=0)
        model = fit_rasch(log, fit_learners={ids[i] for i in split.train})
        predicted = rasch_snapshot(fit_abilities(model, log))
        _pipeline_cache[world_seed] = (log, truth, predicted, split)
    return _pipeline_cache[world_seed]


# ---------------------------------------------------------------------------
# Criterion 1: fitness-formula fidelity against published benchmark rows
# ---------------------------------------------------------------------------

# Reference results (rmse, std, fitness) for the random, greedy and genetic
# searches on seven datasets. The mixing weight is back-solved once per
# dataset from the random row; the fitness identity must then reproduce
# every printed fitness.
BENCHMARK_ROWS = {
    "assistment2009": {
        "random": (0.045140, 0.166305, -0.008470),
        "greedy": (0.011207, 0.168501, 0.025947),
        "ga": (0.004099, 0.170038, 0.033395),
    },
    "assistment2015": {
        "random": (0.057359, 0.109682, -0.011928),
        "greedy": (0.016169, 0.113232, 0.030731),
        "ga": (0.012176, 0.111334, 0.033938),
    },
    "aihubmath_grade7": {
        "random": (0.031128, 0.222232, 0.010518),
        "greedy": (0.007564, 0.223940, 0.034401),
        "ga": (0.005142, 0.223840, 0.036804),
    },
    "aihubmath_grade8": {
        "random": (0.039918, 0.227920, -0.002972),
        "greedy": (0.005828, 0.231175, 0.031644),
        "ga": (0.004745, 0.230005, 0.032538),
    },
    "aihubmath_grade9": {
        "random": (0.039199, 0.248258, -0.003648),
        "greedy": (0.005909, 0.243549, 0.028966),
        "ga": (0.004623, 0.242634, 0.030122),
    },
    "simulated5": {
        "random": (0.042539, 0.058993, -0.008347),
        "greedy": (0.013894, 0.070500, 0.026967),
        "ga": (0.010530, 0.066921, 0.028258),
    },
    "ednet": {
        "random": (0.027165, 0.151822, 0.008573),
        "greedy": (0.004267, 0.146537, 0.030227),
        "ga": (0.003801, 0.146481, 0.030680),
    },
}


def test_criterion_1_fitness_formula_fidelity():
    start = time.time()
    worst = 0.0
    rows_checked = 0
    lambdas = {}
    for dataset, rows in BENCHMARK_ROWS.items():
        rmse_r, std_r, fit_r = rows["random"]
        lam = (fit_r + rmse_r) / std_r
        lambdas[dataset] = lam
        for rmse, std, fit in rows.values():
            reproduced = combined(rmse, std, lam)
            worst = max(worst, abs(reproduced - fit))
            rows_checked += 1
    elapsed = time.time() - start
    ok = rows_checked == 21 and worst < 5e-4 and elapsed < 1.0
    report(
        1,
        ok,
        f"21 benchmark rows recomposed, max |error| {worst:.2e} < 5e-4, "
        f"assistment2009 lambda {lambdas['assistment2009']:.4f}, {elapsed:.2f}s",
    )


def test_criterion_1_single_lambda_per_dataset():
    # the same back-solved weight fits all three rows of each dataset
    for dataset, rows in BENCHMARK_ROWS.items():
        lams = [(fit + rmse) / std for rmse, std, fit in rows.values()]
        assert max(lams) - min(lams) < 5e-3, dataset


# ---------------------------------------------------------------------------
# Criterion 2: search-vs-oracle equivalence on small pools
# ---------------------------------------------------------------------------

def test_criterion_2_oracle_equivalence():
    start = time.time()
    ga_hits = 0
    greedy_hits = 0
    for seed in range(1000, 1010):
        snap = random_snapshot(seed, n_questions=12, n_learners=30)
        ctx = CriteriaContext.build(snap, range(30))
        lam = calibrate_lambda(ctx, k=3, n_samples=10_000, seed=seed)
        ctx = ctx.with_lambda(lam)
        oracle = brute_force(ctx, 3)
        optimum = oracle.report.fitness
        random_mean = oracle.history[0].mean  # exact mean over all subsets
        ga = ga_search(
            ctx,
            GaConfig(k=3, population_size=200, generations=50, seed=seed),
        )
        greedy = greedy_search(ctx, 3)
        ga_hits += abs(ga.report.fitness - optimum) <= 1e-9
        gap = optimum - random_mean
        greedy_hits += greedy.report.fitness - random_mean >= 0.95 * gap
    elapsed = time.time() - start
    ok = ga_hits >= 9 and greedy_hits >= 8 and elapsed < 30.0
    report(
        2,
        ok,
        f"GA optimum hits {ga_hits}/10 (need >= 9), greedy 95%-gap hits "
        f"{greedy_hits}/10 (need >= 8), {elapsed:.1f}s < 30s",
    )


# ---------------------------------------------------------------------------
# Criterion 3: algorithm ordering at full scale
# ---------------------------------------------------------------------------

def test_criterion_3_algorithm_ordering():
    start = time.time()
    lines = []
    all_ok = True
    for world_seed in FULL_SCALE_SEEDS:
        _, _, predicted, split = pipeline(world_seed)
        train_ctx = CriteriaContext.build(predicted, split.train)
        lam = calibrate_lambda(train_ctx, k=10, n_samples=10_000, seed=1)
        train_ctx = train_ctx.with_lambda(lam)
        test_ctx = CriteriaContext.build(predicted, split.test, lam=lam)

        ga_fits = []
        random_fits = []
        for repeat in range(10):
            ga = ga_search(
                train_ctx,
                GaConfig(
                    k=10,
                    population_size=1000,
                    generations=5,
                    p_c=0.75,
                    p_m1=0.5,
                    p_m2=0.25,
                    seed=repeat,
                ),
            )
            ga_fits.append(fitness(test_ctx, ga.best).fitness)
            rnd = random_search(train_ctx, 10, seed=100 + repeat)
            random_fits.append(fitness(test_ctx, rnd.best).fitness)
        # greedy is deterministic, so one run equals the 10-repeat mean
        greedy = greedy_search(train_ctx, 10)
        greedy_fit = fitness(test_ctx, greedy.best).fitness

        ga_mean = float(np.mean(ga_fits))
        random_mean = float(np.mean(random_fits))
        snapshot_ok = ga_mean > greedy_fit > random_mean and ga_mean > 0
        all_ok = all_ok and snapshot_ok
        lines.append(
            f"seed {world_seed}: GA {ga_mean:.6f} > greedy {greedy_fit:.6f} "
            f"> random {random_mean:.6f} [{'ok' if snapshot_ok else 'VIOLATED'}]"
        )
    elapsed = time.time() - start
    ok = all_ok and elapsed < 600.0
    report(3, ok, f"{'; '.join(lines)}; {elapsed:.0f}s < 600s")


# ---------------------------------------------------------------------------
# Criterion 4: simulator correctness
# ---------------------------------------------------------------------------

def test_criterion_4_simulator_correctness():
    from diaggen import solve_probability

    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        alpha = float(rng.normal(0, 2))
        beta = float(rng.normal(0, 2))
        c = float(rng.uniform(0.0, 0.95))
        oracle = float(
            mp.mpf(c) + (1 - mp.mpf(c)) / (1 + mp.e ** (mp.mpf(alpha) - mp.mpf(beta)))
        )
        worst = max(worst, abs(float(solve_probability(alpha, beta, c)) - oracle))
    formula_ok = worst < 1e-12

    cfg = SimConfig(num_learners=100_000, num_questions=1, num_concepts=1, seed=13)
    world, mc_log, _ = simulate(cfg)
    analytic = float(
        np.mean(
            solve_probability(
                world.question_difficulty[0], world.learner_skill[:, 0], cfg.slip
            )
        )
    )
    empirical = float(np.mean(mc_log.correct))
    mc_error = abs(empirical - analytic)
    mc_ok = mc_error < 0.01

    full_log = pipeline(FULL_SCALE_SEEDS[0])[0]
    per_learner = np.bincount(full_log.learner)
    scale_ok = (
        len(full_log) == 300_000
        and len(full_log.learner_ids) == len(per_learner) == 6000
        and set(per_learner.tolist()) == {50}
    )

    ok = formula_ok and mc_ok and scale_ok
    report(
        4,
        ok,
        f"formula max |error| {worst:.2e} < 1e-12 over 1000 triples; "
        f"Monte-Carlo |{empirical:.5f} - {analytic:.5f}| = {mc_error:.5f} < 0.01 "
        f"at 1e5 samples; scale 6000x50 -> {len(full_log)} interactions",
    )


# ---------------------------------------------------------------------------
# Criterion 5: estimated-snapshot quality bar
# ---------------------------------------------------------------------------

def test_criterion_5_snapshot_quality():
    start = time.time()
    _, truth, predicted, _ = pipeline(FULL_SCALE_SEEDS[0])
    pearson, spearman = mean_performance_correlation(predicted, truth)
    elapsed = time.time() - start
    ok = pearson >= 0.7 and elapsed < 120.0
    report(
        5,
        ok,
        f"predicted-vs-true per-learner means: Pearson {pearson:.4f} >= 0.7 "
        f"(Spearman {spearman:.4f}), {elapsed:.1f}s < 120s",
    )


# ---------------------------------------------------------------------------
# Criterion 6: invariant suites
# ---------------------------------------------------------------------------

def _operator_sweep(n_applications: int) -> int:
    """Apply crossover and mutation to random parent arrays; every
    offspring row counts as one application."""
    rng = np.random.default_rng(314)
    checked = 0
    while checked < n_applications:
        nq = int(rng.integers(4, 30))
        k = int(rng.integers(2, nq + 1))
        n = int(rng.integers(1, 9))
        a = np.array([rng.choice(nq, size=k, replace=False) for _ in range(n)])
        b = np.array([rng.choice(nq, size=k, replace=False) for _ in range(n)])
        c1, c2 = crossover(a, b, float(rng.random()), nq, rng)
        m1 = mutate(c1, float(rng.random()), float(rng.random()), nq, rng)
        m2 = mutate(c2, float(rng.random()), float(rng.random()), nq, rng)
        for pop in (c1, c2, m1, m2):
            assert pop.shape == (n, k)
            assert all(len(set(row)) == k for row in pop.tolist())
            assert pop.min() >= 0 and pop.max() < nq
            checked += n
        pop = np.concatenate([a, b, c1, c2])
        cfg = GaConfig(k=k, population_size=len(pop), tournament_fraction=0.5)
        for winner in select(pop, rng.random(len(pop)), cfg, rng).tolist():
            assert len(set(winner)) == k and winner in pop.tolist()
    return checked


def _toy_context():
    values = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [0.9, 0.1]])
    snap = Snapshot(values, ("a", "b", "c", "d"), ("x", "y"))
    return CriteriaContext.build(snap, [0, 1], lam=0.5)


def _byte_determinism_check(tmp_path: Path) -> bool:
    import contextlib
    import io

    def run_pipeline(root: Path) -> list[Path]:
        root.mkdir()
        inter = root / "interactions.csv"
        truth = root / "truth.csv"
        est = root / "estimated.csv"
        res = root / "result.json"
        curve = root / "curve.csv"
        assert main([
            "simulate", "--learners", "120", "--questions", "15", "--seed", "7",
            "--interactions-out", str(inter), "--snapshot-out", str(truth),
        ]) == 0
        assert main([
            "estimate", "--interactions", str(inter), "--estimator", "rasch",
            "--out", str(est),
        ]) == 0
        assert main([
            "search", "--snapshot", str(est), "--algo", "ga", "--k", "4",
            "--samples", "500", "--population", "40", "--generations", "5",
            "--seed", "3", "--out", str(res),
        ]) == 0
        assert main([
            "sufficiency", "--snapshot", str(est), "--step", "10",
            "--out", str(curve),
        ]) == 0
        return [inter, truth, est, res, curve]

    with contextlib.redirect_stdout(io.StringIO()):
        first = run_pipeline(tmp_path / "run_a")
        second = run_pipeline(tmp_path / "run_b")
    for fa, fb in zip(first, second):
        lines_a = [l for l in fa.read_bytes().splitlines() if b"created_at" not in l]
        lines_b = [l for l in fb.read_bytes().splitlines() if b"created_at" not in l]
        if lines_a != lines_b:
            return False
    return True


def test_criterion_6_invariant_suites(tmp_path):
    checked = _operator_sweep(10_000)

    ctx = _toy_context()
    zero_ok = fitness(ctx, [0, 1, 2, 3]).rmse == 0.0

    perm_ok = fitness(ctx, [3, 1]) == fitness(ctx, [1, 3])

    hand_ok = (
        abs(fitness(ctx, [1, 3]).rmse - 0.1) < 1e-12
        and abs(fitness(ctx, [0, 3]).rmse - 0.35) < 1e-12
        and abs(fitness(ctx, [1, 3]).std - 0.2) < 1e-12
        and abs(fitness(ctx, [0, 3]).std - 0.45) < 1e-12
        and abs(fitness(ctx, [1, 3]).fitness - 0.0) < 1e-12
        and abs(fitness(ctx, [0, 3]).fitness - (-0.125)) < 1e-12
    )

    greedy_budget_ok = True
    for seed in range(3):
        snap = random_snapshot(seed + 500, n_questions=18, n_learners=25)
        gctx = CriteriaContext.build(snap, range(25), lam=0.3)
        result = greedy_search(gctx, 6)
        greedy_budget_ok = greedy_budget_ok and result.evaluations <= 6 * 18

    bytes_ok = _byte_determinism_check(tmp_path)

    ok = checked >= 10_000 and zero_ok and perm_ok and hand_ok and greedy_budget_ok and bytes_ok
    report(
        6,
        ok,
        f"{checked} operator applications kept K distinct genes; "
        f"zero self-discrepancy {zero_ok}; permutation invariance {perm_ok}; "
        f"hand examples {hand_ok}; greedy budget {greedy_budget_ok}; "
        f"pipeline byte-determinism {bytes_ok}",
    )


# ---------------------------------------------------------------------------
# Criterion 7: sufficiency-curve trend
# ---------------------------------------------------------------------------

def test_criterion_7_sufficiency_trend():
    _, truth, _, _ = pipeline(FULL_SCALE_SEEDS[0])
    curve = sufficiency_curve(truth, step=100, epsilon=1e-3, window=3, seed=0)
    deltas = np.asarray(curve.deltas)
    late_mean = float(deltas[-10:].mean())
    first = float(deltas[0])
    ok = late_mean < first and curve.chosen_n is not None
    report(
        7,
        ok,
        f"mean of last 10 deltas {late_mean:.6f} < first delta {first:.6f}; "
        f"chosen_n = {curve.chosen_n} at epsilon 1e-3",
    )
