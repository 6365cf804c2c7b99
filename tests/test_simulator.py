import hashlib
import tracemalloc

import numpy as np
import pytest

from diaggen import InteractionLog, SimConfig, simulate, solve_probability
from diaggen.cli import main
from diaggen.simulator import _learner_uniforms


def numpy_uniforms(seed, n, q):
    """Each learner's uniforms from numpy's own child stream."""
    children = np.random.SeedSequence(seed).spawn(n + 1)[1:]
    return np.stack([np.random.default_rng(child).random(q) for child in children])


def reference_simulate(cfg):
    """``simulate`` with one generator per learner."""
    streams = np.random.SeedSequence(cfg.seed).spawn(cfg.num_learners + 1)
    world_rng = np.random.default_rng(streams[0])
    concepts = world_rng.integers(0, cfg.num_concepts, size=cfg.num_questions)
    difficulty = world_rng.standard_normal(cfg.num_questions)
    growth = cfg.growth_mean + cfg.growth_std * world_rng.standard_normal(cfg.num_questions)
    skills = world_rng.standard_normal((cfg.num_learners, cfg.num_concepts))
    draws = np.stack(
        [np.random.default_rng(stream).random(cfg.num_questions) for stream in streams[1:]]
    )
    final_skills = skills.copy()
    correct = np.empty((cfg.num_learners, cfg.num_questions), dtype=bool)
    for q in range(cfg.num_questions):
        concept = concepts[q]
        p = solve_probability(difficulty[q], final_skills[:, concept], cfg.slip)
        correct[:, q] = draws[:, q] < p
        final_skills[correct[:, q], concept] += growth[q]
    questions = np.arange(cfg.num_questions)
    log = InteractionLog(
        learner_ids=tuple(f"l{j}" for j in range(cfg.num_learners)),
        question_ids=tuple(f"q{q}" for q in questions),
        learner=np.repeat(np.arange(cfg.num_learners), cfg.num_questions),
        question=np.tile(questions, cfg.num_learners),
        correct=correct.ravel(),
        order=np.tile(questions, cfg.num_learners),
    )
    values = solve_probability(difficulty[:, None], final_skills[:, concepts].T, cfg.slip)
    return (concepts, difficulty, growth, skills), log, values


class TestLearnerUniforms:
    @pytest.mark.parametrize(
        "seed", [0, 1, 7, 101, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 3]
    )
    def test_equal_numpy_child_streams(self, seed):
        # 2**128 + 3 has five entropy words, one past SeedSequence's pool.
        for n in (1, 2, 1000):
            for q in (1, 50):
                got, want = _learner_uniforms(seed, n, q), numpy_uniforms(seed, n, q)
                assert got.shape == (n, q) and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    def test_bad_seed_fails_as_numpy_does(self):
        with pytest.raises(ValueError):
            simulate(SimConfig(num_learners=3, seed=-1))


class TestSolveProbability:
    def test_logistic_symmetry(self):
        assert solve_probability(1.3, 1.3, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_guessing_floor(self):
        assert solve_probability(0.7, 0.7, 0.25) == pytest.approx(0.625, abs=1e-15)

    def test_numeric_example(self):
        # 0.25 + 0.75 / (1 + e^2), high-precision value from mpmath
        assert solve_probability(2.0, 0.0, 0.25) == pytest.approx(
            0.33940219151658816, abs=1e-12
        )

    def test_against_high_precision_oracle(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        rng = np.random.default_rng(0)
        for _ in range(200):
            alpha = float(rng.normal())
            beta = float(rng.normal())
            c = float(rng.uniform(0.0, 0.9))
            want = float(
                mp.mpf(c) + (1 - mp.mpf(c)) / (1 + mp.e ** (mp.mpf(alpha) - mp.mpf(beta)))
            )
            assert solve_probability(alpha, beta, c) == pytest.approx(want, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(1)
        alpha = rng.normal(size=1000)
        beta = rng.normal(size=1000)
        p = solve_probability(alpha, beta, 0.25)
        assert np.all(p >= 0.25) and np.all(p < 1.0)


class TestSimulate:
    def test_record_layout(self):
        cfg = SimConfig(num_learners=7, num_questions=12, num_concepts=3, seed=5)
        _, log, snapshot = simulate(cfg)
        assert len(log) == 7 * 12
        question_ids = np.asarray(log.question_ids)[log.question]
        assert question_ids.tolist() == [f"q{o}" for o in log.order]
        for j in range(7):
            assert log.order[log.learner == j].tolist() == list(range(12))
        assert log.learner_ids == tuple(f"l{j}" for j in range(7))
        assert snapshot.n_questions == 12 and snapshot.n_learners == 7

    def test_deterministic(self):
        cfg = SimConfig(num_learners=10, seed=3)
        w1, l1, s1 = simulate(cfg)
        w2, l2, s2 = simulate(cfg)
        assert l1 == l2
        np.testing.assert_array_equal(s1.values, s2.values)
        np.testing.assert_array_equal(w1.learner_skill, w2.learner_skill)

    def test_seed_changes_log(self):
        _, l1, _ = simulate(SimConfig(num_learners=10, seed=3))
        _, l2, _ = simulate(SimConfig(num_learners=10, seed=4))
        assert l1 != l2

    def test_forced_success_when_floor_near_one(self):
        cfg = SimConfig(num_learners=5, num_questions=20, slip=1.0 - 1e-12, seed=0)
        world, log, snapshot = simulate(cfg)
        assert log.correct.all()
        # every concept skill ends at initial plus the summed growth of
        # its questions, visible through the snapshot values
        for j in range(5):
            final = world.learner_skill[j].copy()
            for q in range(20):
                final[world.question_concept[q]] += world.question_growth[q]
            expect = solve_probability(
                world.question_difficulty,
                final[world.question_concept],
                cfg.slip,
            )
            np.testing.assert_allclose(snapshot.values[:, j], expect, atol=1e-12)

    def test_no_growth_snapshot_is_static(self):
        cfg = SimConfig(
            num_learners=6, num_questions=10, growth_mean=0.0, growth_std=0.0, seed=2
        )
        world, _, snapshot = simulate(cfg)
        static = solve_probability(
            world.question_difficulty[:, None],
            world.learner_skill[:, world.question_concept].T,
            cfg.slip,
        )
        np.testing.assert_array_equal(snapshot.values, static)

    def test_growth_never_decreases_success_probability(self):
        cfg = SimConfig(num_learners=20, num_questions=30, growth_std=0.0, seed=8)
        world, _, snapshot = simulate(cfg)
        static = solve_probability(
            world.question_difficulty[:, None],
            world.learner_skill[:, world.question_concept].T,
            cfg.slip,
        )
        assert np.all(snapshot.values >= static - 1e-12)

    def test_snapshot_range(self):
        cfg = SimConfig(num_learners=50, seed=11)
        _, _, snapshot = simulate(cfg)
        assert snapshot.values.min() >= cfg.slip
        assert snapshot.values.max() < 1.0

    def test_empirical_rate_matches_model(self):
        # one-question world: the response uses the initial skill, so the
        # empirical rate converges on the mean model probability
        cfg = SimConfig(
            num_learners=10_000, num_questions=1, num_concepts=1, seed=13
        )
        world, log, _ = simulate(cfg)
        p = solve_probability(
            world.question_difficulty[0], world.learner_skill[:, 0], cfg.slip
        )
        rate = np.mean(log.correct)
        assert rate == pytest.approx(float(p.mean()), abs=0.02)

    def test_scale(self):
        cfg = SimConfig(num_learners=100, num_questions=50, seed=1)
        _, log, _ = simulate(cfg)
        assert len(log) == 5000

    def test_golden_output_files(self, tmp_path, capsys):
        """The CLI's simulate output is pinned byte for byte."""
        inter, truth = tmp_path / "interactions.csv", tmp_path / "truth.csv"
        assert main([
            "simulate", "--learners", "50", "--questions", "12", "--concepts", "3",
            "--seed", "7", "--interactions-out", str(inter), "--snapshot-out", str(truth),
        ]) == 0
        assert hashlib.sha256(inter.read_bytes()).hexdigest() == (
            "71b5a74bb3da71b91b383ddf33d2e86be7822e179a6249bb02cdb8a0940ee020"
        )
        assert hashlib.sha256(truth.read_bytes()).hexdigest() == (
            "d9c0b927bbe400bb724acc5d4396e23047433882e8994e5e63492befcbfa5749"
        )


class TestSimulateMatchesPerLearnerStreams:
    @pytest.mark.parametrize(
        "cfg",
        [
            SimConfig(num_learners=300, num_concepts=3, seed=7),
            SimConfig(num_learners=300, num_concepts=8, seed=101),
            SimConfig(num_learners=200, growth_mean=0.0, growth_std=0.0, seed=2**64 + 1),
            SimConfig(num_learners=1, num_questions=12, seed=0),
        ],
    )
    def test_world_log_and_snapshot(self, cfg):
        world, log, snapshot = simulate(cfg)
        (concepts, difficulty, growth, skills), want_log, values = reference_simulate(cfg)
        for got, want in (
            (world.question_concept, concepts),
            (world.question_difficulty, difficulty),
            (world.question_growth, growth),
            (world.learner_skill, skills),
            (snapshot.values, values),
        ):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert log == want_log
        for name in ("learner", "question", "correct", "order"):
            assert getattr(log, name).dtype == getattr(want_log, name).dtype
            assert not getattr(log, name).flags.writeable

    def test_memory(self):
        # The world of the benchmark: the former simulate peaked at 27.7 MiB.
        cfg = SimConfig(num_learners=6000, num_questions=50, seed=101)
        tracemalloc.start()
        try:
            simulate(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 27.7 * 2**20


class TestSimConfigValidation:
    def test_bad_slip(self):
        with pytest.raises(ValueError, match="slip"):
            SimConfig(num_learners=5, slip=1.0)

    def test_concepts_exceed_questions(self):
        with pytest.raises(ValueError, match="num_questions"):
            SimConfig(num_learners=5, num_questions=3, num_concepts=4)

    def test_negative_growth_std(self):
        with pytest.raises(ValueError, match="growth_std"):
            SimConfig(num_learners=5, growth_std=-0.1)
