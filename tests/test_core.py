import numpy as np
import pytest

from diaggen import (
    InteractionLog,
    Snapshot,
    split_learners,
)
from diaggen.core import LearnerSplit, build_pool


def make_log(triples):
    return InteractionLog.from_records((l, q, bool(c), o) for (l, q, c, o) in triples)


class TestBuildPool:
    def test_first_appearance_order(self):
        log = make_log(
            [("l1", "b", 1, 0), ("l2", "a", 0, 0), ("l1", "b", 1, 1)]
        )
        questions, learners = build_pool(log)
        assert questions == {"b": 0, "a": 1}
        assert learners == {"l1": 0, "l2": 1}

    def test_single_record(self):
        questions, learners = build_pool(make_log([("l0", "q0", 1, 0)]))
        assert len(questions) == 1 and len(learners) == 1

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError, match="empty interaction log"):
            build_pool(make_log([]))

    def test_idempotent(self):
        log = make_log([("l1", "b", 1, 0), ("l2", "a", 0, 0), ("l3", "c", 1, 0)])
        assert build_pool(log) == build_pool(log)


class TestInteractionLog:
    def test_non_monotone_order_names_learner(self):
        with pytest.raises(ValueError, match="l7"):
            make_log([("l7", "a", 1, 3), ("l7", "b", 1, 3)])

    def test_interleaved_learners_ok(self):
        log = make_log(
            [("l1", "a", 1, 0), ("l2", "a", 0, 0), ("l1", "b", 1, 1), ("l2", "b", 1, 1)]
        )
        assert len(log) == 4

    def test_restrict_learners(self):
        log = make_log([("l1", "a", 1, 0), ("l2", "a", 0, 0), ("l1", "b", 1, 1)])
        sub = log.restrict_learners([0])
        assert [sub.learner_ids[i] for i in sub.learner] == ["l1", "l1"]

    def test_restrict_learners_renumbers_by_first_appearance(self):
        log = make_log(
            [("l1", "a", 1, 0), ("l2", "b", 0, 0), ("l2", "c", 1, 1), ("l3", "a", 0, 0)]
        )
        sub = log.restrict_learners([1, 2])
        assert sub == make_log([("l2", "b", 0, 0), ("l2", "c", 1, 1), ("l3", "a", 0, 0)])
        assert sub.question_ids == ("b", "c", "a")
        assert sub.learner.tolist() == [0, 0, 1]

    @pytest.mark.parametrize(
        "kept", [[1], [2, 4], [0, 3], [0, 2, 4], [], [4, 0], range(5)]
    )
    def test_restrict_learners_equals_filtered_records(self, kept):
        # Learner lN is at index N. "c" first appears in l0's record and "a"
        # in l1's; l0 and l2 need not be kept together, so the kept learners
        # are not contiguous.
        records = [
            ("l0", "c", 1, 0), ("l1", "a", 0, 0), ("l2", "b", 1, 5), ("l0", "a", 0, 1),
            ("l3", "c", 1, 2), ("l2", "c", 0, 6), ("l4", "a", 1, 0), ("l1", "b", 1, 3),
            ("l4", "d", 0, 1), ("l3", "b", 1, 3),
        ]
        sub = make_log(records).restrict_learners(kept)
        assert sub == make_log([r for r in records if int(r[0][1:]) in kept])
        for name in ("learner", "question", "correct", "order"):
            assert not getattr(sub, name).flags.writeable

    def test_columns_frozen(self):
        log = make_log([("l1", "a", 1, 0)])
        with pytest.raises(ValueError):
            log.order[0] = 5

    def test_constructor_copies_caller_columns(self):
        columns = (np.array([0, 0]), np.array([0, 1]), np.array([True, False]), np.array([3, 4]))
        log = InteractionLog(("l0",), ("a", "b"), *columns)
        for name, column in zip(("learner", "question", "correct", "order"), columns):
            assert column.flags.writeable
            assert not np.shares_memory(getattr(log, name), column)
            assert not getattr(log, name).flags.writeable

    def test_builders_hand_over_fresh_columns(self):
        columns = (
            np.array([0, 0], dtype=np.intp),
            np.array([0, 1], dtype=np.intp),
            np.array([True, False]),
            np.array([3, 4], dtype=np.int64),
        )
        log = InteractionLog._own(("l0",), ("a", "b"), *columns)
        assert log == InteractionLog(("l0",), ("a", "b"), *columns)
        for name, column in zip(("learner", "question", "correct", "order"), columns):
            assert getattr(log, name) is column
            assert not column.flags.writeable

    def test_handed_over_columns_are_checked(self):
        with pytest.raises(ValueError, match="not strictly increasing"):
            InteractionLog._own(
                ("l0",), ("a",), np.zeros(2, np.intp), np.zeros(2, np.intp),
                np.ones(2, bool), np.zeros(2, np.int64),
            )

    @pytest.mark.parametrize(
        "learner, question, message",
        [
            ([0, 0], [0], "equal length"),
            ([0, 1], [0, 1], "learner index out of range"),
            ([0, 0], [1, 0], "question ids must each appear"),
        ],
    )
    def test_constructor_checks(self, learner, question, message):
        n = len(learner)
        with pytest.raises(ValueError, match=message):
            InteractionLog(("l0",), ("a", "b"), learner, question, [True] * n, list(range(n)))

    @pytest.mark.parametrize(
        "column, values, message",
        [
            # Each was once truncated, coerced or parsed instead of rejected.
            ("learner", [0.9], "learner indices must be integers"),
            ("question", [0.5], "question indices must be integers"),
            ("order", [2.7], "order must be an integer"),
            ("correct", [2], "correct must be 0 or 1"),
            ("correct", [0.5], "correct must be 0 or 1"),
            ("correct", ["0"], "correct must be 0 or 1"),
            ("correct", [float("nan")], "correct must be 0 or 1"),
            ("learner", ["0"], "learner indices must be integers"),
            ("order", ["7"], "order must be an integer"),
            ("order", [2**64], r"order must be below 2\*\*63"),
            ("order", np.array([1e30]), "order must be an integer"),
            ("learner", [True], "learner indices must be integers"),
            ("correct", np.array([2]), "correct must be 0 or 1"),
            ("correct", np.array([1.0]), "correct must be 0 or 1"),
        ],
    )
    def test_constructor_checks_column_values(self, column, values, message):
        columns = {"learner": [0], "question": [0], "correct": [True], "order": [0]}
        with pytest.raises(ValueError, match=f"^{message}$"):
            InteractionLog(("l0",), ("a",), **(columns | {column: values}))

    @pytest.mark.parametrize(
        "correct", [[1, 0], [True, False], [np.int8(1), np.False_], np.array([1, 0], np.uint8)]
    )
    def test_correct_takes_bools_and_integer_flags(self, correct):
        log = InteractionLog(("l0",), ("a",), [0, 0], [0, 0], correct, [0, 1])
        assert log.correct.dtype == bool and log.correct.tolist() == [True, False]


class TestSnapshot:
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            Snapshot(np.array([[0.5, np.nan]]), ("q0",), ("l0", "l1"))

    @pytest.mark.parametrize(
        "values",
        [
            np.array([["0.5"]]),
            [["0.5"]],
            np.array([[b"0.5"]]),
            np.array([[None]]),
            [[None]],
            np.array([[0.5]], dtype=object),
        ],
    )
    def test_rejects_strings_and_objects(self, values):
        with pytest.raises(ValueError, match="^snapshot values must be numbers, got dtype "):
            Snapshot(values, ("q0",), ("l0",))
        with pytest.raises(ValueError, match="^snapshot values must be numbers, got dtype "):
            Snapshot._own(np.asarray(values), ("q0",), ("l0",))

    @pytest.mark.parametrize(
        "values",
        [[[1]], np.array([[True]]), np.array([[1]], dtype=np.uint8), np.array([[0.5]], np.float16)],
    )
    def test_numeric_values_are_cast(self, values):
        snap = Snapshot(values, ("q0",), ("l0",))
        assert snap.values.dtype == np.float64
        assert snap.values.tobytes() == np.asarray(values, dtype=np.float64).tobytes()

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Snapshot(np.array([[1.2]]), ("q0",), ("l0",))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            Snapshot(np.array([[-0.1]]), ("q0",), ("l0",))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="row count"):
            Snapshot(np.full((2, 2), 0.5), ("q0",), ("l0", "l1"))
        with pytest.raises(ValueError, match="column count"):
            Snapshot(np.full((1, 2), 0.5), ("q0",), ("l0",))

    @pytest.mark.parametrize(
        "questions, learners, message",
        [
            (("q0", "q0"), ("l0",), "duplicate question ids"),
            (("q0",), ("l0", "l1", "l0"), "duplicate learner ids"),
        ],
    )
    def test_rejects_duplicate_ids(self, questions, learners, message):
        with pytest.raises(ValueError, match=message):
            Snapshot(np.full((len(questions), len(learners)), 0.5), questions, learners)

    @pytest.mark.parametrize(
        "questions, learners, message",
        [
            (("q0", "q\0"), ("l0",), "^question ids must not hold NUL$"),
            (("q0",), ("\0", "l1"), "^learner ids must not hold NUL$"),
        ],
    )
    def test_rejects_nul_in_ids(self, questions, learners, message):
        with pytest.raises(ValueError, match=message):
            Snapshot(np.full((len(questions), len(learners)), 0.5), questions, learners)

    def test_values_frozen(self):
        snap = Snapshot(np.full((1, 1), 0.5), ("q0",), ("l0",))
        with pytest.raises(ValueError):
            snap.values[0, 0] = 0.9

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_constructor_copies_caller_values(self, order):
        values = np.asarray(np.arange(6.0).reshape(2, 3) / 8, order=order)
        snap = Snapshot(values, ("q0", "q1"), ("l0", "l1", "l2"))
        assert not np.shares_memory(snap.values, values) and values.flags.writeable
        assert snap.values.flags.c_contiguous and np.array_equal(snap.values, values)

    def test_builders_hand_over_fresh_values(self):
        values = np.full((2, 3), 0.25)
        snap = Snapshot._own(values, ["q0", "q1"], ["l0", "l1", "l2"])
        assert snap.values is values and not values.flags.writeable
        assert snap.question_ids == ("q0", "q1") and snap.learner_ids == ("l0", "l1", "l2")
        # Another dtype or memory order is converted, as the constructor does.
        for other in (np.ones((2, 3), dtype=np.float32), np.full((3, 2), 0.5).T):
            owned = Snapshot._own(other, ("q0", "q1"), ("l0", "l1", "l2"))
            assert owned.values.dtype == np.float64 and owned.values.flags.c_contiguous
            assert owned.values.tobytes() == np.ascontiguousarray(other, np.float64).tobytes()

    @pytest.mark.parametrize(
        "values, questions, learners, message",
        [
            (np.array([[0.5, np.nan]]), ("q0",), ("l0", "l1"), "NaN"),
            (np.array([[1.2]]), ("q0",), ("l0",), r"\[0, 1\]"),
            (np.full(2, 0.5), ("q0",), ("l0", "l1"), "2-D"),
            (np.full((2, 2), 0.5), ("q0",), ("l0", "l1"), "row count"),
            (np.full((1, 2), 0.5), ("q0",), ("l0",), "column count"),
            (np.full((1, 2), 0.5), ("q0",), ("l0", "l0"), "duplicate learner ids"),
        ],
    )
    def test_handed_over_values_are_checked(self, values, questions, learners, message):
        with pytest.raises(ValueError, match=message):
            Snapshot._own(values, questions, learners)

    def test_equal_values_and_ids_compare_equal(self):
        values = np.arange(6.0).reshape(2, 3) / 8
        snap = Snapshot(values, ("q0", "q1"), ("l0", "l1", "l2"))
        same = Snapshot._own(values.copy(), ["q0", "q1"], ["l0", "l1", "l2"])
        assert snap == same and not snap != same

    def test_unequal_values_compare_unequal(self):
        values = np.arange(6.0).reshape(2, 3) / 8
        snap = Snapshot(values, ("q0", "q1"), ("l0", "l1", "l2"))
        other = values.copy()
        other[1, 2] = 0.0
        assert snap != Snapshot(other, ("q0", "q1"), ("l0", "l1", "l2"))

    @pytest.mark.parametrize(
        "questions, learners",
        [(("q1", "q0"), ("l0", "l1", "l2")), (("q0", "q1"), ("l0", "l1", "lx"))],
    )
    def test_unequal_ids_compare_unequal(self, questions, learners):
        values = np.full((2, 3), 0.5)
        assert Snapshot(values, ("q0", "q1"), ("l0", "l1", "l2")) != Snapshot(
            values, questions, learners
        )

    def test_other_types_compare_unequal(self):
        snap = Snapshot(np.full((1, 1), 0.5), ("q0",), ("l0",))
        log = make_log([("l0", "q0", 1, 0)])
        assert snap != log and log != snap
        assert snap != snap.values and snap != (snap.values, ("q0",), ("l0",))
        with pytest.raises(TypeError):
            hash(snap)


def reference_split(learners, ratio, seed):
    """``split_learners`` as it was written with per-learner generators."""
    pool = sorted(int(x) for x in learners)
    n_train = min(max(int(round(ratio * len(pool))), 1), len(pool) - 1)
    perm = np.random.default_rng(seed).permutation(np.asarray(pool, dtype=np.intp))
    train = tuple(sorted(int(x) for x in perm[:n_train]))
    test = tuple(sorted(int(x) for x in perm[n_train:]))
    return train, test


class TestSplitLearners:
    @pytest.mark.parametrize(
        "learners",
        [
            range(6000),
            [5, 3, 9, 1, 7, 2],
            [40, 2, 17, 3, 99, 58, 61, 7],
            np.arange(0, 300, 7)[::-1],
        ],
    )
    @pytest.mark.parametrize("ratio", [0.1, 0.5, 0.8, 0.97])
    def test_equals_reference(self, learners, ratio):
        for seed in (0, 1, 12345):
            split = split_learners(learners, ratio, seed)
            assert (split.train, split.test) == reference_split(learners, ratio, seed)
            assert all(type(x) is int for x in split.train + split.test)

    def test_cardinalities(self):
        split = split_learners(range(10), 0.8, seed=7)
        assert len(split.train) == 8 and len(split.test) == 2
        assert set(split.train) | set(split.test) == set(range(10))
        assert not set(split.train) & set(split.test)

    def test_deterministic(self):
        a = split_learners(range(10), 0.8, seed=7)
        b = split_learners(range(10), 0.8, seed=7)
        assert a == b

    def test_large_cardinalities(self):
        # round(0.9 * 6000) = 5400 train, 600 test
        split = split_learners(range(6000), 0.9, seed=1)
        assert len(split.train) == 5400 and len(split.test) == 600

    def test_pure_in_sorted_input(self):
        learners = [5, 3, 9, 1, 7, 2]
        assert split_learners(learners, 0.5, 3) == split_learners(
            sorted(learners), 0.5, 3
        )

    def test_seed_changes_split(self):
        assert split_learners(range(100), 0.8, 0) != split_learners(range(100), 0.8, 1)

    def test_minimum_one_each_side(self):
        split = split_learners(range(2), 0.99, seed=0)
        assert len(split.train) == 1 and len(split.test) == 1

    def test_too_few_learners(self):
        with pytest.raises(ValueError, match="at least 2"):
            split_learners([0], 0.5, 0)

    @pytest.mark.parametrize(
        "learners, message",
        [
            # Truncated to learners 0, 1, 2 and 3 once, split into train (0, 2).
            ([0.9, 1.9, 2.2, 3.7], "^learner indices must be integers$"),
            (["1", "2", "3", "4"], "^learner indices must be integers$"),
            ([True, False, 3, 4], "^learner indices must be integers$"),
            (np.array([0.0, 1.0, 2.0]), "^learner indices must be integers$"),
            (np.array([True, False]), "^learner indices must be integers$"),
            ([[0, 1], [2, 3]], "^learner indices must be integers$"),
            (np.array([[0, 1], [2, 3]]), "^learner indices must be integers$"),
            # Once reported as "train and test learners overlap".
            ([1, 1, 2, 3], "^learner indices must be distinct$"),
            (np.array([4, 2, 4]), "^learner indices must be distinct$"),
            ([0, 2**63], "^learner index out of range$"),
            (np.array([2**64 - 1, 1], dtype=np.uint64), "^learner index out of range$"),
        ],
    )
    def test_rejects_what_context_build_rejects(self, learners, message):
        with pytest.raises(ValueError, match=message):
            split_learners(learners, 0.5, 0)

    def test_accepts_python_and_numpy_integers(self):
        want = split_learners([0, 1, 2, 3, 4], 0.6, 5)
        for learners in (
            (np.int64(4), np.int32(3), np.uint8(2), 1, 0),
            np.arange(5, dtype=np.uint16),
            range(4, -1, -1),
        ):
            assert split_learners(learners, 0.6, 5) == want

    def test_split_sides_must_be_disjoint(self):
        with pytest.raises(ValueError, match="^train and test learners overlap$"):
            LearnerSplit(train=(0, 1), test=(1, 2))

    @pytest.mark.parametrize("ratio", [0.0, 1.0, -0.2, 1.7])
    def test_bad_ratio(self, ratio):
        with pytest.raises(ValueError, match="ratio"):
            split_learners(range(10), ratio, 0)
