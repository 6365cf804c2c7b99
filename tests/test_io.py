import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diaggen import (
    CriteriaContext,
    SimConfig,
    Snapshot,
    fitness,
    random_search,
    simulate,
    split_learners,
)
from diaggen.cli import main
from diaggen.io import (
    _read_snapshot_rows,
    read_interactions,
    read_snapshot,
    result_record,
    write_interactions,
    write_json,
    write_snapshot,
)


class TestInteractionsRoundTrip:
    def test_two_rows(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "learner_id,question_id,correct,order\nl1,q1,1,0\nl1,q2,0,1\n"
        )
        log = read_interactions(path)
        assert len(log) == 2
        assert log.learner_ids == ("l1",) and log.question_ids == ("q1", "q2")
        assert log.learner.tolist() == [0, 0] and log.question.tolist() == [0, 1]
        assert log.correct.tolist() == [True, False]
        assert log.order.tolist() == [0, 1]

    def test_round_trip_identity(self, tmp_path):
        _, log, _ = simulate(SimConfig(num_learners=8, num_questions=10, seed=3))
        path = tmp_path / "log.csv"
        write_interactions(log, path)
        assert read_interactions(path) == log

    def test_bad_correct_value_names_line(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("learner_id,question_id,correct,order\nl1,q1,2,0\n")
        with pytest.raises(ValueError, match=r"correct must be 0 or 1 \(line 2\)"):
            read_interactions(path)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "learner_id,question_id,correct,order\nl1,q1,1,0\nl1,q2,1\n"
        )
        with pytest.raises(ValueError, match=r"\(line 3\)"):
            read_interactions(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("learner,question,correct,order\na,b,1,0\n")
        with pytest.raises(ValueError, match="header"):
            read_interactions(path)

    def test_non_monotone_order_names_learner(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(
            "learner_id,question_id,correct,order\nl5,q1,1,1\nl5,q2,1,0\n"
        )
        with pytest.raises(ValueError, match="l5"):
            read_interactions(path)

    def test_bad_order_value(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("learner_id,question_id,correct,order\nl1,q1,1,x\n")
        with pytest.raises(ValueError, match=r"order.*\(line 2\)"):
            read_interactions(path)

    @pytest.mark.parametrize("order", ["-1", str(2**63)])
    def test_order_out_of_range(self, tmp_path, order):
        path = tmp_path / "log.csv"
        path.write_text(f"learner_id,question_id,correct,order\nl0,q0,1,0\nl1,q1,1,{order}\n")
        with pytest.raises(ValueError, match=r"order.*\(line 3\)"):
            read_interactions(path)

    def test_quoted_ids_round_trip_bytes(self, tmp_path):
        text = 'learner_id,question_id,correct,order\n"a,b",q1,1,0\n"say ""hi""",q1,0,7\n'
        path = tmp_path / "log.csv"
        path.write_text(text)
        log = read_interactions(path)
        assert log.learner_ids == ("a,b", 'say "hi"')
        write_interactions(log, tmp_path / "copy.csv")
        assert (tmp_path / "copy.csv").read_text() == text


class TestSnapshotRoundTrip:
    def test_one_by_one_layout(self, tmp_path):
        path = tmp_path / "snap.csv"
        write_snapshot(Snapshot(np.array([[0.5]]), ("q0",), ("l0",)), path)
        assert path.read_text() == "question_id,l0\nq0,0.500000\n"

    def test_quantized_round_trip(self, tmp_path):
        _, _, truth = simulate(SimConfig(num_learners=100, num_questions=50, seed=9))
        path = tmp_path / "snap.csv"
        write_snapshot(truth, path)
        back = read_snapshot(path)
        assert back.question_ids == truth.question_ids
        assert back.learner_ids == truth.learner_ids
        assert np.abs(back.values - truth.values).max() <= 5e-7

    def rejects(self, tmp_path, text, message):
        """Both the one-pass parse and the row loop raise exactly ``message``."""
        path = tmp_path / "snap.csv"
        path.write_bytes(text.encode())
        for read in (read_snapshot, _read_snapshot_rows):
            with pytest.raises(ValueError) as info:
                read(path)
            assert str(info.value) == message

    def test_out_of_range_value_rejected(self, tmp_path):
        self.rejects(
            tmp_path,
            "question_id,l0\nq0,1.000001\n",
            "value 1.000001 out of range [0, 1] at line 2, learner 'l0'",
        )

    def test_nan_cell_rejected(self, tmp_path):
        self.rejects(
            tmp_path,
            "question_id,l0,l1\nq0,0.5,0.5\nq1,0.5,nan\n",
            "value nan out of range [0, 1] at line 3, learner 'l1'",
        )

    def test_non_numeric_cell_named(self, tmp_path):
        self.rejects(
            tmp_path,
            "question_id,l0,l1\nq0,0.5,oops\n",
            "non-numeric value 'oops' at line 2, learner 'l1'",
        )

    def test_ragged_row_rejected(self, tmp_path):
        self.rejects(
            tmp_path,
            "question_id,l0,l1\nq0,0.5\n",
            "ragged row: expected 3 fields, got 2 (line 2)",
        )

    def test_whitespace_only_line_is_ragged(self, tmp_path):
        self.rejects(
            tmp_path,
            "question_id,l0\nq0,0.5\n  \nq1,0.5\n",
            "ragged row: expected 2 fields, got 1 (line 3)",
        )

    def test_extra_trailing_field_rejected(self, tmp_path):
        self.rejects(
            tmp_path,
            "question_id,l0,l1\nq0,0.5,0.5\nq1,0.5,0.5,\n",
            "ragged row: expected 3 fields, got 4 (line 3)",
        )

    def test_empty_body_rejected(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.rejects(tmp_path, "question_id,l0\n", "snapshot file has no data rows")
            self.rejects(tmp_path, "question_id,l0\n\n\r\n", "snapshot file has no data rows")

    def test_bad_header_rejected(self, tmp_path):
        self.rejects(
            tmp_path, "question,l0\nq0,0.5\n", "bad header: expected question_id,<learner ids>"
        )

    def test_hash_in_id_is_data(self, tmp_path):
        path = tmp_path / "snap.csv"
        path.write_text("question_id,#l0\n#q0,0.25\nq#1,0.5\n")
        snap = read_snapshot(path)
        assert snap.question_ids == ("#q0", "q#1") and snap.learner_ids == ("#l0",)
        assert snap.values.tolist() == [[0.25], [0.5]]

    def test_row_loop_spelling_accepted(self, tmp_path):
        # Python's float() reads digit-group underscores; the one-pass parse
        # does not, so the file is read by the row loop.
        path = tmp_path / "snap.csv"
        path.write_text("question_id,l0,l1\nq0,0.000_1,1\n")
        assert read_snapshot(path).values.tolist() == [[0.0001, 1.0]]

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_one_pass_equals_row_loop(self, tmp_path_factory, data):
        ids = st.text(alphabet='aZ09 ,"#\n\r\t;.-_é', max_size=6)
        n_learners = data.draw(st.integers(1, 4), label="learners")
        n_questions = data.draw(st.integers(1, 4), label="questions")
        learner_ids = data.draw(st.lists(ids, min_size=n_learners, max_size=n_learners))
        question_ids = data.draw(st.lists(ids, min_size=n_questions, max_size=n_questions))
        cell = st.one_of(
            st.sampled_from(["0", "1", "0.0", "1.0", "1e0", "0e5", "5E-1", " 0.25 ", "-0"]),
            st.builds(
                lambda x, fmt: fmt % x,
                st.floats(0.0, 1.0),
                st.sampled_from(["%.6f", "%r", "%.17g", "%e", "%.3E", "%g"]),
            ),
        )
        rows = [
            [qid, *data.draw(st.lists(cell, min_size=n_learners, max_size=n_learners))]
            for qid in question_ids
        ]
        terminator = data.draw(st.sampled_from(["\n", "\r\n"]), label="line end")
        quote_all = data.draw(st.booleans(), label="quote every field")

        def line(fields):
            return ",".join(
                '"' + f.replace('"', '""') + '"'
                if quote_all or any(c in f for c in ',"\r\n')
                else f
                for f in fields
            ) + terminator

        text = line(["question_id", *learner_ids])
        for row in rows:
            if data.draw(st.booleans(), label="blank line before row"):
                text += terminator
            text += line(row)
        path = tmp_path_factory.mktemp("snap") / "snap.csv"
        path.write_bytes(text.encode())

        want = _read_snapshot_rows(path)
        assert want.question_ids == tuple(question_ids)
        assert want.learner_ids == tuple(learner_ids)
        got = read_snapshot(path)
        assert got.question_ids == want.question_ids
        assert got.learner_ids == want.learner_ids
        assert got.values.tobytes() == want.values.tobytes()


class TestResultDocument:
    def make_result(self):
        rng = np.random.default_rng(0)
        snap = Snapshot(
            rng.random((8, 12)),
            tuple(f"q{i}" for i in range(8)),
            tuple(f"l{j}" for j in range(12)),
        )
        split = split_learners(range(12), 0.75, seed=2)
        train = CriteriaContext.build(snap, split.train, lam=0.4)
        test = CriteriaContext.build(snap, split.test, lam=0.4)
        result = random_search(train, 3, seed=11)
        return snap, result, result.report, fitness(test, result.best)

    def test_consistency_and_structure(self, tmp_path):
        snap, result, train_rep, test_rep = self.make_result()
        path = tmp_path / "result.json"
        record = result_record(
            result,
            question_ids=snap.question_ids,
            train_report=train_rep,
            test_report=test_rep,
            config={"seed": 11, "lambda": 0.4},
        )
        write_json(record, path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == 1
        assert doc["algorithm"] == "random"
        for block in ("train", "test"):
            got = doc[block]
            assert set(got) == {"rmse", "std", "fitness", "lambda"}
            assert got["fitness"] == pytest.approx(
                -got["rmse"] + got["lambda"] * got["std"], abs=1e-9
            )
        assert doc["config"]["seed"] == 11
        assert len(doc["selected_questions"]) == 3
        assert all(q in snap.question_ids for q in doc["selected_questions"])

    def test_determinism_except_timestamp(self, tmp_path, capsys):
        snap, *_ = self.make_result()
        snap_path = tmp_path / "snap.csv"
        write_snapshot(snap, snap_path)
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            argv = ["search", "--snapshot", str(snap_path), "--algo", "random",
                    "--k", "3", "--samples", "200", "--seed", "11", "--out", str(path)]
            assert main(argv) == 0
        docs = []
        for path in paths:
            doc = json.loads(path.read_text())
            assert "created_at" in doc
            lines = [
                line
                for line in path.read_text().splitlines()
                if '"created_at"' not in line
            ]
            docs.append("\n".join(lines))
        assert docs[0] == docs[1]

    def test_record_history_serializable(self):
        snap, result, train_rep, test_rep = self.make_result()
        doc = result_record(
            result,
            question_ids=snap.question_ids,
            train_report=train_rep,
            test_report=test_rep,
            config={"seed": 11, "lambda": 0.4},
        )
        json.dumps(doc)  # raises if anything is not JSON-safe
        assert doc["evaluations"] == result.evaluations
