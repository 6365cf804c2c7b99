import csv
import json
import os
import re
import sys
import threading
import tracemalloc
import warnings
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diaggen import (
    CriteriaContext,
    InteractionLog,
    SimConfig,
    Snapshot,
    fitness,
    random_search,
    simulate,
    split_learners,
)
import diaggen.io
from diaggen.cli import main
from diaggen.io import (
    _interaction_columns,
    _plain_snapshot,
    _read_interaction_rows,
    _read_snapshot_rows,
    read_interactions,
    read_snapshot,
    result_record,
    write_interactions,
    write_json,
    write_snapshot,
)


needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")


def read_through_pipe(read, tmp_path, data):
    """``read`` of a named pipe that a thread feeds ``data`` once; a reader
    that opens the pipe again finds it empty."""
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    done = threading.Event()

    def feed():
        pipe.write_bytes(data)
        while not done.wait(0.01):
            try:
                os.close(os.open(pipe, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # no reader has the pipe open
                pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    try:
        return read(pipe)
    finally:
        done.set()
        writer.join(timeout=10)
        assert not writer.is_alive()


def interaction_rows(path):
    """The row loop's reading of the interaction file at ``path``."""
    return _read_interaction_rows(Path(path).read_bytes())


def snapshot_rows(path):
    """The row loop's reading of the snapshot file at ``path``."""
    return _read_snapshot_rows(Path(path).read_bytes())


def plain_snapshot(path):
    """The one-pass parse of the snapshot file at ``path``."""
    with open(path, "rb") as fh:
        return _plain_snapshot(fh)


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

    def test_ids_with_line_breaks_round_trip(self, tmp_path):
        learners = ["a\rb", "a\nb", "a\r\nb", "a,b", 'say "hi"', "é ü", "", "plain"]
        questions = ["q\r", "", "q,0", "q\u00e9"]
        log = InteractionLog.from_records(
            (learner, questions[i % len(questions)], i % 3 == 0, i)
            for i, learner in enumerate(learners)
        )
        path = tmp_path / "log.csv"
        write_interactions(log, path)
        assert path.read_bytes().decode() == (
            "learner_id,question_id,correct,order\n"
            '"a\rb","q\r",1,0\n'
            '"a\nb",,0,1\n'
            '"a\r\nb","q,0",0,2\n'
            '"a,b",qé,1,3\n'
            '"say ""hi""","q\r",0,4\n'
            "é ü,,0,5\n"
            ',"q,0",1,6\n'
            "plain,qé,0,7\n"
        )
        assert read_interactions(path) == log


def reference_interaction_bytes(log):
    """The bytes ``write_interactions`` must write: each record formatted
    with ``str.format``, each non-empty id as the csv module writes a record
    of it."""
    learners, questions = (
        [csv_line([i]) if i else "" for i in ids] for ids in (log.learner_ids, log.question_ids)
    )
    records = zip(
        log.learner.tolist(),
        log.question.tolist(),
        log.correct.view(np.uint8).tolist(),
        log.order.tolist(),
    )
    lines = (f"{learners[l]},{questions[q]},{c},{o}\n" for l, q, c, o in records)
    return ("learner_id,question_id,correct,order\n" + "".join(lines)).encode()


def log_of(learners, questions, orders):
    """A log with one record per order, correct on every third record."""
    return InteractionLog.from_records(
        (learner, question, i % 3 == 0, order)
        for i, (learner, question, order) in enumerate(zip(learners, questions, orders))
    )


class TestInteractionWriter:
    """``write_interactions`` writes the bytes of the ``str.format`` writer."""

    def assert_reference_bytes(self, log, tmp_path):
        path = tmp_path / "log.csv"
        write_interactions(log, path)
        assert path.read_bytes() == reference_interaction_bytes(log)

    @pytest.mark.parametrize(
        "ids",
        [
            ["a,b", 'say "hi"', "a\rb", "a\nb", "a\r\nb", "plain"],
            ["", "x", ""],
            ["é ü", "学生", "😀", "q\u00e9"],
        ],
    )
    def test_ids(self, tmp_path, ids):
        others = [f"o{i}" for i in range(len(ids))]
        for learners, questions in ((ids, others), (others, ids), (ids, ids[::-1])):
            self.assert_reference_bytes(log_of(learners, questions, range(len(ids))), tmp_path)

    @pytest.mark.parametrize("ids", [["a\0b", "\0", "\0,\0"], ["a", "b\0"]])
    def test_nul_in_id_rejected(self, ids):
        # Python 3.10's csv module neither writes nor reads NUL.
        others = [f"o{i}" for i in range(len(ids))]
        for name, learners, questions in (("learner", ids, others), ("question", others, ids)):
            with pytest.raises(ValueError, match=f"^{name} ids must not hold NUL$"):
                log_of(learners, questions, range(len(ids)))

    @pytest.mark.parametrize(
        "orders", [[0], [9], [10], [2**63 - 1], [0, 9, 10, 99, 100, 2**63 - 1]]
    )
    def test_orders(self, tmp_path, orders):
        ids = ["l"] * len(orders)
        self.assert_reference_bytes(log_of(ids, ids, orders), tmp_path)

    @pytest.mark.parametrize("orders", [[-1], [-(2**63)], [-(2**63), -10, -9, -1, 0, 5]])
    def test_negative_orders_rejected(self, orders):
        ids = ["l"] * len(orders)
        with pytest.raises(ValueError, match="^order must be non-negative$"):
            log_of(ids, ids, orders)

    def test_empty_log(self, tmp_path):
        self.assert_reference_bytes(log_of([], [], []), tmp_path)

    @pytest.mark.parametrize("field_bytes", [1, 2, 3, 256])
    def test_chunk_boundaries(self, tmp_path, monkeypatch, field_bytes):
        # Every chunk size from one record up: each log length is just
        # below, at or above some chunk size. A chunk holding a field wider
        # than _FIELD_BYTES is written record by record.
        monkeypatch.setattr(diaggen.io, "_FIELD_BYTES", field_bytes)
        for n in (1, 2, 7, 8, 9):
            log = log_of([f"l{i % 3}" * (i % 4) for i in range(n)], ["q,", "", "qé"] * 3, range(n))
            for chunk_bytes in range(1, 200, 3):
                monkeypatch.setattr(diaggen.io, "_WRITE_BYTES", chunk_bytes)
                self.assert_reference_bytes(log, tmp_path)

    def test_ids_longer_than_field_columns(self, tmp_path):
        # Field widths around _FIELD_BYTES, the comma included, and far past it.
        width = diaggen.io._FIELD_BYTES
        ids = ["a" * (width - 2), "b" * (width - 1), "c" * width, '",' * width, "é" * 5000]
        for learners, questions in ((ids, ["q"] * 5), (["l"] * 5, ids), (ids, ids[::-1])):
            self.assert_reference_bytes(log_of(learners, questions, range(5)), tmp_path)

    def test_simulated_log_across_default_chunks(self, tmp_path):
        # Lines "l2999,q49,1,49" in 15-byte rows: more than two chunks.
        _, log, _ = simulate(SimConfig(num_learners=3000, num_questions=50, seed=3))
        assert len(log) * 15 > 2 * diaggen.io._WRITE_BYTES
        self.assert_reference_bytes(log, tmp_path)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_generated_logs(self, tmp_path_factory, data):
        # _FIELD_BYTES 1, 2 and 4 write chunks record by record, 256 as matrices.
        ids = st.text(alphabet=st.sampled_from('ab,"\r\né学 '), max_size=5)
        field_bytes = data.draw(st.sampled_from([1, 2, 4, 256]))
        n = data.draw(st.integers(0, 30))
        orders = st.sets(st.integers(0, 2**63 - 1), min_size=n, max_size=n)
        orders = sorted(data.draw(orders))
        learners = data.draw(st.lists(ids, min_size=n, max_size=n))
        questions = data.draw(st.lists(ids, min_size=n, max_size=n))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diaggen.io, "_FIELD_BYTES", field_bytes)
            log = log_of(learners, questions, orders)
            tmp_path = tmp_path_factory.mktemp("w")
            self.assert_reference_bytes(log, tmp_path)
        assert read_interactions(tmp_path / "log.csv") == log

    def test_memory(self, tmp_path):
        # The world of the benchmark, where the writer peaks at about 3.5 MiB.
        _, log, _ = simulate(SimConfig(num_learners=6000, num_questions=50, seed=101))
        tracemalloc.start()
        try:
            write_interactions(log, tmp_path / "log.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 2**20


def read_outcome(read, path):
    """What ``read`` makes of ``path``: the log, or the ValueError's type and message."""
    try:
        return read(path)
    except ValueError as exc:
        return type(exc), str(exc)


class TestInteractionsOnePass:
    """``read_interactions`` parses plain files in one pass over their
    bytes; every file must come out as the row loop reads it."""

    @pytest.mark.parametrize(
        "body",
        [
            "",
            "l0,q0,1,0",
            "l0,q0,1,0\n",
            "l0,q0,0,000123456789012345\nl0,q1,1,999999999999999999\n",
            ",,1,7\n",
            "é,ü q,0,3\nl1,é,1,4\n",
            "l;0,q 0,1,0\n\tl,q#,0,1\n",
        ],
    )
    def test_plain_files_taken(self, tmp_path, body):
        path = tmp_path / "log.csv"
        path.write_bytes(("learner_id,question_id,correct,order\n" + body).encode())
        assert _interaction_columns(path.read_bytes()) is not None
        assert read_interactions(path) == interaction_rows(path)

    @pytest.mark.parametrize(
        "data",
        [
            b"learner_id,question_id,correct,order\r\nl0,q0,1,0\r\n",
            b"learner_id,question_id,correct\nl0,q0,1\n",
            b"learner_id,question_id,correct,order\n\"l0\",q0,1,0\n",
            b"learner_id,question_id,correct,order\nl\rx,q0,1,0\n",
            b"learner_id,question_id,correct,order\nl\0,q0,1,0\n",
            b"learner_id,question_id,correct,order\nl0,q0,1,0\n\nl0,q1,1,1\n",
            b"learner_id,question_id,correct,order\nl0,q0,1,0\n\n",
            b"learner_id,question_id,correct,order\nl0,q0,1\n",
            b"learner_id,question_id,correct,order\nl0,q0,1,0,\n",
            # Six commas in two records, four of them in the first, or in the second.
            b"learner_id,question_id,correct,order\nl0,q0,1,0,\nq1,1,0\n",
            b"learner_id,question_id,correct,order\nl0,q0,1\nl1,q1,1,0,\n",
            b"learner_id,question_id,correct,order\nl0,q0,01,0\n",
            b"learner_id,question_id,correct,order\nl0,q0, 1,0\n",
            b"learner_id,question_id,correct,order\nl0,q0,2,0\n",
            b"learner_id,question_id,correct,order\nl0,q0,1,\n",
            b"learner_id,question_id,correct,order\nl0,q0,1,+1\n",
            b"learner_id,question_id,correct,order\nl0,q0,1, 1\n",
            b"learner_id,question_id,correct,order\nl0,q0,1,1_0\n",
            b"learner_id,question_id,correct,order\nl0,q0,1,-1\n",
            b"learner_id,question_id,correct,order\nl0,q0,1,1234567890123456789\n",
            b"learner_id,question_id,correct,order\nl0,q0,1,\xd9\xa1\n",
            b"learner_id,question_id,correct,order\nl\xff,q0,1,0\n",
            b"learner_id,question_id,correct,order\nl0,\xed\xa0\x80,1,0\n",
            b"\xef\xbb\xbflearner_id,question_id,correct,order\nl0,q0,1,0\n",
        ],
    )
    def test_other_files_left_to_row_loop(self, tmp_path, data):
        assert _interaction_columns(data) is None
        path = tmp_path / "log.csv"
        path.write_bytes(data)
        assert read_outcome(read_interactions, path) == read_outcome(interaction_rows, path)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_field_size_limit(self, tmp_path, extra):
        limit = csv.field_size_limit()
        path = tmp_path / "log.csv"
        path.write_text(
            f"learner_id,question_id,correct,order\n{'x' * (limit + extra)},q0,0,1\n"
        )
        assert (_interaction_columns(path.read_bytes()) is None) == bool(extra)
        got = read_outcome(read_interactions, path)
        assert got == read_outcome(interaction_rows, path)
        if extra:
            assert got == (ValueError, f"field larger than field limit ({limit}) (line 2)")
        else:
            assert got.learner_ids == ("x" * limit,)

    def test_long_id_among_many_records_left_to_row_loop(self, tmp_path):
        # Padding 200 records to a 1000-byte key would outgrow the file.
        text = "learner_id,question_id,correct,order\n" + "".join(
            f"l,q{i},1,{i}\n" for i in range(200)
        ) + "x" * 1000 + ",q0,1,0\n"
        assert _interaction_columns(text.encode()) is None
        path = tmp_path / "log.csv"
        path.write_text(text)
        assert read_interactions(path) == interaction_rows(path)

    def test_simulated_log_read_without_row_loop(self, tmp_path, monkeypatch):
        _, log, _ = simulate(SimConfig(num_learners=30, num_questions=8, seed=4))
        path = tmp_path / "log.csv"
        write_interactions(log, path)

        def row_loop(data):
            raise AssertionError("the one-pass parse declined a simulated log")

        monkeypatch.setattr("diaggen.io._read_interaction_rows", row_loop)
        assert read_interactions(path) == log

    def assert_one_pass_equals_row_loop(self, path):
        assert _interaction_columns(path.read_bytes()) is not None
        assert read_interactions(path) == interaction_rows(path)

    def test_time_ordered_log(self, tmp_path):
        # Records sorted by order, then by learner: no run of equal learners.
        _, log, _ = simulate(SimConfig(num_learners=40, num_questions=9, seed=6))
        path = tmp_path / "log.csv"
        write_interactions(log, path)
        header, *lines = path.read_text().splitlines(keepends=True)
        by_time = np.lexsort((log.learner, log.order))
        path.write_text(header + "".join(lines[i] for i in by_time))
        self.assert_one_pass_equals_row_loop(path)
        timed = read_interactions(path)
        assert timed.learner_ids[:3] == ("l0", "l1", "l2")
        assert timed.learner[:3].tolist() == [0, 1, 2]

    @pytest.mark.parametrize("width", [7, 8, 9, 16, 17])
    def test_ids_around_word_widths(self, tmp_path, width):
        # Ids differing only in their first, middle or last byte, next to
        # ids of every shorter width, with runs and interleaving.
        ids = ["a" * width, "b" + "a" * (width - 1), "a" * (width - 1) + "b",
               "a" * (width // 2) + "c" + "a" * (width - width // 2 - 1), "a", "a" * (width - 1)]
        rng = np.random.default_rng(width)
        learners, questions = rng.integers(0, 6, (2, 60))
        learners[1:4] = learners[0]
        records = [
            (ids[l], ids[q], bool(o % 3), o) for o, (l, q) in enumerate(zip(learners, questions))
        ]
        path = tmp_path / "log.csv"
        write_interactions(InteractionLog.from_records(records), path)
        self.assert_one_pass_equals_row_loop(path)

    def test_ids_that_prefix_each_other(self, tmp_path):
        text = "learner_id,question_id,correct,order\n" + "".join(
            f"{l},{q},1,{o}\n"
            for o, (l, q) in enumerate(
                [("l1", "q"), ("l10", "q0"), ("l100", "q00"), ("l1", "q0"), ("l10", "q"),
                 ("l100", "q"), ("l10", "q00"), ("l", "q000"), ("l1", "q00")]
            )
        )
        path = tmp_path / "log.csv"
        path.write_text(text)
        self.assert_one_pass_equals_row_loop(path)
        assert read_interactions(path).learner_ids == ("l1", "l10", "l100", "l")

    def test_multibyte_and_invalid_utf8_ids(self, tmp_path):
        path = tmp_path / "log.csv"
        text = (
            "learner_id,question_id,correct,order\n"
            "é,ü,0,0\n学生,ü,1,1\né,問題一,1,2\n😀,é,0,0\n"
        )
        path.write_text(text, encoding="utf-8")
        self.assert_one_pass_equals_row_loop(path)
        # One id whose second byte is cut off: the row loop decides.
        path.write_bytes(text.encode() + "学".encode()[:2] + b",q,1,0\n")
        assert _interaction_columns(path.read_bytes()) is None
        assert read_outcome(read_interactions, path) == read_outcome(interaction_rows, path)

    def test_last_record_without_line_end(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text("learner_id,question_id,correct,order\nl0,q0,1,0\nl1,q10,0,12")
        self.assert_one_pass_equals_row_loop(path)
        assert read_interactions(path).order.tolist() == [0, 12]

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_pass_equals_row_loop(self, tmp_path_factory, data):
        # "~" stands for the byte 0xff, which is not UTF-8.
        ids = st.text(alphabet='aZ09 ,"\n\r;é~', max_size=4)
        learner_ids = data.draw(st.lists(ids, min_size=1, max_size=3), label="learners")
        question_ids = data.draw(st.lists(ids, min_size=1, max_size=3), label="questions")
        orders = st.one_of(
            st.just("%d"),
            st.sampled_from(["+%d", " %d", "0%d", "%d_0", "-%d", "%019d", "%020d", "9%019d"]),
        )
        corrects = st.one_of(st.sampled_from("01"), st.sampled_from(["01", " 1", "2", ""]))
        records = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(learner_ids),
                    st.sampled_from(question_ids),
                    corrects,
                    orders,
                ),
                max_size=6,
            ),
            label="records",
        )
        terminator = data.draw(st.sampled_from(["\n", "\r\n"]), label="line end")
        quote_all = data.draw(st.booleans(), label="quote every field")

        def line(fields):
            return ",".join(
                '"' + f.replace('"', '""') + '"'
                if quote_all or any(c in f for c in ',"\r\n')
                else f
                for f in fields
            ) + terminator

        text = line(["learner_id", "question_id", "correct", "order"])
        for position, (learner, question, correct, order) in enumerate(records):
            if data.draw(st.booleans(), label="blank line before record"):
                text += terminator
            text += line([learner, question, correct, order % position])
        if not data.draw(st.booleans(), label="final line end"):
            text = text[: -len(terminator)]
        path = tmp_path_factory.mktemp("log") / "log.csv"
        path.write_bytes(text.encode().replace("~".encode(), b"\xff"))

        assert read_outcome(read_interactions, path) == read_outcome(interaction_rows, path)

    @pytest.mark.parametrize("block_bytes", [24, 64])
    def test_small_blocks(self, tmp_path, monkeypatch, block_bytes):
        # The run of l0 spans blocks, question "late" is first seen in the
        # last block, and the ids take one to three words with the widest
        # first seen last. Every line outgrows a block of 24 bytes; one of 64
        # holds two lines of l0. Orders of 17 digits keep the ids, padded to
        # three words, within the file.
        monkeypatch.setattr(diaggen.io, "_BLOCK_BYTES", block_bytes)
        records = [("l0", f"q{i % 3}") for i in range(8)]
        records += [("a" * 8, "b" * 9), ("a" * 9, "b" * 16), ("a" * 16, "b" * 8)]
        records += [("l0", "q1"), ("a" * 17, "b" * 17), ("l1", "late")]
        text = "learner_id,question_id,correct,order\n" + "".join(
            f"{l},{q},{o % 2},{10**16 + o}\n" for o, (l, q) in enumerate(records)
        )
        path = tmp_path / "log.csv"
        path.write_text(text)
        self.assert_one_pass_equals_row_loop(path)
        log = read_interactions(path)
        assert log.learner_ids == ("l0", "a" * 8, "a" * 9, "a" * 16, "a" * 17, "l1")
        assert log.question_ids[-2:] == ("b" * 17, "late")

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_small_blocks_equal_row_loop(self, tmp_path_factory, data):
        # Blocks of 16 to 160 bytes hold part of a line or up to six lines:
        # runs of records of one learner are split across blocks, ids are
        # first seen in late blocks, and ids of 8, 9, 16 and 17 bytes take
        # one to three words; the last run's ids, of 17 bytes, are first seen
        # in the last block. Orders of 17 digits keep the ids, padded to
        # three words, within the file.
        def spelled(letter, width):
            """An id of ``width`` UTF-8 bytes: ``letter`` repeated, then "a"s."""
            size = len(letter.encode())
            return letter * (width // size) + "a" * (width % size)

        ids = st.builds(
            spelled, st.sampled_from(["a", "b", "é"]), st.sampled_from([1, 2, 8, 9, 16, 17])
        )
        learner_ids = data.draw(st.lists(ids, min_size=1, max_size=5), label="learners")
        question_ids = data.draw(st.lists(ids, min_size=1, max_size=5), label="questions")
        runs = data.draw(
            st.lists(st.tuples(st.sampled_from(learner_ids), st.integers(1, 6)), max_size=10),
            label="runs",
        )
        records = [
            (learner, data.draw(st.sampled_from(question_ids)), data.draw(st.booleans()))
            for learner, length in runs + [("z" * 17, 2)]
            for _ in range(length)
        ]
        records[-1] = ("z" * 17, "y" * 17, True)
        text = "learner_id,question_id,correct,order\n" + "".join(
            f"{learner},{question},{int(correct)},{10**16 + order}\n"
            for order, (learner, question, correct) in enumerate(records)
        )
        path = tmp_path_factory.mktemp("log") / "log.csv"
        path.write_text(text)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(diaggen.io, "_BLOCK_BYTES", data.draw(st.sampled_from([16, 48, 96, 160])))
            self.assert_one_pass_equals_row_loop(path)

    @pytest.mark.parametrize(
        "last", [b"x,q0,2,99\n", b"x\xff,q0,1,99\n", b"x," + "学".encode()[:2] + b",1,99\n"]
    )
    def test_small_blocks_decline_in_last_block(self, tmp_path, monkeypatch, last):
        # The file's only bad correct byte or non-UTF-8 id is in its last
        # block: the file is declined, and the row loop names the fault.
        monkeypatch.setattr(diaggen.io, "_BLOCK_BYTES", 32)
        data = b"learner_id,question_id,correct,order\n" + b"".join(
            b"l%d,q%d,1,%d\n" % (i // 3, i % 3, i) for i in range(30)
        )
        assert _interaction_columns(data) is not None
        assert _interaction_columns(data + last) is None
        path = tmp_path / "log.csv"
        path.write_bytes(data + last)
        got = read_outcome(read_interactions, path)
        assert got == read_outcome(interaction_rows, path)
        assert issubclass(got[0], ValueError)

    @pytest.mark.parametrize("time_ordered", [False, True])
    def test_numbering_grows_with_the_file(self, tmp_path, monkeypatch, time_ordered):
        # 2000 learners of two records each in about 390 blocks of 128 bytes:
        # ids recur across blocks and new ones come in every block. Each
        # block numbers the run heads of its own fields, and its distinct ids
        # are looked up in the column's dict, so the id columns number at
        # most one value per field (4400 and 8000 for the 8000 fields, as
        # written and in time order); ranking the ids seen so far again in
        # every block took 440,000 and 650,000.
        monkeypatch.setattr(diaggen.io, "_BLOCK_BYTES", 128)
        sizes = []
        numbered = diaggen.io._numbered
        monkeypatch.setattr(
            diaggen.io, "_numbered", lambda values: sizes.append(values.size) or numbered(values)
        )
        records = [(f"l{i}", f"q{(i + step) % 7}", step) for i in range(2000) for step in (0, 1)]
        if time_ordered:
            records.sort(key=lambda record: record[2])
        path = tmp_path / "log.csv"
        path.write_text(
            "learner_id,question_id,correct,order\n"
            + "".join(f"{l},{q},1,{step}\n" for l, q, step in records)
        )
        self.assert_one_pass_equals_row_loop(path)
        sizes.clear()
        _interaction_columns(path.read_bytes())
        assert sum(sizes) <= 4 * 2 * len(records)  # four per field

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_numbered_in_order_of_first_appearance(self, data):
        # Mostly a few words, both ends of the range among them, so most arrays repeat some.
        edges = st.sampled_from([0, 1, 2**32, 2**63, 2**64 - 2, 2**64 - 1])
        words = st.one_of(edges, edges, st.integers(0, 2**64 - 1))
        values = data.draw(st.lists(words, min_size=1, max_size=40))
        codes, firsts = diaggen.io._numbered(np.array(values, dtype=np.uint64))
        distinct = list(dict.fromkeys(values))
        assert codes.tolist() == [distinct.index(value) for value in values]
        assert firsts.tolist() == [values.index(value) for value in distinct]


def csv_line(cells):
    """``cells`` as the csv module writes one record, quoting CR and LF too."""
    buffer = StringIO()
    csv.writer(buffer, lineterminator="\r\n").writerow(cells)
    return buffer.getvalue()[:-2]


def reference_snapshot_bytes(snap):
    """The bytes ``write_snapshot`` must write: one ``%.6f`` per cell."""
    lines = [csv_line(["question_id", *snap.learner_ids])]
    for qid, row in zip(snap.question_ids, snap.values.tolist()):
        lines.append(",".join([csv_line([qid]), *("%.6f" % v for v in row)]))
    return "".join(line + "\n" for line in lines).encode()


def snapshot_outcome(read, path):
    """What ``read`` makes of ``path``: the values' bytes and the ids, or
    the ValueError's type and message."""
    try:
        snap = read(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return snap.values.tobytes(), snap.question_ids, snap.learner_ids


def in_rows(values, width=5):
    """``values`` as the rows of a snapshot with ``width`` learners, the
    last row padded with 0.5."""
    values = np.concatenate([values, np.full(-len(values) % width, 0.5)]).reshape(-1, width)
    return Snapshot(
        values, tuple(f"q{i}" for i in range(len(values))), tuple(f"l{j}" for j in range(width))
    )


def snapshots(data):
    """A drawn snapshot of values in [0, 1] whose ids may need quoting."""
    ids = st.one_of(
        st.text(alphabet="aZ09_.é", min_size=1, max_size=5),
        st.text(alphabet='aZ09 ,"#\n\r;.é', max_size=5),
    )
    n_learners = data.draw(st.integers(1, 5), label="learners")
    n_questions = data.draw(st.integers(1, 4), label="questions")
    learner_ids = data.draw(
        st.lists(ids, min_size=n_learners, max_size=n_learners, unique=True), label="learner ids"
    )
    question_ids = data.draw(
        st.lists(ids, min_size=n_questions, max_size=n_questions, unique=True),
        label="question ids",
    )
    cell = st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([-0.0, 5e-324, 2**-7, 3 * 2**-8, 0.9999995, 1.0]),
    )
    row = st.lists(cell, min_size=n_learners, max_size=n_learners)
    values = data.draw(st.lists(row, min_size=n_questions, max_size=n_questions), label="values")
    return Snapshot(np.array(values), tuple(question_ids), tuple(learner_ids))


class TestSnapshotWriter:
    """``write_snapshot`` writes the bytes of one ``%.6f`` per cell."""

    def test_ties_and_their_neighbours(self, tmp_path):
        # The exact ties at six decimals are the odd multiples of 2**-7.
        ties = np.arange(1, 128, 2) / 128
        micro = np.arange(0, 10**6, 997) + 0.5
        halves = micro / 1e6
        # Just outside the 1e-9 guard, spelled from the rounded product.
        outside = [(micro - 2e-9) / 1e6, (micro + 2e-9) / 1e6]
        values = np.concatenate(
            [ties, [3 * 2**-8], np.nextafter(halves, 0), halves, np.nextafter(halves, 1), *outside]
        )
        snap = in_rows(values)
        path = tmp_path / "snap.csv"
        write_snapshot(snap, path)
        assert path.read_bytes() == reference_snapshot_bytes(snap)

    def test_edge_values(self, tmp_path):
        snap = in_rows(np.array([0.0, 5e-324, 0.9999995, 1.0, 1e-7, -0.0, 0.5, 1.0]), width=4)
        path = tmp_path / "snap.csv"
        write_snapshot(snap, path)
        assert path.read_bytes() == reference_snapshot_bytes(snap)
        assert path.read_bytes().split(b"\n")[1:3] == [
            b"q0,0.000000,0.000000,1.000000,1.000000",
            b"q1,0.000000,-0.000000,0.500000,1.000000",
        ]

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_percent_format(self, tmp_path_factory, data):
        snap = snapshots(data)
        path = tmp_path_factory.mktemp("snap") / "snap.csv"
        write_snapshot(snap, path)
        assert path.read_bytes() == reference_snapshot_bytes(snap)


class TestSnapshotOnePass:
    """``read_snapshot`` parses the plain form one line at a time; every
    file must come out as the row loop reads it."""

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_written_files_read_as_row_loop(self, tmp_path_factory, data):
        snap = snapshots(data)
        path = tmp_path_factory.mktemp("snap") / "snap.csv"
        write_snapshot(snap, path)
        want = snapshot_outcome(snapshot_rows, path)
        assert want[1:] == (snap.question_ids, snap.learner_ids)

        def no_row_loop(path):
            raise AssertionError("a plain file went to the row loop")

        with pytest.MonkeyPatch.context() as patch:
            # Plain ids and no -0.000000 cell: the one-pass form.
            if not any(byte in path.read_bytes() for byte in (b'"', b"-")):
                patch.setattr(diaggen.io, "_read_snapshot_rows", no_row_loop)
            assert snapshot_outcome(read_snapshot, path) == want

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text.replace(b"q0,0.250000", b"q0,1.000001"),
            lambda text: text.replace(b"q0,0.250000", b"q0,2.000000"),
            lambda text: text.replace(b"q0,0.250000", b"q0,0.2500001"),
            lambda text: text.replace(b"q0,0.250000", b"q0,0.25:000"),
            lambda text: text.replace(b"q0,0.250000", b"q0,0;250000"),
            lambda text: text.replace(b"q0,0.250000", b"q0,02.50000"),
            lambda text: text.replace(b"q0,0.250000", b"q0,0.25/000"),
            lambda text: text.replace(b"q0,0.250000,", b"q0,0.250000;"),
            lambda text: text.replace(b"q0,0.250000", b"q0,0.25000"),
            lambda text: text[:-1] + b",",
            lambda text: text.replace(b"q1,", b"q\x001,"),
            lambda text: text.replace(b"q1,", b"q\xff1,"),
            lambda text: text.replace(b"q1,", b"q\r1,"),
            lambda text: text.replace(b"q1,", b"q" * csv.field_size_limit() + b"1,"),
            lambda text: text.replace(b",l1,", b",l" * csv.field_size_limit() + b"1,"),
            lambda text: text.replace(b"\n", b"\r\n"),
            lambda text: text.replace(b"\nq1,", b"\n\nq1,"),
            lambda text: text.replace(b"\nq1,", b"\n \nq1,"),
            lambda text: text[:-1],
        ],
        ids=["1.000001", "2.000000", "7 decimals", "colon digit", "no dot", "dot moved",
             "slash digit", "semicolon", "line one byte short", "final comma", "NUL id",
             "non-UTF-8 id", "CR in id", "long question id", "long learner id", "CRLF",
             "blank line", "space line", "no final line end"],
    )
    def test_other_spellings_go_to_row_loop(self, tmp_path, edit):
        path = tmp_path / "snap.csv"
        write_snapshot(in_rows(np.full(10, 0.25)), path)
        path.write_bytes(edit(path.read_bytes()))
        assert plain_snapshot(path) is None
        assert snapshot_outcome(read_snapshot, path) == snapshot_outcome(snapshot_rows, path)

    def test_one_byte_edits_decline_as_before(self, tmp_path):
        # Each byte of the data lines in turn replaced: the one-pass parse
        # declines the file exactly when the rule it was first written with
        # does (a plain id, then per learner "d.dddddd" of at most 1.000000),
        # and read_snapshot reads every file as the row loop does.
        path = tmp_path / "snap.csv"
        write_snapshot(in_rows(np.array([0.25, 1.0, 0.0, 0.999999, 0.5, 1e-6]), width=3), path)
        text = path.read_bytes()
        body = text.index(b"\n") + 1
        cell = rb"(?:0\.[0-9]{6}|1\.000000)"
        plain = re.compile(rb'(?:[^,"\r\n\0]*,%s\n)+' % b",".join([cell] * 3))
        assert plain.fullmatch(text, body)
        for at in range(body, len(text)):
            for byte in b"019:/.,;\n-a\0":
                edited = text[:at] + bytes([byte]) + text[at + 1 :]
                path.write_bytes(edited)
                assert (plain_snapshot(path) is not None) == bool(plain.fullmatch(edited, body))
                want = snapshot_outcome(snapshot_rows, path)
                assert snapshot_outcome(read_snapshot, path) == want

    def test_memory(self, tmp_path):
        # 50 x 6000: at most the values, the copy Snapshot keeps and 1 MiB.
        rng = np.random.default_rng(3)
        snap = Snapshot(
            rng.random((50, 6000)),
            tuple(f"q{i}" for i in range(50)),
            tuple(f"l{j}" for j in range(6000)),
        )
        path = tmp_path / "snap.csv"
        for step in (lambda: write_snapshot(snap, path), lambda: read_snapshot(path)):
            tracemalloc.start()
            try:
                step()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 2 * snap.values.nbytes + (1 << 20)

    @needs_fifo
    def test_plain_read_from_a_pipe(self, tmp_path, monkeypatch):
        # A pipe cannot seek: it is read into memory, then parsed in one pass.
        path = tmp_path / "snap.csv"
        write_snapshot(in_rows(np.linspace(0.0, 1.0, 37), width=4), path)
        monkeypatch.setattr(diaggen.io, "_read_snapshot_rows", None)
        got = read_through_pipe(read_snapshot, tmp_path, path.read_bytes())
        want = snapshot_rows(path)
        assert got.values.tobytes() == want.values.tobytes()
        assert (got.question_ids, got.learner_ids) == (want.question_ids, want.learner_ids)

    def test_plain_read_keeps_one_copy(self, tmp_path):
        # The parsed rows are the snapshot's values: at most them and 1 MiB.
        rng = np.random.default_rng(4)
        snap = Snapshot(
            rng.random((50, 6000)),
            tuple(f"q{i}" for i in range(50)),
            tuple(f"l{j}" for j in range(6000)),
        )
        path = tmp_path / "snap.csv"
        write_snapshot(snap, path)
        assert plain_snapshot(path) is not None
        tracemalloc.start()
        try:
            got = read_snapshot(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= snap.values.nbytes + (1 << 20)
        assert got.values.tobytes() == snapshot_rows(path).values.tobytes()


@pytest.mark.parametrize("questions, time_ordered", [(50, False), (30, False), (50, True)])
def test_interaction_parse_memory(tmp_path, questions, time_ordered):
    # The benchmark's seed-101 logs, parsed a block of lines at a time: beyond
    # the file's bytes and the log's columns, the parse holds one block's
    # temporaries and a dict of each column's distinct ids, 2.8 MiB as
    # written and 3.1 MiB in time order, where every block holds most
    # learners. Parsing the whole file at once took 13.2, 8.1 and 10.2 MiB.
    # The bound does not grow with the log.
    _, log, _ = simulate(SimConfig(num_learners=6000, num_questions=questions, seed=101))
    path = tmp_path / "log.csv"
    write_interactions(log, path)
    if time_ordered:
        header, *lines = path.read_text().splitlines(keepends=True)
        path.write_text(header + "".join(lines[i] for i in np.lexsort((log.learner, log.order))))
    data = path.read_bytes()
    tracemalloc.start()
    try:
        columns = _interaction_columns(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - sum(column.nbytes for column in columns[2:]) <= 6 << 20
    assert InteractionLog._own(*columns) == _read_interaction_rows(data)


def test_distinct_learners_parse_memory():
    # 100,000 records of 100,000 learners: every block brings only new ids.
    # Beyond the fields it returns, the parse holds one block's temporaries
    # and the learners' dict, 9.3 MiB. Keeping the first field of each id
    # and merging the kept fields each time they doubled took 19.1 MiB.
    n = 100_000
    data = b"learner_id,question_id,correct,order\n" + b"".join(
        b"learner-%d,q%d,%d,%d\n" % (i, i % 50, i % 2, i % 7) for i in range(n)
    )
    tracemalloc.start()
    try:
        columns = _interaction_columns(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    returned = sum(column.nbytes for column in columns[2:]) + sum(
        sys.getsizeof(ids) + sum(map(sys.getsizeof, ids)) for ids in columns[:2]
    )
    assert peak - returned <= 12 << 20
    assert columns[0] == tuple(f"learner-{i}" for i in range(n))
    assert InteractionLog._own(*columns) == _read_interaction_rows(data)


@pytest.mark.parametrize(
    "read, header, line",
    [
        (read_interactions, b"learner_id,question_id,correct,order\r\n", b"l%d,q0,1,0\r\n"),
        (read_snapshot, b"question_id,l0\r\n", b"q%d,0.5\r\n"),
    ],
)
def test_row_loop_decodes_as_open(tmp_path, read, header, line):
    # The row loops decode a file's bytes as ``open`` decodes the file, so a
    # bad byte past the first chunk is named at the same position.
    path = tmp_path / "bad.csv"
    path.write_bytes(header + b"".join(line % i for i in range(2000)) + b"\xff\r\n")
    with open(path, encoding="utf-8", newline="") as fh, pytest.raises(UnicodeDecodeError) as want:
        list(csv.reader(fh))
    with pytest.raises(UnicodeDecodeError) as got:
        read(path)
    assert str(got.value) == str(want.value)


@needs_fifo
class TestReadOnce:
    """Each reader opens its file once, so a pipe holding a file that the
    one-pass parse declines reads as the same file on disk does."""

    @pytest.mark.parametrize(
        "data",
        [
            b"learner_id,question_id,correct,order\r\nl0,q0,1,0\r\nl1,q0,0,3\r\n",
            b"learner_id,question_id,correct,order\nl0,q0,1,0\nl1,q0,2,3\n",
            b"learner_id,question_id,correct,order\nl0,q0,1,0\nl1,q0,0,3\n",
        ],
    )
    def test_interactions(self, tmp_path, data):
        path = tmp_path / "log.csv"
        path.write_bytes(data)
        got = read_outcome(lambda pipe: read_through_pipe(read_interactions, tmp_path, data), path)
        assert got == read_outcome(read_interactions, path)

    @pytest.mark.parametrize(
        "data",
        [
            b"question_id,l0,l1\r\nq0,0.250000,1.000000\r\nq1,0.5,0\r\n",
            b"question_id,l0,l1\nq0,0.250000,1.000000\nq1,0.5\n",
        ],
    )
    def test_snapshot(self, tmp_path, data):
        path = tmp_path / "snap.csv"
        path.write_bytes(data)
        assert plain_snapshot(path) is None
        got = snapshot_outcome(lambda pipe: read_through_pipe(read_snapshot, tmp_path, data), path)
        assert got == snapshot_outcome(read_snapshot, path)


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

    def test_quoted_ids_round_trip(self, tmp_path):
        learners = ("a,b", 'say "hi"', "two\nlines", "cr\rid", "plain")
        questions = ("q,1", 'q"2', "q\r\n3")
        snap = Snapshot(np.full((3, 5), 0.25), questions, learners)
        path = tmp_path / "snap.csv"
        write_snapshot(snap, path)
        lines = path.read_bytes().split(b",0.250000,0.250000,0.250000,0.250000,0.250000\n")
        assert lines == [
            b'question_id,"a,b","say ""hi""","two\nlines","cr\rid",plain\n"q,1"',
            b'"q""2"',
            b'"q\r\n3"',
            b"",
        ]
        back = read_snapshot(path)
        assert back.learner_ids == learners
        assert back.question_ids == questions
        assert np.array_equal(back.values, snap.values)

    def rejects(self, tmp_path, text, message):
        """Both the one-pass parse and the row loop raise exactly ``message``."""
        path = tmp_path / "snap.csv"
        path.write_bytes(text.encode())
        for read in (read_snapshot, snapshot_rows):
            with pytest.raises(ValueError) as info:
                read(path)
            assert str(info.value) == message

    def test_duplicate_question_ids_rejected(self, tmp_path):
        self.rejects(
            tmp_path, "question_id,l0\nq0,0.5\nq1,0.5\nq0,0.5\n", "duplicate question ids"
        )

    def test_duplicate_learner_ids_rejected(self, tmp_path):
        self.rejects(tmp_path, "question_id,l0,l1,l0\nq0,0.5,0.5,0.5\n", "duplicate learner ids")

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

    def test_line_without_id_is_ragged(self, tmp_path):
        # As long as a one-learner line, but a single field.
        self.rejects(
            tmp_path,
            "question_id,l0\nq0,0.250000\n0.250000\n",
            "ragged row: expected 2 fields, got 1 (line 3)",
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

    def test_value_cell_over_field_limit_rejected(self, tmp_path):
        # A cell longer than "d.dddddd" goes to the row loop, whose csv
        # reader has the field limit.
        limit = csv.field_size_limit()
        self.rejects(
            tmp_path,
            "question_id,l0\nq0,0." + "0" * (limit + 8928) + "1\n",
            f"field larger than field limit ({limit}) (line 2)",
        )

    def test_value_cell_at_field_limit_read(self, tmp_path):
        limit = csv.field_size_limit()
        path = tmp_path / "snap.csv"
        path.write_text("question_id,l0\nq0,0." + "0" * (limit - 3) + "1\n")
        assert read_snapshot(path).values.tolist() == [[0.0]]
        assert snapshot_rows(path).values.tolist() == [[0.0]]

    def test_lines_over_field_limit_read_in_one_pass(self, tmp_path, monkeypatch):
        # Every line is longer than the field limit, every cell short.
        n_learners = csv.field_size_limit() // 9 + 1
        snap = Snapshot(
            np.full((2, n_learners), 0.5), ("q0", "q1"), tuple(f"l{j}" for j in range(n_learners))
        )
        path = tmp_path / "snap.csv"
        write_snapshot(snap, path)
        monkeypatch.setattr(diaggen.io, "_read_snapshot_rows", None)
        assert np.array_equal(read_snapshot(path).values, snap.values)

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

        if len(set(question_ids)) < n_questions or len(set(learner_ids)) < n_learners:
            outcomes = []
            for read in (snapshot_rows, read_snapshot):
                with pytest.raises(ValueError) as info:
                    read(path)
                outcomes.append(str(info.value))
            assert outcomes[0] == outcomes[1]
            assert outcomes[0] in ("duplicate question ids", "duplicate learner ids")
            return
        want = snapshot_rows(path)
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
        return snap, result, fitness(test, result.best)

    def test_consistency_and_structure(self, tmp_path):
        snap, result, test_rep = self.make_result()
        path = tmp_path / "result.json"
        record = result_record(
            result,
            question_ids=snap.question_ids,
            test_report=test_rep,
            swap_gain=0.25,
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
        snap, result, test_rep = self.make_result()
        doc = result_record(
            result,
            question_ids=snap.question_ids,
            test_report=test_rep,
            swap_gain=0.25,
            config={"seed": 11, "lambda": 0.4},
        )
        json.dumps(doc)  # raises if anything is not JSON-safe
        assert doc["evaluations"] == result.evaluations
        assert doc["swap_gain"] == 0.25
