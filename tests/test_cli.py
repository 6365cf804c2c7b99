import argparse
import csv
import dataclasses
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

from diaggen import CriteriaContext, calibrate_lambda, split_learners
from diaggen.core import sigmoid
from diaggen.estimation import (
    correct_ratio_snapshot,
    fit_abilities,
    fit_rasch,
    per_question_sufficiency_curve,
    sufficiency_curve,
)
from diaggen.io import read_interactions, read_snapshot, write_interactions, write_snapshot
from diaggen.cli import build_parser, derive_seeds, main
from diaggen.search import GaConfig, ga_search, swap_gain
from diaggen.simulator import SimConfig, simulate

from conftest import learners_log

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture
def small_world(tmp_path, capsys):
    """A simulated interactions CSV plus its true snapshot."""
    interactions = tmp_path / "interactions.csv"
    truth = tmp_path / "truth.csv"
    code, out, err = run_cli(
        capsys,
        "simulate",
        "--learners", "40",
        "--questions", "12",
        "--seed", "5",
        "--interactions-out", str(interactions),
        "--snapshot-out", str(truth),
    )
    assert code == 0, err
    return interactions, truth


class TestSimulate:
    def test_deterministic_files(self, tmp_path, capsys):
        outs = []
        for tag in ("a", "b"):
            inter = tmp_path / f"{tag}.csv"
            snap = tmp_path / f"{tag}_snap.csv"
            code, out, err = run_cli(
                capsys,
                "simulate",
                "--learners", "10",
                "--seed", "1",
                "--interactions-out", str(inter),
                "--snapshot-out", str(snap),
            )
            assert code == 0, err
            outs.append((inter.read_bytes(), snap.read_bytes()))
        assert outs[0] == outs[1]

    def test_summary_line(self, small_world, capsys):
        interactions, truth = small_world
        doc = last_json(
            run_cli(
                capsys,
                "simulate",
                "--learners", "40",
                "--questions", "12",
                "--seed", "5",
                "--interactions-out", str(interactions),
                "--snapshot-out", str(truth),
            )[1]
        )
        assert doc["interactions"] == 480

    def test_growth_std_zero_accepted(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate",
            "--learners", "5",
            "--growth-std", "0",
            "--interactions-out", str(tmp_path / "i.csv"),
            "--snapshot-out", str(tmp_path / "s.csv"),
        )
        assert code == 0, err

    @pytest.mark.parametrize("flag", ["--growth-mean", "--growth-std"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_growth_rejected(self, tmp_path, capsys, flag, value):
        inter, snap = tmp_path / "i.csv", tmp_path / "s.csv"
        code, out, err = run_cli(
            capsys,
            "simulate",
            "--learners", "5",
            flag, value,
            "--interactions-out", str(inter),
            "--snapshot-out", str(snap),
        )
        name = flag[2:].replace("-", "_")
        assert (code, out, err) == (1, "", f"error: {name} must be finite\n")
        assert not inter.exists() and not snap.exists()


class TestEstimate:
    def test_rasch_with_truth_reports_correlation(self, small_world, tmp_path, capsys):
        interactions, truth = small_world
        out_path = tmp_path / "est.csv"
        code, out, err = run_cli(
            capsys,
            "estimate",
            "--interactions", str(interactions),
            "--estimator", "rasch",
            "--truth", str(truth),
            "--out", str(out_path),
        )
        assert code == 0, err
        doc = last_json(out)
        assert "pearson" in doc and "spearman" in doc
        assert doc["converged"] is True and 0 < doc["iterations"] < 50
        assert out_path.exists()

    def test_rasch_reports_groups_solved(self, small_world, tmp_path, capsys):
        interactions, _ = small_world
        code, out, err = run_cli(
            capsys,
            "estimate",
            "--interactions", str(interactions),
            "--out", str(tmp_path / "est.csv"),
        )
        assert code == 0, err
        # Every simulated learner answers every question, so the training
        # learners' distinct raw scores are the groups.
        log = read_interactions(interactions)
        train = split_learners(range(len(log.learner_ids)), 0.8, 0).train
        scores = np.bincount(log.learner, weights=log.correct)[list(train)]
        assert last_json(out)["groups"] == len(np.unique(scores))

    def test_rasch_reports_ability_fit(self, small_world, tmp_path, capsys):
        interactions, _ = small_world
        code, out, err = run_cli(
            capsys,
            "estimate",
            "--interactions", str(interactions),
            "--out", str(tmp_path / "est.csv"),
            "--max-epochs", "1",
        )
        assert code == 0, err
        doc = last_json(out)
        assert (doc["abilities_converged"], doc["abilities_iterations"]) == (False, 1)

    def test_ratio_names_questions_without_fitting_records(self, tmp_path, capsys):
        # Only learner c answers q2, and c is held out.
        assert 2 not in split_learners(range(5), 0.4, 1).train
        log = tmp_path / "log.csv"
        log.write_text(
            "learner_id,question_id,correct,order\n"
            + "".join(
                f"{l},q{q},{(q + j) % 2},{q}\n" for j, l in enumerate("abcde") for q in range(2)
            )
            + "c,q2,1,2\n"
        )
        out_path = tmp_path / "est.csv"
        code, out, err = run_cli(
            capsys, "estimate", "--interactions", str(log), "--estimator", "ratio",
            "--smoothing", "0", "--ratio", "0.4", "--split-seed", "1", "--out", str(out_path),
        )
        assert (code, out) == (1, "")
        assert err == "error: no records from the fitting learners for questions: ['q2']\n"
        assert not out_path.exists()

    @pytest.mark.parametrize("split_seed", [0, 1, 2, 3])
    def test_rasch_scores_a_question_only_held_out_learners_answered(
        self, tmp_path, capsys, split_seed
    ):
        # Only l19 answers qX; it is held out at split seeds 1 and 3.
        path = tmp_path / "log.csv"
        path.write_text(
            "learner_id,question_id,correct,order\n"
            + "".join(
                f"l{l},q{q},{int(l * (q + 2) % 7 < 4)},{q}\n" for l in range(20) for q in range(3)
            )
            + "l19,qX,1,9\n"
        )
        snapshots = {}
        for estimator in ("rasch", "ratio"):
            out_path = tmp_path / f"{estimator}.csv"
            code, _, err = run_cli(
                capsys, "estimate", "--interactions", str(path), "--estimator", estimator,
                "--split-seed", str(split_seed), "--out", str(out_path),
            )
            assert code == 0, err
            snapshots[estimator] = read_snapshot(out_path)
        rasch = snapshots["rasch"]
        assert set(rasch.question_ids) == set(snapshots["ratio"].question_ids)
        log = read_interactions(path)
        train = split_learners(range(len(log.learner_ids)), 0.8, split_seed).train
        model = fit_rasch(learners_log(log, train))
        scored = fit_abilities(model, log)
        assert (rasch.question_ids, rasch.learner_ids) == (scored.question_ids, scored.learner_ids)
        assert (19 not in train) == (split_seed in (1, 3))
        if 19 not in train:
            assert scored.question_ids[-1] == "qX" and scored.b[-1] == 0.0
            # The written digits are within 5e-7 of sigmoid(theta - 0).
            np.testing.assert_allclose(rasch.values[-1], sigmoid(scored.theta), rtol=0, atol=5e-7)

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--reg", "-1", "reg must be positive"),
            ("--reg", "0", "reg must be positive"),
            ("--tol", "-1", "tol must be positive"),
            ("--max-epochs", "0", "max_epochs must be at least 1"),
            ("--reg", "nan", "reg must be finite"),
            ("--reg", "inf", "reg must be finite"),
            ("--tol", "nan", "tol must be finite"),
            ("--tol", "inf", "tol must be finite"),
        ],
    )
    def test_unworkable_solver_settings_rejected(
        self, small_world, tmp_path, capsys, flag, value, message
    ):
        interactions, truth = small_world
        code, out, err = run_cli(
            capsys,
            "estimate",
            "--interactions", str(interactions),
            "--truth", str(truth),
            "--out", str(tmp_path / "est.csv"),
            flag, value,
        )
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"
        assert not (tmp_path / "est.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_smoothing_rejected(self, small_world, tmp_path, capsys, value):
        interactions, _ = small_world
        out_path = tmp_path / "est.csv"
        code, out, err = run_cli(
            capsys,
            "estimate",
            "--interactions", str(interactions),
            "--estimator", "ratio",
            "--out", str(out_path),
            "--smoothing", value,
        )
        assert (code, out, err) == (1, "", "error: smoothing must be finite\n")
        assert not out_path.exists()

    def test_quoted_learner_ids_survive_calibrate(self, tmp_path, capsys):
        log = tmp_path / "log.csv"
        log.write_text(
            "learner_id,question_id,correct,order\n"
            + "".join(
                f"{learner},q{q},{(q + j) % 2},{q}\n"
                for j, learner in enumerate(['"a,b"', '"say ""hi"""', "c", "d"])
                for q in range(4)
            )
        )
        est = tmp_path / "est.csv"
        code, _, err = run_cli(
            capsys, "estimate", "--interactions", str(log), "--estimator", "ratio",
            "--out", str(est),
        )
        assert code == 0, err
        assert est.read_text().splitlines()[0] == 'question_id,"a,b","say ""hi""",c,d'
        code, out, err = run_cli(capsys, "calibrate", "--snapshot", str(est), "--k", "2")
        assert code == 0, err
        assert last_json(out)["train_learners"] == 3

    def test_constant_truth_rejected(self, small_world, tmp_path, capsys):
        interactions, truth = small_world
        lines = truth.read_text().splitlines()
        flat = tmp_path / "flat.csv"
        flat.write_text(
            "\n".join([lines[0]] + [row.split(",")[0] + ",0.5" * 40 for row in lines[1:]]) + "\n"
        )
        code, _, err = run_cli(
            capsys,
            "estimate",
            "--interactions", str(interactions),
            "--estimator", "ratio",
            "--truth", str(flat),
            "--out", str(tmp_path / "est.csv"),
        )
        assert code == 1
        assert err == (
            "error: true per-learner mean performance is constant; correlation is undefined\n"
        )

    def test_without_truth_no_correlation_block(self, small_world, tmp_path, capsys):
        interactions, _ = small_world
        code, out, err = run_cli(
            capsys,
            "estimate",
            "--interactions", str(interactions),
            "--estimator", "ratio",
            "--out", str(tmp_path / "est.csv"),
        )
        assert code == 0, err
        doc = last_json(out)
        assert "pearson" not in doc
        assert "converged" not in doc and "iterations" not in doc

    def test_ratio_preserves_learner_ordering(self, small_world, tmp_path, capsys):
        from diaggen.io import read_interactions, read_snapshot

        interactions, _ = small_world
        out_path = tmp_path / "est.csv"
        run_cli(
            capsys,
            "estimate",
            "--interactions", str(interactions),
            "--estimator", "ratio",
            "--out", str(out_path),
        )
        snap = read_snapshot(out_path)
        log = read_interactions(interactions)
        raw_ratio = {
            lid: log.correct[log.learner == i].mean() for i, lid in enumerate(log.learner_ids)
        }
        col_mean = {
            lid: snap.values[:, i].mean() for i, lid in enumerate(snap.learner_ids)
        }
        ids = sorted(raw_ratio)
        order_raw = sorted(ids, key=lambda x: raw_ratio[x])
        order_col = sorted(ids, key=lambda x: col_mean[x])
        assert order_raw == order_col


class TestCalibrate:
    def test_prints_lambda(self, small_world, capsys):
        _, truth = small_world
        code, out, err = run_cli(
            capsys,
            "calibrate",
            "--snapshot", str(truth),
            "--k", "3",
            "--samples", "500",
        )
        assert code == 0, err
        doc = last_json(out)
        assert doc["lambda"] > 0
        assert doc["train_learners"] == 32

    def test_library_default_seed_matches_cli(self, small_world, capsys):
        _, truth = small_world
        code, out, err = run_cli(capsys, "calibrate", "--snapshot", str(truth), "--k", "3")
        assert code == 0, err
        snapshot = read_snapshot(truth)
        train = split_learners(range(snapshot.n_learners), 0.8, 0).train
        ctx = CriteriaContext.build(snapshot, train)
        assert last_json(out)["lambda"] == calibrate_lambda(ctx, 3)

    def test_unallocatable_sample_count_is_one_error_line(self, small_world, capsys):
        # numpy refuses the (10**13, K) array of draws before allocating.
        _, truth = small_world
        code, out, err = run_cli(
            capsys, "calibrate", "--snapshot", str(truth), "--k", "3",
            "--samples", "10000000000000",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1


class TestSearch:
    def run_search(self, capsys, truth, out_path, *extra):
        return run_cli(
            capsys,
            "search",
            "--snapshot", str(truth),
            "--k", "3",
            "--samples", "500",
            "--out", str(out_path),
            *extra,
        )

    def test_single_run_document(self, small_world, tmp_path, capsys):
        _, truth = small_world
        out_path = tmp_path / "res.json"
        code, out, err = self.run_search(
            capsys, truth, out_path, "--algo", "ga",
            "--population", "30", "--generations", "5", "--seed", "3",
        )
        assert code == 0, err
        doc = json.loads(out_path.read_text())
        assert doc["algorithm"] == "ga"
        for block in ("train", "test"):
            rep = doc[block]
            assert rep["fitness"] == pytest.approx(
                -rep["rmse"] + rep["lambda"] * rep["std"], abs=1e-9
            )
        assert len(doc["selected_questions"]) == 3

    def test_repeats_aggregate(self, small_world, tmp_path, capsys):
        _, truth = small_world
        out_path = tmp_path / "res.json"
        code, out, err = self.run_search(
            capsys, truth, out_path, "--algo", "random", "--seed", "9",
            "--repeats", "4",
        )
        assert code == 0, err
        doc = json.loads(out_path.read_text())
        assert doc["repeats"] == 4
        assert len(doc["runs"]) == 4
        assert doc["sub_seeds"] == derive_seeds(9, 4)
        assert len(set(doc["sub_seeds"])) == 4
        fits = [r["test"]["fitness"] for r in doc["runs"]]
        assert doc["summary"]["test"]["fitness"]["mean"] == pytest.approx(
            np.mean(fits), abs=1e-12
        )

    def test_repeat_reproducible_individually(self, small_world, tmp_path, capsys):
        _, truth = small_world
        agg_path = tmp_path / "agg.json"
        self.run_search(
            capsys, truth, agg_path, "--algo", "random", "--seed", "9",
            "--repeats", "3",
        )
        agg = json.loads(agg_path.read_text())
        sub_seed = agg["sub_seeds"][1]
        single_path = tmp_path / "single.json"
        self.run_search(
            capsys, truth, single_path, "--algo", "random",
            "--seed", str(sub_seed),
        )
        single = json.loads(single_path.read_text())
        run = agg["runs"][1]
        assert single["selected_questions"] == run["selected_questions"]
        assert single["test"] == run["test"]

    def test_brute_matches_ga_on_small_pool(self, small_world, tmp_path, capsys):
        _, truth = small_world
        brute_path = tmp_path / "brute.json"
        ga_path = tmp_path / "ga.json"
        self.run_search(capsys, truth, brute_path, "--algo", "brute")
        self.run_search(
            capsys, truth, ga_path, "--algo", "ga", "--population", "100",
            "--generations", "20", "--seed", "0",
        )
        brute = json.loads(brute_path.read_text())
        ga = json.loads(ga_path.read_text())
        assert ga["train"]["fitness"] <= brute["train"]["fitness"] + 1e-12
        assert ga["train"]["fitness"] == pytest.approx(
            brute["train"]["fitness"], abs=1e-9
        )
        assert brute["swap_gain"] <= 1e-12

    @pytest.mark.parametrize("algo", ["random", "greedy", "brute"])
    def test_every_record_carries_swap_gain(self, small_world, tmp_path, capsys, algo):
        _, truth = small_world
        out_path = tmp_path / "res.json"
        code, _, err = self.run_search(
            capsys, truth, out_path, "--algo", algo, "--repeats", "2"
        )
        assert code == 0, err
        snapshot = read_snapshot(truth)
        split = split_learners(range(snapshot.n_learners), 0.8, 0)
        for run in json.loads(out_path.read_text())["runs"]:
            ctx = CriteriaContext.build(snapshot, split.train, lam=run["config"]["lambda"])
            genes = [snapshot.question_ids.index(q) for q in run["selected_questions"]]
            assert run["swap_gain"] == swap_gain(ctx, genes)

    def test_k_too_large_fails_cleanly(self, small_world, tmp_path, capsys):
        _, truth = small_world
        code, out, err = self.run_search(
            capsys, truth, tmp_path / "x.json", "--algo", "greedy", "--k", "99",
        )
        assert code == 1
        assert err.startswith("error:")

    def test_zero_repeats_rejected(self, small_world, tmp_path, capsys):
        _, truth = small_world
        code, _, err = self.run_search(
            capsys, truth, tmp_path / "x.json", "--algo", "random", "--repeats", "0",
        )
        assert code == 1
        assert err == "error: repeats must be at least 1\n"

    @pytest.mark.parametrize("algo", ["greedy", "ga"])
    @pytest.mark.parametrize("repeats", ["1", "2"])
    def test_config_block_echoes_every_table_flag(self, small_world, tmp_path, capsys, algo,
                                                  repeats):
        _, truth = small_world
        out_path = tmp_path / "res.json"
        code, _, err = self.run_search(
            capsys, truth, out_path, "--algo", algo, "--repeats", repeats,
            "--population", "20", "--generations", "2",
        )
        assert code == 0, err
        doc = json.loads(out_path.read_text())
        # algo, k, lambda and seed, then the split, lambda and (for ga) GA flags.
        want = {"algo", "k", "lambda", "seed", "ratio", "split_seed", "samples", "lambda_seed"}
        if algo == "ga":
            want |= set(GA_FLAGS)
        for run in doc["runs"] if repeats == "2" else [doc]:
            assert set(run["config"]) == want

    def test_lambda_override_skips_calibration(self, small_world, tmp_path, capsys):
        _, truth = small_world
        out_path = tmp_path / "res.json"
        code, out, err = self.run_search(
            capsys, truth, out_path, "--algo", "greedy", "--lam", "0.3",
        )
        assert code == 0, err
        doc = json.loads(out_path.read_text())
        assert doc["config"]["lambda"] == 0.3

    def test_infinite_lambda_rejected(self, small_world, tmp_path, capsys):
        _, truth = small_world
        out_path = tmp_path / "res.json"
        code, out, err = self.run_search(
            capsys, truth, out_path, "--algo", "greedy", "--lam", "inf",
        )
        assert (code, out, err) == (1, "", "error: lam must be finite\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("algo", ["random", "greedy", "ga", "brute"])
    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_k_below_one_rejected(self, small_world, tmp_path, capsys, algo, k):
        _, truth = small_world
        out_path = tmp_path / "res.json"
        code, out, err = self.run_search(
            capsys, truth, out_path, "--algo", algo, "--lam", "1", "--k", k,
        )
        assert (code, out, err) == (1, "", "error: k must be at least 1\n")
        assert not out_path.exists()

    def test_unallocatable_population_is_one_error_line(self, small_world, tmp_path, capsys):
        _, truth = small_world
        out_path = tmp_path / "res.json"
        code, out, err = self.run_search(
            capsys, truth, out_path, "--algo", "ga", "--population", "10000000000000",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert not out_path.exists()


# The smallest result document evaluate accepts.
RESULT = {
    "config": {"ratio": 0.8, "split_seed": 0, "lambda": 0.5},
    "selected_questions": ["q0", "q1"],
}


class TestEvaluate:
    def test_recomputes_result_reports(self, small_world, tmp_path, capsys):
        _, truth = small_world
        res_path = tmp_path / "res.json"
        run_cli(
            capsys,
            "search",
            "--snapshot", str(truth),
            "--k", "3",
            "--samples", "500",
            "--algo", "greedy",
            "--out", str(res_path),
        )
        saved = json.loads(res_path.read_text())
        code, out, err = run_cli(
            capsys,
            "evaluate",
            "--snapshot", str(truth),
            "--result", str(res_path),
        )
        assert code == 0, err
        doc = last_json(out)
        for block in ("train", "test"):
            for key in ("rmse", "std", "fitness"):
                assert doc[block][key] == pytest.approx(
                    saved[block][key], abs=1e-9
                )

    def test_repeats_document_rescores_best_train_run(self, small_world, tmp_path, capsys):
        _, truth = small_world
        res_path = tmp_path / "res.json"
        code, _, err = run_cli(
            capsys,
            "search",
            "--snapshot", str(truth),
            "--k", "3",
            "--samples", "500",
            "--algo", "random",
            "--seed", "4",
            "--repeats", "5",
            "--out", str(res_path),
        )
        assert code == 0, err
        runs = json.loads(res_path.read_text())["runs"]
        fits = [run["train"]["fitness"] for run in runs]
        best = runs[fits.index(max(fits))]
        code, out, err = run_cli(
            capsys,
            "evaluate",
            "--snapshot", str(truth),
            "--result", str(res_path),
        )
        assert code == 0, err
        doc = last_json(out)
        assert doc["selected_questions"] == best["selected_questions"]
        assert doc["sub_seed"] == best["config"]["seed"]
        for block in ("train", "test"):
            assert doc[block] == pytest.approx(best[block], abs=1e-12)

    def test_repeats_document_tie_goes_to_first_run(self, small_world, tmp_path, capsys):
        _, truth = small_world
        res_path = tmp_path / "res.json"
        run_cli(
            capsys,
            "search",
            "--snapshot", str(truth),
            "--k", "3",
            "--samples", "500",
            "--algo", "greedy",
            "--repeats", "3",
            "--out", str(res_path),
        )
        doc = json.loads(res_path.read_text())
        # greedy ignores the seed, so all three runs tie
        assert len({run["train"]["fitness"] for run in doc["runs"]}) == 1
        code, out, err = run_cli(
            capsys, "evaluate", "--snapshot", str(truth), "--result", str(res_path)
        )
        assert code == 0, err
        assert last_json(out)["sub_seed"] == doc["sub_seeds"][0]

    def test_explicit_genes(self, small_world, capsys):
        _, truth = small_world
        code, out, err = run_cli(
            capsys,
            "evaluate",
            "--snapshot", str(truth),
            "--genes", "q0,q3,q7",
            "--lam", "0.4",
        )
        assert code == 0, err
        doc = last_json(out)
        assert doc["selected_questions"] == ["q0", "q3", "q7"]

    def test_unknown_gene_rejected(self, small_world, capsys):
        _, truth = small_world
        code, _, err = run_cli(
            capsys,
            "evaluate",
            "--snapshot", str(truth),
            "--genes", "nope",
            "--lam", "0.4",
        )
        assert code == 1 and "error:" in err

    def test_smallest_result_accepted(self, small_world, tmp_path, capsys):
        _, truth = small_world
        res_path = tmp_path / "res.json"
        res_path.write_text(json.dumps(RESULT))
        code, out, err = run_cli(
            capsys, "evaluate", "--snapshot", str(truth), "--result", str(res_path)
        )
        assert code == 0, err
        assert last_json(out)["selected_questions"] == ["q0", "q1"]

    def test_needs_genes_or_result(self, small_world, capsys):
        _, truth = small_world
        code, _, err = run_cli(capsys, "evaluate", "--snapshot", str(truth))
        assert code == 1 and "error:" in err

    def test_genes_split_defaults_to_the_search_split(self, small_world, capsys):
        _, truth = small_world
        argv = ["evaluate", "--snapshot", str(truth), "--genes", "q0,q3,q7", "--lam", "0.4"]
        outs = []
        for split in ([], ["--ratio", "0.8", "--split-seed", "0"], ["--ratio", "0.5"]):
            code, out, err = run_cli(capsys, *argv, *split)
            assert code == 0, err
            outs.append(last_json(out))
        assert outs[0] == outs[1] != outs[2]

    @pytest.mark.parametrize(
        "flag",
        [["--genes", "q2,q3"], ["--lam", "0.9"], ["--ratio", "0.5"], ["--split-seed", "3"]],
        ids=["genes", "lam", "ratio", "split-seed"],
    )
    def test_flag_beside_result_rejected(self, small_world, tmp_path, capsys, flag):
        # The result's genes, lambda and split are the ones scored: another
        # given beside them would be ignored.
        _, truth = small_world
        res_path = tmp_path / "res.json"
        res_path.write_text(json.dumps(RESULT))
        code, out, err = run_cli(
            capsys, "evaluate", "--snapshot", str(truth), "--result", str(res_path), *flag
        )
        assert code == 1 and out == ""
        assert err == "error: --result takes no --genes, --lam, --ratio or --split-seed\n"

    def test_invalid_json_result_names_the_file(self, small_world, tmp_path, capsys):
        _, truth = small_world
        res_path = tmp_path / "res.json"
        res_path.write_text("")
        code, out, err = run_cli(
            capsys, "evaluate", "--snapshot", str(truth), "--result", str(res_path)
        )
        assert code == 1 and out == ""
        assert err == f"error: {res_path}: Expecting value: line 1 column 1 (char 0)\n"

    @pytest.mark.parametrize(
        "document, message",
        [
            ({}, "result document has no 'config.ratio'"),
            ([1, 2], "result document has no 'config.ratio'"),
            ({"runs": []}, "result document has no runs"),
            ({"runs": [{"train": {}}]}, "result document has no 'train.fitness'"),
            (
                {**RESULT, "selected_questions": "q1"},
                "result field 'selected_questions' has the wrong type: \"q1\"",
            ),
            (
                {**RESULT, "selected_questions": [1]},
                "result field 'selected_questions' must list question ids",
            ),
            (
                {**RESULT, "config": {**RESULT["config"], "lambda": "big"}},
                "result field 'config.lambda' has the wrong type: \"big\"",
            ),
            (
                # json writes Infinity, which json.load reads back as inf
                {**RESULT, "config": {**RESULT["config"], "lambda": float("inf")}},
                "lam must be finite",
            ),
        ],
        ids=["empty", "not-object", "no-runs", "run-without-fitness", "ids-string",
             "ids-not-strings", "lambda-string", "lambda-infinite"],
    )
    def test_malformed_result_rejected(self, small_world, tmp_path, capsys, document, message):
        _, truth = small_world
        res_path = tmp_path / "res.json"
        res_path.write_text(json.dumps(document))
        code, out, err = run_cli(
            capsys, "evaluate", "--snapshot", str(truth), "--result", str(res_path)
        )
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "lam, message",
        [
            ("-1", "lam must be non-negative"),
            ("nan", "lam must be non-negative"),
            ("inf", "lam must be finite"),
        ],
        ids=["-1", "nan", "inf"],
    )
    def test_unusable_lambda_rejected(self, small_world, capsys, lam, message):
        _, truth = small_world
        code, _, err = run_cli(
            capsys, "evaluate", "--snapshot", str(truth), "--genes", "q0,q1", "--lam", lam
        )
        assert code == 1
        assert err == f"error: {message}\n"


class TestSufficiency:
    def test_curve_csv(self, small_world, tmp_path, capsys):
        _, truth = small_world
        out_path = tmp_path / "curve.csv"
        code, out, err = run_cli(
            capsys,
            "sufficiency",
            "--snapshot", str(truth),
            "--step", "5",
            "--out", str(out_path),
        )
        assert code == 0, err
        lines = out_path.read_text().splitlines()
        assert lines[0] == "count,delta"
        # 40 learners at step 5: grid 5..40, curve starts at the second point
        assert len(lines) - 1 == 7
        doc = last_json(out)
        assert doc["points"] == 7

    def test_per_question_flag(self, small_world, tmp_path, capsys):
        _, truth = small_world
        code, _, err = run_cli(
            capsys,
            "sufficiency",
            "--snapshot", str(truth),
            "--step", "10",
            "--per-question",
            "--out", str(tmp_path / "c.csv"),
        )
        assert code == 0, err


    @pytest.mark.parametrize("per_question", [False, True], ids=["overall", "per-question"])
    @pytest.mark.parametrize(
        "setting, message",
        [
            (("--step", "0"), "step must be at least 1"),
            (("--window", "0"), "window must be at least 1"),
            (("--epsilon", "0"), "epsilon must be positive"),
            (("--epsilon", "-1"), "epsilon must be positive"),
            (("--epsilon", "nan"), "epsilon must be positive"),
        ],
        ids=["step-0", "window-0", "epsilon-0", "epsilon-negative", "epsilon-nan"],
    )
    def test_bad_settings_rejected(
        self, small_world, tmp_path, capsys, per_question, setting, message
    ):
        _, truth = small_world
        out_path = tmp_path / "c.csv"
        flags = ["--per-question"] if per_question else []
        code, out, err = run_cli(
            capsys, "sufficiency", "--snapshot", str(truth), "--out", str(out_path),
            *setting, *flags,
        )
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not out_path.exists()


class TestConfigOverride:
    def test_config_file_wins(self, small_world, tmp_path, capsys):
        _, truth = small_world
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"k": 2, "samples": 300}))
        out_path = tmp_path / "res.json"
        code, _, err = run_cli(
            capsys,
            "search",
            "--snapshot", str(truth),
            "--k", "5",
            "--algo", "greedy",
            "--out", str(out_path),
            "--config", str(cfg_path),
        )
        assert code == 0, err
        doc = json.loads(out_path.read_text())
        assert doc["config"]["k"] == 2
        assert len(doc["selected_questions"]) == 2

    def test_result_config_block_reruns_the_search(self, small_world, tmp_path, capsys):
        _, truth = small_world
        first = tmp_path / "first.json"
        code, _, err = run_cli(
            capsys, "search", "--snapshot", str(truth), "--algo", "ga", "--k", "3",
            "--ratio", "0.7", "--split-seed", "2", "--samples", "300", "--lambda-seed", "3",
            "--seed", "4", "--out", str(first), *flag_argv(GA_FLAGS),
        )
        assert code == 0, err
        doc = json.loads(first.read_text())
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc["config"]))
        # The block's keys override every flag given here, "lambda" as --lam.
        again = tmp_path / "again.json"
        code, _, err = run_cli(
            capsys, "search", "--snapshot", str(truth), "--algo", "greedy", "--k", "1",
            "--out", str(again), "--config", str(cfg_path),
        )
        assert code == 0, err
        rerun = json.loads(again.read_text())
        assert rerun["selected_questions"] == doc["selected_questions"]
        assert rerun["config"] == doc["config"]

    def test_lambda_key_rejected_where_there_is_no_lam(self, small_world, tmp_path, capsys):
        _, truth = small_world
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lambda": 0.5}))
        code, _, err = run_cli(
            capsys, "calibrate", "--snapshot", str(truth), "--k", "3", "--config", str(cfg_path)
        )
        assert code == 1 and err == "error: unknown config key 'lambda'\n"

    def test_invalid_json_names_the_file(self, small_world, tmp_path, capsys):
        _, truth = small_world
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"k": 3,}')
        code, out, err = run_cli(
            capsys, "calibrate", "--snapshot", str(truth), "--k", "3", "--config", str(cfg_path)
        )
        assert code == 1 and out == ""
        assert err == (
            f"error: {cfg_path}: Expecting property name enclosed in double quotes: "
            "line 1 column 9 (char 8)\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [["calibrate", "--k", "3", "--config"], ["evaluate", "--result"]],
        ids=["config", "result"],
    )
    @pytest.mark.parametrize(
        "text",
        ["[" * 100_000 + "]" * 100_000, '{"a": ' * 5_000 + "1" + "}" * 5_000],
        ids=["array", "object"],
    )
    def test_deeply_nested_json_names_the_file(self, small_world, tmp_path, capsys, argv, text):
        # Past the recursion limit the decoder raises RecursionError, not
        # ValueError; it still ends in one error line.
        _, truth = small_world
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, argv[0], "--snapshot", str(truth), *argv[1:], str(path))
        assert (code, out, err) == (1, "", f"error: {path}: JSON nested too deeply\n")

    def test_unknown_key_rejected(self, small_world, tmp_path, capsys):
        _, truth = small_world
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"nonsense": 1}))
        code, _, err = run_cli(
            capsys,
            "calibrate",
            "--snapshot", str(truth),
            "--k", "3",
            "--config", str(cfg_path),
        )
        assert code == 1 and "unknown config key" in err


    def run_with_config(self, capsys, tmp_path, truth, overrides):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(overrides))
        return run_cli(
            capsys,
            "search",
            "--snapshot", str(truth),
            "--k", "3",
            "--samples", "300",
            "--algo", "greedy",
            "--out", str(tmp_path / "res.json"),
            "--config", str(cfg_path),
        )

    def test_string_for_int_rejected(self, small_world, tmp_path, capsys):
        _, truth = small_world
        code, _, err = self.run_with_config(capsys, tmp_path, truth, {"k": "5"})
        assert code == 1
        assert err == "error: config key 'k' must be of type int, got \"5\"\n"

    def test_list_for_int_rejected(self, small_world, tmp_path, capsys):
        _, truth = small_world
        code, _, err = self.run_with_config(capsys, tmp_path, truth, {"k": [3]})
        assert code == 1
        assert err == "error: config key 'k' must be of type int, got [3]\n"

    def test_zero_repeats_rejected(self, small_world, tmp_path, capsys):
        _, truth = small_world
        code, _, err = self.run_with_config(capsys, tmp_path, truth, {"repeats": 0})
        assert code == 1
        assert err == "error: repeats must be at least 1\n"

    def test_store_true_flag_needs_bool(self, small_world, tmp_path, capsys):
        _, truth = small_world
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"per_question": "yes"}))
        code, _, err = run_cli(
            capsys,
            "sufficiency",
            "--snapshot", str(truth),
            "--out", str(tmp_path / "c.csv"),
            "--config", str(cfg_path),
        )
        assert code == 1
        assert err == "error: config key 'per_question' must be true or false\n"

    def test_removed_track_best_ever_key_rejected(self, small_world, tmp_path, capsys):
        _, truth = small_world
        code, _, err = self.run_with_config(
            capsys, tmp_path, truth, {"track_best_ever": True}
        )
        assert code == 1
        assert err == "error: unknown config key 'track_best_ever'\n"

    def test_choices_enforced(self, small_world, tmp_path, capsys):
        _, truth = small_world
        code, _, err = self.run_with_config(capsys, tmp_path, truth, {"algo": "anneal"})
        assert code == 1
        assert err.startswith("error: config key 'algo' must be one of")

    def test_int_accepted_for_float_flag(self, small_world, tmp_path, capsys):
        _, truth = small_world
        code, _, err = self.run_with_config(
            capsys, tmp_path, truth, {"lam": 1, "lambda-seed": 2}
        )
        assert code == 0, err
        doc = json.loads((tmp_path / "res.json").read_text())
        assert doc["config"]["lambda"] == 1.0


# A non-default value for each simulate and GA flag, under its dest, and the
# SimConfig or GaConfig field the flag sets; no two values of a table are equal.
SIM_FLAGS = {
    "learners": ("num_learners", 30),
    "questions": ("num_questions", 14),
    "concepts": ("num_concepts", 3),
    "slip": ("slip", 0.2),
    "growth_mean": ("growth_mean", 0.3),
    "growth_std": ("growth_std", 0.07),
    "seed": ("seed", 9),
}
GA_FLAGS = {
    "population": ("population_size", 40),
    "generations": ("generations", 3),
    "pc": ("p_c", 0.6),
    "pm1": ("p_m1", 0.4),
    "pm2": ("p_m2", 0.15),
    "tournament_fraction": ("tournament_fraction", 0.2),
}

# The required flags of each subcommand, with placeholder values.
REQUIRED = {
    "simulate": ["--learners", "1", "--interactions-out", "i.csv", "--snapshot-out", "s.csv"],
    "estimate": ["--interactions", "i.csv", "--out", "s.csv"],
    "calibrate": ["--snapshot", "s.csv", "--k", "1"],
    "search": ["--snapshot", "s.csv", "--algo", "ga", "--k", "1", "--out", "r.json"],
    "evaluate": ["--snapshot", "s.csv"],
    "sufficiency": ["--snapshot", "s.csv", "--out", "c.csv"],
}


def flag_argv(flags):
    return [
        arg
        for dest, (_, value) in flags.items()
        for arg in (f"--{dest.replace('_', '-')}", str(value))
    ]


def parser_defaults(command):
    return vars(build_parser().parse_args([command, *REQUIRED[command]]))


def flag_action(command, dest):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == dest)


class TestFlagsReachTheLibrary:
    def test_simulate_flags_reach_sim_config(self, tmp_path, capsys):
        got = tmp_path / "i.csv", tmp_path / "s.csv"
        code, _, err = run_cli(
            capsys, "simulate", *flag_argv(SIM_FLAGS),
            "--interactions-out", str(got[0]), "--snapshot-out", str(got[1]),
        )
        assert code == 0, err
        _, log, truth = simulate(SimConfig(**dict(SIM_FLAGS.values())))
        want = tmp_path / "want-i.csv", tmp_path / "want-s.csv"
        write_interactions(log, want[0])
        write_snapshot(truth, want[1])
        for got_path, want_path in zip(got, want):
            assert got_path.read_bytes() == want_path.read_bytes()

    def test_ga_flags_reach_ga_config_and_the_echo(self, small_world, tmp_path, capsys):
        _, truth = small_world
        out_path = tmp_path / "res.json"
        code, _, err = run_cli(
            capsys, "search", "--snapshot", str(truth), "--algo", "ga", "--k", "3",
            "--lam", "0.4", "--seed", "4", "--out", str(out_path), *flag_argv(GA_FLAGS),
        )
        assert code == 0, err
        doc = json.loads(out_path.read_text())
        snapshot = read_snapshot(truth)
        split = split_learners(range(snapshot.n_learners), 0.8, 0)
        ctx = CriteriaContext.build(snapshot, split.train, lam=0.4)
        result = ga_search(ctx, GaConfig(k=3, seed=4, **dict(GA_FLAGS.values())))
        assert doc["selected_questions"] == [snapshot.question_ids[g] for g in result.best]
        assert doc["history"] == json.loads(json.dumps([list(h) for h in result.history]))
        assert {dest: doc["config"][dest] for dest in GA_FLAGS} == {
            dest: value for dest, (_, value) in GA_FLAGS.items()
        }

    @pytest.mark.parametrize(
        "command, config, flags",
        [("simulate", SimConfig, SIM_FLAGS), ("search", GaConfig, GA_FLAGS)],
    )
    def test_config_flag_defaults_are_the_dataclass_defaults(self, command, config, flags):
        defaults = parser_defaults(command)
        fields = {field.name: field.default for field in dataclasses.fields(config)}
        for dest, (field, _) in flags.items():
            # --learners is required, as num_learners has no default.
            if fields[field] is not dataclasses.MISSING:
                assert defaults[dest] == fields[field], dest

    @pytest.mark.parametrize(
        "command, dest, functions, parameter",
        [
            ("calibrate", "samples", [calibrate_lambda], "n_samples"),
            ("calibrate", "lambda_seed", [calibrate_lambda], "seed"),
            ("search", "samples", [calibrate_lambda], "n_samples"),
            ("search", "lambda_seed", [calibrate_lambda], "seed"),
            ("estimate", "reg", [fit_rasch], "reg"),
            ("estimate", "max_epochs", [fit_rasch], "max_epochs"),
            ("estimate", "tol", [fit_rasch], "tol"),
            ("estimate", "smoothing", [correct_ratio_snapshot], "smoothing"),
            *(
                ("sufficiency", name, [sufficiency_curve, per_question_sufficiency_curve], name)
                for name in ("epsilon", "window", "seed")
            ),
            ("sufficiency", "step", [sufficiency_curve, per_question_sufficiency_curve], "step"),
            *(
                (command, dest, [split_learners], parameter)
                for command in ("estimate", "calibrate", "search")
                for dest, parameter in (("ratio", "ratio"), ("split_seed", "seed"))
            ),
            *(("simulate", dest, [SimConfig], field) for dest, (field, _) in SIM_FLAGS.items()),
            *(("search", dest, [GaConfig], field) for dest, (field, _) in GA_FLAGS.items()),
        ],
    )
    def test_flag_defaults_are_the_library_defaults(self, command, dest, functions, parameter):
        action = flag_action(command, dest)
        for function in functions:
            default = inspect.signature(function).parameters[parameter].default
            assert action.type is get_type_hints(function)[parameter]
            if default is inspect.Parameter.empty:
                assert action.required
            else:
                assert parser_defaults(command)[dest] == default

    def test_traced_parse_equals_the_untraced_parse(self, monkeypatch):
        # perfbench/tracing.py rebinds the library names in diaggen.cli
        # before a traced pass parses its flags.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        tracing = importlib.import_module("tracing")
        want = {command: parser_defaults(command) for command in REQUIRED}
        restore = tracing.install(tracing.Tracer())
        try:
            got = {command: parser_defaults(command) for command in REQUIRED}
        finally:
            restore()
        assert got == want


def test_cli_import_loads_no_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = (
        "import sys, diaggen.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


class TestErrorReporting:
    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("simulate", "--seed"),
            ("search", "--seed"),
            ("search-brute", "--seed"),
            ("sufficiency", "--seed"),
            ("estimate", "--split-seed"),
            ("calibrate", "--split-seed"),
            ("search", "--split-seed"),
            ("evaluate", "--split-seed"),
            ("calibrate", "--lambda-seed"),
            ("search", "--lambda-seed"),
        ],
    )
    def test_negative_seed_names_its_flag(self, small_world, tmp_path, capsys, command, flag, via):
        interactions, truth = small_world
        search = ["--snapshot", str(truth), "--k", "3", "--out", str(tmp_path / "r.json")]
        argv = {
            "simulate": [
                "--learners", "5", "--interactions-out", str(tmp_path / "i.csv"),
                "--snapshot-out", str(tmp_path / "s.csv"),
            ],
            "search": [*search, "--algo", "greedy"],
            "search-brute": [*search, "--algo", "brute"],
            "sufficiency": ["--snapshot", str(truth), "--out", str(tmp_path / "c.csv")],
            "estimate": ["--interactions", str(interactions), "--out", str(tmp_path / "e.csv")],
            "calibrate": ["--snapshot", str(truth), "--k", "3"],
            "evaluate": [
                "--snapshot", str(truth), "--lam", "0.5",
                "--genes", ",".join(read_snapshot(truth).question_ids[:3]),
            ],
        }[command]
        if via == "flag":
            argv += [flag, "-1"]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({flag[2:].replace("-", "_"): -1}))
            argv += ["--config", str(config)]
        files = set(tmp_path.iterdir())
        code, out, err = run_cli(capsys, command.split("-")[0], *argv)
        assert (code, out, err) == (1, "", f"error: {flag} must be non-negative\n")
        assert set(tmp_path.iterdir()) == files

    @pytest.mark.parametrize(
        "command, document, message",
        [
            ("search", {"pc": 10**400}, "config key 'pc' is too large for a float"),
            ("search", {"lambda": 10**400}, "config key 'lambda' is too large for a float"),
            ("search", None, "--repeats 100000000000000000000000 is too large"),
            (
                "evaluate",
                {**RESULT, "config": {**RESULT["config"], "split_seed": -1}},
                "result field 'config.split_seed' must be non-negative",
            ),
            (
                "evaluate",
                {**RESULT, "config": {**RESULT["config"], "lambda": 10**400}},
                "lam must be finite",
            ),
        ],
        ids=["config-float", "config-lambda", "repeats", "result-split-seed", "result-lambda"],
    )
    def test_out_of_range_number_is_one_error_line(
        self, small_world, tmp_path, capsys, command, document, message
    ):
        _, truth = small_world
        out_path = tmp_path / "r.json"
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(document))
        if command == "evaluate":
            argv = ["evaluate", "--snapshot", str(truth), "--result", str(doc_path)]
        else:
            argv = [
                "search", "--snapshot", str(truth), "--algo", "ga", "--k", "3",
                "--out", str(out_path),
                *(["--config", str(doc_path)] if document else
                  ["--repeats", "100000000000000000000000"]),
            ]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not out_path.exists()

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "calibrate",
            "--snapshot", str(tmp_path / "absent.csv"),
            "--k", "3",
        )
        assert code == 1
        assert err.startswith("error:") and "\n" not in err.strip()

    def test_overlong_learner_id_in_log(self, capsys, tmp_path):
        log = tmp_path / "log.csv"
        log.write_text(
            f"learner_id,question_id,correct,order\nl0,q0,1,0\n{'x' * 200_000},q0,1,0\n"
        )
        code, out, err = run_cli(
            capsys, "estimate", "--interactions", str(log), "--out", str(tmp_path / "est.csv")
        )
        limit = csv.field_size_limit()
        assert (code, out, err) == (
            1, "", f"error: field larger than field limit ({limit}) (line 3)\n"
        )

    def test_duplicate_question_ids_in_snapshot(self, capsys, tmp_path):
        snap = tmp_path / "snap.csv"
        snap.write_text("question_id,l0,l1\nq0,0.9,0.1\nq0,0.2,0.8\nq1,0.5,0.5\n")
        code, out, err = run_cli(
            capsys, "search", "--snapshot", str(snap), "--algo", "brute", "--k", "2",
            "--lam", "1", "--ratio", "0.5", "--out", str(tmp_path / "result.json"),
        )
        assert (code, out, err) == (1, "", "error: duplicate question ids\n")
        assert not (tmp_path / "result.json").exists()

    @pytest.mark.parametrize("where", ["header", "question id"])
    def test_overlong_id_in_snapshot(self, capsys, tmp_path, where):
        long_id = "x" * 200_000
        snap = tmp_path / "snap.csv"
        if where == "header":
            snap.write_text(f"question_id,l0,{long_id}\nq0,0.5,0.5\nq1,0.5,0.5\n")
        else:
            snap.write_text(f"question_id,l0,l1\nq0,0.5,0.5\n{long_id},0.5,0.5\n")
        code, out, err = run_cli(capsys, "calibrate", "--snapshot", str(snap), "--k", "1")
        line = 1 if where == "header" else 3
        limit = csv.field_size_limit()
        assert (code, out, err) == (
            1, "", f"error: field larger than field limit ({limit}) (line {line})\n"
        )
