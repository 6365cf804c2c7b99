import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from diaggen.cli import derive_seeds, main


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

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--reg", "-1", "reg must be positive"),
            ("--reg", "0", "reg must be positive"),
            ("--tol", "-1", "tol must be positive"),
            ("--max-epochs", "0", "max_epochs must be at least 1"),
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
    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "calibrate",
            "--snapshot", str(tmp_path / "absent.csv"),
            "--k", "3",
        )
        assert code == 1
        assert err.startswith("error:") and "\n" not in err.strip()
