"""Self-test of the benchmark: its checks and its step runner can fail.

Run from the root of a checkout (takes a few seconds):

    python3 perfbench/selftest.py

It builds a small world in ``.perfbench_work/selftest`` and shows that a
perturbed stored score, a duplicate gene, a lambda mismatch and a changed
output are rejected, that a raising step is counted as failed without
stopping the steps after it, and that tracing restores every wrapped name.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import shutil
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import tracing  # noqa: E402
from diaggen import cli  # noqa: E402
from diaggen.io import read_snapshot  # noqa: E402
from run import _count_failed  # noqa: E402
from worker import run_steps  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK = Path(".perfbench_work") / "selftest"
# A 200-learner version of the raw-log workload keeps the pipeline quick.
SMALL = dataclasses.replace(WORKLOADS["log-rasch-6k"], learners=200)


class ChecksCanFail(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        shutil.rmtree(WORK, ignore_errors=True)
        cls.inputs, cls.out = WORK / "inputs", WORK / "out"
        cls.inputs.mkdir(parents=True)
        cls.out.mkdir()
        sim = run_steps([("simulate", SMALL.simulate_argv(7, str(cls.inputs)))], cli.main)
        assert sim[0]["rc"] == 0, sim[0]["stderr"]
        cls.steps = run_steps(SMALL.pipeline(str(cls.inputs), str(cls.out)), cli.main)
        cls.record = json.loads((cls.out / "greedy.json").read_text(encoding="utf-8"))
        cls.snapshot = read_snapshot(cls.out / "estimated.csv")

    def check(self, steps=None):
        return checks.check_outputs("log-rasch-6k", self.inputs, self.out, steps or self.steps)

    def test_clean_pass_is_accepted(self):
        self.assertEqual(_count_failed([{"steps": self.steps}]), (4, 0))
        failures, values = self.check()
        self.assertEqual(failures, [])
        self.assertEqual(values["test_fitness"], self.record["test"]["fitness"])

    def test_perturbed_stored_fitness_is_rejected(self):
        self.assertEqual(checks.check_run(self.record, self.snapshot, 10, "greedy"), [])
        for block in ("train", "test"):
            bad = copy.deepcopy(self.record)
            bad[block]["fitness"] += 1e-9
            found = checks.check_run(bad, self.snapshot, 10, "greedy")
            self.assertEqual(len(found), 1, found)
            self.assertIn(f"stored {block} fitness", found[0])

    def test_perturbed_result_file_is_rejected(self):
        path = self.out / "greedy.json"
        original = path.read_bytes()
        bad = copy.deepcopy(self.record)
        bad["test"]["fitness"] += 1e-9
        try:
            path.write_text(json.dumps(bad), encoding="utf-8")
            failures, _ = self.check()
        finally:
            path.write_bytes(original)
        self.assertTrue(any("stored test fitness" in f for f in failures), failures)

    def test_duplicate_genes_are_rejected(self):
        bad = copy.deepcopy(self.record)
        bad["selected_questions"][1] = bad["selected_questions"][0]
        self.assertIn("distinct", checks.check_run(bad, self.snapshot, 10, "greedy")[0])

    def test_lambda_mismatch_is_rejected(self):
        steps = copy.deepcopy(self.steps)
        calibrate = next(s for s in steps if s["label"] == "calibrate")
        doc = json.loads(calibrate["stdout"])
        doc["lambda"] *= 1.5
        calibrate["stdout"] = json.dumps(doc) + "\n"
        failures, _ = self.check(steps)
        self.assertTrue(any("calibrate lambda" in f for f in failures), failures)

    def test_failed_step_output_is_rejected(self):
        steps = copy.deepcopy(self.steps)
        steps[0] |= {"rc": 1, "error": "error: simulated"}
        failures, _ = self.check(steps)
        self.assertTrue(failures)

    def test_changed_output_is_rejected(self):
        other = WORK / "other"
        shutil.rmtree(other, ignore_errors=True)
        shutil.copytree(self.out, other)
        steps = copy.deepcopy(self.steps)
        for step in steps:
            step["stdout"] = step["stdout"].replace(str(self.out), str(other))
        same = checks.compare_outputs(self.out, other, self.steps, steps)
        self.assertEqual(same, [])
        with open(other / "greedy.json", "a", encoding="utf-8") as fh:
            fh.write(" ")
        changed = checks.compare_outputs(self.out, other, self.steps, steps)
        self.assertEqual(changed, ["greedy.json differs between the two passes"])


class StepRunner(unittest.TestCase):
    def test_raising_step_is_counted_and_run_continues(self):
        def main(argv):
            if argv[0] == "boom":
                raise RuntimeError("step blew up")
            return cli.main(argv)

        steps = [
            ("boom", ["boom"]),
            ("bad_flag", ["search", "--no-such-flag"]),
            ("bad_input", ["calibrate", "--snapshot", str(WORK / "missing.csv"), "--k", "3"]),
            ("ok", SMALL.simulate_argv(3, str(WORK))),
        ]
        results = run_steps(steps, main)
        self.assertIsNone(results[0]["rc"])
        self.assertEqual(results[0]["error"], "RuntimeError: step blew up")
        self.assertEqual(results[1]["rc"], 2)
        self.assertEqual(results[2]["rc"], 1)
        self.assertEqual(results[3]["rc"], 0)
        self.assertEqual(_count_failed([{"steps": results}]), (4, 3))


class Tracing(unittest.TestCase):
    def test_names_are_restored(self):
        before = {id(v) for v in (cli.fit_rasch, cli.read_snapshot, vars(cli.CriteriaContext)["build"])}
        tracer = tracing.Tracer()
        restore = tracing.install(tracer)
        self.assertNotIn(id(cli.fit_rasch), before)
        restore()
        after = {id(v) for v in (cli.fit_rasch, cli.read_snapshot, vars(cli.CriteriaContext)["build"])}
        self.assertEqual(before, after)

    def test_layer_that_never_runs_reports_zero(self):
        metrics = tracing.layer_metrics(tracing.totals([]), 0)
        self.assertEqual(metrics["search.mutate_calls"], 0)
        self.assertEqual(metrics["criteria.distinct_rows_ratio"], 0.0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
