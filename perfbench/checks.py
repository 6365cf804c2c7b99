"""Correctness checks on the outputs of one benchmark pass.

Every stored score is re-computed with ``fitness()`` on freshly built
contexts, so a fast path that drifts from the reference shows up as a
failed check rather than as a better time.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any

from diaggen.core import Snapshot, split_learners
from diaggen.criteria import CriteriaContext, fitness
from diaggen.io import read_snapshot

TOL = 1e-12

_CREATED_AT = re.compile(rb'^\s*"created_at": .*\n', re.MULTILINE)


class CheckError(Exception):
    """An output is missing or malformed, so the check cannot go on."""


def printed(step: dict[str, Any]) -> dict[str, Any]:
    """The one-line JSON summary a successful step printed."""
    if step["rc"] != 0:
        raise CheckError(f"step {step['label']} failed: {step['error']}")
    lines = step["stdout"].strip().splitlines()
    if not lines:
        raise CheckError(f"step {step['label']} printed nothing")
    return json.loads(lines[-1])


def _load(path: Path) -> dict[str, Any]:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckError(f"cannot read {path.name}: {exc}") from exc


def check_run(record: dict[str, Any], snapshot: Snapshot, k: int, label: str) -> list[str]:
    """One search run: K distinct snapshot ids, and stored train and test
    scores equal to an independent re-score within TOL."""
    selected = record["selected_questions"]
    known = set(snapshot.question_ids)
    if len(selected) != k or len(set(selected)) != k or not set(selected) <= known:
        return [f"{label}: selected questions are not {k} distinct snapshot ids: {selected}"]
    failures = []
    config = record["config"]
    lam = config["lambda"]
    qpos = {qid: i for i, qid in enumerate(snapshot.question_ids)}
    genes = [qpos[qid] for qid in selected]
    split = split_learners(range(snapshot.n_learners), config["ratio"], config["split_seed"])
    for block, learners in (("train", split.train), ("test", split.test)):
        report = fitness(CriteriaContext.build(snapshot, learners, lam=lam), genes)
        fresh = {"rmse": report.rmse, "std": report.std, "fitness": report.fitness, "lambda": report.lam}
        for key, value in fresh.items():
            stored = record[block][key]
            if not abs(stored - value) <= TOL:
                failures.append(f"{label}: stored {block} {key} {stored!r} != re-scored {value!r}")
    return failures


def _same_scores(evaluated: dict[str, Any], record: dict[str, Any], label: str) -> list[str]:
    """evaluate's printed re-score against the search record it read."""
    if evaluated["selected_questions"] != record["selected_questions"]:
        return [f"{label}: evaluated a different selection"]
    return [
        f"{label}: {block} fitness {evaluated[block]['fitness']!r} != stored {record[block]['fitness']!r}"
        for block in ("train", "test")
        if not abs(evaluated[block]["fitness"] - record[block]["fitness"]) <= TOL
    ]


def _estimated(path: Path, truth: Snapshot) -> Snapshot:
    snapshot = read_snapshot(path)
    if set(snapshot.question_ids) != set(truth.question_ids) or set(
        snapshot.learner_ids
    ) != set(truth.learner_ids):
        raise CheckError(f"{path.name} does not cover the simulated questions and learners")
    return snapshot


def _pearson(step: dict[str, Any]) -> float:
    pearson = printed(step)["pearson"]
    if not -1.0 <= pearson <= 1.0:
        raise CheckError(f"pearson {pearson!r} is not a correlation")
    return pearson


def _log_rasch(inputs: Path, out: Path, steps: dict[str, dict]) -> tuple[list[str], dict]:
    truth = read_snapshot(inputs / "truth.csv")
    estimated = _estimated(out / "estimated.csv", truth)
    pearson = _pearson(steps["estimate"])
    record = _load(out / "greedy.json")
    failures = check_run(record, estimated, 10, "greedy")
    calibrated = printed(steps["calibrate"])["lambda"]
    if calibrated != record["config"]["lambda"]:
        failures.append(f"calibrate lambda {calibrated!r} != search lambda {record['config']['lambda']!r}")
    failures += _same_scores(printed(steps["evaluate"]), record, "evaluate")
    return failures, {"test_fitness": record["test"]["fitness"], "pearson": pearson}


def _snapshot_ga(inputs: Path, out: Path, steps: dict[str, dict]) -> tuple[list[str], dict]:
    truth = read_snapshot(inputs / "truth.csv")
    failures = []
    rows = (out / "curve.csv").read_text(encoding="utf-8").splitlines()
    counts = [int(row.split(",")[0]) for row in rows[1:]]
    deltas = [float(row.split(",")[1]) for row in rows[1:]]
    if rows[:1] != ["count,delta"] or not counts or printed(steps["sufficiency"])["points"] != len(counts):
        failures.append("sufficiency curve does not match its summary")
    if any(b <= a for a, b in zip(counts, counts[1:])) or min(deltas, default=0.0) < 0:
        failures.append("sufficiency counts must increase and deltas be non-negative")

    doc = _load(out / "ga.json")
    runs = doc["runs"]
    if doc["repeats"] != 10 or len(runs) != 10 or len(set(doc["sub_seeds"])) != 10:
        failures.append("the GA document does not hold 10 distinct repeats")
    for i, run in enumerate(runs):
        failures += check_run(run, truth, 10, f"ga run {i}")
        if run["config"]["seed"] != doc["sub_seeds"][i]:
            failures.append(f"ga run {i} does not carry its sub-seed")
    if len({run["config"]["lambda"] for run in runs}) != 1:
        failures.append("GA repeats used different lambdas")
    test_fitness = math.fsum(run["test"]["fitness"] for run in runs) / len(runs)
    if not abs(doc["summary"]["test"]["fitness"]["mean"] - test_fitness) <= TOL:
        failures.append("GA summary test fitness is not the mean of its runs")
    # README step 5 on a repeats document fails today; the failed step is
    # counted by the runner and the genes are re-scored above instead.
    if steps["evaluate"]["rc"] == 0:
        evaluated = printed(steps["evaluate"])
        matching = [r for r in runs if r["selected_questions"] == evaluated["selected_questions"]]
        if not matching:
            failures.append("evaluate scored a selection that is not in the GA document")
        else:
            failures += _same_scores(evaluated, matching[0], "evaluate")
    # The searched snapshot is the true one, so its correlation with the
    # truth is 1 by construction.
    return failures, {"test_fitness": test_fitness, "pearson": 1.0}


def _pool30_brute(inputs: Path, out: Path, steps: dict[str, dict]) -> tuple[list[str], dict]:
    truth = read_snapshot(inputs / "truth.csv")
    estimated = _estimated(out / "estimated.csv", truth)
    pearson = _pearson(steps["estimate"])
    brute = _load(out / "brute.json")
    greedy = _load(out / "greedy.json")
    failures = check_run(brute, estimated, 5, "brute") + check_run(greedy, estimated, 5, "greedy")
    expected = math.comb(estimated.n_questions, 5)
    if brute["evaluations"] != expected:
        failures.append(f"brute evaluated {brute['evaluations']} subsets, not C(30,5) = {expected}")
    if brute["config"]["lambda"] != greedy["config"]["lambda"]:
        failures.append("brute and greedy were calibrated differently")
    if brute["train"]["fitness"] < greedy["train"]["fitness"]:
        failures.append("greedy beat the exhaustive optimum on the training learners")
    failures += _same_scores(printed(steps["evaluate"]), brute, "evaluate")
    return failures, {"test_fitness": brute["test"]["fitness"], "pearson": pearson}


_CHECKS = {
    "log-rasch-6k": _log_rasch,
    "snapshot-ga-6k": _snapshot_ga,
    "pool30-brute": _pool30_brute,
}


def check_outputs(
    workload: str, inputs: Path, out: Path, steps: list[dict[str, Any]]
) -> tuple[list[str], dict[str, float]]:
    """(failures, quality values) for one pass of a workload."""
    by_label = {step["label"]: step for step in steps}
    try:
        return _CHECKS[workload](Path(inputs), Path(out), by_label)
    except (CheckError, OSError, KeyError, ValueError, TypeError) as exc:
        return [f"{workload}: {type(exc).__name__}: {exc}"], {}


def compare_outputs(
    a: Path, b: Path, steps_a: list[dict[str, Any]], steps_b: list[dict[str, Any]]
) -> list[str]:
    """Outputs of two passes must be byte-identical apart from created_at;
    printed summaries may differ only in the output directory."""
    a, b = Path(a), Path(b)
    failures = []
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        failures.append(f"output files differ: {names_a} vs {names_b}")
    for name in set(names_a) & set(names_b):
        bytes_a = _CREATED_AT.sub(b"", (a / name).read_bytes())
        bytes_b = _CREATED_AT.sub(b"", (b / name).read_bytes())
        if bytes_a != bytes_b:
            failures.append(f"{name} differs between the two passes")
    for sa, sb in zip(steps_a, steps_b, strict=True):
        if sa["rc"] != sb["rc"] or sa["stdout"].replace(str(a), str(b)) != sb["stdout"]:
            failures.append(f"step {sa['label']} printed differently between the two passes")
    return failures
