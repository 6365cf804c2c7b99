"""Outside-in tracing of the diaggen layers, from the benchmark's own code.

``install`` replaces the public functions that the CLI and the search and
estimation modules call, at their call sites, with wrappers that record a
span per call (name, start, end, parent, counters). The spans stay in memory
until the run ends. ``restore`` puts every original object back.
``layer_metrics`` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterable

import numpy as np

CounterFn = Callable[[dict, tuple, dict, Any], dict]


class Tracer:
    """Collects spans; the innermost open span is the parent of a new one."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []
        # (parent span id, gene rows sorted within each row) per scoring call.
        self.gene_rows: list[tuple[int | None, np.ndarray]] = []

    def _begin(self, name: str) -> dict[str, Any]:
        span = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        span["start"] = time.perf_counter()
        return span

    def _end(self, span: dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        span = self._begin(name)
        try:
            yield span
        finally:
            self._end(span)

    def wrap(self, name: str, fn: Callable, counters: CounterFn | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if counters is not None:
                span["counters"] = counters(span, args, kwargs, result)
            return result

        return traced

    def distinct_rows(self) -> int:
        """Distinct gene sets scored, counted separately under each parent
        span (one search run, one calibration)."""
        groups: dict[int | None, list[np.ndarray]] = {}
        for parent, rows in self.gene_rows:
            groups.setdefault(parent, []).append(rows)
        return sum(
            len(np.unique(np.concatenate(blocks), axis=0)) for blocks in groups.values()
        )


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _targets(tracer: Tracer) -> list[tuple[Any, str, str, CounterFn | None]]:
    """(owner, attribute, span name, counters) for every wrapped name."""
    from diaggen import cli, criteria, estimation, search
    from diaggen.core import InteractionLog
    from diaggen.criteria import CriteriaContext

    def rasch(span, args, kwargs, model):
        epochs = len(model.nll_history) - 1
        return {"epochs": epochs, "converged": int(epochs < model.max_epochs)}

    def rows(span, args, kwargs, result):
        genes = np.sort(np.asarray(_arg(args, kwargs, 1, "genes_matrix")), axis=1)
        tracer.gene_rows.append((span["parent"], genes))
        return {"rows": len(genes)}

    def evaluations(span, args, kwargs, result):
        return {"evaluations": result.evaluations}

    return [
        (cli, "simulate", "simulator.simulate", None),
        (cli, "read_interactions", "io.read_interactions", None),
        (cli, "read_snapshot", "io.read_snapshot", None),
        (cli, "write_interactions", "io.write_interactions", None),
        (cli, "write_snapshot", "io.write_snapshot", None),
        (cli, "write_json", "io.write_json", None),
        (cli, "result_record", "io.result_record", None),
        (cli, "build_pool", "core.build_pool", None),
        (estimation, "build_pool", "core.build_pool", None),
        (estimation, "to_index_arrays", "core.to_index_arrays", None),
        (cli, "split_learners", "core.split_learners", None),
        (InteractionLog, "restrict_learners", "core.restrict_learners", None),
        (cli, "fit_rasch", "estimation.fit_rasch", rasch),
        (cli, "fit_abilities", "estimation.fit_abilities", None),
        (cli, "correct_ratio_snapshot", "estimation.correct_ratio", None),
        (cli, "mean_performance_correlation", "estimation.correlation", None),
        (cli, "sufficiency_curve", "estimation.sufficiency", None),
        (cli, "per_question_sufficiency_curve", "estimation.sufficiency", None),
        (CriteriaContext, "build", "criteria.context_build", None),
        (cli, "calibrate_lambda", "criteria.calibrate", None),
        (cli, "fitness", "criteria.fitness", None),
        (criteria, "sample_subsets", "criteria.sample_subsets", None),
        (criteria, "batch_criteria", "criteria.batch_criteria", rows),
        (search, "batch_criteria", "criteria.batch_criteria", rows),
        (cli, "ga_search", "search.ga", evaluations),
        (cli, "greedy_search", "search.greedy", evaluations),
        (cli, "brute_force", "search.brute", evaluations),
        (cli, "random_search", "search.random", evaluations),
        (search, "select", "search.select", None),
        (search, "crossover", "search.crossover", None),
        (search, "mutate", "search.mutate", None),
    ]


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target name; returns the function that restores them."""
    saved = []
    for owner, attr, name, counters in _targets(tracer):
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            wrapped = classmethod(tracer.wrap(name, original.__func__, counters))
        else:
            wrapped = tracer.wrap(name, original, counters)
        saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore() -> None:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        moved = [attr for owner, attr, original in saved if vars(owner)[attr] is not original]
        if moved:
            raise RuntimeError(f"traced names not restored: {moved}")

    return restore


def totals(spans: Iterable[dict[str, Any]]) -> Counter:
    """Per span name: inclusive seconds (``_s``), self seconds (``_self_s``),
    call count (``_calls``) and summed counters (``.<counter>``)."""
    spans = list(spans)
    covered: Counter = Counter()
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    out: Counter = Counter()
    for span in spans:
        name, seconds = span["name"], span["end"] - span["start"]
        out[f"{name}_s"] += seconds
        out[f"{name}_self_s"] += seconds - covered[span["id"]]
        out[f"{name}_calls"] += 1
        for key, value in span.get("counters", {}).items():
            out[f"{name}.{key}"] += value
    return out


def layer_metrics(t: Counter, distinct_rows: int) -> dict[str, float]:
    """Every per-layer metric the benchmark reports; a layer that never ran
    reports 0."""
    rows = t["criteria.batch_criteria.rows"]
    batch_s = t["criteria.batch_criteria_s"]
    metrics = {
        name: t[name]
        for name in (
            "simulator.simulate_s",
            "io.read_interactions_s",
            "io.read_snapshot_s",
            "io.read_snapshot_calls",
            "io.write_interactions_s",
            "io.write_snapshot_s",
            "core.build_pool_s",
            "core.restrict_learners_s",
            "core.to_index_arrays_s",
            "estimation.fit_rasch_s",
            "estimation.fit_abilities_s",
            "estimation.correct_ratio_s",
            "estimation.correlation_s",
            "estimation.sufficiency_s",
            "criteria.context_build_s",
            "criteria.calibrate_s",
            "criteria.sample_subsets_s",
            "criteria.batch_criteria_s",
            "search.ga_s",
            "search.ga_self_s",
            "search.select_s",
            "search.crossover_s",
            "search.mutate_s",
            "search.mutate_calls",
            "search.greedy_s",
            "search.brute_s",
            "search.brute_self_s",
            "cli.estimate_s",
            "cli.calibrate_s",
            "cli.search_s",
            "cli.evaluate_s",
            "cli.sufficiency_s",
        )
    }
    metrics |= {
        "estimation.fit_rasch_epochs": t["estimation.fit_rasch.epochs"],
        "estimation.fit_rasch_converged": t["estimation.fit_rasch.converged"],
        "criteria.rows_scored": rows,
        "criteria.rows_per_s": rows / batch_s if batch_s else 0.0,
        "criteria.distinct_rows_ratio": distinct_rows / rows if rows else 0.0,
        "search.evaluations": sum(
            t[f"search.{algo}.evaluations"] for algo in ("ga", "greedy", "brute", "random")
        ),
        "cli.self_s": sum(
            t[f"cli.{step}_self_s"]
            for step in ("estimate", "calibrate", "search", "evaluate", "sufficiency")
        ),
    }
    return metrics
