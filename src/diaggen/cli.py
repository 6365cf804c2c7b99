"""Command-line front end for the assessment-generation pipeline.

Subcommands:

* simulate    generate a synthetic learner population and its true snapshot
* estimate    build a predicted snapshot from an interaction log
* calibrate   compute the criteria mixing weight on the training learners
* search      select a K-question assessment and score it on held-out learners
* evaluate    re-score an existing gene list against a snapshot and split
* sufficiency emit the learner-count sufficiency curve for a snapshot

Every subcommand accepts `--config FILE` with a JSON object whose keys
override the corresponding flags. All outputs are reproducible from the
flag values alone; held-out learners never influence calibration, model
fitting, or the search itself.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from datetime import datetime, timezone
from typing import Any, Sequence, get_type_hints

import numpy as np

# build_pool is not called here; perfbench/tracing.py wraps it under this name.
from .core import build_pool, split_learners
from .criteria import CriteriaContext, calibrate_lambda, fitness
from .estimation import (
    correct_ratio_snapshot,
    fit_abilities,
    fit_rasch,
    mean_performance_correlation,
    per_question_sufficiency_curve,
    rasch_snapshot,
    sufficiency_curve,
)
from .io import (
    read_interactions,
    read_snapshot,
    report_dict,
    result_record,
    write_interactions,
    write_json,
    write_snapshot,
)
from .search import (
    GaConfig,
    SearchResult,
    brute_force,
    ga_search,
    greedy_search,
    random_search,
    swap_gain,
)
from .simulator import SimConfig, simulate


def derive_seeds(seed: int, repeats: int) -> list[int]:
    """Per-repeat search seeds. A single run uses the seed as given, so any
    repeat can be reproduced individually by passing its printed sub-seed
    back with --repeats 1."""
    if repeats == 1:
        return [seed]
    try:
        children = np.random.SeedSequence(seed).spawn(repeats)
    except OverflowError:
        raise ValueError(f"--repeats {repeats} is too large") from None
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in children]


def _print(doc: dict[str, Any]) -> None:
    print(json.dumps(doc, sort_keys=True))


# Every flag that sets a library parameter, as (owner, {dest: parameter}):
# the flag is passed to the owner under that keyword and takes its type and
# default from the parameter, or is required when it has none.
_SIM_FLAGS = (SimConfig, {
    "learners": "num_learners", "questions": "num_questions", "concepts": "num_concepts",
    "slip": "slip", "growth_mean": "growth_mean", "growth_std": "growth_std", "seed": "seed",
})
_GA_FLAGS = (GaConfig, {
    "population": "population_size", "generations": "generations", "pc": "p_c",
    "pm1": "p_m1", "pm2": "p_m2", "tournament_fraction": "tournament_fraction",
})
_SPLIT_FLAGS = (split_learners, {"ratio": "ratio", "split_seed": "seed"})
_LAMBDA_FLAGS = (calibrate_lambda, {"samples": "n_samples", "lambda_seed": "seed"})
_SMOOTHING_FLAGS = (correct_ratio_snapshot, {"smoothing": "smoothing"})
_RASCH_FLAGS = (fit_rasch, {"reg": "reg", "max_epochs": "max_epochs", "tol": "tol"})
_SUFFICIENCY_FLAGS = (
    sufficiency_curve, {"step": "step", "epsilon": "epsilon", "window": "window", "seed": "seed"}
)
# Each owner's (parameters, type hints), read once: at every parse they raised peak RSS by
# 1 MiB. Keyed by the owners above, as perfbench/tracing.py rebinds their module names.
_SIGNATURES = {
    owner: (inspect.signature(owner).parameters, get_type_hints(owner))
    for owner, _ in (_SIM_FLAGS, _GA_FLAGS, _SPLIT_FLAGS, _LAMBDA_FLAGS, _SMOOTHING_FLAGS,
                     _RASCH_FLAGS, _SUFFICIENCY_FLAGS)
}
_HELP = {"ratio": "train fraction of learners", "split_seed": "seed for the learner split"}
_SEEDS = ("seed", "split_seed", "lambda_seed")  # flags and result config keys; never negative
# The JSON value types that serve a value of each type: an int also serves a float.
_JSON_TYPES: dict[type, type | tuple[type, ...]] = {float: (int, float)}


def _settings(args: argparse.Namespace, table: tuple[Any, dict[str, str]]) -> dict[str, Any]:
    """The keyword arguments that the flags of ``table`` pass to its owner."""
    return {parameter: getattr(args, dest) for dest, parameter in table[1].items()}


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = SimConfig(**_settings(args, _SIM_FLAGS))
    _, log, truth = simulate(cfg)
    write_interactions(log, args.interactions_out)
    write_snapshot(truth, args.snapshot_out)
    _print(
        {
            "learners": cfg.num_learners,
            "questions": cfg.num_questions,
            "interactions": len(log),
            "interactions_out": args.interactions_out,
            "snapshot_out": args.snapshot_out,
        }
    )
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    log = read_interactions(args.interactions)
    split = split_learners(range(len(log.learner_ids)), **_settings(args, _SPLIT_FLAGS))

    doc: dict[str, Any] = {"estimator": args.estimator}
    if args.estimator == "rasch":
        model = fit_rasch(log, fit_learners=split.train, **_settings(args, _RASCH_FLAGS))
        scored = fit_abilities(model, log)
        snapshot = rasch_snapshot(scored)
        doc |= {
            "converged": model.converged,
            "iterations": model.iterations,
            "groups": model.groups,
            "abilities_converged": scored.converged,
            "abilities_iterations": scored.iterations,
        }
    else:
        snapshot = correct_ratio_snapshot(
            log, fit_learners=split.train, **_settings(args, _SMOOTHING_FLAGS)
        )
    write_snapshot(snapshot, args.out)

    doc |= {
        "questions": snapshot.n_questions,
        "learners": snapshot.n_learners,
        "out": args.out,
    }
    if args.truth is not None:
        pearson, spearman = mean_performance_correlation(
            snapshot, read_snapshot(args.truth)
        )
        doc["pearson"] = pearson
        doc["spearman"] = spearman
    _print(doc)
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    snapshot = read_snapshot(args.snapshot)
    split = split_learners(range(snapshot.n_learners), **_settings(args, _SPLIT_FLAGS))
    ctx = CriteriaContext.build(snapshot, split.train)
    lam = calibrate_lambda(ctx, args.k, **_settings(args, _LAMBDA_FLAGS))
    _print(
        {
            "lambda": lam,
            "k": args.k,
            "samples": args.samples,
            "train_learners": len(split.train),
        }
    )
    return 0


def _run_algorithm(
    args: argparse.Namespace, ctx: CriteriaContext, seed: int
) -> SearchResult:
    if args.algo == "random":
        return random_search(ctx, args.k, seed=seed)
    if args.algo == "greedy":
        return greedy_search(ctx, args.k)
    if args.algo == "brute":
        return brute_force(ctx, args.k)
    if args.algo == "ga":
        return ga_search(ctx, GaConfig(k=args.k, seed=seed, **_settings(args, _GA_FLAGS)))
    raise ValueError(f"unknown algorithm {args.algo!r}")


def _summary(runs: list[dict[str, Any]]) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for block in ("train", "test"):
        values = {m: np.asarray([r[block][m] for r in runs]) for m in ("rmse", "std", "fitness")}
        out[block] = {
            m: {"mean": float(v.mean()), "std": float(v.std())}
            for m, v in values.items()
        }
    return out


def cmd_search(args: argparse.Namespace) -> int:
    if args.repeats < 1:
        raise ValueError("repeats must be at least 1")
    seeds = derive_seeds(args.seed, args.repeats)
    snapshot = read_snapshot(args.snapshot)
    split = split_learners(range(snapshot.n_learners), **_settings(args, _SPLIT_FLAGS))
    train_ctx = CriteriaContext.build(snapshot, split.train)
    lam = args.lam
    if lam is None:
        lam = calibrate_lambda(train_ctx, args.k, **_settings(args, _LAMBDA_FLAGS))
    train_ctx = train_ctx.with_lambda(lam)
    test_ctx = CriteriaContext.build(snapshot, split.test, lam=lam)

    # Every flag that steers the run is echoed, so the block reruns it as --config.
    tables = (_SPLIT_FLAGS, _LAMBDA_FLAGS) + ((_GA_FLAGS,) if args.algo == "ga" else ())
    flags = {dest: getattr(args, dest) for _, dests in tables for dest in dests}
    runs = []
    for run_seed in seeds:
        result = _run_algorithm(args, train_ctx, run_seed)
        runs.append(
            result_record(
                result,
                question_ids=snapshot.question_ids,
                test_report=fitness(test_ctx, result.best),
                swap_gain=swap_gain(train_ctx, result.best),
                config={"algo": args.algo, "k": args.k, "lambda": lam, "seed": run_seed, **flags},
            )
        )

    if args.repeats == 1:
        doc = runs[0]
        fits = {f"{b}_fitness": doc[b]["fitness"] for b in ("train", "test")}
    else:
        summary = _summary(runs)
        fits = {f"{b}_fitness_mean": summary[b]["fitness"]["mean"] for b in ("train", "test")}
        doc = {
            "schema_version": runs[0]["schema_version"],
            "algorithm": args.algo,
            "repeats": args.repeats,
            "sub_seeds": seeds,
            "runs": runs,
            "summary": summary,
        }
    doc["created_at"] = datetime.now(timezone.utc).isoformat()
    write_json(doc, args.out)
    _print({"algorithm": args.algo, "lambda": lam, "out": args.out, **fits})
    return 0


def _result_field(record: Any, path: str, kind: type) -> Any:
    """The value at a dotted ``path`` of a result document, of type ``kind``."""
    value = record
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            raise ValueError(f"result document has no {path!r}")
        value = value[key]
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES.get(kind, kind)):
        raise ValueError(f"result field {path!r} has the wrong type: {json.dumps(value)}")
    return value


def cmd_evaluate(args: argparse.Namespace) -> int:
    snapshot = read_snapshot(args.snapshot)
    doc: dict[str, Any] = {}
    if args.result is not None:
        if any(getattr(args, dest) is not None for dest in ("genes", "lam", *_SPLIT_FLAGS[1])):
            raise ValueError("--result takes no --genes, --lam, --ratio or --split-seed")
        record = _load_json(args.result)
        if isinstance(record, dict) and "runs" in record:
            # A --repeats document: re-score the run with the highest train
            # fitness, the earliest one on ties.
            runs = _result_field(record, "runs", list)
            if not runs:
                raise ValueError("result document has no runs")
            fits = [_result_field(run, "train.fitness", float) for run in runs]
            record = runs[fits.index(max(fits))]
            doc["sub_seed"] = _result_field(record, "config.seed", int)
        hints = _SIGNATURES[_SPLIT_FLAGS[0]][1]
        for dest, name in _SPLIT_FLAGS[1].items():
            value = _result_field(record, f"config.{dest}", hints[name])
            if dest in _SEEDS and value < 0:
                raise ValueError(f"result field 'config.{dest}' must be non-negative")
            setattr(args, dest, value)
        lam = _result_field(record, "config.lambda", float)
        selected = _result_field(record, "selected_questions", list)
        if not all(isinstance(q, str) for q in selected):
            raise ValueError("result field 'selected_questions' must list question ids")
    else:
        if args.genes is None or args.lam is None:
            raise ValueError("evaluate needs either --result or both --genes and --lam")
        lam = args.lam
        selected = [g.strip() for g in args.genes.split(",") if g.strip()]

    qpos = {qid: i for i, qid in enumerate(snapshot.question_ids)}
    unknown = [q for q in selected if q not in qpos]
    if unknown:
        raise ValueError(f"questions not in snapshot: {unknown[:5]}")
    genes = [qpos[q] for q in selected]

    # An unset split flag falls back to split_learners' default.
    split_args = {k: v for k, v in _settings(args, _SPLIT_FLAGS).items() if v is not None}
    split = split_learners(range(snapshot.n_learners), **split_args)
    train_ctx = CriteriaContext.build(snapshot, split.train).with_lambda(lam)
    test_ctx = CriteriaContext.build(snapshot, split.test).with_lambda(lam)
    doc |= {
        "selected_questions": selected,
        "lambda": lam,
        "train": report_dict(fitness(train_ctx, genes)),
        "test": report_dict(fitness(test_ctx, genes)),
    }
    if args.out is not None:
        write_json(doc, args.out)
    _print(doc)
    return 0


def cmd_sufficiency(args: argparse.Namespace) -> int:
    snapshot = read_snapshot(args.snapshot)
    build = per_question_sufficiency_curve if args.per_question else sufficiency_curve
    curve = build(snapshot, **_settings(args, _SUFFICIENCY_FLAGS))
    with open(args.out, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("count,delta\n")
        for count, delta in zip(curve.counts, curve.deltas):
            fh.write(f"{count},{delta:.9f}\n")
    _print({"points": len(curve.counts), "chosen_n": curve.chosen_n, "out": args.out})
    return 0


def _add_flags(parser: argparse.ArgumentParser, table: tuple[Any, dict[str, str]]) -> None:
    """One flag per dest of ``table``, typed and defaulted by the parameter
    of its owner that it sets, and required when that parameter has none."""
    owner, flags = table
    parameters, hints = _SIGNATURES[owner]
    for dest, name in flags.items():
        default = parameters[name].default
        kwargs = {"required": True} if default is inspect.Parameter.empty else {"default": default}
        parser.add_argument(
            "--" + dest.replace("_", "-"), type=hints[name], help=_HELP.get(dest), **kwargs
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diaggen",
        description="Generate K-question diagnostic assessments from response data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic population")
    _add_flags(p, _SIM_FLAGS)
    p.add_argument("--interactions-out", required=True)
    p.add_argument("--snapshot-out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="predict a snapshot from interactions")
    p.add_argument("--interactions", required=True)
    p.add_argument("--estimator", choices=("rasch", "ratio"), default="rasch")
    p.add_argument("--out", required=True)
    p.add_argument("--truth", help="true snapshot CSV to correlate against")
    _add_flags(p, _SPLIT_FLAGS)
    _add_flags(p, _SMOOTHING_FLAGS)
    _add_flags(p, _RASCH_FLAGS)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("calibrate", help="calibrate the criteria mixing weight")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--k", type=int, required=True)
    _add_flags(p, _LAMBDA_FLAGS)
    _add_flags(p, _SPLIT_FLAGS)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("search", help="search for an assessment and score it")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--algo", choices=("random", "greedy", "ga", "brute"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_flags(p, _SPLIT_FLAGS)
    _add_flags(p, _LAMBDA_FLAGS)
    p.add_argument(
        "--lam", type=float, default=None, help="skip calibration, use this weight"
    )
    p.add_argument("--seed", type=int, default=0, help="search seed")
    p.add_argument("--repeats", type=int, default=1)
    _add_flags(p, _GA_FLAGS)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("evaluate", help="re-score an existing gene list")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--result", help="result JSON to re-score")
    p.add_argument("--genes", help="comma-separated question ids")
    p.add_argument("--lam", type=float, default=None)
    _add_flags(p, _SPLIT_FLAGS)
    p.add_argument("--out")
    # None, so that a split flag beside --result is rejected.
    p.set_defaults(func=cmd_evaluate, **dict.fromkeys(_SPLIT_FLAGS[1]))

    p = sub.add_parser("sufficiency", help="learner-count sufficiency curve")
    p.add_argument("--snapshot", required=True)
    _add_flags(p, _SUFFICIENCY_FLAGS)
    p.add_argument("--per-question", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sufficiency)

    for sp in sub.choices.values():
        sp.add_argument("--config", help="JSON file whose keys override flags")

    return parser


def _load_json(path: str) -> Any:
    """The JSON document in ``path``; an error in it names the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _config_value(action: argparse.Action, key: str, value: Any) -> Any:
    """A config value checked as strictly as the flag it overrides.

    A store_true flag takes a JSON bool. Any other flag takes a JSON value
    of its argparse type (an integer also serves a float flag), or null
    when the flag is optional and defaults to None; flags with choices
    take one of them.
    """
    if isinstance(action, argparse._StoreTrueAction):
        if not isinstance(value, bool):
            raise ValueError(f"config key {key!r} must be true or false")
        return value
    if value is None and action.default is None and not action.required:
        return None
    kind = action.type or str
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES.get(kind, kind)):
        raise ValueError(
            f"config key {key!r} must be of type {kind.__name__}, got {json.dumps(value)}"
        )
    try:
        value = kind(value)
    except OverflowError:
        raise ValueError(f"config key {key!r} is too large for a {kind.__name__}") from None
    if action.choices is not None and value not in action.choices:
        raise ValueError(
            f"config key {key!r} must be one of {', '.join(map(str, action.choices))}"
        )
    return value


def _apply_config(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    if getattr(args, "config", None) is None:
        return
    overrides = _load_json(args.config)
    if not isinstance(overrides, dict):
        raise ValueError("config file must contain a JSON object")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = {
        action.dest: action
        for action in sub.choices[args.command]._actions
        if isinstance(action, (argparse._StoreAction, argparse._StoreTrueAction))
        and action.dest != "config"
    }
    for key, value in overrides.items():
        # A result document's config block names --lam's value "lambda".
        dest = "lam" if key == "lambda" else key.replace("-", "_")
        if dest not in actions:
            raise ValueError(f"unknown config key {key!r}")
        setattr(args, dest, _config_value(actions[dest], key, value))


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config(args, parser)
        for dest in _SEEDS:
            if getattr(args, dest, None) is not None and getattr(args, dest) < 0:
                raise ValueError(f"--{dest.replace('_', '-')} must be non-negative")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
