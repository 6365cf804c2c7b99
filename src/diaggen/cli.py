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
    children = np.random.SeedSequence(seed).spawn(repeats)
    return [int(child.generate_state(1, dtype=np.uint64)[0]) for child in children]


def _print(doc: dict[str, Any]) -> None:
    print(json.dumps(doc, sort_keys=True))


# The dest of each simulate and GA flag, and the SimConfig or GaConfig field it sets.
_SIM_FIELDS = {
    "learners": "num_learners", "questions": "num_questions", "concepts": "num_concepts",
    "slip": "slip", "growth_mean": "growth_mean", "growth_std": "growth_std", "seed": "seed",
}
_GA_FIELDS = {
    "population": "population_size", "generations": "generations", "pc": "p_c",
    "pm1": "p_m1", "pm2": "p_m2", "tournament_fraction": "tournament_fraction",
}
# Each config's field types, evaluated once: at every parse they raised peak RSS by 1 MiB.
_FIELD_TYPES = {cls: get_type_hints(cls) for cls in (SimConfig, GaConfig)}
# The learner split's defaults; evaluate --genes falls back to them.
_RATIO, _SPLIT_SEED = 0.8, 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = SimConfig(**{field: getattr(args, dest) for dest, field in _SIM_FIELDS.items()})
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
    split = split_learners(range(len(log.learner_ids)), args.ratio, args.split_seed)

    doc: dict[str, Any] = {"estimator": args.estimator}
    if args.estimator == "rasch":
        model = fit_rasch(
            log, fit_learners=split.train, reg=args.reg, max_epochs=args.max_epochs, tol=args.tol
        )
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
        snapshot = correct_ratio_snapshot(log, smoothing=args.smoothing, fit_learners=split.train)
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
    split = split_learners(range(snapshot.n_learners), args.ratio, args.split_seed)
    ctx = CriteriaContext.build(snapshot, split.train)
    lam = calibrate_lambda(ctx, args.k, n_samples=args.samples, seed=args.lambda_seed)
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
        fields = {field: getattr(args, dest) for dest, field in _GA_FIELDS.items()}
        return ga_search(ctx, GaConfig(k=args.k, seed=seed, **fields))
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
    snapshot = read_snapshot(args.snapshot)
    split = split_learners(range(snapshot.n_learners), args.ratio, args.split_seed)
    train_ctx = CriteriaContext.build(snapshot, split.train)
    lam = args.lam
    if lam is None:
        lam = calibrate_lambda(train_ctx, args.k, n_samples=args.samples, seed=args.lambda_seed)
    train_ctx = train_ctx.with_lambda(lam)
    test_ctx = CriteriaContext.build(snapshot, split.test, lam=lam)

    seeds = derive_seeds(args.seed, args.repeats)
    runs = []
    for run_seed in seeds:
        result = _run_algorithm(args, train_ctx, run_seed)
        config: dict[str, Any] = {
            "algo": args.algo,
            "k": args.k,
            "ratio": args.ratio,
            "split_seed": args.split_seed,
            "lambda_seed": args.lambda_seed,
            "samples": args.samples,
            "lambda": lam,
            "seed": run_seed,
        }
        if args.algo == "ga":
            config |= {dest: getattr(args, dest) for dest in _GA_FIELDS}
        runs.append(
            result_record(
                result,
                question_ids=snapshot.question_ids,
                test_report=fitness(test_ctx, result.best),
                swap_gain=swap_gain(train_ctx, result.best),
                config=config,
            )
        )

    if args.repeats == 1:
        doc = runs[0]
    else:
        doc = {
            "schema_version": runs[0]["schema_version"],
            "algorithm": args.algo,
            "repeats": args.repeats,
            "sub_seeds": seeds,
            "runs": runs,
            "summary": _summary(runs),
        }
    doc["created_at"] = datetime.now(timezone.utc).isoformat()
    write_json(doc, args.out)

    printed: dict[str, Any] = {"algorithm": args.algo, "lambda": lam, "out": args.out}
    if args.repeats == 1:
        printed["train_fitness"] = runs[0]["train"]["fitness"]
        printed["test_fitness"] = runs[0]["test"]["fitness"]
    else:
        printed["train_fitness_mean"] = doc["summary"]["train"]["fitness"]["mean"]
        printed["test_fitness_mean"] = doc["summary"]["test"]["fitness"]["mean"]
    _print(printed)
    return 0


def _result_field(record: Any, path: str, kind: type | tuple[type, ...]) -> Any:
    """The value at a dotted ``path`` of a result document, of type ``kind``."""
    value = record
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            raise ValueError(f"result document has no {path!r}")
        value = value[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"result field {path!r} has the wrong type: {json.dumps(value)}")
    return value


def cmd_evaluate(args: argparse.Namespace) -> int:
    snapshot = read_snapshot(args.snapshot)
    doc: dict[str, Any] = {}
    if args.result is not None:
        if any(v is not None for v in (args.genes, args.lam, args.ratio, args.split_seed)):
            raise ValueError("--result takes no --genes, --lam, --ratio or --split-seed")
        record = _load_json(args.result)
        if isinstance(record, dict) and "runs" in record:
            # A --repeats document: re-score the run with the highest train
            # fitness, the earliest one on ties.
            runs = _result_field(record, "runs", list)
            if not runs:
                raise ValueError("result document has no runs")
            fits = [_result_field(run, "train.fitness", (int, float)) for run in runs]
            record = runs[fits.index(max(fits))]
            doc["sub_seed"] = _result_field(record, "config.seed", int)
        ratio = _result_field(record, "config.ratio", (int, float))
        split_seed = _result_field(record, "config.split_seed", int)
        lam = _result_field(record, "config.lambda", (int, float))
        selected = _result_field(record, "selected_questions", list)
        if not all(isinstance(q, str) for q in selected):
            raise ValueError("result field 'selected_questions' must list question ids")
    else:
        if args.genes is None or args.lam is None:
            raise ValueError("evaluate needs either --result or both --genes and --lam")
        ratio = _RATIO if args.ratio is None else args.ratio
        split_seed = _SPLIT_SEED if args.split_seed is None else args.split_seed
        lam = args.lam
        selected = [g.strip() for g in args.genes.split(",") if g.strip()]

    qpos = {qid: i for i, qid in enumerate(snapshot.question_ids)}
    unknown = [q for q in selected if q not in qpos]
    if unknown:
        raise ValueError(f"questions not in snapshot: {unknown[:5]}")
    genes = [qpos[q] for q in selected]

    split = split_learners(range(snapshot.n_learners), ratio, split_seed)
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
    curve = build(
        snapshot,
        step=args.step,
        epsilon=args.epsilon,
        window=args.window,
        seed=args.seed,
    )
    with open(args.out, "w", newline="\n", encoding="utf-8") as fh:
        fh.write("count,delta\n")
        for count, delta in zip(curve.counts, curve.deltas):
            fh.write(f"{count},{delta:.9f}\n")
    _print({"points": len(curve.counts), "chosen_n": curve.chosen_n, "out": args.out})
    return 0


def _add_split_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ratio", type=float, default=_RATIO, help="train fraction of learners"
    )
    parser.add_argument(
        "--split-seed", type=int, default=_SPLIT_SEED, help="seed for the learner split"
    )


def _add_config_flags(parser: argparse.ArgumentParser, flags: dict[str, str], cls: type) -> None:
    """One flag per dest of ``flags``, typed and defaulted by the field of
    ``cls`` that it sets, and required when that field has no default."""
    for dest, field in flags.items():
        kwargs = {"default": getattr(cls, field)} if hasattr(cls, field) else {"required": True}
        parser.add_argument("--" + dest.replace("_", "-"), type=_FIELD_TYPES[cls][field], **kwargs)


def _add_lambda_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=int, default=10_000)
    parser.add_argument("--lambda-seed", type=int, default=1)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diaggen",
        description="Generate K-question diagnostic assessments from response data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic population")
    _add_config_flags(p, _SIM_FIELDS, SimConfig)
    p.add_argument("--interactions-out", required=True)
    p.add_argument("--snapshot-out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="predict a snapshot from interactions")
    p.add_argument("--interactions", required=True)
    p.add_argument("--estimator", choices=("rasch", "ratio"), default="rasch")
    p.add_argument("--out", required=True)
    p.add_argument("--truth", help="true snapshot CSV to correlate against")
    _add_split_flags(p)
    p.add_argument("--smoothing", type=float, default=1.0)
    p.add_argument("--reg", type=float, default=1e-4)
    p.add_argument("--max-epochs", type=int, default=500)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("calibrate", help="calibrate the criteria mixing weight")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--k", type=int, required=True)
    _add_lambda_flags(p)
    _add_split_flags(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("search", help="search for an assessment and score it")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--algo", choices=("random", "greedy", "ga", "brute"), required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    _add_split_flags(p)
    _add_lambda_flags(p)
    p.add_argument(
        "--lam", type=float, default=None, help="skip calibration, use this weight"
    )
    p.add_argument("--seed", type=int, default=0, help="search seed")
    p.add_argument("--repeats", type=int, default=1)
    _add_config_flags(p, _GA_FIELDS, GaConfig)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("evaluate", help="re-score an existing gene list")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--result", help="result JSON to re-score")
    p.add_argument("--genes", help="comma-separated question ids")
    p.add_argument("--lam", type=float, default=None)
    _add_split_flags(p)
    p.add_argument("--out")
    # None, so that a split flag beside --result is rejected.
    p.set_defaults(func=cmd_evaluate, ratio=None, split_seed=None)

    p = sub.add_parser("sufficiency", help="learner-count sufficiency curve")
    p.add_argument("--snapshot", required=True)
    p.add_argument("--step", type=int, default=100)
    p.add_argument("--epsilon", type=float, default=1e-4)
    p.add_argument("--window", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
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
    accepted = (int, float) if kind is float else (kind,)
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(
            f"config key {key!r} must be of type {kind.__name__}, got {json.dumps(value)}"
        )
    value = kind(value)
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
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
