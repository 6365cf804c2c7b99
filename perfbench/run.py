"""diaggen benchmark: README CLI pipelines over simulated worlds.

Run from the root of a checkout:

    python3 perfbench/run.py --workload log-rasch-6k --seed 101 --seconds 25 --trace 0

or, for every workload's end-to-end metrics,

    for w in log-rasch-6k snapshot-ga-6k pool30-brute; do
        python3 perfbench/run.py --workload $w; done

Reference figures (machine facts, seed-101 and held-out seed-102 runs, the
spread over seeds 1-10) are in perfbench/BASELINE.json; perfbench/selftest.py
shows that the output checks can fail.

The benchmark is a closed loop with one client: one pipeline is in flight
at a time. A run has two phases.

Set-up. ``diaggen simulate`` writes the world of ``--seed`` in a set-up
process, then the pipeline process starts and imports diaggen. ``setup_s``
is the wall time of both; an untraced run sets up three times and reports
the median, keeping the last pipeline process.

Pipeline. The pipeline process runs the workload's CLI steps through
``diaggen.cli.main()``, back to back, for ``--seconds`` (at least one pass,
and no pass that would not fit). ``pipeline_s`` is the median pass time.
Every step's exit code and exceptions are caught, so a failing step is
counted, not fatal. The outputs are then checked (see checks.py).

With ``--trace 1`` the run instead makes one untraced pass and one traced
pass in the same process, checks that both wrote identical outputs, and
reports the per-layer metrics from the traced pass's spans (see
tracing.py), plus the tracing overhead. Spans are written to
``.perfbench_work/<workload>/spans.jsonl``.

The last line of standard output is one JSON object with ``correct``,
``attempted`` and ``failed`` (CLI steps) and ``metrics``; the metric names
and units are those of BENCHMARK.json. Scratch files go to
``.perfbench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import layer_metrics, totals  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
# Every run must end within 180 s; stop waiting on a process well before.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The run cannot produce a result."""


def child_env(root: Path) -> dict[str, str]:
    """Environment of the benchmark's processes: diaggen from ``src`` and
    at most one BLAS thread per available core."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


class Worker:
    """A worker.py process, answering one JSON request per line."""

    def __init__(self, root: Path, env: dict[str, str], deadline: float) -> None:
        self.deadline = deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")],
            cwd=root,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.ready = self._read()
        except BaseException:
            self.close()
            raise
        expected = (root / "src" / "diaggen" / "cli.py").resolve()
        if Path(self.ready["diaggen"]).resolve() != expected:
            self.close()
            raise BenchError(f"imported diaggen from {self.ready['diaggen']}, not {expected}")

    def _read(self) -> dict[str, Any]:
        remaining = self.deadline - time.perf_counter()
        readable, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
        if not readable:
            raise BenchError("a benchmark process ran past the time limit")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError("a benchmark process exited early")
        return json.loads(line)

    def request(self, **request: Any) -> dict[str, Any]:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self._read()
        if "error" in reply:
            raise BenchError(reply["error"])
        return reply

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(json.dumps({"op": "quit"}) + "\n")
                self.proc.stdin.flush()
            self.proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.proc.stdin.close()
            self.proc.stdout.close()


def _digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def simulate(workload, seed: int, inputs: Path, root, env, deadline, trace: bool) -> list[dict]:
    """The set-up process: ``diaggen simulate`` into ``inputs``; returns its spans."""
    inputs.mkdir(parents=True, exist_ok=True)
    sim = Worker(root, env, deadline)
    try:
        reply = sim.request(
            op="steps",
            steps=[("simulate", workload.simulate_argv(seed, str(inputs.relative_to(root))))],
            trace=trace,
        )
    finally:
        sim.close()
    step = reply["steps"][0]
    if step["rc"] != 0:
        raise BenchError(f"simulate failed: {step['error']}")
    return reply["spans"]


def _pass_seconds(reply: dict[str, Any]) -> float:
    return sum(step["seconds"] for step in reply["steps"])


def _count_failed(replies: list[dict[str, Any]]) -> tuple[int, int]:
    steps = [step for reply in replies for step in reply["steps"]]
    return len(steps), sum(step["rc"] != 0 for step in steps)


def timed_run(workload, seed, seconds, root, work, env, deadline) -> dict[str, Any]:
    inputs = work / "inputs"
    setups, digests = [], set()
    pipe = None
    try:
        for _ in range(SETUP_REPEATS):
            if pipe is not None:
                pipe.close()
                pipe = None
            start = time.perf_counter()
            simulate(workload, seed, inputs, root, env, deadline, trace=False)
            pipe = Worker(root, env, deadline)
            setups.append(time.perf_counter() - start)
            digests.add(_digest(inputs))
        out = work / "out"
        out.mkdir()
        steps = workload.pipeline(str(inputs.relative_to(root)), str(out.relative_to(root)))
        passes = []
        window_start = time.perf_counter()
        while True:
            passes.append(pipe.request(op="steps", steps=steps, trace=False))
            longest = max(_pass_seconds(p) for p in passes)
            if time.perf_counter() - window_start + longest > seconds:
                break
        check = pipe.request(
            op="check",
            workload=workload.name,
            inputs=str(inputs.relative_to(root)),
            outs=[str(out.relative_to(root))],
            steps=[passes[-1]["steps"]],
        )
    finally:
        if pipe is not None:
            pipe.close()

    failures = check["failures"]
    if len(digests) != 1:
        failures.append("simulate wrote different inputs for the same seed")
    attempted, failed = _count_failed(passes)
    values = {
        "setup_s": statistics.median(setups),
        "pipeline_s": statistics.median(_pass_seconds(p) for p in passes),
        "peak_rss_mib": passes[-1]["peak_rss_mib"],
        "test_fitness": check["values"].get("test_fitness", 0.0),
        "pearson": check["values"].get("pearson", 0.0),
        "ok_ops": (attempted - failed) / attempted,
    }
    info = {
        "setup_s": setups,
        "pass_s": [_pass_seconds(p) for p in passes],
        "steps": passes[-1]["steps"],
        "failed_ops": failed / attempted,
    }
    return {"values": values, "failures": failures, "attempted": attempted, "failed": failed, "info": info}


def traced_run(workload, seed, seconds, root, work, env, deadline) -> dict[str, Any]:
    inputs = work / "inputs"
    setup_spans = simulate(workload, seed, inputs, root, env, deadline, trace=True)
    pipe = Worker(root, env, deadline)
    try:
        dirs = [work / "untraced", work / "traced"]
        replies = []
        for directory, trace in zip(dirs, (False, True)):
            directory.mkdir()
            steps = workload.pipeline(
                str(inputs.relative_to(root)), str(directory.relative_to(root))
            )
            replies.append(pipe.request(op="steps", steps=steps, trace=trace))
        check = pipe.request(
            op="check",
            workload=workload.name,
            inputs=str(inputs.relative_to(root)),
            outs=[str(d.relative_to(root)) for d in dirs],
            steps=[r["steps"] for r in replies],
        )
    finally:
        pipe.close()

    untraced, traced = replies
    with open(work / "spans.jsonl", "w", encoding="utf-8") as fh:
        for process, spans in (("setup", setup_spans), ("pipeline", traced["spans"])):
            for span in spans:
                fh.write(json.dumps({"process": process, **span}) + "\n")
    values = layer_metrics(
        totals(setup_spans) + totals(traced["spans"]), traced["distinct_rows"]
    )
    overhead = _pass_seconds(traced) - _pass_seconds(untraced)
    values |= {
        "cli.import_s": pipe.ready["import_s"],
        "trace.overhead_s": overhead,
        "trace.overhead_ratio": overhead / _pass_seconds(untraced),
    }
    attempted, failed = _count_failed(replies)
    info = {"pass_s": [_pass_seconds(r) for r in replies], "steps": traced["steps"]}
    return {"values": values, "failures": check["failures"], "attempted": attempted, "failed": failed, "info": info}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="world seed")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.perf_counter() + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "diaggen" / "cli.py").is_file():
        print("error: run from a checkout root holding src/diaggen", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    work = root / ".perfbench_work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = traced_run if args.trace else timed_run
    try:
        result = run(workload, args.seed, args.seconds, root, work, child_env(root), deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    with open(work / "report.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)

    values = result["values"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for {missing}", file=sys.stderr)
        return 1
    print(f"# {workload.name} seed={args.seed} trace={args.trace} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for step in result["info"]["steps"]:
        status = "ok" if step["rc"] == 0 else f"FAILED ({step['error']})"
        print(f"#   step {step['label']:<14} {step['seconds']:9.3f} s  {status}")
    for name, value in result["info"].items():
        if name != "steps":
            print(f"#   {name} = {value}")
    for m in wanted:
        print(f"{m['name']:<34} {values[m['name']]:>16.6f} {m['unit']}")
    for failure in result["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not result["failures"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
