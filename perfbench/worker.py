"""One process of the benchmark: imports diaggen, then runs requests.

Started by run.py with ``src`` on PYTHONPATH. It reports how long
``import diaggen`` took, then reads one JSON request per line on stdin and
answers each with one JSON line on stdout:

* ``{"op": "steps", "steps": [[label, argv], ...], "trace": bool}`` runs the
  CLI steps through ``diaggen.cli.main()`` in order. A step that exits
  non-zero or raises is recorded as failed and the next step still runs.
  With ``trace`` the layers are wrapped for the pass and restored after it.
* ``{"op": "check", "workload": name, "inputs": dir, "outs": [dir, ...],
  "steps": [[result, ...], ...]}`` checks each pass's outputs and, given
  two passes, that they are identical.
* ``{"op": "quit"}`` ends the process.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from typing import Any, Callable, Sequence


def run_steps(
    steps: Sequence[tuple[str, Sequence[str]]],
    main: Callable[[list[str]], int],
    tracer=None,
) -> list[dict[str, Any]]:
    """Run each step, timing it and capturing what it printed; never aborts."""
    results = []
    for label, argv in steps:
        out, err = io.StringIO(), io.StringIO()
        span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
        error = None
        cpu_start = time.process_time()
        start = time.perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(list(argv))
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crashing step is a failed step, not a crashed run
            rc = None
            error = f"{type(exc).__name__}: {exc}"
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        cpu_seconds = time.process_time() - cpu_start
        if rc != 0 and error is None:
            lines = err.getvalue().strip().splitlines()
            error = lines[-1] if lines else f"exit code {rc}"
        results.append(
            {
                "label": label,
                "argv": list(argv),
                "rc": rc,
                "error": error,
                "stderr": err.getvalue(),
                "seconds": seconds,
                "cpu_seconds": cpu_seconds,
                "stdout": out.getvalue(),
            }
        )
    return results


def _steps(request: dict[str, Any], main) -> dict[str, Any]:
    if not request["trace"]:
        return {"steps": run_steps(request["steps"], main), "spans": []}
    import tracing

    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        results = run_steps(request["steps"], main, tracer)
    finally:
        restore()
    return {"steps": results, "spans": tracer.spans, "distinct_rows": tracer.distinct_rows()}


def _check(request: dict[str, Any]) -> dict[str, Any]:
    import checks

    failures: list[str] = []
    values: dict[str, float] = {}
    for out, steps in zip(request["outs"], request["steps"], strict=True):
        found, values = checks.check_outputs(request["workload"], request["inputs"], out, steps)
        failures += found
    if len(request["outs"]) == 2:
        failures += checks.compare_outputs(*request["outs"], *request["steps"])
    return {"failures": failures, "values": values}


def main() -> int:
    channel = sys.stdout
    start = time.perf_counter()
    from diaggen import cli

    import_s = time.perf_counter() - start

    def send(doc: dict[str, Any]) -> None:
        channel.write(json.dumps(doc) + "\n")
        channel.flush()

    send({"import_s": import_s, "diaggen": cli.__file__})
    for line in sys.stdin:
        request = json.loads(line)
        if request["op"] == "quit":
            break
        if request["op"] == "steps":
            reply = _steps(request, cli.main)
            # ru_maxrss is in KiB on Linux and only grows, so this is the
            # peak over the import and every pass so far.
            reply["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elif request["op"] == "check":
            reply = _check(request)
        else:
            reply = {"error": f"unknown op {request['op']!r}"}
        send(reply)
    return 0


if __name__ == "__main__":
    sys.exit(main())
