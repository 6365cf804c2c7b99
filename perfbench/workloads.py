"""The benchmark's workloads: README pipeline steps over one simulated world.

Each workload simulates a world from the seed it is given (the set-up) and
then runs a fixed list of ``diaggen`` CLI steps over it (the timed
pipeline). Every step uses the flags and defaults the README documents; the
GA search seed stays 0 as in the README, so the world seed is the only input
that varies between runs.
"""

from __future__ import annotations

from dataclasses import dataclass

# The default world seed; BASELINE.json also names 102 as the held-out seed.
DEFAULT_SEED = 101


@dataclass(frozen=True)
class Workload:
    name: str
    learners: int
    questions: int
    # One step is a (label, argv) pair; labels are unique within a workload.
    # Paths are written with {inputs} and {out} placeholders.
    steps: tuple[tuple[str, tuple[str, ...]], ...]

    def simulate_argv(self, seed: int, inputs: str) -> list[str]:
        return [
            "simulate",
            "--learners", str(self.learners),
            "--questions", str(self.questions),
            "--seed", str(seed),
            "--interactions-out", f"{inputs}/interactions.csv",
            "--snapshot-out", f"{inputs}/truth.csv",
        ]

    def pipeline(self, inputs: str, out: str) -> list[tuple[str, list[str]]]:
        return [
            (label, [arg.format(inputs=inputs, out=out) for arg in argv])
            for label, argv in self.steps
        ]


def _steps(*lines: str) -> tuple[tuple[str, tuple[str, ...]], ...]:
    """Parse "label: argv..." lines into step tuples."""
    steps = []
    for line in lines:
        label, argv = line.split(":", 1)
        steps.append((label.strip(), tuple(argv.split())))
    return tuple(steps)


WORKLOADS = {
    w.name: w
    for w in (
        # The raw-log path: CSV reading, pool building and the Rasch fit do
        # most of the work; the search is the cheap greedy, so a change to
        # the GA should leave this workload unchanged.
        Workload(
            name="log-rasch-6k",
            learners=6000,
            questions=50,
            steps=_steps(
                "estimate: estimate --interactions {inputs}/interactions.csv"
                " --estimator rasch --truth {inputs}/truth.csv --out {out}/estimated.csv",
                "calibrate: calibrate --snapshot {out}/estimated.csv --k 10",
                "search: search --snapshot {out}/estimated.csv --algo greedy --k 10"
                " --out {out}/greedy.json",
                "evaluate: evaluate --snapshot {out}/estimated.csv --result {out}/greedy.json",
            ),
        ),
        # The search path on the true snapshot of the same world: scoring
        # and the GA operators do the work, nothing is estimated. README
        # step 5 on the 10-repeat document is attempted as documented.
        Workload(
            name="snapshot-ga-6k",
            learners=6000,
            questions=50,
            steps=_steps(
                "sufficiency: sufficiency --snapshot {inputs}/truth.csv --step 100"
                " --out {out}/curve.csv",
                "search: search --snapshot {inputs}/truth.csv --algo ga --k 10"
                " --repeats 10 --seed 0 --out {out}/ga.json",
                "evaluate: evaluate --snapshot {inputs}/truth.csv --result {out}/ga.json",
            ),
        ),
        # Many tiny subsets scored exhaustively with no GA operators, and log
        # layers without an iterative solver; the oracle bounds greedy.
        Workload(
            name="pool30-brute",
            learners=6000,
            questions=30,
            steps=_steps(
                "estimate: estimate --interactions {inputs}/interactions.csv"
                " --estimator ratio --truth {inputs}/truth.csv --out {out}/estimated.csv",
                "search_brute: search --snapshot {out}/estimated.csv --algo brute --k 5"
                " --out {out}/brute.json",
                "search_greedy: search --snapshot {out}/estimated.csv --algo greedy --k 5"
                " --out {out}/greedy.json",
                "evaluate: evaluate --snapshot {out}/estimated.csv --result {out}/brute.json",
            ),
        ),
    )
}
