"""The benchmark tracer's wrapped names exist in the library.

``perfbench/tracing.py`` wraps library functions by name; a deleted or
renamed one otherwise shows up only in a full traced benchmark run.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_install_and_restore_every_target(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer()
    # install looks every name up with vars(owner)[attr], so a missing one
    # raises KeyError here; restore raises if any original is not back.
    originals = [
        (owner, attr, vars(owner)[attr]) for owner, attr, _, _ in tracing._targets(tracer)
    ]
    restore = tracing.install(tracer)
    try:
        assert all(vars(owner)[attr] is not original for owner, attr, original in originals)
    finally:
        restore()
