"""The traced benchmark wraps package functions by name; keep them wrappable.

``pipebench/spans.py`` replaces module attributes of sparsetag with timing
wrappers. A refactor that renames or moves one of them fails here rather
than in the middle of a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import sparsetag
import sparsetag.cli  # noqa: F401  (the tracer patches attributes of every layer module)

PIPEBENCH = Path(__file__).resolve().parent.parent / "pipebench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PIPEBENCH))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.modules.pop("spans", None)
    tracer = spans.Tracer()
    tracer.install(sparsetag)
    try:
        patched = list(tracer._patched)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr) is not original
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
