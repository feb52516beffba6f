"""The benchmark in ``kanbench/`` reaches the engine through module
attributes: it stamps calls to some (``run.CHECKPOINTS``), times others
(``spans.LAYER_CALLS``) and counts a few (``spans.COUNTED_CALLS``).  A
checkpoint that no longer exists is skipped without an error, and the
benchmark then only reads slower.  These tests load the benchmark's
tables, without running it, and check that every name resolves."""

import importlib
import importlib.util
import pathlib
import sys

import pytest

from .conftest import REPO

BENCH = REPO / "kanbench"


@pytest.fixture(scope="module")
def bench():
    """``kanbench/run.py`` loaded as a module.  It imports ``spans`` and its
    other siblings by putting its directory on ``sys.path``; the path is
    restored afterwards and the benchmark's modules leave ``sys.modules``."""
    path, modules = list(sys.path), set(sys.modules)
    try:
        spec = importlib.util.spec_from_file_location("kanbench_run", BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        # dataclasses look their module up here while run.py executes
        sys.modules[spec.name] = run
        spec.loader.exec_module(run)
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            if BENCH in pathlib.Path(getattr(sys.modules[name], "__file__", None) or "/").parents:
                del sys.modules[name]
    return run


def _missing(names):
    """The ``module.attribute`` names that do not resolve to a callable."""
    out = []
    for module, attr in names:
        fn = getattr(importlib.import_module(f"kanbex.{module}"), attr, None)
        if not callable(fn):
            out.append(f"{module}.{attr}")
    return out


def test_checkpoints_resolve(bench):
    assert bench.CHECKPOINTS
    assert _missing((m, a) for m, a, _ in bench.CHECKPOINTS) == []


def test_layer_calls_resolve(bench):
    assert bench.spans.LAYER_CALLS
    assert _missing((m, a) for m, a, _, _ in bench.spans.LAYER_CALLS) == []


def test_counted_calls_resolve(bench):
    assert bench.spans.COUNTED_CALLS
    assert _missing((m, a) for m, a, _ in bench.spans.COUNTED_CALLS) == []
