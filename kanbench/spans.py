"""Spans around the public calls into each kanbex layer.

A traced operation replaces, for its duration, the module attributes
through which callers reach each layer (``cli.complete``,
``kan.check_confluence``, ...) with wrappers that record a span: name,
start, end, the span that caused it, and the operation's run id, plus
counts read off the call's arguments and result, or counted from the
calls it makes to an inner function (COUNTED_CALLS).  Spans stay in memory
and are written out when the benchmark ends.  Nothing under ``src/`` is
changed.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the causing span in Tracer.spans, -1 for a root
    run: str
    counts: dict | None = None
    # consecutive calls of a leaf in COALESCED share one span: ``busy`` is
    # the time inside them, ``end - start`` the interval they cover
    calls: int = 1
    busy: float = 0.0


def _completion_counts(args, result) -> dict:
    return {
        "passes": result.passes,
        "rules_added": result.rules_added,
        "rules_final": len(result.system),
        # list length of a left-hand side, tag included for term rules
        "max_lhs_len": max((len(r.lhs) for r in result.system.rules), default=0),
    }


def _enumeration_counts(args, result) -> dict:
    return {"normal_forms": result.total}


def _reduction_counts(args, result) -> dict:
    return {"letters_in": len(args[0].path), "letters_out": len(result.path)}


# leaves called once per normal form (40,320 times an operation on S8)
COALESCED = {"cli.format_term"}

# (module, attribute, count): calls that are counted, not timed, and only
# in the counting operation, so that the cost of counting them (282,240
# calls an operation on S8) stays out of the timed spans; each call adds
# one to that count of the innermost open span
COUNTED_CALLS = (
    # one per one-arrow extension that enumerate_extension tries
    ("kan", "_extension_reducible", "candidates"),
)

# (module, attribute looked up by the caller, span name, counts)
LAYER_CALLS: tuple[tuple[str, str, str, Callable | None], ...] = (
    # reached from cli.main
    ("cli", "load_presentation", "model.load_presentation", None),
    ("cli", "validate_presentation", "model.validate_presentation", None),
    ("cli", "initial_rules", "rewrite.initial_rules", None),
    ("cli", "complete", "rewrite.complete", _completion_counts),
    ("cli", "enumerate_extension", "kan.enumerate_extension", _enumeration_counts),
    ("cli", "format_system", "cli.format_system", None),
    ("cli", "format_term", "cli.format_term", None),
    # reached from inside complete and enumerate_extension
    ("rewrite", "interreduce", "rewrite.interreduce", None),
    ("rewrite", "find_critical_pairs", "rewrite.find_critical_pairs",
     lambda args, result: {"pairs": len(result)}),
    ("kan", "check_confluence", "rewrite.check_confluence", None),
    # reached from the benchmark's own set-up and reduce operations
    ("encodings", "from_monoid_presentation", "encodings.encode", None),
    ("model", "load_presentation", "model.load_presentation", None),
    ("model", "validate_presentation", "model.validate_presentation", None),
    ("rewrite", "initial_rules", "rewrite.initial_rules", None),
    ("rewrite", "complete", "rewrite.complete", _completion_counts),
    ("rewrite", "reduce_term", "rewrite.reduce_term", _reduction_counts),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._run = ""
        self._patched: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    def _open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._run))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        span = self.spans[sid]
        span.end = time.perf_counter()
        span.busy = span.end - span.start
        self._stack.pop()

    @contextmanager
    def root(self, name: str, run: str):
        """A root span for one operation or set-up; its calls share ``run``."""
        self._run = run
        sid = self._open(name)
        try:
            yield
        finally:
            self._close(sid)

    def _wrap_leaf(self, fn, name: str):
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                parent = self._stack[-1] if self._stack else -1
                last = self.spans[-1] if self.spans else None
                if last is not None and last.name == name and last.parent == parent:
                    last.end = end
                    last.busy += end - start
                    last.calls += 1
                else:
                    self.spans.append(Span(name, start, end, parent, self._run,
                                           busy=end - start))
        return traced

    def _wrap(self, fn, name: str, counts: Callable | None):
        if name in COALESCED:
            return self._wrap_leaf(fn, name)

        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if counts is not None:
                span = self.spans[sid]
                span.counts = {**(span.counts or {}), **counts(args, result)}
            return result
        return traced

    def _wrap_counted(self, fn, count: str):
        def counted(*args, **kwargs):
            span = self.spans[self._stack[-1]]
            if span.counts is None:
                span.counts = {}
            span.counts[count] = span.counts.get(count, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self, modules, counting: bool = False) -> None:
        """Wrap every layer call reachable through ``modules`` (an object
        with one attribute per kanbex module); with ``counting``, also
        count the calls in COUNTED_CALLS."""
        for module_name, attr, name, counts in LAYER_CALLS:
            module = getattr(modules, module_name)
            self._patch(module, attr, self._wrap(getattr(module, attr), name, counts))
        for module_name, attr, count in COUNTED_CALLS if counting else ():
            module = getattr(modules, module_name)
            self._patch(module, attr, self._wrap_counted(getattr(module, attr), count))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "run": s.run, "name": s.name, "parent": s.parent,
                    "start": s.start - self._t0, "end": s.end - self._t0,
                    "busy": s.busy, "calls": s.calls, "counts": s.counts,
                }) + "\n")

    def totals(self) -> dict[str, "_Totals"]:
        """Per run id: time per span name, time per ``parent>child`` pair,
        and each count summed under ``name.count`` and ``parent>name.count``."""
        out: dict[str, _Totals] = {}
        for s in self.spans:
            acc = out.setdefault(s.run, _Totals())
            keys = [s.name]
            if s.parent >= 0:
                keys.append(f"{self.spans[s.parent].name}>{s.name}")
            for key in keys:
                acc[key] += s.busy
                for count, value in (s.counts or {}).items():
                    acc[f"{key}.{count}"] += value
        return out


class _Totals(dict):
    """Sums that read as 0 for a span or count that never occurred."""

    def __missing__(self, key):
        return 0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# per-layer metric -> (unit, span names or counts that must occur in a run,
# value from a run's totals)
LAYER_METRICS: dict[str, tuple[str, tuple[str, ...], Callable[[dict], float]]] = {
    "model.load_s": ("s", ("model.load_presentation",),
                     lambda t: t["model.load_presentation"] + t["model.validate_presentation"]),
    "encodings.encode_s": ("s", ("encodings.encode",), lambda t: t["encodings.encode"]),
    "rewrite.initial_rules_s": ("s", ("rewrite.initial_rules",),
                                lambda t: t["rewrite.initial_rules"]),
    "rewrite.complete_s": ("s", ("rewrite.complete",),
                           lambda t: t["rewrite.complete"]
                           - t["rewrite.complete>rewrite.interreduce"]),
    "rewrite.passes": ("count", ("rewrite.complete",), lambda t: t["rewrite.complete.passes"]),
    "rewrite.rules_added": ("count", ("rewrite.complete",),
                            lambda t: t["rewrite.complete.rules_added"]),
    "rewrite.rules_final": ("count", ("rewrite.complete",),
                            lambda t: t["rewrite.complete.rules_final"]),
    "rewrite.max_lhs_len": ("count", ("rewrite.complete",),
                            lambda t: t["rewrite.complete.max_lhs_len"]),
    "rewrite.interreduce_s": ("s", ("rewrite.interreduce",), lambda t: t["rewrite.interreduce"]),
    "rewrite.check_confluence_s": ("s", ("rewrite.check_confluence",),
                                   lambda t: t["rewrite.check_confluence"]),
    "rewrite.critical_pairs_final": (
        "count", ("rewrite.check_confluence",),
        lambda t: t["rewrite.check_confluence>rewrite.find_critical_pairs.pairs"]),
    "kan.enumerate_s": ("s", ("kan.enumerate_extension",),
                        lambda t: t["kan.enumerate_extension"]),
    "kan.enumerate_self_s": ("s", ("kan.enumerate_extension",),
                             lambda t: t["kan.enumerate_extension"]
                             - t["kan.enumerate_extension>rewrite.check_confluence"]),
    "kan.normal_forms": ("count", ("kan.enumerate_extension",),
                         lambda t: t["kan.enumerate_extension.normal_forms"]),
    "kan.candidates": ("count", ("kan.enumerate_extension.candidates",),
                       lambda t: t["kan.enumerate_extension.candidates"]),
    "kan.accept_ratio": ("ratio", ("kan.enumerate_extension.candidates",),
                         lambda t: _ratio(t["kan.enumerate_extension.normal_forms"],
                                          t["kan.enumerate_extension.candidates"])),
    "cli.format_s": ("s", ("cli.format_system", "cli.format_term"),
                     lambda t: t["cli.format_system"] + t["cli.format_term"]),
    "rewrite.reduce_s": ("s", ("rewrite.reduce_term",), lambda t: t["rewrite.reduce_term"]),
    "rewrite.reduce_letters_in": ("count", ("rewrite.reduce_term",),
                                  lambda t: t["rewrite.reduce_term.letters_in"]),
    "rewrite.reduce_letters_out": ("count", ("rewrite.reduce_term",),
                                   lambda t: t["rewrite.reduce_term.letters_out"]),
}


def layer_metrics(tracer: Tracer, op_runs: list[str], setup_runs: list[str],
                  count_runs: list[str]) -> dict[str, tuple[float, str, str]]:
    """Each metric's median over the traced operations in which its layer
    ran; failing that, over the traced set-ups; failing that, over the
    counting operations; failing that, 0.

    Returns metric -> (value, unit, where it was measured).
    """
    totals = tracer.totals()
    out = {}
    places = (("operation", op_runs), ("set-up", setup_runs), ("counting operation", count_runs))
    for metric, (unit, names, value) in LAYER_METRICS.items():
        for where, runs in places:
            hit = [totals[r] for r in runs
                   if r in totals and any(n in totals[r] for n in names)]
            if hit:
                out[metric] = (statistics.median(value(t) for t in hit), unit, where)
                break
        else:
            out[metric] = (0.0, unit, "not run")
    return out
