#!/usr/bin/env python3
"""kanbex benchmark: one workload, one seed, one process.

    python3 kanbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the engine is imported from ``src/`` next to this
directory.  A closed loop with one client sets up and runs the workload's
operation, one at a time, for about ``--seconds`` (at least once), and
checks every output: against the byte digests recorded in
``digests.json`` and against permutation oracles that share no code with
the engine.

``--trace 0`` prints the end-to-end metrics: the operation's seconds at
the fastest the run saw (``solve_s_min``), the set-up's seconds taken
the same way (``setup_s``), both scaled to a host of fixed speed (see below), and the
peak RSS after the first operation, before its checks allocate.  It also
prints, not gated and not scaled, the median seconds per operation and
per set-up, the tail (the highest percentile with ten operations beyond
it, or the maximum under a hundred operations) and the failed ratio.
Failures are carried by ``attempted`` and ``failed``.

On a shared host the CPU speed switches between levels up to 2x apart
(a 2-vCPU Xeon VM) for fractions of a second to tens of seconds at a
time, the levels themselves drift for minutes, and interference only
ever adds time.  The medians, and even the fastest whole operation of a
run, then follow the host.  Two things take it out:

* Segments.  Every operation after the first is split into short
  segments by stamps taken at calls to inner engine functions
  (``CHECKPOINTS``; the reduce operation is also stamped after each
  ``reduce_term`` call).  The operation is deterministic, so the i-th
  segment of every operation does the same work; ``solve_s_min`` sums
  each segment's fastest time over the run.  A segment of milliseconds
  falls inside a fast period far more often than an operation of
  seconds does.  Stamping costs about 1% of an operation.
* A reference.  A fixed piece of pure-Python work (``reference.py``) is
  timed inside each operation, at every ``reference_every``-th stamp and
  once after it, and its seconds are left out of the segments.  Taken
  the same way as the segments (each position's fastest time, averaged),
  it says how fast the host was when the run was fastest;
  ``solve_s_min`` is divided by it and multiplied by
  ``REFERENCE_SECONDS``.  The unscaled times are printed too.

Set-ups give ``setup_s`` the same way, each with the reference run once
after it: the completion in a reduce workload's set-up is stamped at the
same calls, while a CLI workload's set-up, mostly import, is one segment.

``--trace 1`` alternates untraced and traced operations, writes the
spans to ``kanbench/out/`` and prints the per-layer metrics and the
tracing overhead; one last operation, untimed, counts the one-arrow
extensions that enumeration tries.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import re
import resource
import statistics
import sys
import time
import traceback
import types
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"
KANBEX_MODULES = ("model", "ordering", "encodings", "rewrite", "kan", "cli")
# set-ups timed per operation: a set-up is short, and more of them make
# it likelier that the run's fastest falls in a fast period of the host
SETUPS_PER_OP = 3
# seconds the reference work (reference.py) takes on the host the
# reported times are scaled to: about the fast level of the 2-vCPU Xeon
# VM the benchmark was tuned on
REFERENCE_SECONDS = 0.001
# calls that split an operation into segments for solve_s_min: (module,
# attribute, stride), a stamp before every stride-th call.  They are
# engine internals and may change with it; one that is missing is
# skipped, and with none a CLI operation is one segment.  Enumeration is
# stamped at the terms it accepts, not at the extensions it tries: that
# is seven times fewer wrapper calls on Coxeter S8 (under 1% of an
# operation, against ~5% when stamping ``_extension_reducible``), and
# does not depend on how the extensions are tested.
CHECKPOINTS = (
    ("rewrite", "_reduce_path", 1),  # completion, confluence re-check
    ("rewrite", "_reduce_term", 1),
    ("kan", "Term", 8),  # enumeration: one call per normal form
)

sys.path.insert(0, str(HERE))
import reference  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "catalogue": enumerate, exit 0; "budget": enumerate, exit 2; "reduce"
    group: wl.Group
    enumerate_args: tuple[str, ...] = ()
    order: int = 0  # catalogue size
    words: int = 0
    word_len: int = 0
    # stamps between two runs of the reference work inside an operation:
    # about 25 runs of ~1 ms spread over it
    reference_every: int = 0


_COXETER8 = wl.coxeter(8)
_COXETER4 = wl.coxeter(4)
WORKLOADS = {w.name: w for w in (
    Workload("s5_complete", "catalogue", wl.S5, order=120, reference_every=1000),
    Workload("coxeter8_enumerate", "catalogue", _COXETER8, ("--limit", "50000"),
             order=40320, reference_every=320),
    Workload("vondyck_budget", "budget", wl.VONDYCK, ("--max-passes", "9"),
             reference_every=224),
    Workload("coxeter8_reduce", "reduce", _COXETER8, words=200, word_len=64,
             reference_every=16),
    # small cases for the benchmark's own tests
    Workload("coxeter4_enumerate", "catalogue", _COXETER4, ("--limit", "50000"),
             order=24, reference_every=4),
    Workload("coxeter4_reduce", "reduce", _COXETER4, words=5, word_len=8,
             reference_every=2),
)}


@dataclass
class State:
    """What one set-up leaves for the operations."""

    kb: types.SimpleNamespace  # the freshly imported kanbex modules
    inputs: wl.Inputs
    path: Path  # presentation file the CLI reads
    system: object = None  # reduce: the completed rewrite system
    terms: list = field(default_factory=list)  # reduce: the input terms


def _import_kanbex() -> types.SimpleNamespace:
    # a fresh import each set-up, so that import time is measured each time
    for name in [m for m in sys.modules if m == "kanbex" or m.startswith("kanbex.")]:
        del sys.modules[name]
    kb = types.SimpleNamespace(**{
        m: importlib.import_module(f"kanbex.{m}") for m in KANBEX_MODULES})
    if Path(kb.cli.__file__).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"kanbex imported from {kb.cli.__file__}, not from {SRC}")
    return kb


def presentation_path(w: Workload, seed: int) -> Path:
    # the content depends on the seed: a file per process, so that runs
    # sharing a checkout do not overwrite each other's input
    return OUT / f"{w.name}-seed{seed}-{os.getpid()}.json"


def set_up(w: Workload, seed: int, tracer: spans.Tracer | None = None,
           segments: Segments | None = None) -> State:
    """Import, generate the seed's inputs, encode and write the presentation;
    for reduce workloads also complete it and reduce once, so the lazily
    built rule index exists before the first timed operation."""
    kb = _import_kanbex()
    if tracer is not None:
        tracer.install(kb)
    if segments is not None:
        segments.install(kb)
    try:
        inputs = wl.make_inputs(w.group, seed, w.words, w.word_len)
        desc = kb.encodings.MonoidPresentationDesc(inputs.generators, inputs.relations)
        pres = kb.encodings.from_monoid_presentation(desc, point=inputs.point)
        OUT.mkdir(exist_ok=True)
        path = presentation_path(w, seed)
        path.write_text(json.dumps(kb.model.presentation_to_json(pres)) + "\n", encoding="utf-8")
        state = State(kb, inputs, path)
        if w.kind == "reduce":
            pres = kb.model.load_presentation(path)
            report = kb.model.validate_presentation(pres)
            if not report.ok:
                raise RuntimeError(f"invalid presentation: {report.violations}")
            order = kb.ordering.OrderSpec.from_presentation(pres)
            result = kb.rewrite.complete(kb.rewrite.initial_rules(pres, order), order)
            if not result.complete:
                raise RuntimeError(f"completion stopped: {result.reason}")
            state.system = result.system
            state.terms = [kb.model.list_as_term((inputs.point, *word), pres)
                           for word in inputs.words]
            kb.rewrite.reduce_term(kb.model.list_as_term((inputs.point,), pres), state.system)
    finally:
        if tracer is not None:
            tracer.remove()
        if segments is not None:
            segments.remove()
    return state


def run_op(w: Workload, state: State, stamp=None):
    """One operation; ``stamp``, if given, is called after each
    ``reduce_term`` call of a reduce operation."""
    if w.kind == "reduce":
        reduce_term, system = state.kb.rewrite.reduce_term, state.system
        out = []
        for t in state.terms:
            out.append(reduce_term(t, system))
            if stamp is not None:
                stamp()
        return out
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = state.kb.cli.main(["enumerate", str(state.path), *w.enumerate_args])
    return code, out.getvalue(), err.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _max_passes(w: Workload) -> int:
    return int(w.enumerate_args[w.enumerate_args.index("--max-passes") + 1])


def _budget_stderr(w: Workload) -> re.Pattern:
    passes = _max_passes(w)
    return re.compile(rf"completion limit exceeded \(pass limit {passes} reached\) "
                      rf"after {passes} passes; (\d+) rules so far\n")


def check_cli(w: Workload, code: int, stdout: str, stderr: str,
              digests: dict) -> list[str]:
    """Checks on one CLI run, its labels already mapped back to canonical ones."""
    problems = []
    want = digests.get(w.name)
    got = {"exit": code, "stdout_sha256": _sha256(stdout), "stderr_sha256": _sha256(stderr)}
    if want is None:
        problems.append(f"no recorded digest for {w.name}")
    else:
        problems += [f"{k} differs from the recorded output" for k in got if got[k] != want[k]]
    if w.kind == "catalogue":
        if code != 0 or stderr:
            problems.append(f"exit {code}, stderr {stderr[:200]!r}; expected exit 0, no stderr")
        problems += wl.check_catalogue(w.group, w.order, stdout)
    else:
        if code != 2 or stdout or not _budget_stderr(w).fullmatch(stderr):
            problems.append(f"exit {code}, stderr {stderr[:200]!r}; expected exit 2 "
                            "and the pass-limit message only")
    return problems


def check(w: Workload, state: State, output, digests: dict) -> list[str]:
    inputs = state.inputs
    if w.kind != "reduce":
        code, stdout, stderr = output
        return check_cli(w, code, inputs.canonical(stdout), inputs.canonical(stderr), digests)
    problems = [f"normal form tagged {t.tag!r}" for t in output if t.tag != inputs.point]
    words = [inputs.canonical_word(word) for word in inputs.words]
    normal_forms = [inputs.canonical_word(t.path.labels) for t in output]
    return problems + wl.check_reduced(w.group, words, normal_forms)


def check_budget_rules(w: Workload, state: State, stderr: str) -> list[str]:
    """The budgeted run's rules (recomputed through the library, since the
    CLI prints none on a pass limit) all hold in the S5 quotient and are
    as many as the CLI reported."""
    kb, inputs = state.kb, state.inputs
    pres = kb.model.load_presentation(state.path)
    order = kb.ordering.OrderSpec.from_presentation(pres)
    result = kb.rewrite.complete(kb.rewrite.initial_rules(pres, order), order,
                                 max_passes=_max_passes(w))
    m = _budget_stderr(w).fullmatch(inputs.canonical(stderr))
    problems = []
    if result.complete or m is None or int(m.group(1)) != len(result.system):
        problems.append(f"library run: complete={result.complete}, {len(result.system)} rules; "
                        f"CLI stderr {stderr[:200]!r}")

    def word(side) -> wl.Word:
        # a term rule's sides are terms over the point: keep their paths
        return inputs.canonical_word(getattr(side, "path", side).labels)

    return problems + wl.check_rules_hold(
        w.group, [(word(r.lhs), word(r.rhs)) for r in result.system.rules])


class Segments:
    """Each segment's fastest seconds over the operations (or set-ups) of
    a run, and the same for the reference work, which runs at every
    ``reference_every``-th stamp and once after the operation; its
    seconds are left out of the segments."""

    def __init__(self, reference_every: int = 0):
        self.seconds: list[float] = []  # this operation's segments
        self.references: list[float] = []  # this operation's reference work
        self.fastest: list[float] | None = None
        self.reference_fastest: list[float] | None = None
        self.reference_times: list[float] = []  # every reference of the run
        self.operations = 0
        self.mismatched = 0  # operations whose segment or reference count differed
        self._patched: list[tuple[object, str, object]] = []
        # start of the current segment, stamps since the last reference
        self._state = [0.0, 0]
        seconds, references, state = self.seconds, self.references, self._state
        clock = time.perf_counter

        def stamp() -> None:
            now = clock()
            seconds.append(now - state[0])
            state[1] += 1
            if state[1] == reference_every:
                state[1] = 0
                references.append(_time_reference())
                now = clock()
            state[0] = now
        self.stamp = stamp

    def install(self, kb: types.SimpleNamespace) -> None:
        """Stamp before calls to the CHECKPOINTS found in ``kb``."""
        for module_name, attr, stride in CHECKPOINTS:
            module = getattr(kb, module_name)
            fn = getattr(module, attr, None)
            if callable(fn):
                self._patched.append((module, attr, fn))
                setattr(module, attr, self._stamped(fn, stride))

    def _stamped(self, fn, stride: int):
        stamp = self.stamp
        if stride == 1:
            def stamped(*args, **kwargs):
                stamp()
                return fn(*args, **kwargs)
            return stamped
        calls = itertools.count()

        def stamped_every(*args, **kwargs):
            if not next(calls) % stride:
                stamp()
            return fn(*args, **kwargs)
        return stamped_every

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def begin(self) -> None:
        """Start an operation; one that never ends is dropped here."""
        self.seconds.clear()
        self.references.clear()
        self._state[:] = [time.perf_counter(), 0]

    def end_operation(self) -> float:
        """Close the operation's last segment, time the reference work once
        more and fold the operation in; return the seconds the reference
        work took inside the operation."""
        self.seconds.append(time.perf_counter() - self._state[0])
        inside = sum(self.references)
        self.references.append(_time_reference())
        self.fold(self.seconds, self.references)
        return inside

    def fold(self, seconds: list[float], references: list[float]) -> None:
        """Fold one operation's segment and reference seconds in."""
        if self.fastest is None:
            self.fastest, self.reference_fastest = list(seconds), list(references)
        elif (len(seconds), len(references)) != (len(self.fastest), len(self.reference_fastest)):
            self.mismatched += 1
        else:
            self.fastest = list(map(min, self.fastest, seconds))
            self.reference_fastest = list(map(min, self.reference_fastest, references))
        self.reference_times += references
        self.operations += 1


def _time_reference() -> float:
    t0 = time.perf_counter()
    total = reference.work()
    seconds = time.perf_counter() - t0
    if total != reference.EXPECTED:
        raise RuntimeError(f"reference work gave {total}, not {reference.EXPECTED}")
    return seconds


@dataclass
class Measured:
    times: list[float] = field(default_factory=list)
    segments: Segments = field(default_factory=Segments)  # untraced, after the first
    setup_segments: Segments = field(default_factory=Segments)  # untraced
    traced_times: list[float] = field(default_factory=list)
    setup_times: list[float] = field(default_factory=list)
    op_runs: list[str] = field(default_factory=list)
    setup_runs: list[str] = field(default_factory=list)
    count_runs: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0  # after the first operation, before its checks


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(w: Workload, seed: int, seconds: float, digests: dict,
            tracer: spans.Tracer | None = None) -> Measured:
    """Closed loop, one operation in flight, for about ``seconds`` and at
    least two operations.  Each operation gets set-ups of its own, timed
    too, so set-ups are sampled across the run as operations are; the
    operation uses the last.  Without a tracer, the set-ups and every
    operation after the first are split into segments.  With a tracer, set-ups and every second
    operation are traced, and one more operation, untimed, counts the
    calls in ``spans.COUNTED_CALLS``."""
    m = Measured(segments=Segments(w.reference_every))
    verified = None  # the last output that passed; equal outputs pass too
    start = time.perf_counter()
    counting = False
    while True:
        k = m.attempted
        setup_times, setup_runs = [], []
        for j in range(SETUPS_PER_OP):
            setup_runs.append(f"setup-{k}.{j}")
            segments = None if tracer else m.setup_segments
            if segments is not None:
                segments.begin()
            t0 = time.perf_counter()
            with tracer.root("setup", setup_runs[-1]) if tracer else contextlib.nullcontext():
                state = set_up(w, seed, tracer, segments)
            elapsed = time.perf_counter() - t0
            if segments is not None:
                elapsed -= segments.end_operation()
            setup_times.append(elapsed)

        traced = tracer is not None and (k % 2 == 1 or counting)
        # the first operation runs bare: it gives the engine's peak RSS
        segmented = tracer is None and k > 0
        run = f"{'count' if counting else 'op'}-{k}"
        if traced:
            tracer.install(state.kb, counting)
        if segmented:
            m.segments.install(state.kb)
            m.segments.begin()
        output = None
        t0 = time.perf_counter()
        try:
            with tracer.root("op", run) if traced else contextlib.nullcontext():
                output = run_op(w, state, m.segments.stamp if segmented else None)
        except Exception:
            traceback.print_exc()
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.remove()
            if segmented:
                m.segments.remove()
        if segmented and output is not None:
            elapsed -= m.segments.end_operation()
        if k == 0:
            # the engine's own peak: the checks below allocate too
            m.peak_rss_mb = _peak_rss_mb()
        if counting:
            m.count_runs.append(run)
        else:
            m.setup_times += setup_times
            m.setup_runs += setup_runs
            (m.traced_times if traced else m.times).append(elapsed)
            if traced:
                m.op_runs.append(run)
        m.attempted += 1
        if output is None:
            problems = ["operation raised"]
        elif output == verified:
            problems = []
        else:
            problems = check(w, state, output, digests)
        if problems:
            m.failed += 1
            print(f"kanbench: {w.name} {run} failed: " + "; ".join(problems[:5]), file=sys.stderr)
        else:
            verified = output
        if counting:
            break
        # stop when the next set-up and operation would likely end past the
        # deadline, so a run measures about ``seconds`` whatever their length
        typical = (statistics.median(m.traced_times + m.times)
                   + SETUPS_PER_OP * statistics.median(m.setup_times))
        if time.perf_counter() - start + typical > seconds and m.attempted >= 2:
            if tracer is None:
                break
            counting = True
    if w.kind == "budget":
        stderr = output[2] if output is not None else ""
        problems = check_budget_rules(w, state, stderr)
        if problems:
            # every operation computed the system this check found wrong
            m.failed = m.attempted
            print(f"kanbench: {w.name} rules check failed: " + "; ".join(problems[:5]),
                  file=sys.stderr)
    return m


def tail(times: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it.  Under a
    hundred samples that percentile would sit below p90 and move with the
    sample count, so the maximum is reported instead."""
    s = sorted(times)
    n = len(s)
    if n < 100:
        return s[-1], f"maximum of {n} operations"
    return s[n - 11], f"p{100 * (n - 10) / n:.1f} of {n} operations, 10 beyond it"


def at_fastest(seg: Segments, times: list[float]) -> tuple[float, float]:
    """The seconds of a piece of work (an operation or a set-up) at the
    fastest the run saw, and the reference work's seconds taken the same
    way: each segment's fastest time summed over the piece, and each
    reference's fastest time averaged; the fastest whole piece and the
    fastest reference if no piece was segmented or their counts differed."""
    if seg.fastest is None or seg.mismatched:
        return min(times), min(seg.reference_times, default=REFERENCE_SECONDS)
    return sum(seg.fastest), statistics.fmean(seg.reference_fastest)


def _segments_note(seg: Segments, times: list[float], what: str) -> str:
    if seg.fastest is None:
        return f"fastest of {len(times)} {what}, none segmented"
    if seg.mismatched:
        return (f"fastest of {len(times)} {what}: {seg.mismatched} of "
                f"{seg.operations} segmented ones had another segment count")
    return (f"{len(seg.fastest)} segments, each the fastest of "
            f"{seg.operations} {what}, summed")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    tracer = spans.Tracer() if trace else None
    try:
        m = measure(w, seed, seconds, digests, tracer)
    finally:
        presentation_path(w, seed).unlink(missing_ok=True)

    print(f"workload={w.name} seed={seed} attempted={m.attempted} failed={m.failed} "
          f"failed_ratio={m.failed / m.attempted:.4f} (not gated: carried by failed)")
    setup_s = statistics.median(m.setup_times)
    if tracer is None:
        solve_raw, solve_reference = at_fastest(m.segments, m.times)
        setup_raw, setup_reference = at_fastest(m.setup_segments, m.setup_times)
        metrics = {
            "solve_s_min": _metric(solve_raw * REFERENCE_SECONDS / solve_reference, "s"),
            "setup_s": _metric(setup_raw * REFERENCE_SECONDS / setup_reference, "s"),
            "peak_rss_mb": _metric(m.peak_rss_mb, "MB"),
        }
        references = m.segments.reference_times + m.setup_segments.reference_times
        print(f"  reference work: {len(references)} runs; times below are "
              f"scaled to a host on which it takes {REFERENCE_SECONDS} s")
        notes = {
            "solve_s_min": f"{solve_raw:.6f} s at reference {solve_reference:.6f} s; "
                           f"{_segments_note(m.segments, m.times, 'operations')}",
            "setup_s": f"{setup_raw:.6f} s at reference {setup_reference:.6f} s; "
                       f"{_segments_note(m.setup_segments, m.setup_times, 'set-ups')}",
            "peak_rss_mb": "after the first operation, before its checks; "
                           f"{_peak_rss_mb():.1f} MB with them",
        }
        for name, v in metrics.items():
            print(f"  {name:<14} {v['value']:12.6f} {v['unit']:<3} {notes[name]}")
        tail_value, tail_note = tail(m.times)
        print(f"  {'solve_s':<14} {statistics.median(m.times):12.6f} s   "
              f"median of {len(m.times)} operations (not gated)")
        print(f"  {'solve_s_tail':<14} {tail_value:12.6f} s   {tail_note} (not gated)")
        print(f"  {'setup_s_median':<14} {setup_s:12.6f} s   "
              f"median of {len(m.setup_times)} set-ups (not gated)")
        print("  operation seconds: " + " ".join(f"{t:.4f}" for t in m.times))
        print("  set-up seconds: " + " ".join(f"{t:.4f}" for t in m.setup_times))
        print("  reference seconds: " + " ".join(f"{t:.6f}" for t in references))
    else:
        trace_path = OUT / f"trace-{w.name}-seed{seed}.jsonl"
        tracer.write(trace_path)
        layers = spans.layer_metrics(tracer, m.op_runs, m.setup_runs, m.count_runs)
        traced = statistics.median(m.traced_times)
        base = {"operation": traced, "set-up": setup_s}
        print(f"  traced operations: {len(m.traced_times)}, median {traced:.4f} s; "
              f"spans in {trace_path.relative_to(HERE.parent)}")
        for name, (value, unit, where) in layers.items():
            share = f"{100 * value / base[where]:5.1f}% of {where}" \
                if unit == "s" and where in base else where
            print(f"  {name:<30} {value:14.6f} {unit:<5} {share}")
        metrics = {name: _metric(value, unit) for name, (value, unit, _) in layers.items()}
        # fastest against fastest, as solve_s_min is taken
        overhead = min(m.traced_times) / min(m.times)
        metrics["trace.overhead_ratio"] = _metric(overhead, "ratio")
        print(f"  {'trace.overhead_ratio':<30} {overhead:14.6f} ratio")
    return {"correct": m.failed == 0, "attempted": m.attempted, "failed": m.failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kanbex" / "__init__.py").is_file():
        print(f"kanbench: no kanbex sources in {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    # the CLI reads its default enumeration limit from here
    os.environ.pop("KANBEX_LIMIT", None)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
