"""Smoke tests for the benchmark itself, on Coxeter S4 with short words.

    python3 -m pytest kanbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(autouse=True)
def _presentations_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "kanbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_catalogue_run_prints_every_end_to_end_metric():
    result = _result(_bench("--workload", "coxeter4_enumerate", "--seed", "5",
                            "--seconds", "0", "--trace", "0"))
    # a bare first operation, then a segmented one
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 2, 0)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_reduce_run_prints_every_per_layer_metric():
    result = _result(_bench("--workload", "coxeter4_reduce", "--seed", "5",
                            "--seconds", "0", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        name: m["unit"] for name, m in metrics.items()}
    assert metrics["rewrite.reduce_letters_in"]["value"] == 5 * 8
    assert metrics["rewrite.rules_final"]["value"] > 0


def test_traced_catalogue_run_counts_the_extensions_tried():
    result = _result(_bench("--workload", "coxeter4_enumerate", "--seed", "5",
                            "--seconds", "0", "--trace", "1"))
    assert result["correct"] and result["attempted"] == 3  # untraced, traced, counting
    metrics = result["metrics"]
    # S4 has 24 elements and 3 generators, each tried on every normal form
    assert metrics["kan.normal_forms"]["value"] == 24
    assert metrics["kan.candidates"]["value"] == 24 * 3
    assert metrics["kan.accept_ratio"]["value"] == 24 / (24 * 3)


def test_solve_time_sums_each_segments_fastest():
    m = run.Measured(times=[4.0, 3.5, 3.6])
    seg = m.segments
    seg.fold([1.0, 2.0, 0.5], [0.002, 0.001])
    seg.fold([2.0, 1.0, 0.6], [0.001, 0.003])
    # each segment's fastest summed, each reference's fastest averaged
    assert run.at_fastest(seg, m.times) == (1.0 + 1.0 + 0.5, 0.001)
    seg.fold([1.0, 1.0], [0.001, 0.001])  # another segment count: whole operations
    assert run.at_fastest(seg, m.times) == (3.5, 0.001)
    assert run.at_fastest(run.Segments(), [4.0, 3.5]) == (3.5, run.REFERENCE_SECONDS)


def test_checkpoints_stamp_a_cli_operation_and_are_removed():
    w = run.WORKLOADS["coxeter4_enumerate"]
    state = run.set_up(w, 3)
    modules = {name: getattr(state.kb, name) for name, _, _ in run.CHECKPOINTS}
    originals = {(name, attr): getattr(modules[name], attr) for name, attr, _ in run.CHECKPOINTS}
    seg = run.Segments(reference_every=5)
    for _ in range(2):
        seg.install(state.kb)
        seg.begin()
        run.run_op(w, state)
        seg.remove()
        seg.end_operation()
    # the operation is deterministic: its segments and references line up
    assert (seg.operations, seg.mismatched) == (2, 0)
    assert len(seg.fastest) > 10
    assert len(seg.reference_fastest) == len(seg.fastest) // 5 + 1
    assert all(getattr(modules[name], attr) is fn for (name, attr), fn in originals.items())


def test_seed_fixes_the_inputs():
    a, b = wl.make_inputs(wl.coxeter(4), 1, 3, 8), wl.make_inputs(wl.coxeter(4), 1, 3, 8)
    c = wl.make_inputs(wl.coxeter(4), 2, 3, 8)
    assert a == b
    assert a.labels != c.labels and a.words != c.words
    assert a.canonical("e*" + "*".join(a.generators)) == "e*s1*s2*s3"


def test_checks_reject_wrong_outputs():
    w = run.WORKLOADS["coxeter4_enumerate"]
    digests = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    state = run.set_up(w, 9)
    code, stdout, stderr = run.run_op(w, state)
    stdout = state.inputs.canonical(stdout)
    assert run.check_cli(w, code, stdout, stderr, digests) == []

    swapped = stdout.replace("e*s1*s2,", "e*s2*s1,", 1)
    assert swapped != stdout
    assert run.check_cli(w, code, swapped, stderr, digests)
    assert wl.check_catalogue(w.group, w.order, swapped)  # two words, one element
    longer = stdout.replace("e*s1,", "e*s1*s2*s2,", 1)
    assert wl.check_catalogue(w.group, w.order, longer)  # longer than its inversions
    assert run.check_cli(w, 1, stdout, stderr, digests)

    s4 = w.group
    assert wl.check_reduced(s4, [("s1", "s2", "s1")], [("s2", "s1", "s2")]) == []
    assert wl.check_reduced(s4, [("s1", "s2", "s1")], [("s1", "s2")])
    assert wl.check_reduced(s4, [("s1", "s1", "s2")], [("s2", "s1", "s1")])
    assert wl.check_rules_hold(wl.S5, [(("a", "b") * 4, ())]) == []
    assert wl.check_rules_hold(wl.S5, [(("a", "b") * 2, ())])


def test_fails_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "kanbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = _bench("--workload", "coxeter4_enumerate", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_every_seed_prints_the_recorded_catalogue():
    w = run.WORKLOADS["coxeter4_enumerate"]
    digests = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    for seed in (1, 2):
        state = run.set_up(w, seed)
        assert run.check(w, state, run.run_op(w, state), digests) == []
