"""The gain and bound rules of ``scripts/bench.py``'s comparison, its
per-layer record, and the copies that each side runs from."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parent.parent / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

METRIC = {"name": "t", "unit": "s", "better": "lower", "bound": 0.25}


def run(value, correct=True, failed=0):
    metrics = {} if value is None else {"t": {"value": value}}
    return {"correct": correct, "failed": failed, "metrics": metrics}


BASE = [run(1.0 + 0.01 * k) for k in range(10)]
FASTER = [run(0.7) for _ in range(10)]


def test_a_clear_win_is_a_gain_within_bound():
    result = bench.compare(METRIC, BASE, FASTER)
    assert (result["pairs"], result["measured"], result["wins"]) == (10, 10, 10)
    assert result["gain"] is True and result["within_bound"] is True


def test_a_crashed_or_failing_change_run_is_no_gain():
    crashed = FASTER[:3] + [run(None, False, None)] + FASTER[4:]
    result = bench.compare(METRIC, BASE, crashed)
    assert (result["measured"], result["wins"], result["gain"]) == (9, 9, False)
    failing = FASTER[:3] + [run(0.7, failed=1)] + FASTER[4:]
    assert bench.compare(METRIC, BASE, failing)["gain"] is False


def test_a_pair_lost_to_a_crashed_base_run_counts_against_the_gain():
    base = [run(None, False, None), run(None, False, None)] + BASE[2:]
    result = bench.compare(METRIC, base, FASTER)
    assert (result["pairs"], result["wins"], result["gain"]) == (10, 8, False)


def test_a_base_spread_wider_than_the_bound_leaves_the_bound_unresolved():
    wide = [run(1.0 + 0.1 * k) for k in range(10)]
    assert bench.compare(METRIC, wide, FASTER)["within_bound"] is None
    assert bench.compare(METRIC, BASE, [run(1.5) for _ in range(10)])["within_bound"] is False


def traced(correct=True, unit="s", **values):
    return {"correct": correct, "failed": 0,
            "metrics": {name: {"value": v, "unit": unit} for name, v in values.items()}}


def test_layers_keep_each_side_and_the_ratio():
    got = bench.layers(traced(a=2.0, b=1.0), traced(a=1.0, c=3.0))
    assert got["correct"] == {"base": True, "change": True}
    # one unscaled run per side: a time gets no ratio
    assert got["metrics"] == {
        "a": {"unit": "s", "base": 2.0, "change": 1.0, "ratio": None},
        "b": {"unit": "s", "base": 1.0, "change": None, "ratio": None},
        "c": {"unit": "s", "base": None, "change": 3.0, "ratio": None},
    }
    counts = bench.layers(traced(unit="count", n=40.0), traced(unit="count", n=30.0))
    assert counts["metrics"]["n"] == {"unit": "count", "base": 40.0, "change": 30.0, "ratio": 0.75}
    crashed = {"correct": False, "failed": None, "metrics": {}}
    assert bench.layers(crashed, traced(a=1.0))["correct"] == {"base": False, "change": True}


def test_each_workload_gets_one_traced_run_per_side_on_the_first_seed(monkeypatch, tmp_path):
    calls = []

    def run_once(tree, workload, seed, seconds, trace=0):
        calls.append((tree.name == "change", workload, seed, trace))
        return traced(t=1.0)

    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr(bench, "export", lambda rev, into: "0" * 40)
    monkeypatch.setattr(bench, "copy_worktree", lambda into: None)
    out = tmp_path / "bench.json"
    assert bench.main(["--seeds", "5-7", "-o", str(out)]) == 0
    result = json.loads(out.read_text())
    for name, workload in result["workloads"].items():
        runs = [c for c in calls if c[1] == name]
        assert sorted(c[2] for c in runs if not c[3]) == [5, 5, 6, 6, 7, 7]
        assert sorted((c[0], c[2]) for c in runs if c[3]) == [(False, 5), (True, 5)]
        assert workload["layers"]["metrics"]["t"]["ratio"] is None


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@localhost",
                    "-c", "commit.gpgsign=false", *args], cwd=repo, check=True,
                   capture_output=True)


def _commit(repo):
    _git(repo, "add", "-A")
    _git(repo, "commit", "-q", "-m", "base")


@pytest.fixture
def repo(tmp_path):
    """An empty git repository with a benchmark spec of one workload that
    ignores ``ignored.txt``, nothing committed yet."""
    root = tmp_path / "repo"
    root.mkdir()
    spec = {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": [METRIC]}
    (root / "BENCHMARK.json").write_text(json.dumps(spec))
    (root / ".gitignore").write_text("ignored.txt\n")
    _git(root, "init", "-q")
    return root


def test_both_sides_run_from_copies_and_the_change_side_sees_the_working_tree(
        monkeypatch, tmp_path, repo):
    (repo / "edited.txt").write_text("committed")
    (repo / "deleted.txt").write_text("committed")
    _commit(repo)
    (repo / "edited.txt").write_text("edited")
    (repo / "deleted.txt").unlink()
    (repo / "new" / "file.txt").parent.mkdir()
    (repo / "new" / "file.txt").write_text("new")
    (repo / "ignored.txt").write_text("ignored")
    seen = {}

    def run_once(tree, workload, seed, seconds, trace=0):
        assert repo not in tree.parents and tree != repo
        seen.setdefault(tree.name, set()).add((
            (tree / "edited.txt").read_text(), (tree / "deleted.txt").exists(),
            (tree / "new" / "file.txt").exists(), (tree / "ignored.txt").exists()))
        return traced(t=1.0)

    monkeypatch.setattr(bench, "ROOT", repo)
    monkeypatch.setattr(bench, "run_once", run_once)
    assert bench.main(["--seeds", "1-2", "-o", str(tmp_path / "bench.json")]) == 0
    assert seen == {"base": {("committed", True, False, False)},
                    "change": {("edited", False, True, False)}}


def test_the_record_counts_each_sides_python_source_lines(monkeypatch, tmp_path, repo, capsys):
    (repo / "src" / "pkg").mkdir(parents=True)
    (repo / "src" / "pkg" / "a.py").write_text("a = 1\nb = 2\nc = 3\n")
    (repo / "src" / "pkg" / "__init__.py").write_text("")
    (repo / "src" / "notes.txt").write_text("not python\n")
    (repo / "top.py").write_text("outside src\n")
    _commit(repo)
    (repo / "src" / "pkg" / "a.py").write_text("a = 1\n")
    (repo / "src" / "b.py").write_text("b = 2\nc = 3\nd = 4\n")
    monkeypatch.setattr(bench, "ROOT", repo)
    monkeypatch.setattr(bench, "run_once", lambda *args, **kwargs: traced(t=1.0))
    out = tmp_path / "bench.json"
    assert bench.main(["--seeds", "1-2", "-o", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["src_lines"] == {"base": 3, "change": 4}
    # each file's counts on both sides, null on the side without it
    assert result["src_files"] == {
        "src/b.py": {"lines": {"base": None, "change": 3},
                     "code_lines": {"base": None, "change": 3}},
        "src/pkg/a.py": {"lines": {"base": 3, "change": 1},
                         "code_lines": {"base": 3, "change": 1}},
        "src/pkg/__init__.py": {"lines": {"base": 0, "change": 0},
                                "code_lines": {"base": 0, "change": 0}},
    }
    # stderr names the files whose counts changed, with the change
    err = capsys.readouterr().err
    assert "src/b.py: lines None -> 3 (+3), code_lines None -> 3 (+3)" in err
    assert "src/pkg/a.py: lines 3 -> 1 (-2), code_lines 3 -> 1 (-2)" in err
    assert "__init__.py" not in err


CODE = '''"""A module docstring
over two lines."""

# a comment
x = 1  # a comment after code


class C:
    """A class docstring."""

    def f(self):
        """A method docstring."""
        return """a string
        that is no docstring"""
'''


def test_the_record_counts_each_sides_code_lines(monkeypatch, tmp_path, repo):
    (repo / "src").mkdir()
    (repo / "src" / "a.py").write_text(CODE)
    (repo / "top.py").write_text("outside = src\n")
    _commit(repo)
    # x = 1, class C:, def f(self):, and the two lines of the returned string
    assert bench.src_code_lines(repo) == 5
    # a docstring edit moves src_lines only
    (repo / "src" / "a.py").write_text(CODE.replace("over two lines.", "over\nthree lines."))
    (repo / "src" / "b.py").write_text("def g():\n    return 1\n")
    monkeypatch.setattr(bench, "ROOT", repo)
    monkeypatch.setattr(bench, "run_once", lambda *args, **kwargs: traced(t=1.0))
    out = tmp_path / "bench.json"
    assert bench.main(["--seeds", "1-2", "-o", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["src_lines"] == {"base": 14, "change": 17}
    assert result["src_code_lines"] == {"base": 5, "change": 7}


def test_a_count_or_ratio_the_change_no_longer_reports_is_lost(monkeypatch, tmp_path, capsys):
    base = {"correct": True, "failed": 0, "metrics": {
        "pairs": {"value": 763, "unit": "count"}, "gone": {"value": 5, "unit": "count"},
        "ratio": {"value": 0.5, "unit": "ratio"}, "zero": {"value": 0, "unit": "count"},
        "kept": {"value": 7, "unit": "count"}, "t": {"value": 1.0, "unit": "s"}}}
    change = {"correct": True, "failed": 0, "metrics": {
        "pairs": {"value": 0, "unit": "count"}, "ratio": {"value": 0.0, "unit": "ratio"},
        "zero": {"value": 0, "unit": "count"}, "kept": {"value": 3, "unit": "count"},
        "t": {"value": 0, "unit": "s"}, "new": {"value": 2, "unit": "count"}}}
    # a time that reads 0 and a count that was 0 on both sides are not lost
    assert bench.layers(base, change)["lost"] == ["gone", "pairs", "ratio"]
    assert bench.layers(change, base)["lost"] == ["new"]

    def run_once(tree, workload, seed, seconds, trace=0):
        if not trace:
            return traced(t=1.0)
        return change if tree.name == "change" else base

    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr(bench, "export", lambda rev, into: "0" * 40)
    monkeypatch.setattr(bench, "copy_worktree", lambda into: None)
    out = tmp_path / "bench.json"
    assert bench.main(["--seeds", "1-2", "-o", str(out)]) == 0
    workloads = json.loads(out.read_text())["workloads"]
    lines = [line for line in capsys.readouterr().err.splitlines() if " lost: " in line]
    assert lines == [line for name in workloads for line in (
        f"{name}: layer gone lost: 5 on the revision, nothing on the working tree",
        f"{name}: layer pairs lost: 763 on the revision, 0 on the working tree",
        f"{name}: layer ratio lost: 0.5 on the revision, 0.0 on the working tree")]
    assert all(w["layers"]["lost"] == ["gone", "pairs", "ratio"] for w in workloads.values())


def test_a_workload_filter_runs_only_the_named_workloads(monkeypatch, tmp_path, repo):
    spec = json.loads((repo / "BENCHMARK.json").read_text())
    spec["workloads"] = [{"name": name} for name in ("w", "v", "u")]
    (repo / "BENCHMARK.json").write_text(json.dumps(spec))
    ran = []

    def run_once(tree, workload, seed, seconds, trace=0):
        ran.append(workload)
        return traced(t=1.0)

    monkeypatch.setattr(bench, "ROOT", repo)
    monkeypatch.setattr(bench, "run_once", run_once)
    monkeypatch.setattr(bench, "export", lambda rev, into: "0" * 40)
    monkeypatch.setattr(bench, "copy_worktree", lambda into: None)
    out = tmp_path / "bench.json"
    # the file's order, whatever the order named
    assert bench.main(["--seeds", "1-2", "--workloads", "u,w", "-o", str(out)]) == 0
    assert list(json.loads(out.read_text())["workloads"]) == ["w", "u"]
    assert sorted(set(ran)) == ["u", "w"] and len(ran) == 2 * (4 + 2)
    ran.clear()
    assert bench.main(["--seeds", "1-2", "-o", str(out)]) == 0
    assert list(json.loads(out.read_text())["workloads"]) == ["w", "v", "u"]
    with pytest.raises(SystemExit) as stop:
        bench.main(["--seeds", "1-2", "--workloads", "w,nope", "-o", str(out)])
    assert stop.value.code == 2
