#!/usr/bin/env python3
"""Compare the working tree with a git revision on the benchmark.

    python3 scripts/bench.py --rev HEAD --seeds 601-610 -o BENCH_6.json

For every workload in ``BENCHMARK.json`` (or those that ``--workloads
a,b`` names, in the file's order) and every seed,
``kanbench/run.py`` runs once, for the benchmark's ``run_seconds``, on a
copy of the revision (``git archive`` into a temporary directory) and
once on a copy of the working tree (its tracked files as they are on
disk and its untracked files that are not ignored), one after the
other, with the side that goes first alternating from seed to seed.
Both sides run from a fresh copy, so neither reads the checkout's
caches or run output.  Each run is one process, run to the end before
the next starts.

The output holds, per workload and end-to-end metric, each side's runs,
median and quartiles, the number of pairs the working tree wins (ties,
and pairs where either run crashed, count for neither side), and the
working tree's median over the revision's.  ``gain`` is true when the
working tree wins at least nine pairs in ten, the medians differ by
more than the revision's interquartile range, and no working-tree run
is incorrect or fails more operations than its paired run.
``within_bound`` is true when the working tree's median is worse than
the revision's by no more than the metric's bound, taken as a fraction
of the revision's median, and null (unresolved) when the revision's
interquartile range is itself wider than that bound.  Every run's
``correct`` and ``failed`` are kept.

After the paired runs of a workload, one ``--trace 1`` run per side on
the first seed gives its per-layer metrics, kept under ``layers``: each
side's value and, for counts and ratios, the working tree's over the
revision's.  A time (unit ``s``) gets no ratio (null): each side's comes
from one run, not scaled to the host's speed, so the two differ with
the host as much as with the code.  The layers are not gated, but a
count or ratio that the revision reports as non-zero and the working
tree as 0, or not at all, is listed under ``lost`` and named on stderr:
that is more often a layer the trace no longer reaches than work saved.

``src_lines`` holds each side's line count of ``src/**/*.py``, and
``src_code_lines`` the lines of those files that hold code: not blank,
not only a comment, and no line of a docstring.  Both are taken on the
copies the runs use.  ``src_files`` holds both counts per file and side
(null on a side without the file), and the files whose counts differ
are named on stderr with the change.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    """``601-610`` or ``601,605,609``."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def export(rev: str, into: Path) -> str:
    """Write the committed files of ``rev`` into ``into``; its full hash."""
    sha = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", sha], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tempfile.TemporaryFile() as f:
        f.write(archive)
        f.seek(0)
        with tarfile.open(fileobj=f) as tar:
            tar.extractall(into)
    return sha


def copy_worktree(into: Path) -> None:
    """Copy the working tree into ``into``: the tracked files as they are
    on disk, and the untracked files that are not ignored."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                           cwd=ROOT, check=True, capture_output=True, text=True).stdout
    for name in filter(None, names.split("\0")):
        source = ROOT / name
        # a tracked file deleted on disk is left out
        if source.is_file():
            target = into / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(source, target)


def file_lines(path: Path) -> int:
    """Lines of the file, as ``wc -l`` counts them."""
    return path.read_bytes().count(b"\n")


def file_code_lines(path: Path) -> int:
    """Lines of the Python file that hold a token other than a comment or
    a docstring."""
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
    text = path.read_text(encoding="utf-8")
    # a docstring is the first statement of a module, class or function
    docs = {(node.body[0].lineno, node.body[0].col_offset)
            for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in skip and not (tok.type == tokenize.STRING and tok.start in docs):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def src_lines(tree: Path) -> int:
    """Lines of the Python files under ``tree/src``, as ``wc -l`` counts them."""
    return sum(file_lines(p) for p in tree.glob("src/**/*.py"))


def src_code_lines(tree: Path) -> int:
    """Lines of the Python files under ``tree/src`` that hold a token
    other than a comment or a docstring."""
    return sum(file_code_lines(p) for p in tree.glob("src/**/*.py"))


def src_files(base: Path, change: Path) -> dict:
    """Per Python file under ``src``, by its path in the tree: its
    ``lines`` and ``code_lines`` on each side, null where it is missing."""
    trees = {"base": base, "change": change}
    names = sorted({p.relative_to(tree).as_posix()
                    for tree in trees.values() for p in tree.glob("src/**/*.py")})
    return {name: {count: {side: fn(tree / name) if (tree / name).is_file() else None
                           for side, tree in trees.items()}
                   for count, fn in (("lines", file_lines), ("code_lines", file_code_lines))}
            for name in names}


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(tree / "kanbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"correct": False, "failed": None, "metrics": {}, "error": proc.stderr[-2000:]}
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def worse(b: dict, c: dict) -> bool:
    """The working tree's run ``c`` is incorrect or fails more than ``b``."""
    return not c["correct"] or (b["failed"] is not None and c["failed"] > b["failed"])


def compare(metric: dict, base: list[dict], change: list[dict]) -> dict:
    name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
    pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
             for b, c in zip(base, change) if name in b["metrics"] and name in c["metrics"]]
    if len(pairs) < 2:
        return {"pairs": len(base), "measured": len(pairs), "gain": False, "within_bound": None}
    old, new = summary([b for b, _ in pairs]), summary([c for _, c in pairs])
    wins = sum((c < b) if lower else (c > b) for b, c in pairs)
    ratio = new["median"] / old["median"]
    gap = (old["median"] - new["median"]) if lower else (new["median"] - old["median"])
    iqr = old["q3"] - old["q1"]
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": bound,
        "base": old, "change": new, "pairs": len(base), "measured": len(pairs), "wins": wins,
        "ratio": ratio,
        "gain": (wins >= 0.9 * len(base) and gap > iqr
                 and not any(worse(b, c) for b, c in zip(base, change))),
        "within_bound": (None if iqr > bound * old["median"]
                         else ratio <= 1 + bound if lower else ratio >= 1 - bound),
    }


def layers(base: dict, change: dict) -> dict:
    """The per-layer metrics of one traced run per side; times get no ratio.
    ``lost`` names the counts and ratios non-zero on the base side only."""
    metrics = {}
    for name in {**base["metrics"], **change["metrics"]}:
        b, c = base["metrics"].get(name), change["metrics"].get(name)
        old, new = b and b["value"], c and c["value"]
        unit = (b or c)["unit"]
        metrics[name] = {"unit": unit, "base": old, "change": new,
                         "ratio": new / old if old and new is not None and unit != "s" else None}
    lost = sorted(name for name, m in metrics.items()
                  if m["unit"] != "s" and m["base"] and not m["change"])
    return {"correct": {"base": base["correct"], "change": change["correct"]},
            "metrics": metrics, "lost": lost}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD", help="the revision to compare against")
    parser.add_argument("--seeds", type=seed_list, default=seed_list("601-610"))
    parser.add_argument("-o", "--output", type=Path, required=True)
    parser.add_argument("--workloads", type=lambda text: text.split(","), default=None,
                        metavar="A,B", help="run only these workloads (default: all)")
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads is not None:
        unknown = sorted(set(args.workloads) - set(names))
        if unknown:
            parser.error(f"unknown workload: {', '.join(unknown)}")
        names = [name for name in names if name in args.workloads]

    out = {"seconds": seconds, "seeds": args.seeds, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        base_tree, change_tree = Path(tmp) / "base", Path(tmp) / "change"
        base_tree.mkdir()
        out["base"] = export(args.rev, base_tree)
        copy_worktree(change_tree)
        out["src_lines"] = {"base": src_lines(base_tree), "change": src_lines(change_tree)}
        out["src_code_lines"] = {"base": src_code_lines(base_tree),
                                 "change": src_code_lines(change_tree)}
        out["src_files"] = src_files(base_tree, change_tree)
        for name, counts in out["src_files"].items():
            if any(c["base"] != c["change"] for c in counts.values()):
                print(f"{name}: " + ", ".join(
                    f"{count} {c['base']} -> {c['change']} "
                    f"({(c['change'] or 0) - (c['base'] or 0):+d})"
                    for count, c in counts.items()), file=sys.stderr, flush=True)
        for workload in names:
            runs = {"base": [], "change": []}
            for k, seed in enumerate(args.seeds):
                order = ("base", "change") if k % 2 == 0 else ("change", "base")
                for side in order:
                    tree = base_tree if side == "base" else change_tree
                    runs[side].append(run_once(tree, workload, seed, seconds))
                    print(f"{workload} seed {seed} {side}: "
                          f"{ {m: v['value'] for m, v in runs[side][-1]['metrics'].items()} }",
                          file=sys.stderr, flush=True)
            traced = layers(*(run_once(tree, workload, args.seeds[0], seconds, trace=1)
                              for tree in (base_tree, change_tree)))
            for name in traced["lost"]:
                m = traced["metrics"][name]
                change = "nothing" if m["change"] is None else m["change"]
                print(f"{workload}: layer {name} lost: {m['base']} on the revision, "
                      f"{change} on the working tree", file=sys.stderr, flush=True)
            out["workloads"][workload] = {
                "metrics": {m["name"]: compare(m, runs["base"], runs["change"])
                            for m in spec["end_to_end"]},
                "runs": {side: [{"seed": seed, "correct": r["correct"], "failed": r["failed"]}
                                for seed, r in zip(args.seeds, rs)]
                         for side, rs in runs.items()},
                "layers": traced,
            }
    args.output.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
