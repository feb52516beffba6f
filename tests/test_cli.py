import contextlib
import hashlib
import inspect
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest

from kanbex import (
    MonoidPresentationDesc,
    complete,
    from_monoid_presentation,
    parse_presentation,
    presentation_to_json,
)
from kanbex.cli import _build_parser, main

from .conftest import REPO, VON_DYCK, coxeter


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


DEMO = "data/infinite_extension.json"


def test_rules_command(capsys, data_dir):
    code, out, err = run_cli(capsys, "rules", str(data_dir / "infinite_extension.json"))
    assert code == 0
    assert out.splitlines() == [
        "x1*b1 -> y1",
        "x2*b1 -> y2",
        "x3*b1 -> y1",
        "b1*b2*b3 -> b4",
        "y1*b2*b3 -> x1",
        "y2*b2*b3 -> x2",
    ]


def test_complete_command(capsys, data_dir):
    code, out, _ = run_cli(capsys, "complete", str(data_dir / "infinite_extension.json"))
    assert code == 0
    assert len(out.splitlines()) == 9
    assert "x3*b4 -> x1" in out


def test_enumerate_hits_limit_with_exit_2(capsys, data_dir):
    code, out, _ = run_cli(capsys, "enumerate", str(data_dir / "infinite_extension.json"))
    assert code == 2
    assert out.startswith("enumeration limit exceeded: complete rewrite system is:")
    assert "status=LimitExceeded" in out
    assert len([l for l in out.splitlines() if "->" in l]) == 9


def test_enumerate_finite(capsys, data_dir, tmp_path):
    code, out, _ = run_cli(capsys, "encode", "colimit", str(data_dir / "coequaliser.json"),
                           "-o", str(tmp_path / "p.json"))
    assert code == 0
    code, out, _ = run_cli(capsys, "enumerate", str(tmp_path / "p.json"))
    assert code == 0
    assert "KB1: x1, x3, y4" in out
    assert "total=3 status=Finite" in out


def _coxeter_file(tmp_path, n):
    """Coxeter S_n as a presentation file, its point and generators
    labelled with four characters each, as in the benchmark's inputs."""
    desc = coxeter(n)
    four = {g: f"s{g[1:]:0>3}" for g in desc.generators}
    desc = MonoidPresentationDesc(tuple(four.values()), tuple(
        (tuple(four[g] for g in l), tuple(four[g] for g in r)) for l, r in desc.relations))
    f = tmp_path / f"coxeter{n}.json"
    f.write_text(json.dumps(presentation_to_json(from_monoid_presentation(desc, point="p000"))))
    return f


def test_a_streamed_catalogue_holds_a_fraction_of_its_text(tmp_path):
    # the captured output and the string read from it are two copies of
    # the text; beside them the writer holds at most two stages' names
    # and the other objects' chunks, never every name or a whole line.
    # The parser is built once per import, so it is built before tracing
    f = _coxeter_file(tmp_path, 7)
    _build_parser()
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = main(["enumerate", "--limit", "50000", str(f)])
        text = out.getvalue()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and len(text) == 294_869
    assert peak < 3.5 * len(text)


@pytest.mark.parametrize("problem", ["coxeter8", "infinite_extension"])
def test_a_closed_pipe_ends_a_catalogue_with_exit_3(tmp_path, data_dir, problem):
    # the reader is gone before the first write.  Stdout is buffered, as
    # it is by default for a pipe, so bytes are still held when a write
    # fails: in the middle of the Coxeter S8 catalogue, and at the end of
    # the short one, which fits in the buffer
    if problem == "coxeter8":
        f = tmp_path / "coxeter8.json"
        f.write_text(json.dumps(presentation_to_json(from_monoid_presentation(coxeter(8)))))
    else:
        f = data_dir / f"{problem}.json"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(REPO / "src")
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run([sys.executable, "-m", "kanbex", "enumerate", "--limit", "50000",
                               str(f)], stdout=w, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(w)
    assert proc.stderr.decode() == "kanbex: [Errno 32] Broken pipe\n"
    assert proc.returncode == 3


def test_enumerate_respects_env_limit(capsys, data_dir, monkeypatch):
    monkeypatch.setenv("KANBEX_LIMIT", "17")
    code, out, _ = run_cli(capsys, "enumerate", "--format", "json",
                           str(data_dir / "infinite_extension.json"))
    assert code == 2
    assert json.loads(out)["total"] == 17
    monkeypatch.setenv("KANBEX_LIMIT", "banana")
    code, _, err = run_cli(capsys, "enumerate", str(data_dir / "infinite_extension.json"))
    assert code == 1
    assert "KANBEX_LIMIT" in err


def test_flag_overrides_env_limit(capsys, data_dir, monkeypatch):
    monkeypatch.setenv("KANBEX_LIMIT", "17")
    code, out, _ = run_cli(capsys, "enumerate", "--format", "json", "--limit", "23",
                           str(data_dir / "infinite_extension.json"))
    assert json.loads(out)["total"] == 23


def test_reduce_command(capsys, data_dir):
    code, out, _ = run_cli(capsys, "reduce", "--term", "x3*b1*b2*b3",
                           str(data_dir / "infinite_extension.json"))
    assert code == 0
    assert out.strip() == "x1"
    assert run_cli(capsys, "reduce", "--format", "json", "--term", "x3*b1*b2*b3",
                   str(data_dir / "infinite_extension.json")) == (
        0, '{"normalForm": ["x1"]}\n', "")


def test_reduce_identity_term(capsys, data_dir):
    code, out, _ = run_cli(capsys, "reduce", "--term", "y1",
                           str(data_dir / "infinite_extension.json"))
    assert code == 0
    assert out.strip() == "y1"


def test_reduce_stops_at_the_completion_limit(capsys, data_dir):
    # the demo completes in two passes
    assert run_cli(capsys, "reduce", "--max-passes", "1", "--term", "x3*b1*b2*b3",
                   str(data_dir / "infinite_extension.json")) == (
        2, "", "completion limit exceeded (pass limit 1 reached); cannot compute normal forms\n")


def test_confluent_command(capsys, data_dir, tmp_path):
    code, out, _ = run_cli(capsys, "confluent", str(data_dir / "infinite_extension.json"))
    assert code == 0
    assert out.strip() == "false"
    encoded = tmp_path / "cat.json"
    run_cli(capsys, "encode", "category", str(data_dir / "infinite_category.json"),
            "-o", str(encoded))
    code, out, _ = run_cli(capsys, "confluent", str(encoded), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"confluent": True}


def test_encode_families_produce_loadable_presentations(capsys, data_dir, tmp_path):
    for family, name in [
        ("category", "s3_cayley_groupoid.json"),
        ("category", "infinite_category.json"),
        ("cosets", "cosets_b.json"),
        ("orbits", "s3_orbits.json"),
        ("orbits", "quaternion_conjugacy.json"),
        ("colimit", "coequaliser.json"),
    ]:
        code, out, err = run_cli(capsys, "encode", family, str(data_dir / name))
        assert code == 0, err
        pres = parse_presentation(out)
        assert presentation_to_json(pres) == json.loads(out)


def test_encode_remaining_families(capsys, tmp_path):
    descriptors = {
        "monoid": {
            "generators": ["x", "y"],
            "relations": [[["x", "x", "x"], []], [["y", "y"], []],
                          [["x", "y", "x", "y"], []]],
        },
        "congruence": {
            "monoid": {"generators": ["a"], "relations": []},
            "congruence": [["a", "a"]],
        },
        "quotient": {"points": ["p", "q", "r"], "pairs": [["p", "q"]]},
        "induced": {
            "source": {"generators": ["a"], "relations": [[["a", "a"], []]]},
            "target": {"generators": [], "relations": []},
            "morphism": {"a": []},
            "points": ["p", "q"],
            "action": {"a": ["q", "p"]},
        },
    }
    for family, doc in descriptors.items():
        f = tmp_path / f"{family}.json"
        f.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "encode", family, str(f))
        assert code == 0, err
        encoded = tmp_path / f"{family}_pres.json"
        encoded.write_text(out)
        code, out, err = run_cli(capsys, "enumerate", str(encoded))
        assert code == 0, err
        assert "status=Finite" in out


def test_no_interreduce_keeps_raw_completion(capsys, data_dir, tmp_path):
    encoded = tmp_path / "coeq.json"
    run_cli(capsys, "encode", "colimit", str(data_dir / "coequaliser.json"),
            "-o", str(encoded))
    code, out, _ = run_cli(capsys, "complete", str(encoded))
    assert len(out.splitlines()) == 4  # canonical, mutually reduced
    code, out, _ = run_cli(capsys, "complete", "--no-interreduce", str(encoded))
    assert len(out.splitlines()) == 5  # raw loop output keeps y1 -> x2


def test_rules_on_empty_presentation(capsys, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({
        "ObA": [], "ArrA": [], "ObB": [], "ArrB": [], "RelB": [],
        "FObA": [], "FArrA": [], "XObA": [], "XArrA": [],
    }))
    code, out, _ = run_cli(capsys, "rules", str(empty))
    assert code == 0
    assert out == ""
    code, out, _ = run_cli(capsys, "enumerate", str(empty))
    assert code == 0
    assert "total=0 status=Finite" in out


def test_missing_file_is_io_error(capsys):
    code, _, err = run_cli(capsys, "rules", "no/such/file.json")
    assert code == 3


def test_malformed_json_is_invalid(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code, _, err = run_cli(capsys, "rules", str(bad))
    assert code == 1
    assert "JSON" in err


def test_invalid_presentation_reports_field(capsys, tmp_path, data_dir):
    doc = json.loads((data_dir / "infinite_extension.json").read_text())
    doc["FArrA"][1] = ["b2"]
    f = tmp_path / "bad_functor.json"
    f.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "rules", str(f))
    assert code == 1
    assert "FArrA[2]" in err


def test_bad_flag_is_usage_error(capsys, data_dir):
    code, _, err = run_cli(capsys, "enumerate", "--limit", "0",
                           str(data_dir / "infinite_extension.json"))
    assert code == 1


@pytest.mark.parametrize("argv", [
    ("complete", "--max-passes", "0"),
    ("complete", "--max-rules", "-1"),
    ("enumerate", "--max-passes", "-3"),
    ("enumerate", "--max-rules", "-1"),
    ("reduce", "--max-rules", "-1", "--term", "x1"),
    ("reduce", "--max-passes", "0", "--term", "x1"),
    ("complete", "--max-passes", "abc"),
])
def test_non_positive_completion_limit_is_usage_error(capsys, data_dir, argv):
    code, out, err = run_cli(capsys, *argv, str(data_dir / "infinite_extension.json"))
    flag, value = argv[1:3]
    # a value that is not an integer at all is refused before its sign
    reason = (f"must be positive, got {value}" if value.lstrip("-").isdigit()
              else f"invalid int value: {value!r}")
    assert (code, out, err) == (1, "", f"kanbex: error: argument {flag}: {reason}\n")


@pytest.mark.parametrize("argv", [("complete",), ("enumerate",), ("reduce", "--term", "x1")])
def test_the_cli_takes_its_completion_limits_from_complete(argv):
    args = _build_parser().parse_args([*argv, "input.json"])
    limits = inspect.signature(complete).parameters
    assert (args.max_rules, args.max_passes) == \
        (limits["max_rules"].default, limits["max_passes"].default) == (10000, 100)


# Listings are sorted in declaration order whatever --xorder/--deltaorder
# orients the rules by; at equal length path rules come before term rules.
DEMO_RULES = """\
x1*b1 -> y1
x2*b1 -> y2
x3*b1 -> y1
b1*b2*b3 -> b4
y1*b2*b3 -> x1
y2*b2*b3 -> x2
"""
DEMO_COMPLETE = """\
x1*b1 -> y1
x1*b4 -> x1
x2*b1 -> y2
x2*b4 -> x2
x3*b1 -> y1
x3*b4 -> x1
b1*b2*b3 -> b4
y1*b2*b3 -> x1
y2*b2*b3 -> x2
"""


def test_order_flags(capsys, data_dir):
    demo = str(data_dir / "infinite_extension.json")
    reversed_orders = ("--xorder", "y2,y1,x3,x2,x1", "--deltaorder", "b5,b4,b3,b2,b1")
    for orders in ((), reversed_orders):
        assert run_cli(capsys, "rules", demo, *orders) == (0, DEMO_RULES, "")
        assert run_cli(capsys, "complete", demo, *orders) == (0, DEMO_COMPLETE, "")
    code, _, err = run_cli(capsys, "rules", demo, "--xorder", "y2,y1")
    assert code == 1


def test_order_lenlex_is_the_default_and_the_only_choice(capsys, data_dir):
    demo = str(data_dir / "infinite_extension.json")
    assert run_cli(capsys, "rules", "--order", "lenlex", demo) == run_cli(capsys, "rules", demo)
    code, out, err = run_cli(capsys, "rules", "--order", "shortlex", demo)
    assert (code, out) == (1, "")
    assert err.startswith("kanbex: error: argument --order: invalid choice")


# A run meets its checks in a fixed order: load, validate, the element and
# arrow orders, the command's own --limit/KANBEX_LIMIT/--term, and only
# then completion.  Each argv below fails two checks (or one check and a
# completion limit) and must report the earlier one.
def test_errors_are_reported_in_pipeline_order(capsys, data_dir, tmp_path, monkeypatch):
    demo = str(data_dir / "infinite_extension.json")
    doc = json.loads((data_dir / "infinite_extension.json").read_text())
    doc["FArrA"][1] = ["b2"]
    bad = tmp_path / "bad_functor.json"
    bad.write_text(json.dumps(doc))
    # validation before the element order
    assert run_cli(capsys, "rules", "--xorder", "zz", str(bad)) == (
        1, "", f"kanbex: {bad}: FArrA[2]: path runs 2->3, expected 2->1\n")
    # the element order before the enumeration limit
    assert run_cli(capsys, "enumerate", "--xorder", "zz", "--limit", "0", demo) == (
        1, "", "kanbex: error: element order must be a permutation of the element labels\n")
    # the term before completion, and as bad input (exit 1), not a limit
    assert run_cli(capsys, "reduce", "--term", "x1*nope", "--max-passes", "1", demo) == (
        1, "", f"kanbex: {demo}: term: unknown arrow label 'nope'\n")
    # the environment's limit before completion
    monkeypatch.setenv("KANBEX_LIMIT", "banana")
    assert run_cli(capsys, "enumerate", "--max-passes", "1", demo) == (
        1, "", "kanbex: error: KANBEX_LIMIT is not an integer: 'banana'\n")


def test_one_parser_serves_every_call_in_a_process(capsys, data_dir):
    # the parser is built on the first call and kept: what one call sets
    # never carries to the next, and --help reads the same each time
    demo = str(data_dir / "infinite_extension.json")
    plain = run_cli(capsys, "complete", demo)
    assert run_cli(capsys, "complete", demo, "--format", "json", "--no-interreduce",
                   "--xorder", "y2,y1,x3,x2,x1")[0] == 0
    assert run_cli(capsys, "complete", demo) == plain
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as stop:
            main(["enumerate", "--help"])
        assert stop.value.code == 0
        helps.append(capsys.readouterr())
    assert helps[0] == helps[1] and "--limit LIMIT" in helps[0].out


def test_json_format_round_trips(capsys, data_dir):
    code, out, _ = run_cli(capsys, "complete", "--format", "json",
                           str(data_dir / "infinite_extension.json"))
    payload = json.loads(out)
    assert payload["status"] == "complete"
    assert len(payload["termRules"]) == 8
    assert len(payload["pathRules"]) == 1


def test_output_is_deterministic(capsys, data_dir):
    first = run_cli(capsys, "complete", str(data_dir / "infinite_extension.json"))
    second = run_cli(capsys, "complete", str(data_dir / "infinite_extension.json"))
    assert first == second


# Outputs below were recorded before the rule index moved to int-coded
# words.  Completion reduces against non-confluent intermediate systems,
# so they pin the reduction strategy (leftmost shortest match, term
# rules before path rules, one path rewrite between term-rule checks):
# any other strategy adds other rules or adds them in another order.


def test_budgeted_von_dyck_enumerate_stops_at_the_pass_limit(capsys, tmp_path):
    f = tmp_path / "vondyck.json"
    f.write_text(json.dumps(presentation_to_json(from_monoid_presentation(VON_DYCK))))
    assert run_cli(capsys, "enumerate", "--max-passes", "4", str(f)) == (
        2, "",
        "completion limit exceeded (pass limit 4 reached) after 4 passes; 19 rules so far\n",
    )


COSETS_CSQ_ENUMERATION = {
    "status": "Finite", "total": 4,
    "elements": {"1": [["H"], ["H", "a"], ["H", "c"], ["H", "a", "c"]]},
    # system order, not print order
    "termRules": [
        [["H", "c", "c"], ["H"]],
        [["H", "a", "a"], ["H", "a"]],
        [["H", "c", "a"], ["H", "a", "c"]],
        [["H", "a", "c", "c"], ["H", "a"]],
        [["H", "b"], ["H", "a"]],
        [["H", "a", "c", "a"], ["H", "a", "c"]],
        [["H", "a", "b"], ["H", "a"]],
        [["H", "c", "b"], ["H", "a", "c"]],
    ],
    "pathRules": [
        [["a", "a", "b"], ["b", "a"]],
        [["a", "a", "c"], ["c", "a"]],
        [["c", "a", "c", "a"], ["b"]],
        [["c", "c", "a", "a"], ["b", "a"]],
        [["b", "a", "a"], ["b", "a"]],
        [["b", "a", "c"], ["c", "b"]],
        [["b", "c", "a"], ["c", "b"]],
        [["c", "b", "a"], ["c", "b"]],
        [["a", "b", "c"], ["c", "b"]],
        [["a", "c", "b"], ["c", "b"]],
        [["b", "a", "b"], ["b", "b"]],
        [["a", "b", "b"], ["b", "b"]],
        [["b", "c", "b"], ["b", "b", "c"]],
        [["b", "b", "b", "c"], ["c", "b"]],
        [["b", "b", "c", "c"], ["b", "b", "b"]],
        [["c", "a", "b"], ["c", "b"]],
        [["c", "a", "c", "c", "a"], ["c", "b"]],
        [["c", "c", "c", "a"], ["c", "b"]],
        [["b", "b", "a"], ["b", "b"]],
        [["b", "c", "c", "a"], ["b", "b"]],
        [["b", "b", "b", "b"], ["b", "b"]],
        [["c", "b", "b"], ["b", "b", "c"]],
        [["c", "c", "b"], ["b", "b"]],
        [["c", "b", "c"], ["b", "b"]],
    ],
}


def test_coset_enumeration_json_is_byte_identical(capsys, data_dir, tmp_path):
    f = tmp_path / "cosets_csq.json"
    assert run_cli(capsys, "encode", "cosets", str(data_dir / "cosets_csq.json"),
                   "-o", str(f))[0] == 0
    assert run_cli(capsys, "enumerate", "--format", "json", str(f)) == (
        0, json.dumps(COSETS_CSQ_ENUMERATION, indent=2) + "\n", "")


# sha256 of stdout and stderr, and the exit code, of CLI runs on every
# bundled problem, recorded before the rule index became a prefix trie
# (the ``rules --format json`` rows: before the initial rules were built
# on coded words; the ``enumerate`` rows: before enumeration kept its
# normal forms as a prefix forest).
# Nothing rewrites tests/cli_digests.json: a change meant to alter output
# records it again and says why.
CLI_DIGESTS = json.loads((pathlib.Path(__file__).parent / "cli_digests.json").read_text())
BUNDLED = [
    ("category", "s3_cayley_groupoid.json"),
    ("category", "infinite_category.json"),
    ("cosets", "cosets_b.json"),
    ("cosets", "cosets_csq.json"),
    ("orbits", "s3_orbits.json"),
    ("orbits", "quaternion_conjugacy.json"),
    ("colimit", "coequaliser.json"),
    (None, "infinite_extension.json"),  # already a presentation
]
DIGESTED_RUNS = [
    ("rules", "--format", "json"),
    ("complete",),
    ("complete", "--format", "json"),
    ("complete", "--no-interreduce", "--format", "json"),
    ("enumerate",),
    ("enumerate", "--format", "json"),
    ("enumerate", "--max-passes", "3"),
    ("complete", "--max-passes", "3"),
    ("enumerate", "--limit", "1"),
]


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("family,name", BUNDLED)
def test_cli_output_matches_recorded_digests(capsys, data_dir, tmp_path, family, name):
    f = data_dir / name
    if family is not None:
        f = tmp_path / name
        assert run_cli(capsys, "encode", family, str(data_dir / name), "-o", str(f))[0] == 0
    got = {}
    for argv in DIGESTED_RUNS:
        code, out, err = run_cli(capsys, *argv, str(f))
        got[" ".join(argv)] = {"exit": code, "stdout": _sha256(out), "stderr": _sha256(err)}
    assert got == CLI_DIGESTS[name]
