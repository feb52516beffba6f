"""The benchmark in ``kanbench/`` reaches the engine through module
attributes: it stamps calls to some (``run.CHECKPOINTS``), times others
(``spans.LAYER_CALLS``) and counts a few (``spans.COUNTED_CALLS``).  A
checkpoint that no longer exists is skipped without an error, and the
benchmark then only reads slower.  These tests load the benchmark's
tables, without running it, and check that every name resolves; the
others check that the engine still calls the stamped and counted
functions where the benchmark expects it to."""

import importlib
import importlib.util
import json
import pathlib
import sys
from collections import Counter

import pytest

from kanbex import (
    OrderSpec,
    check_confluence,
    cli,
    complete,
    enumerate_extension,
    find_critical_pairs,
    from_monoid_presentation,
    initial_rules,
    interreduce,
    kan,
    load_presentation,
    presentation_to_json,
    rewrite,
)
from kanbex.encodings import encode_from_json
from kanbex.ordering import word_key

from . import test_random_completion as random_corpus
from .conftest import DATA, REPO, VON_DYCK, coxeter
from .oracles import sliced_critical_pairs
from .test_cli import BUNDLED
from .test_completion_trace import S5
from .test_critical_pairs import HAND_BUILT

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



def _log_calls(monkeypatch, calls: list, module, attr, name=None) -> None:
    """Replace ``module.attr`` by a wrapper that appends ``name`` (by
    default ``attr``) to ``calls`` and calls through, as the benchmark's
    own wrappers do."""
    fn = getattr(module, attr)

    def logged(*args, **kwargs):
        calls.append(name or attr)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, attr, logged)


def _bundled(family, name):
    if family is None:
        return load_presentation(str(DATA / name))
    return encode_from_json(family, json.loads((DATA / name).read_text()))


# the names in ``spans.LAYER_CALLS`` that a CLI run on Coxeter S4 calls.
# The benchmark times a layer only through these names, so a change that
# stopped calling one (a ``complete`` that interreduced without calling
# ``interreduce``, say) would read 0 s there and lose no count.
# ``rewrite.find_critical_pairs`` is listed but no CLI run reaches it:
# ``check_confluence`` reads coded pairs off the rule index.  Nor does a
# CLI run reach ``kan.check_confluence``: ``complete`` hands enumeration
# a system that carries its proof (see
# test_a_hand_built_system_reaches_the_timed_confluence_check)
_PIPELINE = {"cli.load_presentation", "cli.validate_presentation", "cli.initial_rules",
             "cli.complete", "rewrite.interreduce"}
LAYERS_REACHED = {
    "enumerate": _PIPELINE | {"cli.enumerate_extension"},
    "reduce": _PIPELINE | {"cli.format_term"},
}


def test_a_cli_run_reaches_each_timed_layer(bench, monkeypatch, capsys, tmp_path):
    f = tmp_path / "coxeter4.json"
    f.write_text(json.dumps(presentation_to_json(from_monoid_presentation(coxeter(4)))))
    calls = []
    for module, attr, _, _ in bench.spans.LAYER_CALLS:
        _log_calls(monkeypatch, calls, importlib.import_module(f"kanbex.{module}"), attr,
                   f"{module}.{attr}")
    got = {}
    for argv in (["enumerate", str(f)], ["reduce", "--term", "e*s1*s2*s1*s2", str(f)]):
        calls.clear()
        assert cli.main(argv) == 0
        got[argv[0]] = set(calls)
    capsys.readouterr()
    assert got == LAYERS_REACHED


def test_a_hand_built_system_reaches_the_timed_confluence_check(bench, monkeypatch):
    # a system that complete did not return is checked pair by pair, under
    # the name through which the benchmark times the check
    pres = from_monoid_presentation(coxeter(4))
    order = OrderSpec.from_presentation(pres)
    rules = complete(initial_rules(pres, order), order).system
    calls = []
    _log_calls(monkeypatch, calls, kan, "check_confluence")
    assert ("kan", "check_confluence") in {(m, a) for m, a, _, _ in bench.spans.LAYER_CALLS}
    assert enumerate_extension(pres, rules).total == 24
    assert calls == []
    hand_built = rewrite.RewriteSystem(rules.term_rules, rules.path_rules)
    assert enumerate_extension(pres, hand_built).total == 24
    assert calls == ["check_confluence"]


# calls to each stamped reduction per step, on a problem with term and
# path rules and on one with path rules only; the benchmark's segments
# line up between two versions only while these counts stay the same.
# The "complete" rows count each pair side once per set of the rules
# that can reach it, those whose lhs word is no longer than the side's
# (see test_complete_reduces_each_side_once_per_rule_set); the "interreduce"
# rows count one scan over one index, which resumes after a deletion and
# restarts only after an append; the others were recorded before
# critical pairs were found on coded words
REDUCTIONS = {
    "cosets_csq.json": {
        "complete": {"_reduce_path": 1838, "_reduce_term": 454},
        "interreduce": {"_reduce_path": 242, "_reduce_term": 148},
        "check_confluence": {"_reduce_path": 524, "_reduce_term": 164},
        "enumerate_extension": {"_reduce_path": 524, "_reduce_term": 164},
    },
    "coxeter4": {
        "complete": {"_reduce_path": 36},
        "interreduce": {"_reduce_path": 14},
        "check_confluence": {"_reduce_path": 36},
        "enumerate_extension": {"_reduce_path": 36},
    },
}


def test_reductions_call_the_stamped_functions(monkeypatch):
    # the benchmark stamps calls to these two module attributes to split
    # an operation into segments; a reduction that bypassed them would
    # go unstamped
    calls = []
    _log_calls(monkeypatch, calls, rewrite, "_reduce_path")
    _log_calls(monkeypatch, calls, rewrite, "_reduce_term")
    problems = {"cosets_csq.json": _bundled("cosets", "cosets_csq.json"),
                "coxeter4": from_monoid_presentation(coxeter(4))}
    got = {}
    for name, pres in problems.items():
        order = OrderSpec.from_presentation(pres)
        steps = got[name] = {}
        calls.clear()
        raw = complete(initial_rules(pres, order), order, interreduce_after=False).system
        steps["complete"] = dict(Counter(calls))
        calls.clear()
        system = interreduce(raw, order)
        steps["interreduce"] = dict(Counter(calls))
        calls.clear()
        assert check_confluence(system)
        steps["check_confluence"] = dict(Counter(calls))
        calls.clear()
        enumerate_extension(pres, system)
        steps["enumerate_extension"] = dict(Counter(calls))
    assert got == REDUCTIONS


def _read_order(ranked: list[tuple], x_rank) -> list[tuple]:
    """The pairs that a pass of ``complete`` goes through when its rules
    are the ranked rules ``ranked``: every critical pair of them, found by
    the sliced oracle, as ``(case, (i, j), left, right)`` in the order by
    larger side, then rule indices, then case."""
    pairs = sliced_critical_pairs([rule for _, rule in sorted(ranked)])
    pairs.sort(key=lambda cp: (max(word_key(cp[2][1], x_rank), word_key(cp[3][1], x_rank)),
                               cp[1], cp[0]))
    return pairs


class _Reads:
    """The pairs that ``complete`` reads, by the reach rule: each pass
    goes through its pairs in ``_read_order`` and skips a pair last read
    when t rules were in while no rule added since has an lhs word no
    longer than the pair's longer side.  A pair is known across passes by
    its case, its rules' ranks, its sides and which of its equals in the
    pass it is."""

    def __init__(self):
        self.read = {}  # a pair -> the rule count at its last read
        self.rest = iter(())

    def start(self, ranked: list[tuple], x_rank) -> None:
        """Start a pass over the ranked rules ``ranked``."""
        ranks = [rank for rank, _ in sorted(ranked)]
        seen = Counter()
        pairs = []
        for case, (i, j), left, right in _read_order(ranked, x_rank):
            name = (case, ranks[i], ranks[j], left, right)
            seen[name] += 1
            pairs.append(((name, seen[name]), left, right))
        self.rest = iter(pairs)

    def next(self, lengths: list[int]) -> tuple:
        """The pair read next, as ``(left, right)``, or None when the pass
        reads no more, and the pairs skipped before it.  ``lengths`` are
        the lhs word lengths of the rules in so far, in the order added."""
        skipped = []
        for name, left, right in self.rest:
            last, longest = self.read.get(name), max(len(left[1]), len(right[1]))
            if last is not None and all(n > longest for n in lengths[last:]):
                skipped.append((left, right))
                continue
            self.read[name] = len(lengths)
            return (left, right), skipped
        return None, skipped


def test_complete_reduces_each_side_once_per_rule_set(monkeypatch):
    # a pair side is reduced only the first time it comes up since the
    # last rule went in that can reach it, one whose lhs word is no longer
    # than the side's: the stamped calls are the distinct (side, such rules
    # added so far) among the sides of all the pairs each pass goes
    # through, read or skipped (a skipped pair's sides are reached by no
    # rule added since its last read)
    events = []
    critical_pairs, oriented, add = rewrite._critical_pairs, rewrite._oriented, rewrite._RuleIndex.add

    def logged_pairs(idx, old, new, *rest):
        events.append(("pass", old + new))
        return critical_pairs(idx, old, new, *rest)

    def logged_oriented(*args):
        events.append(("pair",))
        return oriented(*args)

    def logged_add(self, rule):
        events.append(("add", len(rule[1])))
        return add(self, rule)

    def logged_reduce(fn):
        def reduce(side, idx):
            events.append(("reduce", side))
            return fn(side, idx)
        return reduce

    monkeypatch.setattr(rewrite, "_critical_pairs", logged_pairs)
    monkeypatch.setattr(rewrite, "_oriented", logged_oriented)
    monkeypatch.setattr(rewrite._RuleIndex, "add", logged_add)
    for attr in ("_reduce_path", "_reduce_term"):
        monkeypatch.setattr(rewrite, attr, logged_reduce(getattr(rewrite, attr)))
    problems = [_bundled("cosets", "cosets_csq.json"), _bundled(None, "infinite_extension.json"),
                from_monoid_presentation(coxeter(4))]
    for pres in problems:
        # initial_rules orients its rules with _oriented too: build them
        # before the log starts
        order = OrderSpec.from_presentation(pres)
        system = initial_rules(pres, order)
        events.clear()
        complete(system, order, interreduce_after=False)
        reads = _Reads()
        added = []  # the lhs word lengths of the rules added so far

        def reaching(side):
            return sum(n <= len(side[1]) for n in added)

        sides = set()
        reduced = []
        for event in events + [("pass", [])]:
            if event[0] == "add":
                added.append(event[1])
            elif event[0] == "reduce":
                reduced.append((event[1], reaching(event[1])))
            else:
                # a pass reads no more pairs when the next one starts
                pair, pairs = reads.next(added)
                assert (pair is None) == (event[0] == "pass")
                pairs += [pair] if pair else []
                sides |= {(side, reaching(side)) for p in pairs for side in p}
                if event[0] == "pass":
                    reads.start(event[1], order.x_rank)
        assert len(reduced) == len(set(reduced)) == len(sides)
        assert set(reduced) == sides


def test_each_pass_reads_the_sorted_pairs_of_its_rules(monkeypatch):
    # complete builds each pair once and carries it over to later passes,
    # and every pass goes through the full sorted pair list of the rules
    # at its start, skipping by the reach rule (``_Reads``): each oriented
    # pair is the normal forms, under the rules so far, of the sides of
    # the next pair read, every pair skipped resolves under them, and a
    # pass ends when the list does
    critical_pairs, oriented = rewrite._critical_pairs, rewrite._oriented
    run = {}

    def lengths():
        return [len(rule[1]) for rule in run["idx"].rules]

    def resolve(pairs):
        for left, right in pairs:
            assert rewrite._rewrite(left, run["idx"]) == rewrite._rewrite(right, run["idx"])

    def end_pass():
        # a pass goes through its list to the end, skipping what is left
        pair, skipped = run["reads"].next(lengths())
        assert pair is None
        resolve(skipped)

    def logged_pairs(idx, old, new, *rest):
        run["idx"] = idx
        end_pass()
        run["reads"].start(old + new, order.x_rank)
        found = critical_pairs(idx, old, new, *rest)
        run.update(passes=run["passes"] + 1, built=run["built"] + len(found))
        return found

    def logged_oriented(a, b, x_rank):
        pair, skipped = run["reads"].next(lengths())
        resolve(skipped)
        left, right = pair
        assert (a, b) == (rewrite._rewrite(left, run["idx"]), rewrite._rewrite(right, run["idx"]))
        return oriented(a, b, x_rank)

    problems = []
    for pres, limits, built in [(_bundled("cosets", "cosets_csq.json"), {}, 2041),
                                (from_monoid_presentation(S5), {}, 4958),
                                (from_monoid_presentation(VON_DYCK), {"max_passes": 9}, None)]:
        order = OrderSpec.from_presentation(pres)
        problems.append((initial_rules(pres, order), order, limits, built))
    # duplicate and empty left-hand sides, on the hand-built systems
    hand_order = OrderSpec({"x": 0, "y": 1, "z": 2}, {"a": 0, "b": 1, "c": 2})
    problems += [(HAND_BUILT[name], hand_order, {}, built)
                 for name, built in (("duplicate lhs", 21), ("empty path lhs", 34))]
    for system, order, limits, built in problems:
        run.update(reads=_Reads(), passes=0, built=0)
        monkeypatch.setattr(rewrite, "_critical_pairs", logged_pairs)
        monkeypatch.setattr(rewrite, "_oriented", logged_oriented)
        raw = complete(system, order, interreduce_after=False, **limits)
        monkeypatch.undo()
        end_pass()
        assert run["passes"] == raw.passes
        if raw.complete:
            # each pair of the final rules was built once, in the pass
            # after its newer rule went in
            assert run["built"] == len(find_critical_pairs(raw.system)) == built


# one-arrow extensions tried while enumerating each problem, and the
# normal forms found (recorded before the rule index became an automaton)
CANDIDATES = {
    "coxeter4": (72, 24),
    "s3_cayley_groupoid.json": (72, 36),
    "infinite_category.json": (1162, 1000),
    "cosets_b.json": (6, 2),
    "cosets_csq.json": (12, 4),
    "s3_orbits.json": (0, 2),
    "quaternion_conjugacy.json": (0, 5),
    "coequaliser.json": (0, 3),
    "infinite_extension.json": (1092, 1000),
}


def test_each_candidate_calls_extension_reducible(monkeypatch):
    # the benchmark's kan.candidates counts these calls
    calls = []
    _log_calls(monkeypatch, calls, kan, "_extension_reducible")
    problems = [("coxeter4", from_monoid_presentation(coxeter(4)))]
    problems += [(name, _bundled(family, name)) for family, name in BUNDLED]
    got = {}
    for name, pres in problems:
        order = OrderSpec.from_presentation(pres)
        result = complete(initial_rules(pres, order), order)
        calls.clear()
        total = enumerate_extension(pres, result.system).total
        got[name] = (len(calls), total)
    assert got == CANDIDATES


def _enumerate_stepping(pres, system):
    """Enumerate ``pres`` under ``system``, recording every call to
    ``rewrite._step``, under whatever name it is reached: the object its
    code leads to (a tag's source, an arrow's target) and the state it
    returned.  Gives the tables and the calls."""
    step = rewrite._step.__code__
    idx = system._index
    target = {idx.lookup((a,))[0]: a.tgt for a in pres.arr_b}
    target.update((x, pres.tag_source(x)) for x in pres.x_labels)
    calls = []

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is step:
            calls.append((target[frame.f_locals["code"]], arg))

    sys.setprofile(profile)
    try:
        tables = enumerate_extension(pres, system)
    finally:
        sys.setprofile(None)
    return tables, calls


def test_enumeration_steps_once_per_automaton_edge():
    # the candidates are tested against the normal-form automaton, built
    # first: each call to rewrite._step steps a tag, or steps one of the
    # automaton's states (a rule index state at an object) on an arrow out
    # of that object, and each of those once, however many forms share
    # the state
    problems = [("coxeter4", from_monoid_presentation(coxeter(4)))]
    problems += [(name, _bundled(family, name)) for family, name in BUNDLED]
    for name, pres in problems:
        order = OrderSpec.from_presentation(pres)
        system = complete(initial_rules(pres, order), order).system
        out = Counter(a.src for a in pres.arr_b)
        _, calls = _enumerate_stepping(pres, system)
        states = {(id(node), obj) for obj, node in calls if node is not None}
        bound = len(pres.x_labels) + sum(out[obj] for _, obj in states)
        assert 0 < len(calls) <= bound, name


# the pairs complete reads (calls to ``_oriented`` in its pass loop),
# its passes and the rules it adds: a pair that resolved is read again
# only after a rule that can reach it went in, which changes the reads
# and neither of the others
# (test_each_pass_reads_the_sorted_pairs_of_its_rules)
PAIRS_READ = {
    "s5": (6590, 6, 78),
    "von_dyck_9_passes": (912, 9, 24),
    "coxeter8": (469, 6, 15),
}


def test_complete_reads_only_the_pairs_a_new_rule_can_reach(monkeypatch):
    problems = {"s5": (S5, {}), "von_dyck_9_passes": (VON_DYCK, {"max_passes": 9}),
                "coxeter8": (coxeter(8), {})}
    calls = []
    got = {}
    for name, (desc, limits) in problems.items():
        pres = from_monoid_presentation(desc)
        order = OrderSpec.from_presentation(pres)
        system = initial_rules(pres, order)
        with monkeypatch.context() as m:
            calls.clear()
            _log_calls(m, calls, rewrite, "_oriented")
            result = complete(system, order, interreduce_after=False, **limits)
        got[name] = (len(calls), result.passes, result.rules_added)
    assert got == PAIRS_READ


def _completions():
    """Systems to complete, with their orders and limits: S5, von Dyck at
    9 passes, the bundled problems, the hand-built systems and the random
    corpus of seed 1 in declared and shuffled order."""
    problems = [(from_monoid_presentation(S5), {}),
                (from_monoid_presentation(VON_DYCK), {"max_passes": 9})]
    problems += [(_bundled(family, name), {}) for family, name in BUNDLED]
    for pres, limits in problems:
        order = OrderSpec.from_presentation(pres)
        yield initial_rules(pres, order), order, limits
    hand_order = OrderSpec({"x": 0, "y": 1, "z": 2}, {"a": 0, "b": 1, "c": 2})
    for system in HAND_BUILT.values():
        yield system, hand_order, {}
    for shuffled in (False, True):
        for _, pres, order in random_corpus._draws(1, shuffled):
            yield initial_rules(pres, order), order, random_corpus.LIMITS


# the kinds of a pair's host and guest rules by its case, 0 for a term
# rule and 1 for a path rule
KINDS = {"i": (0, 0), "ii": (1, 1), "iii": (1, 1), "iv": (0, 1), "v": (0, 1)}


def test_each_pair_is_keyed_by_its_larger_side(monkeypatch):
    # complete sorts the records that _critical_pairs builds as they come:
    # each is word_key of its larger side, the ranks of its rules, its
    # case, position and sides, and -1 for a pair not yet read
    critical_pairs = rewrite._critical_pairs
    records = []

    def logged_pairs(idx, old, new, *rest):
        found = critical_pairs(idx, old, new, *rest)
        # as built: complete stamps a record when it reads it
        records.extend(list(record) for record in found)
        return found

    monkeypatch.setattr(rewrite, "_critical_pairs", logged_pairs)
    for system, order, limits in _completions():
        records.clear()
        complete(system, order, interreduce_after=False, **limits)
        for record in records:
            *key, ki, pi, kj, pj, case, pos, left, right, read = record
            assert key == [*max(word_key(left[1], order.x_rank), word_key(right[1], order.x_rank))]
            assert (ki, kj) == KINDS[case]
            assert rewrite._is_term(left[1]) == rewrite._is_term(right[1]) == (ki == 0)
            assert isinstance(pos, int) and read == -1


def test_each_lhs_is_walked_into_the_guest_tables_once(monkeypatch):
    # each pass walks the lhs of every rule it has through the automaton
    # as a host, and the guest tables are kept across passes: the lhs of a
    # rule is walked as a guest once per completion.  Every lhs word is a
    # tuple that counts how often it is iterated while _critical_pairs runs
    walks, passes, running = Counter(), Counter(), []

    class Walked(tuple):
        def __iter__(self):
            if running:
                walks[id(self)] += 1
            return super().__iter__()

    def walked(rule):
        return None if rule is None else (rule[0], Walked(rule[1]), *rule[2:])

    code, oriented = rewrite._RuleIndex.code, rewrite._oriented
    critical_pairs = rewrite._critical_pairs

    def logged_pairs(idx, old, new, *rest):
        passes.update(id(rule[1]) for _, rule in old + new)
        running.append(True)
        try:
            return critical_pairs(idx, old, new, *rest)
        finally:
            running.pop()

    # the systems are built first: initial_rules orients with _oriented
    problems = list(_completions())
    monkeypatch.setattr(rewrite._RuleIndex, "code", lambda self, rule: walked(code(self, rule)))
    monkeypatch.setattr(rewrite, "_oriented", lambda *args: walked(oriented(*args)))
    monkeypatch.setattr(rewrite, "_critical_pairs", logged_pairs)
    for system, order, limits in problems:
        walks.clear()
        passes.clear()
        complete(system, order, interreduce_after=False, **limits)
        # once as a host in each pass it is in, once as a guest
        assert walks == {rule: n + 1 for rule, n in passes.items()}


def test_no_catalogue_builds_terms(monkeypatch, capsys, tmp_path):
    # the text and the JSON catalogue both print the names enumeration
    # builds from its forest, with no term per normal form
    f = tmp_path / "coxeter4.json"
    f.write_text(json.dumps(presentation_to_json(from_monoid_presentation(coxeter(4)))))
    calls = []
    _log_calls(monkeypatch, calls, kan, "Term")
    assert cli.main(["enumerate", str(f)]) == 0
    assert capsys.readouterr().out.endswith("total=24 status=Finite\n")
    assert cli.main(["enumerate", "--format", "json", str(f)]) == 0
    assert json.loads(capsys.readouterr().out)["total"] == 24
    assert calls == []
