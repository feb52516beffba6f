"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Golden rule sets are transcribed into this project's serialization
(`lhs -> rhs`, factors joined by `*`, identity printed as the bare tag
for terms and `IdWord` for paths).  Run with ``pytest -s`` to see the
per-criterion lines as they pass.
"""

import random
import time
from contextlib import contextmanager

from kanbex import (
    ActionDesc,
    CosetSystemDesc,
    EnumerationStatus,
    MonoidPresentationDesc,
    OrderSpec,
    Path,
    RewriteSystem,
    Term,
    check_confluence,
    complete,
    conjugation_action,
    enumerate_extension,
    find_critical_pairs,
    format_rule,
    format_term,
    from_action_orbits,
    from_category_presentation,
    from_colimit_diagram,
    from_coset_system,
    from_monoid_presentation,
    initial_rules,
    reduce_term,
)
from kanbex.cli import main
from kanbex.rewrite import EpsRule, KRule

from .conftest import build_demo_presentation, compare
from .oracles import (
    all_terms,
    alignment_critical_pairs,
    brute_normal_form,
    canonical_pair,
    closure_partition,
    one_step_all,
    random_presentation,
    random_rule,
    random_term,
)


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} FAIL: {desc}")
        raise
    print(f"criterion {num:2d} PASS: {desc}")


@contextmanager
def within(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, f"took {elapsed:.2f}s, budget {seconds}s"


DEMO_FILE = "data/infinite_extension.json"

DEMO_INITIAL_CANONICAL = [
    "x1*b1 -> y1",
    "x2*b1 -> y2",
    "x3*b1 -> y1",
    "b1*b2*b3 -> b4",
    "y1*b2*b3 -> x1",
    "y2*b2*b3 -> x2",
]

DEMO_COMPLETED = [
    "x1*b1 -> y1", "x1*b4 -> x1",
    "x2*b1 -> y2", "x2*b4 -> x2",
    "x3*b1 -> y1", "x3*b4 -> x1",
    "b1*b2*b3 -> b4",
    "y1*b2*b3 -> x1", "y2*b2*b3 -> x2",
]

GROUP_RELATIONS = (
    (("a", "a", "b"), ("b", "a")),
    (("a", "a", "c"), ("c", "a")),
    (("c", "b", "b", "b"), ("a", "b", "c")),
    (("c", "a", "c", "a"), ("b",)),
)

GROUP_24 = [
    "a*a*b -> b*a", "a*a*c -> c*a", "a*b*b -> b*b", "a*b*c -> c*b",
    "a*c*b -> c*b", "b*a*a -> b*a", "b*a*b -> b*b", "b*a*c -> c*b",
    "b*b*a -> b*b", "b*c*a -> c*b", "b*c*b -> b*b*c", "c*a*b -> c*b",
    "c*b*a -> c*b", "c*b*b -> b*b*c", "c*b*c -> b*b", "c*c*b -> b*b",
    "b*b*b*b -> b*b", "b*b*b*c -> c*b", "b*b*c*c -> b*b*b",
    "b*c*c*a -> b*b", "c*a*c*a -> b", "c*c*a*a -> b*a",
    "c*c*c*a -> c*b", "c*a*c*c*a -> c*b",
]

COSETS_CSQ_32 = GROUP_24 + [
    "H*b -> H*a", "H*a*a -> H*a", "H*a*b -> H*a", "H*c*a -> H*a*c",
    "H*c*b -> H*a*c", "H*c*c -> H", "H*a*c*a -> H*a*c", "H*a*c*c -> H*a",
]

COSETS_B_29 = GROUP_24 + [
    "H*a -> H", "H*b -> H", "H*c*a -> H*c", "H*c*b -> H*c", "H*c*c -> H",
]

GROUPOID_ARROWS = [
    ("a1", 1, 2), ("a2", 2, 4), ("a3", 3, 6), ("a4", 4, 1), ("a5", 5, 3), ("a6", 6, 5),
    ("b1", 1, 3), ("b2", 2, 5), ("b3", 3, 1), ("b4", 4, 6), ("b5", 5, 2), ("b6", 6, 4),
]

GROUPOID_RELATIONS = [
    (("a1", "a2", "a4"), ()), (("a2", "a4", "a1"), ()), (("a4", "a1", "a2"), ()),
    (("a3", "a6", "a5"), ()), (("a6", "a5", "a3"), ()), (("a5", "a3", "a6"), ()),
    (("b1", "b3"), ()), (("b3", "b1"), ()), (("b2", "b5"), ()),
    (("b5", "b2"), ()), (("b4", "b6"), ()), (("b6", "b4"), ()),
    (("a1", "b2", "a5", "b3"), ()), (("a2", "b4", "a6", "b5"), ()),
    (("a3", "b6", "a4", "b1"), ()), (("a4", "b1", "a3", "b6"), ()),
    (("a5", "b3", "a1", "b2"), ()), (("a6", "b5", "a2", "b4"), ()),
]

GROUPOID_36 = [
    "b1*b3 -> IdWord", "b2*b5 -> IdWord", "b3*b1 -> IdWord",
    "b4*b6 -> IdWord", "b5*b2 -> IdWord", "b6*b4 -> IdWord",
    "a1*a2*a4 -> IdWord", "a1*a2*b4 -> b1*a3", "a1*b2*a5 -> b1",
    "a2*a4*a1 -> IdWord", "a2*a4*b1 -> b2*a5", "a2*b4*a6 -> b2",
    "a3*a6*a5 -> IdWord", "a3*a6*b5 -> b3*a1", "a3*b6*a4 -> b3",
    "a4*a1*a2 -> IdWord", "a4*a1*b2 -> b4*a6", "a4*b1*a3 -> b4",
    "a5*a3*a6 -> IdWord", "a5*a3*b6 -> b5*a2", "a5*b3*a1 -> b5",
    "a6*a5*a3 -> IdWord", "a6*a5*b3 -> b6*a4", "a6*b5*a2 -> b6",
    "b1*a3*a6 -> a1*b2", "b1*a3*b6 -> a1*a2", "b2*a5*a3 -> a2*b4",
    "b2*a5*b3 -> a2*a4", "b3*a1*a2 -> a3*b6", "b3*a1*b2 -> a3*a6",
    "b4*a6*a5 -> a4*b1", "b4*a6*b5 -> a4*a1", "b5*a2*a4 -> a5*b3",
    "b5*a2*b4 -> a5*a3", "b6*a4*a1 -> a6*b5", "b6*a4*b1 -> a6*a5",
]


def rule_lines(system):
    return sorted(format_rule(r) for r in system.rules)


def test_criterion_01_initial_rules(capsys):
    with criterion(1, "initial rules of the running example, exact text"):
        with within(1.0):
            code = main(["rules", DEMO_FILE])
        out, _ = capsys.readouterr()
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6
        assert lines == DEMO_INITIAL_CANONICAL  # canonical ordering
        assert sorted(lines) == sorted(DEMO_INITIAL_CANONICAL)


def test_criterion_02_completion_and_normal_forms():
    with criterion(2, "9-rule completion; normal forms match joinability oracle"):
        pres = build_demo_presentation()
        order = OrderSpec.from_presentation(pres)
        with within(1.0):
            result = complete(initial_rules(pres, order), order)
            assert result.complete
            assert rule_lines(result.system) == sorted(DEMO_COMPLETED)

            rng = random.Random(2024)
            for _ in range(200):
                t = random_term(rng, pres, 6)
                assert reduce_term(t, result.system) == brute_normal_form(t, result.system)


def test_criterion_03_enumeration_limit(capsys):
    with criterion(3, "enumeration reports limit exceeded with the complete system"):
        with within(5.0):
            code = main(["enumerate", "--limit", "1000", DEMO_FILE])
        out, _ = capsys.readouterr()
        assert code == 2
        assert out.startswith("enumeration limit exceeded: complete rewrite system is:")
        printed_rules = [l for l in out.splitlines() if " -> " in l]
        assert sorted(printed_rules) == sorted(DEMO_COMPLETED)


def test_criterion_04_covering_groupoid():
    with criterion(4, "covering groupoid completes to 36 rules, 6 elements per object"):
        with within(5.0):
            pres = from_category_presentation(
                [1, 2, 3, 4, 5, 6], GROUPOID_ARROWS, GROUPOID_RELATIONS
            )
            order = OrderSpec.from_presentation(pres)
            system = initial_rules(pres, order)
            assert len(system) == 18
            result = complete(system, order)
            assert result.complete
            assert rule_lines(result.system) == sorted(GROUPOID_36)
            tables = enumerate_extension(pres, result.system)
        assert tables.status is EnumerationStatus.FINITE
        assert tables.total == 36
        assert [len(tables.elements[o]) for o in pres.ob_b] == [6] * 6


def test_criterion_05_already_confluent_category():
    with criterion(5, "two-relation category is confluent; completion adds nothing"):
        with within(1.0):
            pres = from_category_presentation(
                [1, 2, 3],
                [("a", 1, 2), ("b", 2, 2), ("c", 2, 3), ("d", 3, 1)],
                [(("b", "b", "c"), ("c",)), (("a", "b", "b"), ("a",))],
            )
            order = OrderSpec.from_presentation(pres)
            system = initial_rules(pres, order)
            assert check_confluence(system)
            result = complete(system, order)
        assert result.rules_added == 0
        assert result.complete


def test_criterion_06_coset_systems():
    with criterion(6, "coset systems: 32/29 rules, 2 cosets, 24-rule group system"):
        with within(30.0):
            pres = from_coset_system(
                CosetSystemDesc(("a", "b", "c"), GROUP_RELATIONS, (("c", "c"),)))
            order = OrderSpec.from_presentation(pres)
            result = complete(initial_rules(pres, order), order)
            assert result.complete
            assert rule_lines(result.system) == sorted(COSETS_CSQ_32)

        with within(30.0):
            pres_b = from_coset_system(
                CosetSystemDesc(("a", "b", "c"), GROUP_RELATIONS, (("b",),)))
            order_b = OrderSpec.from_presentation(pres_b)
            result_b = complete(initial_rules(pres_b, order_b), order_b)
            assert result_b.complete
            assert rule_lines(result_b.system) == sorted(COSETS_B_29)
            tables = enumerate_extension(pres_b, result_b.system)
            assert tables.status is EnumerationStatus.FINITE
            assert tables.total == 2
            assert [format_term(nf.term) for nf in tables.elements[1]] == ["H", "H*c"]

        with within(30.0):
            group = from_monoid_presentation(
                MonoidPresentationDesc(("a", "b", "c"), GROUP_RELATIONS))
            order_g = OrderSpec.from_presentation(group)
            result_g = complete(initial_rules(group, order_g), order_g)
            assert result_g.complete
            assert len(result_g.system.term_rules) == 0
            assert rule_lines(result_g.system) == sorted(GROUP_24)


def test_criterion_07_orbits_and_conjugacy():
    with criterion(7, "orbit and conjugacy systems reduce and enumerate exactly"):
        with within(1.0):
            desc = ActionDesc(
                monoid=MonoidPresentationDesc(
                    ("a", "b"),
                    ((("a",) * 3, ()), (("b",) * 2, ()), (("a", "b", "a", "b"), ())),
                ),
                points=("v", "w", "x", "y", "z"),
                action={"a": ("w", "x", "v", "y", "z"), "b": ("w", "v", "x", "z", "y")},
            )
            pres = from_action_orbits(desc)
            order = OrderSpec.from_presentation(pres)
            result = complete(initial_rules(pres, order), order)
            assert rule_lines(result.system) == ["w -> v", "x -> v", "z -> y"]
            tables = enumerate_extension(pres, result.system)
            assert tables.total == 2
            assert [format_term(nf.term) for nf in tables.elements[1]] == ["v", "y"]

            q8 = MonoidPresentationDesc(
                ("a", "b"),
                ((("a",) * 4, ()), (("b",) * 4, ()),
                 (("a", "b", "a"), ("b",)), (("a", "a"), ("b", "b"))),
            )
            conj = conjugation_action(
                q8,
                [(), ("a",), ("b",), ("a", "a"), ("a", "b"),
                 ("b", "a"), ("a", "a", "a"), ("a", "a", "b")],
                {"a": ("a", "a", "a"), "b": ("a", "a", "b")},
                labels=["id", "a", "b", "a2", "ab", "ba", "a3", "a2b"],
            )
            pres_c = from_action_orbits(conj)
            order_c = OrderSpec.from_presentation(pres_c)
            result_c = complete(initial_rules(pres_c, order_c), order_c)
            assert rule_lines(result_c.system) == ["a2b -> b", "a3 -> a", "ba -> ab"]
            tables_c = enumerate_extension(pres_c, result_c.system)
            assert tables_c.total == 5
            assert [format_term(nf.term) for nf in tables_c.elements[1]] == \
                ["id", "a", "b", "a2", "ab"]


def test_criterion_08_coequaliser():
    with criterion(8, "coequaliser adds one rule; three classes remain"):
        with within(1.0):
            pres = from_colimit_diagram(
                [(1, 2), (1, 2)],
                [("x1", "x2", "x3"), ("y1", "y2", "y3", "y4")],
                [("y1", "y2", "y3"), ("y1", "y1", "y3")],
            )
            order = OrderSpec.from_presentation(pres)
            result = complete(initial_rules(pres, order), order)
            assert result.complete
            assert result.rules_added == 1
            assert rule_lines(result.system) == \
                ["x2 -> x1", "y1 -> x1", "y2 -> x1", "y3 -> x3"]
            tables = enumerate_extension(pres, result.system)
        assert tables.total == 3
        assert [format_term(nf.term) for nf in tables.elements[1]] == ["x1", "x3", "y4"]


def test_criterion_09_property_suite():
    with criterion(9, "500 random presentations: termination, targets, closure, ordering"):
        rng = random.Random(90125)
        completions = 0
        comparisons = 0
        for _ in range(500):
            pres = random_presentation(rng)
            order = OrderSpec.from_presentation(pres)
            system = initial_rules(pres, order)

            # (a) reduction terminates on irreducibles, (b) targets preserved
            for _ in range(4):
                t = random_term(rng, pres, 5)
                if t is None:
                    break
                nf = reduce_term(t, system)
                assert not one_step_all(nf, system)
                assert nf.target == t.target
                for stepped in one_step_all(t, system):
                    assert stepped.target == t.target

            # (d) ordering axioms
            comparisons += _ordering_axioms(rng, pres, order, rounds=12)

            result = complete(system, order, max_rules=200, max_passes=50,
                              max_rule_length=16)
            if not result.complete:
                continue
            completions += 1
            final = result.system

            for rule in system.rules:
                if isinstance(rule, EpsRule):
                    assert reduce_term(rule.lhs, final) == reduce_term(rule.rhs, final)

            # (c) normal-form equality equals undirected closure equivalence
            uf = closure_partition(pres, final, 5)
            nf_classes: dict = {}
            for t in all_terms(pres, 5):
                nf_classes.setdefault(reduce_term(t, final), set()).add(t)
            assert {frozenset(v) for v in nf_classes.values()} == uf.partition()

        assert completions >= 300
        assert comparisons >= 10_000


def _ordering_axioms(rng, pres, order, rounds):
    from kanbex import compose_paths

    done = 0
    for _ in range(rounds):
        # path totality, antisymmetry and admissibility
        src = rng.choice(pres.ob_b)
        p1 = _random_path_from(rng, pres, src, 3)
        p2 = _random_path_from(rng, pres, src, 3)
        c12 = compare(p1, p2, order)
        c21 = compare(p2, p1, order)
        if p1.labels == p2.labels:
            assert c12 == 0
        else:
            assert c12 != 0 and c21 == -c12
        done += 1
        if p1.target == p2.target and c12 != 0:
            v = _random_path_from(rng, pres, p1.target, 2)
            assert compare(compose_paths(p1, v), compose_paths(p2, v), order) == c12
            done += 1

        t1 = random_term(rng, pres, 4)
        t2 = random_term(rng, pres, 4)
        if t1 is None or t2 is None:
            continue
        c12 = compare(t1, t2, order)
        c21 = compare(t2, t1, order)
        if t1 == t2:
            assert c12 == 0
        else:
            assert c12 != 0 and c21 == -c12
        done += 1
        if t1.target == t2.target and c12 == 1:
            q = _random_path_from(rng, pres, t1.target, 3)
            assert compare(t1.act(q), t2.act(q), order) == 1
            done += 1
        tag_src = pres.tag_source(t1.tag)
        q1 = _random_path_from(rng, pres, tag_src, 3)
        q2 = _random_path_from(rng, pres, tag_src, 3)
        if q1.target == q2.target:
            c = compare(q1, q2, order)
            if c != 0:
                s = Term(t1.tag, Path.identity(tag_src))
                assert compare(s.act(q1), s.act(q2), order) == c
                done += 1
    return done


def _random_path_from(rng, pres, src, max_steps):
    by_src: dict = {}
    for a in pres.arr_b:
        by_src.setdefault(a.src, []).append(a)
    path = Path(src)
    for _ in range(rng.randint(0, max_steps)):
        options = by_src.get(path.target, [])
        if not options:
            break
        path = Path(path.source, path.arrows + (rng.choice(options),))
    return path


def test_criterion_10_overlap_oracle():
    with criterion(10, "critical pairs agree with the all-alignments oracle"):
        # the documented two-position example first
        from kanbex import Arrow, KanPresentation

        a = Arrow("a", 1, 1)
        b = Arrow("b", 1, 1)
        pres = KanPresentation(
            ob_a=(1,), arr_a=(), ob_b=(1,), arr_b=(a, b), rel_b=(),
            f_ob_a=(1,), f_arr_a=(), x_ob_a=(("x", "y"),), x_arr_a=(),
        )
        term_rule = EpsRule(Term("x", Path(1, (a, a, b, a))), Term("y", Path(1, (b, a))))
        path_rule = KRule(Path(1, (a, a)), Path(1, (b,)))
        system = RewriteSystem((term_rule,), (path_rule,))
        cross = [cp for cp in find_critical_pairs(system) if set(cp.rules) == {0, 1}]
        assert {canonical_pair(cp.left, cp.right) for cp in cross} == {
            canonical_pair(Term("y", Path(1, (b, a))), Term("x", Path(1, (b, b, a)))),
            canonical_pair(Term("y", Path(1, (b, a, a))), Term("x", Path(1, (a, a, b, b)))),
        }

        rng = random.Random(1010)
        checked = 0
        while checked < 1000:
            rpres = random_presentation(rng)
            order = OrderSpec.from_presentation(rpres)
            r1 = random_rule(rng, rpres, order)
            r2 = random_rule(rng, rpres, order)
            if r1 is None or r2 is None:
                continue
            checked += 1
            term_rules = tuple(r for r in (r1, r2) if isinstance(r, EpsRule))
            path_rules = tuple(r for r in (r1, r2) if isinstance(r, KRule))
            sys2 = RewriteSystem(term_rules, path_rules)
            engine = {canonical_pair(cp.left, cp.right)
                      for cp in find_critical_pairs(sys2)}
            oracle = alignment_critical_pairs(r1, r2, rpres)
            oracle |= alignment_critical_pairs(r1, r1, rpres)
            if r2 != r1:
                oracle |= alignment_critical_pairs(r2, r2, rpres)
            assert engine == oracle
