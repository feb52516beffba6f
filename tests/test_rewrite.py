import random
import sys
import threading

import pytest

from kanbex import (
    Arrow,
    EpsRule,
    KanPresentation,
    KRule,
    MonoidPresentationDesc,
    OrderSpec,
    Path,
    PresentationError,
    RewriteSystem,
    Term,
    check_confluence,
    complete,
    enumerate_extension,
    find_critical_pairs,
    format_rule,
    format_system,
    from_category_presentation,
    from_monoid_presentation,
    initial_rules,
    interreduce,
    list_as_term,
    reduce_path,
    reduce_term,
    resolves,
)
from kanbex.encodings import CosetSystemDesc, from_coset_system
from kanbex.rewrite import _oriented, _RuleIndex

from .conftest import VON_DYCK, build_demo_presentation, coxeter
from .oracles import (
    alignment_critical_pairs,
    brute_normal_form,
    canonical_pair,
    closure_partition,
    random_presentation,
    random_term,
    reference_reduce,
    reference_steps,
)

PRES = build_demo_presentation()
ORDER = OrderSpec.from_presentation(PRES)
B = PRES.arrow_by_label


def P(*labels):
    arrows = tuple(B[l] for l in labels)
    return Path(arrows[0].src, arrows)


def T(tag, *labels):
    if not labels:
        return Term(tag, Path.identity(PRES.tag_source(tag)))
    return Term(tag, P(*labels))


# --- initial rules ---

def test_demo_initial_rules(demo_initial):
    lines = sorted(format_rule(r) for r in demo_initial.rules)
    assert lines == sorted([
        "x1*b1 -> y1",
        "x2*b1 -> y2",
        "x3*b1 -> y1",
        "y1*b2*b3 -> x1",
        "y2*b2*b3 -> x2",
        "b1*b2*b3 -> b4",
    ])
    assert len(demo_initial.term_rules) == 5
    assert len(demo_initial.path_rules) == 1


def test_empty_presentation_has_no_rules():
    empty = KanPresentation((1,), (), (1,), (), (), (1,), (), (("e",),), ())
    system = initial_rules(empty)
    assert len(system) == 0


def test_coset_initial_rules():
    desc = CosetSystemDesc(
        ("a", "b", "c"),
        (
            (("a", "a", "b"), ("b", "a")),
            (("a", "a", "c"), ("c", "a")),
            (("c", "b", "b", "b"), ("a", "b", "c")),
            (("c", "a", "c", "a"), ("b",)),
        ),
        (("c", "c"),),
    )
    pres = from_coset_system(desc)
    system = initial_rules(pres)
    assert len(system.term_rules) == 1
    assert len(system.path_rules) == 4
    assert format_rule(system.term_rules[0]) == "H*c*c -> H"


def test_initial_rules_reject_invalid():
    bad = KanPresentation((1,), (), (1,), (), (), (2,), (), (("e",),), ())
    with pytest.raises(PresentationError):
        initial_rules(bad)


# --- reduction ---

def test_reduce_applies_tagged_rule(demo_initial):
    assert reduce_term(T("x1", "b1"), demo_initial) == T("y1")


def test_reduce_with_empty_system_is_identity():
    t = T("x1", "b5", "b3")
    assert reduce_term(t, RewriteSystem()) == t


def test_reduce_chains_rules(demo_complete):
    assert reduce_term(T("x3", "b1", "b2", "b3"), demo_complete) == T("x1")


def test_reduce_result_is_irreducible_and_equivalent(demo_complete):
    rng = random.Random(7)
    for _ in range(50):
        t = random_term(rng, PRES, 6)
        nf = reduce_term(t, demo_complete)
        assert reduce_term(nf, demo_complete) == nf
        assert nf == brute_normal_form(t, demo_complete)


def test_reduce_path_single_factor(demo_initial):
    assert reduce_path(P("b1", "b2", "b3"), demo_initial) == P("b4")
    assert reduce_path(Path.identity(1), demo_initial) == Path.identity(1)
    assert reduce_path(P("b1", "b2", "b3", "b4"), demo_initial) == P("b4", "b4")


# --- critical pairs ---

def loop_presentation():
    """One object, loops a and b, elements x and y."""
    a = Arrow("a", 1, 1)
    b = Arrow("b", 1, 1)
    return KanPresentation(
        ob_a=(1,), arr_a=(),
        ob_b=(1,), arr_b=(a, b), rel_b=(),
        f_ob_a=(1,), f_arr_a=(),
        x_ob_a=(("x", "y"),), x_arr_a=(),
    )


def test_multi_position_overlaps():
    pres = loop_presentation()
    a, b = pres.arrow_by_label["a"], pres.arrow_by_label["b"]
    term_rule = EpsRule(Term("x", Path(1, (a, a, b, a))), Term("y", Path(1, (b, a))))
    path_rule = KRule(Path(1, (a, a)), Path(1, (b,)))
    system = RewriteSystem((term_rule,), (path_rule,))
    pairs = find_critical_pairs(system)
    # the two rules overlap at two distinct positions
    cross = [cp for cp in pairs if set(cp.rules) == {0, 1}]
    got = {canonical_pair(cp.left, cp.right) for cp in cross}
    expected = {
        canonical_pair(Term("y", Path(1, (b, a))), Term("x", Path(1, (b, b, a)))),
        canonical_pair(Term("y", Path(1, (b, a, a))), Term("x", Path(1, (a, a, b, b)))),
    }
    assert got == expected
    assert sorted(cp.case for cp in cross) == ["iv", "v"]
    # the path rule also overlaps itself on the word aaa
    self_pairs = [cp for cp in pairs if cp.rules == (1, 1)]
    assert {canonical_pair(cp.left, cp.right) for cp in self_pairs} == {
        canonical_pair(Path(1, (b, a)), Path(1, (a, b)))
    }


def test_disjoint_rules_have_no_pairs(demo_pres):
    r1 = EpsRule(T("x1", "b4"), T("x1"))
    r2 = EpsRule(T("y2", "b2", "b3"), T("y2"))
    assert find_critical_pairs(RewriteSystem((r1, r2), ())) == []


def test_path_suffix_prefix_overlap():
    pres = loop_presentation()
    a, b = pres.arrow_by_label["a"], pres.arrow_by_label["b"]
    c = Arrow("c", 1, 1)
    d = Arrow("d", 1, 1)
    pres2 = KanPresentation(
        ob_a=(1,), arr_a=(),
        ob_b=(1,), arr_b=(a, b, c, d), rel_b=(),
        f_ob_a=(1,), f_arr_a=(), x_ob_a=((),), x_arr_a=(),
    )
    r1 = KRule(Path(1, (a, b)), Path(1, (c,)))
    r2 = KRule(Path(1, (b, a)), Path(1, (d,)))
    pairs = find_critical_pairs(RewriteSystem((), (r1, r2)))
    got = {canonical_pair(cp.left, cp.right) for cp in pairs}
    # overlap word aba: (c.a, a.d); overlap word bab: (d.b, b.c)
    assert canonical_pair(Path(1, (c, a)), Path(1, (a, d))) in got
    assert canonical_pair(Path(1, (d, b)), Path(1, (b, c))) in got
    assert len(got) == 2


def test_self_overlap():
    pres = loop_presentation()
    a, b = pres.arrow_by_label["a"], pres.arrow_by_label["b"]
    rule = KRule(Path(1, (a, b, a)), Path(1, (b,)))
    pairs = find_critical_pairs(RewriteSystem((), (rule,)))
    # ab.aba = aba.ba overlap at the single shared "a"
    assert {canonical_pair(cp.left, cp.right) for cp in pairs} == {
        canonical_pair(Path(1, (b, b, a)), Path(1, (a, b, b)))
    }


def test_overlap_oracle_agreement_random():
    rng = random.Random(42)
    from .oracles import random_rule

    checked = 0
    while checked < 120:
        pres = random_presentation(rng)
        order = OrderSpec.from_presentation(pres)
        r1 = random_rule(rng, pres, order)
        r2 = random_rule(rng, pres, order)
        if r1 is None or r2 is None:
            continue
        checked += 1
        term_rules = tuple(r for r in (r1, r2) if isinstance(r, EpsRule))
        path_rules = tuple(r for r in (r1, r2) if isinstance(r, KRule))
        system = RewriteSystem(term_rules, path_rules)
        engine = {canonical_pair(cp.left, cp.right) for cp in find_critical_pairs(system)}
        oracle = alignment_critical_pairs(r1, r2, pres)
        oracle |= alignment_critical_pairs(r1, r1, pres)
        if r2 != r1:
            oracle |= alignment_critical_pairs(r2, r2, pres)
        assert engine == oracle


# --- resolution ---

def test_trivial_pair_resolves(demo_initial):
    from kanbex.rewrite import CriticalPair

    t = T("x1", "b4")
    assert resolves(CriticalPair(t, t, "i", (0, 0)), demo_initial)


def test_demo_overlap_needs_completion(demo_initial, demo_complete):
    pairs = find_critical_pairs(demo_initial)
    # the overlap of x1|b1 with b1b2b3 -> b4 yields (y1|b2b3, x1|b4)
    target = canonical_pair(T("y1", "b2", "b3"), T("x1", "b4"))
    (cp,) = [p for p in pairs if canonical_pair(p.left, p.right) == target]
    assert not resolves(cp, demo_initial)
    assert resolves(cp, demo_complete)


# --- completion ---

def test_demo_completion(demo_complete):
    lines = sorted(format_rule(r) for r in demo_complete.rules)
    assert lines == sorted([
        "x1*b1 -> y1", "x1*b4 -> x1",
        "x2*b1 -> y2", "x2*b4 -> x2",
        "x3*b1 -> y1", "x3*b4 -> x1",
        "b1*b2*b3 -> b4",
        "y1*b2*b3 -> x1", "y2*b2*b3 -> x2",
    ])
    assert check_confluence(demo_complete)


def test_empty_system_completes_immediately():
    result = complete(RewriteSystem(), ORDER)
    assert result.complete
    assert result.passes == 1
    assert len(result.system) == 0


def test_completion_limit_is_a_status():
    result = complete(RewriteSystem(), ORDER, max_rules=1, max_passes=1)
    assert result.complete  # empty system stays under any limit
    with pytest.raises(ValueError):
        complete(RewriteSystem(), ORDER, max_rules=0)


def test_a_rule_as_long_as_a_reduced_side_changes_its_normal_form():
    # pass 1 reduces the sides of aaa's self-overlap, ba and ab, and adds
    # b*a -> a*b, whose lhs is exactly as long as ba; pass 2 reads the
    # same pair again, and ba must now reduce to ab.  Kept as its old
    # normal form, ba would orient to b*a -> a*b once more in every pass
    pres = from_monoid_presentation(MonoidPresentationDesc(("a", "b"), ((("a", "a"), ("b",)),)))
    order = OrderSpec.from_presentation(pres)
    result = complete(initial_rules(pres, order), order, interreduce_after=False)
    assert (result.complete, result.passes, result.rules_added) == (True, 2, 1)
    assert [format_rule(r) for r in result.system.rules] == ["a*a -> b", "b*a -> a*b"]


def test_confluence_examples(demo_initial):
    assert not check_confluence(demo_initial)
    assert check_confluence(RewriteSystem())


def test_budgeted_von_dyck_rules_in_system_order():
    # recorded before the rule index moved to int-coded words: the rules
    # a pass-limited completion adds, and their order, follow from the
    # reduction strategy (see also tests/test_cli.py)
    pres = from_monoid_presentation(VON_DYCK)
    order = OrderSpec.from_presentation(pres)
    result = complete(initial_rules(pres, order), order, max_passes=4)
    assert (result.complete, result.passes, result.rules_added) == (False, 4, 14)
    assert [format_rule(r) for r in result.system.rules] == [
        "a*a -> IdWord", "b*B -> IdWord", "B*b -> IdWord",
        "b*b*b*b*b -> IdWord", "a*b*a*b*a*b*a*b -> IdWord",
        "b*b*b*b -> B", "a*b*a*b*a*b*a -> B", "b*a*b*a*b*a*b -> a",
        "b*b*b -> B*B", "B*B*B -> b*b", "a*b*a*b*a*b -> B*a",
        "b*a*b*a*b*a -> a*B", "a*b*a*b*a -> B*a*B", "b*a*b*a*b -> a*B*a",
        "b*a*b*a -> a*B*a*B", "B*a*B*a -> a*b*a*b",
        "B*B*a*b*a*b -> b*b*a*B*a", "b*b*a*B*a*B -> B*B*a*b*a",
        "B*B*a*b*a*B*B -> b*b*a*B*a*b*b",
    ]


# Hand-built systems, neither oriented nor interreduced, so left-hand
# sides nest and repeat as they never do after completion.  Expected
# values were recorded before the rule index became a prefix trie.

LOOPS = KanPresentation(
    ob_a=(1,), arr_a=(), ob_b=(1,), arr_b=tuple(Arrow(l, 1, 1) for l in "abcd"),
    rel_b=(), f_ob_a=(1,), f_arr_a=(), x_ob_a=(("x", "y"),), x_arr_a=(),
)


def _loops_word(spec):
    """``"ab"`` is the path a*b; ``"x|ab"`` the term x*a*b (``"x|"`` is x)."""
    if "|" in spec:
        tag, letters = spec.split("|")
        return list_as_term((tag, *letters), LOOPS)
    return Path(1, tuple(LOOPS.arrow_by_label[l] for l in spec))


def _loops_system(*specs):
    """Rules ``"lhs>rhs"`` in the given order, kept as written."""
    rules = [tuple(_loops_word(side) for side in spec.split(">")) for spec in specs]
    return RewriteSystem(tuple(EpsRule(*r) for r in rules if isinstance(r[0], Term)),
                         tuple(KRule(*r) for r in rules if isinstance(r[0], Path)))


TIE_BREAKS = [
    # an older long lhs containing a newer short one: the leftmost start
    # wins over the match that ends first
    (("abc>d", "b>c"), "abc", "d"),
    (("abc>d", "b>c"), "x|abc", "x|d"),
    (("abc>d", "b>c"), "dabcb", "ddc"),
    # two lhs lengths at one start: the shortest wins
    (("ab>c", "a>d"), "ab", "db"),
    (("x|ab>y|c", "x|a>y|d"), "x|ab", "y|db"),
    (("bcd>a", "bc>d"), "x|abcd", "x|add"),
    # a repeated lhs: the first-added rule wins
    (("a>b", "a>c"), "a", "b"),
    (("x|a>y|b", "x|a>y|c"), "x|a", "y|b"),
    # a term rule whose lhs path is empty
    (("x|>y|",), "x|ab", "y|ab"),
    (("x|>y|", "y|a>x|b"), "x|ab", "y|bb"),
    # term rules before path rules
    (("a>b", "x|a>y|"), "x|a", "y|"),
    # a rule that lengthens the word, which no oriented rule does
    (("a>bc",), "ab", "bcb"),
    (("a>bc",), "x|aa", "x|bcbc"),
]


@pytest.mark.parametrize("rules,word,expected", TIE_BREAKS)
def test_reduction_tie_breaks(rules, word, expected):
    system = _loops_system(*rules)
    w = _loops_word(word)
    got = reduce_term(w, system) if isinstance(w, Term) else reduce_path(w, system)
    assert got == _loops_word(expected)


def _random_loops_spec(rng, tagged, shortest):
    word = "".join(rng.choices("abc", k=rng.randint(shortest, 3)))
    return rng.choice("xy") + "|" + word if tagged else word


def _random_loops_rules(rng):
    """Oriented, not interreduced rules over LOOPS, a few letters long, so
    left-hand sides nest and repeat; about one in four starts from an
    earlier rule's lhs (or a factor of it)."""
    order = OrderSpec.from_presentation(LOOPS)
    idx = _RuleIndex(order=order, arrows=LOOPS.arr_b)
    rules = []
    for _ in range(rng.randint(1, 7)):
        tagged = rng.random() < 0.4
        lhs = _random_loops_spec(rng, tagged, 0 if tagged else 1)
        if rules and rng.random() < 0.25:
            lhs = rng.choice(rules)[0]
            tagged = "|" in lhs
            if not tagged and len(lhs) > 1:
                i = rng.randrange(len(lhs))
                lhs = lhs[i : rng.randint(i + 1, len(lhs))]
        rhs = _random_loops_spec(rng, tagged, 0)
        rule = _oriented(idx.encode(_loops_word(lhs)), idx.encode(_loops_word(rhs)), order.x_rank)
        if rule is not None:
            rules.append((lhs, idx.rule(rule)))
    return [rule for _, rule in rules]


def _lhs_word(rule):
    lhs = rule.lhs
    return (lhs.tag,) + lhs.path.labels if isinstance(lhs, Term) else lhs.labels


def test_reduction_follows_the_reference_strategy():
    # Both sides of a rule come from one small alphabet, so the systems
    # have what completion never leaves: nested and repeated lhs, term
    # rules with an empty path, and an lhs starting earlier and ending
    # later than one it contains.  The corpus must hold each of them.
    rng = random.Random(5)
    seen = {"nested": 0, "repeated": 0, "empty path": 0, "earlier start, later end": 0}
    for _ in range(400):
        rules = _random_loops_rules(rng)
        if not rules:
            continue
        system = RewriteSystem(tuple(r for r in rules if isinstance(r, EpsRule)),
                               tuple(r for r in rules if isinstance(r, KRule)))
        lhss = [_lhs_word(r) for r in system.rules]
        for u in lhss:
            for v in lhss:
                inner = [i for i in range(len(u) - len(v) + 1) if u[i : i + len(v)] == v]
                seen["repeated"] += u is not v and u == v
                seen["nested"] += len(v) < len(u) and bool(inner)
                seen["earlier start, later end"] += any(0 < i < len(u) - len(v) for i in inner)
        seen["empty path"] += sum(len(l) == 1 and l[0] in "xy" for l in lhss)
        for _ in range(12):
            # words built from left-hand sides, so that rules apply
            pieces = [rng.choice(lhss) for _ in range(rng.randint(0, 3))]
            pieces += [rng.choices("abcd", k=rng.randint(0, 2))]
            rng.shuffle(pieces)
            letters = "".join(c for piece in pieces for c in piece if c not in "xy")
            path = _loops_word(letters) if letters else Path(1)
            term = Term(rng.choice("xy"), path)
            assert reduce_term(term, system) == reference_reduce(term, system)
            assert reduce_path(path, system) == reference_reduce(path, system)
    assert min(seen.values()) >= 15, seen


def test_long_words_reduce_by_the_reference_strategy():
    # seeded random words of 40 to 64 letters against completed Coxeter
    # S5, whose normal forms have at most 10 letters, so that each word
    # takes many rewrites, resuming mid-word after each
    pres = from_monoid_presentation(coxeter(5))
    order = OrderSpec.from_presentation(pres)
    result = complete(initial_rules(pres, order), order)
    assert result.complete
    system = result.system
    gens = [a.label for a in pres.arr_b]
    rng = random.Random(16)
    rewrites = []
    for _ in range(24):
        term = list_as_term(("e", *rng.choices(gens, k=rng.randint(40, 64))), pres)
        for word in (term, term.path):
            steps = list(reference_steps(word, system))
            got = reduce_term(word, system) if isinstance(word, Term) else reduce_path(word, system)
            assert got == steps[-1]
            rewrites.append(len(steps) - 1)
    assert sum(rewrites) / len(rewrites) >= 20, rewrites


def test_presentations_sharing_a_label_reduce_independently():
    # b1 runs 1 -> 2 in one presentation and is a loop at 1 in the other;
    # each system codes its own labels, so neither sees the other's arrow
    two = from_category_presentation(
        (1, 2), (("b1", 1, 2), ("b2", 2, 1)),
        ((("b1", "b2"), ()), (("b2", "b1"), ())), points=("x", "y"))
    loop = from_monoid_presentation(
        MonoidPresentationDesc(("b1",), ((("b1",) * 3, ()),)), point="e")
    systems = []
    for pres in (two, loop):
        order = OrderSpec.from_presentation(pres)
        result = complete(initial_rules(pres, order), order)
        assert result.complete
        systems.append(result.system)

    def reduce(pres, system, *labels):
        return reduce_term(list_as_term(labels, pres), system)

    for _ in range(2):  # alternate, so each index is used after the other
        nf = reduce(two, systems[0], "x", "b1", "b2", "b1")
        assert nf == list_as_term(("x", "b1"), two) and nf.target == 2
        nf = reduce(loop, systems[1], "e", "b1", "b1", "b1", "b1")
        assert nf == list_as_term(("e", "b1"), loop) and nf.target == 1
        assert reduce(two, systems[0], "y", "b2", "b1") == list_as_term(("y",), two)
    assert enumerate_extension(two, systems[0]).total == 4
    assert enumerate_extension(loop, systems[1]).total == 3


def test_threads_sharing_a_system_reduce_correctly():
    # a system's index is shared: the first reduction builds it, reducing
    # a term interns the labels no rule mentions, and reductions memoise
    # the automaton's transitions; threads doing so at once must not mix
    # codes, read a half-built automaton or lose a transition
    gens = ("a",) + tuple(f"g{k}" for k in range(1024))
    pres = from_monoid_presentation(MonoidPresentationDesc(gens, ((("a", "a"), ()),)))
    rules = initial_rules(pres)
    s4 = from_monoid_presentation(coxeter(4))
    s4_order = OrderSpec.from_presentation(s4)
    s4_rules = complete(initial_rules(s4, s4_order), s4_order).system
    rng = random.Random(4)
    words = [list_as_term(("e", *rng.choices(("s1", "s2", "s3"), k=12)), s4) for _ in range(64)]
    expected = [reduce_term(w, s4_rules) for w in words]

    def work(system, s4_system, labels, start, outcomes):
        start.wait(timeout=30)
        got = [reduce_term(w, s4_system) for w in words]
        start.wait(timeout=30)
        nf = reduce_term(list_as_term(("e", *labels, "a", "a", *labels), pres), system)
        outcomes.append(got == expected and nf == list_as_term(("e", *labels, *labels), pres))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            # fresh systems, so fresh indexes
            system = RewriteSystem(rules.term_rules, rules.path_rules)
            s4_system = RewriteSystem(s4_rules.term_rules, s4_rules.path_rules)
            start = threading.Barrier(4)
            outcomes = []  # one per thread that ran to the end
            threads = [threading.Thread(target=work, args=(system, s4_system, gens[1 + k :: 4],
                                                           start, outcomes))
                       for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert outcomes == [True] * 4
    finally:
        sys.setswitchinterval(interval)


# --- interreduction ---

def test_interreduce_transitive_collapse():
    # loops with declaration order making a > b > c
    c = Arrow("c", 1, 1)
    b = Arrow("b", 1, 1)
    a = Arrow("a", 1, 1)
    pres = KanPresentation(
        ob_a=(1,), arr_a=(), ob_b=(1,), arr_b=(c, b, a), rel_b=(),
        f_ob_a=(1,), f_arr_a=(), x_ob_a=((),), x_arr_a=(),
    )
    order = OrderSpec.from_presentation(pres)
    system = RewriteSystem((), (
        KRule(Path(1, (a,)), Path(1, (b,))),
        KRule(Path(1, (b,)), Path(1, (c,))),
    ))
    reduced = interreduce(system, order)
    assert sorted(format_rule(r) for r in reduced.rules) == ["a -> c", "b -> c"]


def test_interreduce_orbit_rules():
    pres = KanPresentation(
        ob_a=(1,), arr_a=(), ob_b=(1,), arr_b=(), rel_b=(),
        f_ob_a=(1,), f_arr_a=(),
        x_ob_a=(("v", "w", "x", "y", "z"),), x_arr_a=(),
    )
    order = OrderSpec.from_presentation(pres)

    def t(l):
        return Term(l, Path.identity(1))

    raw = [("v", "w"), ("w", "x"), ("x", "v"), ("w", "v"), ("y", "z"), ("z", "y")]
    seen = []
    idx = _RuleIndex(order=order, arrows=pres.arr_b)
    for p, q in raw:
        rule = idx.rule(_oriented(idx.encode(t(p)), idx.encode(t(q)), order.x_rank))
        if rule not in seen:
            seen.append(rule)
    reduced = interreduce(RewriteSystem(tuple(seen), ()), order)
    assert sorted(format_rule(r) for r in reduced.rules) == ["w -> v", "x -> v", "z -> y"]


@pytest.mark.parametrize("rules,expected", [
    # a rule's lhs reduces against the others, which include the rules
    # sharing its lhs (system order recorded before interreduction used
    # one index per sweep)
    (("ab>c", "ab>d", "x|a>y|", "x|a>x|"), ["x*a -> x", "y -> x", "d -> c", "a*b -> c"]),
    (("ab>c", "ab>c", "x|b>y|a", "x|b>y|a"), ["x*b -> y*a", "a*b -> c"]),
])
def test_interreduce_rules_sharing_an_lhs(rules, expected):
    reduced = interreduce(_loops_system(*rules), OrderSpec.from_presentation(LOOPS))
    assert [format_rule(r) for r in reduced.rules] == expected


@pytest.mark.parametrize("rules,expected", [
    (("b>a", "cb>d"), ["b -> a", "c*a -> d"]),
    (("x|>y|", "x|a>x|b"), ["x -> y", "y*b -> y*a"]),
])
def test_interreduce_reduces_by_the_first_rule(rules, expected):
    # the first rule's rhs is held back in the sweep's index while its
    # lhs is reduced, so that the lhs reduces against the other rules
    # only; the other rules must still be reduced by it (recorded before
    # the rule index became an automaton)
    reduced = interreduce(_loops_system(*rules), OrderSpec.from_presentation(LOOPS))
    assert [format_rule(r) for r in reduced.rules] == expected


def test_listing_order():
    # hand-built and not interreduced, so two rules may share an lhs
    # (listing recorded with the label-rank print order)
    system = RewriteSystem(
        (EpsRule(T("y1", "b2", "b3"), T("x1")), EpsRule(T("x3", "b4"), T("x1")),
         EpsRule(T("x1", "b1"), T("y2")), EpsRule(T("x1", "b4"), T("x1")),
         EpsRule(T("x1", "b1"), T("y1"))),
        (KRule(P("b5", "b3"), P("b4", "b4")), KRule(P("b1", "b2", "b3"), P("b4")),
         KRule(P("b5", "b3"), P("b4")), KRule(P("b4", "b4"), P("b4"))),
    )
    assert format_system(system, ORDER) == [
        "b4*b4 -> b4", "b5*b3 -> b4", "b5*b3 -> b4*b4",
        "x1*b1 -> y1", "x1*b1 -> y2", "x1*b4 -> x1", "x3*b4 -> x1",
        "b1*b2*b3 -> b4", "y1*b2*b3 -> x1",
    ]


# --- soundness and confluence properties on random systems ---

def test_completion_preserves_equivalence_on_random_systems():
    rng = random.Random(11)
    done = 0
    for _ in range(60):
        pres = random_presentation(rng)
        order = OrderSpec.from_presentation(pres)
        system = initial_rules(pres, order)
        if len(system) == 0:
            continue
        result = complete(system, order, max_rules=200, max_passes=30, max_rule_length=16)
        if not result.complete:
            continue
        done += 1
        final = result.system
        assert check_confluence(final)
        # initial equations still hold
        for rule in system.term_rules:
            assert reduce_term(rule.lhs, final) == reduce_term(rule.rhs, final)
        # normal-form equality matches undirected closure on short terms
        uf = closure_partition(pres, final, 5)
        from .oracles import all_terms

        by_nf = {}
        for t in all_terms(pres, 5):
            by_nf.setdefault(reduce_term(t, final), set()).add(t)
        closure_classes = uf.partition()
        nf_classes = {frozenset(v) for v in by_nf.values()}
        assert nf_classes == closure_classes
    assert done >= 10
