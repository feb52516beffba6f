import random

import pytest

from kanbex import (
    ActionDesc,
    CosetSystemDesc,
    MonoidPresentationDesc,
    OrderSpec,
    PresentationError,
    complete,
    conjugation_action,
    encode_from_json,
    enumerate_extension,
    format_rule,
    format_term,
    from_action_orbits,
    from_category_presentation,
    from_colimit_diagram,
    from_coset_system,
    from_group_morphism,
    from_monoid_presentation,
    from_relation_quotient,
    from_right_congruence,
    initial_rules,
    validate_presentation,
)
from kanbex import encodings

from .oracles import (
    UnionFind,
    equivariant_quotient_partition,
    orbit_partition,
    word_closure_classes,
)

GROUP_RELS = (
    (("a", "a", "b"), ("b", "a")),
    (("a", "a", "c"), ("c", "a")),
    (("c", "b", "b", "b"), ("a", "b", "c")),
    (("c", "a", "c", "a"), ("b",)),
)

S3 = MonoidPresentationDesc(
    ("x", "y"),
    ((("x", "x", "x"), ()), (("y", "y"), ()), (("x", "y", "x", "y"), ())),
)


def run(pres, **limits):
    order = OrderSpec.from_presentation(pres)
    result = complete(initial_rules(pres, order), order, **limits)
    assert result.complete
    return result


def reps(pres, system, obj=1, limit=1000):
    tables = enumerate_extension(pres, system, limit=limit)
    return [format_term(nf) for nf in tables.elements[obj]], tables


# --- monoid presentations ---

def test_monoid_fields():
    pres = from_monoid_presentation(
        MonoidPresentationDesc(("a", "b"), ((("a", "b"), ("b", "a")),))
    )
    assert len(pres.x_ob_a[0]) == 1
    assert len(pres.arr_b) == 2
    assert len(pres.rel_b) == 1
    assert validate_presentation(pres).ok


def test_monoid_point_collision_rejected():
    with pytest.raises(PresentationError):
        from_monoid_presentation(MonoidPresentationDesc(("e",), ()), point="e")


def test_group_presentation_completes_to_24_rules():
    pres = from_monoid_presentation(MonoidPresentationDesc(("a", "b", "c"), GROUP_RELS))
    result = run(pres)
    assert len(result.system) == 24
    assert len(result.system.path_rules) == 24


def test_s3_normal_forms():
    pres = from_monoid_presentation(S3)
    result = run(pres)
    names, tables = reps(pres, result.system)
    assert tables.total == 6
    assert names == ["e", "e*x", "e*y", "e*x*x", "e*x*y", "e*y*x"]


# --- category presentations ---

def test_infinite_category_is_already_complete():
    pres = from_category_presentation(
        [1, 2, 3],
        [("a", 1, 2), ("b", 2, 2), ("c", 2, 3), ("d", 3, 1)],
        [(("b", "b", "c"), ("c",)), (("a", "b", "b"), ("a",))],
    )
    order = OrderSpec.from_presentation(pres)
    system = initial_rules(pres, order)
    from kanbex import check_confluence

    assert check_confluence(system)
    result = complete(system, order)
    assert result.rules_added == 0


def test_discrete_category_has_identity_arrows_only():
    pres = from_category_presentation([1, 2], [], [])
    result = run(pres)
    tables = enumerate_extension(pres, result.system)
    assert tables.total == 2
    assert [format_term(nf) for nf in tables.elements[1]] == ["e1"]


def test_non_parallel_relation_rejected():
    with pytest.raises(Exception):
        from_category_presentation([1, 2], [("a", 1, 2)], [(("a",), ())])


# --- cosets ---

def test_left_cosets_not_supported():
    with pytest.raises(PresentationError):
        from_coset_system(CosetSystemDesc(("a",), (), (), side="left"))


def test_trivial_subgroup_recovers_elements():
    desc = CosetSystemDesc(("x", "y"), S3.relations, ())
    pres = from_coset_system(desc)
    result = run(pres)
    names, tables = reps(pres, result.system)
    assert tables.total == 6


def test_s3_subgroup_cosets_match_word_closure():
    # subgroup <y> of S3 has index 3
    desc = CosetSystemDesc(("x", "y"), S3.relations, (("y",),))
    pres = from_coset_system(desc)
    result = run(pres)
    names, tables = reps(pres, result.system)
    assert tables.total == 3

    uf = word_closure_classes(("x", "y"), S3.relations, (("y",),), 7)
    short = [(), ("x",), ("x", "x"), ("y",)]
    assert uf.find(()) == uf.find(("y",))
    assert len({uf.find(w) for w in short}) == 3


# --- right congruences ---

def test_congruence_on_free_monoid():
    free_a = MonoidPresentationDesc(("a",), ())
    pres = from_right_congruence(free_a, (("a", "a"),))
    result = run(pres)
    names, tables = reps(pres, result.system)
    assert names == ["H", "H*a"]

    # action: [1].a = [a], [a].a = [1] -- cross-check with word closure
    uf = word_closure_classes(("a",), (), (("a", "a"),), 6)
    assert uf.find(("a", "a")) == uf.find(())
    assert uf.find(("a", "a", "a")) == uf.find(("a",))
    assert uf.find(("a",)) != uf.find(())

    from kanbex import Path, Term, act

    one = Term("H", Path.identity(1))
    a_path = Path(1, (pres.arrow_by_label["a"],))
    cls_a = act(one, a_path, result.system)
    assert format_term(cls_a) == "H*a"
    assert act(cls_a, a_path, result.system) == one


def test_empty_congruence_gives_all_elements():
    two = MonoidPresentationDesc(("a",), ((("a", "a"), ("a",)),))
    pres = from_right_congruence(two, ())
    result = run(pres)
    names, tables = reps(pres, result.system)
    assert tables.total == 2


def test_congruence_on_three_element_monoid():
    mono = MonoidPresentationDesc(("a",), ((("a", "a", "a"), ("a",)),))
    pres = from_right_congruence(mono, (("a", "a"),))
    result = run(pres)
    names, tables = reps(pres, result.system)
    assert tables.total == 2

    uf = word_closure_classes(("a",), ((("a", "a", "a"), ("a",)),), (("a", "a"),), 6)
    words = [(), ("a",), ("a", "a")]
    assert len({uf.find(w) for w in words}) == 2


# --- quotients of point sets ---

def test_plain_quotient_single_pair():
    pres = from_relation_quotient(("p", "q", "r"), [("p", "q")])
    result = run(pres)
    names, tables = reps(pres, result.system)
    assert tables.total == 2
    assert names == ["p", "r"]


def test_quotient_transitive_chain():
    pres = from_relation_quotient(("p", "q", "r"), [("p", "q"), ("q", "r")])
    result = run(pres)
    _, tables = reps(pres, result.system)
    assert tables.total == 1


def test_coequaliser_as_plain_quotient():
    pres = from_relation_quotient(
        ("y1", "y2", "y3", "y4"),
        [("y1", "y1"), ("y2", "y1"), ("y3", "y3")],
    )
    result = run(pres)
    names, tables = reps(pres, result.system)
    assert tables.total == 3
    assert names == ["y1", "y3", "y4"]


def test_equivariant_quotient_matches_oracle():
    monoid = MonoidPresentationDesc(("m",), ())
    points = ("p", "q", "r")
    action = {"m": ("q", "p", "r")}
    pres = from_relation_quotient(points, [("p", "r")], monoid=monoid, action=action)
    result = run(pres)
    names, tables = reps(pres, result.system)
    oracle = equivariant_quotient_partition(points, [("p", "r")], ("m",), action)
    assert tables.total == len(oracle) == 1


def test_equivariant_quotient_keeps_action():
    # merging nothing: the quotient is the points with the action intact
    monoid = MonoidPresentationDesc(("m",), ())
    points = ("p", "q")
    action = {"m": ("q", "p")}
    pres = from_relation_quotient(points, [], monoid=monoid, action=action)
    result = run(pres)
    names, tables = reps(pres, result.system)
    assert tables.total == 2

    from kanbex import Path, Term, act

    m = Path(1, (pres.arrow_by_label["m"],))
    p = Term("p", Path.identity(1))
    assert format_term(act(p, m, result.system)) == "q"


# --- orbits ---

def s3_action_desc():
    return ActionDesc(
        monoid=MonoidPresentationDesc(
            ("a", "b"),
            ((("a",) * 3, ()), (("b",) * 2, ()), (("a", "b", "a", "b"), ())),
        ),
        points=("v", "w", "x", "y", "z"),
        action={"a": ("w", "x", "v", "y", "z"), "b": ("w", "v", "x", "z", "y")},
    )


def test_s3_orbits():
    desc = s3_action_desc()
    pres = from_action_orbits(desc)
    result = run(pres)
    assert sorted(format_rule(r) for r in result.system.rules) == \
        ["w -> v", "x -> v", "z -> y"]
    names, tables = reps(pres, result.system)
    assert names == ["v", "y"]

    oracle = orbit_partition(desc.points, ("a", "b"), desc.action)
    assert len(oracle) == 2

    # each point maps to its orbit representative
    from kanbex import epsilon

    assert format_term(epsilon("w", pres, result.system)) == "v"
    assert format_term(epsilon("y", pres, result.system)) == "y"


def test_identity_action_keeps_all_points():
    desc = ActionDesc(
        monoid=MonoidPresentationDesc(("g",), ()),
        points=("p", "q"),
        action={"g": ("p", "q")},
    )
    pres = from_action_orbits(desc)
    result = run(pres)
    assert len(result.system) == 0
    _, tables = reps(pres, result.system)
    assert tables.total == 2


def test_random_orbits_match_union_find():
    rng = random.Random(5)
    for _ in range(25):
        n_points = rng.randint(1, 8)
        points = tuple(f"p{i}" for i in range(n_points))
        gens = tuple("gh"[: rng.randint(1, 2)])
        action = {g: tuple(rng.choice(points) for _ in points) for g in gens}
        desc = ActionDesc(MonoidPresentationDesc(gens, ()), points, action)
        pres = from_action_orbits(desc)
        result = run(pres)
        _, tables = reps(pres, result.system)
        assert tables.total == len(orbit_partition(points, gens, action))


# --- conjugacy classes ---

QUATERNION = MonoidPresentationDesc(
    ("a", "b"),
    (
        (("a",) * 4, ()),
        (("b",) * 4, ()),
        (("a", "b", "a"), ("b",)),
        (("a", "a"), ("b", "b")),
    ),
)
Q8_ELEMENTS = [(), ("a",), ("b",), ("a", "a"), ("a", "b"),
               ("b", "a"), ("a", "a", "a"), ("a", "a", "b")]
Q8_INVERSES = {"a": ("a", "a", "a"), "b": ("a", "a", "b")}
Q8_LABELS = ["id", "a", "b", "a2", "ab", "ba", "a3", "a2b"]


def test_quaternion_conjugacy_classes():
    desc = conjugation_action(QUATERNION, Q8_ELEMENTS, Q8_INVERSES, labels=Q8_LABELS)
    pres = from_action_orbits(desc)
    result = run(pres)
    assert sorted(format_rule(r) for r in result.system.rules) == \
        ["a2b -> b", "a3 -> a", "ba -> ab"]
    names, tables = reps(pres, result.system)
    assert names == ["id", "a", "b", "a2", "ab"]


def test_conjugation_action_matches_multiplication_table():
    desc = conjugation_action(QUATERNION, Q8_ELEMENTS, Q8_INVERSES, labels=Q8_LABELS)
    # independent check via the completed group system: the class of
    # label l under g is label of nf(inv(g) l g)
    pres = from_monoid_presentation(QUATERNION)
    result = run(pres)
    from kanbex import Path, reduce_path

    by_label = pres.arrow_by_label

    def word_path(w):
        return Path(1, tuple(by_label[ch] for ch in w))

    def nf(w):
        return reduce_path(word_path(w), result.system).labels

    label_of = {nf(w): lbl for w, lbl in zip(Q8_ELEMENTS, Q8_LABELS)}
    for g in "ab":
        for w, lbl in zip(Q8_ELEMENTS, Q8_LABELS):
            conj = nf(Q8_INVERSES[g] + tuple(w) + (g,))
            expected = label_of[conj]
            got = desc.action[g][desc.points.index(lbl)]
            assert got == expected


def test_conjugation_requires_inverses():
    with pytest.raises(PresentationError):
        conjugation_action(QUATERNION, Q8_ELEMENTS, {"a": ("a", "a", "a")})
    with pytest.raises(PresentationError, match="inverse"):
        conjugation_action(QUATERNION, Q8_ELEMENTS,
                           {"a": ("a",), "b": ("a", "a", "b")})


def test_conjugation_requires_a_completed_group(monkeypatch):
    full = encodings.complete
    monkeypatch.setattr(encodings, "complete",
                        lambda system, order: full(system, order, max_passes=1))
    with pytest.raises(PresentationError, match="^group relations did not complete"):
        conjugation_action(QUATERNION, Q8_ELEMENTS, Q8_INVERSES)


def test_conjugation_requires_distinct_elements_closed_under_conjugation():
    with pytest.raises(PresentationError, match="^element words are not distinct"):
        conjugation_action(QUATERNION, Q8_ELEMENTS + [("b", "b")], Q8_INVERSES)
    # a3 is left out, and b^-1 a b = a^3 in Q8
    with pytest.raises(PresentationError, match="^element list is not closed under conj"):
        conjugation_action(QUATERNION, Q8_ELEMENTS[:6], Q8_INVERSES)


def test_unknown_encoding_family():
    with pytest.raises(PresentationError, match="^unknown encoding family 'nope'$"):
        encode_from_json("nope", {})


# --- colimits ---

def test_coequaliser():
    pres = from_colimit_diagram(
        [(1, 2), (1, 2)],
        [("x1", "x2", "x3"), ("y1", "y2", "y3", "y4")],
        [("y1", "y2", "y3"), ("y1", "y1", "y3")],
    )
    result = run(pres)
    assert result.rules_added == 1
    assert sorted(format_rule(r) for r in result.system.rules) == \
        ["x2 -> x1", "y1 -> x1", "y2 -> x1", "y3 -> x3"]
    names, tables = reps(pres, result.system)
    assert names == ["x1", "x3", "y4"]

    # the colimit functions send each element to its class representative
    from kanbex import epsilon

    assert format_term(epsilon("y2", pres, result.system)) == "x1"
    assert format_term(epsilon("y4", pres, result.system)) == "y4"


def test_single_set_colimit_is_itself():
    pres = from_colimit_diagram([], [("p", "q")], [])
    result = run(pres)
    _, tables = reps(pres, result.system)
    assert tables.total == 2


def test_pushout_of_copies():
    pres = from_colimit_diagram(
        [(1, 2), (1, 3)],
        [("x",), ("y",), ("z",)],
        [("y",), ("z",)],
    )
    result = run(pres)
    _, tables = reps(pres, result.system)
    assert tables.total == 1


def test_random_colimits_match_union_find():
    rng = random.Random(9)
    for _ in range(25):
        n_obj = rng.randint(1, 3)
        sets = []
        for i in range(n_obj):
            sets.append(tuple(f"s{i}_{j}" for j in range(rng.randint(0, 3))))
        arrows = []
        maps = []
        for _ in range(rng.randint(0, 3)):
            s, t = rng.randint(1, n_obj), rng.randint(1, n_obj)
            if not sets[t - 1] and sets[s - 1]:
                continue
            arrows.append((s, t))
            maps.append(tuple(rng.choice(sets[t - 1]) for _ in sets[s - 1]))
        pres = from_colimit_diagram(arrows, sets, maps)
        result = run(pres)
        _, tables = reps(pres, result.system)

        points = [p for xs in sets for p in xs]
        uf = UnionFind(points)
        for (s, t), images in zip(arrows, maps):
            for p, q in zip(sets[s - 1], images):
                uf.union(p, q)
        assert tables.total == len(uf.partition()) if points else tables.total == 0


# --- induced actions ---

def test_trivial_subgroup_inclusion_recovers_elements():
    c3 = MonoidPresentationDesc(("g",), ((("g", "g", "g"), ()),))
    trivial = MonoidPresentationDesc((), ())
    pres = from_group_morphism(trivial, c3, {}, ("e",), {})
    result = run(pres)
    _, tables = reps(pres, result.system)
    assert tables.total == 3


def test_identity_morphism_trivial_point_collapses():
    # with a trivially-acted point and the identity morphism, the induced
    # relation (x.a, w) ~ (x, a w) merges every element into one class
    c3 = MonoidPresentationDesc(("g",), ((("g", "g", "g"), ()),))
    pres = from_group_morphism(c3, c3, {"g": ("g",)}, ("e",), {"g": ("e",)})
    result = run(pres)
    _, tables = reps(pres, result.system)
    assert tables.total == 1


def test_collapse_to_trivial_group_gives_orbits():
    c2 = MonoidPresentationDesc(("a",), ((("a", "a"), ()),))
    trivial = MonoidPresentationDesc((), ())
    pres = from_group_morphism(
        c2, trivial, {"a": ()}, ("p", "q"), {"a": ("q", "p")}
    )
    result = run(pres)
    _, tables = reps(pres, result.system)
    assert tables.total == 1


def test_all_encodings_validate():
    for pres in [
        from_monoid_presentation(S3),
        from_coset_system(CosetSystemDesc(("a", "b", "c"), GROUP_RELS, (("c", "c"),))),
        from_action_orbits(s3_action_desc()),
        from_relation_quotient(("p", "q"), [("p", "q")]),
        from_colimit_diagram([(1, 2)], [("x",), ("y",)], [("y",)]),
    ]:
        assert validate_presentation(pres).ok
