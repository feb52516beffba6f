import random

import pytest

from kanbex import (
    CompositionError,
    EnumerationStatus,
    Path,
    RewriteSystem,
    Term,
    act,
    enumerate_extension,
    epsilon,
    format_term,
    naturality_check,
    reduce_term,
    tau_bar,
)

from .conftest import build_demo_presentation
from .oracles import all_terms, closure_partition

PRES = build_demo_presentation()
B = PRES.arrow_by_label


def P(*labels):
    arrows = tuple(B[l] for l in labels)
    return Path(arrows[0].src, arrows)


def test_demo_enumeration_exceeds_limit(demo_pres, demo_complete):
    tables = enumerate_extension(demo_pres, demo_complete, limit=1000)
    assert tables.status is EnumerationStatus.LIMIT_EXCEEDED
    assert tables.total == 1000
    assert not tables.finite


def test_small_limit_stops_early(demo_pres, demo_complete):
    tables = enumerate_extension(demo_pres, demo_complete, limit=10)
    assert tables.status is EnumerationStatus.LIMIT_EXCEEDED
    assert tables.total == 10


def test_rejects_nonpositive_limit(demo_pres, demo_complete):
    with pytest.raises(ValueError):
        enumerate_extension(demo_pres, demo_complete, limit=0)


def test_rejects_non_confluent_system(demo_pres, demo_initial):
    with pytest.raises(ValueError, match="confluent"):
        enumerate_extension(demo_pres, demo_initial)


def test_enumeration_partitions_by_target(demo_pres, demo_complete):
    tables = enumerate_extension(demo_pres, demo_complete, limit=60)
    assert sum(len(v) for v in tables.elements.values()) == tables.total
    for obj, nfs in tables.elements.items():
        for nf in nfs:
            assert tau_bar(nf) == obj
            assert reduce_term(nf, demo_complete) == nf


def test_enumeration_matches_bounded_closure(demo_pres, demo_complete):
    # every enumerated element of length <= 5 is the least member of its
    # closure class, and every class of short terms has exactly one
    # enumerated representative among its members
    tables = enumerate_extension(demo_pres, demo_complete, limit=1000)
    enumerated = {nf for v in tables.elements.values() for nf in v}
    uf = closure_partition(demo_pres, demo_complete, 5)
    for cls in uf.partition():
        inside = cls & enumerated
        assert len(inside) <= 1
        nfs = {reduce_term(t, demo_complete) for t in cls}
        assert len(nfs) == 1


def test_tau_bar_examples(demo_complete):
    assert tau_bar(Term("x1", P("b5", "b3"))) == 1
    assert tau_bar(Term("x1", Path.identity(1))) == 1
    assert tau_bar(Term("y1", P("b2"))) == 3


def test_act_examples(demo_pres, demo_complete):
    n = Term("x1", P("b5", "b3", "b4", "b4", "b5"))
    moved = act(n, P("b3"), demo_complete)
    assert format_term(moved) == "x1*b5*b3*b4*b4*b5*b3"
    assert tau_bar(moved) == 1

    assert act(n, Path.identity(3), demo_complete) == n

    start = epsilon("x3", demo_pres, demo_complete)
    assert act(start, P("b1"), demo_complete) == epsilon("y1", demo_pres, demo_complete)


def test_act_rejects_source_mismatch(demo_complete):
    n = Term("x1", Path.identity(1))
    with pytest.raises(CompositionError):
        act(n, P("b2"), demo_complete)


def test_act_respects_composition(demo_pres, demo_complete):
    rng = random.Random(3)
    from .oracles import random_term

    for _ in range(40):
        t = random_term(rng, demo_pres, 4)
        n = reduce_term(t, demo_complete)
        p = random_walk(n.target, rng, 3)
        q = random_walk(p.target, rng, 3)
        from kanbex import compose_paths

        assert act(act(n, p, demo_complete), q, demo_complete) == \
            act(n, compose_paths(p, q), demo_complete)


def random_walk(src, rng, max_steps):
    by_src = {}
    for a in PRES.arr_b:
        by_src.setdefault(a.src, []).append(a)
    path = Path(src)
    for _ in range(rng.randint(0, max_steps)):
        options = by_src.get(path.target, [])
        if not options:
            break
        path = Path(path.source, path.arrows + (rng.choice(options),))
    return path


def test_epsilon_examples(demo_pres, demo_complete):
    assert format_term(epsilon("x1", demo_pres, demo_complete)) == "x1"
    with pytest.raises(Exception):
        epsilon("nope", demo_pres, demo_complete)


def test_naturality(demo_pres, demo_initial, demo_complete):
    assert naturality_check(demo_pres, demo_complete)
    # the rules themselves enforce the contract even before completion
    assert naturality_check(demo_pres, demo_initial)


def test_naturality_vacuous_without_arrows():
    from kanbex import KanPresentation

    pres = KanPresentation((1,), (), (1,), (), (), (1,), (), (("e",),), ())
    assert naturality_check(pres, RewriteSystem())


def test_action_well_defined_on_parallel_relation_paths(demo_pres, demo_complete):
    # b1b2b3 and b4 are identified; acting by either gives the same element
    tables = enumerate_extension(demo_pres, demo_complete, limit=40)
    p, q = P("b1", "b2", "b3"), P("b4")
    from kanbex import reduce_path

    assert reduce_path(p, demo_complete) == reduce_path(q, demo_complete)
    for nfs in tables.elements.values():
        for nf in nfs:
            if nf.target == 1:
                assert act(nf, p, demo_complete) == act(nf, q, demo_complete)


def test_stage_cutoff_soundness(demo_pres, demo_complete):
    # a term whose every proper tag-anchored prefix is reducible is itself
    # reducible: check on all terms of length <= 4
    for t in all_terms(demo_pres, 4):
        prefixes = [
            Term(t.tag, Path(t.path.source, t.path.arrows[:i]))
            for i in range(len(t.path.arrows))
        ]
        if not prefixes:
            continue
        if all(reduce_term(p, demo_complete) != p for p in prefixes):
            assert reduce_term(t, demo_complete) != t
