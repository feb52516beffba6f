import random

import pytest

from kanbex import (
    DEFAULT_LIMIT,
    CompositionError,
    EnumerationStatus,
    OrderSpec,
    Path,
    RewriteSystem,
    Term,
    act,
    complete,
    enumerate_extension,
    epsilon,
    format_term,
    from_monoid_presentation,
    initial_rules,
    naturality_check,
    reduce_term,
    tau_bar,
)

from .conftest import build_demo_presentation, coxeter
from .oracles import all_terms, closure_partition
from .test_bench_hooks import _bundled
from .test_cli import BUNDLED
from .test_random_completion import LIMITS, _draws

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


def check_partition(pres, system, limit, order=None):
    """The catalogue's terms are reduced and sit over their keys, which
    are the presentation's objects; they are built once, and each one's
    name from the forest is its ``format_term`` text."""
    tables = enumerate_extension(pres, system, limit=limit, order=order)
    assert tables.elements is tables.elements
    assert sum(len(v) for v in tables.elements.values()) == tables.total
    names = tables.names()
    assert list(tables.elements) == list(names) == list(pres.ob_b)
    for obj, nfs in tables.elements.items():
        assert names[obj] == tuple(format_term(nf) for nf in nfs)
        for nf in nfs:
            assert tau_bar(nf) == obj
            assert reduce_term(nf, system) == nf


def test_enumeration_partitions_by_target(demo_pres, demo_complete):
    check_partition(demo_pres, demo_complete, 60)


def _catalogued(family, name):
    """Each presentation of a problem, with the order it is completed
    under: a bundled problem, Coxeter S4, or the draws of one seed of the
    random corpus."""
    if family == "random":
        return [(pres, order) for _, pres, order in _draws(int(name[-1]), False)]
    pres = from_monoid_presentation(coxeter(4)) if name == "coxeter4" else _bundled(family, name)
    return [(pres, OrderSpec.from_presentation(pres))]


@pytest.mark.parametrize("family,name", BUNDLED + [("monoid", "coxeter4")]
                         + [("random", f"seed{seed}") for seed in (1, 2, 3)])
def test_every_catalogue_partitions_by_target(family, name):
    for pres, order in _catalogued(family, name):
        result = complete(initial_rules(pres, order), order, **LIMITS)
        # a few random draws outgrow the corpus's completion limits
        assert result.complete or family == "random"
        if result.complete:
            for limit in (DEFAULT_LIMIT, 1, 7):
                check_partition(pres, result.system, limit, order)


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
