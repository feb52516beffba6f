import json
import random

import pytest

from kanbex import (
    DEFAULT_LIMIT,
    Arrow,
    CompositionError,
    EnumerationStatus,
    KanPresentation,
    MonoidPresentationDesc,
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
    presentation_to_json,
    reduce_term,
    term_as_list,
)
from kanbex.cli import _rules_json, main

from .conftest import build_demo_presentation, coxeter
from .oracles import all_terms, closure_partition, one_step_all
from .test_bench_hooks import _bundled, _enumerate_stepping
from .test_cli import BUNDLED
from .test_random_completion import LIMITS, _draws, _order

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
    are the presentation's objects; they are built once, and the name
    chunks of each object, joined, are its terms' ``format_term`` text."""
    tables = enumerate_extension(pres, system, limit=limit, order=order)
    assert tables.elements is tables.elements
    assert sum(len(v) for v in tables.elements.values()) == tables.total
    assert list(tables.elements) == list(pres.ob_b)
    chunks = {obj: [] for obj in pres.ob_b}
    for obj, chunk in tables.name_chunks():
        chunks[obj].append(chunk)
    for obj, nfs in tables.elements.items():
        assert ", ".join(chunks[obj]) == ", ".join(format_term(nf) for nf in nfs)
        for nf in nfs:
            assert nf.target == obj
            assert reduce_term(nf, system) == nf


def test_enumeration_partitions_by_target(demo_pres, demo_complete):
    check_partition(demo_pres, demo_complete, 60)


def _escaped():
    """Coxeter S4 with labels that JSON escapes: a quote, a backslash and
    non-ASCII letters."""
    desc = coxeter(4)
    label = dict(zip(desc.generators, ('a"', "b\\", "ç")))
    return from_monoid_presentation(MonoidPresentationDesc(tuple(label.values()), tuple(
        (tuple(label[g] for g in l), tuple(label[g] for g in r)) for l, r in desc.relations)),
        point="é")


def _first_object_empty():
    """The element ``x`` over object 2 and the involution ``b`` on it;
    nothing reaches object 1, which comes first."""
    b = Arrow("b", 2, 2)
    return KanPresentation(ob_a=(1,), arr_a=(), ob_b=(1, 2), arr_b=(b,),
                           rel_b=((Path(2, (b, b)), Path(2, ())),), f_ob_a=(2,), f_arr_a=(),
                           x_ob_a=(("x",),), x_arr_a=())


MADE = {"coxeter4": lambda: from_monoid_presentation(coxeter(4)), "escaped": _escaped,
        "first_object_empty": _first_object_empty}


def _catalogued(family, name, shuffled=False):
    """Each presentation of a problem, with the order it is completed
    under, declared or shuffled: a bundled problem, one made here, or the
    draws of one seed of the random corpus."""
    if family == "random":
        return [(pres, order) for _, pres, order in _draws(int(name[-1]), shuffled)]
    pres = MADE[name]() if name in MADE else _bundled(family, name)
    return [(pres, _order(pres, random.Random(name) if shuffled else None))]


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


# the problems with a finite catalogue; the two infinite bundled ones
# print their rules instead of a text catalogue, so they run in JSON only
FINITE = ([(f, n) for f, n in BUNDLED if not n.startswith("infinite")]
          + [("random", f"seed{seed}") for seed in (1, 2, 3)]
          + [("made", "escaped"), ("made", "first_object_empty")])
INFINITE = [(f, n) for f, n in BUNDLED if n.startswith("infinite")]


@pytest.mark.parametrize("shuffled", [False, True], ids=["declared", "shuffled"])
@pytest.mark.parametrize("fmt,family,name", [
    pytest.param(fmt, f, n, id=f"{f}-{n}" if fmt == "text" else f"json-{f}-{n}")
    for fmt, problems in (("text", FINITE), ("json", FINITE + INFINITE)) for f, n in problems])
def test_every_catalogue_line_joins_its_terms_names(capsys, tmp_path, monkeypatch, fmt, family,
                                                    name, shuffled):
    """A CLI catalogue equals one built from ``elements``, which shares no
    code with the streamed writer.  Each ``KB<obj>:`` line of a finite
    text catalogue is its object's terms' ``format_term`` text, and an
    object with no forms prints ``KB<obj>: ``.  The JSON of a finite
    catalogue, and of an infinite problem's at limits 1 and 7, which
    lists its elements as far as they go, is what ``json.dumps(...,
    indent=2)`` makes of the terms' ``term_as_list`` lists."""
    monkeypatch.delenv("KANBEX_LIMIT", raising=False)
    f = tmp_path / "p.json"
    limits = (1, 7) if (family, name) in INFINITE else (DEFAULT_LIMIT,)
    written = empty = exceeded = 0
    for pres, order in _catalogued(family, name, shuffled):
        result = complete(initial_rules(pres, order), order, **LIMITS)
        if not result.complete:
            continue
        f.write_text(json.dumps(presentation_to_json(pres)))
        xs, deltas = (",".join(sorted(rank, key=rank.get)) for rank in (order.x_rank, order.delta_rank))
        for limit in limits:
            tables = enumerate_extension(pres, result.system, limit=limit, order=order)
            if not tables.finite and (family, name) not in INFINITE:
                continue
            assert main(["enumerate", "--format", fmt, "--limit", str(limit), "--xorder", xs,
                         "--deltaorder", deltas, str(f)]) == (0 if tables.finite else 2)
            out = capsys.readouterr().out
            if fmt == "text":
                lines = [f"KB{obj}: " + ", ".join(format_term(t) for t in tables.elements[obj])
                         for obj in pres.ob_b]
                assert out.splitlines() == lines + [f"total={tables.total} status=Finite"]
            else:
                reference = {"status": tables.status.value, "total": tables.total,
                             "elements": {str(obj): [term_as_list(t) for t in ts]
                                          for obj, ts in tables.elements.items()},
                             **_rules_json(result.system)}
                assert out == json.dumps(reference, indent=2) + "\n"
            written += 1
            empty += sum(not tables.elements[obj] for obj in pres.ob_b)
            exceeded += not tables.finite
    assert written == len(limits) or family == "random" and written
    assert (family, name) not in INFINITE or exceeded == len(limits)
    assert empty or family != "random"
    assert name != "first_object_empty" or not tables.elements[pres.ob_b[0]]


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


@pytest.mark.parametrize("family,name", [("category", "s3_cayley_groupoid.json"),
                                         ("category", "infinite_category.json"),
                                         (None, "infinite_extension.json")])
def test_catalogue_is_the_brute_force_irreducible_set(family, name):
    """On problems with several objects where one rule index state is
    reached over arrows into different objects, so that the enumeration
    automaton must tell its states apart by object too, the forms of every
    whole stage are exactly the terms of that length that no rule
    rewrites anywhere."""
    pres = _bundled(family, name)
    order = OrderSpec.from_presentation(pres)
    system = complete(initial_rules(pres, order), order).system
    tables, calls = _enumerate_stepping(pres, system)
    reached: dict[int, set] = {}
    for obj, node in calls:
        if node is not None:
            reached.setdefault(id(node), set()).add(obj)
    assert any(len(objects) > 1 for objects in reached.values())
    forms = {nf for nfs in tables.elements.values() for nf in nfs}
    longest = max(len(nf.path) for nf in forms)
    # a finite catalogue has no form one arrow longer; a cut one may be
    # missing forms of its last stage
    n = longest + 1 if tables.finite else min(longest - 1, 10)
    brute = {t for t in all_terms(pres, n + 1) if not one_step_all(t, system)}
    assert {nf for nf in forms if len(nf.path) <= n} == brute


def test_tau_bar_examples(demo_complete):
    assert Term("x1", P("b5", "b3")).target == 1
    assert Term("x1", Path.identity(1)).target == 1
    assert Term("y1", P("b2")).target == 3


def test_act_examples(demo_pres, demo_complete):
    n = Term("x1", P("b5", "b3", "b4", "b4", "b5"))
    moved = act(n, P("b3"), demo_complete)
    assert format_term(moved) == "x1*b5*b3*b4*b4*b5*b3"
    assert moved.target == 1

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


def test_naturality_fails_without_the_rules(demo_pres):
    # with no rules, x|F(a) is not reduced to x.a|id
    assert not naturality_check(demo_pres, RewriteSystem())


def test_naturality_vacuous_without_arrows():
    from kanbex import KanPresentation

    pres = KanPresentation((1,), (), (1,), (), (), (1,), (), (("e",),), ())
    assert naturality_check(pres, RewriteSystem())


def test_action_well_defined_on_parallel_relation_paths(demo_pres, demo_complete):
    # b1b2b3 and b4 are identified; acting by either gives the same element
    tables = enumerate_extension(demo_pres, demo_complete, limit=40)
    p, q = P("b1", "b2", "b3"), P("b4")
    assert reduce_term(p, demo_complete) == reduce_term(q, demo_complete)
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
