"""The contract of the fifteen record classes: each one's ``repr``, its
equality and hash, immutability, construction by keyword and by
default, and its cached properties.  The expected values were recorded
from the records as first written, so that a change of how the records
are built shows here."""

import pytest

from kanbex import (
    ActionDesc,
    Arrow,
    CompletionResult,
    CompletionStatus,
    CosetSystemDesc,
    CriticalPair,
    EnumerationStatus,
    EpsRule,
    KanPresentation,
    KanTables,
    KRule,
    MonoidPresentationDesc,
    OrderSpec,
    Path,
    RewriteSystem,
    Term,
    ValidationReport,
)

A = Arrow("a", 1, 1)
AA = Path(1, (A, A))
XA, Y = Term("x", Path(1, (A,))), Term("y", Path(1))
EPS, KR = EpsRule(XA, Y), KRule(AA, Path(1))
SYSTEM = RewriteSystem((EPS,), (KR,))
MONOID = MonoidPresentationDesc(("a",), ((("a", "a"), ()),))

# per class: the field values of a sample, in field order, and its repr
SAMPLES = {
    Arrow: (("a", 1, 2), "Arrow(label='a', src=1, tgt=2)"),
    Path: ((1, (A,)), "Path(source=1, arrows=(Arrow(label='a', src=1, tgt=1),))"),
    Term: (("x", Path(1)), "Term(tag='x', path=Path(source=1, arrows=()))"),
    KanPresentation: (
        ((1,), ((1, 1),), (1,), (A,), ((AA, Path(1)),), (1,), (Path(1, (A,)),),
         (("x", "y"),), (("y", "x"),)),
        "KanPresentation(ob_a=(1,), arr_a=((1, 1),), ob_b=(1,), "
        "arr_b=(Arrow(label='a', src=1, tgt=1),), "
        "rel_b=((Path(source=1, arrows=(Arrow(label='a', src=1, tgt=1), "
        "Arrow(label='a', src=1, tgt=1))), Path(source=1, arrows=())),), f_ob_a=(1,), "
        "f_arr_a=(Path(source=1, arrows=(Arrow(label='a', src=1, tgt=1),)),), "
        "x_ob_a=(('x', 'y'),), x_arr_a=(('y', 'x'),))"),
    ValidationReport: ((("ObA: duplicate object ids",),),
                       "ValidationReport(violations=('ObA: duplicate object ids',))"),
    OrderSpec: (({"x": 0, "y": 1}, {"a": 0}),
                "OrderSpec(x_rank={'x': 0, 'y': 1}, delta_rank={'a': 0})"),
    EpsRule: ((XA, Y),
              "EpsRule(lhs=Term(tag='x', path=Path(source=1, arrows=(Arrow(label='a', src=1, "
              "tgt=1),))), rhs=Term(tag='y', path=Path(source=1, arrows=())))"),
    KRule: ((AA, Path(1)),
            "KRule(lhs=Path(source=1, arrows=(Arrow(label='a', src=1, tgt=1), "
            "Arrow(label='a', src=1, tgt=1))), rhs=Path(source=1, arrows=()))"),
    RewriteSystem: (((EPS,), (KR,)),
                    "RewriteSystem(term_rules=(EpsRule(lhs=Term(tag='x', path=Path(source=1, "
                    "arrows=(Arrow(label='a', src=1, tgt=1),))), rhs=Term(tag='y', "
                    "path=Path(source=1, arrows=()))),), path_rules=(KRule(lhs=Path(source=1, "
                    "arrows=(Arrow(label='a', src=1, tgt=1), Arrow(label='a', src=1, tgt=1))), "
                    "rhs=Path(source=1, arrows=())),))"),
    CompletionResult: (
        (CompletionStatus.LIMIT_EXCEEDED, "rule limit 1 exceeded", RewriteSystem(), 3, 2),
        "CompletionResult(status=<CompletionStatus.LIMIT_EXCEEDED: 'limit_exceeded'>, "
        "reason='rule limit 1 exceeded', system=RewriteSystem(term_rules=(), path_rules=()), "
        "passes=3, rules_added=2)"),
    CriticalPair: ((Y, Term("y", Path(1, (A,))), "iv", (0, 1)),
                   "CriticalPair(left=Term(tag='y', path=Path(source=1, arrows=())), "
                   "right=Term(tag='y', path=Path(source=1, arrows=(Arrow(label='a', src=1, "
                   "tgt=1),))), case='iv', rules=(0, 1))"),
    KanTables: ((EnumerationStatus.FINITE, (1,), (-1, -1, 0), ("x", "y", A), (1, 1, 1)),
                "KanTables(status=<EnumerationStatus.FINITE: 'Finite'>, objects=(1,), "
                "parents=(-1, -1, 0), steps=('x', 'y', Arrow(label='a', src=1, tgt=1)), "
                "targets=(1, 1, 1))"),
    MonoidPresentationDesc: ((("a",), ((("a", "a"), ()),)),
                             "MonoidPresentationDesc(generators=('a',), "
                             "relations=((('a', 'a'), ()),))"),
    CosetSystemDesc: ((("a",), ((("a", "a"), ()),), (("a",),), "left"),
                      "CosetSystemDesc(group_generators=('a',), "
                      "group_relations=((('a', 'a'), ()),), subgroup_words=(('a',),), "
                      "side='left')"),
    ActionDesc: ((MONOID, ("p", "q"), {"a": ("q", "p")}),
                 "ActionDesc(monoid=MonoidPresentationDesc(generators=('a',), "
                 "relations=((('a', 'a'), ()),)), points=('p', 'q'), "
                 "action={'a': ('q', 'p')})"),
}

FIELDS = {
    Arrow: ("label", "src", "tgt"),
    Path: ("source", "arrows"),
    Term: ("tag", "path"),
    KanPresentation: ("ob_a", "arr_a", "ob_b", "arr_b", "rel_b", "f_ob_a", "f_arr_a",
                      "x_ob_a", "x_arr_a"),
    ValidationReport: ("violations",),
    OrderSpec: ("x_rank", "delta_rank"),
    EpsRule: ("lhs", "rhs"),
    KRule: ("lhs", "rhs"),
    RewriteSystem: ("term_rules", "path_rules"),
    CompletionResult: ("status", "reason", "system", "passes", "rules_added"),
    CriticalPair: ("left", "right", "case", "rules"),
    KanTables: ("status", "objects", "parents", "steps", "targets"),
    MonoidPresentationDesc: ("generators", "relations"),
    CosetSystemDesc: ("group_generators", "group_relations", "subgroup_words", "side"),
    ActionDesc: ("monoid", "points", "action"),
}

# the classes that compare by identity
IDENTITY = (OrderSpec, ActionDesc)

CACHED = {
    KanPresentation: ("arrow_by_label", "delta_labels", "x_labels", "x_owner_index",
                      "ob_a_index"),
    RewriteSystem: ("_index", "confluent"),
    KanTables: ("elements",),
}

CLASSES = list(SAMPLES)


def sample(cls):
    return cls(*SAMPLES[cls][0])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_record_contract(cls):
    values, text = SAMPLES[cls]
    names = FIELDS[cls]
    record, twin = cls(*values), cls(*values)
    assert repr(record) == text
    assert cls.__match_args__ == names
    assert tuple(getattr(record, name) for name in names) == values

    # equal fields: equal records with equal hashes, unless compared by identity
    assert record == record and not record != record
    if cls in IDENTITY:
        assert record != twin and hash(record) != hash(twin)
        assert hash(record) == object.__hash__(record)
    else:
        assert record == twin and hash(record) == hash(twin) == hash(values)
    # never equal to a record of another class, nor to the tuple of its fields
    assert all(record != sample(other) for other in CLASSES if other is not cls)
    assert record != values

    # immutable: no field, nor any other attribute, is assigned or deleted
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values

    # by keyword, the same record
    by_keyword = cls(**dict(zip(names, values)))
    assert repr(by_keyword) == text
    assert (by_keyword != record) if cls in IDENTITY else (by_keyword == record)
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[:-1], **{names[-1]: values[-1], "extra": None})
    with pytest.raises(TypeError):
        cls(values[0], **{names[0]: values[0]}, **dict(zip(names[1:], values[1:])))

    # each cached property is built once
    for name in CACHED.get(cls, ()):
        assert getattr(record, name) is getattr(record, name)


def test_records_of_two_classes_with_the_same_fields_differ():
    assert EpsRule(XA, Y) != KRule(XA, Y)
    assert KRule(AA, Path(1)) != EpsRule(AA, Path(1))


def test_defaults_and_missing_fields():
    assert Path(1) == Path(1, ()) == Path(source=1)
    assert Path(1).arrows == ()
    assert RewriteSystem() == RewriteSystem((), ()) and len(RewriteSystem()) == 0
    assert MonoidPresentationDesc(("a",)).relations == ()
    assert CosetSystemDesc(("a",), (), ()).side == "right"
    assert CosetSystemDesc(group_generators=("a",), group_relations=(),
                           subgroup_words=()).side == "right"
    with pytest.raises(TypeError):
        Path()
    with pytest.raises(TypeError):
        Arrow("a", 1)
    with pytest.raises(TypeError):
        CosetSystemDesc(("a",), ())


def test_cached_properties_read_the_fields():
    pres = sample(KanPresentation)
    assert pres.arrow_by_label == {"a": A}
    assert pres.x_owner_index == {"x": 0, "y": 0}
    # x|aa reduces to y|a and to x, both irreducible
    assert SYSTEM.confluent is False
    tables = sample(KanTables)
    assert tables.elements == {1: (Term("x", Path(1)), Term("y", Path(1)),
                                   Term("x", Path(1, (A,))))}
