"""Pin the critical pairs and the completion trace, not only the outputs.

For every bundled problem, S5, Coxeter S6, the von Dyck group at a pass
budget and a hand-built multi-object system, ``completion_trace.json``
holds sha256 digests of:

* the ordered ``find_critical_pairs`` list of the initial and of the raw
  completed system, each pair as ``(case, rules, left, right)`` with the
  source of every side, so the emission order and the source of an
  identity path are both pinned;
* each ``complete`` result: status, passes, rules added, and the raw and
  interreduced rules in system order.

The hand-built system's pairs are spelt out in full.  Nothing rewrites
the JSON file: a change meant to alter a pair or a completion must
record new digests by hand and say why.
"""

import hashlib
import json
import pathlib

import pytest

from kanbex import (
    Arrow,
    EpsRule,
    KRule,
    MonoidPresentationDesc,
    OrderSpec,
    Path,
    RewriteSystem,
    Term,
    complete,
    find_critical_pairs,
    from_monoid_presentation,
    initial_rules,
    interreduce,
    load_presentation,
)
from kanbex.encodings import encode_from_json

from .conftest import DATA, VON_DYCK, coxeter
from .test_cli import BUNDLED

TRACE = json.loads((pathlib.Path(__file__).parent / "completion_trace.json").read_text())

S5 = MonoidPresentationDesc(
    VON_DYCK.generators, VON_DYCK.relations + ((("a", "B", "a", "b") * 3, ()),))


def _side(x) -> str:
    """A pair side or rule side with its source: ``tag|source:labels``
    for a term, ``source:labels`` for a path."""
    if isinstance(x, Term):
        return f"{x.tag}|{_side(x.path)}"
    return f"{x.source}:" + "*".join(x.labels)


def pair_lines(system: RewriteSystem) -> list[str]:
    return [f"{cp.case} {cp.rules[0]},{cp.rules[1]} {_side(cp.left)} = {_side(cp.right)}"
            for cp in find_critical_pairs(system)]


def _rule_lines(system: RewriteSystem) -> list[str]:
    return [f"{_side(r.lhs)} -> {_side(r.rhs)}" for r in system.rules]


def _digest(lines: list[str]) -> dict:
    return {"count": len(lines),
            "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest()}


def trace(system: RewriteSystem, order: OrderSpec, **limits) -> dict:
    raw = complete(system, order, interreduce_after=False, **limits)
    out = {
        "pairs_initial": _digest(pair_lines(system)),
        "pairs_raw": _digest(pair_lines(raw.system)),
        "status": raw.status.value,
        "passes": raw.passes,
        "rules_added": raw.rules_added,
        "raw": _digest(_rule_lines(raw.system)),
    }
    if raw.complete:
        out["interreduced"] = _digest(_rule_lines(interreduce(raw.system, order)))
    return out


# objects 1, 2, 3; the elements x, y, w, z sit over 1, 2, 2, 3
_A, _B = Arrow("a", 1, 2), Arrow("b", 2, 1)
_C, _D = Arrow("c", 2, 3), Arrow("d", 3, 2)
MULTI_ORDER = OrderSpec(x_rank={"w": 0, "z": 1, "y": 2, "x": 3},
                        delta_rank={"a": 0, "b": 1, "c": 2, "d": 3})


def _p(source, *arrows):
    return Path(source, arrows)


def multi_object_system() -> RewriteSystem:
    """Rules over three objects, several with identity right-hand sides,
    so pairs of every case compose with identity paths at different
    objects."""
    return RewriteSystem(
        (
            EpsRule(Term("x", _p(1, _A, _C)), Term("z", _p(3))),
            EpsRule(Term("x", _p(1, _A)), Term("y", _p(2))),
            EpsRule(Term("y", _p(2, _C)), Term("z", _p(3))),
            EpsRule(Term("y", _p(2)), Term("w", _p(2))),
            EpsRule(Term("y", _p(2, _B, _A)), Term("y", _p(2))),
        ),
        (
            KRule(_p(1, _A, _B), _p(1)),
            KRule(_p(2, _B, _A), _p(2)),
            KRule(_p(2, _C, _D), _p(2)),
            KRule(_p(2, _B, _A, _B), _p(2, _B)),
        ),
    )


# the hand-built system's pairs in emission order: host rule first, then
# per other rule containments by position and end overlaps by length
MULTI_PAIRS = TRACE["multi_object"]["pair_lines"]


def _problems():
    for family, name in BUNDLED:
        if family is None:
            pres = load_presentation(str(DATA / name))
        else:
            pres = encode_from_json(family, json.loads((DATA / name).read_text()))
        yield name, pres, {}
    yield "s5", from_monoid_presentation(S5), {}
    yield "coxeter6", from_monoid_presentation(coxeter(6)), {}
    yield "vondyck_6_passes", from_monoid_presentation(VON_DYCK), {"max_passes": 6}
    yield "vondyck_9_passes", from_monoid_presentation(VON_DYCK), {"max_passes": 9}


@pytest.mark.parametrize("name,pres,limits",
                         [pytest.param(*p, id=p[0]) for p in _problems()])
def test_pairs_and_completion_match_the_recorded_trace(name, pres, limits):
    order = OrderSpec.from_presentation(pres)
    assert trace(initial_rules(pres, order), order, **limits) == TRACE[name]


def test_multi_object_pairs_keep_identity_sources():
    system = multi_object_system()
    assert pair_lines(system) == MULTI_PAIRS
    # every case shows up, "i" and "iii" with an identity right-hand side
    assert {line.split()[0] for line in MULTI_PAIRS} == {"i", "ii", "iii", "iv", "v"}
    entry = dict(TRACE["multi_object"])
    del entry["pair_lines"]
    assert trace(system, MULTI_ORDER) == entry
