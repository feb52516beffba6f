from __future__ import annotations

import pathlib

import pytest

from kanbex import (
    Arrow,
    KanPresentation,
    MonoidPresentationDesc,
    OrderSpec,
    Path,
    complete,
    initial_rules,
)
from kanbex.ordering import word_key
from kanbex.rewrite import _oriented, _RuleIndex

REPO = pathlib.Path(__file__).resolve().parent.parent
DATA = REPO / "data"


def build_demo_presentation() -> KanPresentation:
    """Two-object acting graph over a five-arrow extending graph with one
    relation; the running example with an infinite extension."""
    b1 = Arrow("b1", 1, 2)
    b2 = Arrow("b2", 2, 3)
    b3 = Arrow("b3", 3, 1)
    b4 = Arrow("b4", 1, 1)
    b5 = Arrow("b5", 1, 3)
    return KanPresentation(
        ob_a=(1, 2),
        arr_a=((1, 2), (2, 1)),
        ob_b=(1, 2, 3),
        arr_b=(b1, b2, b3, b4, b5),
        rel_b=((Path(1, (b1, b2, b3)), Path(1, (b4,))),),
        f_ob_a=(1, 2),
        f_arr_a=(Path(1, (b1,)), Path(2, (b2, b3))),
        x_ob_a=(("x1", "x2", "x3"), ("y1", "y2")),
        x_arr_a=(("y1", "y2", "y1"), ("x1", "x2")),
    )


def compare(a, b, order: OrderSpec, pres: KanPresentation) -> int:
    """Sign of ``a`` against ``b`` (1 greater, 0 equal, -1 less) under
    ``word_key``, on words coded by an index that interns ``pres``'s
    arrows in ``order``'s rank, after checking that ``_oriented`` orients
    the coded sides by that sign."""
    idx = _RuleIndex(order=order, arrows=pres.arr_b)
    ca, cb = idx.encode(a), idx.encode(b)
    ka, kb = word_key(ca[1], order.x_rank), word_key(cb[1], order.x_rank)
    sign = (ka > kb) - (ka < kb)
    assert _oriented(ca, cb, order.x_rank) == (None if sign == 0 else ca + cb if sign > 0 else cb + ca)
    return sign


# the infinite von Dyck group (2,5,4): completion never ends, so runs of
# it stop at a budget
VON_DYCK = MonoidPresentationDesc(("a", "b", "B"), (
    (("a", "a"), ()),
    (("b", "B"), ()),
    (("B", "b"), ()),
    (("b",) * 5, ()),
    (("a", "b") * 4, ()),
))


def coxeter(n: int) -> MonoidPresentationDesc:
    """The Coxeter presentation of S_n: generators s1..s(n-1), s_i^2 = 1,
    braids between neighbours and commutations between the others."""
    gens = tuple(f"s{i}" for i in range(1, n))
    rels = [((s, s), ()) for s in gens]
    rels += [((a, b, a), (b, a, b)) for a, b in zip(gens, gens[1:])]
    rels += [((gens[j], gens[i]), (gens[i], gens[j]))
             for i in range(len(gens)) for j in range(i + 2, len(gens))]
    return MonoidPresentationDesc(gens, tuple(rels))


@pytest.fixture(scope="session")
def demo_pres() -> KanPresentation:
    return build_demo_presentation()


@pytest.fixture(scope="session")
def demo_order(demo_pres) -> OrderSpec:
    return OrderSpec.from_presentation(demo_pres)


@pytest.fixture(scope="session")
def demo_initial(demo_pres, demo_order):
    return initial_rules(demo_pres, demo_order)


@pytest.fixture(scope="session")
def demo_complete(demo_initial, demo_order):
    result = complete(demo_initial, demo_order)
    assert result.complete
    return result.system


@pytest.fixture(scope="session")
def data_dir() -> pathlib.Path:
    return DATA
