from __future__ import annotations

import pathlib

import pytest

from kanbex import (
    Arrow,
    KanPresentation,
    MonoidPresentationDesc,
    OrderSpec,
    Path,
    Term,
    complete,
    initial_rules,
    orient_pair,
    path_sort_key,
    term_sort_key,
)

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


def compare(a, b, order: OrderSpec) -> int:
    """Sign of ``a`` against ``b`` (1 greater, 0 equal, -1 less) under the
    sort keys, after checking that ``orient_pair`` orients by that sign."""
    key = term_sort_key if isinstance(a, Term) else path_sort_key
    ka, kb = key(a, order), key(b, order)
    sign = (ka > kb) - (ka < kb)
    assert orient_pair(a, b, order) == (None if sign == 0 else (a, b) if sign > 0 else (b, a))
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
