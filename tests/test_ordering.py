import pytest
from hypothesis import given
from hypothesis import strategies as st

from kanbex import (
    OrderSpec,
    Path,
    Term,
    compose_paths,
    orient_pair,
    path_sort_key,
    term_sort_key,
)

from .conftest import build_demo_presentation, compare

PRES = build_demo_presentation()
ORDER = OrderSpec.from_presentation(PRES)
B = PRES.arrow_by_label


def P(*labels):
    if not labels:
        raise ValueError("use Path.identity")
    arrows = tuple(B[l] for l in labels)
    return Path(arrows[0].src, arrows)


def test_longer_path_is_greater():
    assert compare(P("b1", "b2", "b3"), P("b4"), ORDER) == 1
    assert path_sort_key(P("b1", "b2", "b3"), ORDER) > path_sort_key(P("b4"), ORDER)


def test_path_reflexive_equal():
    p = P("b1", "b2")
    assert compare(p, p, ORDER) == 0
    assert orient_pair(p, p, ORDER) is None


def test_identity_paths_at_different_objects_are_equal():
    assert compare(Path.identity(1), Path.identity(2), ORDER) == 0


def test_equal_length_paths_compare_lexicographically():
    assert compare(P("b2"), P("b1"), ORDER) == 1
    assert compare(P("b1"), P("b2"), ORDER) == -1
    assert compare(P("b1", "b2", "b3"), P("b5", "b3", "b4"), ORDER) == -1
    # a tie at the first letter falls through to the next
    assert compare(P("b4", "b1"), P("b4", "b4"), ORDER) == -1


def test_longer_term_is_greater():
    t1 = Term("x1", P("b1"))
    t2 = Term("y1", Path.identity(2))
    assert compare(t1, t2, ORDER) == 1
    assert term_sort_key(t1, ORDER) > term_sort_key(t2, ORDER)


def test_term_reflexive_equal():
    t = Term("x1", Path.identity(1))
    assert compare(t, t, ORDER) == 0


def test_equal_length_terms_compare_by_tag():
    t1 = Term("x3", P("b1"))
    t2 = Term("x1", P("b1"))
    assert compare(t1, t2, ORDER) == 1


def test_equal_tags_compare_positionwise():
    assert compare(Term("x1", P("b1", "b2")), Term("x1", P("b5", "b3")), ORDER) == -1


def test_orient_puts_greater_first():
    lesser = Term("y1", Path.identity(2))
    greater = Term("x1", P("b1"))
    assert orient_pair(lesser, greater, ORDER) == (greater, lesser)
    assert orient_pair(P("b4"), P("b1", "b2", "b3"), ORDER) == (P("b1", "b2", "b3"), P("b4"))


def test_orient_drops_equal_pairs():
    t = Term("x1", P("b5"))
    assert orient_pair(t, t, ORDER) is None


def test_orient_rejects_mixed_kinds():
    with pytest.raises(TypeError):
        orient_pair(Term("x1", Path.identity(1)), Path.identity(1), ORDER)
    with pytest.raises(TypeError):
        orient_pair(Path.identity(1), Term("x1", Path.identity(1)), ORDER)


def test_order_overrides_must_be_permutations():
    with pytest.raises(ValueError):
        OrderSpec.from_presentation(PRES, delta_order=["b1", "b2"])
    custom = OrderSpec.from_presentation(PRES, delta_order=["b5", "b4", "b3", "b2", "b1"])
    assert compare(P("b1"), P("b5"), custom) == 1
    assert orient_pair(P("b5"), P("b1"), custom) == (P("b1"), P("b5"))
    xs = OrderSpec.from_presentation(PRES, x_order=["y2", "y1", "x3", "x2", "x1"])
    assert compare(Term("x1", P("b1")), Term("x3", P("b1")), xs) == 1


# --- property tests ---

def _walk(source, choices):
    by_src = {}
    for a in PRES.arr_b:
        by_src.setdefault(a.src, []).append(a)
    path = Path(source)
    for c in choices:
        options = by_src.get(path.target, [])
        if not options:
            break
        path = Path(path.source, path.arrows + (options[c % len(options)],))
    return path


choices = st.lists(st.integers(0, 4), max_size=6)
tags = st.sampled_from(["x1", "x2", "x3", "y1", "y2"])


def terms(draw_tag, draw_choices):
    return Term(draw_tag, _walk(PRES.tag_source(draw_tag), draw_choices))


@given(tag1=tags, c1=choices, tag2=tags, c2=choices)
def test_totality_and_antisymmetry(tag1, c1, tag2, c2):
    t1, t2 = terms(tag1, c1), terms(tag2, c2)
    c12 = compare(t1, t2, ORDER)
    c21 = compare(t2, t1, ORDER)
    if t1 == t2:
        assert c12 == 0 and c21 == 0
    else:
        assert c12 != 0
        assert c21 == -c12


@given(tag1=tags, c1=choices, tag2=tags, c2=choices, ext=choices)
def test_right_action_admissibility(tag1, c1, tag2, c2, ext):
    t1, t2 = terms(tag1, c1), terms(tag2, c2)
    if t1.target != t2.target:
        return
    q = _walk(t1.target, ext)
    c_before = compare(t1, t2, ORDER)
    c_after = compare(t1.act(q), t2.act(q), ORDER)
    assert c_after == c_before


@given(start=st.sampled_from([1, 2, 3]), c1=choices, c2=choices, u=choices, v=choices)
def test_path_admissibility_under_context(start, c1, c2, u, v):
    p = _walk(start, c1)
    q = _walk(start, c2)
    if p.target != q.target:
        return
    left = _walk(1, u)
    if left.target != start:
        return
    right = _walk(p.target, v)
    c = compare(p, q, ORDER)
    wrapped = compare(
        compose_paths(compose_paths(left, p), right),
        compose_paths(compose_paths(left, q), right),
        ORDER,
    )
    assert wrapped == c


@given(tag=tags, c1=choices, c2=choices)
def test_path_comparison_transfers_to_terms(tag, c1, c2):
    src = PRES.tag_source(tag)
    p1, p2 = _walk(src, c1), _walk(src, c2)
    s = Term(tag, Path.identity(src))
    c = compare(p1, p2, ORDER)
    if c == 0:
        return
    assert compare(s.act(p1), s.act(p2), ORDER) == c


def test_descending_chains_are_bounded():
    # exhaustive on a small universe: distinct terms have distinct sort
    # keys, so the order is a strict total order, and any strictly
    # descending chain from a term of length n visits distinct terms of
    # length <= n and is bounded by their number
    import itertools

    from .oracles import all_terms

    universe = all_terms(PRES, 3)
    assert len(universe) == len(set(universe))
    assert len({term_sort_key(t, ORDER) for t in universe}) == len(universe)
    for a, b in itertools.combinations(universe, 2):
        assert compare(a, b, ORDER) != 0
    # length never increases along a descending step
    start = Term("x1", P("b1", "b2"))
    smaller = [t for t in universe if compare(start, t, ORDER) == 1]
    assert all(len(t) <= len(start) for t in smaller)
    assert len(smaller) < len(universe)
