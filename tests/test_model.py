import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kanbex import (
    Arrow,
    CompositionError,
    KanPresentation,
    Path,
    PresentationError,
    Term,
    compose_paths,
    format_path,
    format_term,
    list_as_term,
    parse_presentation,
    presentation_from_json,
    presentation_to_json,
    term_as_list,
    validate_presentation,
)

from .conftest import build_demo_presentation


def test_demo_presentation_validates(demo_pres):
    assert validate_presentation(demo_pres).ok


def test_empty_presentation_validates():
    empty = KanPresentation((), (), (), (), (), (), (), (), ())
    assert validate_presentation(empty).ok


def test_wrong_functor_image_is_reported(demo_pres):
    b2 = demo_pres.arrow_by_label["b2"]
    bad = KanPresentation(
        ob_a=demo_pres.ob_a,
        arr_a=demo_pres.arr_a,
        ob_b=demo_pres.ob_b,
        arr_b=demo_pres.arr_b,
        rel_b=demo_pres.rel_b,
        f_ob_a=demo_pres.f_ob_a,
        f_arr_a=(demo_pres.f_arr_a[0], Path(2, (b2,))),
        x_ob_a=demo_pres.x_ob_a,
        x_arr_a=demo_pres.x_arr_a,
    )
    report = validate_presentation(bad)
    assert not report.ok
    assert any("FArrA[2]" in v for v in report.violations)


def test_label_collision_is_reported(demo_pres):
    bad = KanPresentation(
        ob_a=demo_pres.ob_a,
        arr_a=demo_pres.arr_a,
        ob_b=demo_pres.ob_b,
        arr_b=demo_pres.arr_b,
        rel_b=demo_pres.rel_b,
        f_ob_a=demo_pres.f_ob_a,
        f_arr_a=demo_pres.f_arr_a,
        x_ob_a=(("x1", "b1", "x3"), ("y1", "y2")),
        x_arr_a=demo_pres.x_arr_a,
    )
    report = validate_presentation(bad)
    assert any("collides" in v for v in report.violations)


def test_wrong_image_set_size_is_reported(demo_pres):
    bad = KanPresentation(
        ob_a=demo_pres.ob_a,
        arr_a=demo_pres.arr_a,
        ob_b=demo_pres.ob_b,
        arr_b=demo_pres.arr_b,
        rel_b=demo_pres.rel_b,
        f_ob_a=demo_pres.f_ob_a,
        f_arr_a=demo_pres.f_arr_a,
        x_ob_a=demo_pres.x_ob_a,
        x_arr_a=(("y1", "y2"), ("x1", "x2")),
    )
    report = validate_presentation(bad)
    assert any(v.startswith("XArrA[1]") for v in report.violations)


def test_non_string_labels_are_reported(demo_pres):
    # a first letter that is not a str would read as an arrow code in the
    # rule core, so validation is where such a tag has to stop
    for tag in (1, 2.0, ["x1"]):
        bad = dataclasses.replace(demo_pres, x_ob_a=((tag, "x2", "x3"), ("y1", "y2")))
        assert f"XObA[1]: element label {tag!r} is not a string" in \
            validate_presentation(bad).violations
    bad = dataclasses.replace(demo_pres, x_arr_a=((1, "y2", "y1"), ("x1", "x2")))
    assert "XArrA[1][1]: image 1 is not an element at the target object" in \
        validate_presentation(bad).violations
    bad = dataclasses.replace(demo_pres, arr_b=(Arrow(7, 1, 2), *demo_pres.arr_b[1:]))
    assert "ArrB[1]: label 7 is not a string" in validate_presentation(bad).violations


def test_hand_built_paths_are_checked(demo_pres):
    # the JSON reader composes paths as it reads them, so only a path
    # built by hand can break composition or misstate its source
    b = demo_pres.arrow_by_label
    b1, b4 = b["b1"], b["b4"]
    bad = dataclasses.replace(demo_pres, rel_b=((Path(1, (b1, b1)), Path(1, (b4,))),))
    assert "RelB[1].lhs: arrows do not compose at 'b1'" in validate_presentation(bad).violations
    bad = dataclasses.replace(demo_pres, rel_b=((Path(2, (b4,)), Path(1, (b4,))),))
    assert "RelB[1].lhs: recorded source 2 disagrees with first arrow" in \
        validate_presentation(bad).violations


# --- composition ---

def test_compose_simple(demo_pres):
    b = demo_pres.arrow_by_label
    p = Path(1, (b["b1"],))
    q = Path(2, (b["b2"], b["b3"]))
    assert compose_paths(p, q).labels == ("b1", "b2", "b3")


def test_compose_identity_unit(demo_pres):
    b = demo_pres.arrow_by_label
    p = Path(1, (b["b1"],))
    assert compose_paths(Path.identity(1), p) == p
    assert compose_paths(p, Path.identity(2)) == p


def test_compose_checks_endpoints(demo_pres):
    b = demo_pres.arrow_by_label
    p = Path(1, (b["b5"], b["b3"]))  # ends at 1
    q = Path(1, (b["b4"],))
    assert compose_paths(p, q).labels == ("b5", "b3", "b4")
    with pytest.raises(CompositionError):
        compose_paths(Path(1, (b["b1"],)), q)


# --- list representation ---

def test_term_list_round_trip(demo_pres):
    b = demo_pres.arrow_by_label
    t = Term("x1", Path(1, (b["b1"],)))
    assert term_as_list(t) == ["x1", "b1"]
    assert list_as_term(["x1", "b1"], demo_pres) == t


def test_identity_term_is_bare_tag(demo_pres):
    t = list_as_term(["y1"], demo_pres)
    assert t == Term("y1", Path.identity(2))
    assert term_as_list(t) == ["y1"]
    assert len(t) == 1
    assert format_term(t) == "y1"


def test_list_as_term_checks_composability(demo_pres):
    t = list_as_term(["x1", "b5", "b3"], demo_pres)
    assert t.target == 1
    with pytest.raises(CompositionError):
        list_as_term(["x1", "b2"], demo_pres)  # b2 starts at 2, not F(A1)=1
    with pytest.raises(PresentationError):
        list_as_term(["zz", "b1"], demo_pres)
    with pytest.raises(PresentationError):
        list_as_term(["x1", "zz"], demo_pres)


def test_list_as_term_needs_a_tag(demo_pres):
    with pytest.raises(PresentationError, match="^term list is empty$"):
        list_as_term([], demo_pres)


def test_path_length_counts_arrows(demo_pres):
    b = demo_pres.arrow_by_label
    assert len(Path.identity(1)) == 0
    assert len(Path(1, (b["b5"], b["b3"]))) == 2


def test_format_path(demo_pres):
    b = demo_pres.arrow_by_label
    assert format_path(Path.identity(1)) == "IdWord"
    assert format_path(Path(1, (b["b1"], b["b2"]))) == "b1*b2"


# --- properties ---

paths_strategy = st.lists(st.integers(0, 4), max_size=6)


def _walk(pres, source, choices):
    by_src = {}
    for a in pres.arr_b:
        by_src.setdefault(a.src, []).append(a)
    path = Path(source)
    for c in choices:
        options = by_src.get(path.target, [])
        if not options:
            break
        path = Path(path.source, path.arrows + (options[c % len(options)],))
    return path


@given(start=st.sampled_from([1, 2, 3]), a=paths_strategy, b=paths_strategy, c=paths_strategy)
def test_compose_is_associative(start, a, b, c):
    pres = build_demo_presentation()
    p = _walk(pres, start, a)
    q = _walk(pres, p.target, b)
    r = _walk(pres, q.target, c)
    assert compose_paths(compose_paths(p, q), r) == compose_paths(p, compose_paths(q, r))


@given(tag=st.sampled_from(["x1", "x2", "x3", "y1", "y2"]), choices=paths_strategy)
def test_round_trip_and_target(tag, choices):
    pres = build_demo_presentation()
    t = Term(tag, _walk(pres, pres.tag_source(tag), choices))
    assert list_as_term(term_as_list(t), pres) == t
    if t.path.is_identity:
        assert t.target == t.path.source
    else:
        assert t.target == t.path.arrows[-1].tgt
    assert t.target in pres.ob_b


# --- JSON round trip ---

def test_json_round_trip(demo_pres, data_dir):
    text = (data_dir / "infinite_extension.json").read_text()
    pres = parse_presentation(text)
    assert pres == demo_pres
    again = presentation_from_json(presentation_to_json(pres))
    assert again == pres


def test_json_identity_paths_round_trip(demo_pres):
    doc = presentation_to_json(demo_pres)
    doc["RelB"].append([{"id": 1}, ["b4"]])  # identity against a loop: parallel
    pres = presentation_from_json(doc)
    assert pres.rel_b[-1][0] == Path.identity(1)
    assert validate_presentation(pres).ok
    # [] is the identity at the other side's source
    doc["RelB"][-1] = [[], ["b4"]]
    assert presentation_from_json(doc).rel_b == pres.rel_b
    doc["RelB"][-1] = [{"id": 1}, ["b1"]]  # identity against 1->2: not parallel
    report = validate_presentation(presentation_from_json(doc))
    assert any("parallel" in v for v in report.violations)
    # an FArrA entry [] is the identity at the image of the arrow's source
    doc = presentation_to_json(demo_pres)
    doc["FArrA"][1] = []
    empty = presentation_from_json(doc).f_arr_a
    doc["FArrA"][1] = {"id": 2}
    assert empty == presentation_from_json(doc).f_arr_a
    assert empty[1] == Path.identity(2)


def test_json_errors_name_the_field():
    with pytest.raises(PresentationError, match="ObA"):
        presentation_from_json({"ObA": "nope"})
    with pytest.raises(PresentationError, match="missing field"):
        presentation_from_json({"ObA": [1]})
    base = json.loads((json.dumps({
        "ObA": [1], "ArrA": [], "ObB": [1], "ArrB": [["g", 1, 1]],
        "RelB": [[["g"], ["zz"]]], "FObA": [1], "FArrA": [],
        "XObA": [["e"]], "XArrA": [],
    })))
    with pytest.raises(PresentationError, match="RelB"):
        presentation_from_json(base)
