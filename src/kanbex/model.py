"""Graphs, paths, presentations and tagged terms.

The engine's input is a nine-field record describing two finite directed
multigraphs, a set of path relations, and generator-level data for an
action and a functor.  Arrows of the second graph carry labels and
generate a free category; a *term* ``x|p`` pairs an element label ``x``
with a path ``p`` whose source is the functor image of the object that
owns ``x``.  Everything downstream (ordering, rewriting, enumeration)
consumes these types.

All types are immutable values; they hash and compare structurally and
are safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence


class PresentationError(ValueError):
    """Presentation data could not be parsed, resolved or validated."""


class CompositionError(ValueError):
    """Paths (or a term and a path) fail to compose end to end."""


@dataclass(frozen=True)
class Arrow:
    """A labelled arrow of the extending graph.  The acting graph's arrows
    are unlabelled ``(src, tgt)`` pairs in ``KanPresentation.arr_a``, not
    ``Arrow``s."""

    label: str | None
    src: int
    tgt: int


@dataclass(frozen=True)
class Path:
    """A composable arrow sequence with an explicit source object.

    The identity path at an object is the empty sequence; paths never
    contain explicit identity arrows.
    """

    source: int
    arrows: tuple[Arrow, ...] = ()

    @staticmethod
    def identity(obj: int) -> "Path":
        return Path(obj)

    @property
    def target(self) -> int:
        return self.arrows[-1].tgt if self.arrows else self.source

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple([a.label for a in self.arrows])  # type: ignore[misc]

    @property
    def is_identity(self) -> bool:
        return not self.arrows

    def __len__(self) -> int:
        return len(self.arrows)


def compose_paths(p: Path, q: Path) -> Path:
    """Juxtapose two paths; the identity path is a two-sided unit."""
    if p.target != q.source:
        raise CompositionError(
            f"cannot compose: first path ends at {p.target}, second starts at {q.source}"
        )
    if not q.arrows:
        return p
    if not p.arrows:
        return q
    return Path(p.source, p.arrows + q.arrows)


@dataclass(frozen=True)
class Term:
    """A tagged term ``x|p``: an element label with a path to its right.

    ``target`` is the object the term currently sits over (the target of
    the path, which is the path's source when the path is empty).
    """

    tag: str
    path: Path

    @property
    def target(self) -> int:
        return self.path.target

    def act(self, q: Path) -> "Term":
        return Term(self.tag, compose_paths(self.path, q))

    def __len__(self) -> int:
        return 1 + len(self.path.arrows)


@dataclass(frozen=True)
class KanPresentation:
    """The nine-field input record.

    ``ob_a``/``arr_a`` describe the acting graph (arrows as (src, tgt)
    pairs, unlabelled), ``ob_b``/``arr_b`` the labelled extending graph,
    ``rel_b`` the path relations, ``f_ob_a``/``f_arr_a`` the functor on
    generators and ``x_ob_a``/``x_arr_a`` the action on generators.
    """

    ob_a: tuple[int, ...]
    arr_a: tuple[tuple[int, int], ...]
    ob_b: tuple[int, ...]
    arr_b: tuple[Arrow, ...]
    rel_b: tuple[tuple[Path, Path], ...]
    f_ob_a: tuple[int, ...]
    f_arr_a: tuple[Path, ...]
    x_ob_a: tuple[tuple[str, ...], ...]
    x_arr_a: tuple[tuple[str, ...], ...]

    @cached_property
    def arrow_by_label(self) -> dict[str, Arrow]:
        return {a.label: a for a in self.arr_b if a.label is not None}

    @cached_property
    def delta_labels(self) -> tuple[str, ...]:
        return tuple(a.label for a in self.arr_b)  # type: ignore[misc]

    @cached_property
    def x_labels(self) -> tuple[str, ...]:
        return tuple(x for xs in self.x_ob_a for x in xs)

    @cached_property
    def x_owner_index(self) -> dict[str, int]:
        """Element label -> index (into ob_a) of the object owning it."""
        owner: dict[str, int] = {}
        for i, xs in enumerate(self.x_ob_a):
            for x in xs:
                owner.setdefault(x, i)
        return owner

    @cached_property
    def ob_a_index(self) -> dict[int, int]:
        return {o: i for i, o in enumerate(self.ob_a)}

    @cached_property
    def ob_b_index(self) -> dict[int, int]:
        return {o: i for i, o in enumerate(self.ob_b)}

    def tag_source(self, x: str) -> int:
        """Source object (in the extending graph) of every path tagged by x."""
        i = self.x_owner_index.get(x)
        if i is None:
            raise PresentationError(f"unknown element label {x!r}")
        return self.f_ob_a[i]


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def path_from_labels(
    labels: Sequence[str],
    by_label: Mapping[str, Arrow],
    source: int | None = None,
    where: str = "path",
) -> Path:
    """Resolve a label sequence into a Path, checking composability.

    An empty sequence needs an explicit ``source``.  ``where`` names the
    offending field in error messages.
    """
    if not labels:
        if source is None:
            raise PresentationError(f"{where}: identity path needs an explicit source object")
        return Path(source)
    arrows = []
    for lbl in labels:
        arrow = by_label.get(lbl)
        if arrow is None:
            raise PresentationError(f"{where}: unknown arrow label {lbl!r}")
        arrows.append(arrow)
    for a, b in zip(arrows, arrows[1:]):
        if a.tgt != b.src:
            raise CompositionError(
                f"{where}: arrows {a.label!r} ({a.src}->{a.tgt}) and {b.label!r} "
                f"({b.src}->{b.tgt}) do not compose"
            )
    if source is not None and arrows[0].src != source:
        raise CompositionError(
            f"{where}: path starts at {arrows[0].src}, expected {source}"
        )
    return Path(arrows[0].src, tuple(arrows))


def term_as_list(t: Term) -> list[str]:
    """List form of a term: the tag followed by the arrow labels.

    An identity-path term is the one-element list ``[tag]``.
    """
    return [t.tag, *t.path.labels]


def list_as_term(items: Sequence[str], pres: KanPresentation) -> Term:
    """Inverse of :func:`term_as_list` for a given presentation."""
    if not items:
        raise PresentationError("term list is empty")
    tag = items[0]
    source = pres.tag_source(tag)
    path = path_from_labels(items[1:], pres.arrow_by_label, source=source, where="term")
    return Term(tag, path)


def _check_path(p: Path, pres: KanPresentation, where: str, out: list[str]) -> None:
    by_label = pres.arrow_by_label
    if not p.arrows and p.source not in pres.ob_b_index:
        out.append(f"{where}: identity path at unknown object {p.source}")
    prev_tgt = None
    for a in p.arrows:
        known = by_label.get(a.label or "")
        if known != a:
            out.append(f"{where}: arrow {a.label!r} is not an arrow of the extending graph")
            return
        if prev_tgt is not None and prev_tgt != a.src:
            out.append(f"{where}: arrows do not compose at {a.label!r}")
            return
        prev_tgt = a.tgt
    if p.arrows and p.arrows[0].src != p.source:
        out.append(f"{where}: recorded source {p.source} disagrees with first arrow")


def validate_presentation(p: KanPresentation) -> ValidationReport:
    """Check all structural invariants; violations name field and entry (1-based)."""
    v: list[str] = []
    if len(set(p.ob_a)) != len(p.ob_a):
        v.append("ObA: duplicate object ids")
    if len(set(p.ob_b)) != len(p.ob_b):
        v.append("ObB: duplicate object ids")
    oa, ob = set(p.ob_a), set(p.ob_b)

    for k, (s, t) in enumerate(p.arr_a, 1):
        if s not in oa:
            v.append(f"ArrA[{k}]: unknown source object {s}")
        if t not in oa:
            v.append(f"ArrA[{k}]: unknown target object {t}")

    seen_labels: dict[str, int] = {}
    for k, a in enumerate(p.arr_b, 1):
        if not a.label:
            v.append(f"ArrB[{k}]: missing label")
            continue
        if not isinstance(a.label, str):
            v.append(f"ArrB[{k}]: label {a.label!r} is not a string")
            continue
        if a.label in seen_labels:
            v.append(f"ArrB[{k}]: duplicate label {a.label!r} (also ArrB[{seen_labels[a.label]}])")
        seen_labels[a.label] = k
        if a.src not in ob:
            v.append(f"ArrB[{k}]: unknown source object {a.src}")
        if a.tgt not in ob:
            v.append(f"ArrB[{k}]: unknown target object {a.tgt}")

    for k, (l, r) in enumerate(p.rel_b, 1):
        _check_path(l, p, f"RelB[{k}].lhs", v)
        _check_path(r, p, f"RelB[{k}].rhs", v)
        if l.source != r.source or l.target != r.target:
            v.append(
                f"RelB[{k}]: sides are not parallel "
                f"({l.source}->{l.target} vs {r.source}->{r.target})"
            )

    if len(p.f_ob_a) != len(p.ob_a):
        v.append(f"FObA: expected {len(p.ob_a)} entries, got {len(p.f_ob_a)}")
    else:
        for k, o in enumerate(p.f_ob_a, 1):
            if o not in ob:
                v.append(f"FObA[{k}]: unknown object {o}")

    if len(p.f_arr_a) != len(p.arr_a):
        v.append(f"FArrA: expected {len(p.arr_a)} entries, got {len(p.f_arr_a)}")
    elif len(p.f_ob_a) == len(p.ob_a):
        for k, path in enumerate(p.f_arr_a, 1):
            _check_path(path, p, f"FArrA[{k}]", v)
            s, t = p.arr_a[k - 1]
            if s in p.ob_a_index and t in p.ob_a_index:
                want_src = p.f_ob_a[p.ob_a_index[s]]
                want_tgt = p.f_ob_a[p.ob_a_index[t]]
                if path.source != want_src or path.target != want_tgt:
                    v.append(
                        f"FArrA[{k}]: path runs {path.source}->{path.target}, "
                        f"expected {want_src}->{want_tgt}"
                    )

    if len(p.x_ob_a) != len(p.ob_a):
        v.append(f"XObA: expected {len(p.ob_a)} entries, got {len(p.x_ob_a)}")
    all_x: dict[str, int] = {}
    for i, xs in enumerate(p.x_ob_a, 1):
        for x in xs:
            if not isinstance(x, str):
                v.append(f"XObA[{i}]: element label {x!r} is not a string")
                continue
            if not x:
                v.append(f"XObA[{i}]: empty element label")
            elif x in all_x:
                v.append(f"XObA[{i}]: duplicate element label {x!r} (also XObA[{all_x[x]}])")
            else:
                all_x[x] = i
            if x in seen_labels:
                v.append(f"XObA[{i}]: element label {x!r} collides with an arrow label")

    if len(p.x_arr_a) != len(p.arr_a):
        v.append(f"XArrA: expected {len(p.arr_a)} entries, got {len(p.x_arr_a)}")
    elif len(p.x_ob_a) == len(p.ob_a):
        for k, images in enumerate(p.x_arr_a, 1):
            s, t = p.arr_a[k - 1]
            if s not in p.ob_a_index or t not in p.ob_a_index:
                continue
            src_xs = p.x_ob_a[p.ob_a_index[s]]
            tgt_xs = {x for x in p.x_ob_a[p.ob_a_index[t]] if isinstance(x, str)}
            if len(images) != len(src_xs):
                v.append(f"XArrA[{k}]: expected {len(src_xs)} images, got {len(images)}")
                continue
            for j, img in enumerate(images, 1):
                if not isinstance(img, str) or img not in tgt_xs:
                    v.append(f"XArrA[{k}][{j}]: image {img!r} is not an element at the target object")

    return ValidationReport(tuple(v))


# --- text formatting (mirrors the classic computer-algebra notation) ---

def format_path(p: Path) -> str:
    return "IdWord" if p.is_identity else "*".join(p.labels)


def format_term(t: Term) -> str:
    return "*".join([t.tag] + [a.label for a in t.path.arrows])  # type: ignore[misc]


# --- JSON input/output ---

# Readers of JSON values: each returns the value it checks, or raises a
# PresentationError that names the field.

def _is_int(x) -> bool:
    # bool is a subclass of int, but true is not an object id
    return isinstance(x, int) and not isinstance(x, bool)


def _is_label(x) -> bool:
    return isinstance(x, str)


def _is_labels(x) -> bool:
    return isinstance(x, list) and all(isinstance(y, str) for y in x)


def _any(x) -> bool:
    return True


def _shape(*items):
    """A test for a fixed-length array whose i-th item passes ``items[i]``."""
    return lambda x: (isinstance(x, list) and len(x) == len(items)
                      and all(ok(y) for ok, y in zip(items, x)))


def _array(value, where: str) -> list:
    if not isinstance(value, list):
        raise PresentationError(f"{where}: expected an array")
    return value


def _label(value, where: str) -> str:
    if not _is_label(value):
        raise PresentationError(f"{where}: expected a label")
    return value


def _labels(value, where: str) -> tuple[str, ...]:
    if not _is_labels(value):
        raise PresentationError(f"{where}: expected an array of labels")
    return tuple(value)


def _ints(value, where: str) -> tuple[int, ...]:
    if not all(_is_int(x) for x in _array(value, where)):
        raise PresentationError(f"{where}: expected integers")
    return tuple(value)


def _entries(value, where: str, ok, what: str) -> list:
    """An array whose every entry passes ``ok``; ``what`` describes an entry."""
    for k, entry in enumerate(_array(value, where), 1):
        if not ok(entry):
            raise PresentationError(f"{where}[{k}]: expected {what}")
    return value


def _mapping(value, where: str, ok=_any, what: str = "") -> Mapping:
    """A JSON object whose every value passes ``ok``."""
    if not isinstance(value, Mapping):
        raise PresentationError(f"{where}: expected an object")
    for key, item in value.items():
        if not ok(item):
            raise PresentationError(f"{where}.{key}: expected {what}")
    return value


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise PresentationError(f"invalid JSON: {e}") from e
    except RecursionError as e:
        raise PresentationError("invalid JSON: nested too deeply") from e


def _read_json(path):
    """The JSON value in a file; bytes that are not UTF-8 and text that is
    not JSON raise PresentationError, a file that cannot be read OSError."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise PresentationError(f"not UTF-8 text: {e.reason} at byte {e.start}") from e
    return _parse_json(text)


def _required(data: Mapping, field: str):
    if field not in data:
        raise PresentationError(f"missing field {field!r}")
    return data[field]


def _relation(lhs: Path | None, rhs: Path | None, where: str,
              source: int | None = None) -> tuple[Path, Path]:
    """A relation's sides, an empty side (None) standing for the identity at
    the other side's source, or at ``source`` when both sides are empty."""
    if lhs is None and rhs is None:
        if source is None:
            raise PresentationError(f"{where}: both sides are empty")
        lhs = Path(source)
    if lhs is None:
        lhs = Path(rhs.source)  # type: ignore[union-attr]
    return lhs, rhs if rhs is not None else Path(lhs.source)


def _parse_json_path(obj, by_label, where: str, fallback_source: int | None = None) -> Path:
    if isinstance(obj, dict):
        if set(obj) != {"id"} or not _is_int(obj["id"]):
            raise PresentationError(f'{where}: identity path must be {{"id": <object>}}')
        return Path(obj["id"])
    if not _is_labels(obj):
        raise PresentationError(f"{where}: expected an array of labels or {{\"id\": <object>}}")
    return path_from_labels(obj, by_label, source=None if obj else fallback_source, where=where)


def presentation_from_json(data: Mapping) -> KanPresentation:
    """Build a presentation from the nine-field JSON record.

    Unknown labels and non-composable paths are parse errors; endpoint
    and sizing invariants are left to :func:`validate_presentation`.
    """
    if not isinstance(data, Mapping):
        raise PresentationError("presentation must be a JSON object")

    ob_a = _ints(_required(data, "ObA"), "ObA")
    arr_a = _entries(_required(data, "ArrA"), "ArrA", _shape(_is_int, _is_int),
                     "[src, tgt] integer pair")
    ob_b = _ints(_required(data, "ObB"), "ObB")
    arr_b = [Arrow(*entry) for entry in _entries(
        _required(data, "ArrB"), "ArrB", _shape(_is_label, _is_int, _is_int), "[label, src, tgt]")]
    by_label = {a.label: a for a in arr_b}

    rel_b = []
    for k, (lhs, rhs) in enumerate(_entries(
            _required(data, "RelB"), "RelB", _shape(_any, _any), "a pair of paths"), 1):
        where = f"RelB[{k}]"
        # only [] is an empty side; any other value is read as a path
        rel_b.append(_relation(
            None if lhs == [] else _parse_json_path(lhs, by_label, f"{where}.lhs"),
            None if rhs == [] else _parse_json_path(rhs, by_label, f"{where}.rhs"),
            where,
        ))

    f_ob_a = _ints(_required(data, "FObA"), "FObA")
    f_arr_a = []
    for k, entry in enumerate(_array(_required(data, "FArrA"), "FArrA"), 1):
        fallback = None
        if isinstance(entry, list) and not entry:
            # identity image: source is the F-image of the arrow's source
            if k <= len(arr_a) and len(f_ob_a) == len(ob_a):
                s = arr_a[k - 1][0]
                if s in ob_a:
                    fallback = f_ob_a[ob_a.index(s)]
        f_arr_a.append(_parse_json_path(entry, by_label, f"FArrA[{k}]", fallback))

    return KanPresentation(
        ob_a=ob_a,
        arr_a=tuple((s, t) for s, t in arr_a),
        ob_b=ob_b,
        arr_b=tuple(arr_b),
        rel_b=tuple(rel_b),
        f_ob_a=f_ob_a,
        f_arr_a=tuple(f_arr_a),
        x_ob_a=tuple(map(tuple, _entries(
            _required(data, "XObA"), "XObA", _is_labels, "an array of labels"))),
        x_arr_a=tuple(map(tuple, _entries(
            _required(data, "XArrA"), "XArrA", _is_labels, "an array of labels"))),
    )


def path_to_json(p: Path):
    """JSON form of a path: its label array, or ``{"id": <object>}`` for an identity."""
    return {"id": p.source} if p.is_identity else list(p.labels)


def presentation_to_json(p: KanPresentation) -> dict:
    return {
        "ObA": list(p.ob_a),
        "ArrA": [list(e) for e in p.arr_a],
        "ObB": list(p.ob_b),
        "ArrB": [[a.label, a.src, a.tgt] for a in p.arr_b],
        "RelB": [[path_to_json(l), path_to_json(r)] for l, r in p.rel_b],
        "FObA": list(p.f_ob_a),
        "FArrA": [path_to_json(q) for q in p.f_arr_a],
        "XObA": [list(xs) for xs in p.x_ob_a],
        "XArrA": [list(xs) for xs in p.x_arr_a],
    }


def parse_presentation(text: str) -> KanPresentation:
    return presentation_from_json(_parse_json(text))


def load_presentation(path) -> KanPresentation:
    return presentation_from_json(_read_json(path))
