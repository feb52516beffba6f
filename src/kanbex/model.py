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
    """A labelled graph arrow.  ``label`` is None for acting-graph arrows,
    which are identified by position only."""

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
        return tuple(a.label for a in self.arrows)  # type: ignore[misc]

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
            tgt_xs = set(p.x_ob_a[p.ob_a_index[t]])
            if len(images) != len(src_xs):
                v.append(f"XArrA[{k}]: expected {len(src_xs)} images, got {len(images)}")
                continue
            for j, img in enumerate(images, 1):
                if img not in tgt_xs:
                    v.append(f"XArrA[{k}][{j}]: image {img!r} is not an element at the target object")

    return ValidationReport(tuple(v))


# --- text formatting (mirrors the classic computer-algebra notation) ---

def format_path(p: Path) -> str:
    return "IdWord" if p.is_identity else "*".join(p.labels)


def format_term(t: Term) -> str:
    return "*".join(term_as_list(t))


# --- JSON input/output ---

PRESENTATION_FIELDS = (
    "ObA", "ArrA", "ObB", "ArrB", "RelB", "FObA", "FArrA", "XObA", "XArrA",
)


def _want_list(data: Mapping, field: str) -> list:
    if field not in data:
        raise PresentationError(f"missing field {field!r}")
    value = data[field]
    if not isinstance(value, list):
        raise PresentationError(f"{field}: expected an array")
    return value


def _parse_json_path(obj, by_label, where: str, fallback_source: int | None = None) -> Path:
    if isinstance(obj, dict):
        if set(obj) != {"id"} or not isinstance(obj["id"], int):
            raise PresentationError(f'{where}: identity path must be {{"id": <object>}}')
        return Path(obj["id"])
    if not isinstance(obj, list) or not all(isinstance(x, str) for x in obj):
        raise PresentationError(f"{where}: expected an array of labels or {{\"id\": <object>}}")
    return path_from_labels(obj, by_label, source=None if obj else fallback_source, where=where)


def presentation_from_json(data: Mapping) -> KanPresentation:
    """Build a presentation from the nine-field JSON record.

    Unknown labels and non-composable paths are parse errors; endpoint
    and sizing invariants are left to :func:`validate_presentation`.
    """
    if not isinstance(data, Mapping):
        raise PresentationError("presentation must be a JSON object")

    ob_a = _want_list(data, "ObA")
    if not all(isinstance(o, int) for o in ob_a):
        raise PresentationError("ObA: expected integers")
    arr_a = []
    for k, entry in enumerate(_want_list(data, "ArrA"), 1):
        if (not isinstance(entry, list) or len(entry) != 2
                or not all(isinstance(x, int) for x in entry)):
            raise PresentationError(f"ArrA[{k}]: expected [src, tgt] integer pair")
        arr_a.append((entry[0], entry[1]))
    ob_b = _want_list(data, "ObB")
    if not all(isinstance(o, int) for o in ob_b):
        raise PresentationError("ObB: expected integers")
    arr_b = []
    for k, entry in enumerate(_want_list(data, "ArrB"), 1):
        if (not isinstance(entry, list) or len(entry) != 3
                or not isinstance(entry[0], str)
                or not all(isinstance(x, int) for x in entry[1:])):
            raise PresentationError(f"ArrB[{k}]: expected [label, src, tgt]")
        arr_b.append(Arrow(entry[0], entry[1], entry[2]))
    by_label = {a.label: a for a in arr_b}

    rel_b = []
    for k, entry in enumerate(_want_list(data, "RelB"), 1):
        if not isinstance(entry, list) or len(entry) != 2:
            raise PresentationError(f"RelB[{k}]: expected a pair of paths")
        lhs_raw, rhs_raw = entry
        # an empty-array side borrows its source from the other side
        lhs_probe = _parse_json_path(lhs_raw, by_label, f"RelB[{k}].lhs") \
            if lhs_raw else None
        rhs_probe = _parse_json_path(rhs_raw, by_label, f"RelB[{k}].rhs") \
            if rhs_raw else None
        if lhs_probe is None and rhs_probe is None:
            raise PresentationError(f"RelB[{k}]: both sides are empty arrays; use {{\"id\": <object>}}")
        lhs = lhs_probe if lhs_probe is not None else Path(rhs_probe.source)  # type: ignore[union-attr]
        rhs = rhs_probe if rhs_probe is not None else Path(lhs.source)
        rel_b.append((lhs, rhs))

    f_ob_a = _want_list(data, "FObA")
    if not all(isinstance(o, int) for o in f_ob_a):
        raise PresentationError("FObA: expected integers")
    f_arr_a = []
    for k, entry in enumerate(_want_list(data, "FArrA"), 1):
        fallback = None
        if isinstance(entry, list) and not entry:
            # identity image: source is the F-image of the arrow's source
            if k <= len(arr_a) and len(f_ob_a) == len(ob_a):
                s = arr_a[k - 1][0]
                if s in ob_a:
                    fallback = f_ob_a[ob_a.index(s)]
        f_arr_a.append(_parse_json_path(entry, by_label, f"FArrA[{k}]", fallback))

    x_ob_a = []
    for i, entry in enumerate(_want_list(data, "XObA"), 1):
        if not isinstance(entry, list) or not all(isinstance(x, str) for x in entry):
            raise PresentationError(f"XObA[{i}]: expected an array of labels")
        x_ob_a.append(tuple(entry))
    x_arr_a = []
    for k, entry in enumerate(_want_list(data, "XArrA"), 1):
        if not isinstance(entry, list) or not all(isinstance(x, str) for x in entry):
            raise PresentationError(f"XArrA[{k}]: expected an array of labels")
        x_arr_a.append(tuple(entry))

    return KanPresentation(
        ob_a=tuple(ob_a),
        arr_a=tuple(arr_a),
        ob_b=tuple(ob_b),
        arr_b=tuple(arr_b),
        rel_b=tuple(rel_b),
        f_ob_a=tuple(f_ob_a),
        f_arr_a=tuple(f_arr_a),
        x_ob_a=tuple(x_ob_a),
        x_arr_a=tuple(x_arr_a),
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
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise PresentationError(f"invalid JSON: {e}") from e
    return presentation_from_json(data)


def load_presentation(path) -> KanPresentation:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_presentation(fh.read())
