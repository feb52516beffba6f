"""Constructors translating familiar problems into presentations.

Each constructor produces a validated nine-field record so the one
generic engine solves the original problem: monoid/category normal
forms, coset systems, right congruences, quotients of sets (plain or
equivariant), orbits and conjugacy classes, colimits of set diagrams,
and induced actions along a morphism.  Most are calls of a more general
one: a monoid is a one-object category, orbits and plain quotients are
colimits, cosets and right congruences are induced actions.

Groups are written as monoids: inverse generators and invertibility
relations are included only when the caller supplies them, never
silently added.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .model import (
    Arrow,
    KanPresentation,
    Path,
    PresentationError,
    Record,
    _entries,
    _ints,
    _is_int,
    _is_label,
    _is_labels,
    _label,
    _labels,
    _mapping,
    _relation,
    _shape,
    path_from_labels,
    validate_presentation,
)
from .ordering import OrderSpec
from .rewrite import complete, initial_rules, reduce_term

Word = tuple[str, ...]


class MonoidPresentationDesc(Record):
    """Generators and defining relations (pairs of words; () is the empty word)."""

    generators: tuple[str, ...]
    relations: tuple[tuple[Word, Word], ...] = ()


class CosetSystemDesc(Record):
    group_generators: tuple[str, ...]
    group_relations: tuple[tuple[Word, Word], ...]
    subgroup_words: tuple[Word, ...]
    side: str = "right"


class ActionDesc(Record, eq=False):
    """A monoid acting on a finite point set.

    ``action`` maps each generator to the image list, parallel to
    ``points``.
    """

    monoid: MonoidPresentationDesc
    points: tuple[str, ...]
    action: Mapping[str, tuple[str, ...]]


def _finish(pres: KanPresentation) -> KanPresentation:
    report = validate_presentation(pres)
    if not report.ok:
        raise PresentationError("encoding produced an invalid presentation: "
                                + "; ".join(report.violations))
    return pres


def _relations(
    relations: Sequence[tuple[Sequence[str], Sequence[str]]],
    by_label: Mapping[str, Arrow],
    source: int | None,
) -> tuple[tuple[Path, Path], ...]:
    """Relation paths from label words: an empty word is the identity at
    the other side's source, or at ``source`` when both words are empty."""

    def side(labels: Sequence[str], where: str) -> Path | None:
        return path_from_labels(tuple(labels), by_label, where=where) if labels else None

    return tuple(
        _relation(side(lhs, f"relation {k} lhs"), side(rhs, f"relation {k} rhs"),
                  f"relation {k}", source=source)
        for k, (lhs, rhs) in enumerate(relations, 1)
    )


def _one_object_delta(desc: MonoidPresentationDesc):
    """Arrows and resolved relation paths for a one-object graph."""
    arrows = tuple(Arrow(g, 1, 1) for g in desc.generators)
    by_label = {a.label: a for a in arrows}

    def word_path(w: Sequence[str], where: str) -> Path:
        return path_from_labels(tuple(w), by_label, source=1, where=where)

    return arrows, _relations(desc.relations, by_label, 1), word_path


def from_monoid_presentation(desc: MonoidPresentationDesc, point: str = "e") -> KanPresentation:
    """Normal forms for a monoid: the arrows-by-target of the one-object
    category it presents."""
    if point in desc.generators:
        raise PresentationError(f"point label {point!r} collides with a generator")
    return from_category_presentation(
        (1,), [(g, 1, 1) for g in desc.generators], desc.relations, points=(point,))


def from_category_presentation(
    objects: Sequence[int],
    arrows: Sequence[tuple[str, int, int]],
    relations: Sequence[tuple[Sequence[str], Sequence[str]]],
    points: Sequence[str] | None = None,
) -> KanPresentation:
    """Arrows-by-target of a finitely presented category: a one-point set
    per object, acted on trivially, extended along the object inclusion.

    An empty relation side denotes the identity path at the other side's
    source (so the other side must be a cycle); in a one-object category
    both sides may be empty.
    """
    obs = tuple(objects)
    arrs = tuple(Arrow(l, s, t) for l, s, t in arrows)
    by_label = {a.label: a for a in arrs}
    if points is None:
        points = tuple(f"e{o}" for o in obs)
    points = tuple(points)
    if len(points) != len(obs):
        raise PresentationError(f"expected {len(obs)} point labels, got {len(points)}")

    rels = _relations(relations, by_label, obs[0] if len(obs) == 1 else None)
    return _finish(KanPresentation(
        ob_a=obs, arr_a=(),
        ob_b=obs, arr_b=arrs, rel_b=rels,
        f_ob_a=obs, f_arr_a=(),
        x_ob_a=tuple((pt,) for pt in points), x_arr_a=(),
    ))


def from_coset_system(desc: CosetSystemDesc, tag: str = "H") -> KanPresentation:
    """Right cosets of a finitely generated subgroup: the right congruence
    generated by its generating words."""
    if desc.side != "right":
        raise PresentationError("only right coset systems are supported")
    monoid = MonoidPresentationDesc(desc.group_generators, desc.group_relations)
    return from_right_congruence(monoid, desc.subgroup_words, tag)


def from_right_congruence(
    monoid: MonoidPresentationDesc,
    congruence_words: Sequence[Word],
    tag: str = "H",
) -> KanPresentation:
    """Classes of the right congruence generated by ``w ~ empty`` for the
    given words: the one-point trivial action of the free monoid on the
    words, induced along the morphism sending each free generator to its
    word."""
    if tag in monoid.generators:
        raise PresentationError(f"tag label {tag!r} collides with a generator")
    names = tuple(f"word {k}" for k in range(1, len(congruence_words) + 1))
    return from_group_morphism(
        MonoidPresentationDesc(names), monoid, dict(zip(names, congruence_words)),
        (tag,), dict.fromkeys(names, (tag,)),
    )


def _action_images(
    points: tuple[str, ...], generators: Sequence[str], action: Mapping[str, Sequence[str]]
) -> tuple[tuple[str, ...], ...]:
    """The image list of each generator: one image per point, each a point."""
    out = []
    for k, g in enumerate(generators):
        if g in generators[:k]:
            raise PresentationError(f"duplicate generator {g!r}")
        images = action.get(g)
        if images is None or len(images) != len(points):
            raise PresentationError(f"action of {g!r} must list an image per point")
        for q in images:
            if q not in points:
                raise PresentationError(f"action of {g!r}: unknown image {q!r}")
        out.append(tuple(images))
    return tuple(out)


def from_relation_quotient(
    points: Sequence[str],
    pairs: Sequence[tuple[str, str]],
    monoid: MonoidPresentationDesc | None = None,
    action: Mapping[str, Sequence[str]] | None = None,
) -> KanPresentation:
    """Equivalence classes of a point set under a relation: the colimit of
    one singleton set per point, with an arrow per pair.

    With ``monoid``/``action`` given this is the equivariant variant:
    the quotient by the smallest equivalence containing the pairs and
    respected by the action, together with the induced action on it.
    Arrows recording the action map to their generator so that acting
    then merging commutes; plain relation arrows map to the identity.
    """
    pts = tuple(points)
    if len(set(pts)) != len(pts):
        raise PresentationError("duplicate point labels")
    index = {p: i + 1 for i, p in enumerate(pts)}
    if (monoid is None) != (action is None):
        raise PresentationError("equivariant variant needs both the monoid and its action")

    arr_a: list[tuple[int, int]] = []
    for k, (p, q) in enumerate(pairs, 1):
        if p not in index or q not in index:
            raise PresentationError(f"pair {k}: unknown point")
        arr_a.append((index[p], index[q]))
    x_arr_a = [(q,) for _, q in pairs]
    if monoid is None:
        return from_colimit_diagram(arr_a, [(p,) for p in pts], x_arr_a)

    arr_b, rel_b, word_path = _one_object_delta(monoid)
    f_arr_a = [Path.identity(1)] * len(arr_a)
    for g, images in zip(monoid.generators, _action_images(pts, monoid.generators, action)):
        for p, q in zip(pts, images):
            arr_a.append((index[p], index[q]))
            f_arr_a.append(word_path((g,), f"action of {g!r}"))
            x_arr_a.append((q,))

    return _finish(KanPresentation(
        ob_a=tuple(range(1, len(pts) + 1)),
        arr_a=tuple(arr_a),
        ob_b=(1,), arr_b=arr_b, rel_b=rel_b,
        f_ob_a=(1,) * len(pts),
        f_arr_a=tuple(f_arr_a),
        x_ob_a=tuple((p,) for p in pts),
        x_arr_a=tuple(x_arr_a),
    ))


def from_action_orbits(desc: ActionDesc) -> KanPresentation:
    """Orbit representatives of a monoid action: the colimit of the one-object
    diagram with a loop per generator."""
    pts = tuple(desc.points)
    if len(set(pts)) != len(pts):
        raise PresentationError("duplicate point labels")
    images = _action_images(pts, desc.monoid.generators, desc.action)
    return from_colimit_diagram(((1, 1),) * len(images), (pts,), images, objects=(1,))


def conjugation_action(
    group: MonoidPresentationDesc,
    elements: Sequence[Word],
    inverses: Mapping[str, Word],
    labels: Sequence[str] | None = None,
) -> ActionDesc:
    """Derive the conjugation action of a finite group on its own
    elements, for feeding :func:`from_action_orbits`.

    The caller supplies the element words and one inverse word per
    generator; images are computed by completing the group's relation
    rules and reducing ``inverse * element * generator``.
    """
    arrows, rels, word_path = _one_object_delta(group)
    # the group's one-object category with no points, whose initial rules
    # are its relations, oriented
    pres = _finish(KanPresentation((), (), (1,), arrows, rels, (), (), (), ()))
    order = OrderSpec.from_presentation(pres)
    result = complete(initial_rules(pres, order), order)
    if not result.complete:
        raise PresentationError("group relations did not complete; cannot derive conjugation")
    system = result.system

    def nf(word: Word) -> Path:
        return reduce_term(word_path(word, "word"), system)

    element_nfs = [nf(w) for w in elements]
    if len(set(element_nfs)) != len(element_nfs):
        raise PresentationError("element words are not distinct in the group")
    by_nf = {p: i for i, p in enumerate(element_nfs)}

    if labels is None:
        labels = tuple("id" if not w else "".join(w) for w in elements)
    labels = tuple(labels)
    if len(labels) != len(elements):
        raise PresentationError("expected one label per element")

    identity_nf = nf(())
    action: dict[str, tuple[str, ...]] = {}
    for g in group.generators:
        if g not in inverses:
            raise PresentationError(f"no inverse word supplied for generator {g!r}")
        inv = tuple(inverses[g])
        if nf(inv + (g,)) != identity_nf or nf((g,) + inv) != identity_nf:
            raise PresentationError(f"word {inv!r} is not an inverse of {g!r}")
        images = []
        for w in elements:
            conj = nf(inv + tuple(w) + (g,))
            i = by_nf.get(conj)
            if i is None:
                raise PresentationError("element list is not closed under conjugation")
            images.append(labels[i])
        action[g] = tuple(images)
    return ActionDesc(monoid=group, points=labels, action=action)


def from_colimit_diagram(
    gamma_arrows: Sequence[tuple[int, int]],
    x_sets: Sequence[Sequence[str]],
    x_maps: Sequence[Sequence[str]],
    objects: Sequence[int] | None = None,
) -> KanPresentation:
    """Colimit of a diagram of sets: extend the diagram along the null
    functor; the single extension set is the colimit object and the
    comparison map gives the colimit functions."""
    obs = tuple(objects) if objects is not None else tuple(range(1, len(x_sets) + 1))
    if len(x_sets) != len(obs):
        raise PresentationError(f"expected {len(obs)} point sets, got {len(x_sets)}")
    if len(x_maps) != len(gamma_arrows):
        raise PresentationError(f"expected {len(gamma_arrows)} image lists, got {len(x_maps)}")
    return _finish(KanPresentation(
        ob_a=obs,
        arr_a=tuple((s, t) for s, t in gamma_arrows),
        ob_b=(1,), arr_b=(), rel_b=(),
        f_ob_a=(1,) * len(obs),
        f_arr_a=(Path.identity(1),) * len(gamma_arrows),
        x_ob_a=tuple(tuple(xs) for xs in x_sets),
        x_arr_a=tuple(tuple(xs) for xs in x_maps),
    ))


def from_group_morphism(
    source: MonoidPresentationDesc,
    target: MonoidPresentationDesc,
    gen_images: Mapping[str, Word],
    points: Sequence[str],
    action: Mapping[str, Sequence[str]],
) -> KanPresentation:
    """The action induced along a morphism of monoids (or groups given as
    monoids): one loop per source generator carrying the supplied action,
    mapped by the morphism's generator images."""
    pts = tuple(points)
    arrows, rels, word_path = _one_object_delta(target)
    f_arr_a = []
    for g in source.generators:
        w = gen_images.get(g)
        if w is None:
            raise PresentationError(f"no image word for source generator {g!r}")
        f_arr_a.append(word_path(tuple(w), f"image of {g!r}"))
    x_arr_a = _action_images(pts, source.generators, action)
    return _finish(KanPresentation(
        ob_a=(1,), arr_a=((1, 1),) * len(f_arr_a),
        ob_b=(1,), arr_b=arrows, rel_b=rels,
        f_ob_a=(1,), f_arr_a=tuple(f_arr_a),
        x_ob_a=(pts,), x_arr_a=x_arr_a,
    ))


# --- JSON descriptor parsing (CLI `encode`) ---

ENCODE_FAMILIES = (
    "monoid", "category", "cosets", "congruence",
    "quotient", "orbits", "colimit", "induced",
)


# (test, description) of an entry, for _entries and _mapping
_WORD = (_is_labels, "an array of labels")
_WORD_PAIR = (_shape(_is_labels, _is_labels), "a pair of words")


def _json_monoid(obj, where: str) -> MonoidPresentationDesc:
    obj = _mapping(obj, where)
    return MonoidPresentationDesc(
        generators=_labels(obj.get("generators", []), f"{where}.generators"),
        relations=tuple((tuple(l), tuple(r)) for l, r in _entries(
            obj.get("relations", []), f"{where}.relations", *_WORD_PAIR)),
    )


def encode_from_json(family: str, data: Mapping) -> KanPresentation:
    """Dispatch a JSON descriptor to its constructor."""
    if not isinstance(data, Mapping):
        raise PresentationError("descriptor must be a JSON object")
    get = data.get
    if family == "monoid":
        desc = _json_monoid(data, "monoid")
        return from_monoid_presentation(desc, point=_label(get("point", "e"), "point"))
    if family == "category":
        points = get("points")
        return from_category_presentation(
            _ints(get("objects", []), "objects"),
            _entries(get("arrows", []), "arrows", _shape(_is_label, _is_int, _is_int),
                     "[label, src, tgt]"),
            _entries(get("relations", []), "relations", *_WORD_PAIR),
            points=None if points is None else _labels(points, "points"),
        )
    if family == "cosets":
        desc = CosetSystemDesc(
            group_generators=_labels(get("generators", []), "generators"),
            group_relations=_entries(get("relations", []), "relations", *_WORD_PAIR),
            subgroup_words=_entries(get("subgroup", []), "subgroup", *_WORD),
            side=get("side", "right"),
        )
        return from_coset_system(desc, tag=_label(get("tag", "H"), "tag"))
    if family == "congruence":
        return from_right_congruence(
            _json_monoid(get("monoid", {}), "monoid"),
            _entries(get("congruence", []), "congruence", *_WORD),
            tag=_label(get("tag", "H"), "tag"),
        )
    if family == "quotient":
        pairs = _entries(get("pairs", []), "pairs", _shape(_is_label, _is_label),
                         "a pair of points")
        return from_relation_quotient(
            _labels(get("points", []), "points"), pairs,
            monoid=_json_monoid(data["monoid"], "monoid") if "monoid" in data else None,
            action=_mapping(data["action"], "action", *_WORD) if "action" in data else None,
        )
    if family == "orbits":
        variant = get("variant", "plain")
        if variant == "conjugation":
            labels = get("labels")
            desc = conjugation_action(
                _json_monoid(get("group", {}), "group"),
                _entries(get("elements", []), "elements", *_WORD),
                _mapping(get("inverses", {}), "inverses", *_WORD),
                labels=None if labels is None else _labels(labels, "labels"),
            )
        elif variant == "plain":
            desc = ActionDesc(
                monoid=_json_monoid(get("monoid", {}), "monoid"),
                points=_labels(get("points", []), "points"),
                action=_mapping(get("action", {}), "action", *_WORD),
            )
        else:
            raise PresentationError('variant: expected "plain" or "conjugation"')
        return from_action_orbits(desc)
    if family == "colimit":
        objects = get("objects")
        return from_colimit_diagram(
            _entries(get("arrows", []), "arrows", _shape(_is_int, _is_int), "[src, tgt]"),
            _entries(get("xObjects", []), "xObjects", *_WORD),
            _entries(get("xArrows", []), "xArrows", *_WORD),
            objects=None if objects is None else _ints(objects, "objects"),
        )
    if family == "induced":
        return from_group_morphism(
            source=_json_monoid(get("source", {}), "source"),
            target=_json_monoid(get("target", {}), "target"),
            gen_images=_mapping(get("morphism", {}), "morphism", *_WORD),
            points=_labels(get("points", []), "points"),
            action=_mapping(get("action", {}), "action", *_WORD),
        )
    raise PresentationError(f"unknown encoding family {family!r}")
