"""Interpreting a complete rewrite system as the extension it presents.

The irreducible terms are normal forms, one per equivalence class.  They
are catalogued by stages: stage one holds the irreducible identity
terms, and each later stage holds the irreducible one-arrow extensions
of the previous stage's survivors.  When a whole stage dies the
catalogue is finite and complete, because any longer term contains a
reducible prefix; a global element limit guards the infinite case.

Under length-lex the normal forms are prefix-closed, so the catalogue is
kept as a forest: each form is its parent, a form one arrow shorter,
plus one arrow.  Enumeration records only that, with no object per
form.  The terms are built from it on demand, each from its parent's;
the text names are built a stage at a time, from the names of the stage
before, so that a catalogue can be written as its stages come without
holding every name.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

from .model import Arrow, CompositionError, KanPresentation, Path, Term
from .ordering import OrderSpec
from .rewrite import RewriteSystem, _step, check_confluence, reduce_term

DEFAULT_LIMIT = 1000


class EnumerationStatus(enum.Enum):
    FINITE = "Finite"
    LIMIT_EXCEEDED = "LimitExceeded"


@dataclass(frozen=True)
class KanTables:
    """Catalogue of normal forms, the terms irreducible with respect to the
    complete system, as a prefix forest.

    Forms are numbered in enumeration order, so a parent comes before its
    children.  Form ``i`` sits over ``targets[i]``; it is the identity
    term on the tag ``steps[i]`` when ``parents[i]`` is -1, and otherwise
    form ``parents[i]`` followed by the arrow ``steps[i]``.  ``elements``
    (built on first use, then kept) keys the forms by their target, every
    object of ``objects`` present, each in enumeration order;
    ``name_chunks()`` gives their text names stage by stage.
    """

    status: EnumerationStatus
    objects: tuple[int, ...]
    parents: Sequence[int]
    steps: Sequence[str | Arrow]
    targets: Sequence[int]

    @property
    def total(self) -> int:
        return len(self.parents)

    @property
    def finite(self) -> bool:
        return self.status is EnumerationStatus.FINITE

    @cached_property
    def elements(self) -> Mapping[int, tuple[Term, ...]]:
        """The normal forms as terms, keyed by target."""
        terms: list[Term] = []
        for parent, step, target in zip(self.parents, self.steps, self.targets):
            if parent < 0:
                terms.append(Term(step, Path(target)))
            else:
                tag, path = terms[parent].tag, terms[parent].path
                terms.append(Term(tag, Path(path.source, path.arrows + (step,))))
        by_target: dict[int, list] = {obj: [] for obj in self.objects}
        for term, target in zip(terms, self.targets):
            by_target[target].append(term)
        return {obj: tuple(ts) for obj, ts in by_target.items()}

    def name_chunks(self) -> Iterator[tuple[int, str]]:
        """The forms' ``format_term`` text, stage by stage: for each stage,
        each target with forms in it, in ``objects`` order, and the names
        of those forms, in enumeration order, joined by ``", "``.

        Stage one is the identity forms, named by their tags.  After them
        ``parents`` never decreases, so each later stage is the slice of
        forms whose parents lie in the stage before, and its names are
        built from that stage's names alone: at most two stages' names
        are held at a time."""
        parents, steps, targets = self.parents, self.steps, self.targets
        lo, hi = 0, bisect_left(parents, 0)
        names = steps[:hi]
        while lo < hi:
            groups: dict[int, list[str]] = {}
            for name, target in zip(names, targets[lo:hi]):
                groups.setdefault(target, []).append(name)
            for obj in self.objects:
                if obj in groups:
                    yield obj, ", ".join(groups[obj])
            end = bisect_left(parents, hi, hi)
            names = [f"{names[p - lo]}*{a.label}" for p, a in zip(parents[hi:end], steps[hi:end])]
            lo, hi = hi, end


# the one-arrow step of an irreducible form, under the name by which the
# candidates are counted; stage one steps from the root under ``_step``
_extension_reducible = _step


def enumerate_extension(
    pres: KanPresentation,
    system: RewriteSystem,
    limit: int = DEFAULT_LIMIT,
    order: OrderSpec | None = None,
) -> KanTables:
    """Catalogue the extension sets by length stages.

    Requires a confluent system (otherwise normal forms are not well
    defined) and a positive limit.  On overflow the elements found so
    far are returned flagged LIMIT_EXCEEDED.
    """
    if limit < 1:
        raise ValueError("enumeration limit must be positive")
    if not check_confluence(system):
        raise ValueError("rewrite system is not confluent; normal forms are not well-defined")
    if order is None:
        order = OrderSpec.from_presentation(pres)
    idx = system._index

    # the forest (see KanTables), and each form's rule index state (see
    # rewrite._step)
    parents: list[int] = []
    steps: list[str | Arrow] = []
    targets: list[int] = []
    states: list[list] = []
    total = 0
    exceeded = False

    # an empty path is never a left-hand side, so x|id is irreducible
    # exactly when reading its tag gives no output
    for x in sorted(pres.x_labels, key=lambda l: order.x_rank[l]):
        state = _step(idx.root, x)
        if state is None:
            continue
        if total >= limit:
            exceeded = True
            break
        parents.append(-1)
        steps.append(x)
        targets.append(pres.tag_source(x))
        states.append(state)
        total += 1

    arrows_by_src: dict[int, list[tuple[Arrow, int | Arrow]]] = {}
    for a in sorted(pres.arr_b, key=lambda a: order.delta_rank[a.label]):
        arrows_by_src.setdefault(a.src, []).append((a, idx.lookup((a,))[0]))

    # forms are extended in the order they were found, so each stage is
    # extended after the whole of the one before it
    form = 0
    while form < total and not exceeded:
        state = states[form]
        for arrow, code in arrows_by_src.get(targets[form], ()):
            ext_state = _extension_reducible(state, code)
            if ext_state is None:
                continue
            if total >= limit:
                exceeded = True
                break
            parents.append(form)
            steps.append(arrow)
            targets.append(arrow.tgt)
            states.append(ext_state)
            total += 1
        form += 1

    return KanTables(
        status=EnumerationStatus.LIMIT_EXCEEDED if exceeded else EnumerationStatus.FINITE,
        objects=tuple(pres.ob_b),
        parents=parents,
        steps=steps,
        targets=targets,
    )


def tau_bar(nf: Term) -> int:
    """Target object of a normal form (its path's source when identity)."""
    return nf.target


def act(nf: Term, q: Path, system: RewriteSystem) -> Term:
    """Right action: append the path, then reduce."""
    if q.source != nf.target:
        raise CompositionError(
            f"action source mismatch: element sits over {nf.target}, "
            f"path starts at {q.source}"
        )
    return reduce_term(nf.act(q), system)


def epsilon(x: str, pres: KanPresentation, system: RewriteSystem) -> Term:
    """Image of an element under the comparison map: reduce ``x|id``."""
    return reduce_term(Term(x, Path.identity(pres.tag_source(x))), system)


def naturality_check(pres: KanPresentation, system: RewriteSystem) -> bool:
    """Acting by a generator's functor image must agree with the recorded
    element action: act(eps(x), F(a)) == eps(x.a) for every pair."""
    for k in range(len(pres.arr_a)):
        s = pres.arr_a[k][0]
        f_image = pres.f_arr_a[k]
        elements = pres.x_ob_a[pres.ob_a_index[s]]
        for x, image in zip(elements, pres.x_arr_a[k]):
            if act(epsilon(x, pres, system), f_image, system) != epsilon(image, pres, system):
                return False
    return True
