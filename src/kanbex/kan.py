"""Interpreting a complete rewrite system as the extension it presents.

The irreducible terms are normal forms, one per equivalence class.  They
are catalogued by stages: stage one holds the irreducible identity
terms, and each later stage holds the irreducible one-arrow extensions
of the previous stage's survivors.  When a whole stage dies the
catalogue is finite and complete, because any longer term contains a
reducible prefix; a global element limit guards the infinite case.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

from .model import Arrow, CompositionError, KanPresentation, Path, Term
from .ordering import OrderSpec
from .rewrite import RewriteSystem, _goto, check_confluence, reduce_term

DEFAULT_LIMIT = 1000


class EnumerationStatus(enum.Enum):
    FINITE = "Finite"
    LIMIT_EXCEEDED = "LimitExceeded"


@dataclass(frozen=True)
class KanTables:
    """Catalogue of normal forms, the terms irreducible with respect to the
    complete system, keyed by their target object."""

    status: EnumerationStatus
    elements: Mapping[int, tuple[Term, ...]]
    total: int

    @property
    def finite(self) -> bool:
        return self.status is EnumerationStatus.FINITE


def _extension_reducible(state: list, code: int) -> list | None:
    """Advance an irreducible term's automaton state by one arrow's code.

    The state is the one the rule index reaches after reading the term's
    tag and path.  The term was irreducible, so a match in the extension
    ends at the new arrow, and one does exactly when the new state has
    an output: a system's index holds a right-hand side at every
    terminal.  Returns None when the extension is reducible and its
    state otherwise.
    """
    state = state[2].get(code) or _goto(state, code)
    return None if state[5] is not None else state


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
    root = idx.root

    elements: dict[int, list[Term]] = {obj: [] for obj in pres.ob_b}
    total = 0
    exceeded = False

    # each stage term carries its target and its automaton state (see
    # _extension_reducible); an empty path is never a left-hand side, so
    # x|id is irreducible exactly when reading its tag gives no output
    stage: list[tuple[Term, int, list]] = []
    for x in sorted(pres.x_labels, key=lambda l: order.x_rank[l]):
        state = _goto(root, x)
        if state[5] is not None:
            continue
        if total >= limit:
            exceeded = True
            break
        source = pres.tag_source(x)
        t = Term(x, Path.identity(source))
        elements[source].append(t)
        total += 1
        stage.append((t, source, state))

    arrows_by_src: dict[int, list[tuple[Arrow, int, int]]] = {}
    for a in sorted(pres.arr_b, key=lambda a: order.delta_rank[a.label]):
        arrows_by_src.setdefault(a.src, []).append((a, idx.intern((a,))[0], a.tgt))

    while stage and not exceeded:
        next_stage: list[tuple[Term, int, list]] = []
        for t, target, state in stage:
            for arrow, code, tgt in arrows_by_src.get(target, ()):
                ext_state = _extension_reducible(state, code)
                if ext_state is None:
                    continue
                if total >= limit:
                    exceeded = True
                    break
                ext = Term(t.tag, Path(t.path.source, t.path.arrows + (arrow,)))
                elements[tgt].append(ext)
                total += 1
                next_stage.append((ext, tgt, ext_state))
            if exceeded:
                break
        stage = next_stage

    return KanTables(
        status=EnumerationStatus.LIMIT_EXCEEDED if exceeded else EnumerationStatus.FINITE,
        elements={obj: tuple(ts) for obj, ts in elements.items()},
        total=total,
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
