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
from .rewrite import RewriteSystem, _reduce_term, check_confluence, reduce_term

DEFAULT_LIMIT = 1000


class EnumerationStatus(enum.Enum):
    FINITE = "Finite"
    LIMIT_EXCEEDED = "LimitExceeded"


@dataclass(frozen=True)
class NormalForm:
    """A term irreducible with respect to the active complete system."""

    term: Term

    @property
    def target(self) -> int:
        return self.term.target


@dataclass(frozen=True)
class KanTables:
    """Catalogue of normal forms keyed by their target object."""

    status: EnumerationStatus
    elements: Mapping[int, tuple[NormalForm, ...]]
    total: int

    @property
    def finite(self) -> bool:
        return self.status is EnumerationStatus.FINITE


def _extension_reducible(state: tuple, code: int) -> tuple | None:
    """Advance an irreducible term's trie state by one arrow's code.

    The state is the term's node in its tag's term trie (None once no
    term lhs has the term's path as a prefix) and the path-trie nodes
    that the path's suffixes reach, the root for the empty one first.
    The term was irreducible, so only matches touching the new final
    arrow are possible: a term rule covering the whole path, or a path
    rule matching a suffix.  Returns None when the extension is
    reducible and its state otherwise.
    """
    term, suffixes = state
    if term is not None:
        term = term[1].get(code)
        if term is not None and term[0] is not None:
            return None
    reached = [suffixes[0]]
    for node in suffixes:
        node = node[1].get(code)
        if node is not None:
            if node[0] is not None:
                return None
            reached.append(node)
    return term, tuple(reached)


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

    found: list[Term] = []
    exceeded = False

    # each stage term carries its trie state (see _extension_reducible)
    stage: list[tuple[Term, tuple]] = []
    for x in sorted(pres.x_labels, key=lambda l: order.x_rank[l]):
        t = Term(x, Path.identity(pres.tag_source(x)))
        if _reduce_term(t, idx) != t:
            continue
        if len(found) >= limit:
            exceeded = True
            break
        found.append(t)
        stage.append((t, (idx.terms.get(x), (idx.paths,))))

    arrows_by_src: dict[int, list[tuple[Arrow, int]]] = {}
    for a in sorted(pres.arr_b, key=lambda a: order.delta_rank[a.label]):
        arrows_by_src.setdefault(a.src, []).append((a, idx.encode((a,))[0]))

    while stage and not exceeded:
        next_stage: list[tuple[Term, tuple]] = []
        for t, state in stage:
            for arrow, code in arrows_by_src.get(t.target, ()):
                ext_state = _extension_reducible(state, code)
                if ext_state is None:
                    continue
                if len(found) >= limit:
                    exceeded = True
                    break
                ext = Term(t.tag, Path(t.path.source, t.path.arrows + (arrow,)))
                found.append(ext)
                next_stage.append((ext, ext_state))
            if exceeded:
                break
        stage = next_stage

    elements: dict[int, list[NormalForm]] = {obj: [] for obj in pres.ob_b}
    for t in found:
        elements[t.target].append(NormalForm(t))
    return KanTables(
        status=EnumerationStatus.LIMIT_EXCEEDED if exceeded else EnumerationStatus.FINITE,
        elements={obj: tuple(nfs) for obj, nfs in elements.items()},
        total=len(found),
    )


def tau_bar(nf: NormalForm) -> int:
    """Target object of a normal form (its path's source when identity)."""
    return nf.term.target


def act(nf: NormalForm, q: Path, system: RewriteSystem) -> NormalForm:
    """Right action: append the path, then reduce."""
    if q.source != nf.term.target:
        raise CompositionError(
            f"action source mismatch: element sits over {nf.term.target}, "
            f"path starts at {q.source}"
        )
    return NormalForm(reduce_term(nf.term.act(q), system))


def epsilon(x: str, pres: KanPresentation, system: RewriteSystem) -> NormalForm:
    """Image of an element under the comparison map: reduce ``x|id``."""
    t = Term(x, Path.identity(pres.tag_source(x)))
    return NormalForm(reduce_term(t, system))


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
