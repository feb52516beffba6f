"""Length-lexicographic well-ordering on paths and tagged terms.

Paths compare by length first, then left-to-right by a linear order on
arrow labels.  Terms compare by list length (tag plus arrows), then by a
linear order on element labels, then positionwise on arrows.  Both
default orders are declaration order in the presentation, so the
comparison is deterministic and user-controllable without code changes.

``word_key`` is the one definition of the order: on words of arrow
codes, a term's word starting with its tag.  The rule index in
``rewrite`` is what codes paths and terms, interning arrows in
``delta_rank`` order; two paths (or two terms) so coded compare as their
words' keys do, and equal keys mean equal label lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .model import KanPresentation


@dataclass(frozen=True, eq=False)
class OrderSpec:
    """Linear orders on the two label namespaces, as rank maps."""

    x_rank: Mapping[str, int]
    delta_rank: Mapping[str, int]

    @classmethod
    def from_presentation(
        cls,
        pres: KanPresentation,
        x_order: Sequence[str] | None = None,
        delta_order: Sequence[str] | None = None,
    ) -> "OrderSpec":
        deltas = tuple(delta_order) if delta_order is not None else pres.delta_labels
        xs = tuple(x_order) if x_order is not None else pres.x_labels
        if set(deltas) != set(pres.delta_labels) or len(set(deltas)) != len(deltas):
            raise ValueError("arrow order must be a permutation of the arrow labels")
        if set(xs) != set(pres.x_labels) or len(set(xs)) != len(xs):
            raise ValueError("element order must be a permutation of the element labels")
        return cls(
            x_rank={l: i for i, l in enumerate(xs)},
            delta_rank={l: i for i, l in enumerate(deltas)},
        )


def word_key(word: tuple, x_rank: Mapping[str, int]) -> tuple:
    """Length-lex key of a path's word of arrow codes, or of a term's word
    (its tag, then its arrow codes): paths before terms, then by length,
    then a term's tag by ``x_rank``, then the codes left to right.

    Words compare as the paths and terms they code only when the codes
    increase with ``delta_rank``: an arrow coded by its rank, or arrows
    interned in rank order.
    """
    if word and isinstance(word[0], str):
        return 1, len(word), x_rank[word[0]], word
    return 0, len(word), word
