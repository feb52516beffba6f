"""Length-lexicographic well-ordering on paths and tagged terms.

Paths compare by length first, then left-to-right by a linear order on
arrow labels.  Terms compare by list length (tag plus arrows), then by a
linear order on element labels, then positionwise on arrows.  Both
default orders are declaration order in the presentation, so the
comparison is deterministic and user-controllable without code changes.

The sort keys are the order's only encoding: two paths (or two terms)
compare as their keys do, and equal keys mean equal label lists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .model import KanPresentation, Path, Term


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


def path_sort_key(p: Path, order: OrderSpec) -> tuple:
    rank = order.delta_rank
    return (len(p.arrows), tuple([rank[a.label] for a in p.arrows]))


def term_sort_key(t: Term, order: OrderSpec) -> tuple:
    rank = order.delta_rank
    arrows = t.path.arrows
    return (1 + len(arrows), order.x_rank[t.tag], tuple([rank[a.label] for a in arrows]))


def orient_pair(a, b, order: OrderSpec):
    """Return the pair as (greater, lesser), or None when the sides are equal.

    Both arguments must be Terms, or both Paths.
    """
    if isinstance(a, Term) and isinstance(b, Term):
        key = term_sort_key
    elif isinstance(a, Path) and isinstance(b, Path):
        key = path_sort_key
    else:
        raise TypeError("cannot orient a term against a path")
    ka, kb = key(a, order), key(b, order)
    if ka == kb:
        return None
    return (a, b) if ka > kb else (b, a)
