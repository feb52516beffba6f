"""Length-lexicographic well-ordering on paths and tagged terms.

Paths compare by length first, then left-to-right by a linear order on
arrow labels.  Terms compare by list length (tag plus arrows), then by a
linear order on element labels, then positionwise on arrows.  Both
default orders are declaration order in the presentation, so the
comparison is deterministic and user-controllable without code changes.

The comparator contract is pluggable in principle, but length-lex is the
only ordering shipped.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Sequence

from .model import KanPresentation, Path, Term


class Comparison(enum.IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


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


def compare_paths(p: Path, q: Path, order: OrderSpec) -> Comparison:
    """Longer path is greater; equal lengths compare left-to-right by label rank.

    Identical label sequences compare EQUAL (identity paths at different
    objects are only ever compared through parallel pairs).
    """
    if len(p.arrows) != len(q.arrows):
        return Comparison.GREATER if len(p.arrows) > len(q.arrows) else Comparison.LESS
    rank = order.delta_rank
    for a, b in zip(p.labels, q.labels):
        if a != b:
            return Comparison.GREATER if rank[a] > rank[b] else Comparison.LESS
    return Comparison.EQUAL


def compare_terms(t1: Term, t2: Term, order: OrderSpec) -> Comparison:
    """List length first, then tag rank, then positionwise arrow rank."""
    n1, n2 = len(t1), len(t2)
    if n1 != n2:
        return Comparison.GREATER if n1 > n2 else Comparison.LESS
    if t1.tag != t2.tag:
        return (
            Comparison.GREATER
            if order.x_rank[t1.tag] > order.x_rank[t2.tag]
            else Comparison.LESS
        )
    rank = order.delta_rank
    for a, b in zip(t1.path.labels, t2.path.labels):
        if a != b:
            return Comparison.GREATER if rank[a] > rank[b] else Comparison.LESS
    return Comparison.EQUAL


def orient_pair(a, b, order: OrderSpec):
    """Return the pair as (greater, lesser), or None when the sides are equal.

    Both arguments must be Terms, or both Paths.
    """
    if isinstance(a, Term) and isinstance(b, Term):
        c = compare_terms(a, b, order)
    elif isinstance(a, Path) and isinstance(b, Path):
        c = compare_paths(a, b, order)
    else:
        raise TypeError("cannot orient a term against a path")
    if c is Comparison.EQUAL:
        return None
    return (a, b) if c is Comparison.GREATER else (b, a)


def path_sort_key(p: Path, order: OrderSpec) -> tuple:
    rank = order.delta_rank
    return (len(p.arrows), tuple([rank[a.label] for a in p.arrows]))


def term_sort_key(t: Term, order: OrderSpec) -> tuple:
    rank = order.delta_rank
    arrows = t.path.arrows
    return (1 + len(arrows), order.x_rank[t.tag], tuple([rank[a.label] for a in arrows]))
