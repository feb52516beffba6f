"""Seeded inputs for the kanbex benchmark and the checks on their outputs.

Every input is a finite or infinite group written as a monoid
presentation with a one-point action, so its extension is the group
itself and its normal forms are words.  The seed picks the labels of the
generators and of the point (a lowercase letter and three digits, so
every seed prints the same number of bytes) and, for the reduce
workloads, the words.  Declaration order is fixed, so the length-lex
order, the rules found and the work done do not depend on the seed; the
outputs are mapped back to the canonical labels before they are compared
with the recorded digests.

The checks share no code with the engine: each generator is mapped to a
permutation (a -> (12), b -> (12345), B -> b^-1, s_i -> (i i+1)) and
words are checked by composing those permutations.
"""

from __future__ import annotations

import random
import re
import string
from dataclasses import dataclass
from typing import Sequence

POINT = "e"
Perm = tuple[int, ...]
Word = tuple[str, ...]


def _cycle(n: int, *points: int) -> Perm:
    """The cycle (p1 p2 ... pk) on 1..n, as images of 0..n-1."""
    images = list(range(n))
    for a, b in zip(points, points[1:] + points[:1]):
        images[a - 1] = b - 1
    return tuple(images)


def _inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for x, y in enumerate(p):
        inv[y] = x
    return tuple(inv)


def inversions(p: Perm) -> int:
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


@dataclass(frozen=True)
class Group:
    """A group presentation over canonical labels, with a permutation
    image of each generator that satisfies every relation."""

    name: str
    degree: int
    generators: tuple[str, ...]
    relations: tuple[tuple[Word, Word], ...]
    images: dict[str, Perm]
    # True for Coxeter presentations of S_n: a shortest word has as many
    # letters as its permutation has inversions
    length_is_inversions: bool = False

    def perm(self, word: Sequence[str], start: Perm | None = None) -> Perm:
        """Right action: x.(uv) = (x.u).v, applied after ``start``."""
        p = start if start is not None else tuple(range(self.degree))
        for g in word:
            img = self.images[g]
            p = tuple(img[x] for x in p)
        return p


def coxeter(n: int) -> Group:
    """Coxeter presentation of S_n: s_i^2, braid and far-commutation relations."""
    gens = tuple(f"s{i}" for i in range(1, n))
    rels: list[tuple[Word, Word]] = [((s, s), ()) for s in gens]
    for a, b in zip(gens, gens[1:]):
        rels.append(((a, b, a), (b, a, b)))
    for i in range(len(gens)):
        for j in range(i + 2, len(gens)):
            rels.append(((gens[j], gens[i]), (gens[i], gens[j])))
    images = {s: _cycle(n, i, i + 1) for i, s in enumerate(gens, 1)}
    return Group(f"coxeter{n}", n, gens, tuple(rels), images, length_is_inversions=True)


_B5 = _cycle(5, 1, 2, 3, 4, 5)
_S5_IMAGES = {"a": _cycle(5, 1, 2), "b": _B5, "B": _inverse(_B5)}
_VONDYCK_RELATIONS: tuple[tuple[Word, Word], ...] = (
    (("a", "a"), ()),
    (("b", "B"), ()),
    (("B", "b"), ()),
    (("b",) * 5, ()),
    (("a", "b") * 4, ()),
)

# full 2-generator presentation of S5: finite, 120 elements
S5 = Group("s5", 5, ("a", "b", "B"),
           _VONDYCK_RELATIONS + ((("a", "B", "a", "b") * 3, ()),), _S5_IMAGES)
# the infinite von Dyck group (2,5,4); S5 is a quotient of it under the
# same generator images
VONDYCK = Group("vondyck", 5, ("a", "b", "B"), _VONDYCK_RELATIONS, _S5_IMAGES)


@dataclass(frozen=True)
class Inputs:
    """One seed's inputs: the relabelled presentation and reduce words."""

    labels: dict[str, str]  # canonical label -> seeded label
    generators: tuple[str, ...]
    relations: tuple[tuple[Word, Word], ...]
    point: str
    words: tuple[Word, ...]

    @property
    def _back(self) -> dict[str, str]:
        return {v: k for k, v in self.labels.items()}

    def canonical(self, text: str) -> str:
        """Map seeded labels in printed output back to canonical ones."""
        back = self._back
        return _LABEL.sub(lambda m: back.get(m.group(), m.group()), text)

    def canonical_word(self, labels: Sequence[str]) -> Word:
        back = self._back
        return tuple(back[g] for g in labels)


_LABEL = re.compile(r"\b[a-z][0-9]{3}\b")


def make_inputs(group: Group, seed: int, words: int = 0, word_len: int = 0) -> Inputs:
    rng = random.Random(seed)
    labels: dict[str, str] = {}
    for name in group.generators + (POINT,):
        while True:
            lbl = rng.choice(string.ascii_lowercase) + str(rng.randrange(100, 1000))
            if lbl not in labels.values():
                labels[name] = lbl
                break

    def relabel(w: Word) -> Word:
        return tuple(labels[g] for g in w)

    gens = relabel(group.generators)
    return Inputs(
        labels=labels,
        generators=gens,
        relations=tuple((relabel(l), relabel(r)) for l, r in group.relations),
        point=labels[POINT],
        words=tuple(tuple(rng.choice(gens) for _ in range(word_len)) for _ in range(words)),
    )


# --- checks; each returns a list of problems, empty when the output is right ---

def check_catalogue(group: Group, order: int, stdout: str) -> list[str]:
    """``enumerate`` text output (canonical labels): one normal form per
    group element; for Coxeter groups each as long as its inversion count."""
    lines = stdout.splitlines()
    if not lines or lines[-1] != f"total={order} status=Finite":
        return [f"last line is {lines[-1:]!r}, expected total={order} status=Finite"]
    words: list[Word] = []
    for line in lines[:-1]:
        head, sep, body = line.partition(": ")
        if not sep or not head.startswith("KB"):
            return [f"unexpected line {line[:80]!r}"]
        for item in body.split(", ") if body else ():
            tag, *word = item.split("*")
            if tag != POINT:
                return [f"normal form {item!r} does not start with the point {POINT!r}"]
            words.append(tuple(word))
    problems = []
    if len(words) != order:
        problems.append(f"{len(words)} normal forms, expected {order}")
    perms: dict[Word, Perm] = {}
    for w in words:
        # a catalogue is prefix-closed, so extend the parent's permutation
        parent = perms.get(w[:-1]) if w else None
        perms[w] = group.perm(w) if parent is None else group.perm(w[-1:], parent)
    distinct = {perms[w] for w in words}
    if len(distinct) != order:
        problems.append(f"{len(distinct)} distinct permutations among {len(words)} normal forms")
    if group.length_is_inversions:
        bad = [w for w in words if len(w) != inversions(perms[w])]
        if bad:
            problems.append(f"{len(bad)} normal forms longer than their inversion count, "
                            f"first {'*'.join(bad[0])}")
    return problems


def check_reduced(group: Group, words: Sequence[Word], normal_forms: Sequence[Word]) -> list[str]:
    """Each normal form is the same group element as its input word and,
    for Coxeter groups, as long as that element's inversion count."""
    problems = []
    for k, (w, nf) in enumerate(zip(words, normal_forms)):
        p = group.perm(w)
        if group.perm(nf) != p:
            problems.append(f"word {k}: normal form is another group element")
        elif group.length_is_inversions and len(nf) != inversions(p):
            problems.append(f"word {k}: normal form has {len(nf)} letters, "
                            f"its element {inversions(p)} inversions")
    if len(normal_forms) != len(words):
        problems.append(f"{len(normal_forms)} normal forms for {len(words)} words")
    return problems


def check_rules_hold(group: Group, rules: Sequence[tuple[Word, Word]]) -> list[str]:
    """Every rule (as canonical words, the point's tag dropped) equates
    two words with the same permutation, so it holds in the quotient."""
    return [f"rule {'*'.join(l)} -> {'*'.join(r)} fails in {group.name}"
            for l, r in rules if group.perm(l) != group.perm(r)]
