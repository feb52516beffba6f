"""Independent brute-force oracles the tests check the engine against.

Nothing here reuses the engine's rewriting, overlap or enumeration
code.  Rewriting is fully nondeterministic (every rule at every
position), except in ``reference_steps``, which restates the engine's
documented strategy on slices; equivalence is computed by undirected
closure over a bounded universe, and overlaps are found by sliding one
left-hand side across the other, or, in the engine's own order and
format, by slicing the words of every ordered rule pair
(``sliced_critical_pairs``).  Only the random systems lean on the
engine: ``random_rule`` orients them with its coder and order
(``_RuleIndex`` and ``_oriented``), which ``tests/test_ordering.py``
checks against hand-written expectations.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

from kanbex import (
    Arrow,
    EpsRule,
    KanPresentation,
    OrderSpec,
    Path,
    RewriteSystem,
    Term,
    validate_presentation,
)
from kanbex.rewrite import _oriented, _RuleIndex


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx

    def partition(self):
        groups: dict = {}
        for x in self.parent:
            groups.setdefault(self.find(x), set()).add(x)
        return set(frozenset(g) for g in groups.values())


# --- nondeterministic rewriting ---

def one_step_all(t: Term, system: RewriteSystem) -> set[Term]:
    """Every single-step rewrite of a term, all rules, all positions."""
    out = set()
    arrows = t.path.arrows
    for rule in system.term_rules:
        lhs = rule.lhs
        if t.tag == lhs.tag and arrows[: len(lhs.path.arrows)] == lhs.path.arrows:
            rest = arrows[len(lhs.path.arrows):]
            out.add(Term(rule.rhs.tag, Path(rule.rhs.path.source,
                                            rule.rhs.path.arrows + rest)))
    for rule in system.path_rules:
        l = rule.lhs.arrows
        for i in range(len(arrows) - len(l) + 1):
            if arrows[i : i + len(l)] == l:
                out.add(Term(t.tag, Path(t.path.source,
                                         arrows[:i] + rule.rhs.arrows + arrows[i + len(l):])))
    return out


def one_step_all_path(p: Path, system: RewriteSystem) -> set[Path]:
    out = set()
    arrows = p.arrows
    for rule in system.path_rules:
        l = rule.lhs.arrows
        for i in range(len(arrows) - len(l) + 1):
            if arrows[i : i + len(l)] == l:
                out.add(Path(p.source, arrows[:i] + rule.rhs.arrows + arrows[i + len(l):]))
    return out


def reachable(t: Term, system: RewriteSystem, cap: int = 100000) -> set[Term]:
    seen = {t}
    queue = deque([t])
    while queue:
        cur = queue.popleft()
        for nxt in one_step_all(cur, system):
            if nxt not in seen:
                if len(seen) >= cap:
                    raise RuntimeError("reachability cap exceeded")
                seen.add(nxt)
                queue.append(nxt)
    return seen


def brute_normal_form(t: Term, system: RewriteSystem) -> Term:
    """The unique irreducible among all rewrites of t; fails if not unique."""
    irreducible = {s for s in reachable(t, system) if not one_step_all(s, system)}
    assert len(irreducible) == 1, f"non-unique normal forms: {irreducible}"
    return irreducible.pop()


def reference_steps(word: Term | Path, system: RewriteSystem):
    """``word`` and then each word it is rewritten to, by the documented
    strategy, trying every rule at every position on slices.  Each round
    applies the occurrence of a left-hand side that starts leftmost (a
    term rule's starts at the tag, left of every arrow), the shortest at
    that start, and for one left-hand side the rule listed first in
    ``system.rules``.  A bare path sees only the path rules, and a path
    rule with an empty left-hand side never applies."""
    rules = system.rules
    yield word
    while True:
        tag = word.tag if isinstance(word, Term) else None
        path = word.path if tag is not None else word
        arrows = path.arrows
        best = None
        for k, rule in enumerate(rules):
            if isinstance(rule, EpsRule):
                l = rule.lhs.path.arrows
                starts = [0] if rule.lhs.tag == tag and arrows[: len(l)] == l else []
            else:
                l = rule.lhs.arrows
                starts = [i + 1 for i in range(len(arrows) - len(l) + 1)
                          if l and arrows[i : i + len(l)] == l]
            for start in starts:
                if best is None or (start, len(l)) < best[:2]:
                    best = (start, len(l), rule)
        if best is None:
            return
        start, n, rule = best
        if start == 0:
            rest = rule.rhs.path.arrows + arrows[n:]
            word = Term(rule.rhs.tag, Path(rule.rhs.path.source, rest))
        else:
            rest = arrows[: start - 1] + rule.rhs.arrows + arrows[start - 1 + n :]
            word = Term(tag, Path(path.source, rest)) if tag is not None else Path(path.source, rest)
        yield word


def reference_reduce(word: Term | Path, system: RewriteSystem) -> Term | Path:
    """The last of ``reference_steps``: the normal form of ``word``."""
    for word in reference_steps(word, system):
        pass
    return word


# --- bounded universes ---

def all_paths_from(pres: KanPresentation, src: int, max_arrows: int) -> list[Path]:
    by_src: dict[int, list[Arrow]] = {}
    for a in pres.arr_b:
        by_src.setdefault(a.src, []).append(a)
    out = [Path(src)]
    frontier = [Path(src)]
    for _ in range(max_arrows):
        nxt = []
        for p in frontier:
            for a in by_src.get(p.target, ()):
                nxt.append(Path(src, p.arrows + (a,)))
        out.extend(nxt)
        frontier = nxt
    return out


def all_terms(pres: KanPresentation, max_len: int) -> list[Term]:
    """Every valid term of list length at most max_len."""
    out = []
    for x in pres.x_labels:
        src = pres.tag_source(x)
        for p in all_paths_from(pres, src, max_len - 1):
            out.append(Term(x, p))
    return out


def closure_partition(pres: KanPresentation, system: RewriteSystem, max_len: int):
    """Equivalence classes of all terms of length <= max_len under the
    undirected one-step relation, staying inside the bounded universe.
    Rules never lengthen terms (oriented by length-lex), so every rewrite
    of a universe term stays in the universe."""
    universe = all_terms(pres, max_len)
    uf = UnionFind(universe)
    for t in universe:
        for u in one_step_all(t, system):
            uf.union(t, u)
    return uf


# --- all-alignments overlap oracle ---

def _rule_lists(rule):
    if isinstance(rule, EpsRule):
        return (rule.lhs.tag,) + rule.lhs.path.labels, (rule.rhs.tag,) + rule.rhs.path.labels
    return rule.lhs.labels, rule.rhs.labels


def canonical_pair(left, right) -> frozenset:
    def side(x):
        if isinstance(x, Term):
            return ("T", x.tag) + x.path.labels
        return ("P", "id", x.source) if x.is_identity else ("P",) + x.labels
    return frozenset([side(left), side(right)])


def alignment_critical_pairs(rule1, rule2, pres: KanPresentation) -> set[frozenset]:
    """Slide List(lhs2) across List(lhs1) over every offset; each matching
    alignment with a valid superword yields a critical pair, built by
    splicing each rule's right-hand side into the superword."""
    tags = set(pres.x_labels)
    by_label = pres.arrow_by_label
    l1, r1 = _rule_lists(rule1)
    l2, r2 = _rule_lists(rule2)
    out: set[frozenset] = set()
    for d in range(-(len(l2) - 1), len(l1)):
        lo, hi = max(0, d), min(len(l1), d + len(l2))
        if hi <= lo:
            continue
        if any(l1[i] != l2[i - d] for i in range(lo, hi)):
            continue
        if rule1 is rule2 and d == 0:
            continue  # trivial full self-overlap
        start, end = min(0, d), max(len(l1), d + len(l2))
        super_word = [
            l1[pos] if 0 <= pos < len(l1) else l2[pos - d]
            for pos in range(start, end)
        ]
        # a tag is only legal at the very start of the superword
        if any(s in tags for s in super_word[1:]):
            continue
        span1 = (0 - start, len(l1) - start)
        span2 = (d - start, d + len(l2) - start)
        res1 = super_word[: span1[0]] + list(r1) + super_word[span1[1]:]
        res2 = super_word[: span2[0]] + list(r2) + super_word[span2[1]:]
        out.add(frozenset([
            _interpret(res1, tags, by_label, super_word, pres),
            _interpret(res2, tags, by_label, super_word, pres),
        ]))
    return out


def _interpret(labels, tags, by_label, super_word, pres):
    if labels and labels[0] in tags:
        return ("T",) + tuple(labels)
    if not labels:
        # an erased path side: source = source of the superword's path part
        src_label = super_word[1] if super_word[0] in tags else super_word[0]
        src = pres.tag_source(super_word[0]) if super_word[0] in tags else by_label[src_label].src
        return ("P", "id", src)
    return ("P",) + tuple(labels)


# --- sliced critical pairs ---

def _is_term(word: tuple) -> bool:
    return bool(word) and isinstance(word[0], str)


def sliced_critical_pairs(rules: list[tuple]) -> list[tuple]:
    """The critical pairs of coded rules as ``(case, (i, j), left, right)``
    with coded sides, host rule ``i`` first.  For each ordered rule pair
    (self-pairs included) it emits every containment of rule j's lhs in
    rule i's by position, then every proper end overlap, a suffix of i's
    lhs that is a prefix of j's, by length.  A term's word starts with
    its tag, so a term lhs lies only at the start of another term's and
    never ends an overlap; the trivial full self-overlap is skipped.

    A rule is coded as ``(lhs source, lhs word, rhs source, rhs word)``, a
    term's word starting with its tag.  This is the engine's pair finder
    before it read the pairs off its automaton, kept as it was: it slices
    the words of every ordered rule pair."""
    out = []
    for i, (ls, li, rs, ri) in enumerate(rules):
        ni = len(li)
        host_term = _is_term(li)
        for j, (_, lj, rsj, rj) in enumerate(rules):
            nj = len(lj)
            if _is_term(lj):
                if host_term and i != j and nj <= ni and li[:nj] == lj:
                    out.append(("i", (i, j), (rsj, rj + li[nj:]), (rs, ri)))
                continue
            if i != j:
                # an arrow's code never matches a term's tag
                for pos in range(1 if host_term else 0, ni - nj + 1):
                    if li[pos:pos + nj] == lj:
                        spliced = (ls, li[:pos] + rj + li[pos + nj:])
                        out.append(("v" if host_term else "ii", (i, j), (rs, ri), spliced))
            for o in range(1, min(ni, nj)):
                if li[ni - o:] == lj[:o]:
                    out.append(("iv" if host_term else "iii", (i, j),
                                (rs, ri + lj[o:]), (ls, li[:ni - o] + rj)))
    return out


# --- word-level closure (independent of the term machinery) ---

def word_closure_classes(
    generators: tuple[str, ...],
    relations,
    prefix_words,
    max_len: int,
):
    """Classes of words of length <= max_len under two-sided relation
    rewrites plus prefix rewrites w ~ s.w for each prefix word s, the
    whole closure bounded by max_len."""
    words = [()]
    for n in range(1, max_len + 1):
        words += [t for t in itertools.product(generators, repeat=n)]
    uf = UnionFind(words)
    moves = [(tuple(l), tuple(r)) for l, r in relations]
    moves += [(r, l) for l, r in moves]
    for w in words:
        for l, r in moves:
            for i in range(len(w) - len(l) + 1):
                if w[i : i + len(l)] == l:
                    out = w[:i] + r + w[i + len(l):]
                    if len(out) <= max_len:
                        uf.union(w, out)
        for s in prefix_words:
            s = tuple(s)
            if len(s) + len(w) <= max_len:
                uf.union(w, s + w)
            if w[: len(s)] == s:
                uf.union(w, w[len(s):])
    return uf


def orbit_partition(points, generators, action) -> set[frozenset]:
    uf = UnionFind(points)
    for g in generators:
        for p, q in zip(points, action[g]):
            uf.union(p, q)
    return uf.partition()


def equivariant_quotient_partition(points, pairs, generators, action) -> set[frozenset]:
    """Smallest equivalence containing the pairs and closed under the
    action: iterate merge-then-saturate until stable."""
    uf = UnionFind(points)
    for p, q in pairs:
        uf.union(p, q)
    changed = True
    while changed:
        changed = False
        for g in generators:
            images = dict(zip(points, action[g]))
            roots: dict = {}
            for p in points:
                r = uf.find(p)
                if r in roots:
                    if uf.find(images[p]) != uf.find(images[roots[r]]):
                        uf.union(images[p], images[roots[r]])
                        changed = True
                else:
                    roots[r] = p
    return uf.partition()


# --- random presentations ---

_DELTA_NAMES = ("d1", "d2", "d3", "d4")
_X_NAMES = ("u1", "u2", "u3", "u4")


def random_presentation(
    rng: random.Random,
    max_b_objects: int = 3,
    max_b_arrows: int = 4,
    max_x: int = 4,
    max_word: int = 3,
    max_relations: int = 2,
    max_a_arrows: int = 3,
) -> KanPresentation:
    nb = rng.randint(1, max_b_objects)
    ob_b = tuple(range(1, nb + 1))
    n_arr = rng.randint(0, max_b_arrows)
    arr_b = tuple(
        Arrow(_DELTA_NAMES[i], rng.randint(1, nb), rng.randint(1, nb))
        for i in range(n_arr)
    )

    by_pair: dict[tuple[int, int], list[Path]] = {}
    frontier = [Path(o) for o in ob_b]
    paths = list(frontier)
    for _ in range(max_word):
        nxt = []
        for p in frontier:
            for a in arr_b:
                if a.src == p.target:
                    nxt.append(Path(p.source, p.arrows + (a,)))
        paths.extend(nxt)
        frontier = nxt
    for p in paths:
        by_pair.setdefault((p.source, p.target), []).append(p)

    rel_b = []
    parallel = [v for v in by_pair.values() if len(v) >= 2]
    for _ in range(rng.randint(0, max_relations)):
        if not parallel:
            break
        group = rng.choice(parallel)
        l, r = rng.sample(group, 2)
        rel_b.append((l, r))

    na = rng.randint(1, 2)
    ob_a = tuple(range(1, na + 1))
    f_ob_a = tuple(rng.choice(ob_b) for _ in ob_a)

    pool = list(_X_NAMES[: rng.randint(0, max_x)])
    rng.shuffle(pool)
    x_ob_a: list[tuple[str, ...]] = [() for _ in ob_a]
    for x in pool:
        i = rng.randrange(na)
        x_ob_a[i] = x_ob_a[i] + (x,)

    arr_a = []
    f_arr_a = []
    x_arr_a = []
    for _ in range(rng.randint(0, max_a_arrows)):
        for _attempt in range(8):
            s, t = rng.choice(ob_a), rng.choice(ob_a)
            if x_ob_a[s - 1] and not x_ob_a[t - 1]:
                continue  # no valid images available
            options = by_pair.get((f_ob_a[s - 1], f_ob_a[t - 1]), [])
            if not options:
                continue
            arr_a.append((s, t))
            f_arr_a.append(rng.choice(options))
            x_arr_a.append(tuple(rng.choice(x_ob_a[t - 1]) for _ in x_ob_a[s - 1]))
            break

    pres = KanPresentation(
        ob_a=ob_a, arr_a=tuple(arr_a),
        ob_b=ob_b, arr_b=arr_b, rel_b=tuple(rel_b),
        f_ob_a=f_ob_a, f_arr_a=tuple(f_arr_a),
        x_ob_a=tuple(x_ob_a), x_arr_a=tuple(x_arr_a),
    )
    assert validate_presentation(pres).ok
    return pres


def random_term(rng: random.Random, pres: KanPresentation, max_len: int) -> Term | None:
    if not pres.x_labels:
        return None
    x = rng.choice(pres.x_labels)
    by_src: dict[int, list[Arrow]] = {}
    for a in pres.arr_b:
        by_src.setdefault(a.src, []).append(a)
    path = Path(pres.tag_source(x))
    for _ in range(rng.randint(0, max_len - 1)):
        options = by_src.get(path.target, [])
        if not options:
            break
        a = rng.choice(options)
        path = Path(path.source, path.arrows + (a,))
    return Term(x, path)


def random_parallel_paths(rng: random.Random, pres: KanPresentation, max_word: int):
    by_pair: dict[tuple[int, int], list[Path]] = {}
    frontier = [Path(o) for o in pres.ob_b]
    paths = list(frontier)
    for _ in range(max_word):
        nxt = []
        for p in frontier:
            for a in pres.arr_b:
                if a.src == p.target:
                    nxt.append(Path(p.source, p.arrows + (a,)))
        paths.extend(nxt)
        frontier = nxt
    for p in paths:
        by_pair.setdefault((p.source, p.target), []).append(p)
    parallel = [v for v in by_pair.values() if len(v) >= 2]
    if not parallel:
        return None
    return tuple(rng.sample(rng.choice(parallel), 2))


def random_rule(rng: random.Random, pres: KanPresentation, order: OrderSpec):
    """A random oriented rule over the presentation: a path rule between
    parallel paths, or a term rule between terms with a common target."""
    idx = _RuleIndex(order=order, arrows=pres.arr_b)

    def oriented(a, b):
        rule = _oriented(idx.encode(a), idx.encode(b), order.x_rank)
        return None if rule is None else idx.rule(rule)

    if rng.random() < 0.5 or not pres.x_labels:
        pair = random_parallel_paths(rng, pres, 3)
        return None if pair is None else oriented(*pair)
    t1 = random_term(rng, pres, 4)
    if t1 is None:
        return None
    # find a second term with the same target
    for _ in range(12):
        t2 = random_term(rng, pres, 4)
        if t2 is not None and t2.target == t1.target and t2 != t1:
            return oriented(t1, t2)
    return None
