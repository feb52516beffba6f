"""Rules, reduction, overlap analysis and the completion loop.

Two kinds of rule coexist.  Term rules are one-sided and anchored at the
tag: a rule ``x|l -> u`` rewrites any term ``x|lq`` to ``u.q``.  Path
rules are two-sided: a rule ``l -> r`` between parallel paths rewrites
any factor ``l`` occurring right of the tag.  Overlaps between left-hand
sides come in five shapes, all of which reduce to two kinds of list
overlap (containment, and end-to-start matching); unresolved critical
pairs are oriented and added until every pair resolves, which by
Newman's lemma makes the terminating reduction relation confluent.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .model import (
    Arrow,
    KanPresentation,
    Path,
    PresentationError,
    Term,
    compose_paths,
    format_path,
    format_term,
    term_as_list,
    validate_presentation,
)
from .ordering import OrderSpec, orient_pair, path_sort_key, term_sort_key


@dataclass(frozen=True)
class EpsRule:
    """Tag-anchored term rule; both sides share the same target object."""

    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class KRule:
    """Two-sided rule between parallel paths."""

    lhs: Path
    rhs: Path


Rule = EpsRule | KRule


class _RuleIndex:
    """An Aho-Corasick automaton over int-coded left-hand sides.

    Each index interns the arrow labels it meets to small ints: ``codes``
    maps a label to its int and ``arrows`` maps it back.  Labels are
    unique within a presentation, and every index owns its table, so
    codes never mix presentations.  One trie holds both kinds of rule: a
    path rule is keyed by its lhs's codes, a term rule by its tag and
    then its path's codes.  A tag is its own code, a str, so it never
    equals an arrow's int and only starts a key.

    A node is ``[rhs, children, delta, depth, fail, out]``.  ``rhs`` is
    None unless a left-hand side ends at the node; it is ``(source,
    codes)``, where a term rule's codes start with its tag and ``source``
    is its path's source.  ``children`` are the trie edges, ``depth`` the
    length of the node's key, ``fail`` the node of its longest proper
    suffix in the trie, and ``out`` the node itself if an lhs ends there,
    else the nearest such node along ``fail``.  ``delta`` memoises
    transitions on first use (see ``_goto``).  The links are built once
    the initial rules are in, and again after each ``add`` that makes a
    terminal.  ``interreduce`` may clear an ``rhs`` for a moment; a
    lookup then skips that terminal.
    Insertion never overwrites an ``rhs``, so the first-added rule wins
    for a given left-hand side.  A system's cached index is shared and
    only read; only ``complete`` and ``interreduce`` change the indexes
    they build.
    """

    __slots__ = ("codes", "arrows", "root", "_lock")

    def __init__(self, rules: Iterable[Rule] = ()):
        self.codes: dict[str, int] = {}
        self.arrows: list[Arrow] = []
        self.root: list = [None, {}, {}, 0, None, None]
        # a system's index is shared, and encoding interns unseen labels
        self._lock = threading.Lock()
        for r in rules:
            self._insert(r)
        self._link()

    def encode(self, arrows: tuple[Arrow, ...]) -> tuple[int, ...]:
        codes = self.codes
        try:
            return tuple([codes[a.label] for a in arrows])
        except KeyError:
            with self._lock:
                for a in arrows:
                    if a.label not in codes:
                        # publish the arrow before its code
                        self.arrows.append(a)
                        codes[a.label] = len(self.arrows) - 1
            return tuple([codes[a.label] for a in arrows])

    def decode(self, source: int, codes: tuple[int, ...]) -> Path:
        arrows = self.arrows
        return Path(source, tuple([arrows[c] for c in codes]))

    def node(self, rule: Rule) -> list:
        """The trie node of ``rule``'s left-hand side, made if missing."""
        if isinstance(rule, EpsRule):
            key = (rule.lhs.tag,) + self.encode(rule.lhs.path.arrows)
        else:
            key = self.encode(rule.lhs.arrows)
        node = self.root
        for c in key:
            child = node[1].get(c)
            if child is None:
                child = node[1][c] = [None, {}, {}, node[3] + 1, None, None]
            node = child
        return node

    def rhs(self, rule: Rule) -> tuple:
        """``rule``'s right-hand side as its trie node holds it."""
        if isinstance(rule, EpsRule):
            r = rule.rhs
            return r.path.source, (r.tag,) + self.encode(r.path.arrows)
        return rule.rhs.source, self.encode(rule.rhs.arrows)

    def add(self, rule: Rule) -> None:
        if self._insert(rule):
            self._link()

    def _insert(self, rule: Rule) -> bool:
        """Insert ``rule``; True if its left-hand side became a terminal."""
        node = self.node(rule)
        if node[0] is not None:
            return False
        node[0] = self.rhs(rule)
        return True

    def _link(self) -> None:
        # breadth first, so every suffix is linked before its extensions
        root = self.root
        root[2] = dict(root[1])
        queue = [root]
        for node in queue:
            for c, child in node[1].items():
                child[4] = _goto(node[4], c) if node[3] else root
                child[2] = dict(child[1])
                # the root is never an output: an empty path lhs would
                # match everywhere, and it never applies
                child[5] = child if child[0] is not None else child[4][5]
                queue.append(child)


def _goto(node: list, code) -> list:
    """The state after reading ``code`` in ``node``, memoised on ``node``:
    the child on ``code``, else the transition from the failure state
    (the root when no state on the failure chain has one)."""
    nxt = node[2].get(code)
    if nxt is None:
        state = node
        while nxt is None and state[3]:
            state = state[4]
            nxt = state[2].get(code)
        node[2][code] = nxt = nxt or state
    return nxt


def _rewrite(source: int, word: tuple, idx: _RuleIndex) -> tuple[int, list]:
    """Rewrite a coded word until no rule applies; a term's word starts
    with its tag.  Each round applies the match with the leftmost start,
    the shortest at that start, so term rules (which start at the tag)
    come first.  One left-to-right scan keeps ``states[k]``, the state
    after ``word[:k]``; at each position the longest match ending there
    has the earliest start of those ending there.  The scan reads on
    only while a live prefix started left of the best start so far, and
    after a rewrite resumes from the state at the match's start."""
    word = list(word)
    states = [idx.root]
    push = states.append
    s = states[0]
    k = 0
    n = len(word)
    best = n + 1  # start of the leftmost match so far; past the end: none
    while True:
        while k < n and k - s[3] < best:
            c = word[k]
            s = s[2].get(c) or _goto(s, c)
            k += 1
            push(s)
            m = s[5]
            if m is not None:
                while m is not None and m[0] is None:
                    m = m[4][5]
                if m is not None and k - m[3] < best:
                    best, end, rhs = k - m[3], k, m[0]
        if best > n:
            return source, word
        if not best:
            source = rhs[0]
        word[best:end] = rhs[1]
        del states[best + 1:]
        s = states[best]
        k = best
        n = len(word)
        best = n + 1


def _reduce_term(t: Term, idx: _RuleIndex) -> Term:
    source, word = _rewrite(t.path.source, (t.tag,) + idx.encode(t.path.arrows), idx)
    return Term(word[0], idx.decode(source, word[1:]))


def _reduce_path(p: Path, idx: _RuleIndex) -> Path:
    source, word = _rewrite(p.source, idx.encode(p.arrows), idx)
    return idx.decode(source, word)


@dataclass(frozen=True)
class RewriteSystem:
    """A pair of rule families: term rules and path rules."""

    term_rules: tuple[EpsRule, ...] = ()
    path_rules: tuple[KRule, ...] = ()

    def __len__(self) -> int:
        return len(self.term_rules) + len(self.path_rules)

    @property
    def rules(self) -> tuple[Rule, ...]:
        return self.term_rules + self.path_rules

    @cached_property
    def _index(self) -> _RuleIndex:
        return _RuleIndex(self.rules)


class CompletionStatus(enum.Enum):
    COMPLETE = "complete"
    LIMIT_EXCEEDED = "limit_exceeded"


@dataclass(frozen=True)
class CompletionResult:
    status: CompletionStatus
    reason: str | None
    system: RewriteSystem
    passes: int
    rules_added: int

    @property
    def complete(self) -> bool:
        return self.status is CompletionStatus.COMPLETE


@dataclass(frozen=True)
class CriticalPair:
    """Two distinct one-step reducts of a common critical term.

    ``case`` records the overlap shape ("i".."v"); ``rules`` the pair of
    indices (host rule first) into the system's combined rule tuple.
    """

    left: Term | Path
    right: Term | Path
    case: str
    rules: tuple[int, int]

    @property
    def is_term_pair(self) -> bool:
        return isinstance(self.left, Term)


def reduce_term(t: Term, system: RewriteSystem) -> Term:
    """Rewrite until no rule applies.  Requires an oriented system."""
    return _reduce_term(t, system._index)


def reduce_path(p: Path, system: RewriteSystem) -> Path:
    """Rewrite a bare path with the path rules only."""
    return _reduce_path(p, system._index)


def initial_rules(pres: KanPresentation, order: OrderSpec | None = None) -> RewriteSystem:
    """Build the initial system: one term rule per (arrow, element) pair,
    one path rule per relation, all oriented.

    Pairs whose sides are identical are dropped; duplicates collapse.
    """
    report = validate_presentation(pres)
    if not report.ok:
        raise PresentationError("invalid presentation: " + "; ".join(report.violations))
    if order is None:
        order = OrderSpec.from_presentation(pres)

    term_rules: list[EpsRule] = []
    seen: set = set()
    for k, (s, t) in enumerate(pres.arr_a):
        f_image = pres.f_arr_a[k]
        elements = pres.x_ob_a[pres.ob_a_index[s]]
        images = pres.x_arr_a[k]
        tgt_identity = Path.identity(pres.f_ob_a[pres.ob_a_index[t]])
        for x, image in zip(elements, images):
            pair = orient_pair(Term(x, f_image), Term(image, tgt_identity), order)
            if pair is None:
                continue
            rule = EpsRule(*pair)
            if rule not in seen:
                seen.add(rule)
                term_rules.append(rule)

    path_rules: list[KRule] = []
    for l, r in pres.rel_b:
        pair = orient_pair(l, r, order)
        if pair is None:
            continue
        rule = KRule(*pair)
        if rule not in seen:
            seen.add(rule)
            path_rules.append(rule)

    return RewriteSystem(tuple(term_rules), tuple(path_rules))


def _subpath(p: Path, start: int, stop: int | None = None) -> Path:
    arrows = p.arrows[start:stop]
    if arrows:
        return Path(arrows[0].src, arrows)
    if start < len(p.arrows):
        return Path(p.arrows[start].src)
    return Path(p.target)


def _splice(p: Path, start: int, length: int, replacement: Path) -> Path:
    return Path(p.source, p.arrows[:start] + replacement.arrows + p.arrows[start + length :])


def _lhs_list(rule: Rule) -> tuple[str, ...]:
    if isinstance(rule, EpsRule):
        return tuple(term_as_list(rule.lhs))
    return rule.lhs.labels


def find_critical_pairs(system: RewriteSystem) -> list[CriticalPair]:
    """All critical pairs, found by list containment and end-to-start
    matching over every ordered rule pair (self-pairs included, the
    trivial full self-overlap excluded)."""
    rules = system.rules
    lists = [_lhs_list(r) for r in rules]
    out: list[CriticalPair] = []
    for i, ri in enumerate(rules):
        li = lists[i]
        ni = len(li)
        for j, rj in enumerate(rules):
            lj = lists[j]
            nj = len(lj)
            # containment: lj occurs inside li
            if nj <= ni:
                for pos in range(ni - nj + 1):
                    if i == j and pos == 0 and nj == ni:
                        continue
                    if li[pos : pos + nj] == lj:
                        out.append(_containment_pair(ri, rj, pos, i, j))
            # proper end overlap: a suffix of li is a prefix of lj
            for o in range(1, min(ni, nj)):
                if li[ni - o :] == lj[:o]:
                    cp = _end_overlap_pair(ri, rj, o, i, j)
                    if cp is not None:
                        out.append(cp)
    return out


def _containment_pair(ri: Rule, rj: Rule, pos: int, i: int, j: int) -> CriticalPair:
    if isinstance(ri, EpsRule) and isinstance(rj, EpsRule):
        # rj's lhs is a tag-anchored prefix of ri's lhs
        q = _subpath(ri.lhs.path, len(rj.lhs.path.arrows))
        left = Term(rj.rhs.tag, compose_paths(rj.rhs.path, q))
        return CriticalPair(left, ri.rhs, "i", (i, j))
    if isinstance(ri, EpsRule) and isinstance(rj, KRule):
        spliced = Term(ri.lhs.tag, _splice(ri.lhs.path, pos - 1, len(rj.lhs.arrows), rj.rhs))
        return CriticalPair(ri.rhs, spliced, "v", (i, j))
    assert isinstance(ri, KRule) and isinstance(rj, KRule)
    spliced = _splice(ri.lhs, pos, len(rj.lhs.arrows), rj.rhs)
    return CriticalPair(ri.rhs, spliced, "ii", (i, j))


def _end_overlap_pair(ri: Rule, rj: Rule, o: int, i: int, j: int) -> CriticalPair | None:
    if isinstance(rj, EpsRule):
        return None  # a term list starts with a tag, never matched by a suffix
    tail = _subpath(rj.lhs, o)
    if isinstance(ri, EpsRule):
        n = len(ri.lhs.path.arrows)
        left = Term(ri.rhs.tag, compose_paths(ri.rhs.path, tail))
        stem = Term(ri.lhs.tag, compose_paths(_subpath(ri.lhs.path, 0, n - o), rj.rhs))
        return CriticalPair(left, stem, "iv", (i, j))
    n = len(ri.lhs.arrows)
    left = compose_paths(ri.rhs, tail)
    right = compose_paths(_subpath(ri.lhs, 0, n - o), rj.rhs)
    return CriticalPair(left, right, "iii", (i, j))


def resolves(cp: CriticalPair, system: RewriteSystem) -> bool:
    """A pair resolves when both sides reduce to the same object."""
    idx = system._index
    reduce = _reduce_term if cp.is_term_pair else _reduce_path
    return reduce(cp.left, idx) == reduce(cp.right, idx)


def check_confluence(system: RewriteSystem) -> bool:
    """Local confluence; with oriented rules this is full confluence."""
    return all(resolves(cp, system) for cp in find_critical_pairs(system))


def _pair_sort_key(cp: CriticalPair, order: OrderSpec) -> tuple:
    if cp.is_term_pair:
        ka = term_sort_key(cp.left, order)
        kb = term_sort_key(cp.right, order)
        return (1, max(ka, kb), cp.rules, cp.case)
    ka = path_sort_key(cp.left, order)
    kb = path_sort_key(cp.right, order)
    return (0, max(ka, kb), cp.rules, cp.case)


def complete(
    system: RewriteSystem,
    order: OrderSpec,
    *,
    max_rules: int = 10000,
    max_passes: int = 100,
    max_rule_length: int | None = None,
    interreduce_after: bool = True,
) -> CompletionResult:
    """Knuth-Bendix style completion.

    Each pass collects all critical pairs of the current system in a
    deterministic order, reduces both sides against the growing rule
    set, and adds every pair that fails to resolve, oriented.  The loop
    ends when a pass adds nothing; the result is then interreduced (by
    default) so printed systems are canonical.  Limits turn runaway
    completions into a status, not an error; ``max_rule_length`` (list
    length of a new left-hand side) additionally guards against
    divergent runs whose rules grow without bound.
    """
    if max_rules <= 0 or max_passes <= 0:
        raise ValueError("limits must be positive")
    term_rules = list(system.term_rules)
    path_rules = list(system.path_rules)
    seen: set = {(r.lhs, r.rhs) for r in system.rules}
    added = 0
    passes = 0

    def freeze() -> RewriteSystem:
        return RewriteSystem(tuple(term_rules), tuple(path_rules))

    # holds the current rules: a term lhs never equals a path lhs, and
    # each kind keeps its order, so first-added still wins per lhs
    idx = _RuleIndex(system.rules)
    while True:
        if passes >= max_passes:
            return CompletionResult(
                CompletionStatus.LIMIT_EXCEEDED,
                f"pass limit {max_passes} reached",
                freeze(), passes, added,
            )
        passes += 1
        current = freeze()
        pairs = find_critical_pairs(current)
        pairs.sort(key=lambda cp: _pair_sort_key(cp, order))
        grew = False
        for cp in pairs:
            reduce = _reduce_term if cp.is_term_pair else _reduce_path
            a, b = reduce(cp.left, idx), reduce(cp.right, idx)
            pair = orient_pair(a, b, order)
            if pair is None or pair in seen:
                continue
            if max_rule_length is not None:
                lhs_len = len(pair[0]) if cp.is_term_pair else len(pair[0].arrows)
                if lhs_len > max_rule_length:
                    return CompletionResult(
                        CompletionStatus.LIMIT_EXCEEDED,
                        f"rule length limit {max_rule_length} exceeded",
                        freeze(), passes, added,
                    )
            seen.add(pair)
            if cp.is_term_pair:
                rule = EpsRule(*pair)
                term_rules.append(rule)
            else:
                rule = KRule(*pair)
                path_rules.append(rule)
            idx.add(rule)
            added += 1
            grew = True
            if len(term_rules) + len(path_rules) > max_rules:
                return CompletionResult(
                    CompletionStatus.LIMIT_EXCEEDED,
                    f"rule limit {max_rules} exceeded",
                    freeze(), passes, added,
                )
        if not grew:
            break

    final = freeze()
    if interreduce_after:
        final = interreduce(final, order)
    return CompletionResult(CompletionStatus.COMPLETE, None, final, passes, added)


def interreduce(system: RewriteSystem, order: OrderSpec) -> RewriteSystem:
    """Mutually reduce the rule set without changing its equivalence.

    Afterwards every right-hand side is irreducible with respect to the
    whole set and every left-hand side is irreducible with respect to
    the other rules; rules whose sides collapse together are dropped.
    """
    rules: list[Rule] = list(system.rules)
    changed = True
    while changed:
        changed = False
        idx = _RuleIndex(rules)
        # positions by lhs; a Term lhs never equals a Path lhs
        owners: dict[Term | Path, list[int]] = {}
        for pos, rule in enumerate(rules):
            owners.setdefault(rule.lhs, []).append(pos)
        for pos, rule in enumerate(rules):
            # reduce the lhs against the other rules: its trie node takes
            # the rhs of the first other rule with the same lhs, if any
            node = idx.node(rule)
            own = node[0]
            twins = [k for k in owners[rule.lhs] if k != pos]
            node[0] = idx.rhs(rules[twins[0]]) if twins else None
            reduce = _reduce_term if isinstance(rule, EpsRule) else _reduce_path
            l2 = reduce(rule.lhs, idx)
            node[0] = own
            r2 = reduce(rule.rhs, idx)
            if l2 == rule.lhs and r2 == rule.rhs:
                continue
            del rules[pos]
            pair = orient_pair(l2, r2, order)
            if pair is not None:
                new = EpsRule(*pair) if isinstance(rule, EpsRule) else KRule(*pair)
                if new not in rules:
                    rules.append(new)
            changed = True
            break
    return RewriteSystem(
        tuple(r for r in rules if isinstance(r, EpsRule)),
        tuple(r for r in rules if isinstance(r, KRule)),
    )


# --- serialization ---

def format_rule(rule: Rule) -> str:
    if isinstance(rule, EpsRule):
        return f"{format_term(rule.lhs)} -> {format_term(rule.rhs)}"
    return f"{format_path(rule.lhs)} -> {format_path(rule.rhs)}"


def sorted_rules(system: RewriteSystem, order: OrderSpec) -> list[Rule]:
    """Canonical print order: by left-hand-side list length, path rules
    before term rules at equal length, then by the left-hand side's sort
    key (ties broken by the right-hand side's)."""

    def key(rule: Rule):
        sort_key = term_sort_key if isinstance(rule, EpsRule) else path_sort_key
        lhs = sort_key(rule.lhs, order)
        return (lhs[0], isinstance(rule, EpsRule), lhs, sort_key(rule.rhs, order))

    return sorted(system.rules, key=key)


def format_system(system: RewriteSystem, order: OrderSpec | None = None) -> list[str]:
    rules = sorted_rules(system, order) if order is not None else list(system.rules)
    return [format_rule(r) for r in rules]
