"""Rules, reduction, overlap analysis and the completion loop.

Two kinds of rule coexist.  Term rules are one-sided and anchored at the
tag: a rule ``x|l -> u`` rewrites any term ``x|lq`` to ``u.q``.  Path
rules are two-sided: a rule ``l -> r`` between parallel paths rewrites
any factor ``l`` occurring right of the tag.  Overlaps between left-hand
sides come in five shapes, all of which reduce to two kinds of list
overlap (containment, and end-to-start matching), both read off the
Aho-Corasick automaton that indexes the rules; unresolved critical
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
    format_path,
    format_term,
    validate_presentation,
)
from .ordering import OrderSpec, word_key

DEFAULT_MAX_RULES, DEFAULT_MAX_PASSES = 10000, 100


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
    codes never mix presentations.  A path is coded as ``(source,
    word)``, its word being its arrows' codes; a term's word starts with
    its tag, a str, so a tag never equals an arrow's int and only starts
    a word.  A rule is coded as its two sides, ``(lhs source, lhs word,
    rhs source, rhs word)``.  One trie holds both kinds of rule, keyed by
    the lhs word.  ``rules`` holds the coded rules the index was built
    from, in the order given; ``add`` does not extend it.

    A node is ``[rhs, children, delta, depth, fail, out]``.  ``rhs`` is
    None unless a left-hand side ends at the node; it is the rule's
    coded right-hand side ``(source, word)``.  ``children`` are the trie
    edges, ``depth`` the length of the node's key, ``fail`` the node of
    its longest proper suffix in the trie, and ``out`` the node itself if
    an lhs ends there, else the nearest such node along ``fail``.
    ``delta`` memoises transitions on first use (see ``_goto``).  The
    links are built when the index is and again after each ``add`` that
    makes a terminal.  ``interreduce`` clears the ``rhs`` of the rule it
    reduces, and keeps it cleared when it deletes the last rule with that
    left-hand side; a lookup skips a cleared terminal, and the next link
    drops it from the output chains.  The critical pairs of the rules are
    read off the same automaton (``_critical_pairs``): the output chains give
    the containments, the failure chains the end overlaps.
    Insertion never overwrites an ``rhs``, so the first-added rule wins
    for a given left-hand side.  A system's cached index is shared and
    keeps its rules, but ``_goto`` memoises transitions into its nodes,
    and ``enumerate_extension`` and ``reduce_term`` intern arrows it has
    not seen, under ``_lock``; only ``complete`` and ``interreduce``
    change the rules of the indexes they build.
    """

    __slots__ = ("codes", "arrows", "root", "rules", "_lock")

    def __init__(self, rules: tuple[Rule, ...] = (), order: OrderSpec | None = None,
                 arrows: Iterable[Arrow] = ()):
        """An index holding ``rules``.  Given an ``order``, ``arrows`` and
        the rules' arrows are interned first, in its rank, so that
        ``word_key`` orders the index's words as the paths and terms they
        code."""
        self.codes: dict[str, int] = {}
        self.arrows: list[Arrow] = []
        # a system's index is shared, and encoding interns unseen labels
        self._lock = threading.Lock()
        if order is not None:
            sides = [s.path if isinstance(s, Term) else s for r in rules for s in (r.lhs, r.rhs)]
            unique = {a.label: a for a in (*arrows, *(a for p in sides for a in p.arrows))}
            self.intern(tuple(sorted(unique.values(), key=lambda a: order.delta_rank[a.label])))
        self.root = [None, {}, {}, 0, None, None]
        self.rules = tuple([self.code(r) for r in rules])
        for r in self.rules:
            self._insert(r)
        self._link()

    def intern(self, arrows: tuple[Arrow, ...]) -> tuple[int, ...]:
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

    def encode(self, x: Term | Path) -> tuple:
        if isinstance(x, Term):
            return x.path.source, (x.tag,) + self.intern(x.path.arrows)
        return x.source, self.intern(x.arrows)

    def decode(self, source: int, word: tuple) -> Term | Path:
        arrows = self.arrows
        if _is_term(word):
            return Term(word[0], Path(source, tuple([arrows[c] for c in word[1:]])))
        return Path(source, tuple([arrows[c] for c in word]))

    def code(self, rule: Rule) -> tuple:
        return self.encode(rule.lhs) + self.encode(rule.rhs)

    def rule(self, coded: tuple) -> Rule:
        lhs, rhs = self.decode(*coded[:2]), self.decode(*coded[2:])
        return EpsRule(lhs, rhs) if isinstance(lhs, Term) else KRule(lhs, rhs)

    def node(self, word: tuple) -> list:
        """The trie node of ``word``, made if missing."""
        node = self.root
        for c in word:
            child = node[1].get(c)
            if child is None:
                child = node[1][c] = [None, {}, {}, node[3] + 1, None, None]
            node = child
        return node

    def add(self, rule: tuple) -> None:
        if self._insert(rule):
            self._link()

    def _insert(self, rule: tuple) -> bool:
        """Insert a coded rule; True if its left-hand side became a terminal."""
        node = self.node(rule[1])
        if node[0] is not None:
            return False
        node[0] = rule[2:]
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


def _is_term(word: tuple) -> bool:
    return bool(word) and isinstance(word[0], str)


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


def _step(state: list, code) -> list | None:
    """The state after reading ``code`` in ``state``, or None when that
    state has an output.  Stepping from the state of a word no rule
    reduces, None says that the word with ``code`` appended is reducible:
    a match in it ends at the new letter, and a system's index holds a
    right-hand side at every terminal."""
    state = state[2].get(code) or _goto(state, code)
    return None if state[5] is not None else state


def _rewrite(side: tuple, idx: _RuleIndex) -> tuple[int, tuple]:
    """Rewrite a coded ``(source, word)`` until no rule applies; a term's
    word starts with its tag.  Each round applies the match with the
    leftmost start, the shortest at that start, so term rules (which
    start at the tag) come first.  A left-to-right scan keeps
    ``states[k]``, the state after ``word[:k]``, in a table sized to the
    word once: under length-lex no oriented rule makes a word longer, and
    a hand-built rule that does grows the table.  At each position the
    longest match ending there has the earliest start of those ending
    there.  A round reads in two phases.  The first reads to the first
    match.  The second reads on only while a live prefix started left of
    the best start so far, which happens only when one lhs contains
    another, as in a system not yet interreduced.  After a rewrite the
    scan resumes from the state at the match's start."""
    source, word = side
    word = list(word)
    n = len(word)
    states = [None] * (n + 1)
    s = states[0] = idx.root
    k = 0
    while True:
        while k < n:
            c = word[k]
            try:
                s = s[2][c]
            except KeyError:
                s = _goto(s, c)
            k += 1
            states[k] = s
            m = s[5]
            if m is not None:
                # past the terminals that ``interreduce`` cleared
                while m is not None and m[0] is None:
                    m = m[4][5]
                if m is not None:
                    break
        else:
            return source, tuple(word)
        best, end, rhs = k - m[3], k, m[0]
        while k < n and k - s[3] < best:
            c = word[k]
            try:
                s = s[2][c]
            except KeyError:
                s = _goto(s, c)
            k += 1
            states[k] = s
            m = s[5]
            if m is not None:
                while m is not None and m[0] is None:
                    m = m[4][5]
                if m is not None and k - m[3] < best:
                    best, end, rhs = k - m[3], k, m[0]
        if not best:
            source = rhs[0]
        word[best:end] = rhs[1]
        n = len(word)
        if n >= len(states):
            states += [None] * (n + 1 - len(states))
        s = states[best]
        k = best


# Term and path reductions are the same rewrite under two names: the
# benchmark stamps calls to both, and the tests count each kind.
_reduce_term = _reduce_path = _rewrite


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
    idx = system._index
    return idx.decode(*_reduce_term(idx.encode(t), idx))


def reduce_path(p: Path, system: RewriteSystem) -> Path:
    """Rewrite a bare path with the path rules only."""
    idx = system._index
    return idx.decode(*_reduce_path(idx.encode(p), idx))


def initial_rules(pres: KanPresentation, order: OrderSpec | None = None) -> RewriteSystem:
    """Build the initial system: one term rule per (arrow, element) pair,
    one path rule per relation, all oriented.

    Pairs whose sides are identical are dropped; duplicates collapse, the
    first kept.  The rules are built and oriented as coded words and
    decoded once.
    """
    report = validate_presentation(pres)
    if not report.ok:
        raise PresentationError("invalid presentation: " + "; ".join(report.violations))
    if order is None:
        order = OrderSpec.from_presentation(pres)

    idx = _RuleIndex(order=order, arrows=pres.arr_b)
    x_rank = order.x_rank
    rules = []
    for k, (s, t) in enumerate(pres.arr_a):
        source, word = idx.encode(pres.f_arr_a[k])
        target = pres.f_ob_a[pres.ob_a_index[t]]
        for x, image in zip(pres.x_ob_a[pres.ob_a_index[s]], pres.x_arr_a[k]):
            rules.append(_oriented((source, (x,) + word), (target, (image,)), x_rank))
    rules += [_oriented(idx.encode(l), idx.encode(r), x_rank) for l, r in pres.rel_b]
    return _system(idx, list(dict.fromkeys(r for r in rules if r is not None)))


def _critical_pairs(idx: _RuleIndex, old: list[tuple], new: list[tuple]) -> list[tuple]:
    """The critical pairs of the ranked rules ``old + new`` that involve a
    rule of ``new``, read off ``idx``, which holds them all: those of each
    rule of ``new`` as host with every rule, and of each rule of ``old``
    with every rule of ``new``.  A ranked rule is ``(rank, coded rule)``;
    a pair is ``(case, (i, j), position, left, right)`` with coded sides,
    host rule ``i`` first and ``i``, ``j`` ranks, the position being a
    containment's start or an end overlap's length.

    Containments: a host's lhs is read through the automaton, and an lhs
    of length n that ends at position k is on the output chain of the
    state there, contained at k - n; an empty path lhs, which the root
    never outputs, is contained at every position.  End overlaps: the
    state after the host's lhs is its node, and a node of depth o on its
    failure chain is its suffix of length o, shared by every path rule
    whose lhs has that node as a proper prefix.  A term's word starts
    with its tag, so a term lhs lies only at the start of another term's
    and never ends an overlap; no rule is contained in itself."""
    out = []
    root = idx.root
    for hosts, guests in ((new, old + new), (old, new)):
        ends: dict[int, list] = {}  # id of a node -> the guests whose lhs ends there
        inner: dict[int, list] = {}  # id of a node -> the path guests whose lhs passes it
        for guest in guests:
            word = guest[1][1]
            path = not _is_term(word)
            node = root
            for c in word:
                if node[3] and path:
                    inner.setdefault(id(node), []).append(guest)
                node = node[1][c]
            ends.setdefault(id(node), []).append(guest)
        anywhere = ends.get(id(root), ())
        for i, (ls, li, rs, ri) in hosts:
            host_term = _is_term(li)
            ni = len(li)
            # a path lhs lies right of a term's tag
            found = [(pos, g) for g in anywhere for pos in range(1 if host_term else 0, ni + 1)]
            s = root
            for k, c in enumerate(li, 1):
                s = s[2].get(c) or _goto(s, c)
                m = s[5]
                while m is not None:
                    found += [(k - m[3], g) for g in ends.get(id(m), ())]
                    m = m[4][5]
            for pos, (j, (_, lj, rsj, rj)) in found:
                if j == i:
                    continue
                if _is_term(lj):
                    out.append(("i", (i, j), pos, (rsj, rj + li[len(lj):]), (rs, ri)))
                else:
                    out.append(("v" if host_term else "ii", (i, j), pos, (rs, ri),
                                (ls, li[:pos] + rj + li[pos + len(lj):])))
            while s[3]:
                s = s[4]
                o = s[3]
                for j, (_, lj, _, rj) in inner.get(id(s), ()):
                    out.append(("iv" if host_term else "iii", (i, j), o,
                                (rs, ri + lj[o:]), (ls, li[:ni - o] + rj)))
    return out


def find_critical_pairs(system: RewriteSystem) -> list[CriticalPair]:
    """All critical pairs, read off the system's index automaton: for each
    ordered rule pair (self-pairs included, the trivial full self-overlap
    excluded) every containment by position, then every proper end
    overlap, a suffix of the host's lhs that is a prefix of the other's,
    by length."""
    idx = system._index
    pairs = _critical_pairs(idx, [], list(enumerate(idx.rules)))
    # containments ("i", "ii", "v") before end overlaps ("iii", "iv")
    pairs.sort(key=lambda cp: (cp[1], cp[0] in ("iii", "iv"), cp[2]))
    return [CriticalPair(idx.decode(*left), idx.decode(*right), case, rules)
            for case, rules, _, left, right in pairs]


def resolves(cp: CriticalPair, system: RewriteSystem) -> bool:
    """A pair resolves when both sides reduce to the same object."""
    idx = system._index
    reduce = _reduce_term if cp.is_term_pair else _reduce_path
    return reduce(idx.encode(cp.left), idx) == reduce(idx.encode(cp.right), idx)


def check_confluence(system: RewriteSystem) -> bool:
    """Local confluence; with oriented rules this is full confluence.  The
    critical pairs are read off the system's index as coded sides, and
    each pair resolves when its two sides reduce to the same word."""
    idx = system._index
    for *_, left, right in _critical_pairs(idx, [], list(enumerate(idx.rules))):
        reduce = _reduce_term if _is_term(left[1]) else _reduce_path
        if reduce(left, idx) != reduce(right, idx):
            return False
    return True


def _oriented(a: tuple, b: tuple, x_rank) -> tuple | None:
    """Two coded sides as a coded rule, greater side first; None when
    they are equal."""
    if a[1] == b[1]:
        return None
    return a + b if word_key(a[1], x_rank) > word_key(b[1], x_rank) else b + a


def _system(idx: _RuleIndex, rules: list[tuple]) -> RewriteSystem:
    return RewriteSystem(tuple(idx.rule(r) for r in rules if _is_term(r[1])),
                         tuple(idx.rule(r) for r in rules if not _is_term(r[1])))


def complete(
    system: RewriteSystem,
    order: OrderSpec,
    *,
    max_rules: int = DEFAULT_MAX_RULES,
    max_passes: int = DEFAULT_MAX_PASSES,
    max_rule_length: int | None = None,
    interreduce_after: bool = True,
) -> CompletionResult:
    """Knuth-Bendix style completion.

    Each pass reads all critical pairs of the rules at its start in a
    deterministic order (by larger side, then by rules, shape and
    position), reduces both sides against the growing rule set, and adds
    every pair that fails to resolve, oriented.  A side is reduced once
    per rule set that can reach it: under length-lex no reduction makes a
    word longer, so a new rule changes only the normal forms of sides at
    least as long as its left-hand side.  Each pair is built once,
    in the pass after its newer rule went in, and carried to later
    passes in the sorted list they read.  The loop ends when a pass adds
    nothing; the result is then interreduced (by default) so printed
    systems are canonical.  Limits turn runaway
    completions into a status, not an error; ``max_rule_length`` (list
    length of a new left-hand side) additionally guards against
    divergent runs whose rules grow without bound.  The pass loop runs
    on coded rules; the result is decoded once.
    """
    if max_rules <= 0 or max_passes <= 0:
        raise ValueError("limits must be positive")
    # holds the current rules: a term lhs never equals a path lhs, and
    # each kind keeps its order, so first-added still wins per lhs
    idx = _RuleIndex(system.rules, order)
    x_rank = order.x_rank
    terms = list(idx.rules[:len(system.term_rules)])
    paths = list(idx.rules[len(terms):])
    # a rule's rank, (kind, position within its kind), stays put when term
    # rules are appended; ``new`` holds the rules added since the last pass
    # began, ``old`` the others, and ``pairs`` the sorted pairs of ``old``
    old: list[tuple] = []
    new = [((0, k), r) for k, r in enumerate(terms)] + [((1, k), r) for k, r in enumerate(paths)]
    pairs: list[tuple] = []
    added = 0
    passes = 0
    # a reduction depends only on the side and the rules that can reach
    # it.  Every rule is oriented by ``word_key``, which puts the longer
    # word first within a kind, so no word in a side's derivation is
    # longer than the side, and a rule whose lhs word is longer matches
    # none of them.  ``memo`` maps the length of a side's word to a map
    # from each such side to its normal form; a new rule drops the sides
    # at least as long as its lhs and keeps the others exact.  ``forms``
    # holds each normal form found since the last rule went in once, so
    # equal ones share one tuple
    memo: dict[int, dict[tuple, tuple]] = {}
    forms: dict[tuple, tuple] = {}

    def normal_form(side: tuple, reduce) -> tuple:
        known = memo.get(len(side[1]))
        if known is None:
            known = memo[len(side[1])] = {}
        nf = known.get(side)
        if nf is None:
            nf = reduce(side, idx)
            nf = known[side] = forms.setdefault(nf, nf)
        return nf

    def stop(reason: str) -> CompletionResult:
        return CompletionResult(CompletionStatus.LIMIT_EXCEEDED, reason,
                                _system(idx, terms + paths), passes, added)

    while True:
        if passes >= max_passes:
            return stop(f"pass limit {max_passes} reached")
        passes += 1
        # each pair is built once: those of the new rules are keyed and
        # merged into the carried ones, and all are read by larger side
        pairs += [(max(word_key(left[1], x_rank), word_key(right[1], x_rank)), ij, case, pos,
                   left, right) for case, ij, pos, left, right in _critical_pairs(idx, old, new)]
        pairs.sort()
        old += new
        new = []
        for _, _, _, _, left, right in pairs:
            term = _is_term(left[1])
            reduce = _reduce_term if term else _reduce_path
            rule = _oriented(normal_form(left, reduce), normal_form(right, reduce), x_rank)
            if rule is None:
                continue
            if max_rule_length is not None and len(rule[1]) > max_rule_length:
                return stop(f"rule length limit {max_rule_length} exceeded")
            kind = terms if term else paths
            new.append(((0 if term else 1, len(kind)), rule))
            kind.append(rule)
            idx.add(rule)
            for length in [n for n in memo if n >= len(rule[1])]:
                del memo[length]
            forms.clear()
            added += 1
            if len(terms) + len(paths) > max_rules:
                return stop(f"rule limit {max_rules} exceeded")
        if not new:
            break

    final = _system(idx, terms + paths)
    if interreduce_after:
        final = interreduce(final, order)
    return CompletionResult(CompletionStatus.COMPLETE, None, final, passes, added)


def interreduce(system: RewriteSystem, order: OrderSpec) -> RewriteSystem:
    """Mutually reduce the rule set without changing its equivalence.

    Afterwards every right-hand side is irreducible with respect to the
    whole set and every left-hand side is irreducible with respect to
    the other rules; rules whose sides collapse together are dropped.
    """
    idx = _RuleIndex(system.rules, order)
    rules = list(idx.rules)
    # the rules by coded lhs, in list order: an lhs's trie node holds the
    # rhs of the first of them
    owners: dict[tuple, list[tuple]] = {}
    for rule in rules:
        owners.setdefault(rule[:2], []).append(rule)
    # the rules before ``pos`` are reduced, so no other rule shares their
    # lhs and the rule at ``pos`` owns its node.  Deleting a rule keeps
    # them reduced; only an appended one can make them reducible again
    pos = 0
    while pos < len(rules):
        rule = rules[pos]
        twins = owners[rule[:2]]
        # reduce against the other rules: the node takes the next twin's
        # rhs, if any; the rhs and its reducts are smaller than the lhs,
        # so never contain it
        node = idx.node(rule[1])
        node[0] = twins[1][2:] if len(twins) > 1 else None
        reduce = _reduce_term if _is_term(rule[1]) else _reduce_path
        lhs, rhs = reduce(rule[:2], idx), reduce(rule[2:], idx)
        if lhs + rhs == rule:
            node[0] = rule[2:]
            pos += 1
            continue
        del rules[pos]
        twins.pop(0)
        new = _oriented(lhs, rhs, order.x_rank)
        if new is not None and new not in owners.get(new[:2], ()):
            rules.append(new)
            owners.setdefault(new[:2], []).append(new)
            idx.add(new)
            pos = 0
    return _system(idx, rules)


# --- serialization ---

def format_rule(rule: Rule) -> str:
    if isinstance(rule, EpsRule):
        return f"{format_term(rule.lhs)} -> {format_term(rule.rhs)}"
    return f"{format_path(rule.lhs)} -> {format_path(rule.rhs)}"


def format_system(system: RewriteSystem, order: OrderSpec) -> list[str]:
    """The rules, one a line, in listing order: by the length of the
    left-hand side's word (a term's counts its tag), then by ``word_key``
    of the left-hand side, which puts path rules before term rules at
    equal length, then by ``word_key`` of the right-hand side.  The order
    is the same whatever order the rules come in."""
    idx = _RuleIndex(system.rules, order)
    rules = sorted(idx.rules, key=lambda r: (len(r[1]), word_key(r[1], order.x_rank),
                                              word_key(r[3], order.x_rank)))
    return [format_rule(idx.rule(r)) for r in rules]
