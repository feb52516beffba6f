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

    Each index codes arrows as small ints: ``codes`` maps a label to its
    int and ``arrows`` maps it back.  Both tables are built with the
    index, from ``arrows`` and its rules' arrows, and never change; each
    index owns its tables and labels are unique within a presentation,
    so codes never mix presentations.  An arrow outside the tables is in
    no rule, so it stands for itself: never an int, it matches no rule
    and sends every state to the root, and never a str, it is never
    taken for a tag.  ``word_key`` never meets one: an index built with
    an order codes every arrow of its rules and of ``arrows``, and the
    sides, normal forms and listings it compares hold only those.  A
    path is coded as ``(source, word)``, its word being its arrows'
    codes; a term's word starts with its tag, a str, so a tag only
    starts a word.  A rule is coded as its two sides, ``(lhs source, lhs
    word, rhs source, rhs word)``.  One trie holds both kinds of rule,
    keyed by the lhs word.  ``rules`` is the live list of the index's
    coded rules: those it was built from, in the order given, then those
    of each ``add``, in the order added.

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
    left-hand side; a reduction skips a cleared terminal, and the next link
    drops it from the output chains.  The critical pairs of the rules are
    read off the same automaton (``_critical_pairs``): the output chains give
    the containments, the failure chains the end overlaps.
    Insertion never overwrites an ``rhs``, so the first-added rule wins
    for a given left-hand side.  A system's cached index is shared; only
    ``_goto``'s memo changes it.  Only ``complete`` and ``interreduce``
    change the rules of the indexes they build.
    """

    __slots__ = ("codes", "arrows", "root", "rules")

    def __init__(self, rules: tuple[Rule, ...] = (), order: OrderSpec | None = None,
                 arrows: Iterable[Arrow] = ()):
        """An index holding ``rules``, its arrows coded in the order they
        first appear or, given an ``order``, in its rank, so that
        ``word_key`` orders its words as the paths and terms they code."""
        sides = [s.path if isinstance(s, Term) else s for r in rules for s in (r.lhs, r.rhs)]
        unique = {a.label: a for a in (*arrows, *(a for p in sides for a in p.arrows))}
        self.arrows = tuple(unique.values() if order is None else
                            sorted(unique.values(), key=lambda a: order.delta_rank[a.label]))
        self.codes = {a.label: k for k, a in enumerate(self.arrows)}
        self.root = [None, {}, {}, 0, None, None]
        self.rules = [self.code(r) for r in rules]
        for r in self.rules:
            self._insert(r)
        self._link()

    def lookup(self, arrows: tuple[Arrow, ...]) -> tuple:
        """The codes of ``arrows``, an arrow outside the tables as itself."""
        codes = self.codes
        try:
            return tuple([codes[a.label] for a in arrows])
        except KeyError:
            return tuple([codes.get(a.label, a) for a in arrows])

    def encode(self, x: Term | Path) -> tuple:
        if isinstance(x, Term):
            return x.path.source, (x.tag,) + self.lookup(x.path.arrows)
        return x.source, self.lookup(x.arrows)

    def decode(self, source: int, word: tuple) -> Term | Path:
        arrows, term = self.arrows, _is_term(word)
        codes = word[1:] if term else word
        try:
            found = tuple([arrows[c] for c in codes])
        except TypeError:
            found = tuple([c if isinstance(c, Arrow) else arrows[c] for c in codes])
        return Term(word[0], Path(source, found)) if term else Path(source, found)

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
        self.rules.append(rule)
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
    try:
        state = state[2][code]
    except KeyError:
        state = _goto(state, code)
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


def reduce_term(x: Term | Path, system: RewriteSystem) -> Term | Path:
    """Rewrite a term or a bare path until no rule applies.  A term meets
    both kinds of rule; a path meets only the path rules, as no term lhs
    lies in a word without a tag.  Requires an oriented system."""
    idx = system._index
    return idx.decode(*_reduce_term(idx.encode(x), idx))


reduce_path = reduce_term


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
    reduce = _reduce_term if isinstance(cp.left, Term) else _reduce_path
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
    # a rule's rank, (kind, position within its kind), stays put when term
    # rules are added; ``counts`` holds each kind's count.  ``ranked`` holds
    # the rules with their ranks in ``idx.rules``' order, those from
    # ``start`` on added since the last pass began, and ``pairs`` the
    # sorted pairs of the rules before ``start``
    counts = [len(system.term_rules), len(system.path_rules)]
    ranked = [((0, k), r) if k < counts[0] else ((1, k - counts[0]), r)
              for k, r in enumerate(idx.rules)]
    start = 0
    pairs: list[tuple] = []
    passes = 0
    # a reduction depends only on the side and the rules that can reach
    # it.  Every rule is oriented by ``word_key``, which puts the longer
    # word first within a kind, so no word in a side's derivation is
    # longer than the side, and a rule whose lhs word is longer matches
    # none of them.  ``memo`` maps the length of a side's word to a map
    # from each such side to its normal form; a new rule drops the sides
    # at least as long as its lhs and keeps the others exact.  ``forms``
    # keeps one tuple per normal form found since the last rule went in,
    # for memory: without it a CLI ``enumerate`` of S5 <a,b,B> peaked at
    # 20.5 MB, not 20.0 (6 runs each, CPython 3.11), in the same time
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
                                _system(idx, idx.rules), passes, len(idx.rules) - len(system))

    while True:
        if passes >= max_passes:
            return stop(f"pass limit {max_passes} reached")
        passes += 1
        # each pair is built once: those of the new rules are keyed and
        # merged into the carried ones, and all are read by larger side
        pairs += [(max(word_key(left[1], x_rank), word_key(right[1], x_rank)), ij, case, pos,
                   left, right) for case, ij, pos, left, right
                  in _critical_pairs(idx, ranked[:start], ranked[start:])]
        pairs.sort()
        start = len(ranked)
        for _, _, _, _, left, right in pairs:
            term = _is_term(left[1])
            reduce = _reduce_term if term else _reduce_path
            rule = _oriented(normal_form(left, reduce), normal_form(right, reduce), x_rank)
            if rule is None:
                continue
            if max_rule_length is not None and len(rule[1]) > max_rule_length:
                return stop(f"rule length limit {max_rule_length} exceeded")
            kind = 0 if term else 1
            ranked.append(((kind, counts[kind]), rule))
            counts[kind] += 1
            idx.add(rule)
            for length in [n for n in memo if n >= len(rule[1])]:
                del memo[length]
            forms.clear()
            if len(idx.rules) > max_rules:
                return stop(f"rule limit {max_rules} exceeded")
        if start == len(ranked):
            break

    final = _system(idx, idx.rules)
    if interreduce_after:
        final = interreduce(final, order)
    return CompletionResult(CompletionStatus.COMPLETE, None, final, passes,
                            len(idx.rules) - len(system))


def interreduce(system: RewriteSystem, order: OrderSpec) -> RewriteSystem:
    """Mutually reduce the rule set without changing its equivalence.

    Afterwards every right-hand side is irreducible with respect to the
    whole set and every left-hand side is irreducible with respect to
    the other rules; rules whose sides collapse together are dropped.
    """
    idx = _RuleIndex(system.rules, order)
    rules = idx.rules  # edited in place: ``add`` appends to it
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
            idx.add(new)
            owners.setdefault(new[:2], []).append(new)
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
