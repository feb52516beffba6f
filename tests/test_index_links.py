"""The rule automaton's links after every ``add``, against brute force.

``_RuleIndex.add`` updates the failure links, the output links and the
memoised transitions in place, and ``interreduce`` resets the output
links when it clears or restores a right-hand side.  The oracle here
knows only the trie's key words: for every node it finds by suffix
search the longest proper suffix in the trie, the longest suffix that
carries a live right-hand side, which must be the node's output link,
and, for every memoised code, the longest suffix in the trie of the key
with that code appended.  It is run after every ``add``, those that
build an index included, that ``complete`` and ``interreduce`` make on
the bundled problems, S5, Coxeter S4-S6, the von Dyck group at a pass
budget and the random corpus, and on each index that ``interreduce``
leaves.
"""

import random

import pytest

from kanbex import OrderSpec, complete, from_monoid_presentation, initial_rules, rewrite

from .conftest import VON_DYCK, coxeter
from .test_bench_hooks import _bundled
from .test_cli import BUNDLED
from .test_completion_trace import S5
from .test_random_completion import LIMITS, _draws, random_system


def _keys(root: list) -> dict[tuple, list]:
    """Every trie node by its key word."""
    keys, todo = {(): root}, [((), root)]
    while todo:
        key, node = todo.pop()
        for c, child in node[1].items():
            keys[key + (c,)] = child
            todo.append((key + (c,), child))
    return keys


def _longest_suffix(keys: dict[tuple, list], word: tuple, start: int = 0) -> list:
    """The node of the longest suffix of ``word`` that is a key, from the
    suffix that drops ``start`` letters on; the root matches every word."""
    return next(keys[word[k:]] for k in range(start, len(word) + 1) if word[k:] in keys)


def check_links(idx) -> int:
    """Assert that every node's links are the brute-force ones; the number
    of nodes checked."""
    keys = _keys(idx.root)
    for key, node in keys.items():
        if key:
            assert node[4] is _longest_suffix(keys, key, 1), key
            live = [keys[key[k:]] for k in range(len(key)) if keys.get(key[k:], [None])[0] is not None]
            assert node[5] is (live[0] if live else None), key
        for c, nxt in node[2].items():
            assert nxt is _longest_suffix(keys, key + (c,)), (key, c)
        # the inverse failure links are exactly the nodes that fail here
        assert node[6].keys() == {id(n) for k, n in keys.items() if k and n[4] is node}, key
    return len(keys)


@pytest.fixture
def checked_adds(monkeypatch):
    """Check the links after every ``_RuleIndex.add`` and of the index of
    each ``interreduce`` once it returns; the number of adds and of
    interreductions checked."""
    add, init = rewrite._RuleIndex.add, rewrite._RuleIndex.__init__
    interreduce = rewrite.interreduce
    seen = {"adds": 0, "nodes": 0, "interreduced": 0}
    made = []

    def checked(self, rule):
        add(self, rule)
        seen["adds"] += 1
        seen["nodes"] += check_links(self)

    def kept(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    def checked_interreduce(system, order):
        del made[:]
        result = interreduce(system, order)
        # the first index made is the one interreduce edits
        seen["nodes"] += check_links(made[0])
        seen["interreduced"] += 1
        return result

    monkeypatch.setattr(rewrite._RuleIndex, "add", checked)
    monkeypatch.setattr(rewrite._RuleIndex, "__init__", kept)
    monkeypatch.setattr(rewrite, "interreduce", checked_interreduce)
    return seen


def _problems():
    for family, name in BUNDLED:
        yield name, _bundled(family, name), {}
    yield "s5", from_monoid_presentation(S5), {}
    for n in (4, 5, 6):
        yield f"coxeter{n}", from_monoid_presentation(coxeter(n)), {}
    yield "vondyck_9_passes", from_monoid_presentation(VON_DYCK), {"max_passes": 9}


@pytest.mark.parametrize("name,pres,limits", [pytest.param(*p, id=p[0]) for p in _problems()])
def test_links_after_each_add_match_brute_force(checked_adds, name, pres, limits):
    order = OrderSpec.from_presentation(pres)
    initial = initial_rules(pres, order)
    # complete adds to its index, then interreduce to its own
    result = complete(initial, order, **limits)
    assert checked_adds["adds"] >= result.rules_added
    assert checked_adds["interreduced"] == result.complete


def test_links_on_the_random_corpus_match_brute_force(checked_adds):
    # with the random systems, whose repeated left-hand sides make
    # interreduce clear terminals and hand nodes on
    for seed in (1, 2, 3):
        rng = random.Random(f"rules-{seed}")
        for shuffled in (False, True):
            for _, pres, order in _draws(seed, shuffled):
                complete(initial_rules(pres, order), order, **LIMITS)
                rewrite.interreduce(random_system(rng, pres, order), order)
    assert checked_adds["adds"] > 1000
    assert checked_adds["interreduced"] > 1000


def test_the_oracle_sees_a_stale_link():
    pres = from_monoid_presentation(coxeter(4))
    order = OrderSpec.from_presentation(pres)
    idx = rewrite._RuleIndex(initial_rules(pres, order).rules, order)
    check_links(idx)
    # a node whose longest proper suffix is not the root, failing to the root
    node = next(n for n in _keys(idx.root).values() if n[3] and n[4][3])
    del node[4][6][id(node)]
    node[4] = idx.root
    idx.root[6][id(node)] = node
    with pytest.raises(AssertionError):
        check_links(idx)
