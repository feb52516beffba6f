"""``find_critical_pairs`` reads the pairs off the index automaton; the
oracle ``sliced_critical_pairs`` slices the words of every ordered rule
pair.  They must give the same pairs in the same order: on the random
corpus, before and after raw completion, and on hand-built systems with
the shapes that an automaton handles apart from the rest."""

import pytest

from kanbex import (
    Arrow,
    EpsRule,
    KRule,
    Path,
    RewriteSystem,
    Term,
    complete,
    find_critical_pairs,
    initial_rules,
)
from kanbex.rewrite import CriticalPair

from .oracles import sliced_critical_pairs
from .test_random_completion import LIMITS, _draws


def oracle_pairs(system: RewriteSystem) -> list[CriticalPair]:
    idx = system._index
    pairs = sliced_critical_pairs([idx.code(r) for r in system.rules])
    return [CriticalPair(idx.decode(*left), idx.decode(*right), case, rules)
            for case, rules, left, right in pairs]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("shuffled", [False, True], ids=["declared", "shuffled"])
def test_pairs_match_the_sliced_oracle_on_the_random_corpus(seed, shuffled):
    pairs = 0
    for _, pres, order in _draws(seed, shuffled):
        system = initial_rules(pres, order)
        raw = complete(system, order, interreduce_after=False, **LIMITS).system
        for s in (system, raw):
            expected = oracle_pairs(s)
            assert find_critical_pairs(s) == expected
            pairs += len(expected)
    assert pairs > 1000


A, B, C = (Arrow(label, 1, 1) for label in "abc")


def p(*arrows) -> Path:
    return Path(1, arrows)


def t(tag, *arrows) -> Term:
    return Term(tag, p(*arrows))


HAND_BUILT = {
    "duplicate lhs": RewriteSystem(
        (EpsRule(t("x", A), t("y")), EpsRule(t("x", A), t("z")), EpsRule(t("x", A, B), t("y"))),
        (KRule(p(A, B), p(C)), KRule(p(B, A), p(C)), KRule(p(A, B), p(B)))),
    "identical rules": RewriteSystem(
        (EpsRule(t("x", A, A), t("y")), EpsRule(t("x", A, A), t("y"))),
        (KRule(p(A, A), p(B)), KRule(p(A, A), p(B)))),
    "self-overlaps": RewriteSystem(
        (EpsRule(t("x", A, B, A, B), t("y")),),
        (KRule(p(A, B, A), p(B)), KRule(p(A, A, A), p(C)), KRule(p(A, B, A, B, A), p(C)))),
    "term in term": RewriteSystem(
        (EpsRule(t("x"), t("y")), EpsRule(t("x", A), t("y", B)), EpsRule(t("x", A, B), t("z")),
         EpsRule(t("y", A), t("x"))),
        (KRule(p(B), p(A)),)),
    "empty path lhs": RewriteSystem(
        (EpsRule(t("x", A, B), t("y")), EpsRule(t("x"), t("y", A))),
        (KRule(p(), p(A)), KRule(p(A, B), p(C)), KRule(p(), p(B)), KRule(p(C), p()))),
}


@pytest.mark.parametrize("name", HAND_BUILT)
def test_pairs_match_the_sliced_oracle_on_hand_built_systems(name):
    system = HAND_BUILT[name]
    expected = oracle_pairs(system)
    assert expected
    assert find_critical_pairs(system) == expected

