"""A system that ``complete`` returns as COMPLETE carries its confluence
proof, and enumeration reads it instead of checking every critical pair
again; any other system is still checked pair by pair.

Every COMPLETE result, raw and interreduced, on the bundled problems, the
ladder groups, the hand-built systems and the random corpus reads
``confluent`` as True, and the full ``check_confluence`` agrees.
"""

from collections import Counter

import pytest

from kanbex import (
    OrderSpec,
    RewriteSystem,
    check_confluence,
    complete,
    enumerate_extension,
    from_monoid_presentation,
    initial_rules,
    rewrite,
)

from .conftest import VON_DYCK, coxeter
from .test_bench_hooks import _bundled, _log_calls
from .test_cli import BUNDLED
from .test_completion_trace import S5
from .test_critical_pairs import HAND_BUILT
from .test_random_completion import LIMITS, _draws

HAND_ORDER = OrderSpec({"x": 0, "y": 1, "z": 2}, {"a": 0, "b": 1, "c": 2})


def _problems():
    for family, name in BUNDLED:
        pres = _bundled(family, name)
        yield name, initial_rules(pres), OrderSpec.from_presentation(pres)
    for name, desc in (("s5", S5), ("coxeter4", coxeter(4)), ("coxeter6", coxeter(6)),
                       ("coxeter8", coxeter(8))):
        pres = from_monoid_presentation(desc)
        yield name, initial_rules(pres), OrderSpec.from_presentation(pres)
    for name, system in HAND_BUILT.items():
        yield name, system, HAND_ORDER


@pytest.mark.parametrize("name,system,order", [pytest.param(*p, id=p[0]) for p in _problems()])
@pytest.mark.parametrize("interreduced", [True, False], ids=["interreduced", "raw"])
def test_a_complete_result_carries_a_proof_that_the_full_check_agrees_with(
        name, system, order, interreduced):
    result = complete(system, order, interreduce_after=interreduced)
    assert result.complete
    assert rewrite._proven(result.system) is True
    assert result.system.confluent and check_confluence(result.system)


def test_the_random_corpus_carries_proofs_the_full_check_agrees_with():
    complete_results = 0
    for seed in (1, 2, 3):
        for _, pres, order in _draws(seed, True):
            for interreduced in (True, False):
                result = complete(initial_rules(pres, order), order,
                                  interreduce_after=interreduced, **LIMITS)
                if result.complete:
                    complete_results += 1
                    assert result.system.confluent and check_confluence(result.system)
                else:
                    assert not rewrite._proven(result.system)
    assert complete_results > 100


def test_a_budget_stop_carries_no_proof():
    pres = from_monoid_presentation(VON_DYCK)
    order = OrderSpec.from_presentation(pres)
    result = complete(initial_rules(pres, order), order, max_passes=6)
    assert not result.complete
    assert not rewrite._proven(result.system)
    assert result.system.confluent is False
    with pytest.raises(ValueError, match="confluent"):
        enumerate_extension(pres, result.system)


def test_a_hand_built_system_is_still_checked_pair_by_pair(monkeypatch):
    pres = from_monoid_presentation(S5)
    order = OrderSpec.from_presentation(pres)
    proven = complete(initial_rules(pres, order), order).system
    calls = []
    for attr in ("_reduce_path", "_reduce_term"):
        _log_calls(monkeypatch, calls, rewrite, attr)
    assert enumerate_extension(pres, proven).total == 120
    assert calls == []
    # the same rules, not built by complete: equal, but without the proof
    same = RewriteSystem(proven.term_rules, proven.path_rules)
    assert same == proven and not rewrite._proven(same)
    assert enumerate_extension(pres, same).total == 120
    checked = Counter(calls)
    calls.clear()
    assert check_confluence(same)
    assert checked == Counter(calls) and sum(checked.values()) > 0
    # a hand-built system is checked again on every enumeration, and its
    # property reads the full check once
    assert enumerate_extension(pres, same).total == 120
    assert Counter(calls) == checked + checked
    calls.clear()
    assert same.confluent and same.confluent
    assert Counter(calls) == checked


def test_a_hand_built_non_confluent_system_still_raises():
    pres = from_monoid_presentation(S5)
    system = initial_rules(pres)
    assert not system.confluent
    with pytest.raises(ValueError, match="confluent"):
        enumerate_extension(pres, system)
    with pytest.raises(AttributeError):
        system.confluent = True
