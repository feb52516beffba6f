"""Pin raw completion on a corpus of random presentations.

For seeds 1-3, 150 draws of ``oracles.random_presentation`` each are
completed without interreduction, under declaration order and under a
shuffled element and arrow order.  ``random_completion.json`` holds, per
seed and order, the sha256 of every result's status, reason, passes,
rules added and raw rules in system order, and under the ``-initial``
keys the sha256 of every draw's initial rules in system order.  Under the
``-interreduced`` keys it holds the sha256 of ``interreduce``'s output,
rules in system order, on three systems per draw: the initial rules, the
raw completion, and random oriented rules from ``oracles.random_rule``
with exact duplicates, so that left-hand sides repeat with equal and
with different right-hand sides.  The
bundled problems pin a few large completions; this corpus pins many
small ones, so a change to the pass loop that reduces a pair side
against the wrong rule set, or a change to the initial rules or the
pass loop that orients, deduplicates or orders rules differently, shows
up as a changed digest.  Nothing rewrites the JSON file: a change meant
to alter a raw completion must record new digests by hand and say why.
"""

import hashlib
import json
import pathlib
import random

import pytest

from kanbex import EpsRule, KRule, OrderSpec, RewriteSystem, complete, initial_rules, interreduce

from .oracles import random_presentation, random_rule
from .test_completion_trace import _rule_lines

PINNED = json.loads((pathlib.Path(__file__).parent / "random_completion.json").read_text())
DRAWS = 150
LIMITS = {"max_rules": 200, "max_passes": 30, "max_rule_length": 16}


def _order(pres, shuffle: random.Random | None) -> OrderSpec:
    if shuffle is None:
        return OrderSpec.from_presentation(pres)
    xs, deltas = list(pres.x_labels), list(pres.delta_labels)
    shuffle.shuffle(xs)
    shuffle.shuffle(deltas)
    return OrderSpec.from_presentation(pres, xs, deltas)


def _draws(seed: int, shuffled: bool):
    """Each draw's number, presentation and order."""
    rng = random.Random(seed)
    shuffle = random.Random(f"order-{seed}") if shuffled else None
    for draw in range(DRAWS):
        pres = random_presentation(rng)
        yield draw, pres, _order(pres, shuffle)


def _digest(lines: list[str]) -> dict:
    return {"lines": len(lines), "sha256": hashlib.sha256("\n".join(lines).encode()).hexdigest()}


def corpus_digest(seed: int, shuffled: bool) -> dict:
    lines = []
    for draw, pres, order in _draws(seed, shuffled):
        result = complete(initial_rules(pres, order), order, interreduce_after=False, **LIMITS)
        lines.append(f"{draw} {result.status.value} {result.reason} "
                     f"{result.passes} {result.rules_added}")
        lines.extend(_rule_lines(result.system))
    return _digest(lines)


def initial_digest(seed: int, shuffled: bool) -> dict:
    lines = []
    for draw, pres, order in _draws(seed, shuffled):
        system = initial_rules(pres, order)
        lines.append(f"{draw} {len(system.term_rules)} {len(system.path_rules)}")
        lines.extend(_rule_lines(system))
    return _digest(lines)


def random_system(rng: random.Random, pres, order: OrderSpec) -> RewriteSystem:
    """Oriented rules drawn with ``random_rule``, about one in four an exact
    repeat of an earlier one, kept in the order drawn."""
    rules = []
    for _ in range(rng.randint(1, 12)):
        rule = rng.choice(rules) if rules and rng.random() < 0.25 else random_rule(rng, pres, order)
        if rule is not None:
            rules.append(rule)
    return RewriteSystem(tuple(r for r in rules if isinstance(r, EpsRule)),
                         tuple(r for r in rules if isinstance(r, KRule)))


def interreduced_digest(seed: int, shuffled: bool) -> dict:
    lines = []
    rng = random.Random(f"rules-{seed}")
    for draw, pres, order in _draws(seed, shuffled):
        initial = initial_rules(pres, order)
        raw = complete(initial, order, interreduce_after=False, **LIMITS).system
        for name, system in (("initial", initial), ("raw", raw),
                             ("random", random_system(rng, pres, order))):
            reduced = interreduce(system, order)
            lines.append(f"{draw} {name} {len(reduced)}")
            lines.extend(_rule_lines(reduced))
    return _digest(lines)


def _key(seed: int, shuffled: bool) -> str:
    return f"seed{seed}-{'shuffled' if shuffled else 'declared'}"


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("shuffled", [False, True], ids=["declared", "shuffled"])
def test_raw_completions_match_the_recorded_digests(seed, shuffled):
    assert corpus_digest(seed, shuffled) == PINNED[_key(seed, shuffled)]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("shuffled", [False, True], ids=["declared", "shuffled"])
def test_initial_rules_match_the_recorded_digests(seed, shuffled):
    assert initial_digest(seed, shuffled) == PINNED[_key(seed, shuffled) + "-initial"]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("shuffled", [False, True], ids=["declared", "shuffled"])
def test_interreduced_systems_match_the_recorded_digests(seed, shuffled):
    assert interreduced_digest(seed, shuffled) == PINNED[_key(seed, shuffled) + "-interreduced"]


def test_random_systems_repeat_left_hand_sides():
    # the interreduction pins must meet rules that share an lhs, with the
    # same and with another rhs, so count both over the declared draws
    seen = {"exact": 0, "twin": 0}
    for seed in (1, 2, 3):
        rng = random.Random(f"rules-{seed}")
        for _, pres, order in _draws(seed, False):
            rules = random_system(rng, pres, order).rules
            for k, rule in enumerate(rules):
                earlier = rules[:k]
                seen["exact"] += rule in earlier
                seen["twin"] += rule not in earlier and any(r.lhs == rule.lhs for r in earlier)
    assert min(seen.values()) >= 50, seen
