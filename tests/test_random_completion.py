"""Pin raw completion on a corpus of random presentations.

For seeds 1-3, 150 draws of ``oracles.random_presentation`` each are
completed without interreduction, under declaration order and under a
shuffled element and arrow order.  ``random_completion.json`` holds, per
seed and order, the sha256 of every result's status, reason, passes,
rules added and raw rules in system order, and under the ``-initial``
keys the sha256 of every draw's initial rules in system order.  The
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

from kanbex import OrderSpec, complete, initial_rules

from .oracles import random_presentation
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
