"""A fixed piece of pure-Python work that measures the host's speed.

On a shared host the speed of the whole machine drifts for minutes at a
time, and the fastest time a run can reach drifts with it: in ten
30-second runs of the same code one after another, the fastest Coxeter
S8 enumeration and the fastest set-up both moved by about 30%, together
(their ratio by 6%).  Timing this work in the same run, with the same
statistic, measures that drift, and the benchmark divides it out.

The work is shaped like the engine's inner loop (dictionary lookups of
tuple slices, splicing, restarting the scan after each rewrite) but
shares no code with it: a string rewriting system for the Coxeter group
S_6 with the braid relations left out, so every rule shortens a word or
sorts two commuting letters.  The words and the result are fixed.
"""

from __future__ import annotations

import random

_GENERATORS = tuple(range(5))
# s_i s_i -> 1; s_j s_i -> s_i s_j for commuting letters with j > i
_RULES: dict[tuple[int, ...], tuple[int, ...]] = {(s, s): () for s in _GENERATORS}
_RULES.update({(j, i): (i, j) for i in _GENERATORS for j in _GENERATORS if j > i + 1})
_WORDS = tuple(tuple(random.Random(k).choices(_GENERATORS, k=48)) for k in range(12))


def _reduce(word: tuple[int, ...]) -> tuple[int, ...]:
    rules = _RULES
    while True:
        for i in range(len(word) - 1):
            rhs = rules.get(word[i:i + 2])
            if rhs is not None:
                word = word[:i] + rhs + word[i + 2:]
                break
        else:
            return word


def work() -> int:
    """Reduce every word; return the total length of the results."""
    return sum(len(_reduce(w)) for w in _WORDS)


EXPECTED = 186  # what work() returns
