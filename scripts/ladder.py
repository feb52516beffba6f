#!/usr/bin/env python3
"""Time completion and enumeration on groups larger than the benchmark's.

    python3 scripts/ladder.py

Each case is a group as a monoid presentation acting on one point, so
its normal forms are words.  For each case one line gives the completion
status, passes, rules added and final rules, the sha256 of the rule
listing (``format_system`` lines joined by newlines), that of the raw
listing (completed with ``interreduce_after=False``, in one more run
that is not timed), the normal forms
enumerated and how the enumeration ended, and the best times of
``complete`` and of ``enumerate_extension`` over ``REPEAT`` runs.  The
counts and the digests do not depend on the machine; the times do.  A
case whose completion stops at its budget is not enumerated.

Cases:

- ``s6``: S6 on a = (12), b = (123456) and B = b^-1 (Moore): a^2, bB,
  Bb, b^6, (ab)^5 and (aB^j ab^j)^2 for j = 2, 3; 720 forms.
- ``vondyck30``: the infinite von Dyck group (2,5,4) on a, b, B, stopped
  after 30 passes.
- ``coxeter12``: the Coxeter presentation of S12, enumerated up to
  100,000 of its 479,001,600 forms.
- ``z6_8``: Z_6^8 on g0, G0, ..., g7, G7 (g_i G_i = G_i g_i = 1,
  g_i^6 = 1, g_j g_i = g_i g_j for i < j), enumerated up to 100,000 of
  its 1,679,616 forms.
"""

from __future__ import annotations

import hashlib
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from kanbex import (  # noqa: E402
    MonoidPresentationDesc,
    OrderSpec,
    complete,
    enumerate_extension,
    format_system,
    from_monoid_presentation,
    initial_rules,
)


def coxeter(n: int) -> MonoidPresentationDesc:
    """S_n on s1..s(n-1): s_i^2 = 1, braids between neighbours and
    commutations between the others."""
    gens = tuple(f"s{i}" for i in range(1, n))
    rels = [((s, s), ()) for s in gens]
    rels += [((a, b, a), (b, a, b)) for a, b in zip(gens, gens[1:])]
    rels += [((gens[j], gens[i]), (gens[i], gens[j]))
             for i in range(len(gens)) for j in range(i + 2, len(gens))]
    return MonoidPresentationDesc(gens, tuple(rels))


def s6() -> MonoidPresentationDesc:
    rels = [("a", "a"), ("b", "B"), ("B", "b"), ("b",) * 6, ("a", "b") * 5]
    rels += [(("a",) + ("B",) * j + ("a",) + ("b",) * j) * 2 for j in (2, 3)]
    return MonoidPresentationDesc(("a", "b", "B"), tuple((r, ()) for r in rels))


def von_dyck() -> MonoidPresentationDesc:
    rels = [("a", "a"), ("b", "B"), ("B", "b"), ("b",) * 5, ("a", "b") * 4]
    return MonoidPresentationDesc(("a", "b", "B"), tuple((r, ()) for r in rels))


def cyclic_power(m: int, k: int) -> MonoidPresentationDesc:
    """Z_m^k on g0, G0, g1, G1, ...: G_i inverts g_i, g_i^m = 1, and the
    g_i commute."""
    gens = tuple(x for i in range(k) for x in (f"g{i}", f"G{i}"))
    rels = [rel for i in range(k) for rel in (((f"g{i}", f"G{i}"), ()), ((f"G{i}", f"g{i}"), ()),
                                              ((f"g{i}",) * m, ()))]
    rels += [((f"g{j}", f"g{i}"), (f"g{i}", f"g{j}")) for i in range(k) for j in range(i + 1, k)]
    return MonoidPresentationDesc(gens, tuple(rels))


# runs per step; the best time is kept
REPEAT = 3

# name -> (presentation, completion budget, enumeration limit)
CASES = {
    "s6": (s6, {}, 1000),
    "vondyck30": (von_dyck, {"max_passes": 30}, None),
    "coxeter12": (lambda: coxeter(12), {}, 100_000),
    "z6_8": (lambda: cyclic_power(6, 8), {}, 100_000),
}


def _best(fn) -> tuple[list, float]:
    """The results of ``REPEAT`` calls of ``fn()``, and the fastest time."""
    results, times = [], []
    for _ in range(REPEAT):
        start = time.perf_counter()
        results.append(fn())
        times.append(time.perf_counter() - start)
    return results, min(times)


def _digest(system, order: OrderSpec) -> str:
    return hashlib.sha256("\n".join(format_system(system, order)).encode()).hexdigest()


def run_case(desc: MonoidPresentationDesc, limits: dict, limit: int | None) -> dict:
    """Complete one group ``REPEAT`` times from the same rules and, within
    ``limit``, enumerate each result once; the counts, the digests of the
    listing and of the raw listing (one more completion, not timed,
    without interreducing) and each step's best time."""
    pres = from_monoid_presentation(desc)
    order = OrderSpec.from_presentation(pres)
    system = initial_rules(pres, order)
    results, complete_s = _best(lambda: complete(system, order, **limits))
    result = results[-1]
    raw = complete(system, order, interreduce_after=False, **limits)
    out = {
        "status": result.status.value,
        "passes": result.passes,
        "rules_added": result.rules_added,
        "rules_final": len(result.system),
        "listing_sha256": _digest(result.system, order),
        "raw_listing_sha256": _digest(raw.system, order),
        "complete_s": complete_s,
        "forms": None,
        "enumeration": None,
        "enumerate_s": None,
    }
    if result.complete and limit is not None:
        # each run reads a result of its own, as a caller of complete
        # then enumerate_extension does
        tables, out["enumerate_s"] = _best(
            lambda: enumerate_extension(pres, results.pop().system, limit, order))
        out["forms"], out["enumeration"] = tables[-1].total, tables[-1].status.value
    return out


def main() -> int:
    for name, (build, limits, limit) in CASES.items():
        r = run_case(build(), limits, limit)
        enumerate_s = "-" if r["enumerate_s"] is None else f"{r['enumerate_s']:.3f}"
        print(f"{name}: {r['status']} passes={r['passes']} rules_added={r['rules_added']} "
              f"rules_final={r['rules_final']} listing={r['listing_sha256']} "
              f"raw_listing={r['raw_listing_sha256']} "
              f"forms={r['forms']} ({r['enumeration']}) "
              f"complete_s={r['complete_s']:.3f} enumerate_s={enumerate_s}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
