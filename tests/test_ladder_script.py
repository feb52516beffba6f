"""``scripts/ladder.py`` on a small case: its counts only, as its times
depend on the machine."""

from .conftest import ladder


def test_coxeter_s4_counts():
    got = ladder.run_case(ladder.coxeter(4), {}, 1000)
    assert {k: got[k] for k in ("status", "passes", "rules_added", "rules_final", "forms",
                                "enumeration")} == {
        "status": "complete", "passes": 2, "rules_added": 1, "rules_final": 7, "forms": 24,
        "enumeration": "Finite"}
    assert len(got["listing_sha256"]) == 64
    assert got["complete_s"] > 0 and got["enumerate_s"] > 0


def test_the_named_cases_build_their_groups():
    assert set(ladder.CASES) == {"s6", "vondyck30", "coxeter12", "z6_8"}
    assert len(ladder.s6().relations) == 7
    assert len(ladder.cyclic_power(6, 8).generators) == 16
    assert len(ladder.cyclic_power(6, 8).relations) == 3 * 8 + 28
