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
    # Coxeter S4's one added rule leaves nothing to interreduce
    assert got["raw_listing_sha256"] == got["listing_sha256"] == (
        "b9c6985b58152b3e137a6090cedcc19b1fca8db512524751852d79bcc059f3d7")
    assert got["complete_s"] > 0 and got["enumerate_s"] > 0


def test_the_named_cases_build_their_groups():
    assert set(ladder.CASES) == {"s6", "vondyck30", "coxeter12", "z6_8"}
    assert len(ladder.s6().relations) == 7
    assert len(ladder.cyclic_power(6, 8).generators) == 16
    assert len(ladder.cyclic_power(6, 8).relations) == 3 * 8 + 28


def test_the_raw_listing_is_taken_before_interreduction():
    # S3 on a, b, B: interreducing drops the rules that completion added
    # on the way
    rels = [("a", "a"), ("b", "B"), ("B", "b"), ("b",) * 3, ("a", "b") * 2]
    desc = ladder.MonoidPresentationDesc(("a", "b", "B"), tuple((r, ()) for r in rels))
    got = ladder.run_case(desc, {}, 1000)
    assert (got["rules_added"], got["rules_final"], got["forms"]) == (6, 7, 6)
    assert got["listing_sha256"] == (
        "1dab9571cb70ad175b7e1df758a3fd387dcf462e45c82d44deec7d582e76125d")
    assert got["raw_listing_sha256"] == (
        "14e4c323a18a52c7edace84bf1dac5207f6ab0755562f15bd69de3afc37b4299")
