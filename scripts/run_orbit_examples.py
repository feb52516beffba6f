#!/usr/bin/env python3
"""Orbit and conjugacy computations: a permutation action with two
orbits, and the conjugation action of an eight-element group on itself."""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from kanbex import (
    OrderSpec,
    complete,
    encode_from_json,
    enumerate_extension,
    format_rule,
    initial_rules,
)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def solve(title: str, descriptor: str):
    data = json.loads((DATA / descriptor).read_text())
    pres = encode_from_json("orbits", data)
    order = OrderSpec.from_presentation(pres)
    result = complete(initial_rules(pres, order), order)
    tables = enumerate_extension(pres, result.system)
    print(title)
    print("  reduced rules:", ", ".join(sorted(format_rule(r) for r in result.system.rules)))
    print("  representatives:", ", ".join(tables.names()[1]))
    print()


def main():
    solve("orbits of the two-generator permutation action:", "s3_orbits.json")
    solve("conjugacy classes of the eight-element group:", "quaternion_conjugacy.json")


if __name__ == "__main__":
    main()
