#!/usr/bin/env python3
"""Coset systems for two subgroups of the same three-generator group:
one completes to 32 rules, the other to 29 rules with index 2."""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from kanbex import (
    OrderSpec,
    complete,
    encode_from_json,
    enumerate_extension,
    format_system,
    initial_rules,
)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def run(descriptor: str):
    data = json.loads((DATA / descriptor).read_text())
    pres = encode_from_json("cosets", data)
    order = OrderSpec.from_presentation(pres)
    result = complete(initial_rules(pres, order), order)
    subgroup = ["*".join(w) for w in data["subgroup"]]
    print(f"subgroup <{', '.join(subgroup)}>: "
          f"{len(result.system)} rules after {result.passes} passes")
    for line in format_system(result.system, order):
        print("  " + line)
    tables = enumerate_extension(pres, result.system, limit=50)
    reps = ", ".join(chunk for obj, chunk in tables.name_chunks() if obj == 1)
    print(f"  cosets ({tables.status.value}): {reps}\n")


def main():
    run("cosets_csq.json")
    run("cosets_b.json")


if __name__ == "__main__":
    main()
