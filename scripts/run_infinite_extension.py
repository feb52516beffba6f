#!/usr/bin/env python3
"""Walk through the full pipeline on the running example with an
infinite extension: initial rules, completion, the enumeration hitting
its limit, and the action on a sample normal form."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from kanbex import (
    EnumerationStatus,
    NormalForm,
    OrderSpec,
    Path,
    act,
    complete,
    enumerate_extension,
    format_system,
    format_term,
    initial_rules,
    list_as_term,
    load_presentation,
    tau_bar,
)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def main():
    pres = load_presentation(DATA / "infinite_extension.json")
    order = OrderSpec.from_presentation(pres)

    system = initial_rules(pres, order)
    print("initial rules:")
    for line in format_system(system, order):
        print("  " + line)

    result = complete(system, order)
    print(f"\ncompleted in {result.passes} passes, {result.rules_added} rules added:")
    for line in format_system(result.system, order):
        print("  " + line)

    tables = enumerate_extension(pres, result.system, limit=1000)
    assert tables.status is EnumerationStatus.LIMIT_EXCEEDED
    print(f"\nenumeration: {tables.status.value} after {tables.total} elements"
          " (the extension sets are infinite)")

    element = NormalForm(list_as_term(["x1", "b5", "b3", "b4", "b4", "b5"], pres))
    b3 = Path(3, (pres.arrow_by_label["b3"],))
    moved = act(element, b3, result.system)
    print(f"\nacting on {format_term(element.term)} by b3 gives "
          f"{format_term(moved.term)} over object {tau_bar(moved)}")


if __name__ == "__main__":
    main()
