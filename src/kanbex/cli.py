"""Command-line front end.

Commands mirror the three stages of a run (initial rules, completion,
enumeration) plus reduction to normal form, a confluence query and the
problem-family encoders.  Exit codes: 0 success, 1 validation/usage
error, 2 limit exceeded, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .encodings import ENCODE_FAMILIES, encode_from_json
from .kan import DEFAULT_LIMIT, EnumerationStatus, enumerate_extension
from .model import (
    CompositionError,
    KanPresentation,
    PresentationError,
    format_term,
    list_as_term,
    load_presentation,
    path_to_json,
    presentation_to_json,
    term_as_list,
    validate_presentation,
)
from .ordering import OrderSpec
from .rewrite import (
    CompletionResult,
    RewriteSystem,
    check_confluence,
    complete,
    format_system,
    initial_rules,
    reduce_term,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_LIMIT = 2
EXIT_IO = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors, which this tool
    # reserves for limit exhaustion
    def error(self, message):
        raise _UsageError(message)


def _comma_list(value: str) -> list[str]:
    return [item for item in value.split(",") if item]


def _positive_int(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {value!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {n}")
    return n


def _add_common(sp) -> None:
    sp.add_argument("file", help="presentation file (JSON)")
    sp.add_argument("--order", choices=["lenlex"], default="lenlex",
                    help="term ordering (only lenlex is available)")
    sp.add_argument("--xorder", type=_comma_list, default=None, metavar="X1,X2,...",
                    help="element label order (default: declaration order)")
    sp.add_argument("--deltaorder", type=_comma_list, default=None, metavar="B1,B2,...",
                    help="arrow label order (default: declaration order)")
    sp.add_argument("--format", choices=["text", "json"], default="text")


def _add_limits(sp) -> None:
    sp.add_argument("--max-rules", type=_positive_int, default=10000)
    sp.add_argument("--max-passes", type=_positive_int, default=100)
    sp.add_argument("--no-interreduce", action="store_true",
                    help="leave the completed system un-normalized")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kanbex",
                     description="Compute extensions of category actions by rewriting.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("rules", help="print the initial rewrite system")
    _add_common(sp)

    sp = sub.add_parser("complete", help="run completion and print the rule set")
    _add_common(sp)
    _add_limits(sp)

    sp = sub.add_parser("enumerate", help="complete, then catalogue the extension sets")
    _add_common(sp)
    _add_limits(sp)
    sp.add_argument("--limit", type=int, default=None,
                    help=f"enumeration limit (default {DEFAULT_LIMIT}, or $KANBEX_LIMIT)")

    sp = sub.add_parser("reduce", help="print the normal form of a term")
    _add_common(sp)
    _add_limits(sp)
    sp.add_argument("--term", required=True, metavar="x*b1*b2",
                    help="term as *-separated labels, tag first")

    sp = sub.add_parser("confluent", help="check local confluence of the initial system")
    _add_common(sp)

    sp = sub.add_parser("encode", help="translate a problem descriptor into a presentation")
    sp.add_argument("family", choices=list(ENCODE_FAMILIES))
    sp.add_argument("file", help="descriptor file (JSON)")
    sp.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")

    return parser


def _load_validated(path: str) -> KanPresentation:
    pres = load_presentation(path)
    report = validate_presentation(pres)
    if not report.ok:
        raise PresentationError("; ".join(report.violations))
    return pres


def _order_from_args(args, pres: KanPresentation) -> OrderSpec:
    try:
        return OrderSpec.from_presentation(pres, x_order=args.xorder, delta_order=args.deltaorder)
    except ValueError as e:
        raise _UsageError(str(e)) from e


def _rules_json(system: RewriteSystem) -> dict:
    term_rules = [[term_as_list(r.lhs), term_as_list(r.rhs)] for r in system.term_rules]
    path_rules = [[path_to_json(r.lhs), path_to_json(r.rhs)] for r in system.path_rules]
    return {"termRules": term_rules, "pathRules": path_rules}


def _print_system(system: RewriteSystem, pres: KanPresentation, fmt: str,
                  extra: dict | None = None) -> None:
    if fmt == "json":
        payload = _rules_json(system)
        if extra:
            payload.update(extra)
        print(json.dumps(payload, indent=2))
    else:
        for line in format_system(system, OrderSpec.from_presentation(pres)):
            print(line)


def _run_completion(args, pres: KanPresentation, order: OrderSpec) -> CompletionResult:
    system = initial_rules(pres, order)
    return complete(
        system, order,
        max_rules=args.max_rules,
        max_passes=args.max_passes,
        interreduce_after=not args.no_interreduce,
    )


def _report_limit(result: CompletionResult) -> int:
    print(f"completion limit exceeded ({result.reason}) after {result.passes} passes; "
          f"{len(result.system)} rules so far", file=sys.stderr)
    return EXIT_LIMIT


def _cmd_rules(args) -> int:
    pres = _load_validated(args.file)
    order = _order_from_args(args, pres)
    _print_system(initial_rules(pres, order), pres, args.format)
    return EXIT_OK


def _cmd_complete(args) -> int:
    pres = _load_validated(args.file)
    order = _order_from_args(args, pres)
    result = _run_completion(args, pres, order)
    if not result.complete:
        return _report_limit(result)
    extra = {"status": "complete", "passes": result.passes, "rulesAdded": result.rules_added}
    _print_system(result.system, pres, args.format, extra)
    return EXIT_OK


def _resolve_limit(args) -> int:
    if args.limit is not None:
        limit = args.limit
    else:
        raw = os.environ.get("KANBEX_LIMIT")
        if raw is None:
            limit = DEFAULT_LIMIT
        else:
            try:
                limit = int(raw)
            except ValueError:
                raise _UsageError(f"KANBEX_LIMIT is not an integer: {raw!r}")
    if limit < 1:
        raise _UsageError("enumeration limit must be positive")
    return limit


def _cmd_enumerate(args) -> int:
    pres = _load_validated(args.file)
    order = _order_from_args(args, pres)
    limit = _resolve_limit(args)
    result = _run_completion(args, pres, order)
    if not result.complete:
        return _report_limit(result)

    tables = enumerate_extension(pres, result.system, limit=limit, order=order)
    if args.format == "json":
        payload = {
            "status": tables.status.value,
            "total": tables.total,
            "elements": {
                str(obj): [term_as_list(nf.term) for nf in nfs]
                for obj, nfs in tables.elements.items()
            },
        }
        payload.update(_rules_json(result.system))
        print(json.dumps(payload, indent=2))
        return EXIT_LIMIT if tables.status is EnumerationStatus.LIMIT_EXCEEDED else EXIT_OK

    if tables.status is EnumerationStatus.LIMIT_EXCEEDED:
        print("enumeration limit exceeded: complete rewrite system is:")
        _print_system(result.system, pres, "text")
        print(f"total={tables.total} status={tables.status.value}")
        return EXIT_LIMIT
    for obj in pres.ob_b:
        names = ", ".join(format_term(nf.term) for nf in tables.elements.get(obj, ()))
        print(f"KB{obj}: {names}")
    print(f"total={tables.total} status={tables.status.value}")
    return EXIT_OK


def _cmd_reduce(args) -> int:
    pres = _load_validated(args.file)
    order = _order_from_args(args, pres)
    term = list_as_term(args.term.split("*"), pres)
    result = _run_completion(args, pres, order)
    if not result.complete:
        print(f"completion limit exceeded ({result.reason}); cannot compute normal forms",
              file=sys.stderr)
        return EXIT_LIMIT
    nf = reduce_term(term, result.system)
    if args.format == "json":
        print(json.dumps({"normalForm": term_as_list(nf)}))
    else:
        print(format_term(nf))
    return EXIT_OK


def _cmd_confluent(args) -> int:
    pres = _load_validated(args.file)
    order = _order_from_args(args, pres)
    answer = check_confluence(initial_rules(pres, order))
    if args.format == "json":
        print(json.dumps({"confluent": answer}))
    else:
        print("true" if answer else "false")
    return EXIT_OK


def _cmd_encode(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise PresentationError(f"invalid JSON: {e}") from e
    pres = encode_from_json(args.family, data)
    text = json.dumps(presentation_to_json(pres), indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


_COMMANDS = {
    "rules": _cmd_rules,
    "complete": _cmd_complete,
    "enumerate": _cmd_enumerate,
    "reduce": _cmd_reduce,
    "confluent": _cmd_confluent,
    "encode": _cmd_encode,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"kanbex: error: {e}", file=sys.stderr)
        return EXIT_INVALID
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"kanbex: error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (PresentationError, CompositionError) as e:
        print(f"kanbex: {getattr(args, 'file', 'input')}: {e}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as e:
        print(f"kanbex: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
