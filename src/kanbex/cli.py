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
from functools import cache
from typing import Iterable, Iterator

from .encodings import ENCODE_FAMILIES, encode_from_json
from .kan import DEFAULT_LIMIT, EnumerationStatus, KanTables, enumerate_extension
from .model import (
    CompositionError,
    KanPresentation,
    PresentationError,
    _read_json,
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
    DEFAULT_MAX_PASSES,
    DEFAULT_MAX_RULES,
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


def _add_common(sp, run) -> None:
    sp.set_defaults(run=run)
    sp.add_argument("file", help="presentation file (JSON)")
    sp.add_argument("--order", choices=["lenlex"], default="lenlex",
                    help="term ordering (only lenlex is available)")
    sp.add_argument("--xorder", type=_comma_list, default=None, metavar="X1,X2,...",
                    help="element label order (default: declaration order)")
    sp.add_argument("--deltaorder", type=_comma_list, default=None, metavar="B1,B2,...",
                    help="arrow label order (default: declaration order)")
    sp.add_argument("--format", choices=["text", "json"], default="text")


def _add_limits(sp) -> None:
    sp.add_argument("--max-rules", type=_positive_int, default=DEFAULT_MAX_RULES)
    sp.add_argument("--max-passes", type=_positive_int, default=DEFAULT_MAX_PASSES)
    sp.add_argument("--no-interreduce", action="store_true",
                    help="leave the completed system un-normalized")


@cache  # built on the first call to ``main``; parsing leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kanbex",
                     description="Compute extensions of category actions by rewriting.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("rules", help="print the initial rewrite system")
    _add_common(sp, _cmd_rules)

    sp = sub.add_parser("complete", help="run completion and print the rule set")
    _add_common(sp, _cmd_complete)
    _add_limits(sp)

    sp = sub.add_parser("enumerate", help="complete, then catalogue the extension sets")
    _add_common(sp, _cmd_enumerate)
    _add_limits(sp)
    sp.add_argument("--limit", type=int, default=None,
                    help=f"enumeration limit (default {DEFAULT_LIMIT}, or $KANBEX_LIMIT)")

    sp = sub.add_parser("reduce", help="print the normal form of a term")
    _add_common(sp, _cmd_reduce)
    _add_limits(sp)
    sp.add_argument("--term", required=True, metavar="x*b1*b2",
                    help="term as *-separated labels, tag first")

    sp = sub.add_parser("confluent", help="check local confluence of the initial system")
    _add_common(sp, _cmd_confluent)

    sp = sub.add_parser("encode", help="translate a problem descriptor into a presentation")
    sp.add_argument("family", choices=list(ENCODE_FAMILIES))
    sp.add_argument("file", help="descriptor file (JSON)")
    sp.add_argument("-o", "--output", default=None, help="write to a file instead of stdout")

    return parser


def _rules_json(system: RewriteSystem) -> dict:
    term_rules = [[term_as_list(r.lhs), term_as_list(r.rhs)] for r in system.term_rules]
    path_rules = [[path_to_json(r.lhs), path_to_json(r.rhs)] for r in system.path_rules]
    return {"termRules": term_rules, "pathRules": path_rules}


def _print_system(system: RewriteSystem, pres: KanPresentation, fmt: str, **extra) -> None:
    if fmt == "json":
        print(json.dumps({**_rules_json(system), **extra}, indent=2))
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


def _cmd_rules(args, pres: KanPresentation, order: OrderSpec) -> int:
    _print_system(initial_rules(pres, order), pres, args.format)
    return EXIT_OK


def _cmd_complete(args, pres: KanPresentation, order: OrderSpec) -> int:
    result = _run_completion(args, pres, order)
    if not result.complete:
        return _report_limit(result)
    _print_system(result.system, pres, args.format, status="complete", passes=result.passes,
                  rulesAdded=result.rules_added)
    return EXIT_OK


def _resolve_limit(args) -> int:
    limit = args.limit
    if limit is None:
        raw = os.environ.get("KANBEX_LIMIT", str(DEFAULT_LIMIT))
        try:
            limit = int(raw)
        except ValueError:
            raise _UsageError(f"KANBEX_LIMIT is not an integer: {raw!r}")
    if limit < 1:
        raise _UsageError("enumeration limit must be positive")
    return limit


def _write_line(obj: int, chunks: Iterable[str]) -> None:
    write = sys.stdout.write
    write(f"KB{obj}: ")
    sep = ""
    for chunk in chunks:
        write(sep)
        write(chunk)
        sep = ", "
    write("\n")


def _write_catalogue(tables: KanTables) -> None:
    """Write one ``KB<obj>: `` line of names per object, chunk by chunk:
    the first object's as its stages come, the others' from the chunks
    held until that line ends."""
    held: dict[int, list[str]] = {obj: [] for obj in tables.objects[1:]}

    def streamed() -> Iterator[str]:
        for obj, chunk in tables.name_chunks():
            if obj in held:
                held[obj].append(chunk)
            else:
                yield chunk

    for obj in tables.objects:
        _write_line(obj, held[obj] if obj in held else streamed())


def _cmd_enumerate(args, pres: KanPresentation, order: OrderSpec) -> int:
    limit = _resolve_limit(args)
    result = _run_completion(args, pres, order)
    if not result.complete:
        return _report_limit(result)

    tables = enumerate_extension(pres, result.system, limit=limit, order=order)
    exceeded = tables.status is EnumerationStatus.LIMIT_EXCEEDED
    if args.format == "json":
        payload = {
            "status": tables.status.value,
            "total": tables.total,
            "elements": {
                str(obj): [term_as_list(t) for t in ts]
                for obj, ts in tables.elements.items()
            },
        }
        payload.update(_rules_json(result.system))
        print(json.dumps(payload, indent=2))
    else:
        if exceeded:
            print("enumeration limit exceeded: complete rewrite system is:")
            _print_system(result.system, pres, "text")
        else:
            _write_catalogue(tables)
        print(f"total={tables.total} status={tables.status.value}")
    return EXIT_LIMIT if exceeded else EXIT_OK


def _cmd_reduce(args, pres: KanPresentation, order: OrderSpec) -> int:
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


def _cmd_confluent(args, pres: KanPresentation, order: OrderSpec) -> int:
    answer = check_confluence(initial_rules(pres, order))
    if args.format == "json":
        print(json.dumps({"confluent": answer}))
    else:
        print("true" if answer else "false")
    return EXIT_OK


def _cmd_encode(args) -> int:
    pres = encode_from_json(args.family, _read_json(args.file))
    text = json.dumps(presentation_to_json(pres), indent=2)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _run(args) -> int:
    """Run one command: ``encode`` on its descriptor; any other on the
    presentation it names, loaded, validated and ordered here, in that
    order, before the command's own checks and its completion."""
    if args.command == "encode":
        return _cmd_encode(args)
    pres = load_presentation(args.file)
    report = validate_presentation(pres)
    if not report.ok:
        raise PresentationError("; ".join(report.violations))
    try:
        order = OrderSpec.from_presentation(pres, x_order=args.xorder, delta_order=args.deltaorder)
    except ValueError as e:
        raise _UsageError(str(e)) from e
    return args.run(args, pres, order)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = _run(args)
        sys.stdout.flush()
        return code
    except _UsageError as e:
        print(f"kanbex: error: {e}", file=sys.stderr)
        return EXIT_INVALID
    except (PresentationError, CompositionError) as e:
        print(f"kanbex: {getattr(args, 'file', 'input')}: {e}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as e:
        print(f"kanbex: {e}", file=sys.stderr)
        if isinstance(e, BrokenPipeError):
            # the reader is gone: send what stdout still holds to devnull,
            # so that the flush at exit cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
