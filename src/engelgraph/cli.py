"""Command-line interface.

Subcommands::

    engel report --group <spec> [--json <path>] [--dot <path>]
    engel survey --max-order <N> [--out <dir>] [--verify]
    engel verify --max-order <N>

``survey --verify`` also prints the theorem verdicts of ``verify``, read
from the same catalog pass, so every plan is evaluated once.

Exit codes: 0 on success; 1 when any theorem-style check failed (``report``
prints one ``FAILED <check>: <detail>`` line per failed check on stderr);
2 for a usage error, that is a ``ParseError`` (a malformed spec, an
unreadable ``@file``, a point label above 16777216 = 4096**2), an
``InvalidParameter`` (an out-of-range parameter, or a ``--json``, ``--dot``
or ``--out`` path that cannot be written) or a ``ClosureTooLarge`` (a group
above the order limit of 4096 elements); 3 for an internal error, that is
any other exception, other ``EngelGraphError``s such as ``NotASubgroup``
included, whose traceback is printed on stderr.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

from .errors import ClosureTooLarge, InvalidParameter, ParseError
from .graphs import SimpleGraph
from .io import _dot_chunks, write_report
from .survey import (
    SurveyResult,
    TheoremVerdict,
    _check_bounds,
    evaluate_group,
    summary_json,
    survey,
    verify_theorems,
)

USAGE_ERROR = 2
CHECK_FAILED = 1
INTERNAL_ERROR = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="engel",
        description="Engel graphs of finite groups: reports, surveys, theorem checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser("report", help="full report for one group")
    p_report.add_argument("--group", required=True, help="group spec, e.g. S4, D12, Dic3, S3xC2, @gens.txt")
    p_report.add_argument("--json", type=Path, help="also write the JSON report to this path")
    p_report.add_argument("--dot", type=Path, help="write the Engel graph in DOT format to this path")

    p_survey = sub.add_parser("survey", help="survey all catalog groups up to an order bound")
    p_survey.add_argument("--max-order", type=int, required=True)
    p_survey.add_argument("--out", type=Path, help="directory for per-group JSON reports and summary.json")
    p_survey.add_argument(
        "--verify", action="store_true", help="also run the theorem checks, from the same evaluations"
    )

    p_verify = sub.add_parser("verify", help="run the theorem checks over the catalog")
    p_verify.add_argument("--max-order", type=int, required=True)
    return parser


@contextmanager
def _writing(path: Path) -> Iterator[None]:
    """Turn an OSError raised while writing ``path``, or a file inside it,
    into a usage error naming the file; other errors pass through."""
    try:
        yield
    except OSError as err:
        name = err.filename or path
        raise InvalidParameter(f"cannot write {name}: {err.strerror or err}") from err


def _run_report(args: argparse.Namespace) -> int:
    evaluation = evaluate_group(args.group)
    text = write_report(evaluation.report)
    sys.stdout.write(text)
    if args.json:
        with _writing(args.json):
            args.json.write_text(text)
    if args.dot:
        if evaluation.graph is None:
            print(f"note: {evaluation.report.name} is an Engel group; writing an empty graph", file=sys.stderr)
            graph = SimpleGraph(0, [])
            labels: tuple[str, ...] = ()
        else:
            graph = evaluation.graph
            labels = tuple(str(evaluation.group.perm(x)) for x in graph.labels)
        with _writing(args.dot), args.dot.open("w") as out:
            out.writelines(_dot_chunks(graph, labels))
    checks = evaluation.report.checks
    failed = [name for name in sorted(checks) if not checks[name].passed]
    for name in failed:
        print(f"FAILED {name}: {checks[name].detail}", file=sys.stderr)
    return CHECK_FAILED if failed else 0


def _print_survey(result: SurveyResult) -> None:
    print(f"surveyed {len(result.plans_checked)} catalog plans up to order {result.max_order}")
    print(f"(coverage is the catalog only, not all isomorphism classes <= {result.max_order})")
    print(f"non-nilpotent groups reported: {len(result.reports)}")
    print(f"diameter histogram: {result.diameter_histogram}")
    print(f"planar Engel graphs: {', '.join(result.planar_groups) or 'none'}")
    if result.disconnected_groups:
        print(
            "*** DISCONNECTED ENGEL GRAPHS FOUND (a research-level finding): "
            + ", ".join(result.disconnected_groups)
        )
    for group, check, detail in result.failed_checks:
        print(f"FAILED {group} {check}: {detail}")


def _print_verdicts(verdicts: list[TheoremVerdict]) -> None:
    for v in verdicts:
        status = "PASS" if v.passed else "FAIL"
        suffix = f": {v.detail}" if v.detail else ""
        print(f"{status} {v.name}{suffix}")


def _run_survey(args: argparse.Namespace) -> int:
    # the bounds before the survey, and a bad path after them, fail at once
    _check_bounds(args.max_order, 12 if args.verify else 6)
    if args.out:
        with _writing(args.out):
            args.out.mkdir(parents=True, exist_ok=True)
    result = survey(args.max_order)
    _print_survey(result)
    code = CHECK_FAILED if result.failed_checks else 0
    if args.verify:  # reads the records the survey's catalog pass kept
        verdicts = verify_theorems(args.max_order)
        _print_verdicts(verdicts)
        code = max(code, exit_code_for_verdicts(verdicts))
    if args.out:
        with _writing(args.out):
            for report in result.reports:
                safe = report.name.replace("/", "_")
                (args.out / f"{safe}.json").write_text(write_report(report))
            (args.out / "summary.json").write_text(summary_json(result))
    return code


def exit_code_for_verdicts(verdicts: list[TheoremVerdict]) -> int:
    return CHECK_FAILED if any(not v.passed for v in verdicts) else 0


def _run_verify(args: argparse.Namespace) -> int:
    verdicts = verify_theorems(args.max_order)
    _print_verdicts(verdicts)
    return exit_code_for_verdicts(verdicts)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return err.code if err.code is not None else USAGE_ERROR
    try:
        if args.command == "report":
            return _run_report(args)
        if args.command == "survey":
            return _run_survey(args)
        return _run_verify(args)
    except (ParseError, InvalidParameter, ClosureTooLarge) as err:
        print(f"error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except Exception:
        traceback.print_exc()
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
