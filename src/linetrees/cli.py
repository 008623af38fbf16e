"""Command-line surface: counting, enumeration, series, verification, roots,
and sampling, with json/csv/text output.

Exit codes: 0 success, 1 verification found failures, 2 malformed input,
3 budget or cap violation, 4 numeric failure.  Counts are always emitted as
decimal strings; they outgrow 64-bit integers quickly.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import __version__
from .combinatorics import ColorProfile, closed_form_count
from .counting import ProfileCountTable, SampleRequest
from .errors import (
    BudgetExceeded,
    ColorError,
    DegenerateError,
    DomainError,
    IndexOutOfRange,
    IntegralityViolation,
    ParseError,
    RootFindingFailure,
)
from .limits import DEFAULT_TREE_BUDGET, MAX_COLORS, check_cap
from .roots import DEFAULT_RESIDUAL_TOL, build_char_polynomial, rouche_isolation_check
from .series import closed_form_series, solve_tree_equation
from .series import verify_convolution, verify_geometric, verify_linear_recursion
from .trees import encode, enumerate_by_lines
from .verification import verify_fuss_catalan_rows, verify_narayana_bridge, verify_oracle

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_NUMERIC = 4

VERIFY_KINDS = (
    "recursion",
    "geometric",
    "convolution",
    "fuss-catalan",
    "narayana",
    "oracle",
)

MAX_REPORTED_FAILURES = 100


def _check_d(d: int) -> int:
    if d < 2 or d > MAX_COLORS:
        raise DomainError(f"--d must be in 2..{MAX_COLORS}, got {d}")
    return d


def _parse_profile(text: str, d: int) -> ColorProfile:
    try:
        counts = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"malformed profile {text!r}; expected comma-separated integers")
    return ColorProfile(d, counts)


def _parse_point(text: str, d: int) -> list[float]:
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        raise DomainError(f"malformed point {text!r}; expected comma-separated reals")
    if len(values) != d:
        raise DomainError(f"point has {len(values)} entries but d={d}")
    return values


def _print_json(doc) -> None:
    print(json.dumps(doc, allow_nan=False))


def _csv_out(header, rows) -> None:
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    writer.writerows(rows)


def _run_count(args) -> int:
    profile = _parse_profile(args.profile, _check_d(args.d))
    if args.n < 1:
        raise DomainError(f"--n must be >= 1, got {args.n}")
    check_cap("count profile total", profile.total)
    check_cap("level", args.n)
    value = closed_form_count(profile, args.n)
    if args.format == "json":
        _print_json({"profile": list(profile.counts), "n": args.n, "count": str(value)})
    elif args.format == "csv":
        _csv_out(
            ["profile", "n", "count"],
            [[",".join(map(str, profile.counts)), args.n, str(value)]],
        )
    else:
        print(value)
    return EXIT_OK


def _run_enumerate(args) -> int:
    d = _check_d(args.d)
    stream = enumerate_by_lines(d, args.max_lines, max_trees=args.max_trees)
    if args.format == "csv":
        print("tree")
    for tree in stream:
        text = encode(tree)
        if args.format == "json":
            _print_json({"tree": text})
        else:
            print(text)
    return EXIT_OK


def _run_series(args) -> int:
    d = _check_d(args.d)
    check_cap("level", args.n)
    if args.n == 1:
        result = solve_tree_equation(d, args.order, max_order=args.max_order)
    else:
        result = closed_form_series(d, args.n, args.order, max_order=args.max_order)
    if args.format == "json":
        _print_json(result.to_json_obj())
    elif args.format == "csv":
        header = [f"p_{i}" for i in range(1, d + 1)] + ["c"]
        _csv_out(header, [list(p) + [str(c)] for p, c in result.items_sorted()])
    else:
        for p, c in result.items_sorted():
            print(f"{','.join(map(str, p))}\t{c}")
    return EXIT_OK


def _run_verify(args) -> int:
    d = _check_d(args.d)
    kind = args.kind
    if kind == "recursion":
        check_cap("n_max", args.n_max)
        report = verify_linear_recursion(d, args.n_max, args.order, max_order=args.max_order)
    elif kind == "geometric":
        check_cap("n_max", args.n_max)
        report = verify_geometric(d, args.n_max, args.order, max_order=args.max_order)
    elif kind == "convolution":
        check_cap("level", args.n)
        check_cap("level", args.m)
        report = verify_convolution(d, args.n, args.m, args.order, max_order=args.max_order)
    elif kind == "fuss-catalan":
        check_cap("fuss-catalan order", args.order, d)
        report = verify_fuss_catalan_rows(d, args.order)
    elif kind == "narayana":
        if d != 2:
            raise DomainError("narayana verification is defined only for d=2")
        check_cap("narayana order", args.order)
        report = verify_narayana_bridge(args.order)
    else:
        report = verify_oracle(d, args.order, max_trees=args.max_trees)
    doc = report.to_json_obj(MAX_REPORTED_FAILURES)
    if args.format == "json":
        _print_json(doc)
    elif args.format == "csv":
        _csv_out(
            ["context", "lhs", "rhs"],
            [
                [json.dumps(f.context), str(f.lhs), str(f.rhs)]
                for f in report.failures[:MAX_REPORTED_FAILURES]
            ],
        )
    else:
        status = "ok" if report.ok else f"FAILED ({len(report.failures)} mismatches)"
        print(f"verify {kind} d={d}: {status}")
        for failure in report.failures[:MAX_REPORTED_FAILURES]:
            print(f"  {failure.context}: {failure.lhs} != {failure.rhs}")
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _run_roots(args) -> int:
    d = _check_d(args.d)
    point = _parse_point(args.g, d)
    q = build_char_polynomial(d, point)
    report = rouche_isolation_check(q, args.radius, args.residual_tol)
    principal = report.principal_root
    doc = {
        "d": d,
        "g": point,
        "radius": report.radius,
        "epsilon_R": report.epsilon_used,
        "admissible": report.admissible,
        "roots": [{"re": r.real, "im": r.imag, "mult": m} for r, m in report.roots],
        "inside_count": report.inside_count,
        "principal_root": None
        if principal is None
        else {"re": principal.real, "im": principal.imag},
        "residual_max": report.residual_max,
    }
    if args.format == "json":
        _print_json(doc)
    elif args.format == "csv":
        _csv_out(["re", "im", "mult"], [[r.real, r.imag, m] for r, m in report.roots])
    else:
        print(
            f"Q at g={point}: epsilon_R={report.epsilon_used:.6g} "
            f"admissible={report.admissible} inside_count={report.inside_count}"
        )
        for r, m in report.roots:
            print(f"  root {r.real:+.12g}{r.imag:+.12g}j  mult={m}")
    return EXIT_OK


def _run_sample(args) -> int:
    d = _check_d(args.d)
    profile = _parse_profile(args.profile, d)
    check_cap("sample count", args.count)
    request = SampleRequest(profile, args.count, args.seed)
    table = ProfileCountTable(d)
    samples = table.sample_uniform(request)
    if args.format == "csv":
        print("tree")
    for tree in samples:
        text = encode(tree)
        if args.format == "json":
            _print_json({"tree": text, "profile": list(profile.counts)})
        else:
            print(text)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--d", type=int, required=True, help="number of colors (2..8)")
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default="json", help="output format"
    )
    max_order = argparse.ArgumentParser(add_help=False)
    max_order.add_argument(
        "--max-order", type=int, default=None, help="override the series order cap"
    )
    max_trees = argparse.ArgumentParser(add_help=False)
    max_trees.add_argument(
        "--max-trees", type=int, default=DEFAULT_TREE_BUDGET, help="enumeration budget in trees"
    )

    parser = argparse.ArgumentParser(
        prog="linetrees",
        description="Count, enumerate, sample, and analyze rooted line-colored D-ary trees.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common], help="closed-form count for one profile")
    p.add_argument("--profile", required=True, help="comma-separated per-color line counts")
    p.add_argument("--n", type=int, default=1, help="level (power of the generating function)")
    p.set_defaults(handler=_run_count)

    p = sub.add_parser(
        "enumerate", parents=[common, max_trees], help="stream all trees up to a line budget"
    )
    p.add_argument("--max-lines", type=int, required=True, help="maximum total line count")
    p.set_defaults(handler=_run_enumerate)

    p = sub.add_parser(
        "series", parents=[common, max_order], help="truncated generating-function coefficients"
    )
    p.add_argument("--order", type=int, required=True, help="truncation order (total degree)")
    p.add_argument("--n", type=int, default=1, help="level; 1 solves the functional equation")
    p.set_defaults(handler=_run_series)

    p = sub.add_parser(
        "verify",
        parents=[common, max_order, max_trees],
        help="run a coefficient-level identity check",
    )
    p.add_argument("kind", choices=VERIFY_KINDS)
    p.add_argument(
        "--order",
        type=int,
        required=True,
        help="truncation order / max profile total / max vertex count, per kind",
    )
    p.add_argument("--n-max", type=int, default=3, help="levels to check (recursion, geometric)")
    p.add_argument("--n", type=int, default=1, help="first level (convolution)")
    p.add_argument("--m", type=int, default=1, help="second level (convolution)")
    p.set_defaults(handler=_run_verify)

    p = sub.add_parser("roots", parents=[common], help="characteristic-polynomial root report")
    p.add_argument("--g", required=True, help="comma-separated real point, one value per color")
    p.add_argument("--radius", type=float, default=2.0, help="isolation radius R > 1")
    p.add_argument(
        "--residual-tol",
        type=float,
        default=DEFAULT_RESIDUAL_TOL,
        help="relative residual tolerance for accepted roots",
    )
    p.set_defaults(handler=_run_roots)

    p = sub.add_parser("sample", parents=[common], help="uniform random trees with a fixed profile")
    p.add_argument("--profile", required=True, help="comma-separated per-color line counts")
    p.add_argument("--count", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=int, default=0, help="64-bit seed for sampling")
    p.set_defaults(handler=_run_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (RootFindingFailure, IntegralityViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (DomainError, ParseError, ColorError, DegenerateError, IndexOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
