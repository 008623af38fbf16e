"""Command-line surface: counting, enumeration, series, verification, roots,
and sampling, with json/csv/text output.

Exit codes: 0 success, 1 verification found failures, 2 malformed input,
3 a value above its cap, 4 numeric failure.  Counts are always emitted as
decimal strings; they outgrow 64-bit integers quickly.

This is the one place the caps of ``limits.CAPS`` are applied: each handler
checks its arguments before any work or output, and the library it calls is
uncapped.
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
    DomainError,
    IntegralityViolation,
    LineTreesError,
    RootFindingFailure,
)
from .limits import check_cap, check_colors
from .roots import DEFAULT_RESIDUAL_TOL, build_char_polynomial, rouche_isolation_check
from .series import closed_form_series, solve_tree_equation
from .series import verify_convolution, verify_geometric, verify_linear_recursion
from .trees import enumerate_by_lines
from .verification import (
    MAX_REPORTED_FAILURES,
    verify_fuss_catalan_rows,
    verify_narayana_bridge,
    verify_oracle,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_NUMERIC = 4


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


def _print_trees(encodings, fmt: str, **fields) -> None:
    """One line per tree encoding: the encoding, or a JSON object with the
    encoding under "tree" followed by ``fields``; csv mode writes a ``tree``
    header and one quoted-as-needed field per row."""
    if fmt == "csv":
        _csv_out(["tree"], ([text] for text in encodings))
        return
    write = sys.stdout.write
    if fmt == "json":
        # The encoding grammar never needs JSON escaping, so each line is one
        # template with the encoding put between the quotes of "tree".
        head, tail = json.dumps({"tree": "", **fields}, allow_nan=False).split('""', 1)
        for text in encodings:
            write(f'{head}"{text}"{tail}\n')
    else:
        for text in encodings:
            write(f"{text}\n")


def _run_count(args) -> int:
    profile = _parse_profile(args.profile, check_colors(args.d))
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
    d = check_colors(args.d)
    check_cap("max_lines", args.max_lines, d)
    _print_trees(enumerate_by_lines(d, args.max_lines), args.format)
    return EXIT_OK


def _run_series(args) -> int:
    d = check_colors(args.d)
    check_cap("level", args.n)
    check_cap("order", args.order, d)
    if args.n == 1:
        result = solve_tree_equation(d, args.order)
    else:
        result = closed_form_series(d, args.n, args.order)
    if args.format == "json":
        _print_json(result.to_json_obj())
    elif args.format == "csv":
        header = [f"p_{i}" for i in range(1, d + 1)] + ["c"]
        _csv_out(header, [list(p) + [str(c)] for p, c in result.items_sorted()])
    else:
        for p, c in result.items_sorted():
            print(f"{','.join(map(str, p))}\t{c}")
    return EXIT_OK


def _verify_narayana(d, args):
    if d != 2:
        raise DomainError("narayana verification is defined only for d=2")
    return verify_narayana_bridge(check_cap("narayana order", args.order))


# The options a verify kind may take besides --d and --format.
_VERIFY_FLAGS = {
    "--order": dict(
        type=int, required=True, help="truncation order, max profile total or max vertex count"
    ),
    "--n-max": dict(type=int, default=3, help="levels to check"),
    "--n": dict(type=int, default=1, help="first level"),
    "--m": dict(type=int, default=1, help="second level"),
}

# Each verify kind: the flags it reads, and a runner that checks their caps
# in argument order and then verifies.  The runners look the verifiers up by
# name when they run, so a module-level rebinding of a verifier reaches them.
VERIFY_KINDS = {
    "recursion": (("--order", "--n-max"), lambda d, a: verify_linear_recursion(
        d, check_cap("n_max", a.n_max), check_cap("order", a.order, d))),
    "geometric": (("--order", "--n-max"), lambda d, a: verify_geometric(
        d, check_cap("n_max", a.n_max), check_cap("order", a.order, d))),
    "convolution": (("--order", "--n", "--m"), lambda d, a: verify_convolution(
        d, check_cap("level", a.n), check_cap("level", a.m), check_cap("order", a.order, d))),
    "fuss-catalan": (("--order",), lambda d, a: verify_fuss_catalan_rows(
        d, check_cap("fuss-catalan order", a.order, d))),
    "narayana": (("--order",), _verify_narayana),
    "oracle": (("--order",), lambda d, a: verify_oracle(d, check_cap("max_lines", a.order, d))),
}


def _run_verify(args) -> int:
    d = check_colors(args.d)
    kind = args.kind
    report = VERIFY_KINDS[kind][1](d, args)
    doc = report.to_json_obj()
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
    d = check_colors(args.d)
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
    d = check_colors(args.d)
    profile = _parse_profile(args.profile, d)
    check_cap("sample count", args.count)
    request = SampleRequest(profile, args.count, args.seed)
    check_cap("profile total", profile.total, d)
    samples = ProfileCountTable(d).sample_uniform(request)
    _print_trees(samples, args.format, profile=list(profile.counts))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--d", type=int, required=True, help="number of colors (2..8)")
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default="json", help="output format"
    )

    parser = argparse.ArgumentParser(
        prog="linetrees",
        description="Count, enumerate, sample, and analyze rooted line-colored D-ary trees.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags are matched exactly: an abbreviation such as "--n" for "--n-max"
    # would let a command take a flag it does not read.
    def command(subparsers, name, **kwargs):
        return subparsers.add_parser(name, parents=[common], allow_abbrev=False, **kwargs)

    p = command(sub, "count", help="closed-form count for one profile")
    p.add_argument("--profile", required=True, help="comma-separated per-color line counts")
    p.add_argument("--n", type=int, default=1, help="level (power of the generating function)")
    p.set_defaults(handler=_run_count)

    p = command(sub, "enumerate", help="stream all trees up to a line budget")
    p.add_argument("--max-lines", type=int, required=True, help="maximum total line count")
    p.set_defaults(handler=_run_enumerate)

    p = command(sub, "series", help="truncated generating-function coefficients")
    p.add_argument("--order", type=int, required=True, help="truncation order (total degree)")
    p.add_argument("--n", type=int, default=1, help="level; 1 solves the functional equation")
    p.set_defaults(handler=_run_series)

    p = sub.add_parser("verify", help="run a coefficient-level identity check")
    p.set_defaults(handler=_run_verify)
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind, (flags, _) in VERIFY_KINDS.items():
        k = command(kinds, kind)
        for flag in flags:
            k.add_argument(flag, **_VERIFY_FLAGS[flag])

    p = command(sub, "roots", help="characteristic-polynomial root report")
    p.add_argument("--g", required=True, help="comma-separated real point, one value per color")
    p.add_argument("--radius", type=float, default=2.0, help="isolation radius R > 1")
    p.add_argument(
        "--residual-tol",
        type=float,
        default=DEFAULT_RESIDUAL_TOL,
        help="relative residual tolerance for accepted roots",
    )
    p.set_defaults(handler=_run_roots)

    p = command(sub, "sample", help="uniform random trees with a fixed profile")
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
    except LineTreesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
