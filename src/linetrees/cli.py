"""Command-line surface: counting, enumeration, series, verification, roots,
and sampling, with json/csv/text output.

Exit codes: 0 success, 1 verification found failures, 2 malformed input,
3 a value above its cap, 4 numeric failure, 141 stdout closed by its reader.
``main`` prints each ``LineTreesError`` as one ``error:`` line on stderr and
exits with the error class's ``exit_code``.  Counts are always emitted as
decimal strings; they outgrow 64-bit integers quickly.

A command-line run (``python -m linetrees.cli`` or the ``linetrees``
script, both through ``run``) ends with ``os._exit`` once ``main`` has
flushed stdout and stderr: objects are not freed and no ``atexit`` handler
runs (the package registers none), which saves the interpreter's teardown.
Exit codes and output are the same, and ``main`` called in process returns
as before.

This is the one place the caps of ``limits.CAPS`` are applied: ``main``
checks the number of colors and each handler the rest of its arguments,
before any work or output, and the library it calls is uncapped.

A process loads only what its command runs: building the parser needs
``errors`` and ``limits`` alone, and each handler, and each runner of
``VERIFY_KINDS``, imports the engine module it calls when it runs.

Every multi-line output (trees, csv rows, series coefficients, verify
failures) goes through ``_write_lines``, which joins lines in batches and
writes each batch in pieces of at most ``select.PIPE_BUF`` bytes, not one
write per line.  A pipe write of at most PIPE_BUF bytes is atomic: it lands
whole or fails with EPIPE.  A larger one can land in part when the reader
goes away, and an unbuffered stdout (``PYTHONUNBUFFERED``) drops that count,
so the command would end with 0 and truncated output instead of 141.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import sys
from types import SimpleNamespace

from . import __version__
from .errors import DomainError, LineTreesError
from .limits import check_cap, check_colors, check_int, check_profile

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
# 128 + SIGPIPE, the status a shell gives a process that signal ended.
EXIT_BROKEN_PIPE = 141

# Lines joined per batch of ``_write_lines``: a batch of the longest lines
# (sample trees at d=2, profile total 30, as json) stays under 200 KB.
_BATCH_LINES = 1024


def _parse_profile(text: str, d: int) -> tuple[int, ...]:
    try:
        counts = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise DomainError(f"malformed profile {text!r}; expected comma-separated integers")
    return check_profile(d, counts)


def _parse_point(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise DomainError(f"malformed point {text!r}; expected comma-separated reals")


def _print_json(doc) -> None:
    print(json.dumps(doc, allow_nan=False))


def _write_lines(lines) -> None:
    """Write ``lines``, each ending in its line terminator, to stdout: joined
    ``_BATCH_LINES`` at a time, each batch in pieces of at most
    ``select.PIPE_BUF`` characters (the module docstring says why).

    Every output is ASCII (the tree grammar, ``json.dumps`` with
    ``ensure_ascii``, csv fields and integers), so slicing the text by
    characters slices it by bytes.
    """
    from select import PIPE_BUF

    write = sys.stdout.write
    lines = iter(lines)
    while batch := "".join(itertools.islice(lines, _BATCH_LINES)):
        for start in range(0, len(batch), PIPE_BUF):
            write(batch[start : start + PIPE_BUF])


def _csv_out(header, rows) -> None:
    import csv

    # ``writerow`` returns what its target's ``write`` returns; with ``str``
    # as ``write`` that is the row's finished line, "\r\n" included.
    line = csv.writer(SimpleNamespace(write=str)).writerow
    _write_lines(map(line, itertools.chain([header], rows)))


def _print_trees(encodings, fmt: str, **fields) -> None:
    """One line per tree encoding: the encoding, or a JSON object with the
    encoding under "tree" followed by ``fields``; csv mode writes a ``tree``
    header and one quoted-as-needed field per row."""
    if fmt == "csv":
        _csv_out(["tree"], ([text] for text in encodings))
    elif fmt == "json":
        # The encoding grammar never needs JSON escaping, so each line is one
        # template with the encoding put between the quotes of "tree".
        head, tail = json.dumps({"tree": "", **fields}, allow_nan=False).split('""', 1)
        _write_lines(f'{head}"{text}"{tail}\n' for text in encodings)
    else:
        _write_lines(f"{text}\n" for text in encodings)


def _run_count(args) -> int:
    from .combinatorics import closed_form_count

    profile = _parse_profile(args.profile, args.d)
    check_int("--n", args.n, 1)
    check_cap("count profile total", sum(profile))
    check_cap("level", args.n)
    value = closed_form_count(profile, args.n)
    if args.format == "json":
        _print_json({"profile": list(profile), "n": args.n, "count": str(value)})
    elif args.format == "csv":
        _csv_out(
            ["profile", "n", "count"],
            [[",".join(map(str, profile)), args.n, str(value)]],
        )
    else:
        print(value)
    return EXIT_OK


def _run_enumerate(args) -> int:
    from .trees import enumerate_by_lines

    check_cap("max_lines", args.max_lines, args.d)
    _print_trees(enumerate_by_lines(args.d, args.max_lines), args.format)
    return EXIT_OK


def _run_series(args) -> int:
    from .series import closed_form_series, solve_tree_equation

    d = args.d
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
        _write_lines(f"{','.join(map(str, p))}\t{c}\n" for p, c in result.items_sorted())
    return EXIT_OK


def _engine(name: str):
    """The module ``linetrees.<name>``, imported on first use; the runners of
    ``VERIFY_KINDS`` are lambdas, which cannot hold an import statement."""
    return importlib.import_module(f"{__package__}.{name}")


def _verify_narayana(d, args):
    if d != 2:
        raise DomainError("narayana verification is defined only for d=2")
    return _engine("verification").verify_narayana_bridge(check_cap("narayana order", args.order))


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
# in argument order and then verifies.  The runners look the verifiers up in
# their modules when they run, so a module-level rebinding of a verifier
# reaches them.
VERIFY_KINDS = {
    "recursion": (("--order", "--n-max"), lambda d, a: _engine("series").verify_linear_recursion(
        d, check_cap("n_max", a.n_max), check_cap("order", a.order, d))),
    "geometric": (("--order", "--n-max"), lambda d, a: _engine("series").verify_geometric(
        d, check_cap("n_max", a.n_max), check_cap("order", a.order, d))),
    "convolution": (("--order", "--n", "--m"), lambda d, a: _engine("series").verify_convolution(
        d, check_cap("level", a.n), check_cap("level", a.m), check_cap("order", a.order, d))),
    "fuss-catalan": (("--order",), lambda d, a: _engine("verification").verify_fuss_catalan_rows(
        d, check_cap("fuss-catalan order", a.order, d))),
    "narayana": (("--order",), _verify_narayana),
    "oracle": (("--order",), lambda d, a: _engine("verification").verify_oracle(
        d, check_cap("max_lines", a.order, d))),
}


def _run_verify(args) -> int:
    d = args.d
    kind = args.kind
    report = VERIFY_KINDS[kind][1](d, args)
    doc = report.to_json_obj()
    if args.format == "json":
        _print_json(doc)
    elif args.format == "csv":
        _csv_out(
            ["context", "lhs", "rhs"],
            [[json.dumps(context), str(lhs), str(rhs)] for context, lhs, rhs in report.failures],
        )
    else:
        status = "ok" if report.ok else f"FAILED ({report.failure_count} mismatches)"
        print(f"verify {kind} d={d}: {status}")
        _write_lines(f"  {context}: {lhs} != {rhs}\n" for context, lhs, rhs in report.failures)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


def _run_roots(args) -> int:
    from .roots import rouche_isolation_check

    d = args.d
    point = _parse_point(args.g)
    report = rouche_isolation_check(d, point, args.radius)
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
    from .counting import ProfileCountTable, SampleRequest

    d = args.d
    profile = _parse_profile(args.profile, d)
    check_cap("sample count", args.count)
    request = SampleRequest(profile, args.count, args.seed)
    check_cap("profile total", sum(profile), d)
    samples = ProfileCountTable(d).sample_uniform(request)
    _print_trees(samples, args.format, profile=list(profile))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse ignores an OSError from its own writes; let one on stdout
    reach ``main``, which an unbuffered stdout (``PYTHONUNBUFFERED``) needs.
    Python 3.10's argparse does not ignore one on stderr, so ignore it here."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            file.write(message)
        else:
            try:
                super()._print_message(message, file)
            except OSError:
                pass


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--d", type=int, required=True, help="number of colors (2..8)")
    common.add_argument(
        "--format", choices=("json", "csv", "text"), default="json", help="output format"
    )

    parser = _Parser(
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
    p.set_defaults(handler=_run_roots)

    p = command(sub, "sample", help="uniform random trees with a fixed profile")
    p.add_argument("--profile", required=True, help="comma-separated per-color line counts")
    p.add_argument("--count", type=int, required=True, help="number of samples")
    p.add_argument("--seed", type=int, default=0, help="64-bit seed for sampling")
    p.set_defaults(handler=_run_sample)

    return parser


def main(argv: list[str] | None = None) -> int:
    if sys.stdout is None:
        # File descriptor 1 was closed at start-up (``>&-``).  Write to a
        # pipe whose reader is gone instead, so that output ends the command
        # as it does after ``| head``.
        read_end, write_end = os.pipe()
        os.close(read_end)
        sys.stdout = open(write_end, "w")
    if sys.stderr is None:
        # File descriptor 2 was closed at start-up (``2>&-``).  Messages go
        # to devnull, not to stdout, where argparse sends its usage when
        # sys.stderr is None; the exit code still tells.
        sys.stderr = open(os.devnull, "w")
    try:
        try:
            # --version and --help print here and raise SystemExit.
            args = _build_parser().parse_args(argv)
            check_colors(args.d)
            return args.handler(args)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``| head``).  Point stdout at devnull so
        # that the flush at interpreter exit cannot raise again.
        _to_devnull(sys.stdout)
        return EXIT_BROKEN_PIPE
    except LineTreesError as exc:
        try:
            sys.stderr.write(f"error: {exc}\n")
        except OSError:
            # Another file landed on fd 2 before Python started (a read-only
            # one, ``2</dev/null``), and writing fails.  The exit code still
            # tells, as it does for argparse's own errors.
            pass
        return exc.exit_code
    finally:
        # A buffered stderr keeps what it failed to write (the message above
        # or argparse's), and its flush at interpreter exit would fail again
        # and exit 120: point fd 2 at devnull.
        try:
            sys.stderr.flush()
        except OSError:
            _to_devnull(sys.stderr)


def _to_devnull(stream) -> None:
    """Point the file descriptor under ``stream`` at devnull."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def run() -> None:
    """The command-line entry: run ``main`` and end the process with its exit
    code, or with the code of argparse's ``SystemExit``, through ``os._exit``
    (the module docstring says why nothing is lost)."""
    try:
        code = main()
    except SystemExit as exc:
        code = exc.code
    os._exit(code)


if __name__ == "__main__":
    run()
