"""Tests for the command-line surface: schemas, formats, exit codes."""

import csv
import hashlib
import io
import json
import os
import random
import re
import select
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linetrees import combinatorics, roots, series, trees, verification
from linetrees.cli import VERIFY_KINDS, main
from linetrees.counting import ProfileCountTable, SampleRequest
from linetrees.errors import RootFindingFailure
from linetrees.limits import CAPS, MAX_COLORS
from linetrees.roots import build_char_polynomial, roots_all
from linetrees.trees import enumerate_by_lines
from reference_trees import decode


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "--d", "2", "--profile", "1,1")
    assert code == 0
    assert json.loads(out) == {"profile": [1, 1], "n": 1, "count": "3"}


def test_count_text_and_csv(capsys):
    code, out, _ = run(capsys, "count", "--d", "3", "--profile", "0,0,0", "--format", "text")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "count", "--d", "2", "--profile", "2,1", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0
    assert rows == [["profile", "n", "count"], ["2,1", "1", "6"]]


def test_count_counts_are_decimal_strings(capsys):
    # large enough to overflow 64-bit integers
    code, out, _ = run(capsys, "count", "--d", "4", "--profile", "9,9,9,9", "--n", "6")
    doc = json.loads(out)
    assert code == 0
    assert isinstance(doc["count"], str)
    assert int(doc["count"]) > 2**64


def test_numbers_are_read_by_python_int(capsys):
    # The documented lenient grammar: Unicode decimal digits, '_' between
    # digits and surrounding spaces.
    code, out, _ = run(capsys, "count", "--d", "\u0662", "--profile", " 3,1_0")
    assert code == 0
    assert json.loads(out) == {"profile": [3, 10], "n": 1, "count": "26026"}


def test_count_profile_length_mismatch_exits_2(capsys):
    code, _, err = run(capsys, "count", "--d", "2", "--profile", "1,1,1")
    assert code == 2
    assert "error" in err


def test_count_malformed_profile_exits_2(capsys):
    code, _, _ = run(capsys, "count", "--d", "2", "--profile", "1,x")
    assert code == 2


def test_d_out_of_range_exits_2(capsys):
    assert run(capsys, "count", "--d", "1", "--profile", "1")[0] == 2
    assert run(capsys, "count", "--d", "9", "--profile", "0,0,0,0,0,0,0,0,0")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("count", "--d", "1", "--profile", "x"),
        ("enumerate", "--d", "9", "--max-lines", "99"),
        ("series", "--d", "0", "--order", "99"),
        ("verify", "narayana", "--d", "9", "--order", "-1"),
        ("roots", "--d", "1", "--g", "0.1,oops"),
        ("sample", "--d", "9", "--profile", "1", "--count", "99999"),
    ],
)
def test_colors_are_checked_before_other_arguments(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: d must be an integer in 2..8") and err.count("\n") == 1


def test_enumerate_text(capsys):
    code, out, _ = run(capsys, "enumerate", "--d", "2", "--max-lines", "2", "--format", "text")
    assert code == 0
    assert out.splitlines() == [
        "()",
        "(1:())",
        "(2:())",
        "(1:(),2:())",
        "(1:(1:()))",
        "(1:(2:()))",
        "(2:(1:()))",
        "(2:(2:()))",
    ]


def test_enumerate_json_round_trips(capsys):
    code, out, _ = run(capsys, "enumerate", "--d", "3", "--max-lines", "1")
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert [d["tree"] for d in docs] == ["()", "(1:())", "(2:())", "(3:())"]


def test_enumerate_json_lines_equal_json_dumps(capsys):
    code, out, _ = run(capsys, "enumerate", "--d", "3", "--max-lines", "4")
    assert code == 0
    texts = enumerate_by_lines(3, 4)
    assert out == "".join(json.dumps({"tree": text}, allow_nan=False) + "\n" for text in texts)


def test_sample_json_lines_equal_json_dumps(capsys):
    argv = ("sample", "--d", "3", "--profile", "2,2,1", "--count", "50", "--seed", "9")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    request = SampleRequest((2, 2, 1), 50, 9)
    expected = (
        json.dumps({"tree": text, "profile": [2, 2, 1]}, allow_nan=False) + "\n"
        for text in ProfileCountTable(3).sample_uniform(request)
    )
    assert out == "".join(expected)


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--d", "3", "--max-lines", "3"),
        ("sample", "--d", "3", "--profile", "2,1,1", "--count", "40", "--seed", "5"),
    ],
    ids=["enumerate", "sample"],
)
def test_tree_csv_rows_are_one_decodable_field(capsys, argv):
    """A tree's commas are quoted, so csv.reader reads one field per row."""
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["tree"]
    assert all(len(row) == 1 for row in rows[1:])
    for (text,) in rows[1:]:
        decode(text, 3)
    _, lines, _ = run(capsys, *argv, "--format", "text")
    assert [text for (text,) in rows[1:]] == lines.splitlines()


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize(
    "argv",
    [
        ("sample", "--d", "3", "--profile", "2,2,1", "--count", "50", "--seed", "9"),
        ("enumerate", "--d", "3", "--max-lines", "4"),
    ],
    ids=["sample", "enumerate"],
)
def test_tree_output_builds_no_tree_objects(capsys, monkeypatch, argv, fmt):
    """sample and enumerate print encodings without calling encode."""
    expected = run(capsys, *argv, "--format", fmt)
    assert expected[0] == 0

    def refuse(*args):
        raise AssertionError("a tree object was built or encoded")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "linetrees" and hasattr(module, "encode"):
            monkeypatch.setattr(module, "encode", refuse)
    assert run(capsys, *argv, "--format", fmt) == expected


class WriteRecorder:
    """A stdout stand-in that keeps each ``write`` it is given."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


def recorded_writes(*argv):
    recorder = WriteRecorder()
    with redirect_stdout(recorder):
        assert main(list(argv)) == 0
    return recorder.writes


def per_line_trees(encodings, fmt, **fields):
    """Tree output as it was written one line at a time: the reference for
    the batched writer."""
    out = io.StringIO()
    if fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(["tree"])
        writer.writerows([text] for text in encodings)
    elif fmt == "json":
        head, tail = json.dumps({"tree": "", **fields}, allow_nan=False).split('""', 1)
        for text in encodings:
            out.write(f'{head}"{text}"{tail}\n')
    else:
        for text in encodings:
            out.write(f"{text}\n")
    return out.getvalue()


SAMPLE_CAP_PROFILES = [
    "15,15", "20,10", "5,5,5", "3,3,2,2", "2,2,2,2,2", "2,2,1,1,1,1,1,1",
    "1,1,1,1,1,1,2,2", "0,0,0,0,0,0,0,10",
]


@pytest.mark.parametrize(
    "argv",
    [pytest.param(("enumerate", "--d", str(d), "--max-lines", str(lines)), id=f"enumerate-d{d}")
     for d, lines in CAPS["max_lines"].items()]
    + [pytest.param(("sample", "--d", str(p.count(",") + 1), "--profile", p, "--count", "2000",
                     "--seed", "3"), id=f"sample-{p}")
       for p in SAMPLE_CAP_PROFILES],
)
def test_tree_output_is_written_in_pipe_buf_pieces(argv):
    """At every cap, in each format, the writes join to the one-line-per-tree
    output and none is longer than PIPE_BUF (every output is ASCII, so a
    character is a byte)."""
    d = int(argv[2])
    if argv[0] == "enumerate":
        encodings, fields = list(enumerate_by_lines(d, int(argv[4]))), {}
    else:
        profile = tuple(map(int, argv[4].split(",")))
        request = SampleRequest(profile, int(argv[6]), int(argv[8]))
        encodings = ProfileCountTable(d).sample_uniform(request)
        fields = {"profile": list(profile)}
    for fmt in ("json", "text", "csv"):
        writes = recorded_writes(*argv, "--format", fmt)
        assert "".join(writes) == per_line_trees(encodings, fmt, **fields)
        assert max(map(len, writes)) <= select.PIPE_BUF
        assert "".join(writes).isascii()


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_enumerate_writes_far_fewer_times_than_it_prints_trees(fmt):
    """52,787 trees at d=3 and 7 lines, once one write each."""
    writes = recorded_writes("enumerate", "--d", "3", "--max-lines", "7", "--format", fmt)
    assert len(writes) < 1000


def test_series_text_and_csv_are_written_in_pipe_buf_pieces():
    """The 12,870 coefficients of ``series --d 8 --order 8`` equal their
    one-line-per-coefficient output in text and csv."""
    from linetrees.series import solve_tree_equation

    items = list(solve_tree_equation(8, 8).items_sorted())
    text = "".join(f"{','.join(map(str, p))}\t{c}\n" for p, c in items)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([f"p_{i}" for i in range(1, 9)] + ["c"])
    writer.writerows(list(p) + [str(c)] for p, c in items)
    for fmt, expected in [("text", text), ("csv", out.getvalue())]:
        writes = recorded_writes("series", "--d", "8", "--order", "8", "--format", fmt)
        assert "".join(writes) == expected
        assert max(map(len, writes)) <= select.PIPE_BUF


def test_enumerate_budget_exits_3(capsys):
    assert run(capsys, "enumerate", "--d", "2", "--max-lines", "12")[0] == 3


def test_enumerate_cap_error_prints_no_csv_header(capsys):
    for argv, expected in [
        (("--max-lines", "99"), 3),
        (("--max-lines", "-1"), 2),
    ]:
        code, out, err = run(capsys, "enumerate", "--d", "2", *argv, "--format", "csv")
        assert (code, out) == (expected, "")
        assert err.startswith("error: ")


def test_series_json_schema(capsys):
    code, out, _ = run(capsys, "series", "--d", "2", "--order", "2")
    doc = json.loads(out)
    assert code == 0
    assert doc["d"] == 2 and doc["order"] == 2
    assert {"p": [1, 1], "c": "3"} in doc["coeffs"]
    assert len(doc["coeffs"]) == 6


def test_series_csv(capsys):
    code, out, _ = run(capsys, "series", "--d", "2", "--order", "1", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert code == 0
    assert rows[0] == ["p_1", "p_2", "c"]
    assert len(rows) == 4


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_series_rows_match_json(capsys, fmt):
    argv = ("series", "--d", "3", "--order", "4", "--n", "2")
    _, out, _ = run(capsys, *argv)
    expected = [[*map(str, item["p"]), item["c"]] for item in json.loads(out)["coeffs"]]
    code, out, _ = run(capsys, *argv, "--format", fmt)
    if fmt == "csv":
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["p_1", "p_2", "p_3", "c"]
    else:
        rows = [[*p.split(","), c] for p, c in (line.split("\t") for line in out.splitlines())]
    assert code == 0 and rows == expected


def test_series_order_cap_exits_3(capsys):
    assert run(capsys, "series", "--d", "2", "--order", "40")[0] == 3
    assert run(capsys, "series", "--d", "2", "--order", "20")[0] == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "recursion", "--d", "2", "--order", "8", "--n-max", "5"),
        ("verify", "recursion", "--d", "3", "--order", "6", "--n-max", "4"),
        ("verify", "geometric", "--d", "2", "--order", "6", "--n-max", "4"),
        ("verify", "convolution", "--d", "2", "--order", "6", "--n", "2", "--m", "3"),
        ("verify", "fuss-catalan", "--d", "2", "--order", "8"),
        ("verify", "fuss-catalan", "--d", "3", "--order", "5"),
        ("verify", "narayana", "--d", "2", "--order", "8"),
        ("verify", "oracle", "--d", "2", "--order", "4"),
        ("verify", "oracle", "--d", "3", "--order", "4"),
    ],
)
def test_verify_kinds_pass(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["failures"] == []


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_failing_verify_lists_the_first_100_failures(capsys, monkeypatch, fmt):
    """With every Dyck path count off by one, each of the 231 profiles of
    total <= 20 fails; the output counts them all and lists the first 100."""
    right = verification.dyck_paths_by_peaks
    monkeypatch.setattr(
        verification,
        "dyck_paths_by_peaks",
        lambda n_max: [[c + 1 for c in row] for row in right(n_max)],
    )
    code, out, _ = run(capsys, "verify", "narayana", "--d", "2", "--order", "20", "--format", fmt)
    assert code == 1
    if fmt == "json":
        doc = json.loads(out)
        assert doc["ok"] is False and doc["failure_count"] == 231
        assert len(doc["failures"]) == 100
        assert doc["failures"][0] == {"p": [0, 0], "lhs": "1", "rhs": "2"}
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["context", "lhs", "rhs"] and len(rows) == 101
        assert rows[1] == ['{"p": [0, 0]}', "1", "2"]
    else:
        lines = out.splitlines()
        assert lines[0] == "verify narayana d=2: FAILED (231 mismatches)"
        assert len(lines) == 101 and lines[1] == "  {'p': [0, 0]}: 1 != 2"


@pytest.mark.parametrize("side", ["closed-form", "dyck-paths"])
def test_verify_narayana_fails_when_either_side_is_off_by_one(capsys, monkeypatch, side):
    """One count off by one at the profile (3, 4), on either side, is the one
    failure reported."""
    if side == "closed-form":
        right_count = combinatorics.closed_form_count
        monkeypatch.setattr(
            combinatorics,
            "closed_form_count",
            lambda profile, n=1: right_count(profile, n) + (tuple(profile) == (3, 4)),
        )
    else:
        right_rows = verification.dyck_paths_by_peaks

        def wrong_rows(n_max):
            rows = right_rows(n_max)
            rows[8][4] += 1  # N(8, 4), the count of (3, 4)
            return rows

        monkeypatch.setattr(verification, "dyck_paths_by_peaks", wrong_rows)
    code, out, _ = run(capsys, "verify", "narayana", "--d", "2", "--order", "10")
    assert code == 1
    doc = json.loads(out)
    assert doc["failure_count"] == 1 and doc["failures"][0]["p"] == [3, 4]


def _closed_form_off(level, p, wrong=lambda c: c + 1):
    """``combinatorics.closed_form_count`` returning wrong(c) for the
    level-``level`` count c of ``p``; every closed-form side reads it."""
    right = combinatorics.closed_form_count

    def count(profile, n=1):
        c = right(profile, n)
        return wrong(c) if (n, tuple(profile)) == (level, p) else c

    return combinatorics, "closed_form_count", count


def _series_off(owner, name, p, wrong=lambda c: c + 1):
    """``owner.name``, a function returning a MultiSeries, returning wrong(c)
    for its coefficient c at ``p``."""
    right = getattr(owner, name)

    def off(*args):
        out = right(*args)
        return series.MultiSeries(out.d, out.order, {**out.coeffs, p: wrong(out.coefficient(p))})

    return owner, name, off


def _tally_without(p):
    """``trees.count_by_profile_bruteforce`` with the tally of ``p`` dropped."""
    right = trees.count_by_profile_bruteforce

    def tally(d, max_total):
        out = right(d, max_total)
        del out[p]
        return out

    return trees, "count_by_profile_bruteforce", tally


def _fuss_catalan_off(p_vertices):
    """The d-Catalan side of ``verify fuss-catalan``, off by one at one row."""
    right = verification.fuss_catalan_total
    return verification, "fuss_catalan_total", lambda d, p: right(d, p) + (p == p_vertices)


def _to_zero(c):
    return 0


# id: (verify argv, the patch as (owner, name, replacement), the context of
# the failure it must cause).  A "1-to-0" case turns a count of 1 into 0, so a
# walk over only the other side's nonzero keys would miss it.
_MUTATIONS = {
    "oracle-closed-form": (
        "oracle --d 3 --order 4", lambda: _closed_form_off(1, (1, 2, 0)), {"p": [1, 2, 0]}),
    "oracle-bruteforce-1-to-0": (
        "oracle --d 3 --order 4", lambda: _tally_without((0, 0, 0)), {"p": [0, 0, 0]}),
    "geometric-closed-form": (
        "geometric --d 3 --order 5 --n-max 4", lambda: _closed_form_off(3, (2, 1, 0)),
        {"n": 3, "p": [2, 1, 0]}),
    "geometric-solver-1-to-0": (
        "geometric --d 3 --order 5 --n-max 4",
        lambda: _series_off(series, "solve_tree_equation", (0, 0, 0), _to_zero),
        {"n": 1, "p": [0, 0, 0]}),
    "recursion-closed-form": (
        "recursion --d 3 --order 5 --n-max 4", lambda: _closed_form_off(3, (1, 0, 1)),
        {"n": 2, "p": [1, 0, 1]}),
    "recursion-closed-form-1-to-0": (
        "recursion --d 3 --order 5 --n-max 4",
        lambda: _closed_form_off(2, (0, 0, 0), _to_zero), {"n": 1, "p": [0, 0, 0]}),
    "convolution-closed-form-1-to-0": (
        "convolution --d 3 --order 5 --n 1 --m 2",
        lambda: _closed_form_off(3, (0, 0, 0), _to_zero), {"p": [0, 0, 0]}),
    "convolution-product": (
        "convolution --d 3 --order 5 --n 1 --m 2",
        lambda: _series_off(series.MultiSeries, "__mul__", (0, 2, 1)), {"p": [0, 2, 1]}),
    "fuss-catalan-closed-form": (
        "fuss-catalan --d 3 --order 6", lambda: _closed_form_off(1, (1, 0, 1)), {"P": 3}),
    "fuss-catalan-d-catalan": (
        "fuss-catalan --d 3 --order 6", lambda: _fuss_catalan_off(3), {"P": 3}),
}


@pytest.mark.parametrize("case", _MUTATIONS)
def test_verify_fails_when_either_side_is_off_at_one_coefficient(capsys, monkeypatch, case):
    """One side of each verify kind put off at one coefficient makes the kind
    exit 1 and list that coefficient.  The closed-form side is reached
    through ``combinatorics.closed_form_count``; the other side through the
    brute-force tally, the series solver, the series product or the
    d-Catalan numbers."""
    args, patch, context = _MUTATIONS[case]
    monkeypatch.setattr(*patch())
    code, out, _ = run(capsys, "verify", *args.split())
    assert code == 1
    contexts = [
        {key: value for key, value in failure.items() if key not in ("lhs", "rhs")}
        for failure in json.loads(out)["failures"]
    ]
    assert context in contexts


def test_verify_narayana_wrong_d_exits_2(capsys):
    assert run(capsys, "verify", "narayana", "--d", "3", "--order", "4")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "fuss-catalan", "--d", "2", "--order", "0"),
        ("verify", "fuss-catalan", "--d", "3", "--order", "-1"),
        ("verify", "narayana", "--d", "2", "--order", "-1"),
    ],
)
def test_verify_checking_nothing_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_unknown_kind_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus", "--d", "2", "--order", "4"])
    assert exc.value.code == 2


def test_roots_json_schema(capsys):
    code, out, _ = run(capsys, "roots", "--d", "2", "--g", "0.1,0.1", "--radius", "2")
    doc = json.loads(out)
    assert code == 0
    assert doc["admissible"] is True
    assert doc["inside_count"] == 1
    assert abs(doc["principal_root"]["re"] - 1.27016654) < 1e-7
    assert doc["epsilon_R"] == pytest.approx(0.2071067811865476)
    assert all({"re", "im", "mult"} <= set(r) for r in doc["roots"])


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_roots_rows_match_json(capsys, fmt):
    """csv and text rows hold the json roots; they are compared with the same
    argv's json, not with fixed bytes, since the last bits of np.roots depend
    on the LAPACK build."""
    argv = ("roots", "--d", "3", "--g=0.1,-0.2,0.05", "--radius", "3")
    _, out, _ = run(capsys, *argv)
    doc = json.loads(out)
    code, out, _ = run(capsys, *argv, "--format", fmt)
    assert code == 0 and len(doc["roots"]) == 3
    if fmt == "csv":
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["re", "im", "mult"]
        assert [[float(re_), float(im), int(m)] for re_, im, m in rows] == [
            [r["re"], r["im"], r["mult"]] for r in doc["roots"]
        ]
    else:
        assert out.splitlines() == [
            f"Q at g={doc['g']}: epsilon_R={doc['epsilon_R']:.6g} "
            f"admissible={doc['admissible']} inside_count={doc['inside_count']}",
            *(f"  root {r['re']:+.12g}{r['im']:+.12g}j  mult={r['mult']}" for r in doc["roots"]),
        ]


def test_roots_bound_is_checked_at_1_over_r_where_it_overflows(capsys, monkeypatch):
    """Q has a root near -1.2e216, where sum_k |c_k| |r|^k overflows.  The
    root is judged on Q's reversed coefficients at 1/r, where that bound is
    finite, and residual_max stays the forward |Q(r)|; under a zero bound
    the failure message shows that finite scale."""
    g = "8.013368438209091e-217,-0.15337351170497798,-0.09544280292481254"
    code, out, _ = run(capsys, "roots", "--d", "3", f"--g={g}")
    doc = json.loads(out)
    assert code == 0 and doc["inside_count"] == 1
    assert doc["residual_max"] > 1e200
    q = build_char_polynomial(3, [float(x) for x in g.split(",")])
    monkeypatch.setattr(roots, "RESIDUAL_TOL", 0.0)
    with pytest.raises(RootFindingFailure) as exc:
        roots_all(q)
    assert "inf" not in str(exc.value)


def test_roots_inadmissible_point(capsys):
    code, out, _ = run(capsys, "roots", "--d", "2", "--g", "0.3,0.3")
    doc = json.loads(out)
    assert code == 0
    assert doc["admissible"] is False


def test_roots_zero_residual_tol_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(roots, "RESIDUAL_TOL", 0.0)
    code, _, err = run(capsys, "roots", "--d", "2", "--g", "0.1,0.1")
    assert code == 4
    assert "residual" in err


def test_roots_zero_residual_tol_accepts_an_exact_root(capsys, monkeypatch):
    # At g = 0, Q deflates to 1 - x, whose root 1 has residual exactly 0:
    # with RESIDUAL_TOL at 0 the bound |Q(r)| <= RESIDUAL_TOL * scale holds
    # with equality.
    monkeypatch.setattr(roots, "RESIDUAL_TOL", 0.0)
    code, out, _ = run(capsys, "roots", "--d", "2", "--g=0,0")
    assert code == 0
    assert json.loads(out)["residual_max"] == 0.0


def test_roots_judged_at_1_over_r_take_no_newton_step(capsys, monkeypatch):
    """At g = (0.07, 0.07, 2e-158) Q has a root near -5e157, where sum_k
    |c_k| |r|^k overflows, so it is judged at 1/r.  The companion matrix is
    made to return it 1e-9 off, relative: that fails the bound at 1/r, and
    roots exits 4, although one Newton step on Q would bring the root back.
    An unperturbed root misses that bound only in its last bits (as at
    0.05,0.06,7e-159 with ``roots.RESIDUAL_TOL`` patched to 1e-17), which
    depend on the LAPACK build, so the root is perturbed instead."""
    import numpy as np

    exact = np.roots

    def off(coeffs):
        found = exact(coeffs)
        found[np.argmax(abs(found))] *= 1 + 1e-9
        return found

    monkeypatch.setattr(np, "roots", off)
    code, out, err = run(capsys, "roots", "--d", "3", "--g=0.07,0.07,2e-158")
    assert (code, out) == (4, "")
    match = re.fullmatch(r"error: root residual \S+ exceeds 1\.0e-10 \* (\S+)\n", err)
    assert match and float(match[1]) < 1e-150, err  # the scale at 1/r


@pytest.mark.parametrize(
    "argv,pattern",
    [
        (["--d", "2", "--g", "0.1,0.1"], r"error: root residual \S+ exceeds 0\.0e\+00 \* \S+"),
        (["--d", "2", "--g=1e-200,1e-120"], r"error: the roots overflow floating point \(.+\)"),
        (["--d", "8", "--g=0.05,0.05,0.05,0.05,0.05,0.05,0.05,1e-250"],
         r"error: the residual \|Q\(r\)\| at a root overflows floating point"),
    ],
)
def test_roots_numeric_failure_message(capsys, monkeypatch, argv, pattern):
    """Each numeric failure ends in its one ``error:`` line.  The bound is 0,
    which no root of the first point meets; the overflows of the other two
    are found before any root is judged against it."""
    monkeypatch.setattr(roots, "RESIDUAL_TOL", 0.0)
    code, out, err = run(capsys, "roots", *argv)
    assert (code, out) == (4, "")
    assert re.fullmatch(pattern + "\n", err), err


def test_roots_accepts_large_roots_by_their_backward_error(capsys):
    # |g_3| is near 0, so Q has a root near -672; its residual 2.1e-10 is
    # above 1e-10 * max|c_k| but far below 1e-10 * sum_k |c_k| |r|^k.
    g = "0.0603845,-0.0349089,0.00149142,0.0160745,-0.0443491"
    code, out, _ = run(capsys, "roots", "--d", "5", f"--g={g}", "--radius", "4.0")
    doc = json.loads(out)
    assert code == 0
    assert doc["admissible"] is True and doc["inside_count"] == 1
    assert sum(abs(complex(r["re"], r["im"])) < 4.0 for r in doc["roots"]) == 1
    assert doc["residual_max"] > 1e-10


@pytest.mark.parametrize(
    "g,code",
    [
        ("1e-300,0.05", 0),
        ("1e-300,0.5", 0),
        ("0.05,0.05,0.05,0.05,0.05,0.05,0.05,1e-250", 4),
        ("1e-200,1e-120", 4),
        ("1e-160,1e-150", 4),
    ],
)
def test_roots_near_underflow_coordinate_ends_without_traceback(capsys, g, code):
    # Q has a root of norm about 1/|g_i|.  Near 1e300 it is finite and
    # passes the backward-error bound; beyond the float range the companion
    # matrix or |Q(r)| overflows, which is a numeric failure.
    d = g.count(",") + 1
    got, out, err = run(capsys, "roots", "--d", str(d), f"--g={g}")
    assert got == code
    if code == 0:
        doc = json.loads(out)
        assert doc["inside_count"] == 1
        assert max(abs(complex(r["re"], r["im"])) for r in doc["roots"]) > 1e299
    else:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def _horner(coeffs, x):
    """sum_k c_k x^k and sum_k |c_k| |x|^k, by Horner's rule, so that no
    x**k overflows alone."""
    value, scale = 0j, 0.0
    for c in reversed(coeffs):
        value, scale = value * x + c, scale * abs(x) + abs(c)
    return value, scale


def _roots_meet_their_bounds(g: list[float], doc: dict) -> None:
    """Each reported root r meets |Q(r)| <= 1e-10 * sum_k |c_k| |r|^k, and
    the roots, with their multiplicities, rebuild each coefficient of Q
    within 1e-8 of the same coefficient of |c_d| prod (X + |r|).  A root
    that stood in for another would miss by far more; roots that each meet
    the 1e-10 bound can still miss by about 1e-9 together.  Where the scale
    overflows, the first bound is judged divided by |r|^d, on Q's reversed
    coefficients at 1/r.  Q is taken without its exactly-zero leading
    coefficients, as the root finder deflates them."""
    q = list(build_char_polynomial(len(g), g))
    while q[-1] == 0:
        q.pop()
    found = [complex(r["re"], r["im"]) for r in doc["roots"] for _ in range(r["mult"])]
    for root in found:
        value, scale = _horner(q, root)
        if scale == float("inf"):
            value, scale = _horner(q[::-1], 1 / root)
        assert abs(value) <= 1e-10 * scale, root
    rebuilt, bounds = [q[-1]], [abs(q[-1])]
    for r in found:
        rebuilt = [a - r * b for a, b in zip([0j] + rebuilt, rebuilt + [0j])]
        bounds = [a + abs(r) * b for a, b in zip([0.0] + bounds, bounds + [0.0])]
    assert len(rebuilt) == len(q)
    for got, want, bound in zip(rebuilt, q, bounds):
        assert abs(got - want) <= 1e-8 * bound


def test_roots_polishes_roots_the_companion_matrix_leaves_inexact(capsys):
    # e_8 is about 1e-40, so the companion matrix misplaces the small roots
    # by about 1e-3 relative; Newton steps on Q bring them under the bound.
    g = "0.04,0.04,0.04,0.04,0.04,0.04,0.04,1e-30"
    code, out, err = run(capsys, "roots", "--d", "8", f"--g={g}")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["admissible"] is True and doc["inside_count"] == 1
    _roots_meet_their_bounds([float(x) for x in g.split(",")], doc)


@pytest.mark.parametrize("scale", [1e-12, 1e-16, 1e-20])
@pytest.mark.parametrize("d", [3, 5, 8])
def test_roots_at_admissible_points_with_a_tiny_coordinate(capsys, d, scale):
    """Admissible points at R=2 with one |g_i| scaled far down exit 0, with
    one root inside R and every root meeting its bound."""
    rng = random.Random(f"{d}-{scale}")
    epsilon = (2.0 ** (1.0 / d) - 1.0) / 2.0
    for _ in range(100):
        g = [rng.uniform(-0.9, 0.9) * epsilon for _ in range(d)]
        g[rng.randrange(d)] *= scale
        code, out, err = run(capsys, "roots", "--d", str(d), "--g=" + ",".join(map(repr, g)))
        assert (code, err) == (0, ""), g
        doc = json.loads(out)
        assert doc["admissible"] is True and doc["inside_count"] == 1, g
        _roots_meet_their_bounds(g, doc)


def test_roots_at_admissible_points_with_coordinates_of_many_scales(capsys):
    """Admissible points whose coordinates are each scaled down by its own
    10^-k either exit 4 or report one root inside R.  Here the companion
    matrix can return one root twice in place of a root near 1/|g_i|, and
    each copy meets its own bound."""
    rng = random.Random("many-scales")
    for _ in range(200):
        d, radius = rng.randint(2, 8), rng.choice([1.5, 2.0, 3.0, 5.0])
        epsilon = (radius ** (1.0 / d) - 1.0) / radius
        g = [
            rng.uniform(-0.999, 0.999) * epsilon * 10.0 ** -rng.choice([0, 3, 10, 30, 100, 250])
            for _ in range(d)
        ]
        argv = ["roots", "--d", str(d), "--g=" + ",".join(map(repr, g)), "--radius", repr(radius)]
        code, out, err = run(capsys, *argv)
        if code == 4:
            assert out == "" and err.startswith("error: ") and err.count("\n") == 1, argv
            continue
        assert (code, err) == (0, ""), argv
        doc = json.loads(out)
        assert doc["admissible"] is True and doc["inside_count"] == 1, argv
        _roots_meet_their_bounds(g, doc)


def test_roots_residual_tol_is_not_a_flag(capsys):
    """The backward-error bound is fixed, so ``--residual-tol`` is an
    unknown flag: argparse's one ``error:`` line, after its usage."""
    with pytest.raises(SystemExit) as exc:
        main(["roots", "--d", "2", "--g", "0.1,0.1", "--residual-tol", "0"])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert [line for line in err.splitlines() if "error:" in line] == [
        "linetrees: error: unrecognized arguments: --residual-tol 0"
    ] == err.splitlines()[-1:]


def test_roots_bad_point_exits_2(capsys):
    assert run(capsys, "roots", "--d", "2", "--g", "0.1")[0] == 2
    assert run(capsys, "roots", "--d", "2", "--g", "0.1,oops")[0] == 2


@pytest.mark.parametrize(
    "extra",
    [
        ("--g", "nan,0.1"),
        ("--g", "0.1,inf"),
        ("--g", "0.1,0.1", "--radius", "nan"),
        ("--g", "0.1,0.1", "--radius", "inf"),
    ],
)
def test_roots_non_finite_input_exits_2(capsys, extra):
    code, out, err = run(capsys, "roots", "--d", "2", *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "finite" in err and err.count("\n") == 1


def test_sample_deterministic_bytes(capsys):
    argv = ("sample", "--d", "3", "--profile", "1,1,1", "--count", "5", "--seed", "7")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    docs = [json.loads(line) for line in out1.splitlines()]
    assert len(docs) == 5
    assert all(doc["profile"] == [1, 1, 1] for doc in docs)


def test_sample_seed_changes_output(capsys):
    base = ("sample", "--d", "3", "--profile", "1,1,1", "--count", "30")
    _, out1, _ = run(capsys, *base, "--seed", "1")
    _, out2, _ = run(capsys, *base, "--seed", "2")
    assert out1 != out2


def test_sample_over_cap_exits_3(capsys):
    code, _, _ = run(capsys, "sample", "--d", "3", "--profile", "8,8,8", "--count", "1")
    assert code == 3


ENUMERATE_D3_CAP = ["enumerate", "--d", "3", "--max-lines", "8", "--format", "text"]
SAMPLE_2000 = ["sample", "--d", "2", "--profile", "15,15", "--count", "2000"]
SAMPLE_ONE_BATCH = ["sample", "--d", "2", "--profile", "15,15", "--count", "900"]


@pytest.mark.parametrize(
    "argv,unbuffered",
    [
        (ENUMERATE_D3_CAP, False),
        (SAMPLE_2000, False),
        (SAMPLE_ONE_BATCH, False),
        (ENUMERATE_D3_CAP, True),
        (SAMPLE_2000, True),
        (SAMPLE_ONE_BATCH, True),
    ],
    ids=["argv0", "argv1", "one-batch", "unbuffered-enumerate", "unbuffered-sample",
         "unbuffered-one-batch"],
)
def test_closed_stdout_exits_141_without_traceback(argv, unbuffered):
    """A reader that closes the pipe after one line (``| head -1``) ends the
    command with 128 + SIGPIPE and nothing on stderr, whether stdout is
    buffered or not.  Each output is larger than a pipe holds, so the command
    is still writing.  The 900 samples (about 145 KB) fit in one batch of the
    line writer: unbuffered, a batch written whole would land in part, the
    lost count would go unseen, and the command would exit 0."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "linetrees.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (141, b"")


@pytest.mark.parametrize(
    "argv,unbuffered",
    [
        (["--version"], False),
        (["sample", "--help"], False),
        (["--version"], True),
        (["sample", "--help"], True),
        (["count", "--d", "2", "--profile", "1,1"], False),
        (["count", "--d", "2", "--profile", "1,1"], True),
    ],
    ids=["argv0", "argv1", "unbuffered-version", "unbuffered-help", "count", "unbuffered-count"],
)
def test_stdout_closed_before_any_output_exits_141(argv, unbuffered):
    """Output that fits in the stdout buffer fails only when it is flushed:
    with the read end of the pipe closed before the command starts,
    ``--version``, ``--help`` and a short command end with 128 + SIGPIPE and
    nothing on stderr too, whether stdout is buffered or not."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "linetrees.cli", *argv],
            env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=120,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


@pytest.mark.parametrize(
    "argv,code,err",
    [
        (["count", "--d", "2", "--profile", "1,1"], 141, b""),
        (["sample", "--d", "2", "--profile", "1,1", "--count", "3"], 141, b""),
        (["--version"], 141, b""),
        (["count", "--d", "9", "--profile", "1,1"], 2,
         b"error: d must be an integer in 2..8, got 9\n"),
    ],
    ids=["count", "sample", "version", "malformed"],
)
def test_closed_file_descriptor_1_acts_as_a_closed_pipe(argv, code, err):
    """With file descriptor 1 closed (``>&-``) Python starts with
    ``sys.stdout`` None; output ends the command as on a closed pipe, and
    malformed input is still reported on stderr."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "linetrees.cli", *argv],
        env=env, stderr=subprocess.PIPE, preexec_fn=lambda: os.close(1), timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (code, err)



@pytest.mark.parametrize(
    "argv,code,out",
    [
        (["count", "--d", "9", "--profile", "1,1"], 2, b""),
        (["sample", "--d", "3", "--profile", "8,8,8", "--count", "1"], 3, b""),
        (["count", "--d", "2", "--profile", "1,1"], 0,
         b'{"profile": [1, 1], "n": 1, "count": "3"}\n'),
        (["count", "--bogus"], 2, b""),
    ],
    ids=["malformed", "over-cap", "count", "argparse"],
)
@pytest.mark.parametrize("redirect", ["2>&-", "2</dev/null"], ids=["closed", "read-only"])
def test_closed_file_descriptor_2_keeps_the_exit_code(argv, code, out, redirect):
    """With file descriptor 2 closed by the shell (``2>&-``) Python starts
    with ``sys.stderr`` None; when a file opened before Python starts (a
    wrapper script's own, say) lands on fd 2, writing to it fails instead,
    as with ``2</dev/null``.  Either way the error message is lost, stdout
    holds only the command's output, and the exit code still tells, with
    stderr buffered or not."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    for unbuffered in ({}, {"PYTHONUNBUFFERED": "1"}):
        proc = subprocess.run(
            ["bash", "-c", f'"$@" {redirect}', "bash", sys.executable, "-m", "linetrees.cli", *argv],
            env={**env, **unbuffered}, stdout=subprocess.PIPE, timeout=120,
        )
        assert (unbuffered, proc.returncode, proc.stdout) == (unbuffered, code, out)


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--d", "3", "--max-lines", "7"],
        ["--version"],
        ["sample", "--help"],
        ["count", "--d", "2", "--profile", "1,1", "--bogus"],
        ["sample", "--d", "3", "--profile", "8,8,8", "--count", "1"],
    ],
    ids=["enumerate", "version", "help", "usage-error", "over-cap"],
)
@pytest.mark.parametrize("target", ["file", "pipe"])
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_exit_through_os_exit_loses_no_output(capsys, monkeypatch, tmp_path, argv, target,
                                              unbuffered):
    """A fresh ``python -m linetrees.cli`` ends with ``os._exit``, which
    flushes nothing: its stdout, stderr and exit code equal those of ``main``
    called in process, with stdout a regular file (block-buffered) or a
    pipe, and with stdout and stderr buffered or not."""
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to this width
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    want = capsys.readouterr()
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    command = [sys.executable, "-m", "linetrees.cli", *argv]
    if target == "pipe":
        proc = subprocess.run(command, env=env, capture_output=True, timeout=120)
        out = proc.stdout
    else:
        with open(tmp_path / "out", "wb") as stdout:
            proc = subprocess.run(command, env=env, stdout=stdout, stderr=subprocess.PIPE,
                                  timeout=120)
        out = (tmp_path / "out").read_bytes()
    assert (proc.returncode, proc.stderr.decode()) == (code, want.err)
    assert hashlib.sha256(out).hexdigest() == hashlib.sha256(want.out.encode()).hexdigest()
    if argv[0] == "enumerate":
        assert out.count(b"\n") == 52_787
    elif code == 2:
        assert want.err.endswith("linetrees: error: unrecognized arguments: --bogus\n")
    elif code == 3:
        assert want.err.startswith("error: ") and want.err.count("\n") == 1


# Records the number of atexit handlers, imports every linetrees module, runs
# each subcommand once through ``main`` and prints the number again.
_ATEXIT_PROBE = """
import atexit, importlib, io, json, pkgutil, sys
from contextlib import redirect_stdout
before = atexit._ncallbacks()
import linetrees
from linetrees import cli
for module in pkgutil.iter_modules(linetrees.__path__):
    importlib.import_module(f"linetrees.{module.name}")
codes = []
with redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(cli.main(argv))
print(json.dumps([codes, before, atexit._ncallbacks()]))
"""


def test_package_registers_no_atexit_handler():
    """``run`` ends the process with ``os._exit``, which runs no ``atexit``
    handler, so neither the package nor what its commands load (numpy
    included) may register one."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argvs = [list(argv) for argv in BASE_ARGV.values()]
    result = subprocess.run(
        [sys.executable, "-c", _ATEXIT_PROBE, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    codes, before, after = json.loads(result.stdout)
    assert codes == [0] * len(argvs)
    assert after == before


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


# One cheap invocation per subcommand and verify kind ("verify" alone runs
# the oracle), and which of the flags below each one reads; --max-order and
# --max-trees no longer exist, so every command rejects them.
BASE_ARGV = {
    "count": ("count", "--d", "2", "--profile", "1,1"),
    "enumerate": ("enumerate", "--d", "2", "--max-lines", "1"),
    "series": ("series", "--d", "2", "--order", "1"),
    "verify": ("verify", "oracle", "--d", "2", "--order", "1"),
    "roots": ("roots", "--d", "2", "--g", "0.1,0.1"),
    "sample": ("sample", "--d", "2", "--profile", "1,0", "--count", "1"),
    **{
        f"verify {kind}": ("verify", kind, "--d", "2", "--order", "1")
        for kind in ("recursion", "geometric", "convolution", "fuss-catalan", "narayana")
    },
}
READS = {
    "count": {"--n"},
    "series": {"--n"},
    "sample": {"--seed"},
    "verify recursion": {"--n-max"},
    "verify geometric": {"--n-max"},
    "verify convolution": {"--n", "--m"},
}


@pytest.mark.parametrize("command", sorted(BASE_ARGV))
@pytest.mark.parametrize("flag", ["--max-order", "--max-trees", "--seed", "--n-max", "--n", "--m"])
def test_subcommands_accept_only_the_flags_they_read(capsys, command, flag):
    argv = [*BASE_ARGV[command], flag, "5"]
    if flag in READS.get(command, ()):
        assert run(capsys, *argv)[0] == 0
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


BIG = "1" + "0" * 2200


@pytest.mark.parametrize(
    "argv,code",
    [
        # count: profile-total and level caps keep every count under 4300 digits
        (("count", "--d", "2", "--profile", "10000,10000"), 3),
        (("count", "--d", "8", "--profile", ",".join(["125"] * 7 + ["126"])), 3),
        (("count", "--d", "2", "--profile", "1,1", "--n", BIG), 3),
        (("count", "--d", "2", "--profile", "1,1", "--n", "1001"), 3),
        (("count", "--d", "2", "--profile", "40,40"), 0),
        # series and verify convolution: level cap
        (("series", "--d", "2", "--order", "20", "--n", "1" + "0" * 300), 3),
        (("series", "--d", "2", "--order", "2", "--n", "1001"), 3),
        (("series", "--d", "2", "--order", "20", "--n", "1000"), 0),
        (("verify", "convolution", "--d", "2", "--order", "2", "--n", "1001"), 3),
        (("verify", "convolution", "--d", "2", "--order", "2", "--m", "1001"), 3),
        # verify recursion|geometric --n-max
        (("verify", "recursion", "--d", "2", "--order", "2", "--n-max", "100000"), 3),
        (("verify", "recursion", "--d", "2", "--order", "2", "--n-max", "6"), 3),
        (("verify", "geometric", "--d", "2", "--order", "2", "--n-max", "6"), 3),
        (("verify", "geometric", "--d", "2", "--order", "2", "--n-max", "5"), 0),
        # verify narayana and fuss-catalan --order
        (("verify", "narayana", "--d", "2", "--order", "140"), 3),
        (("verify", "narayana", "--d", "2", "--order", "139"), 0),
        (("verify", "fuss-catalan", "--d", "2", "--order", "141"), 3),
        (("verify", "fuss-catalan", "--d", "2", "--order", "140"), 0),
        (("verify", "fuss-catalan", "--d", "3", "--order", "39"), 3),
        (("verify", "fuss-catalan", "--d", "4", "--order", "21"), 3),
        (("verify", "fuss-catalan", "--d", "5", "--order", "15"), 3),
        (("verify", "fuss-catalan", "--d", "6", "--order", "12"), 3),
        (("verify", "fuss-catalan", "--d", "7", "--order", "10"), 3),
        (("verify", "fuss-catalan", "--d", "8", "--order", "9"), 3),
        (("verify", "fuss-catalan", "--d", "8", "--order", "30"), 3),
        # sample --count
        (("sample", "--d", "2", "--profile", "1,0", "--count", "2001"), 3),
        (("sample", "--d", "2", "--profile", "1,0", "--count", "2000"), 0),
        # negative sizes are usage errors, not budget errors
        (("enumerate", "--d", "2", "--max-lines", "-1"), 2),
        (("verify", "oracle", "--d", "2", "--order", "-1"), 2),
        (("series", "--d", "2", "--order", "-1"), 2),
        (("verify", "recursion", "--d", "2", "--order", "-1"), 2),
        # radii that are not above 1 and a point whose polynomial overflows
        (("roots", "--d", "2", "--g", "0.1,0.1", "--radius", "1"), 2),
        (("roots", "--d", "2", "--g", "0.1,0.1", "--radius", "0.5"), 2),
        (("roots", "--d", "2", "--g", "0.1,0.1", "--radius=-2"), 2),
        (("roots", "--d", "2", "--g", "1e300,1e300"), 2),
        # caps that bind the CLI only (the library is uncapped): at the cap
        # and one above
        (("series", "--d", "2", "--order", "20"), 0),
        (("series", "--d", "2", "--order", "21"), 3),
        (("series", "--d", "4", "--order", "9", "--n", "2"), 3),
        (("verify", "recursion", "--d", "2", "--order", "20", "--n-max", "1"), 0),
        (("verify", "recursion", "--d", "2", "--order", "21", "--n-max", "1"), 3),
        (("verify", "geometric", "--d", "3", "--order", "13"), 3),
        (("verify", "convolution", "--d", "4", "--order", "9"), 3),
        (("enumerate", "--d", "2", "--max-lines", "8"), 0),
        (("enumerate", "--d", "2", "--max-lines", "9"), 3),
        (("verify", "oracle", "--d", "2", "--order", "8"), 0),
        (("verify", "oracle", "--d", "2", "--order", "9"), 3),
        (("sample", "--d", "2", "--profile", "15,15", "--count", "3"), 0),
        (("sample", "--d", "2", "--profile", "16,15", "--count", "3"), 3),
        (("sample", "--d", "4", "--profile", "3,3,3,2", "--count", "3"), 3),
        # a level below 1 is a usage error
        (("count", "--d", "2", "--profile", "1,1", "--n", "0"), 2),
        # g_2 = 0 deflates the d=2 polynomial to a constant, which has no roots
        (("roots", "--d", "2", "--g=1,0"), 2),
    ],
)
def test_caps_and_invalid_values(capsys, argv, code):
    got, out, err = run(capsys, *argv)
    assert got == code
    if code == 0:
        for line in out.splitlines():
            json.loads(line)
    else:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


def test_count_at_its_caps_prints_the_largest_count(capsys):
    profile = ",".join(["125"] * 8)
    code, out, _ = run(capsys, "count", "--d", "8", "--profile", profile, "--n", "1000")
    assert code == 0
    assert len(json.loads(out)["count"]) == 1613


# Fuzzed argv: d is 2..MAX_COLORS, other values are small integers (|g_i|
# from 9 down to 1e-300 for --g, one per color for --profile and --g), and
# at most one value or list entry is replaced by a wild one: 0, -1, one above
# its cap, huge, non-finite or not a number.  Exact cap values are left to
# the boundary tests above, which keeps this test to a few seconds.
SMALL = st.integers(1, 4).map(str)
COORDINATE = st.builds("{}{}e-{}".format, st.sampled_from(["", "-"]), st.integers(1, 9),
                       st.integers(0, 300))
WILD = st.sampled_from(
    ["0", "-1", "-7", "1" + "0" * 400, BIG, "1e400", "1e-300",
     "nan", "inf", "-inf", "0.5", "x", ""]
)
LISTS = {"--profile", "--g"}
FLAGS = {
    "count": ["--profile", "--n"],
    "enumerate": ["--max-lines"],
    "series": ["--order", "--n"],
    "roots": ["--g", "--radius"],
    "sample": ["--profile", "--count", "--seed"],
    **{f"verify {kind}": list(flags) for kind, (flags, _) in VERIFY_KINDS.items()},
}
# The CAPS key that bounds each capped flag (a profile's entries bound its
# total); --d is bounded by MAX_COLORS.
CAP_KEYS = {
    "count": {"--profile": "count profile total", "--n": "level"},
    "enumerate": {"--max-lines": "max_lines"},
    "series": {"--order": "order", "--n": "level"},
    "sample": {"--profile": "profile total", "--count": "sample count"},
    "verify recursion": {"--order": "order", "--n-max": "n_max"},
    "verify geometric": {"--order": "order", "--n-max": "n_max"},
    "verify convolution": {"--order": "order", "--n": "level", "--m": "level"},
    "verify fuss-catalan": {"--order": "fuss-catalan order"},
    "verify narayana": {"--order": "narayana order"},
    "verify oracle": {"--order": "max_lines"},
}


def above_cap(command, flag, d):
    """The value one above the cap of ``flag``, or None if it has none."""
    if flag == "--d":
        return MAX_COLORS + 1
    key = CAP_KEYS.get(command, {}).get(flag)
    if key is None:
        return None
    cap = CAPS[key]
    return (cap[d] if isinstance(cap, dict) else cap) + 1


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = command.split()
    if draw(st.integers(0, 3)):
        argv.append(f"--format={draw(st.sampled_from(['json', 'csv', 'text']))}")
    d = draw(st.integers(2, MAX_COLORS))
    flags = ["--d", *FLAGS[command]]
    wild = draw(st.sampled_from([None, *flags]))
    for flag in flags:
        if flag != wild and not draw(st.integers(0, 5)):
            continue
        size = d if flag in LISTS else 1
        value = COORDINATE if flag == "--g" else SMALL
        values = [str(d)] if flag == "--d" else draw(st.lists(value, min_size=size, max_size=size))
        if flag == wild:
            above = above_cap(command, flag, d)
            choices = WILD if above is None else st.one_of(WILD, st.just(str(above)))
            values[draw(st.integers(0, len(values) - 1))] = draw(choices)
        argv.append(f"{flag}={','.join(values)}")
    return argv


@given(cli_argv())
@settings(max_examples=300, deadline=None)
def test_fuzz_main_exits_with_a_documented_code(argv):
    """Every argv exits 0, 2, 3 or 4: exit 1 reports a failing verify, and a
    correct build fails none.  An exit other than 0 writes nothing on stdout
    and exactly one ``error:`` line on stderr (argparse's usage may come
    before it); json output parses line by line."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in {0, 2, 3, 4}
    if code:
        assert out.getvalue() == ""
        assert [line for line in err.getvalue().splitlines() if "error:" in line] == [
            err.getvalue().splitlines()[-1]
        ]
    elif not {"--format=csv", "--format=text"} & set(argv):
        for line in out.getvalue().splitlines():
            json.loads(line)


_RECORDED_DIGESTS = json.loads(
    (Path(__file__).parents[1] / "bench" / "record.json").read_text()
)["digests"]


def _recorded_digest_test(select):
    """A test, parametrized over the seed-0 jobs of ``bench/record.json`` that
    ``select(workload, argv)`` picks, that each job exits 0 and prints stdout
    with the recorded sha256.  ``roots`` jobs are left out: the last bits of
    ``np.roots`` depend on the LAPACK build, so another machine may print
    other digits; the benchmark checks their digests on its own host."""
    cases = [
        (argv, digest)
        for workload, digests in _RECORDED_DIGESTS.items()
        for argv, digest in digests.items()
        if not argv.startswith("roots ") and select(workload, argv)
    ]

    @pytest.mark.parametrize("argv,digest", cases, ids=[argv for argv, _ in cases])
    def test(capsys, argv, digest):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    return test


# The one digest test, collected under three names so that each existing
# case keeps its test id: sample jobs, enumerate-stream jobs (which pin the
# enumeration order end to end), and every other non-roots job.
test_sample_stdout_matches_recorded_digest = _recorded_digest_test(
    lambda workload, argv: argv.startswith("sample ")
)
test_enumerate_stream_stdout_matches_recorded_digest = _recorded_digest_test(
    lambda workload, argv: workload == "enumerate-stream"
)
test_stdout_matches_recorded_digest = _recorded_digest_test(
    lambda workload, argv: workload != "enumerate-stream" and not argv.startswith("sample ")
)


# Runs ``python -m linetrees.cli`` on the argv given as JSON, and prints the
# exit code and the modules the run loaded, beyond those loaded at start-up.
# ``run`` ends the process with ``os._exit``; here that raises SystemExit
# instead, so that the probe lives to print.
_STARTUP_PROBE = """
import io, json, os, runpy, sys
from contextlib import redirect_stdout
before = set(sys.modules)
os._exit = sys.exit
sys.argv = ["linetrees", *json.loads(sys.argv[1])]
with redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("linetrees.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(set(sys.modules) - before)]))
"""

# The package modules each command loads besides linetrees, errors and
# limits, which every command loads.  ``-m`` runs linetrees.cli as __main__,
# so it is not loaded under its own name.
_STARTUP_MODULES = [
    (["--version"], []),
    (["count", "--d", "2", "--profile", "3,2"], ["combinatorics"]),
    (["enumerate", "--d", "2", "--max-lines", "3"], ["combinatorics", "trees"]),
    (["series", "--d", "2", "--order", "6"], ["series"]),
    (["series", "--d", "2", "--order", "6", "--n", "2"], ["combinatorics", "series"]),
    (["verify", "recursion", "--d", "2", "--order", "6"],
     ["combinatorics", "series", "verification"]),
    (["verify", "narayana", "--d", "2", "--order", "6"], ["combinatorics", "verification"]),
    (["verify", "oracle", "--d", "2", "--order", "3"],
     ["combinatorics", "trees", "verification"]),
    (["sample", "--d", "3", "--profile", "1,1,1", "--count", "3"], ["counting"]),
    (["roots", "--d", "2", "--g", "0.1,0.1"], ["roots"]),
]


def test_only_roots_loads_numpy():
    """A fresh ``python -m linetrees.cli`` loads only the package modules its
    command runs, and besides them only the standard library; no command
    loads dataclasses (nor inspect, which it imports), and only roots, the
    one command that finds roots, loads numpy."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    for argv, engines in _STARTUP_MODULES:
        result = subprocess.run(
            [sys.executable, "-c", _STARTUP_PROBE, json.dumps(argv)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        code, loaded = json.loads(result.stdout)
        assert code == 0, argv
        package = {name for name in loaded if name.partition(".")[0] == "linetrees"}
        assert package == {"linetrees", "linetrees.errors", "linetrees.limits"} | {
            f"linetrees.{name}" for name in engines
        }, argv
        assert "dataclasses" not in loaded, argv
        foreign = {
            name.partition(".")[0] for name in loaded
            if name.partition(".")[0] not in sys.stdlib_module_names | {"linetrees"}
        }
        if argv[0] == "roots":
            assert foreign == {"numpy"}
        else:
            assert foreign == set(), argv
            assert "inspect" not in loaded, argv
