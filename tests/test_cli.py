"""Tests for the command-line surface: schemas, formats, exit codes."""

import argparse
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linetrees.cli import VERIFY_KINDS, _build_parser, main
from linetrees.combinatorics import ColorProfile
from linetrees.counting import ProfileCountTable, SampleRequest
from linetrees.trees import ColoredTree, decode, enumerate_by_lines


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
    request = SampleRequest(ColorProfile(3, (2, 2, 1)), 50, 9)
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
    """sample and enumerate print encodings without calling encode or
    building a ColoredTree."""
    expected = run(capsys, *argv, "--format", fmt)
    assert expected[0] == 0

    def refuse(*args):
        raise AssertionError("a tree object was built or encoded")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "linetrees" and hasattr(module, "encode"):
            monkeypatch.setattr(module, "encode", refuse)
    monkeypatch.setattr(ColoredTree, "__post_init__", refuse)
    assert run(capsys, *argv, "--format", fmt) == expected


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


def test_roots_inadmissible_point(capsys):
    code, out, _ = run(capsys, "roots", "--d", "2", "--g", "0.3,0.3")
    doc = json.loads(out)
    assert code == 0
    assert doc["admissible"] is False


def test_roots_zero_residual_tol_exits_4(capsys):
    code, _, err = run(capsys, "roots", "--d", "2", "--g", "0.1,0.1", "--residual-tol", "0")
    assert code == 4
    assert "residual" in err


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


def _options(parser):
    """Option strings of a parser, without --help, --d and --format."""
    skip = {"-h", "--help", "--d", "--format"}
    return [opt for action in parser._actions for opt in action.option_strings if opt not in skip]


def _subcommands(parser):
    """Name -> parser of each subcommand, with verify split into its kinds."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    out = {}
    for name, sub in action.choices.items():
        if name == "verify":
            out.update((f"verify {kind}", p) for kind, p in _subcommands(sub).items())
        else:
            out[name] = sub
    return out


def test_readme_flags_table_matches_the_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    header = "| subcommand | flags besides `--d` and `--format` |"
    rows = readme.split(header, 1)[1].split("\n\n", 1)[0].strip().splitlines()[1:]
    table = {}
    for row in rows:
        name, flags = (cell.strip() for cell in row.strip("|").split("|"))
        table[name.strip("`")] = [flag.strip().strip("`") for flag in flags.split(",")]
    parsers = _subcommands(_build_parser())
    assert sorted(table) == sorted(parsers)
    for name, sub in parsers.items():
        assert table[name] == _options(sub), name


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
        # invalid residual tolerances and points whose polynomial overflows
        (("roots", "--d", "2", "--g", "0.1,0.1", "--residual-tol", "nan"), 2),
        (("roots", "--d", "2", "--g", "0.1,0.1", "--residual-tol", "inf"), 2),
        (("roots", "--d", "2", "--g", "0.1,0.1", "--residual-tol=-1"), 2),
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


# Fuzzed argv: d is 2..4, other values are small integers (one per color for
# --profile and --g), and at most one value or list entry is replaced by a
# wild one: zero, negative, huge, near underflow, non-finite or not a number.
SMALL = st.integers(1, 4).map(str)
WILD = st.sampled_from(
    ["0", "-1", "-7", "1" + "0" * 400, BIG, "1e400", "1e-300",
     "nan", "inf", "-inf", "0.5", "x", ""]
)
LISTS = {"--profile", "--g"}
FLAGS = {
    "count": ["--profile", "--n"],
    "enumerate": ["--max-lines"],
    "series": ["--order", "--n"],
    "roots": ["--g", "--radius", "--residual-tol"],
    "sample": ["--profile", "--count", "--seed"],
    **{f"verify {kind}": list(flags) for kind, (flags, _) in VERIFY_KINDS.items()},
}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    argv = command.split()
    if draw(st.integers(0, 3)):
        argv.append(f"--format={draw(st.sampled_from(['json', 'csv', 'text']))}")
    d = draw(st.integers(2, 4))
    flags = ["--d", *FLAGS[command]]
    wild = draw(st.sampled_from([None, *flags]))
    for flag in flags:
        if flag != wild and not draw(st.integers(0, 5)):
            continue
        size = d if flag in LISTS else 1
        values = [str(d)] if flag == "--d" else draw(st.lists(SMALL, min_size=size, max_size=size))
        if flag == wild:
            values[draw(st.integers(0, len(values) - 1))] = draw(WILD)
        argv.append(f"{flag}={','.join(values)}")
    return argv


@given(cli_argv())
@settings(max_examples=300, deadline=None)
def test_fuzz_main_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in {0, 1, 2, 3, 4}
    if code == 0 and not {"--format=csv", "--format=text"} & set(argv):
        for line in out.getvalue().splitlines():
            json.loads(line)


def _recorded_digests(workloads, prefix=""):
    """(argv, sha256 of stdout) of the jobs the benchmark records for
    ``workloads`` whose argv starts with ``prefix``."""
    record = json.loads((Path(__file__).parents[1] / "bench" / "record.json").read_text())
    return [
        (argv, digest)
        for workload in workloads
        for argv, digest in record["digests"][workload].items()
        if argv.startswith(prefix)
    ]


_SAMPLE_DIGESTS = _recorded_digests(("sample-draw", "cli-mix"), "sample ")
_ENUMERATE_DIGESTS = _recorded_digests(("enumerate-stream",))


@pytest.mark.parametrize("argv,digest", _SAMPLE_DIGESTS, ids=[a for a, _ in _SAMPLE_DIGESTS])
def test_sample_stdout_matches_recorded_digest(capsys, argv, digest):
    """sample prints byte-identical trees for the recorded argvs and seeds."""
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,digest", _ENUMERATE_DIGESTS, ids=[a for a, _ in _ENUMERATE_DIGESTS]
)
def test_enumerate_stream_stdout_matches_recorded_digest(capsys, argv, digest):
    """enumerate and verify oracle print byte-identical output for the
    recorded argvs, which pins the enumeration order end to end."""
    code, out, _ = run(capsys, *argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_STARTUP_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
before = set(sys.modules)
from linetrees import cli
foreign = sorted(
    name for name in set(sys.modules) - before
    if name.partition(".")[0] not in sys.stdlib_module_names | {"linetrees"}
)
codes = []
with redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(cli.main(argv))
    exact_numpy = "numpy" in sys.modules
    roots_code = cli.main(["roots", "--d", "2", "--g", "0.1,0.1"])
print(json.dumps([foreign, codes, exact_numpy, roots_code, "numpy" in sys.modules]))
"""


def test_only_roots_loads_numpy():
    """Importing the CLI loads only the standard library and the package, so
    a fresh start pays for no numpy import; the exact-integer commands leave
    numpy unloaded and the first root finding loads it."""
    exact = [
        ["count", "--d", "2", "--profile", "3,2"],
        ["series", "--d", "2", "--order", "6"],
        ["enumerate", "--d", "2", "--max-lines", "3"],
        ["sample", "--d", "3", "--profile", "1,1,1", "--count", "3"],
        ["verify", "recursion", "--d", "2", "--order", "6"],
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    result = subprocess.run(
        [sys.executable, "-c", _STARTUP_PROBE, json.dumps(exact)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    foreign, codes, exact_numpy, roots_code, roots_numpy = json.loads(result.stdout)
    assert foreign == []
    assert codes == [0] * len(exact)
    assert not exact_numpy
    assert roots_code == 0 and roots_numpy
