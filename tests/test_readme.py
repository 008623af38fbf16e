"""Tests that keep README.md in step with the code it documents."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from linetrees.cli import VERIFY_KINDS, _build_parser, main
from linetrees.limits import CAPS, MAX_COLORS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def format_cap(cap):
    """A cap as the README writes it: a plain value, or runs of equal per-d
    values as ``v (d=a,b)``, the run that reaches MAX_COLORS as ``v (d>=k)``."""
    if not isinstance(cap, dict):
        return str(cap)
    runs = []
    for d, value in sorted(cap.items()):
        if runs and runs[-1][0] == value:
            runs[-1][1].append(d)
        else:
            runs.append((value, [d]))
    parts = []
    for value, ds in runs:
        if ds[-1] == MAX_COLORS:
            parts.append(f"{value} (d>={ds[0]})")
        else:
            parts.append(f"{value} (d={','.join(map(str, ds))})")
    return ", ".join(parts)


def table_rows(heading):
    """The body rows of the first table after ``heading``, as lists of cells."""
    section = README.split(heading, 1)[1]
    rows = []
    for line in section.splitlines():
        if line.startswith("|"):
            rows.append([cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]])
        elif rows:
            break
    return rows[2:]  # past the header and the separator


def test_readme_caps_table_matches_caps():
    seen = set()
    for limit, cap, _ in table_rows("## Budgets and caps"):
        keys = [name for name in re.findall(r"`([^`]+)`", limit) if name in CAPS]
        assert len(keys) <= 1, limit
        for key in keys:
            assert cap == format_cap(CAPS[key]), key
            seen.add(key)
    assert seen == set(CAPS)


def parser_flags(parser, prefix=""):
    """Subcommand (``verify`` split into its kinds) -> the option strings
    its parser accepts besides --d, --format and --help, in parser order."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {}
    for name, sub in action.choices.items():
        if name == "verify":
            flags.update(parser_flags(sub, "verify "))
        else:
            flags[prefix + name] = [
                opt for a in sub._actions for opt in a.option_strings
                if opt not in {"-h", "--help", "--d", "--format"}
            ]
    return flags


def test_readme_flags_table_matches_the_parser():
    """The CLI table lists, per subcommand and per verify kind, exactly the
    flags the parser accepts, so a deleted flag cannot linger in it."""
    table = {
        command.strip("`"): re.findall(r"`(--[^`]+)`", flags)
        for command, flags in table_rows("## CLI")
    }
    assert table == parser_flags(_build_parser())


def test_readme_verify_table_lists_every_kind():
    """One row per verify kind, in the order ``cli.VERIFY_KINDS`` holds them."""
    rows = table_rows("### What each `verify` kind compares")
    assert [kind.strip("`") for kind, _, _ in rows] == list(VERIFY_KINDS)


def test_readme_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def cli_examples():
    """(argv, comment) for each ``linetrees`` line of the CLI section's sh
    block; the comment is the text after ``#``, or empty."""
    block = re.search(r"^```sh\n(.*?)^```$", README.split("## CLI", 1)[1],
                      re.MULTILINE | re.DOTALL).group(1)
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if command.startswith("linetrees "):
            examples.append((shlex.split(command)[1:], comment.strip()))
    return examples


CLI_EXAMPLES = cli_examples()


@pytest.mark.parametrize("argv,comment", CLI_EXAMPLES, ids=[" ".join(a) for a, _ in CLI_EXAMPLES])
def test_readme_cli_examples_run(capsys, argv, comment):
    """Every CLI example exits 0, and a comment that starts with ``{`` is
    the line the command prints."""
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    if comment.startswith("{"):
        assert out == comment + "\n"
