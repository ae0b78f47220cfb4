"""Every ``$ topotype ...`` example in README.md runs through ``cli.main``
and prints what the README shows.

In a shown output, a line ``...`` stands for any number of lines, and a
line ending in `` ...`` stands for any line that starts with the rest of
it.  Every other shown line must be the next line of stdout, and the
output ends where the shown output ends unless that is ``...``.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from topotype.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples(text: str) -> list:
    """(argv, shown output lines) of every ``$ topotype`` command in a
    fenced block; a command's output runs to a blank line, the next
    command or the end of the block."""
    examples = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        for chunk in re.split(r"^(?=\$ )|^\s*\n", block, flags=re.M):
            lines = chunk.splitlines()
            if lines and lines[0].startswith("$ topotype "):
                examples.append((shlex.split(lines[0])[2:], [ln.rstrip() for ln in lines[1:]]))
    return examples


def fits(line: str, got: str) -> bool:
    if line.endswith(" ..."):
        return got.startswith(line[:-4])
    return got == line


def matches(shown: list, out: list) -> bool:
    """Whether stdout lines ``out`` fit the shown lines (see the module);
    after a ``...`` the next shown line matches its first fit."""
    i, gap = 0, False
    for line in shown:
        if line.strip() == "...":
            gap = True
            continue
        while gap and i < len(out) and not fits(line, out[i]):
            i += 1
        if i == len(out) or not fits(line, out[i]):
            return False
        i, gap = i + 1, False
    return gap or i == len(out)


EXAMPLES = readme_examples(README.read_text())


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv, _ in EXAMPLES} == {"count", "total", "verify", "table"}
    assert all(shown for _, shown in EXAMPLES)


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example(argv, shown):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv)
    assert matches(shown, out.getvalue().splitlines()), out.getvalue()


def test_matches_rules():
    out = ["a", "b1", "c", "d"]
    assert matches(["a", "b1", "c", "d"], out)
    assert matches(["...", "c", "d"], out)
    assert matches(["a", "b ...", "..."], out)
    assert not matches(["a", "c", "d"], out)  # a skipped line needs "..."
    assert not matches(["a", "b1"], out)  # unshown trailing lines need "..."
    assert not matches(["...", "d", "c"], out)
    assert not matches(["a", "x ...", "..."], out)
