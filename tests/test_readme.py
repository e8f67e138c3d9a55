"""README examples: every CLI line runs, and the library example prints the
values its comments state."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from hilbertdepth.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _block(heading, lang=""):
    """The first fenced block after `heading`, as a list of lines."""
    section = README.split(heading, 1)[1]
    match = re.search(rf"^```{lang}\n(.*?)^```", section, re.M | re.S)
    return match.group(1).splitlines()


CLI_LINES = [line for line in _block("## CLI") if line.startswith("hilbertdepth ")]


def test_cli_block_is_found():
    assert len(CLI_LINES) == 5


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_example_runs(capsys, line):
    assert main(shlex.split(line)[1:]) == 0
    assert capsys.readouterr().out


def test_library_example_prints_stated_values(capsys):
    lines = _block("## Library example", "python")
    exec("\n".join(lines), {})
    printed = capsys.readouterr().out.splitlines()
    calls = [line for line in lines if line.startswith("print(")]
    assert len(printed) == len(calls)
    stated = 0
    for call, out in zip(calls, printed):
        _, _, comment = call.partition("#")
        try:
            value = ast.literal_eval(comment.strip())
        except (ValueError, SyntaxError):
            continue  # a description, not a value
        assert out == str(value), call
        stated += 1
    assert stated == 2
