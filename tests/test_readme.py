"""The README's library example and command-line block run against the current API."""

import contextlib
import io
import math
import re
import shlex
from pathlib import Path

from dislospec.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def first_block(heading, language):
    text = README.read_text()
    section = text[text.index(f"\n## {heading}\n") :]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    block = first_block("Library", "python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines
    for line in lines:
        assert math.isfinite(float(line.split()[0])), line


def test_command_line_examples_run(capsys):
    # Each command's output is a reference that a change must leave byte-identical.
    commands = [shlex.split(x) for x in first_block("Command line", "sh").splitlines()]
    commands = [argv for argv in commands if argv and argv[0] == "dislospec"]
    assert len(commands) == 5
    for argv in commands:
        assert main(argv[1:]) == EXIT_OK, argv
        assert capsys.readouterr().out
