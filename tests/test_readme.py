"""Every ``twospinboson`` command in README's code blocks runs and exits 0.

Commands come from the fenced code blocks: ``\\`` continuations are joined and
``#`` comments dropped.  Each runs in-process through ``cli.main`` in a
temporary directory, where the files the examples write land.
"""

import re
import shlex
from pathlib import Path

import pytest

from twospinboson import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands() -> list[list[str]]:
    text = README.read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("twospinboson "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


COMMANDS = _readme_commands()


def test_readme_has_commands():
    assert COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_readme_command_exits_0(argv, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.main(argv)
    assert code == 0, capsys.readouterr().err
    capsys.readouterr()
