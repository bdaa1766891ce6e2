"""The README's examples, run: the Python quick start and every
``$ biasym`` command, checked against the output the README shows."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from biasym.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# the digits of the decode error depend on the BLAS build: only their format is checked
BLAS_DIGITS = re.compile(r"decode: max relative error \d\.\d{3}e-\d{2}")


def code_blocks(language: str) -> list[str]:
    return re.findall(rf"```{language}\n(.*?)```", README, re.S)


def shown_output(code: str) -> list[str]:
    """What a Python block says it prints: the full-line ``# `` comments
    right after each ``print`` line."""
    shown, after_print = [], False
    for line in code.splitlines():
        if after_print and line.startswith("# "):
            shown.append(line[2:])
        else:
            after_print = line.startswith("print(")
    return shown


def cli_examples() -> list:
    """One case per shell block that runs ``biasym``: its argv, the lines
    it shows and whether a closing ``...`` stands for more output."""
    examples = []
    for block in code_blocks("sh"):
        command, *shown = block.splitlines()
        if command.startswith("$ biasym "):
            argv = shlex.split(command)[2:]
            more = "..." in shown
            if more:
                shown = shown[:shown.index("...")]
            examples.append(pytest.param(argv, shown, more, id=argv[0]))
    return examples


def test_python_quick_start():
    (code,) = code_blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    shown = shown_output(code)
    assert len(shown) == 5
    assert out.getvalue().splitlines() == shown


def test_flag_table_lists_each_subcommands_flags(capsys):
    rows = re.findall(r"^\| `(\w+)` \| `(--[^`]*)` \|$", README, re.M)
    assert [command for command, _ in rows] == ["pattern", "verify", "dof", "sweep"]
    for command, flags in rows:
        with pytest.raises(SystemExit):
            main([command, "--help"])
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert flags.split() == re.findall(r"\[(--[\w-]+)", usage), command


def test_every_subcommand_has_an_example():
    assert sorted(case.id for case in cli_examples()) == ["dof", "pattern", "sweep", "verify"]


@pytest.mark.parametrize("argv,shown,more", cli_examples())
def test_cli_example(argv, shown, more, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) > len(shown) if more else len(out) == len(shown)
    for got, want in zip(out, shown):
        if BLAS_DIGITS.fullmatch(want):
            assert BLAS_DIGITS.fullmatch(got), got
        else:
            assert got == want
