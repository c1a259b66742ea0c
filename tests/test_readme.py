"""The README's examples run as written: its Python session through
doctest, and its command-line examples through main, output for output."""

import doctest
import shlex
from pathlib import Path

from indematch.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _fenced_blocks(language: str) -> list[str]:
    """The bodies of the README's fenced code blocks opened as ```language."""
    blocks, body, opened = [], [], None
    for line in README.splitlines(keepends=True):
        if opened is None and line.startswith("```"):
            opened, body = line[3:].strip(), []
        elif opened is not None and line.strip() == "```":
            if opened == language:
                blocks.append("".join(body))
            opened = None
        elif opened is not None:
            body.append(line)
    return blocks


def test_readme_python_session_runs_under_doctest():
    (session,) = _fenced_blocks("python")
    test = doctest.DocTestParser().get_doctest(session, {}, "README.md", "README.md", 0)
    assert test.examples
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.summarize(verbose=False).failed == 0


def _cli_examples() -> list[tuple[str, str]]:
    """(command, expected stdout) for each `$ indematch` line that the
    README follows with output, in its unlabelled code blocks; piped
    commands are left out."""
    examples: list[tuple[str, list[str]]] = []
    for block in _fenced_blocks(""):
        current = None
        for line in block.splitlines():
            if line.startswith("$ indematch "):
                current = (line[2:], [])
                examples.append(current)
            elif not line:
                current = None
            elif current is not None:
                current[1].append(line + "\n")
    return [(c, "".join(out)) for c, out in examples if out and "|" not in c]


def test_readme_cli_examples_print_what_they_show(capsys):
    examples = _cli_examples()
    assert {shlex.split(c)[1] for c, _ in examples} == {"check", "pins", "witness", "canonical"}
    for command, expected in examples:
        assert main(shlex.split(command)[1:]) == 0, command
        assert capsys.readouterr().out == expected, command
