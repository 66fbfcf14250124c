"""The README's Python quick start runs and scores what it promises, and
its CLI documentation matches the parser."""

import argparse
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from fusehash.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def section_block(text: str, heading: str, language: str) -> str:
    """The first ``language`` code block of the ``## heading`` section."""
    for section in re.split(r"^## ", text, flags=re.M)[1:]:
        title, _, body = section.partition("\n")
        if title.strip() == heading:
            match = re.search(rf"^```{language}\n(.*?)^```", body, flags=re.M | re.S)
            if match is None:
                raise AssertionError(f"section {heading!r} has no {language} block")
            return match.group(1)
    raise AssertionError(f"no section {heading!r}")


def test_python_quick_start_prints_a_high_map():
    code = section_block(README.read_text(encoding="utf-8"), "Quick start (Python)", "python")
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), {"__name__": "__main__"})
    score = float(printed.getvalue().split()[-1])
    assert score >= 0.95


@pytest.mark.parametrize(
    "text",
    [
        "# t\n\n## Quick start (CLI)\n\n```python\nprint(1)\n```\n",
        "# t\n\n## Quick start (Python)\n\ntext only\n\n## Next\n\n```python\nprint(1)\n```\n",
    ],
)
def test_missing_block_is_an_error(text):
    with pytest.raises(AssertionError):
        section_block(text, "Quick start (Python)", "python")


def test_subcommand_table_lists_the_parser_subcommands():
    text = README.read_text(encoding="utf-8")
    table = re.search(r"^### Subcommands\n(.*?)^#", text, flags=re.M | re.S)
    assert table is not None, "no '### Subcommands' section"
    listed = re.findall(r"^\| `([^`]+)` \|", table.group(1), flags=re.M)
    (subparsers,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert listed == list(subparsers.choices)


def test_every_readme_command_line_parses():
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("fusehash ")]
    assert lines, "no fusehash command line in a code block"
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit as exc:
            raise AssertionError(f"README command does not parse: {line}") from exc
