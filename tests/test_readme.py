"""The README's library example and command-line examples run as written."""

import re
import shlex
from pathlib import Path

import pytest

from dsheffer.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
COMMAND_LINE = README.read_text().split("## Command line\n", 1)[1]
COMMANDS = re.search(r"^```sh\n(.*?)^```$", COMMAND_LINE, re.M | re.S).group(1).splitlines()
COUPLE = re.search(r"^```json\n(.*?)^```$", COMMAND_LINE, re.M | re.S).group(1)


def test_readme_python_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_lists_its_command_lines():
    assert len(COMMANDS) == 6 and all(line.startswith("dsheffer ") for line in COMMANDS)


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_line_runs(line, tmp_path, monkeypatch, capsys):
    # the couple file of the example is the JSON block that follows it
    (tmp_path / "couple.json").write_text(COUPLE)
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(line)[1:]) == 0
    out, err = capsys.readouterr()
    assert out and not err
