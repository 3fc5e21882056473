"""The README's library tour and CLI lines run against the package in ``src/``.

Every ```python block of README.md is executed, in order, in one
namespace, and every ``qpendulum ...`` line of its ```sh blocks is parsed
by the CLI's parser, so a renamed or deleted public name or flag fails
here instead of staying in the docs.
"""

import re
from pathlib import Path

import pytest

from qpendulum.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", TEXT, flags=re.MULTILINE | re.DOTALL)
COMMANDS = [line.split()[1:]
            for block in re.findall(r"^```sh\n(.*?)^```$", TEXT,
                                    flags=re.MULTILINE | re.DOTALL)
            for line in block.splitlines() if line.startswith("qpendulum ")]


def test_readme_has_python_blocks():
    assert BLOCKS


def test_readme_python_blocks_run():
    namespace = {"__name__": "readme"}
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)


def test_readme_has_cli_commands():
    assert COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_cli_command_parses(argv):
    # a renamed or removed flag makes argparse exit here
    build_parser().parse_args(argv)
