"""The README's library tour runs against the package in ``src/``.

Every ```python block of README.md is executed, in order, in one
namespace, so a renamed or deleted public name fails here instead of
staying in the docs.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert BLOCKS


def test_readme_python_blocks_run():
    namespace = {"__name__": "readme"}
    for i, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
