"""The README's library quick start runs as documented."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs():
    block = re.search(r"^```python\n(.*?)^```", README.read_text(), re.DOTALL | re.MULTILINE)
    assert block is not None, "README.md has no python block"
    exec(compile(block.group(1), f"{README.name} quick start", "exec"), {})
