"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("\n## Library example\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block, "no python block under '## Library example'"
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out
