"""The python example in README.md runs as written."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def test_the_readme_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
