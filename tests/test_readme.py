"""README.md's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def test_the_python_examples_run_in_order_in_one_namespace():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) == 3
    namespace = {"__name__": "readme"}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["hist"].n_counted > 0
