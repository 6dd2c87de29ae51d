"""The Python examples of README.md run, and print what their comments say.

Each ``python`` block runs on its own.  A line ``print(...)  # text`` must
print exactly ``text``.
"""

import os
import re
import textwrap

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "README.md")
_BLOCK = re.compile(r"^( *)```python\n(.*?)^\1```", re.M | re.S)
_PRINT = re.compile(r"^\s*print\(.*\)\s+#\s(.*)$")


def _blocks():
    with open(README) as handle:
        text = handle.read()
    return [textwrap.dedent(m.group(2)) for m in _BLOCK.finditer(text)]


def test_readme_has_checked_examples():
    expected = [line for block in _blocks() for line in block.splitlines()
                if _PRINT.match(line)]
    assert len(_blocks()) >= 3 and len(expected) >= 5


@pytest.mark.parametrize("block", _blocks(),
                         ids=lambda block: block.split("\n", 1)[0])
def test_python_block(block):
    expected = []
    for line in block.splitlines():
        if line.lstrip().startswith("print("):
            match = _PRINT.match(line)
            assert match, "print without an expected output: %s" % line
            expected.append(match.group(1).strip())
    printed = []

    def record(*args):
        printed.append(" ".join(str(a) for a in args))
    exec(compile(block, README, "exec"), {"print": record})
    assert printed == expected
