"""The ``python`` blocks of README.md run as written, so the library tour
cannot go stale without a failing test."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(), flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    # the tour's printed report stays out of the test log
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})
