"""The README's library example runs and prints what its comments say."""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# the comments beside the first three prints of the example
EXPECTED = ["34", "4/15 -4.055556658641704", "not_dfinite_proven"]


def test_library_example_prints_its_comments():
    block = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert [line.partition("#")[2].strip() for line in prints[:3]] == EXPECTED
    out = io.StringIO()
    with redirect_stdout(out):
        exec(block, {})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(prints)  # one line per print
    assert printed[:3] == EXPECTED
