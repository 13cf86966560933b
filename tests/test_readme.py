"""The python code blocks of README.md run as written.

Each block runs in a fresh namespace, and what it prints must be exactly
the lines its `# prints ` comments give, in order, so an example whose
calls or output have gone stale fails here.
"""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    flags=re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run_and_print_what_they_say():
    assert BLOCKS
    for block in BLOCKS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        expected = [line.removeprefix("# prints ") for line in block.splitlines()
                    if line.startswith("# prints ")]
        assert out.getvalue().splitlines() == expected
